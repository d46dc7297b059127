"""Output checks, run outside the timed region.

Every operation's output is compared with the answer its generator built
in.  A wrong answer, a schema-invalid document or a paper count that
differs (more than two oracle calls per SAT decision, other than four
evaluations per certificate) is a failure of kind "wrong"; an exit 1 with
the arity-cap message on an operation the generator marked as hitting
the documented cap is a failure of kind "cap".  Neither aborts the run.
"""

from __future__ import annotations

import json
import math
import re

import reference as ref

CAP_MESSAGE = "exceeds the configured cap"
P0_TOLERANCE = 2.0 ** -30  # p0 is exactly 0 or 1; float64 sums leave ~1e-15


class Mismatch(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class CliChecker:
    """Checks one CLI operation; memoized on the output, which the
    program must reproduce byte for byte for the same input."""

    def __init__(self, schemas: dict):
        import jsonschema

        self._validators = {
            cmd: jsonschema.Draft202012Validator(schema) for cmd, schema in schemas.items()
        }
        self._seen: dict[tuple, tuple[str, str]] = {}

    def check(self, slot_id: int, slot: dict, rc: int, out: str, err: str) -> tuple[str, str]:
        key = (slot_id, rc, ref.digest(out), err)
        verdict = self._seen.get(key)
        if verdict is None:
            verdict = self._check(slot, rc, out, err)
            self._seen[key] = verdict
        return verdict

    def _check(self, slot: dict, rc: int, out: str, err: str) -> tuple[str, str]:
        cmd = slot["cmd"]
        if rc != 0:
            if rc == 1 and slot["known_cap"] and CAP_MESSAGE in err:
                return "cap", err.strip()
            return "wrong", f"exit {rc}: {err.strip()}"
        try:
            if slot["json"]:
                doc = json.loads(out)
                errors = sorted(self._validators[cmd].iter_errors(doc), key=str)
                _expect(not errors, f"schema: {errors[0].message if errors else ''}")
            else:
                doc = _parse_text(cmd, out)
            _CHECKS[cmd](doc, slot["facts"])
        except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
            return "wrong", f"{cmd} n={slot['n']} {slot['family']}: {exc}"
        return "ok", ""


# ---------------------------------------------------------------------------
# Text output read back into the JSON document shape


def _fields(out: str) -> dict:
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def _parse_anf_lines(lines: list[str]) -> dict:
    _expect(lines[0] in ("c 0", "c 1"), f"bad header {lines[0]!r}")
    return {"c": int(lines[0][2]), "edges": [[int(v) for v in line.split()] for line in lines[1:]]}


def _parse_text(cmd: str, out: str) -> dict:
    if cmd == "anf":
        return _parse_anf_lines(out.splitlines())
    if cmd == "hypergraph":
        lines = out.splitlines()
        _expect(lines[-1].startswith("entangling: "), "missing entangling line")
        return {**_parse_anf_lines(lines[:-1]), "entangling": lines[-1] == "entangling: true"}
    fields = _fields(out)
    if cmd == "state":
        return {"n": int(fields["n"]), "table_hex": fields["table_hex"], "signs": fields["signs"]}
    if cmd == "separable":
        doc = {"n": int(fields["n"]), "osm": fields["osm"] == "true",
               "decomposition": None, "certificate": None}
        if "decomposition" in fields:
            match = re.fullmatch(r"global=([+-]) factors=([+-]+)", fields["decomposition"])
            _expect(match is not None, "bad decomposition line")
            doc["decomposition"] = {"global": match[1], "factors": list(match[2])}
        else:
            match = re.fullmatch(r"k=(\d+) l=(\d+) m=(\d+)", fields["certificate"])
            _expect(match is not None, "bad certificate line")
            doc["certificate"] = dict(zip("klm", map(int, match.groups())))
        return doc
    raise Mismatch(f"no text reader for {cmd}")


# ---------------------------------------------------------------------------
# Per-command answer checks


def certificate_holds(spec: dict, n: int, k: int, l: int, m: int) -> bool:
    """The four-point test of the paper, evaluated by the reference."""
    if not 0 <= k < n:
        return False
    width = 1 << k
    if not (0 <= l < width and 0 <= m < width):
        return False
    d_l = ref.evaluate_spec(spec, l) ^ ref.evaluate_spec(spec, width + l)
    d_m = ref.evaluate_spec(spec, m) ^ ref.evaluate_spec(spec, width + m)
    return d_l != d_m


def _check_classify(doc: dict, facts: dict) -> None:
    _expect(doc["n"] == facts["n"], "arity")
    _expect(doc["satisfying_count"] == facts["count"], "satisfying count")
    _expect(doc["kind"] == facts["kind"], "kind")


def _check_verdict(doc: dict, facts: dict) -> None:
    satisfiable = facts["count"] > 0
    _expect(doc["n"] == facts["n"], "arity")
    _expect(doc["satisfiable"] == satisfiable, "verdict")
    if satisfiable:
        witness = doc["witness"]
        _expect(witness is not None and 0 <= witness < 1 << facts["n"]
                and ref.evaluate_spec(facts["spec"], witness) == 1, "witness does not satisfy f")
    else:
        _expect(doc["witness"] is None, "witness on an unsatisfiable f")


def _check_sat(doc: dict, facts: dict) -> None:
    _check_verdict(doc, facts)
    calls = max(step["oracle_calls"] for step in doc["trace"])
    _expect(calls <= 2, f"{calls} oracle calls, the paper allows 2")


def _check_separable(doc: dict, facts: dict) -> None:
    _expect(doc["n"] == facts["n"], "arity")
    _expect(doc["osm"] == facts["osm"], "membership verdict")
    if facts["osm"]:
        dec = doc["decomposition"]
        _expect(doc["certificate"] is None and dec is not None, "decomposition missing")
        _expect(dec["global"] == facts["global"], "global sign")
        _expect(dec["factors"] == facts["factors"], "factors")
    else:
        cert = doc["certificate"]
        _expect(doc["decomposition"] is None and cert is not None, "certificate missing")
        _expect(certificate_holds(facts["spec"], facts["n"], cert["k"], cert["l"], cert["m"]),
                "certificate fails the four-point test")


def _check_karp(doc: dict, facts: dict) -> None:
    _expect(doc["n"] == facts["n"] + 2, "image arity")
    _expect(doc["satisfying_count"] == facts["count"], "image satisfying count")
    _expect(ref.digest(doc["table_hex"]) == facts["karp_digest"], "image table")


def _check_anf(doc: dict, facts: dict) -> None:
    _expect(doc.get("n", facts["n"]) == facts["n"], "arity")
    _expect(doc["c"] == facts["c"], "constant")
    _expect(doc["edges"] == facts["edges"], "edge set")


def _check_hypergraph(doc: dict, facts: dict) -> None:
    _check_anf(doc, facts)
    _expect(doc["entangling"] == facts["entangling"], "entangling flag")


def _check_state(doc: dict, facts: dict) -> None:
    n = facts["n"]
    _expect(doc["n"] == n, "arity")
    _expect(doc["table_hex"] == facts["table_hex"], "table")
    table = bytes.fromhex(facts["table_hex"])
    expected = format(int.from_bytes(table, "little"), f"0{1 << n}b")[::-1]
    _expect(doc["signs"] == expected.translate(str.maketrans("01", "+-")), "signs")


def _check_dj(doc: dict, facts: dict) -> None:
    constant = facts["kind"].startswith("constant")
    _expect(doc["n"] == facts["n"], "arity")
    _expect(doc["kind"] == ("constant" if constant else "balanced"), "kind")
    _expect(abs(doc["p0"] - (1.0 if constant else 0.0)) <= P0_TOLERANCE, f"p0 {doc['p0']!r}")


def _check_helstrom(doc: dict, facts: dict) -> None:
    _expect(doc["n"] == facts["n"], "arity")
    for key in ("overlap", "helstrom_error"):
        _expect(math.isclose(doc[key], facts[key], rel_tol=1e-12, abs_tol=1e-15), key)


_CHECKS = {
    "classify": _check_classify,
    "sat": _check_sat,
    "sat-quantum": _check_verdict,
    "separable": _check_separable,
    "reduce-karp": _check_karp,
    "anf": _check_anf,
    "hypergraph": _check_hypergraph,
    "state": _check_state,
    "dj": _check_dj,
    "helstrom": _check_helstrom,
}


# ---------------------------------------------------------------------------
# Library pipeline (small-sweep)


def check_sweep(item: dict, result: dict) -> tuple[str, str]:
    """Check one pass of a narrow function through every library layer."""
    facts, n = item["facts"], item["n"]
    spec = {"kind": "table", "table": item["table"]}
    try:
        _expect(result["osm"] == facts["osm"], "membership verdict")
        if facts["osm"]:
            _expect(result["rebuilt"] == result["state"], "factorization does not rebuild the state")
        else:
            cert = result["certificate"]
            _expect(certificate_holds(spec, n, cert.k, cert.l, cert.m),
                    "certificate fails the four-point test")
            _expect(result["verified"], "verify_certificate rejects its own certificate")
            evaluations = result["meter"].count
            _expect(evaluations == 4, f"{evaluations} evaluations, the paper says 4")
        verdict = result["verdict"]
        satisfiable = facts["count"] > 0
        _expect(verdict.satisfiable == satisfiable, "turing verdict")
        if satisfiable:
            _expect(ref.evaluate_spec(spec, verdict.witness) == 1, "witness does not satisfy f")
        calls = max(step.oracle_calls for step in verdict.trace)
        _expect(calls <= 2, f"{calls} oracle calls, the paper allows 2")
        _expect(result["karp_product"] == (not satisfiable), "karp image membership")
        graph = result["graph"]
        _expect(graph.constant_bit == facts["constant"], "ANF constant")
        edges = sorted(sum(1 << v for v in edge) for edge in graph.edges)
        _expect(edges == facts["edges"], "ANF edge set")
        _expect(result["entangling"] == (not facts["osm"]), "edge criterion")
        _expect(result["from_anf"] == result["f"], "from_anf(anf(f)) != f")
        classified = result["classified"]
        _expect(classified.kind == facts["kind"] and classified.satisfying_count == facts["count"],
                "classify")
    except (Mismatch, TypeError, KeyError, AttributeError) as exc:
        return "wrong", f"sweep n={n} {item['family']}: {exc}"
    return "ok", ""
