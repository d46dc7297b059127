"""Command line front end: read a Boolean function, run an analysis, emit
either human-readable text or JSON carrying the same facts.

Exit codes: 0 success, 1 domain errors (entanglement undefined, simulator
caps, promise violations, verification failures), 2 usage and input
parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import boolfn, hypergraph, lme_state, quantum_sim, reductions
from .boolfn import BooleanFunction, ParseError

FORMATS = ("formula", "dimacs", "table-hex", "anf")


@dataclass(frozen=True)
class RunConfig:
    """Validated input options shared by the function-consuming commands."""

    source: str
    fmt: str
    arity: Optional[int]
    max_n: int
    as_json: bool


def _resolve_max_n(value: Optional[int]) -> int:
    if value is None:
        raw = os.environ.get("PILME_MAX_N")
        if raw is None:
            return boolfn.MAX_N
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"PILME_MAX_N must be an integer, got {raw!r}") from None
    if not 1 <= value <= boolfn.MAX_N:
        raise ParseError(f"max_n must be between 1 and {boolfn.MAX_N}")
    return value


def _make_config(args: argparse.Namespace) -> RunConfig:
    fmt = args.format
    arity = args.n
    max_n = _resolve_max_n(args.max_n)
    if arity is not None and not 1 <= arity <= max_n:
        raise ParseError(f"--n must be between 1 and {max_n}")
    if fmt == "table-hex" and arity is None:
        raise ParseError("table-hex input requires --n")
    return RunConfig(args.input, fmt, arity, max_n, args.json)


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if os.path.exists(source):
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    return source


def load_function(cfg: RunConfig) -> BooleanFunction:
    """Parse the configured input into a truth table."""
    text = _read_source(cfg.source)
    if cfg.fmt == "formula":
        program = boolfn.parse_formula(text, cfg.arity or cfg.max_n)
        arity = cfg.arity or max(1, boolfn.max_variable(program))
        return boolfn.compile(program, arity, max_n=cfg.max_n)
    if cfg.fmt == "dimacs":
        var_count, clauses = boolfn.parse_dimacs_clauses(text)
        if cfg.arity is not None and cfg.arity != var_count:
            raise ParseError(f"--n {cfg.arity} conflicts with the DIMACS header count {var_count}")
        if var_count > cfg.max_n:
            raise ParseError(f"DIMACS arity {var_count} exceeds the configured cap {cfg.max_n}")
        return boolfn.compile(boolfn.clauses_to_ast(clauses), var_count, max_n=cfg.max_n)
    if cfg.fmt == "table-hex":
        assert cfg.arity is not None
        return boolfn.from_table_hex(text, cfg.arity)
    graph = hypergraph.parse_anf_text(text, cfg.arity, max_n=cfg.max_n)
    return boolfn.from_anf(graph, max_n=cfg.max_n)


def _emit(facts: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(facts))
    else:
        sys.stdout.write(human if human.endswith("\n") else human + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    result = boolfn.classify(f)
    facts = {"n": f.arity, "kind": result.kind, "satisfying_count": result.satisfying_count}
    human = (
        f"n: {f.arity}\nkind: {result.kind}\n"
        f"satisfying_count: {result.satisfying_count}\n"
    )
    _emit(facts, cfg.as_json, human)
    return 0


def _cmd_state(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    table_hex, signs = boolfn.to_table_hex(f), boolfn.to_sign_string(f)
    facts = {"n": f.arity, "table_hex": table_hex, "signs": signs}
    lines = [f"n: {f.arity}", f"table_hex: {table_hex}", f"signs: {signs}"]
    if args.amplitudes:
        scale = 1.0 / math.sqrt(f.size)
        amplitudes = [-scale if sign == "-" else scale for sign in signs]
        facts["amplitudes"] = amplitudes
        lines.append("amplitudes:")
        lines.extend(f"  {format(a, '.17g')}" for a in amplitudes)
    _emit(facts, cfg.as_json, "\n".join(lines) + "\n")
    return 0


def _cmd_separable(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    cert = lme_state.find_certificate(f)
    osm = cert is None
    if osm:
        # find_certificate has just run the block test, so read the factors
        # directly: factorize would run it a second time.
        decomposition = lme_state._read_factors(f)
        dec_facts = {
            "global": "+" if decomposition.global_sign > 0 else "-",
            "factors": ["+" if eps > 0 else "-" for eps in decomposition.factors],
        }
        cert_facts = None
        detail = f"decomposition: global={dec_facts['global']} factors={''.join(dec_facts['factors'])}"
    else:
        dec_facts = None
        cert_facts = {"k": cert.k, "l": cert.l, "m": cert.m}
        detail = f"certificate: k={cert.k} l={cert.l} m={cert.m}"
    facts = {
        "n": f.arity,
        "osm": osm,
        "decomposition": dec_facts,
        "certificate": cert_facts,
    }
    human = f"n: {f.arity}\nosm: {str(osm).lower()}\n{detail}\n"
    _emit(facts, cfg.as_json, human)
    return 0


def _cmd_anf(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    graph = hypergraph.hypergraph_of(f, max_n=cfg.max_n)
    # Only the printed form is built: the text of a dense hypergraph alone
    # costs several times its JSON dict.
    if cfg.as_json:
        print(json.dumps(hypergraph.hypergraph_to_json(graph)))
    else:
        sys.stdout.write(hypergraph.render_anf_text(graph))
    return 0


def _cmd_hypergraph(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    graph = hypergraph.hypergraph_of(f, max_n=cfg.max_n)
    entangling = hypergraph.entangling_edge_exists(graph)
    if cfg.as_json:
        print(json.dumps({**hypergraph.hypergraph_to_json(graph), "entangling": entangling}))
    else:
        sys.stdout.write(
            hypergraph.render_anf_text(graph) + f"entangling: {str(entangling).lower()}\n"
        )
    return 0


def _cmd_reduce_karp(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    g = reductions.karp_reduce(f, max_n=cfg.max_n)
    count = boolfn.classify(g).satisfying_count
    table_hex = boolfn.to_table_hex(g)
    facts = {"n": g.arity, "table_hex": table_hex, "satisfying_count": count}
    human = f"n: {g.arity}\ntable_hex: {table_hex}\nsatisfying_count: {count}\n"
    _emit(facts, cfg.as_json, human)
    return 0


def _verdict_facts(n: int, verdict: reductions.SatVerdict) -> dict:
    return {
        "n": n,
        "satisfiable": verdict.satisfiable,
        "witness": verdict.witness,
        "trace": [
            {
                "step": step.step,
                "oracle_calls": step.oracle_calls,
                "verdict": step.verdict,
                "detail": step.detail,
            }
            for step in verdict.trace
        ],
    }


def _verdict_human(facts: dict) -> str:
    lines = [
        f"n: {facts['n']}",
        f"satisfiable: {str(facts['satisfiable']).lower()}",
        f"witness: {facts['witness']}",
        "trace:",
    ]
    for step in facts["trace"]:
        verdict = step["verdict"] or "-"
        lines.append(
            f"  {step['step']} calls={step['oracle_calls']} verdict={verdict} ({step['detail']})"
        )
    return "\n".join(lines) + "\n"


def _cmd_sat(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    facts = _verdict_facts(f.arity, reductions.turing_reduce_sat(f))
    _emit(facts, cfg.as_json, _verdict_human(facts))
    return 0


def _cmd_sat_quantum(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    facts = _verdict_facts(f.arity, quantum_sim.algorithm1_end_to_end(f))
    _emit(facts, cfg.as_json, _verdict_human(facts))
    return 0


def _cmd_dj(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    f = load_function(cfg)
    kind = quantum_sim.deutsch_jozsa(f)
    p0 = quantum_sim.zero_outcome_probability(f)
    facts = {"n": f.arity, "kind": kind, "p0": p0}
    human = f"n: {f.arity}\nkind: {kind}\np0: {format(p0, '.17g')}\n"
    _emit(facts, cfg.as_json, human)
    return 0


def _cmd_helstrom(args: argparse.Namespace) -> int:
    a, b = quantum_sim.unique_sat_pair(args.n)
    facts = {
        "n": args.n,
        "overlap": quantum_sim.overlap(a, b),
        "helstrom_error": quantum_sim.helstrom_error(a, b),
    }
    lines = [
        f"n: {args.n}",
        f"overlap: {format(facts['overlap'], '.17g')}",
        f"helstrom_error: {format(facts['helstrom_error'], '.17g')}",
    ]
    if args.copies is not None:
        facts["copies"] = args.copies
        facts["helstrom_error_copies"] = quantum_sim.helstrom_error_copies(a, b, args.copies)
        lines.append(f"copies: {args.copies}")
        lines.append(f"helstrom_error_copies: {format(facts['helstrom_error_copies'], '.17g')}")
    _emit(facts, args.json, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = reductions.verify_reductions_exhaustive(args.n)
    facts = report.to_json()
    human = (
        f"n: {report.n}\nfunctions: {report.functions}\n"
        f"turing_failures: {report.turing_failures}\n"
        f"karp_failures: {report.karp_failures}\n"
    )
    _emit(facts, args.json, human)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilme",
        description=(
            "Analyze equal-weight sign states built from Boolean functions: "
            "product membership, certificates, hypergraphs, SAT pipelines, "
            "and discrimination bounds."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_input_command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("input", help="file path, literal text, or '-' for stdin")
        sub.add_argument("--format", "-f", choices=FORMATS, default="formula")
        sub.add_argument("--n", type=int, default=None,
                         help="arity (required for table-hex, inferred otherwise)")
        sub.add_argument("--max-n", type=int, default=None,
                         help=f"arity cap, at most {boolfn.MAX_N} (default from PILME_MAX_N or {boolfn.MAX_N})")
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
        sub.set_defaults(handler=handler)
        return sub

    add_input_command("classify", _cmd_classify, "constant/balanced/neither and satisfying count")
    state_cmd = add_input_command("state", _cmd_state, "sign vector of the function's state")
    state_cmd.add_argument("--amplitudes", action="store_true",
                           help="include the amplitude vector in the output")
    add_input_command("separable", _cmd_separable,
                      "product membership with decomposition or certificate")
    add_input_command("anf", _cmd_anf, "XOR polynomial of the function")
    add_input_command("hypergraph", _cmd_hypergraph, "hypergraph view and edge criterion")
    add_input_command("reduce-karp", _cmd_reduce_karp,
                      "conjoin two fresh variables (satisfiable iff the image is entangled)")
    add_input_command("sat", _cmd_sat, "SAT via the two-call oracle pipeline")
    add_input_command("sat-quantum", _cmd_sat_quantum, "SAT via the simulated circuit pipeline")
    add_input_command("dj", _cmd_dj, "constant-versus-balanced decision (promise required)")

    helstrom = subparsers.add_parser("helstrom", help="discrimination bound for the unique-witness pair")
    helstrom.add_argument("--unique-sat-pair", action="store_true", required=True,
                          help="use the no-instance/unique-instance state pair")
    helstrom.add_argument("--n", type=int, required=True, help="qubit count")
    helstrom.add_argument("--copies", type=int, default=None, help="independent copies available")
    helstrom.add_argument("--json", action="store_true")
    helstrom.set_defaults(handler=_cmd_helstrom)

    verify = subparsers.add_parser("verify", help="exhaustive reduction harness over all functions of arity n")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and map exceptions onto exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
