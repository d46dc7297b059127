"""Command line front end: read a Boolean function, run an analysis, emit
either human-readable text or JSON carrying the same facts.

`load_function` is the one input boundary: it checks --n, --max-n (or
PILME_MAX_N) and --format, and refuses an arity above the configured cap
before any table is built.  Each handler returns its facts, and `run`
alone prints them.

Exit codes: 0 success, 1 domain errors (arity and simulator caps,
promise violations, verification failures), 2 usage and input parse
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import boolfn, hypergraph, lme_state, quantum_sim, reductions
from .boolfn import BooleanFunction, ParseError

FORMATS = ("formula", "dimacs", "table-hex", "anf")


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


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source!r}: {exc.strerror}") from None
    return source


def load_function(args: argparse.Namespace) -> BooleanFunction:
    """Check the input options, then parse the input into a truth table.

    This is where the configured arity cap applies: every format refuses
    an arity above it before a table is built.  The resolved cap is stored
    back in `args.max_n`.
    """
    args.max_n = max_n = _resolve_max_n(args.max_n)
    arity = args.n
    if arity is not None and not 1 <= arity <= max_n:
        raise ParseError(f"--n must be between 1 and {max_n}")
    if args.format == "table-hex" and arity is None:
        raise ParseError("table-hex input requires --n")
    text = _read_source(args.input)
    if args.format == "formula":
        program = boolfn.parse_formula(text, arity or max_n)
        return boolfn.compile(program, arity or max(1, boolfn.max_variable(program)))
    if args.format == "dimacs":
        var_count, clauses = boolfn.parse_dimacs_clauses(text)
        if arity is not None and arity != var_count:
            raise ParseError(f"--n {arity} conflicts with the DIMACS header count {var_count}")
        if var_count > max_n:
            raise ParseError(f"DIMACS arity {var_count} exceeds the configured cap {max_n}")
        return boolfn.compile(boolfn.clauses_to_ast(clauses), var_count)
    if args.format == "table-hex":
        return boolfn.from_table_hex(text, arity)
    return boolfn.from_anf(hypergraph.parse_anf_text(text, arity, max_n=max_n))


def _render(facts: dict) -> str:
    """One ``key: value`` line per fact: booleans in lower case, floats to
    17 significant digits, everything else as `str` gives it."""
    lines = []
    for key, value in facts.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, float):
            value = format(value, ".17g")
        lines.append(f"{key}: {value}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Subcommand handlers
#
# Each maps the loaded function and the options to its JSON facts.  Where
# the text form is not one `key: value` line per fact, a text run gets the
# finished text instead.


def _classify(f: BooleanFunction, args: argparse.Namespace) -> dict:
    result = boolfn.classify(f)
    return {"n": f.arity, "kind": result.kind, "satisfying_count": result.satisfying_count}


def _state(f: BooleanFunction, args: argparse.Namespace) -> dict | str:
    table_hex, signs = boolfn.to_table_hex(f), boolfn.to_sign_string(f)
    facts = {"n": f.arity, "table_hex": table_hex, "signs": signs}
    if not args.amplitudes:
        return facts
    scale = 1.0 / math.sqrt(f.size)
    amplitudes = [-scale if sign == "-" else scale for sign in signs]
    if args.json:
        return {**facts, "amplitudes": amplitudes}
    return _render(facts) + "amplitudes:\n" + "".join(f"  {a:.17g}\n" for a in amplitudes)


def _separable(f: BooleanFunction, args: argparse.Namespace) -> dict | str:
    cert = lme_state.find_certificate(f)
    facts = {"n": f.arity, "osm": cert is None, "decomposition": None, "certificate": None}
    if cert is None:
        # find_certificate has just run the block test, so read the factors
        # directly: factorize would run it a second time.
        decomposition = lme_state._read_factors(f)
        sign = "+" if decomposition.global_sign > 0 else "-"
        factors = ["+" if eps > 0 else "-" for eps in decomposition.factors]
        facts["decomposition"] = {"global": sign, "factors": factors}
        detail = f"decomposition: global={sign} factors={''.join(factors)}"
    else:
        facts["certificate"] = {"k": cert.k, "l": cert.l, "m": cert.m}
        detail = f"certificate: k={cert.k} l={cert.l} m={cert.m}"
    if args.json:
        return facts
    return _render({"n": f.arity, "osm": cert is None}) + detail + "\n"


def _anf(f: BooleanFunction, args: argparse.Namespace) -> dict | str:
    graph = hypergraph.hypergraph_of(f)
    # Only the printed form is built: the text of a dense hypergraph alone
    # costs several times its JSON dict.
    if args.json:
        return hypergraph.hypergraph_to_json(graph)
    return hypergraph.render_anf_text(graph)


def _hypergraph(f: BooleanFunction, args: argparse.Namespace) -> dict | str:
    graph = hypergraph.hypergraph_of(f)
    entangling = {"entangling": hypergraph.entangling_edge_exists(graph)}
    if args.json:
        return {**hypergraph.hypergraph_to_json(graph), **entangling}
    return hypergraph.render_anf_text(graph) + _render(entangling)


def _reduce_karp(f: BooleanFunction, args: argparse.Namespace) -> dict:
    # The image has two more variables, so it too must fit under the cap.
    boolfn.check_arity(f.arity + 2, args.max_n)
    g = reductions.karp_reduce(f)
    return {
        "n": g.arity,
        "table_hex": boolfn.to_table_hex(g),
        "satisfying_count": boolfn.classify(g).satisfying_count,
    }


def _verdict(n: int, verdict: reductions.SatVerdict, as_json: bool) -> dict | str:
    facts = {"n": n, "satisfiable": verdict.satisfiable, "witness": verdict.witness}
    if as_json:
        return {**facts, "trace": [dataclasses.asdict(step) for step in verdict.trace]}
    return _render(facts) + "trace:\n" + "".join(
        f"  {step.step} calls={step.oracle_calls} verdict={step.verdict or '-'} ({step.detail})\n"
        for step in verdict.trace
    )


def _sat(f: BooleanFunction, args: argparse.Namespace) -> dict | str:
    return _verdict(f.arity, reductions.turing_reduce_sat(f), args.json)


def _sat_quantum(f: BooleanFunction, args: argparse.Namespace) -> dict | str:
    return _verdict(f.arity, quantum_sim.algorithm1_end_to_end(f), args.json)


def _dj(f: BooleanFunction, args: argparse.Namespace) -> dict:
    kind, p0 = quantum_sim.deutsch_jozsa(f)
    return {"n": f.arity, "kind": kind, "p0": p0}


def _helstrom(args: argparse.Namespace) -> dict:
    a, b = quantum_sim.unique_sat_pair(args.n)
    facts = {
        "n": args.n,
        "overlap": quantum_sim.overlap(a, b),
        "helstrom_error": quantum_sim.helstrom_error(a, b),
    }
    if args.copies is not None:
        facts["copies"] = args.copies
        facts["helstrom_error_copies"] = quantum_sim.helstrom_error_copies(a, b, args.copies)
    return facts


def _verify(args: argparse.Namespace) -> dict:
    return reductions.verify_reductions_exhaustive(args.n).to_json()


# ---------------------------------------------------------------------------
# Parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `pilme` parser, built once per process (building it costs more
    than a small invocation) and shared by every caller, so not to be
    modified."""
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

    add_input_command("classify", _classify, "constant/balanced/neither and satisfying count")
    state_cmd = add_input_command("state", _state, "sign vector of the function's state")
    state_cmd.add_argument("--amplitudes", action="store_true",
                           help="include the amplitude vector in the output")
    add_input_command("separable", _separable,
                      "product membership with decomposition or certificate")
    add_input_command("anf", _anf, "XOR polynomial of the function")
    add_input_command("hypergraph", _hypergraph, "hypergraph view and edge criterion")
    add_input_command("reduce-karp", _reduce_karp,
                      "conjoin two fresh variables (satisfiable iff the image is entangled)")
    add_input_command("sat", _sat, "SAT via the two-call oracle pipeline")
    add_input_command("sat-quantum", _sat_quantum, "SAT via the simulated circuit pipeline")
    add_input_command("dj", _dj, "constant-versus-balanced decision (promise required)")

    helstrom = subparsers.add_parser("helstrom", help="discrimination bound for the unique-witness pair")
    helstrom.add_argument("--unique-sat-pair", action="store_true", required=True,
                          help="use the no-instance/unique-instance state pair")
    helstrom.add_argument("--n", type=int, required=True, help="qubit count")
    helstrom.add_argument("--copies", type=int, default=None, help="independent copies available")
    helstrom.add_argument("--json", action="store_true")
    helstrom.set_defaults(handler=_helstrom)

    verify = subparsers.add_parser("verify", help="exhaustive reduction harness over all functions of arity n")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, print the result, and map exceptions onto
    exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        facts = args.handler(load_function(args), args) if "input" in args else args.handler(args)
        if isinstance(facts, str):
            sys.stdout.write(facts)
        else:
            sys.stdout.write(json.dumps(facts) + "\n" if args.json else _render(facts))
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    # verify is the one command whose facts can report a failure.
    if args.command == "verify" and (facts["turing_failures"] or facts["karp_failures"]):
        return 1
    return 0


def main() -> None:
    sys.exit(run())
