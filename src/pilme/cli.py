"""Command line front end: read a Boolean function, run an analysis, emit
either human-readable text or JSON carrying the same facts.

`_read_input` is the one input boundary: it checks --n and --format, and
the loaders refuse an arity above `boolfn.MAX_N`, the one cap, before any
table is built.  `anf`, `hypergraph` and `separable` keep
ANF text as it is, with no table (`load_hypergraph`): `separable` reads
its answer off the coefficients.  Each handler returns its facts, and
`run` alone prints them.

Exit codes: 0 success, 1 domain errors (promise violations, verification
failures, the arity cap on ANF text and on the `reduce-karp` image), 2
usage and input parse errors (and the cap on formula, DIMACS, table-hex).
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
from .boolfn import BooleanFunction, Hypergraph, ParseError

FORMATS = ("formula", "dimacs", "table-hex", "anf")


def _read_source(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        if not os.path.exists(source):
            return source
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {source!r}: not UTF-8 text at byte {exc.start}") from None


def _read_input(args: argparse.Namespace) -> str:
    """Check the input options, then read the input text.

    An --n above `boolfn.MAX_N` is refused here; each loader refuses a
    wider input before a table is built.
    """
    if args.n is not None and not 1 <= args.n <= boolfn.MAX_N:
        raise ParseError(f"--n must be between 1 and {boolfn.MAX_N}")
    if args.format == "table-hex" and args.n is None:
        raise ParseError("table-hex input requires --n")
    return _read_source(args.input)


def load_function(args: argparse.Namespace) -> BooleanFunction:
    """Parse the input into a truth table."""
    if args.format == "anf":
        return boolfn.from_anf(load_hypergraph(args))
    text, arity, cap = _read_input(args), args.n, boolfn.MAX_N
    if args.format == "formula":
        program = boolfn.parse_formula(text, arity or cap)
        return boolfn.compile(program, arity or max(1, boolfn.max_variable(program)))
    if args.format == "dimacs":
        var_count, clauses = boolfn.parse_dimacs_clauses(text)
        if arity is not None and arity != var_count:
            raise ParseError(f"--n {arity} conflicts with the DIMACS header count {var_count}")
        if var_count > cap:
            raise ParseError(f"DIMACS arity {var_count} exceeds the configured cap {cap}")
        return boolfn.compile(boolfn.clauses_to_ast(clauses), var_count)
    return boolfn.from_table_hex(text, arity)


def load_hypergraph(args: argparse.Namespace) -> Hypergraph:
    """Parse the input into its hypergraph: ANF text as it stands, with no
    table built, and every other format through its truth table."""
    if args.format != "anf":
        return hypergraph.hypergraph_of(load_function(args))
    text = _read_input(args)
    return hypergraph.parse_anf_text(text, args.n)


def load_state(args: argparse.Namespace) -> BooleanFunction | Hypergraph:
    """Parse the input into its hypergraph if it is ANF text, else into its
    truth table: the two forms `lme_state.membership_witness` reads."""
    return load_hypergraph(args) if args.format == "anf" else load_function(args)


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


def _separable(state: BooleanFunction | Hypergraph, args: argparse.Namespace) -> dict | str:
    n = state.vertex_count if isinstance(state, Hypergraph) else state.arity
    witness = lme_state.membership_witness(state)
    osm = isinstance(witness, lme_state.FactorDecomposition)
    facts = {"n": n, "osm": osm, "decomposition": None, "certificate": None}
    if osm:
        sign = "+" if witness.global_sign > 0 else "-"
        factors = ["+" if eps > 0 else "-" for eps in witness.factors]
        facts["decomposition"] = {"global": sign, "factors": factors}
        detail = f"decomposition: global={sign} factors={''.join(factors)}"
    else:
        facts["certificate"] = {"k": witness.k, "l": witness.l, "m": witness.m}
        detail = f"certificate: k={witness.k} l={witness.l} m={witness.m}"
    if args.json:
        return facts
    return _render({"n": n, "osm": osm}) + detail + "\n"


def _anf(graph: Hypergraph, args: argparse.Namespace) -> dict | str:
    # Only the printed form is built: for a dense hypergraph either one
    # costs several times the edge listing they share.
    if args.json:
        return hypergraph.hypergraph_to_json(graph)
    return hypergraph.render_anf_text(graph)


def _hypergraph(graph: Hypergraph, args: argparse.Namespace) -> dict | str:
    entangling = {"entangling": hypergraph.entangling_edge_exists(graph)}
    if args.json:
        return {**hypergraph.hypergraph_to_json(graph), **entangling}
    return hypergraph.render_anf_text(graph) + _render(entangling)


def _reduce_karp(f: BooleanFunction, args: argparse.Namespace) -> dict:
    # The image has two more variables, so it too must fit under the cap.
    boolfn.check_arity(f.arity + 2)
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

    def add_input_command(name: str, handler, help_text: str, loader=load_function):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("input", help="file path, literal text, or '-' for stdin")
        sub.add_argument("--format", "-f", choices=FORMATS, default="formula")
        sub.add_argument("--n", type=int, default=None,
                         help="arity (required for table-hex, inferred otherwise)")
        sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
        sub.set_defaults(handler=handler, loader=loader)
        return sub

    add_input_command("classify", _classify, "constant/balanced/neither and satisfying count")
    state_cmd = add_input_command("state", _state, "sign vector of the function's state")
    state_cmd.add_argument("--amplitudes", action="store_true",
                           help="include the amplitude vector in the output")
    add_input_command("separable", _separable,
                      "product membership with decomposition or certificate", load_state)
    add_input_command("anf", _anf, "XOR polynomial of the function", load_hypergraph)
    add_input_command("hypergraph", _hypergraph, "hypergraph view and edge criterion", load_hypergraph)
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
        facts = args.handler(args.loader(args), args) if "input" in args else args.handler(args)
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
