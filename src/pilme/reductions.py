"""Satisfiability decided through the product-membership oracle.

Two routes: a decision pipeline that settles SAT with at most two oracle
calls plus one point evaluation, and a many-one map on truth tables that
makes non-membership of the image equivalent to satisfiability of the
input.  Both are checked wholesale against brute-force SAT by the
exhaustive harness at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .boolfn import BooleanFunction, conjoin_fresh, evaluate, sat_brute
from .lme_state import is_osm


def cosm_star(f: BooleanFunction) -> bool:
    """Decision problem: does the sign state of f factor into plus/minus
    qubits (up to a global sign)?"""
    return is_osm(f)


@dataclass(frozen=True)
class TraceStep:
    step: str
    oracle_calls: int
    verdict: Optional[str] = None
    detail: str = ""


@dataclass(frozen=True)
class SatVerdict:
    """SAT answer with an optional satisfying assignment and the pipeline
    trace that produced it; a witness, when present, satisfies f."""

    satisfiable: bool
    witness: Optional[int]
    trace: tuple[TraceStep, ...]


def witness_lookup(f: BooleanFunction, trace: list[TraceStep], oracle_calls: int) -> SatVerdict:
    """Close a pipeline that concluded satisfiability without touching an
    assignment: the witness comes from brute force, and the trace says so."""
    trace.append(
        TraceStep("witness_lookup", oracle_calls, None, "oracle-assisted: witness found by exhaustive search")
    )
    return SatVerdict(True, sat_brute(f), tuple(trace))


def turing_reduce_sat(f: BooleanFunction) -> SatVerdict:
    """Decide SAT for f with at most two product-membership oracle calls.

    A non-product sign state rules out constant f, so f is satisfiable.
    Otherwise f is constant or balanced; conjoining one fresh variable
    maps balanced inputs out of the product set and constants into it,
    so a second oracle call separates the two cases, and a single point
    evaluation splits tautology from contradiction.

    The pipeline only decides; when satisfiability is concluded without
    touching an assignment, the witness is filled in by brute force and
    the trace marks it as oracle-assisted.
    """
    trace: list[TraceStep] = []
    if not cosm_star(f):
        trace.append(
            TraceStep("oracle_on_f", 1, "satisfiable", "sign state of f is not a product")
        )
        return witness_lookup(f, trace, 1)
    trace.append(
        TraceStep("oracle_on_f", 1, None, "product state: f is constant or balanced")
    )
    conjoined = conjoin_fresh(f, 1)
    if not cosm_star(conjoined):
        trace.append(
            TraceStep(
                "oracle_on_conjoined", 2, "satisfiable",
                "conjoined state is not a product, so f is balanced",
            )
        )
        return witness_lookup(f, trace, 2)
    trace.append(
        TraceStep("oracle_on_conjoined", 2, None, "product state: f is constant")
    )
    value = evaluate(f, 0)
    trace.append(
        TraceStep(
            "evaluate_zero", 2,
            "satisfiable" if value else "unsatisfiable",
            f"f(0...0) = {value}",
        )
    )
    return SatVerdict(bool(value), 0 if value else None, tuple(trace))


def karp_reduce(f: BooleanFunction) -> BooleanFunction:
    """Map f to g = f AND two fresh variables.

    g keeps f's satisfying count while quadrupling the domain, so a
    satisfiable f caps g's density at one quarter: g is then neither
    constant nor balanced and its sign state is not a product.  An
    unsatisfiable f gives the all-zeros g, whose state is a product.
    Hence SAT(f) iff NOT cosm_star(g).
    """
    return conjoin_fresh(f, 2)


@dataclass
class ReductionReport:
    """Outcome of the exhaustive sweep; the failure lists hold offending
    truth tables and must be empty."""

    n: int
    functions: int
    turing_failures: list[int]
    karp_failures: list[int]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "functions": self.functions,
            "turing_failures": list(self.turing_failures),
            "karp_failures": list(self.karp_failures),
        }


def verify_reductions_exhaustive(n: int) -> ReductionReport:
    """Check both reductions against brute-force SAT over every function
    of arity n; a Turing entry also fails on a bogus witness or an oracle
    budget above two calls."""
    if not 1 <= n <= 3:
        raise ValueError("exhaustive verification is limited to n <= 3")
    turing_failures: list[int] = []
    karp_failures: list[int] = []
    total = 1 << (1 << n)
    for table in range(total):
        f = BooleanFunction(n, table)
        expected = sat_brute(f) is not None
        verdict = turing_reduce_sat(f)
        ok = verdict.satisfiable == expected
        if ok and verdict.satisfiable:
            ok = verdict.witness is not None and evaluate(f, verdict.witness) == 1
        if ok:
            ok = max(step.oracle_calls for step in verdict.trace) <= 2
        if not ok:
            turing_failures.append(table)
        if (not cosm_star(karp_reduce(f))) != expected:
            karp_failures.append(table)
    return ReductionReport(n, total, turing_failures, karp_failures)
