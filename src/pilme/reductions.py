"""Satisfiability decided through the product-membership oracle.

Two routes: a decision pipeline that settles SAT with at most two oracle
calls plus one point evaluation, and a many-one map on truth tables that
makes non-membership of the image equivalent to satisfiability of the
input.  Both are checked wholesale against brute-force SAT by the
exhaustive harness at the bottom.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    trace that produced it; a witness, when present, satisfies f.  Both SAT
    pipelines end through one of the two constructors below."""

    satisfiable: bool
    witness: Optional[int]
    trace: tuple[TraceStep, ...]

    @classmethod
    def satisfiable_at(
        cls, f: BooleanFunction, trace: list[TraceStep], step: str, calls: int, detail: str
    ) -> SatVerdict:
        """Close a pipeline whose `step` found f satisfiable without an
        assignment: the witness comes from `sat_brute`, here alone, and the
        trace marks it as oracle-assisted."""
        trace.append(TraceStep(step, calls, "satisfiable", detail))
        trace.append(
            TraceStep("witness_lookup", calls, None, "oracle-assisted: witness found by exhaustive search")
        )
        return cls(True, sat_brute(f), tuple(trace))

    @classmethod
    def value_at_zero(
        cls, trace: list[TraceStep], step: str, calls: int, value: int, detail: str
    ) -> SatVerdict:
        """Close a pipeline that found f constant, by its value at the
        all-zeros input: a tautology has witness 0, a contradiction none."""
        trace.append(TraceStep(step, calls, "satisfiable" if value else "unsatisfiable", detail))
        return cls(bool(value), 0 if value else None, tuple(trace))


def turing_reduce_sat(f: BooleanFunction) -> SatVerdict:
    """Decide SAT for f with at most two product-membership oracle calls.

    A non-product sign state rules out constant f, so f is satisfiable.
    Otherwise f is constant or balanced; conjoining one fresh variable
    maps balanced inputs out of the product set and constants into it,
    so a second oracle call separates the two cases, and a single point
    evaluation splits tautology from contradiction.

    The pipeline only decides: it ends through `SatVerdict.satisfiable_at`
    or `SatVerdict.value_at_zero`, and the first takes the witness from
    `sat_brute`, the one place a witness search by self-reduction replaces.
    """
    trace: list[TraceStep] = []
    if not cosm_star(f):
        return SatVerdict.satisfiable_at(f, trace, "oracle_on_f", 1, "sign state of f is not a product")
    trace.append(TraceStep("oracle_on_f", 1, None, "product state: f is constant or balanced"))
    if not cosm_star(conjoin_fresh(f, 1)):
        return SatVerdict.satisfiable_at(
            f, trace, "oracle_on_conjoined", 2, "conjoined state is not a product, so f is balanced"
        )
    trace.append(TraceStep("oracle_on_conjoined", 2, None, "product state: f is constant"))
    value = evaluate(f, 0)
    return SatVerdict.value_at_zero(trace, "evaluate_zero", 2, value, f"f(0...0) = {value}")


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
        return asdict(self)


def verify_reductions_exhaustive(n: int) -> ReductionReport:
    """Check both reductions against brute-force SAT over every function
    of arity n; a Turing entry also fails on a missing or bogus witness (any
    witness of an unsatisfiable f) or on more than two oracle calls."""
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    turing_failures: list[int] = []
    karp_failures: list[int] = []
    total = 1 << (1 << n)
    for table in range(total):
        f = BooleanFunction(n, table)
        expected = sat_brute(f) is not None
        verdict = turing_reduce_sat(f)
        witness_ok = not expected if verdict.witness is None else evaluate(f, verdict.witness) == 1
        calls = max(step.oracle_calls for step in verdict.trace)
        if verdict.satisfiable != expected or not witness_ok or calls > 2:
            turing_failures.append(table)
        if (not cosm_star(karp_reduce(f))) != expected:
            karp_failures.append(table)
    return ReductionReport(n, total, turing_failures, karp_failures)
