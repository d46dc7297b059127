"""Acceptance battery: every headline guarantee of the package, checked at
desk scale with exact tolerances.  Each test prints one PASS/FAIL line.

One check is expected to fail and is kept deliberately: see
test_criterion_09c_gap_bound_as_stated, whose target rate the exact
one-shot discrimination formula provably does not meet (the achieved
rate is pinned separately in test_quantum_sim.py).
"""

import itertools
import math
import time

from pilme.boolfn import BooleanFunction, classify, evaluate, from_table_hex, sat_brute
from pilme.hypergraph import entangling_edge_exists, hypergraph_of
from pilme.lme_state import (
    Certificate,
    count_osm_states,
    factorize,
    find_certificate,
    is_osm,
    membership_witness,
    state_from_function,
    verify_certificate,
)
from pilme.quantum_sim import (
    algorithm1_end_to_end,
    helstrom_error,
    overlap,
    prepare_psi_f,
    signs_from_state,
    unique_sat_pair,
    zero_outcome_probability,
)
from pilme.reductions import cosm_star, karp_reduce, turing_reduce_sat

from oracles import product_sign_vectors

GHZ_HEX = "d1"


def _report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_01_product_state_census():
    started = time.perf_counter()
    counts = {n: count_osm_states(n) for n in range(1, 5)}
    elapsed = time.perf_counter() - started
    ok = counts == {1: 4, 2: 8, 3: 16, 4: 32} and elapsed < 60.0
    _report(f"criterion 1: census {counts} in {elapsed:.2f}s (2**(n+1) each, <60s)", ok)


def test_criterion_02_block_test_soundness_and_completeness():
    ok = True
    for n in range(1, 5):
        members = product_sign_vectors(n)
        for signs in range(1 << (1 << n)):
            state = BooleanFunction(n, signs)
            member = signs in members
            if is_osm(state) != member:
                ok = False
                break
            cert = find_certificate(state)
            if member:
                if cert is not None:
                    ok = False
                    break
            else:
                if cert is None or not verify_certificate(BooleanFunction(n, signs), cert):
                    ok = False
                    break
        if not ok:
            break
    _report("criterion 2: block test matches brute-force products for n<=4, "
            "certificates exactly on the complement", ok)


def test_criterion_03_products_are_constant_or_balanced():
    ok = True
    for n in range(1, 5):
        for signs in range(1 << (1 << n)):
            if is_osm(BooleanFunction(n, signs)):
                if classify(BooleanFunction(n, signs)).kind == "neither":
                    ok = False
    for n in (1, 2):
        half = 1 << (n - 1)
        for signs in range(1 << (1 << n)):
            if signs.bit_count() == half and not is_osm(BooleanFunction(n, signs)):
                ok = False
    ghz = from_table_hex(GHZ_HEX, 3)
    ok = ok and classify(ghz).kind == "balanced"
    ok = ok and not is_osm(state_from_function(ghz))
    _report("criterion 3: products constant/balanced (n<=4); balanced implies "
            "product at n=1,2; the d1 state is balanced yet entangled", ok)


def test_criterion_04_worked_example_certificate():
    state = state_from_function(from_table_hex(GHZ_HEX, 3))
    cert = find_certificate(state)
    ok = not is_osm(state) and cert == Certificate(1, 0, 1)
    _report(f"criterion 4: table d1 (n=3) is entangled with certificate {cert}", ok)


def test_criterion_05_karp_reduction_exhaustive():
    started = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            if (not cosm_star(karp_reduce(f))) != (sat_brute(f) is not None):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and checked == 276 and elapsed < 10.0
    _report(f"criterion 5: many-one reduction exact on all {checked} functions "
            f"with n<=3 in {elapsed:.2f}s (<10s)", ok)


def test_criterion_06_turing_reduction_exhaustive():
    ok = True
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            verdict = turing_reduce_sat(f)
            if verdict.satisfiable != (sat_brute(f) is not None):
                ok = False
            if max(step.oracle_calls for step in verdict.trace) > 2:
                ok = False
            if verdict.satisfiable and evaluate(f, verdict.witness) != 1:
                ok = False
    _report("criterion 6: oracle pipeline matches brute-force SAT for n<=3 "
            "within two oracle calls", ok)


def _closed_form_p0(f):
    """((2**n - 2|f|) / 2**n)**2: 1 when f is constant, 0 when balanced."""
    return ((f.size - 2 * classify(f).satisfying_count) / f.size) ** 2


def test_criterion_07_quantum_pipeline():
    ok = True
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            if algorithm1_end_to_end(f).satisfiable != (sat_brute(f) is not None):
                ok = False
            if zero_outcome_probability(f) != _closed_form_p0(f):
                ok = False
    for table in range(1 << 16):
        f = BooleanFunction(4, table)
        if signs_from_state(prepare_psi_f(f)) != state_from_function(f):
            ok = False
            break
        if zero_outcome_probability(f) != _closed_form_p0(f):
            ok = False
            break
    _report("criterion 7: simulated pipeline matches brute-force SAT (n<=3); "
            "prepared signs and all-zeros probabilities exact (n<=4)", ok)


def test_criterion_08_hypergraph_criterion_and_round_trips():
    from pilme.boolfn import anf, from_anf

    ok = True
    for n in range(1, 5):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            h = anf(f)
            if from_anf(h) != f:
                ok = False
                break
            entangled = not is_osm(state_from_function(f))
            if entangled != entangling_edge_exists(h):
                ok = False
                break
            # the certificate or the factors, read off the coefficients
            cert = find_certificate(f)
            if membership_witness(h) != (cert if entangled else factorize(f)):
                ok = False
                break
        if not ok:
            break
    # analysis of a synthesized polynomial returns the same polynomial
    for n in (2, 3):
        for table in range(1 << (1 << n)):
            h = hypergraph_of(BooleanFunction(n, table))
            if hypergraph_of(from_anf(h)) != h:
                ok = False
    _report("criterion 8: entanglement iff an edge couples >=2 vertices (n<=4), "
            "with the table's certificate or factors read off the edges; "
            "polynomial round-trips are identities", ok)


def test_criterion_09a_unique_pair_overlap_exact():
    ok = all(
        overlap(*unique_sat_pair(n)) == 1.0 - 2.0 / (1 << n) for n in range(1, 21)
    )
    _report("criterion 9a: unique-witness pair overlap equals 1 - 2/2**n exactly "
            "for n<=20", ok)


def test_criterion_09b_helstrom_value_at_n2():
    error = helstrom_error(*unique_sat_pair(2))
    ok = abs(error - (1.0 - math.sqrt(0.75)) / 2.0) < 1e-12
    _report(f"criterion 9b: one-shot error at n=2 is {error:.10f} "
            "= (1-sqrt(0.75))/2 within 1e-12", ok)


def test_criterion_09c_gap_bound_as_stated():
    # Target bound 2**(1-n) for the gap 1/2 - P_err.  The exact formula
    # gives gap = sqrt(1 - ov**2)/2 with 1 - ov = 2**(1-n), which is
    # about 2**(-n/2): larger than the target for every n >= 3, so this
    # check cannot pass.  It is kept as stated rather than loosened; the
    # achieved decay rate is asserted in test_quantum_sim.py.
    failures = []
    for n in range(3, 21):
        gap = 0.5 - helstrom_error(*unique_sat_pair(n))
        if not gap < 2.0 ** (-n + 1):
            failures.append((n, gap, 2.0 ** (-n + 1)))
    ok = not failures
    first = failures[0] if failures else None
    _report(
        "criterion 9c: gap 1/2 - P_err < 2**(1-n) for 3<=n<=20"
        + (f" (first violation n={first[0]}: gap={first[1]:.6f} vs bound={first[2]:.6f})"
           if first else ""),
        ok,
    )


def test_criterion_10_counting_inequality():
    strict = all(
        math.comb(1 << n, 1 << (n - 1)) > (1 << (n + 1)) - 2 for n in (3, 4, 5)
    )
    boundary = math.comb(4, 2) == (1 << 3) - 2
    ok = strict and boundary
    _report("criterion 10: C(2**n, 2**(n-1)) > 2**(n+1) - 2 for n=3,4,5 and "
            "equality at n=2", ok)
