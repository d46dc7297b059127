import math
import random
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilme.boolfn import (
    BooleanFunction,
    classify,
    compile,
    evaluate,
    from_table_hex,
    parse_formula,
    sat_brute,
)
from pilme import quantum_sim
from pilme.lme_state import state_from_function
from pilme.quantum_sim import (
    PromiseViolationError,
    StateVector,
    algorithm1_end_to_end,
    apply_uf,
    deutsch_jozsa,
    helstrom_error,
    helstrom_error_copies,
    overlap,
    prepare_psi_f,
    signs_from_state,
    unique_sat_pair,
    zero_outcome_probability,
)

from oracles import apply_hadamard, basis_state, kron_hadamard, permuted_oracle


def _fn(text, arity):
    return compile(parse_formula(text, arity), arity)


AND2 = _fn("x1 & x2", 2)
XOR2 = _fn("x1 ^ x2", 2)
GHZ = from_table_hex("d1", 3)


@st.composite
def boolean_functions(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    return BooleanFunction(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


# ---------------------------------------------------------------------------
# state vector basics


def test_state_vector_rejects_unnormalized_input():
    assert StateVector(1, np.array([1, 1]), 1).exponent == 1
    with pytest.raises(ValueError, match="normalized"):
        StateVector(1, np.array([1, 1]))
    with pytest.raises(ValueError, match="normalized"):
        StateVector(2, np.array([1, -1, 1, 0]), 2)
    with pytest.raises(ValueError, match="length"):
        StateVector(2, np.array([1, 0]))


def test_state_vector_rejects_float_input():
    with pytest.raises(ValueError, match="integers"):
        StateVector(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="integers"):
        StateVector(1, np.array([True, False]))


def test_state_vector_rejects_an_exponent_above_the_bound():
    # |a| <= 2**30 at exponent 60 on one qubit ...
    assert StateVector(1, np.array([1 << 30, 0]), 60).amplitudes[0] == 1 << 30
    # ... but exponent + qubit_count above 62 is refused, whatever the vector.
    with pytest.raises(ValueError, match="exponent"):
        StateVector(2, np.array([1 << 30, 0, 0, 0]), 61)
    with pytest.raises(ValueError, match="exponent"):
        StateVector(1, np.array([1, 0]), -2)


def test_state_vector_rejects_amplitudes_whose_squares_wrap_int64():
    # The squares sum to 2**64 + 2**40, which an int64 sum reads as 2**40.
    wraps = np.array([-(2**31)] * 4 + [2**20, 0, 0, 0], dtype=np.int32)
    assert int(np.einsum("i,i->", wraps, wraps, dtype=np.int64)) == 1 << 40
    with pytest.raises(ValueError, match="normalized"):
        StateVector(3, wraps, 40)
    # An int64 entry that int32 cannot hold is refused, not wrapped.
    with pytest.raises(ValueError, match="normalized"):
        StateVector(2, np.array([1 << 32, 1 << 20, 0, 0]), 40)


def test_state_vector_is_immutable():
    sv = basis_state(2, 1)
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 1


# ---------------------------------------------------------------------------
# states the module builds itself, which skip the constructor's checks


def _assert_well_formed(sv, dtype=np.int32):
    # Only the module's own oracle register is int8; every state a caller
    # builds or receives is int32.
    amps = sv.amplitudes
    assert amps.dtype == dtype
    assert amps.shape == (1 << sv.qubit_count,)
    assert not amps.flags.writeable
    assert int(amps.astype(np.int64) @ amps) == 1 << sv.exponent


def _built_state_tables(max_exhaustive_n):
    """Every table up to max_exhaustive_n, and one seeded table each at
    n = 12 and 20."""
    for n in range(1, max_exhaustive_n + 1):
        for table in range(1 << (1 << n)):
            yield BooleanFunction(n, table)
    for n in (12, 20):
        yield BooleanFunction(n, random.Random(n).getrandbits(1 << n))


def test_every_state_prepare_psi_f_builds_is_normalized_and_read_only(monkeypatch):
    # prepare_psi_f hands apply_uf its start vector and gets the oracle
    # output back; recording both catches the two states it never returns.
    oracle_states = []
    real_apply_uf = quantum_sim.apply_uf

    def recording_apply_uf(sv, f):
        out = real_apply_uf(sv, f)
        oracle_states.extend((sv, out))
        return out

    monkeypatch.setattr(quantum_sim, "apply_uf", recording_apply_uf)
    for f in _built_state_tables(4):
        n = f.arity
        oracle_states.clear()
        psi = prepare_psi_f(f)
        start, after = oracle_states
        assert (start.qubit_count, start.exponent) == (n + 1, n + 1)
        assert (after.qubit_count, after.exponent) == (n + 1, n + 1)
        assert (psi.qubit_count, psi.exponent) == (n, n)
        _assert_well_formed(start, np.int8)
        _assert_well_formed(after, np.int8)
        _assert_well_formed(psi)


def test_basis_states_and_oracle_outputs_are_normalized_and_read_only():
    for n in range(1, 5):
        for index in range(1 << n):
            _assert_well_formed(basis_state(n, index))
    for f in _built_state_tables(3):
        n = f.arity
        basis = basis_state(n + 1, (f.table + n) % (1 << (n + 1)))
        flipped = apply_uf(basis, f)
        for sv in (basis, flipped, apply_uf(flipped, f)):
            _assert_well_formed(sv)


# ---------------------------------------------------------------------------
# oracle gate


def test_apply_uf_fixes_unsatisfying_basis_state():
    out = apply_uf(basis_state(3, 0), AND2)
    assert out.amplitudes[0] == 1


def test_apply_uf_flips_ancilla_on_satisfying_input():
    out = apply_uf(basis_state(3, 0b011), AND2)
    assert out.amplitudes[0b111] == 1


def test_apply_uf_is_an_involution():
    rng = np.random.default_rng(7)
    for _ in range(8):
        sv = _random_state(rng, 3)
        back = apply_uf(apply_uf(sv, AND2), AND2)
        assert np.array_equal(back.amplitudes, sv.amplitudes)
        assert back.exponent == sv.exponent


def test_apply_uf_decouples_minus_ancilla():
    n = 2
    dim = 1 << (n + 1)
    amps = np.where((np.arange(dim) >> n) & 1, -1, 1)
    out = apply_uf(StateVector(n + 1, amps, n + 1), AND2)
    lower = out.amplitudes[: dim // 2]
    upper = out.amplitudes[dim // 2 :]
    assert np.array_equal(upper, -lower)
    assert np.array_equal(lower, [1, 1, 1, -1])
    assert out.exponent == n + 1


def test_apply_uf_dimension_checks():
    with pytest.raises(ValueError):
        apply_uf(basis_state(2, 0), AND2)


# ---------------------------------------------------------------------------
# gate kernels against the reference matrices, exactly


def _random_state(rng, qubit_count):
    """A random +-1 vector at exponent qubit_count, passed through Hadamards
    on a random subset of the qubits, so most entries are other integers."""
    sv = StateVector(qubit_count, rng.choice([-1, 1], 1 << qubit_count), qubit_count)
    for qubit in rng.permutation(qubit_count)[: rng.integers(qubit_count + 1)]:
        sv = apply_hadamard(sv, int(qubit))
    return sv


def _assert_same_state(sv, amps, exponent):
    """sv stands for amps * 2**(-exponent/2): its amplitudes, scaled back up
    by the halvings its exponent records, equal amps entry for entry."""
    halvings, odd = divmod(exponent - sv.exponent, 2)
    assert halvings >= 0 and odd == 0
    assert np.array_equal(sv.amplitudes.astype(np.int64) << halvings, amps)


def test_apply_uf_matches_the_index_permutation_with_the_ancilla_on_top():
    rng = np.random.default_rng(61)
    tables = random.Random(61)
    for n in range(1, 7):
        f = BooleanFunction(n, tables.getrandbits(1 << n))
        sv = _random_state(rng, n + 1)
        expected = permuted_oracle(sv.amplitudes, f.table, n)
        assert np.array_equal(apply_uf(sv, f).amplitudes, expected)


def _index_gather(amps, table, n):
    """permuted_oracle's index permutation as one numpy gather, for widths
    where its per-entry shift of the whole table would take minutes."""
    i = np.arange(len(amps))
    raw = np.frombuffer(table.to_bytes(1 << max(n - 3, 0), "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: 1 << n].astype(np.int64)
    return amps[i ^ (bits[i & ((1 << n) - 1)] << n)]


def test_apply_uf_on_an_int8_register_is_exact():
    # prepare_psi_f runs the oracle on an int8 +-1 register: the gate must
    # keep that dtype and permute it exactly as it permutes the int32 state.
    rng = np.random.default_rng(67)
    tables = random.Random(67)
    cases = [BooleanFunction(n, table) for n in range(1, 4) for table in range(1 << (1 << n))]
    cases += [BooleanFunction(n, tables.getrandbits(1 << n)) for n in (12, 20)]
    for f in cases:
        n = f.arity
        reference = permuted_oracle if n <= 12 else _index_gather
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), 1 << (n + 1))
        out = apply_uf(quantum_sim._built(n + 1, signs, n + 1), f)
        wide = apply_uf(StateVector(n + 1, signs.astype(np.int32), n + 1), f)
        assert out.amplitudes.dtype == np.int8
        assert (out.qubit_count, out.exponent) == (n + 1, n + 1)
        assert np.array_equal(out.amplitudes, wide.amplitudes)
        assert np.array_equal(out.amplitudes, reference(signs, f.table, n))


@pytest.mark.parametrize("dtype", [np.int8, np.int32])
def test_apply_uf_allocates_only_its_output(dtype):
    # The flips are unpacked and the halves swapped one tile at a time, so
    # the gate's temporaries are tile-sized: a full-size flip array or swap
    # would take the peak to 1.6-2 times the output.
    n = 22
    f = BooleanFunction(n, random.Random(22).getrandbits(1 << n))
    signs = np.random.default_rng(22).choice(np.array([-1, 1], dtype=dtype), 1 << (n + 1))
    sv = quantum_sim._built(n + 1, signs, n + 1)
    tracemalloc.start()
    try:
        out = apply_uf(sv, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.amplitudes.nbytes, f"peak {peak / 2**20:.1f} MiB"


def test_apply_hadamard_matches_the_kron_matrix_on_every_qubit():
    rng = np.random.default_rng(62)
    for n in range(1, 7):
        for qubit in range(n):
            sv = _random_state(rng, n)
            expected = kron_hadamard(sv.amplitudes, n, qubit)
            _assert_same_state(apply_hadamard(sv, qubit), expected, sv.exponent + 1)


def test_hadamard_twice_on_every_qubit_returns_the_input():
    rng = np.random.default_rng(64)
    for n in (1, 2, 5, 9):
        for qubit in range(n):
            sv = _random_state(rng, n)
            back = apply_hadamard(apply_hadamard(sv, qubit), qubit)
            assert np.array_equal(back.amplitudes, sv.amplitudes)
            assert back.exponent == sv.exponent
        basis = basis_state(n, n - 1)
        twice = apply_hadamard(apply_hadamard(basis, n - 1), n - 1)
        assert np.array_equal(twice.amplitudes, basis.amplitudes) and twice.exponent == 0


# ---------------------------------------------------------------------------
# preparation


def test_prepare_constant_zero_is_uniform():
    sv = prepare_psi_f(BooleanFunction(2, 0))
    assert np.array_equal(sv.amplitudes, [1, 1, 1, 1]) and sv.exponent == 2


def test_prepare_parity_signs():
    sv = prepare_psi_f(XOR2)
    assert np.array_equal(sv.amplitudes, [1, -1, -1, 1]) and sv.exponent == 2


def test_prepare_ghz_matches_sign_state():
    sv = prepare_psi_f(GHZ)
    assert np.array_equal(sv.amplitudes, [-1, 1, 1, 1, -1, 1, -1, -1]) and sv.exponent == 3
    assert signs_from_state(sv) == state_from_function(GHZ)


def test_prepare_signs_match_exhaustive_n3():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert signs_from_state(prepare_psi_f(f)) == state_from_function(f)


@given(boolean_functions(max_n=12))
def test_prepare_signs_match_random(f):
    assert signs_from_state(prepare_psi_f(f)) == state_from_function(f)


def test_prepare_rejects_arity_above_cap():
    with pytest.raises(ValueError):
        prepare_psi_f(BooleanFunction(25, 0))


def test_signs_from_state_rejects_non_sign_states():
    with pytest.raises(ValueError):
        signs_from_state(basis_state(2, 0))
    with pytest.raises(ValueError):
        signs_from_state(StateVector(2, np.array([0, 1, -1, 0]), 1))


# ---------------------------------------------------------------------------
# norm preservation


def test_gates_preserve_norm():
    rng = np.random.default_rng(11)
    for n in (1, 3, 5):
        sv = _random_state(rng, n + 1)
        f = BooleanFunction(n, int(rng.integers(0, 1 << (1 << n))))
        sv = apply_uf(sv, f)
        for qubit in range(n + 1):
            sv = apply_hadamard(sv, qubit)
        assert sum(int(a) ** 2 for a in sv.amplitudes) == 1 << sv.exponent


# ---------------------------------------------------------------------------
# constant versus balanced


def test_dj_constant_one():
    kind, p0 = deutsch_jozsa(BooleanFunction(3, 0xFF))
    assert kind == "constant"
    assert p0 == zero_outcome_probability(BooleanFunction(3, 0xFF)) == 1.0


def test_dj_projection_is_balanced():
    f = _fn("x1", 2)
    kind, p0 = deutsch_jozsa(f)
    assert kind == "balanced"
    assert p0 == zero_outcome_probability(f) == 0.0


def test_dj_parity_is_balanced():
    assert deutsch_jozsa(_fn("x1 ^ x2 ^ x3", 3))[0] == "balanced"


def test_dj_rejects_promise_violation():
    with pytest.raises(PromiseViolationError):
        deutsch_jozsa(AND2)


def test_dj_probability_is_exact_under_promise():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            kind = classify(f).kind
            if kind == "neither":
                continue
            assert zero_outcome_probability(f) == (0.0 if kind == "balanced" else 1.0)


def test_dj_probability_exact_at_larger_sizes():
    balanced = BooleanFunction(10, int("0110100110010110" * 64, 2))
    assert classify(balanced).kind == "balanced"
    assert zero_outcome_probability(balanced) == 0.0
    assert zero_outcome_probability(BooleanFunction(10, 0)) == 1.0
    assert deutsch_jozsa(BooleanFunction(10, (1 << 1024) - 1)) == ("constant", 1.0)


def _closed_form(f):
    """((2**n - 2|f|) / 2**n)**2 as an exact rational."""
    return Fraction(f.size - 2 * classify(f).satisfying_count, f.size) ** 2


@given(boolean_functions(max_n=6))
def test_dj_probability_matches_closed_form(f):
    assert Fraction(zero_outcome_probability(f)) == _closed_form(f)


@pytest.mark.parametrize("n", [8, 12, 16, 17, 19, 20])
def test_zero_outcome_probability_is_exact_on_seeded_tables(n):
    f = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
    assert Fraction(zero_outcome_probability(f)) == _closed_form(f)


def _cap_table(family, n=20):
    half = random.Random(20).getrandbits(1 << (n - 1))
    return {
        "constant": (1 << (1 << n)) - 1,
        # upper half the complement of a random lower half: balanced, not affine
        "balanced": half | ((half ^ ((1 << (1 << (n - 1))) - 1)) << (1 << (n - 1))),
        "random": random.Random(21).getrandbits(1 << n),
    }[family]


def test_prepared_signs_round_trip_at_the_cap():
    f = BooleanFunction(20, _cap_table("random"))
    assert signs_from_state(prepare_psi_f(f)) == f


@pytest.mark.parametrize("family", ["constant", "balanced", "random"])
def test_zero_outcome_probability_matches_closed_form_at_the_cap(family):
    f = BooleanFunction(20, _cap_table(family))
    assert Fraction(zero_outcome_probability(f)) == _closed_form(f)


def test_zero_outcome_probability_matches_the_hadamard_layer_amplitude():
    # The reference runs the whole layer gate by gate through the butterfly
    # apply_hadamard and reads its amplitude 0 at its own exponent.
    rng = random.Random(66)
    tables = [BooleanFunction(n, rng.getrandbits(1 << n)) for n in range(1, 7) for _ in range(4)]
    tables += [BooleanFunction(n, rng.getrandbits(1 << n)) for n in (17, 20)]
    for f in tables:
        layered = prepare_psi_f(f)
        for qubit in range(f.arity):
            layered = apply_hadamard(layered, qubit)
        a0 = int(layered.amplitudes[0])
        assert Fraction(zero_outcome_probability(f)) == Fraction(a0**2, 2**layered.exponent)


@pytest.mark.parametrize("n", [20, 24])
def test_zero_outcome_probability_peak_memory_stays_near_the_state_size(n):
    # The int8 register and oracle output are one int32 psi_f together; the
    # sum reads the int8 half, so only one tile's temporaries come on top:
    # the gate frees each tile's before the next tile allocates.
    f = BooleanFunction(n, _cap_table("balanced", n))
    psi_bytes = 4 << n
    tracemalloc.start()
    try:
        zero_outcome_probability(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * psi_bytes, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("stage", [prepare_psi_f, zero_outcome_probability])
def test_balanced_preparation_at_the_cap_peaks_near_the_int32_psi_f(stage):
    # The int8 register and oracle output are one int32 psi_f together.
    # prepare_psi_f widens the int8 half to int32 while the output is still
    # alive, 1.5 times psi_f; zero_outcome_probability never widens it.
    n = 24
    f = BooleanFunction(n, _cap_table("balanced", n))
    psi_bytes = 4 << n
    bound = {prepare_psi_f: 1.75, zero_outcome_probability: 1.25}[stage]
    tracemalloc.start()
    try:
        stage(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * psi_bytes, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# the full pipeline


def test_pipeline_or_settles_at_product_test():
    verdict = algorithm1_end_to_end(_fn("x1 | x2", 2))
    assert verdict.satisfiable
    assert verdict.trace[1].step == "product_test"
    assert verdict.trace[1].verdict == "satisfiable"


def test_pipeline_contradiction_reads_ancilla_zero():
    verdict = algorithm1_end_to_end(BooleanFunction(2, 0))
    assert not verdict.satisfiable
    assert verdict.trace[-1].step == "ancilla_readout"
    assert "ancilla reads 0" in verdict.trace[-1].detail


def test_pipeline_parity_settles_at_balanced_split():
    verdict = algorithm1_end_to_end(XOR2)
    assert verdict.satisfiable
    assert any(s.step == "deutsch_jozsa" and s.verdict == "satisfiable" for s in verdict.trace)


def test_pipeline_matches_brute_force_exhaustive():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            verdict = algorithm1_end_to_end(f)
            assert verdict.satisfiable == (sat_brute(f) is not None)
            if verdict.satisfiable:
                assert evaluate(f, verdict.witness) == 1
            else:
                assert verdict.witness is None


def test_pipeline_membership_check_happens_once():
    for table in (0, 0b1000, 0b0110, 0b1111):
        verdict = algorithm1_end_to_end(BooleanFunction(2, table))
        assert sum(1 for s in verdict.trace if s.step == "product_test") == 1
        assert max(s.oracle_calls for s in verdict.trace) <= 1


def test_pipeline_peak_memory_at_the_cap_stays_near_the_state_size():
    # A contradiction runs every stage: the one preparation, the product
    # test, the constant-versus-balanced split and the ancilla readout.  All
    # of them read the int8 oracle output, which with the int8 register is
    # one int32 psi_f; the readout runs on its one-element support.
    n = 24
    psi_bytes = 4 << n
    tracemalloc.start()
    try:
        verdict = algorithm1_end_to_end(BooleanFunction(n, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (verdict.satisfiable, verdict.witness) == (False, None)
    assert verdict.trace[-1].step == "ancilla_readout"
    assert peak <= 1.25 * psi_bytes, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# discrimination


def test_overlap_identical_states():
    a = BooleanFunction(3, 0b1010)
    assert overlap(a, a) == 1.0


def test_overlap_single_flip():
    assert overlap(BooleanFunction(2, 0), BooleanFunction(2, 1)) == 0.5


def test_overlap_global_flip():
    assert overlap(BooleanFunction(2, 0), BooleanFunction(2, 0b1111)) == -1.0


def test_overlap_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        overlap(BooleanFunction(2, 0), BooleanFunction(3, 0))


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, (1 << (1 << n)) - 1),
            st.integers(0, (1 << (1 << n)) - 1),
        )
    )
)
def test_overlap_closed_form_matches_amplitude_dot_product(case):
    n, ta, tb = case
    a, b = BooleanFunction(n, ta), BooleanFunction(n, tb)
    sva = prepare_psi_f(BooleanFunction(n, ta))
    svb = prepare_psi_f(BooleanFunction(n, tb))
    direct = Fraction(int(sva.amplitudes @ svb.amplitudes), 1 << sva.exponent)
    assert Fraction(overlap(a, b)) == direct


def test_helstrom_identical_states_is_coin_flip():
    a = BooleanFunction(2, 0b0110)
    assert helstrom_error(a, a) == 0.5


def test_helstrom_orthogonal_states_is_zero():
    assert helstrom_error(BooleanFunction(1, 0), BooleanFunction(1, 0b10)) == 0.0


def test_helstrom_unique_sat_pair_n2():
    a, b = unique_sat_pair(2)
    assert helstrom_error(a, b) == pytest.approx((1.0 - math.sqrt(0.75)) / 2.0, abs=1e-12)


def test_helstrom_copies_reduces_error():
    a, b = unique_sat_pair(3)
    single = helstrom_error(a, b)
    assert helstrom_error_copies(a, b, 1) == single
    assert helstrom_error_copies(a, b, 8) < single
    # More copies than a float can hold: the overlap's power is exactly 0,
    # or 1 for identical states.
    assert helstrom_error_copies(a, b, 10**400) == 0.0
    assert helstrom_error_copies(a, a, 10**400) == 0.5
    with pytest.raises(ValueError):
        helstrom_error_copies(a, b, 0)


def test_unique_sat_pair_properties():
    for n in (2, 3, 10, 20, 24):
        a, b = unique_sat_pair(n)
        assert a.table == 0 and b.table == 1
        assert overlap(a, b) == 1.0 - 2.0 / (1 << n)
    with pytest.raises(ValueError):
        unique_sat_pair(25)


def test_unique_sat_pair_membership_split_even_at_cap():
    from pilme.reductions import cosm_star

    a, b = unique_sat_pair(20)
    assert cosm_star(BooleanFunction(20, a.table))
    assert not cosm_star(BooleanFunction(20, b.table))


def test_discrimination_gap_decays_at_the_square_root_rate():
    # gap = sqrt(1 - ov**2) / 2 with 1 - ov = 2**(1-n), so gap < 2**(-n/2)
    for n in range(3, 21):
        a, b = unique_sat_pair(n)
        gap = 0.5 - helstrom_error(a, b)
        assert gap < 2.0 ** (-n / 2)
        assert gap > 2.0 ** (-n / 2 - 1)
