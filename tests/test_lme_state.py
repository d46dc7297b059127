import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilme.boolfn import (
    BooleanFunction,
    Hypergraph,
    classify,
    compile,
    evaluate,
    from_anf,
    from_table_hex,
    parse_formula,
)
from pilme.lme_state import (
    Certificate,
    FactorDecomposition,
    NotProductError,
    count_osm_states,
    entangling_edge_exists,
    factorize,
    find_certificate,
    is_osm,
    membership_witness,
    state_from_function,
    verify_certificate,
)

from oracles import pointwise_certificate, product_sign_vectors, product_table

GHZ = from_table_hex("d1", 3)
GHZ_STATE = state_from_function(GHZ)


@st.composite
def product_states(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    global_sign = draw(st.sampled_from([1, -1]))
    factors = tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    return FactorDecomposition(global_sign, factors)


# ---------------------------------------------------------------------------
# construction


def test_state_from_identity_function_is_minus():
    state = state_from_function(BooleanFunction(1, 0b10))
    assert (state.arity, state.table) == (1, 0b10)
    assert (1 - 2 * evaluate(state, 0), 1 - 2 * evaluate(state, 1)) == (1, -1)


def test_state_from_constant_zero_is_all_plus():
    state = state_from_function(BooleanFunction(3, 0))
    assert state.table == 0


def test_state_from_ghz_table():
    assert GHZ_STATE.table == 0xD1
    expected = [-1, 1, 1, 1, -1, 1, -1, -1]
    assert [1 - 2 * evaluate(GHZ_STATE, i) for i in range(8)] == expected


def test_state_validation():
    with pytest.raises(ValueError):
        BooleanFunction(0, 0)
    with pytest.raises(ValueError):
        BooleanFunction(1, 4)


# ---------------------------------------------------------------------------
# product membership


def test_is_osm_all_plus():
    assert is_osm(BooleanFunction(3, 0))


def test_is_osm_rejects_ghz():
    assert not is_osm(GHZ_STATE)


def test_is_osm_accepts_minus_minus():
    assert is_osm(BooleanFunction(2, 0b0110))


def test_is_osm_matches_brute_force_exhaustive():
    for n in range(1, 4):
        members = product_sign_vectors(n)
        for signs in range(1 << (1 << n)):
            assert is_osm(BooleanFunction(n, signs)) == (signs in members)


@given(product_states())
def test_every_product_expansion_is_accepted(decomp):
    assert is_osm(decomp.to_state())


# ---------------------------------------------------------------------------
# factorization


def test_factorize_all_plus():
    assert factorize(BooleanFunction(2, 0)) == FactorDecomposition(1, (1, 1))


def test_factorize_minus_minus():
    assert factorize(BooleanFunction(2, 0b0110)) == FactorDecomposition(1, (-1, -1))


def test_factorize_global_minus():
    assert factorize(BooleanFunction(2, 0b1111)) == FactorDecomposition(-1, (1, 1))


def test_factorize_rejects_entangled_state():
    with pytest.raises(NotProductError):
        factorize(GHZ_STATE)


def _decomposition(n, global_minus, minus_mask):
    factors = tuple(-1 if (minus_mask >> k) & 1 else 1 for k in range(n))
    return FactorDecomposition(-1 if global_minus else 1, factors)


def test_to_state_matches_the_pointwise_product_for_every_sign_choice():
    for n in range(1, 5):
        for global_minus, minus_mask in itertools.product((0, 1), range(1 << n)):
            expected = BooleanFunction(n, product_table(n, global_minus, minus_mask))
            assert _decomposition(n, global_minus, minus_mask).to_state() == expected


def test_to_state_matches_the_pointwise_product_at_n20():
    n = 20
    rng = random.Random(n)
    for global_minus in (0, 1):
        minus_mask = rng.randrange(1 << n)
        expected = BooleanFunction(n, product_table(n, global_minus, minus_mask))
        assert _decomposition(n, global_minus, minus_mask).to_state() == expected


@given(product_states())
def test_factorize_round_trips(decomp):
    state = decomp.to_state()
    recovered = factorize(state)
    assert recovered == decomp
    assert recovered.to_state() == state


# ---------------------------------------------------------------------------
# certificates


def test_certificate_for_ghz():
    assert find_certificate(GHZ_STATE) == Certificate(1, 0, 1)


def test_no_certificate_for_product_state():
    assert find_certificate(BooleanFunction(3, 0)) is None


def test_certificate_for_and_state():
    # signs (+,+,+,-): level 1 fails with d(0)=0, d(1)=1
    assert find_certificate(BooleanFunction(2, 0b1000)) == Certificate(1, 0, 1)


def test_verify_certificate_ghz():
    assert verify_certificate(GHZ, Certificate(1, 0, 1))


def test_verify_certificate_constant_zero_is_false():
    assert not verify_certificate(BooleanFunction(1, 0), Certificate(0, 0, 0))


def test_verify_certificate_parity_is_false():
    xor = compile(parse_formula("x1 ^ x2", 2), 2)
    assert [evaluate(xor, i) for i in range(4)] == [0, 1, 1, 0]  # d(0)=d(1)=1
    assert not verify_certificate(xor, Certificate(1, 0, 1))


def test_verify_certificate_range_checks():
    with pytest.raises(IndexError):
        verify_certificate(GHZ, Certificate(3, 0, 0))
    with pytest.raises(IndexError):
        verify_certificate(GHZ, Certificate(1, 0, 2))


def test_verify_certificate_uses_exactly_four_evaluations():
    calls = []

    def metered(f, point):
        calls.append(point)
        return evaluate(f, point)

    assert verify_certificate(GHZ, Certificate(1, 0, 1), evaluate_fn=metered)
    assert calls == [0, 2, 1, 3]


@pytest.mark.parametrize("n", [12, 16])
def test_block_test_and_factors_match_pointwise_oracle_on_wide_tables(n):
    rng = random.Random(n)
    for _ in range(3):
        global_minus, minus_mask = rng.randrange(2), rng.randrange(1 << n)
        product = BooleanFunction(n, product_table(n, global_minus, minus_mask))
        assert pointwise_certificate(product.table, n) is None
        assert find_certificate(product) is None
        decomposition = factorize(product)
        assert decomposition.global_sign == (-1 if global_minus else 1)
        assert decomposition.factors == tuple(
            -1 if (minus_mask >> k) & 1 else 1 for k in range(n)
        )
        for point in (0, (1 << n) - 1, rng.randrange(1 << n)):
            flipped = BooleanFunction(n, product.table ^ (1 << point))
            expected = pointwise_certificate(flipped.table, n)
            assert expected is not None
            cert = find_certificate(flipped)
            assert (cert.k, cert.l, cert.m) == expected
            assert verify_certificate(flipped, cert)
            with pytest.raises(NotProductError):
                factorize(flipped)


def test_certificates_exhaustive_n3():
    for n in range(1, 4):
        for signs in range(1 << (1 << n)):
            state = BooleanFunction(n, signs)
            cert = find_certificate(state)
            if is_osm(state):
                assert cert is None
            else:
                assert cert is not None
                assert verify_certificate(BooleanFunction(n, signs), cert)


def test_no_valid_certificate_exists_for_product_states_n4():
    for n in range(1, 5):
        for signs in product_sign_vectors(n):
            f = BooleanFunction(n, signs)
            for k in range(n):
                for l, m in itertools.product(range(1 << k), repeat=2):
                    assert not verify_certificate(f, Certificate(k, l, m))


# ---------------------------------------------------------------------------
# witnesses read off a hypergraph's coefficients


def test_hypergraph_witnesses_match_the_truth_table_on_every_coefficient_up_to_n4():
    # Every hypergraph over at most 4 vertices: 65,812 coefficients.
    for n in range(1, 5):
        for coeff in range(1 << (1 << n)):
            h = Hypergraph(n, coeff)
            f = from_anf(h)
            witness = membership_witness(h)
            assert witness == membership_witness(f)
            assert entangling_edge_exists(h) == isinstance(witness, Certificate) == (not is_osm(f))


@pytest.mark.parametrize("seed", range(3))
def test_hypergraph_witnesses_of_seeded_products_at_n24(seed):
    n = 24
    rng = random.Random(seed)
    constant, minus = rng.getrandbits(1), rng.getrandbits(n) | 1 << (n - 1)
    product = constant | sum(1 << (1 << k) for k in range(n) if minus >> k & 1)
    h = Hypergraph(n, product)
    assert membership_witness(h) == FactorDecomposition(
        -1 if constant else 1, tuple(-1 if minus >> k & 1 else 1 for k in range(n))
    )
    assert not entangling_edge_exists(h)
    # One coupling edge more: below the top single-vertex edge {23}, so the
    # edges above it are cleared first, or above it.  Its mask is the lowest
    # coupling bit.
    for edge in ({0, 1}, {5, 9}, {3, 17, 22}, {0, 23}, {22, 23}):
        mask = sum(1 << v for v in edge)
        top = max(edge)
        h = Hypergraph(n, product | 1 << mask)
        assert membership_witness(h) == Certificate(top, 0, mask - (1 << top))
        assert entangling_edge_exists(h)


# ---------------------------------------------------------------------------
# census and entanglement


def test_count_osm_states_small():
    assert count_osm_states(1) == 4
    assert count_osm_states(2) == 8
    assert count_osm_states(3) == 16


def test_count_osm_states_rejects_large_n():
    with pytest.raises(ValueError):
        count_osm_states(5)
    with pytest.raises(ValueError, match="n must be between 1 and 4"):
        count_osm_states(0)


# ---------------------------------------------------------------------------
# structural consequences


def test_product_states_are_constant_or_balanced_exhaustive_n3():
    for n in range(1, 4):
        for signs in range(1 << (1 << n)):
            if is_osm(BooleanFunction(n, signs)):
                kind = classify(BooleanFunction(n, signs)).kind
                assert kind in ("constant0", "constant1", "balanced")


def test_all_balanced_states_are_products_for_n1_n2():
    for n in (1, 2):
        half = 1 << (n - 1)
        for signs in range(1 << (1 << n)):
            if signs.bit_count() == half:
                assert is_osm(BooleanFunction(n, signs))


def test_ghz_is_balanced_but_not_product():
    assert classify(GHZ).kind == "balanced"
    assert not is_osm(GHZ_STATE)


def test_balanced_count_exceeds_product_count_from_n3():
    for n in (3, 4, 5):
        assert math.comb(1 << n, 1 << (n - 1)) > (1 << (n + 1)) - 2
    assert math.comb(4, 2) == (1 << 3) - 2
