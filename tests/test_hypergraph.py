import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilme.boolfn import (
    BooleanFunction,
    ParseError,
    compile,
    from_anf,
    from_table_hex,
    parse_formula,
)
from pilme.hypergraph import (
    Hypergraph,
    entangling_edge_exists,
    hypergraph_of,
    hypergraph_to_json,
    parse_anf_text,
    render_anf_text,
)
from pilme.lme_state import is_entangled, state_from_function

from oracles import brute_anf_coefficients, brute_anf_value, coeff_from_edges, product_sign_vectors


@st.composite
def hypergraphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    constant = draw(st.integers(0, 1))
    edges = draw(
        st.frozensets(
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n), max_size=10
        )
    )
    return Hypergraph(n, coeff_from_edges(constant, edges))


# ---------------------------------------------------------------------------
# state synthesis


def test_state_from_single_pair_edge():
    h = Hypergraph(2, coeff_from_edges(0, frozenset({frozenset({0, 1})})))
    assert from_anf(h).table == 0b1000


def test_state_from_constant_only():
    h = Hypergraph(3, coeff_from_edges(1, frozenset()))
    assert from_anf(h).table == 0xFF


def test_state_from_or_hypergraph():
    edges = frozenset({frozenset({0}), frozenset({1}), frozenset({0, 1})})
    h = Hypergraph(2, coeff_from_edges(0, edges))
    # brute evaluation of the polynomial at all four points
    signs = 0
    for i in range(4):
        signs |= brute_anf_value(0, edges, i) << i
    assert signs == 0b1110
    assert from_anf(h).table == signs


@given(hypergraphs())
def test_state_from_hypergraph_matches_pointwise_polynomial(h):
    state = from_anf(h)
    for i in range(min(state.size, 64)):
        expected = brute_anf_value(h.constant_bit, h.edges, i)
        assert ((state.table >> i) & 1) == expected


# ---------------------------------------------------------------------------
# edge criterion


def test_entangling_edge_exists_cases():
    assert entangling_edge_exists(Hypergraph(2, coeff_from_edges(0, frozenset({frozenset({0, 1})}))))
    assert not entangling_edge_exists(
        Hypergraph(3, coeff_from_edges(0, frozenset({frozenset({0}), frozenset({2})})))
    )
    assert not entangling_edge_exists(Hypergraph(2, coeff_from_edges(0, frozenset())))


def test_ghz_hypergraph():
    # Brute-force transform of table 0xd1: coefficients at masks
    # {}, {0}, {1}, {0,1}, {1,2} are set, so c=1 with those four edges.
    assert brute_anf_coefficients(0xD1, 3) == 0b01001111
    h = hypergraph_of(from_table_hex("d1", 3))
    assert h.constant_bit == 1
    assert h.edges == ((0,), (1,), (0, 1), (1, 2))


def test_hypergraph_of_constant_zero():
    h = hypergraph_of(BooleanFunction(2, 0))
    assert (h.constant_bit, h.edges) == (0, ())


def test_hypergraph_of_and():
    h = hypergraph_of(compile(parse_formula("x1 & x2", 2), 2))
    assert (h.constant_bit, h.edges) == (0, ((0, 1),))


def test_hypergraph_of_rejects_arity_above_cap():
    with pytest.raises(ValueError):
        hypergraph_of(BooleanFunction(25, 0))


def test_edge_criterion_equals_entanglement_exhaustive_n3():
    for n in (2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            entangled = is_entangled(state_from_function(f))
            assert entangled == entangling_edge_exists(hypergraph_of(f))


def test_synthesis_inverts_analysis_exhaustive_n3():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert from_anf(hypergraph_of(f)) == state_from_function(f)


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_synthesis_inverts_analysis_random(case):
    n, table = case
    f = BooleanFunction(n, table)
    assert from_anf(hypergraph_of(f)) == state_from_function(f)


def test_degree_one_hypergraphs_generate_exactly_the_product_states():
    for n in range(1, 4):
        generated = set()
        for constant in (0, 1):
            for subset in range(1 << n):
                edges = frozenset(frozenset({k}) for k in range(n) if (subset >> k) & 1)
                generated.add(from_anf(Hypergraph(n, coeff_from_edges(constant, edges))).table)
        assert generated == product_sign_vectors(n)
        assert len(generated) == 1 << (n + 1)


# ---------------------------------------------------------------------------
# formats


def test_render_and_parse_text_round_trip():
    h = hypergraph_of(from_table_hex("d1", 3))
    text = render_anf_text(h)
    assert text == "c 1\n0\n1\n0 1\n1 2\n"
    assert parse_anf_text(text) == h


def test_parse_text_requires_count_for_edge_free_input():
    with pytest.raises(ParseError):
        parse_anf_text("c 1\n")
    assert parse_anf_text("c 1\n", vertex_count=3) == Hypergraph(3, coeff_from_edges(1, frozenset()))


def test_parse_text_explicit_count_must_cover_edges():
    with pytest.raises(ParseError):
        parse_anf_text("c 0\n0 2\n", vertex_count=2)


def test_parse_text_refuses_vertex_counts_above_the_cap():
    with pytest.raises(ValueError, match="arity 31 exceeds the configured cap 24"):
        parse_anf_text("c 0\n0 30\n")
    with pytest.raises(ValueError, match="exceeds the configured cap"):
        parse_anf_text("c 1\n", vertex_count=25)
    with pytest.raises(ValueError, match="arity 26 exceeds the configured cap 10"):
        parse_anf_text("c 0\n0 25\n", max_n=10)


def test_parse_text_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_anf_text("")
    with pytest.raises(ParseError):
        parse_anf_text("c 2\n")
    with pytest.raises(ParseError):
        parse_anf_text("c 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_anf_text("c 0\n1\n1\n")


@given(hypergraphs())
def test_text_round_trip_random(h):
    assert parse_anf_text(render_anf_text(h), vertex_count=h.vertex_count) == h


def test_json_shape():
    h = hypergraph_of(from_table_hex("d1", 3))
    assert hypergraph_to_json(h) == {
        "n": 3,
        "c": 1,
        "edges": [[0], [1], [0, 1], [1, 2]],
    }
