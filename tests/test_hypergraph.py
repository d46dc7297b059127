import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilme import boolfn
from pilme.boolfn import (
    MAX_N,
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
from pilme.lme_state import is_osm, state_from_function

from oracles import (
    brute_anf_coefficients,
    brute_anf_value,
    coeff_from_edges,
    product_sign_vectors,
    read_anf_text,
    sorted_edges_of,
)


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
    # at n = 24: a product, edge-free hypergraphs, and one coupling edge
    # through the top vertex
    assert not entangling_edge_exists(parse_anf_text("c 1\n0\n23\n"))
    assert not entangling_edge_exists(parse_anf_text("c 0\n", vertex_count=24))
    assert not entangling_edge_exists(parse_anf_text("c 1\n", vertex_count=24))
    assert entangling_edge_exists(parse_anf_text("c 0\n0\n22 23\n"))


# ANF text at n = 24 with edges up to vertex 23, the lowest coupling edge {1, 2}.
ANF24 = "c 1\n0 23\n16 17 18 19 20\n3 9 21\n22\n5 16 23\n2 7 8 15 16 23\n1 2\n"


def test_the_edge_test_builds_no_coefficient_wide_mask():
    # The coefficient holds 2**24 bits (2 MiB); the test stops at the lowest
    # level with a coupling edge, so it reads a few bits of it.
    h = parse_anf_text(ANF24)
    tracemalloc.start()
    try:
        assert entangling_edge_exists(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 10


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
            entangled = not is_osm(state_from_function(f))
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
    with pytest.raises(ValueError, match="arity 25 exceeds the configured cap 24"):
        parse_anf_text("c 1\n", vertex_count=25)


def test_parse_text_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_anf_text("")
    with pytest.raises(ParseError):
        parse_anf_text("c 2\n")
    with pytest.raises(ParseError):
        parse_anf_text("c 0\n0 0\n")
    with pytest.raises(ParseError):
        parse_anf_text("c 0\n1\n1\n")


# Vertex tokens as the text form writes them, the low ones most often, and
# more rarely other spellings `int` reads (`007` is 7, `+3` and `٣` are 3,
# `1_0` is 10, `-0` is 0), negative ones, a bad one, vertex 24 and a vertex
# far beyond the cap.
_ANF_TOKENS = st.sampled_from(
    [str(v) for v in range(8)] * 3
    + [str(v) for v in range(MAX_N)]
    + ["007", "+3", "1_0", "\u0663", "-0", "-1", "-4", "x", "24", str(10**12)]
)


@st.composite
def anf_texts(draw):
    # A line repeats a vertex or another line when spelled two ways, and up
    # to twice a line gains a copy of one of its tokens or is copied whole.
    line_tokens = st.lists(_ANF_TOKENS, min_size=1, max_size=5, unique=True)
    lines = draw(st.lists(line_tokens, max_size=8, unique_by=tuple))
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        line = draw(st.sampled_from(lines))
        if draw(st.booleans()):
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(line)))
        else:
            lines.insert(draw(st.integers(0, len(lines))), list(line))
    separator = draw(st.sampled_from([" ", "\t", "  "]))
    header = draw(st.sampled_from(["c 0", "c 1"]))
    return "".join(line + "\n" for line in [header, *map(separator.join, lines)])


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as error:
        return type(error), str(error)


def _library_read(text, vertex_count):
    h = parse_anf_text(text, vertex_count)
    return h.vertex_count, h.coeff, h.edges


@settings(max_examples=300, deadline=None)
@given(anf_texts(), st.none() | st.integers(1, MAX_N + 2))
# A repeated vertex whose line also repeats an earlier monomial: the
# repeat is reported, whether the mask carries onto the earlier one's
# (1 + 2 + 2 is the mask of {0, 2}) or the line names a vertex of 24 or more.
@example("c 0\n0 2\n0 1 1\n", None)
@example("c 0\n0 30\n30 0 0\n", None)
def test_parse_text_matches_the_line_by_line_reference(text, vertex_count):
    # The same hypergraph, in the same edge order, or the same error.
    expected = _outcome(read_anf_text, text, vertex_count)
    assert _outcome(_library_read, text, vertex_count) == expected


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


# ---------------------------------------------------------------------------
# edge decoding against a one-bit-at-a-time reference


def _reference_text(constant: int, edges) -> str:
    return "".join([f"c {constant}\n", *(" ".join(map(str, edge)) + "\n" for edge in edges)])


def test_edges_and_text_match_the_reference_on_every_coefficient_up_to_n3():
    for n in range(1, 4):
        for coeff in range(1 << (1 << n)):
            h = Hypergraph(n, coeff)
            expected = sorted_edges_of(coeff, n)
            assert h.edges == expected
            assert render_anf_text(h) == _reference_text(coeff & 1, expected)


@pytest.mark.parametrize("n", range(8, 17))
def test_edges_and_text_match_the_reference_on_dense_coefficients(n):
    coeff = random.Random(n).getrandbits(1 << n)
    h = Hypergraph(n, coeff)
    expected = sorted_edges_of(coeff, n)
    assert h.edges == expected
    assert render_anf_text(h) == _reference_text(coeff & 1, expected)


def _refuse(*args):
    raise AssertionError("this way of listing edges must not run here")


@pytest.mark.parametrize("n, top", [(24, 23), (32, 25)])
def test_edges_and_text_of_sparse_wide_hypergraphs(n, top, monkeypatch):
    # Reading 2**n coefficients one at a time is out of reach here, so the
    # reference sorts the generating vertex tuples by (size, vertices).
    # Vertex `top` is in use; at n = 32 that is above vertex 24 and puts
    # edges in the fourth byte of the mask, while the coefficient int stays
    # at 2**26 bits.  No gather of high parts is built at these arities.
    monkeypatch.setattr(boolfn, "_run_gathers", _refuse)
    rng = random.Random(n)
    edges = {(top,), (0, top), (3, 8, 16, top - 1, top)}
    edges |= {tuple(sorted(rng.sample(range(top + 1), rng.randint(1, 6)))) for _ in range(40)}
    h = Hypergraph(n, coeff_from_edges(1, map(frozenset, edges)))
    expected = tuple(sorted(edges, key=lambda edge: (len(edge), edge)))
    assert h.edges == expected
    assert render_anf_text(h) == _reference_text(1, expected)


# ---------------------------------------------------------------------------
# both ways of listing edges: a dense coefficient read in runs, any other
# one by sorting its set bits


def _first_dense_edge_count(n: int) -> int:
    # The fewest edges `Hypergraph` lists in runs: one per 8 coefficient bits.
    return -(-(1 << n) // 8)


@pytest.mark.parametrize("n", range(1, 17))
def test_both_edge_listings_match_the_reference(n, monkeypatch):
    rng = random.Random(n)
    switch = _first_dense_edge_count(n)
    below = sum(1 << m for m in rng.sample(range(1, 1 << n), switch - 1)) | 1
    at = sum(1 << m for m in rng.sample(range(1, 1 << n), switch))
    cases = [
        (below, "_run_plan"),  # sorted: no run is listed
        (at, "_set_bits"),  # listed in runs: nothing is sorted
        (1, None),  # constant only
        (1 << rng.randrange(1, 1 << n), None),  # a single edge
        ((1 << (1 << n)) - 1, None),  # every edge
    ]
    for coeff, unused in cases:
        h = Hypergraph(n, coeff)
        expected = sorted_edges_of(coeff, n)
        with monkeypatch.context() as patch:
            if unused:
                patch.setattr(boolfn, unused, _refuse)
            assert h.edges == expected
            assert render_anf_text(h) == _reference_text(coeff & 1, expected)
            assert hypergraph_to_json(h) == {"n": n, "c": coeff & 1, "edges": list(map(list, expected))}


@pytest.mark.parametrize("n", [12, 16])
def test_dense_listing_sorts_nothing(n, monkeypatch):
    monkeypatch.setattr(boolfn, "_set_bits", _refuse)
    h = Hypergraph(n, random.Random(n).getrandbits(1 << n))
    assert len(h.edges) == (h.coeff >> 1).bit_count()
    assert parse_anf_text(render_anf_text(h)) == h


def test_dense_listing_above_n16_sorts(monkeypatch):
    # Runs are listed only up to n = 16, over order tables of 12 vertices.
    monkeypatch.setattr(boolfn, "_run_plan", _refuse)
    h = Hypergraph(17, random.Random(17).getrandbits(1 << 17))
    assert len(h.edges) == (h.coeff >> 1).bit_count()
    assert list(h.edges) == sorted(h.edges, key=lambda edge: (len(edge), edge))


def test_the_order_table_lists_every_edge_by_size_then_vertices():
    # The gathers of each width, in turn, put every mask in print order,
    # the empty one first.
    for n in range(1, 13):
        def key(mask):
            return mask.bit_count(), tuple(v for v in range(n) if mask >> v & 1)

        listed = [mask for gather in boolfn._run_gathers(n) for mask in gather(range(1 << n))]
        assert listed == [0, *sorted(range(1, 1 << n), key=key)]


def test_the_order_tables_up_to_n16_hold_at_most_a_mebibyte(monkeypatch):
    # Everything listing dense coefficients at every n <= 16, as text and as
    # edges, keeps once it returns: the gathers built from the order tables,
    # the run plans and the text of the high parts.  The last collection
    # frees the interpreter's free lists of the edge tuples listed.
    monkeypatch.setattr(boolfn, "_set_bits", _refuse)
    graphs = [Hypergraph(n, random.Random(n).getrandbits(1 << n) | 2) for n in range(1, 17)]
    for table in (boolfn._run_gathers, boolfn._run_plan, boolfn._high_text):
        table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        while graphs:
            h = graphs.pop()
            assert render_anf_text(h) and h.edges
        del h
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1 << 20


def test_dense_listing_at_n16_builds_order_tables_only_up_to_n12(monkeypatch):
    widths = []
    gathers = boolfn._run_gathers
    monkeypatch.setattr(boolfn, "_run_gathers", lambda n: widths.append(n) or gathers(n))
    h = Hypergraph(16, random.Random(16).getrandbits(1 << 16))
    assert render_anf_text(h) == _reference_text(h.constant_bit, h.edges)
    assert widths and max(widths) <= 12


# ---------------------------------------------------------------------------
# runs at their seams: one edge per run where the high part is empty, no
# low part, a full and an empty run, and the fewest edges listed in runs


def _run_masks(n: int, low: int, k: int) -> set[int]:
    # The edge masks of one run over n >= 4 vertices: low part `low`
    # (vertices 0-3) and k vertices above them.
    return {m for m in range(1, 1 << n) if m & 15 == low and (m >> 4).bit_count() == k}


@pytest.mark.parametrize("n", [4, 5, 8, 12, 16])
def test_runs_at_their_seams_match_the_reference(n, monkeypatch):
    rng = random.Random(n)
    every = range(1, 1 << n)
    dense = _first_dense_edge_count(n)

    def topped_up(edges):
        # The given edges, then seeded others up to the fewest listed in runs.
        others = sorted(set(every) - edges)
        return edges | set(rng.sample(others, max(0, dense - len(edges))))

    half = {m for m in every if rng.getrandbits(1)}
    high = n - 4
    cases = [
        topped_up({m for m in every if m < 16}),  # every edge inside vertices 0-3
        topped_up({m for m in every if not m & 15}),  # every edge above them
        (half | _run_masks(n, 0b0101, min(2, high))) - _run_masks(n, 0b0010, min(1, high)),
        set(rng.sample(every, dense)),
    ]
    monkeypatch.setattr(boolfn, "_set_bits", _refuse)
    for masks, constant in itertools.product(cases, (0, 1)):
        coeff = sum(1 << m for m in masks) | constant
        h = Hypergraph(n, coeff)
        expected = sorted_edges_of(coeff, n)
        assert h.edges == expected
        assert render_anf_text(h) == _reference_text(coeff & 1, expected)
        assert hypergraph_to_json(h) == {"n": n, "c": coeff & 1, "edges": list(map(list, expected))}


# ---------------------------------------------------------------------------
# a sparse edge list is kept as parsed, whatever its spelling, so listing
# its edges decodes nothing


@pytest.mark.parametrize("count", [5, 15])
def test_sparse_canonical_anf_keeps_its_edges_as_parsed(count, monkeypatch):
    # 5 edges are packed by OR-ing shifted ones, 15 through a byte array.
    # Vertex 7 spelled `007` is read through `int`, and the hypergraph it
    # gives keeps its edges as parsed too.
    rng = random.Random(count)
    edges = {(23,), (1, 7), (3, 8, 16, 22, 23)}
    while len(edges) < count:
        edges.add(tuple(sorted(rng.sample(range(24), rng.randint(1, 5)))))
    lines = [list(map(str, edge)) for edge in edges]
    rng.shuffle(lines)
    text = "c 1\n" + "".join(" ".join(line) + "\n" for line in lines)
    with monkeypatch.context() as patch:
        patch.setattr(boolfn, "_set_bits", _refuse)
        h = parse_anf_text(text)
        seeded = h.edges
    assert h == Hypergraph(24, coeff_from_edges(1, map(frozenset, edges)))
    assert seeded == Hypergraph(24, h.coeff).edges
    assert seeded == tuple(sorted(edges, key=lambda edge: (len(edge), edge)))
    spelled = text.replace("1 7\n", "1 007\n")
    assert spelled != text
    with monkeypatch.context() as patch:
        patch.setattr(boolfn, "_set_bits", _refuse)
        respelled = parse_anf_text(spelled)
        assert respelled.edges == seeded
    assert respelled == h
