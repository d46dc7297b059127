import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilme import boolfn
from pilme.boolfn import (
    _BLOCK_BITS,
    BooleanFunction,
    Hypergraph,
    ParseError,
    _binary_steps,
    anf,
    classify,
    clauses_to_ast,
    compile,
    conjoin_fresh,
    evaluate,
    from_anf,
    from_table_hex,
    max_variable,
    parse_dimacs_clauses,
    parse_formula,
    sat_brute,
    to_table_hex,
)

from oracles import (
    bit_array_anf_coefficients,
    brute_anf_coefficients,
    cnf_tree,
    coeff_from_edges,
    pointwise_satisfying_count,
    render_tree,
    serialize_dimacs,
    sorted_edges_of,
    tree_program,
    tree_value,
)


@st.composite
def boolean_functions(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    table = draw(st.integers(0, (1 << (1 << n)) - 1))
    return BooleanFunction(n, table)


# ---------------------------------------------------------------------------
# formula parsing


def test_parse_and():
    assert parse_formula("x1 & x2", 2) == (("var", 0), ("var", 1), ("&", 2))


def test_parse_mixed_precedence():
    assert parse_formula("!x1 ^ (x2 | 1)", 2) == (
        ("var", 0), ("!", 1), ("var", 1), ("const", 1), ("|", 2), ("^", 2),
    )
    assert parse_formula("x1 | x2 ^ x3 & x4", 4) == (
        ("var", 0), ("var", 1), ("var", 2), ("var", 3), ("&", 2), ("^", 2), ("|", 2),
    )


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError):
        parse_formula("x3", 2)


def test_parse_variable_index_counts_digits_past_leading_zeros():
    assert parse_formula("x01 & x" + "0" * 5000 + "24", 24) == (("var", 0), ("var", 23), ("&", 2))


def test_parse_precedence_or_binds_looser_than_and():
    assert parse_formula("x1 | x2 & x3", 3) == (
        ("var", 0), ("var", 1), ("var", 2), ("&", 2), ("|", 2),
    )


def test_parse_implies_right_associative():
    program = parse_formula("x1 -> x2 -> x3", 3)
    assert program == (("var", 0), ("var", 1), ("var", 2), ("->", 2), ("->", 2))


def test_parse_iff_left_associative():
    program = parse_formula("x1 <-> x2 <-> x3", 3)
    assert program == (("var", 0), ("var", 1), ("<->", 2), ("var", 2), ("<->", 2))


def test_parse_keeps_a_chain_n_ary_but_not_across_parentheses():
    assert parse_formula("x1 & x2 & !x3", 3) == (
        ("var", 0), ("var", 1), ("var", 2), ("!", 1), ("&", 3),
    )
    assert parse_formula("(x1 ^ x2) ^ x3", 3) == (
        ("var", 0), ("var", 1), ("^", 2), ("var", 2), ("^", 2),
    )


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("x1 & $", 2)
    assert err.value.position == 5


def test_parse_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_formula("(x1 & x2", 2)


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_formula("x1 x2", 2)


def test_max_variable():
    assert max_variable(parse_formula("x1 & (x3 | !x2)", 3)) == 3
    assert max_variable((("const", 1),)) == 0


@pytest.mark.parametrize(
    "text, arity, message, position",
    [
        ("", 2, "unexpected end of input", 0),
        ("x1 &", 2, "unexpected end of input", 4),
        ("!", 2, "unexpected end of input", 1),
        ("(x1 x2", 2, "expected ')'", 4),
        ("(x1", 2, "expected ')'", 3),
        ("x1 )", 2, "unexpected token ')'", 3),
        ("()", 2, "unexpected token ')'", 1),
        ("x1 x2", 2, "unexpected token 'x2'", 3),
        ("x3", 2, "variable x3 out of range for arity 2", 0),
        pytest.param(  # past int()'s 4,300-digit limit
            "x1 & x" + "9" * 5000, 24, f"variable x{'9' * 5000} out of range for arity 24", 5,
            id="x-5000-digits",
        ),
    ],
)
def test_parse_error_message_and_position(text, arity, message, position):
    with pytest.raises(ParseError) as err:
        parse_formula(text, arity)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def formula_trees(n: int):
    leaves = st.one_of(
        st.integers(0, n - 1).map(lambda k: ("var", k)),
        st.integers(0, 1).map(lambda v: ("const", v)),
    )

    def extend(children):
        return st.one_of(
            children.map(lambda child: ("!", child)),
            st.tuples(st.sampled_from("&|^"), st.lists(children, min_size=2, max_size=4)).map(
                lambda pair: (pair[0], *pair[1])
            ),
            st.tuples(st.sampled_from(["->", "<->"]), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=16)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), formula_trees(n))))
def test_rendered_random_trees_parse_back_and_compile_pointwise(case):
    n, tree = case
    program = parse_formula(render_tree(tree), n)
    assert program == tree_program(tree)
    f = compile(program, n)
    assert [evaluate(f, point) for point in range(1 << n)] == [
        tree_value(tree, point) for point in range(1 << n)
    ]


# ---------------------------------------------------------------------------
# DIMACS


def test_dimacs_single_clause():
    program = clauses_to_ast(parse_dimacs_clauses("p cnf 2 1\n1 2 0")[1])
    assert program == (("var", 0), ("var", 1), ("|", 2))


def test_dimacs_contradiction():
    program = clauses_to_ast(parse_dimacs_clauses("p cnf 1 2\n1 0\n-1 0")[1])
    assert program == (("var", 0), ("var", 0), ("!", 1), ("&", 2))


def test_dimacs_literal_out_of_range():
    with pytest.raises(ParseError):
        clauses_to_ast(parse_dimacs_clauses("p cnf 2 1\n3 0")[1])


def test_dimacs_missing_terminator():
    with pytest.raises(ParseError):
        clauses_to_ast(parse_dimacs_clauses("p cnf 2 1\n1 2")[1])


def test_dimacs_missing_header():
    with pytest.raises(ParseError):
        clauses_to_ast(parse_dimacs_clauses("1 2 0")[1])


def test_dimacs_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1 -2\n3 0\nc another\n-1 0\n"
    count, clauses = parse_dimacs_clauses(text)
    assert count == 3
    assert clauses == [[1, -2, 3], [-1]]


def test_dimacs_empty_clause_is_constant_false():
    f = compile(clauses_to_ast(parse_dimacs_clauses("p cnf 2 1\n0")[1]), 2)
    assert f.table == 0


def test_dimacs_no_clauses_is_constant_true():
    f = compile(clauses_to_ast(parse_dimacs_clauses("p cnf 2 0\n")[1]), 2)
    assert f.table == 0b1111


def test_dimacs_satlib_end_marker_ends_the_clauses():
    # SATLIB uf* files end with a "%" line and a stray "0".
    text = "c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n"
    assert parse_dimacs_clauses(text) == (3, [[1, -2, 3], [-1, 2]])


@given(
    st.integers(1, 6).flatmap(
        lambda nv: st.tuples(
            st.just(nv),
            st.lists(
                st.lists(
                    st.integers(1, nv).flatmap(lambda v: st.sampled_from([v, -v])),
                    max_size=5,
                ),
                max_size=8,
            ),
        )
    )
)
def test_dimacs_serialize_parse_round_trip(case):
    var_count, clauses = case
    text = serialize_dimacs(var_count, clauses)
    assert parse_dimacs_clauses(text) == (var_count, clauses)
    program = clauses_to_ast(parse_dimacs_clauses(text)[1])
    assert program == clauses_to_ast(clauses) == tree_program(cnf_tree(clauses))


# ---------------------------------------------------------------------------
# compile / evaluate / classify


def test_compile_and_table():
    f = compile(parse_formula("x1 & x2", 2), 2)
    assert [evaluate(f, i) for i in range(4)] == [0, 0, 0, 1]


def test_compile_xor_table():
    f = compile(parse_formula("x1 ^ x2", 2), 2)
    assert [evaluate(f, i) for i in range(4)] == [0, 1, 1, 0]


def test_compile_const_table():
    f = compile((("const", 1),), 1)
    assert [evaluate(f, i) for i in range(2)] == [1, 1]


def test_compile_implies_iff_semantics():
    # index bit 0 is x1: the implication only fails at i=1 (x1=1, x2=0)
    imp = compile(parse_formula("x1 -> x2", 2), 2)
    assert [evaluate(imp, i) for i in range(4)] == [1, 0, 1, 1]
    iff = compile(parse_formula("x1 <-> x2", 2), 2)
    assert [evaluate(iff, i) for i in range(4)] == [1, 0, 0, 1]


def test_compile_rejects_arity_above_cap():
    with pytest.raises(ValueError):
        compile((("var", 0),), 25)


# Above _BLOCK_BITS variables compile builds the table one block at a
# time, with the high variables constant per block; these run it on both
# sides of that edge against a per-assignment evaluation of a formula tree.


def _random_3cnf(rng: random.Random, n: int, clause_count: int) -> list[list[int]]:
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        for _ in range(clause_count)
    ]


def _every_node_formula(n: int):
    # Each operator has x_n or x_{n-1} as a direct argument, so above the
    # block size every operator sees a high variable.
    hi, hi2, lo, mid = ("var", n - 1), ("var", n - 2), ("var", 0), ("var", n // 2 - 1)
    left = ("^", hi, ("|", lo, hi2), ("&", mid, hi, ("!", ("var", 1))), ("const", 1))
    right = ("->", hi2, ("|", ("!", hi), ("<->", hi, ("var", 2)), ("const", 0)))
    return ("<->", left, right)


def _sample_points(rng: random.Random, n: int) -> list[int]:
    block = 1 << min(n, _BLOCK_BITS)
    edges = [p for start in range(0, 1 << n, block) for p in (start, start + block - 1)]
    return edges + [rng.randrange(1 << n) for _ in range(2000 - len(edges))]


@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_compile_matches_pointwise_ast_across_the_block_edge(offset):
    n = _BLOCK_BITS + offset
    rng = random.Random(n)
    cases = [
        (clauses_to_ast(clauses), cnf_tree(clauses))
        for clauses in (_random_3cnf(rng, n, 8), _random_3cnf(rng, n, 2 * n))
    ]
    tree = _every_node_formula(n)
    cases.append((parse_formula(render_tree(tree), n), tree))
    for program, tree in cases:
        f = compile(program, n)
        table = f.table
        values = set()
        # A dense CNF is true at few points; check its first one as well.
        for point in _sample_points(rng, n) + [sat_brute(f) or 0]:
            expected = tree_value(tree, point)
            assert (table >> point) & 1 == expected, (tree, point)
            values.add(expected)
        assert values == {0, 1}


def test_compile_above_the_block_size_rejects_a_variable_past_the_arity():
    n = _BLOCK_BITS + 1
    with pytest.raises(ValueError, match=f"variable x{n + 1} out of range for arity {n}"):
        compile((("var", 0), ("var", n - 1), ("var", n), ("|", 2), ("&", 2)), n)


def test_compile_peak_memory_stays_near_the_table_size():
    n = 24
    rng = random.Random(24)
    program = clauses_to_ast(_random_3cnf(rng, n, 102))
    table_bytes = (1 << n) // 8
    tracemalloc.start()
    try:
        compile(program, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * table_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_compile_peak_memory_stays_near_the_table_size_at_1000_clauses():
    # Most clauses read a variable above x18, so the running conjunction
    # holds one value per block for most of the program.
    n = 24
    program = clauses_to_ast(_random_3cnf(random.Random(1000), n, 1000))
    table_bytes = (1 << n) // 8
    tracemalloc.start()
    try:
        compile(program, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * table_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_compile_cancels_negation_pairs():
    assert _binary_steps(parse_formula("!" * 5000 + "x1", 1)) == [("var", 0)]
    assert _binary_steps(parse_formula("!" * 5001 + "x1", 1)) == [("var", 0), ("!", 1)]
    n = 20
    for count, core in ((5000, "x1"), (5001, "!x1")):
        long = compile(parse_formula("!" * count + "x1", n), n)
        assert long == compile(parse_formula(core, n), n)


def _parity_plus_monomial(rng: random.Random, n: int) -> str:
    # A parity over x_n and four other variables, XOR one four-literal
    # monomial over x_{n-1} and three others.
    parity = [*rng.sample(range(1, n), 4), n]
    monomial = [*rng.sample(range(1, n - 1), 3), n - 1]
    literals = [("!" if rng.random() < 0.5 else "") + f"x{v}" for v in monomial]
    return " ^ ".join(f"x{v}" for v in parity) + " ^ " + " & ".join(literals)


# SHA-256 of the packed table bytes of a seeded 3-CNF (3n clauses) and a
# parity-plus-monomial formula at each arity, recorded when compile still
# ran the whole program once per block.
_WIDE_TABLE_DIGESTS = {
    20: (
        "c32ba3d3b6e208d8aa4e0f63451ee59d58b203c45129986f5ac93f942c0f3ae3",
        "2d60b63d476079b92595747a3e0d78fa0f2af709427169fa23b026e4464da42c",
    ),
    22: (
        "7019bb4a1a181b7886f305fb902b3e61304e0ee2b9e81d9a766fe8cd6459a485",
        "dbfdfd7b0a37de6935f719a2c28cb722689665d0a51ff0201d9585c417d108ea",
    ),
    24: (
        "af0463daa2aa2025f2bf6b9859a2b469b454cffa8d571208a6c55478aa27c4d0",
        "b185157540d007d0d2b820410a22055e2c4701453575afd186ac9f52ce0823ce",
    ),
}


@pytest.mark.parametrize("n", sorted(_WIDE_TABLE_DIGESTS))
def test_wide_compiles_match_the_recorded_tables(n):
    rng = random.Random(1000 + n)
    programs = (
        clauses_to_ast(_random_3cnf(rng, n, 3 * n)),
        parse_formula(_parity_plus_monomial(rng, n), n),
    )
    digests = tuple(
        hashlib.sha256(compile(program, n).table.to_bytes(1 << (n - 3), "little")).hexdigest()
        for program in programs
    )
    assert digests == _WIDE_TABLE_DIGESTS[n]


def test_binary_steps_move_shared_operands_first():
    # Above x18 a chain's operands over x1..x18 move first, in their order;
    # -> and <-> keep theirs.
    program = parse_formula("x20 & x1 & (x2 | x19) & !x3", 20)
    assert _binary_steps(program) == [
        ("var", 0), ("var", 2), ("!", 1), ("&", 2),
        ("var", 19), ("&", 2), ("var", 1), ("var", 18), ("|", 2), ("&", 2),
    ]
    assert _binary_steps(parse_formula("x20 -> x1", 20)) == [("var", 19), ("var", 0), ("->", 2)]
    assert _binary_steps(parse_formula("x20 <-> x1", 20)) == [("var", 19), ("var", 0), ("<->", 2)]


def test_evaluate_examples():
    f = compile(parse_formula("x1 & x2", 2), 2)
    assert evaluate(f, 3) == 1
    assert evaluate(f, 0) == 0
    ghz = from_table_hex("d1", 3)
    assert evaluate(ghz, 4) == 1


def test_evaluate_reads_the_table_bytes_on_both_sides_of_the_block_edge():
    n = 24
    f = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
    raw = bytes.fromhex(to_table_hex(f))
    for point in (0, 1, (1 << 18) - 1, 1 << 18, (1 << n) - 1):
        assert evaluate(f, point) == (raw[point >> 3] >> (point & 7)) & 1


def test_evaluate_out_of_range():
    f = BooleanFunction(2, 0)
    with pytest.raises(IndexError):
        evaluate(f, 4)
    with pytest.raises(IndexError):
        evaluate(f, -1)


def test_classify_examples():
    assert classify(BooleanFunction(2, 0)).kind == "constant0"
    xor = compile(parse_formula("x1 ^ x2", 2), 2)
    assert classify(xor) == classify(xor).__class__("balanced", 2)
    both = classify(compile(parse_formula("x1 & x2", 2), 2))
    assert (both.kind, both.satisfying_count) == ("neither", 1)


def test_classify_counts_match_pointwise_evaluation_exhaustive():
    for n in range(1, 5):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert classify(f).satisfying_count == pointwise_satisfying_count(table, n)


# ---------------------------------------------------------------------------
# ANF


def test_anf_of_and():
    h = anf(compile(parse_formula("x1 & x2", 2), 2))
    assert (h.constant_bit, h.edges) == (0, ((0, 1),))


def test_anf_of_or_matches_brute_force():
    f = compile(parse_formula("x1 | x2", 2), 2)
    assert brute_anf_coefficients(f.table, 2) == 0b1110
    h = anf(f)
    assert h.constant_bit == 0
    assert h.edges == ((0,), (1,), (0, 1))


def test_anf_of_constant_one():
    h = anf(BooleanFunction(3, 0xFF))
    assert (h.constant_bit, h.edges) == (1, ())


def test_anf_matches_brute_force_exhaustive_n3():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            h = anf(BooleanFunction(n, table))
            coeff = h.constant_bit
            for edge in h.edges:
                mask = 0
                for v in edge:
                    mask |= 1 << v
                coeff |= 1 << mask
            assert coeff == brute_anf_coefficients(table, n)


def test_from_anf_examples():
    assert from_anf(Hypergraph(2, coeff_from_edges(0, frozenset({frozenset({0, 1})})))).table == 0b1000
    assert from_anf(Hypergraph(3, coeff_from_edges(1, frozenset()))).table == 0xFF


def test_from_anf_round_trip_or():
    f = compile(parse_formula("x1 | x2", 2), 2)
    assert from_anf(anf(f)) == f


def test_from_anf_rejects_arity_above_cap():
    with pytest.raises(ValueError):
        from_anf(Hypergraph(25, coeff_from_edges(0, frozenset())))


def test_mobius_involution_exhaustive_n3():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert from_anf(anf(f)) == f


@given(boolean_functions(max_n=12))
def test_mobius_involution_random(f):
    assert from_anf(anf(f)) == f


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 1),
            st.frozensets(
                st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n),
                max_size=12,
            ),
        )
    )
)
def test_anf_of_from_anf_is_identity(case):
    n, constant, edges = case
    h = Hypergraph(n, coeff_from_edges(constant, edges))
    assert anf(from_anf(h)) == h


def test_anf_unique_per_table_n3():
    images = {anf(BooleanFunction(3, t)) for t in range(256)}
    assert len(images) == 256


def test_anf_edges_match_a_brute_force_sort():
    # Every table up to n = 3, then dense seeded tables up to n = 16: the
    # edges come out by size, then by vertices.
    rng = random.Random(2014)
    cases = [(n, table) for n in range(1, 4) for table in range(1 << (1 << n))]
    cases += [(n, rng.getrandbits(1 << n)) for n in range(8, 17)]
    for n, table in cases:
        expected = sorted_edges_of(bit_array_anf_coefficients(table, n), n)
        assert anf(BooleanFunction(n, table)).edges == expected


def test_anf_monomial_count_bound():
    for table in range(256):
        h = anf(BooleanFunction(3, table))
        assert len(h.edges) + h.constant_bit <= 8


# Above _BLOCK_BITS variables the transform runs on 2**18-entry blocks:
# the low levels inside each block, the high levels between whole blocks.


@pytest.mark.parametrize("n", [17, 18, 19, 20, 24])
def test_anf_matches_the_bit_array_transform_across_the_block_edge(n):
    f = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
    h = anf(f)
    assert h.coeff == bit_array_anf_coefficients(f.table, n)
    if n == 24:
        assert from_anf(h) == f


@pytest.mark.parametrize("n", range(4, 10))
def test_small_blocks_run_every_level_and_the_join(n, monkeypatch):
    # Three-variable blocks put the high-level XORs and the block join on
    # tables small enough for the brute-force references.
    monkeypatch.setattr(boolfn, "_BLOCK_BITS", 3)
    rng = random.Random(n)
    for _ in range(3):
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        h = anf(f)
        assert h.coeff == brute_anf_coefficients(f.table, n)
        assert from_anf(h) == f
    for tree in (_every_node_formula(n), cnf_tree(_random_3cnf(rng, n, n))):
        f = compile(tree_program(tree), n)
        assert [evaluate(f, p) for p in range(1 << n)] == [
            tree_value(tree, p) for p in range(1 << n)
        ]


def _random_tree(rng: random.Random, n: int, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("var", rng.randrange(n)) if rng.random() < 0.85 else ("const", rng.randrange(2))
    op = rng.choice(["!", "&", "|", "^", "->", "<->"])
    if op == "!":
        return ("!", _random_tree(rng, n, depth - 1))
    count = 2 if op in ("->", "<->") else rng.randint(2, 4)
    return (op, *[_random_tree(rng, n, depth - 1) for _ in range(count)])


@pytest.mark.parametrize("n", range(4, 10))
def test_small_blocks_fold_high_variables_and_share_low_subterms(n, monkeypatch):
    # With three-variable blocks, x4..xn index the blocks: each is all ones
    # or 0 inside one, and anything over x1..x3 is one value for them all.
    monkeypatch.setattr(boolfn, "_BLOCK_BITS", 3)
    rng = random.Random(100 + n)
    hi, hi2, lo, lo2 = ("var", n - 1), ("var", 3), ("var", 0), ("var", 2)
    trees = [
        ("|", hi, ("!", hi)),
        ("&", hi, ("!", hi)),
        ("^", hi, hi, lo),
        ("&", hi, lo, ("|", hi2, lo2), lo2, ("^", lo, ("const", 1)), ("!", hi2)),
        ("|", ("const", 0), hi, ("&", lo, lo2), ("!", ("!", hi2)), ("const", 1)),
        ("^", ("&", hi, hi2), lo, ("|", lo2, ("const", 0)), hi),
        ("->", hi, lo),
        ("->", lo, hi),
        ("->", hi, ("!", hi)),
        ("<->", hi, hi2),
        ("<->", lo, ("!", hi)),
        ("<->", ("->", hi2, lo2), ("&", lo, hi)),
    ] + [_random_tree(rng, n, 4) for _ in range(24)]
    for tree in trees:
        f = compile(tree_program(tree), n)
        assert [evaluate(f, p) for p in range(1 << n)] == [
            tree_value(tree, p) for p in range(1 << n)
        ], tree


def test_projection_tables_are_built_once_per_process(monkeypatch):
    calls = []
    real = boolfn.variable_table

    def counting(k, n):
        calls.append((k, n))
        return real(k, n)

    monkeypatch.setattr(boolfn, "variable_table", counting)
    boolfn._projections.cache_clear()
    f = BooleanFunction(24, random.Random(24).getrandbits(1 << 24))
    anf(f)
    assert len(calls) == _BLOCK_BITS
    calls.clear()
    anf(f)
    assert calls == []


def test_anf_peak_memory_stays_near_the_table_size():
    f = BooleanFunction(24, random.Random(24).getrandbits(1 << 24))
    anf(f)  # builds the shared projection tables outside the measurement
    tracemalloc.start()
    try:
        anf(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# sat_brute / conjoin_fresh


def test_sat_brute_examples():
    assert sat_brute(compile(parse_formula("x1 & x2", 2), 2)) == 3
    assert sat_brute(BooleanFunction(2, 0)) is None
    assert sat_brute(compile(parse_formula("x1 | x2", 2), 2)) == 1


def test_conjoin_fresh_single_variable_input():
    g = conjoin_fresh(BooleanFunction(1, 0b10), 2)
    assert g.arity == 3
    assert classify(g).satisfying_count == 1
    assert evaluate(g, 0b111) == 1


def test_conjoin_fresh_tautology_quarter():
    g = conjoin_fresh(BooleanFunction(2, 0b1111), 2)
    assert (g.arity, classify(g).satisfying_count) == (4, 4)


def test_conjoin_fresh_contradiction_stays_contradiction():
    g = conjoin_fresh(BooleanFunction(2, 0), 1)
    assert g.table == 0


def test_conjoin_fresh_preserves_count_exhaustive():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            for count in (1, 2):
                g = conjoin_fresh(f, count)
                assert classify(g).satisfying_count == classify(f).satisfying_count


def test_conjoin_fresh_rejects_bad_count_and_overflow():
    f = BooleanFunction(2, 0b0110)
    with pytest.raises(ValueError):
        conjoin_fresh(f, 3)
    with pytest.raises(ValueError):
        conjoin_fresh(BooleanFunction(23, 0), 2)


# ---------------------------------------------------------------------------
# table-hex format


def test_table_hex_ghz_round_trip():
    ghz = from_table_hex("d1", 3)
    assert ghz.table == 0xD1
    assert to_table_hex(ghz) == "d1"


def test_table_hex_small_arity_pads_one_byte():
    f = compile(parse_formula("x1 & x2", 2), 2)
    assert to_table_hex(f) == "08"
    assert from_table_hex("08", 2) == f


def test_table_hex_rejects_bad_input():
    with pytest.raises(ParseError):
        from_table_hex("zz", 3)
    with pytest.raises(ParseError):
        from_table_hex("d1ff", 3)
    with pytest.raises(ParseError):
        from_table_hex("ff", 2)  # bits beyond 2**2


@given(boolean_functions(max_n=8))
def test_table_hex_round_trip_random(f):
    assert from_table_hex(to_table_hex(f), f.arity) == f


# ---------------------------------------------------------------------------
# value validation


def test_boolean_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(0, 0)
    with pytest.raises(ValueError):
        BooleanFunction(1, 4)
    with pytest.raises(ValueError):
        BooleanFunction(1, -1)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(0, 0)
    with pytest.raises(ValueError):
        Hypergraph(2, 1 << 4)  # coefficient of a monomial over vertex 2
    with pytest.raises(ValueError):
        Hypergraph(2, -1)
    assert Hypergraph(2, (1 << 4) - 1).edges == ((0,), (1,), (0, 1))
