import pytest
from hypothesis import given
from hypothesis import strategies as st

import pilme.reductions as reductions
from pilme.boolfn import (
    BooleanFunction,
    classify,
    compile,
    conjoin_fresh,
    evaluate,
    from_table_hex,
    parse_formula,
    sat_brute,
)
from pilme.reductions import (
    cosm_star,
    karp_reduce,
    turing_reduce_sat,
    verify_reductions_exhaustive,
)


def _fn(text, arity):
    return compile(parse_formula(text, arity), arity)


# ---------------------------------------------------------------------------
# cosm_star


def test_cosm_star_examples():
    assert cosm_star(BooleanFunction(2, 0))
    assert not cosm_star(from_table_hex("d1", 3))
    assert cosm_star(_fn("x1 ^ x2", 2))


# ---------------------------------------------------------------------------
# Turing pipeline


def test_turing_or_settles_on_first_oracle_call():
    verdict = turing_reduce_sat(_fn("x1 | x2", 2))
    assert verdict.satisfiable
    assert verdict.witness == 1
    assert verdict.trace[0].step == "oracle_on_f"
    assert verdict.trace[0].verdict == "satisfiable"
    assert "oracle-assisted" in verdict.trace[-1].detail


def test_turing_contradiction_goes_through_both_calls():
    verdict = turing_reduce_sat(BooleanFunction(2, 0))
    assert not verdict.satisfiable
    assert verdict.witness is None
    assert [s.step for s in verdict.trace] == [
        "oracle_on_f",
        "oracle_on_conjoined",
        "evaluate_zero",
    ]


def test_turing_parity_settles_on_second_oracle_call():
    f = _fn("x1 ^ x2", 2)
    g = conjoin_fresh(f, 1)
    assert classify(g).satisfying_count == 2  # 2 of 8: neither constant nor balanced
    verdict = turing_reduce_sat(f)
    assert verdict.satisfiable
    assert verdict.trace[1].step == "oracle_on_conjoined"
    assert verdict.trace[1].verdict == "satisfiable"


def test_turing_tautology_witness_comes_from_evaluation():
    verdict = turing_reduce_sat(BooleanFunction(2, 0b1111))
    assert verdict.satisfiable
    assert verdict.witness == 0
    assert verdict.trace[-1].step == "evaluate_zero"


def test_turing_matches_brute_force_exhaustive():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            verdict = turing_reduce_sat(f)
            assert verdict.satisfiable == (sat_brute(f) is not None)
            if verdict.satisfiable:
                assert evaluate(f, verdict.witness) == 1


def test_turing_oracle_budget(monkeypatch):
    oracle_calls = {"count": 0}
    eval_calls = {"count": 0}
    real_oracle = reductions.cosm_star
    real_eval = reductions.evaluate

    def metered_oracle(f):
        oracle_calls["count"] += 1
        return real_oracle(f)

    def metered_eval(f, point):
        eval_calls["count"] += 1
        return real_eval(f, point)

    monkeypatch.setattr(reductions, "cosm_star", metered_oracle)
    monkeypatch.setattr(reductions, "evaluate", metered_eval)
    for table in range(16):
        oracle_calls["count"] = 0
        eval_calls["count"] = 0
        turing_reduce_sat(BooleanFunction(2, table))
        assert oracle_calls["count"] <= 2
        assert eval_calls["count"] <= 1


# ---------------------------------------------------------------------------
# Karp reduction


def test_karp_contradiction():
    g = karp_reduce(BooleanFunction(1, 0))
    assert (g.arity, g.table) == (3, 0)
    assert cosm_star(g)


def test_karp_tautology():
    g = karp_reduce(BooleanFunction(2, 0b1111))
    assert classify(g).satisfying_count == 4
    assert not cosm_star(g)


def test_karp_and():
    g = karp_reduce(_fn("x1 & x2", 2))
    assert (g.arity, classify(g).satisfying_count) == (4, 1)
    assert not cosm_star(g)


def test_karp_rejects_arity_overflow():
    with pytest.raises(ValueError):
        karp_reduce(BooleanFunction(23, 0))


def test_karp_agrees_with_brute_force_exhaustive():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert (not cosm_star(karp_reduce(f))) == (sat_brute(f) is not None)


# ---------------------------------------------------------------------------
# the fresh-variable gadget


def test_conjoined_is_constant_or_balanced_iff_f_is_constant():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            g_kind = classify(conjoin_fresh(f, 1)).kind
            f_kind = classify(f).kind
            assert (g_kind in ("constant0", "constant1", "balanced")) == (
                f_kind in ("constant0", "constant1")
            )


def test_conjoined_is_never_a_tautology():
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            g = conjoin_fresh(BooleanFunction(n, table), 1)
            assert classify(g).kind != "constant1"


# ---------------------------------------------------------------------------
# exhaustive harness


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_reductions_exhaustive(n):
    report = verify_reductions_exhaustive(n)
    assert (report.turing_failures, report.karp_failures) == ([], [])
    assert report.functions == 1 << (1 << n)
    assert report.to_json() == {
        "n": n,
        "functions": 1 << (1 << n),
        "turing_failures": [],
        "karp_failures": [],
    }


def test_verify_reductions_rejects_large_n():
    with pytest.raises(ValueError):
        verify_reductions_exhaustive(4)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
def test_turing_matches_brute_force_random(case):
    n, table = case
    f = BooleanFunction(n, table)
    assert turing_reduce_sat(f).satisfiable == (sat_brute(f) is not None)
