import argparse
import io
import json
import math

import jsonschema
import pytest

from pilme import cli, quantum_sim
from pilme.schemas import SCHEMAS


def run_json(capsys, argv, expect_code=0):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err
    return json.loads(captured.out)


def run_text(capsys, argv, expect_code=0):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.err
    return captured.out


def validate(command, payload):
    jsonschema.validate(payload, SCHEMAS[command])


# ---------------------------------------------------------------------------
# happy paths, one per subcommand


def test_classify(capsys):
    payload = run_json(capsys, ["classify", "x1 & x2", "--json"])
    validate("classify", payload)
    assert payload == {"n": 2, "kind": "neither", "satisfying_count": 1}


def test_state(capsys):
    payload = run_json(capsys, ["state", "--format", "table-hex", "d1", "--n", "3", "--json"])
    validate("state", payload)
    assert payload == {"n": 3, "table_hex": "d1", "signs": "-+++-+--"}


def test_state_with_amplitudes(capsys):
    payload = run_json(
        capsys, ["state", "x1 ^ x2", "--json", "--amplitudes"]
    )
    validate("state", payload)
    scale = 1.0 / math.sqrt(4)
    assert payload["amplitudes"] == [scale, -scale, -scale, scale]


def test_separable_certificate(capsys):
    payload = run_json(capsys, ["separable", "--format", "table-hex", "d1", "--n", "3", "--json"])
    validate("separable", payload)
    assert payload == {
        "n": 3,
        "osm": False,
        "decomposition": None,
        "certificate": {"k": 1, "l": 0, "m": 1},
    }


def test_separable_decomposition(capsys, monkeypatch):
    from pilme import lme_state

    block_tests = []
    find_certificate = lme_state.find_certificate
    monkeypatch.setattr(
        lme_state, "find_certificate", lambda state: block_tests.append(state) or find_certificate(state)
    )
    payload = run_json(capsys, ["separable", "x1 ^ x2", "--json"])
    validate("separable", payload)
    assert payload == {
        "n": 2,
        "osm": True,
        "decomposition": {"global": "+", "factors": ["-", "-"]},
        "certificate": None,
    }
    assert len(block_tests) == 1


def test_anf(capsys):
    payload = run_json(capsys, ["anf", "--format", "table-hex", "d1", "--n", "3", "--json"])
    validate("anf", payload)
    assert payload == {"n": 3, "c": 1, "edges": [[0], [1], [0, 1], [1, 2]]}


def test_anf_text_output(capsys):
    out = run_text(capsys, ["anf", "--format", "table-hex", "d1", "--n", "3"])
    assert out == "c 1\n0\n1\n0 1\n1 2\n"


def test_anf_input_format(capsys):
    payload = run_json(
        capsys, ["state", "--format", "anf", "c 0\n0 1\n", "--json"]
    )
    assert payload["signs"] == "+++-"


def test_hypergraph(capsys):
    payload = run_json(capsys, ["hypergraph", "x1 & x2", "--json"])
    validate("hypergraph", payload)
    assert payload == {"n": 2, "c": 0, "edges": [[0, 1]], "entangling": True}


def test_reduce_karp(capsys):
    payload = run_json(capsys, ["reduce-karp", "x1 & x2", "--json"])
    validate("reduce-karp", payload)
    assert payload == {"n": 4, "table_hex": "0080", "satisfying_count": 1}


def test_sat_dimacs_contradiction_via_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 1 2\n1 0\n-1 0\n"))
    payload = run_json(capsys, ["sat", "--format", "dimacs", "-", "--json"])
    validate("sat", payload)
    assert payload["satisfiable"] is False
    assert payload["witness"] is None


def test_sat_quantum(capsys):
    payload = run_json(capsys, ["sat-quantum", "x1 | x2", "--json"])
    validate("sat-quantum", payload)
    assert payload["satisfiable"] is True
    assert payload["trace"][1]["step"] == "product_test"


def test_dj(capsys):
    payload = run_json(capsys, ["dj", "x1 ^ x2 ^ x3", "--json"])
    validate("dj", payload)
    assert payload == {"n": 3, "kind": "balanced", "p0": 0.0}


def test_dj_simulates_the_circuit_once(capsys, monkeypatch):
    calls = []
    apply_uf = quantum_sim.apply_uf
    monkeypatch.setattr(quantum_sim, "apply_uf", lambda *a: calls.append(a) or apply_uf(*a))
    payload = run_json(capsys, ["dj", "x1 ^ x2 ^ x3", "--json"])
    assert payload["kind"] == "balanced"
    assert len(calls) == 1


def test_helstrom(capsys):
    payload = run_json(capsys, ["helstrom", "--unique-sat-pair", "--n", "2", "--json"])
    validate("helstrom", payload)
    assert payload["overlap"] == 0.5
    assert payload["helstrom_error"] == pytest.approx(0.0669873, abs=1e-6)


def test_helstrom_with_copies(capsys):
    payload = run_json(
        capsys, ["helstrom", "--unique-sat-pair", "--n", "3", "--copies", "4", "--json"]
    )
    validate("helstrom", payload)
    assert payload["helstrom_error_copies"] < payload["helstrom_error"]


def test_helstrom_with_more_copies_than_a_float_holds(capsys):
    copies = 10**400
    payload = run_json(
        capsys, ["helstrom", "--unique-sat-pair", "--n", "3", "--copies", str(copies), "--json"]
    )
    validate("helstrom", payload)
    assert payload["copies"] == copies
    assert payload["helstrom_error_copies"] == 0.0


def test_verify(capsys):
    payload = run_json(capsys, ["verify", "--n", "2", "--json"])
    validate("verify", payload)
    assert payload == {"n": 2, "functions": 16, "turing_failures": [], "karp_failures": []}


def test_verify_n3_exits_zero_with_no_failures(capsys):
    payload = run_json(capsys, ["verify", "--n", "3", "--json"])
    validate("verify", payload)
    assert payload == {"n": 3, "functions": 256, "turing_failures": [], "karp_failures": []}


# ---------------------------------------------------------------------------
# input handling


def test_file_input(capsys, tmp_path):
    path = tmp_path / "formula.txt"
    path.write_text("x1 & x2 & x3\n")
    payload = run_json(capsys, ["classify", str(path), "--json"])
    assert payload == {"n": 3, "kind": "neither", "satisfying_count": 1}


def test_directory_input_is_a_one_line_input_error(capsys, tmp_path):
    assert cli.run(["classify", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(tmp_path)!r}: Is a directory\n"


def test_formula_arity_inferred_from_variables(capsys):
    payload = run_json(capsys, ["classify", "x3", "--json"])
    assert payload["n"] == 3


def test_formula_explicit_arity_override(capsys):
    payload = run_json(capsys, ["classify", "x1", "--n", "3", "--json"])
    assert payload == {"n": 3, "kind": "balanced", "satisfying_count": 4}


def test_human_and_json_carry_the_same_facts(capsys):
    payload = run_json(capsys, ["separable", "--format", "table-hex", "d1", "--n", "3", "--json"])
    text = run_text(capsys, ["separable", "--format", "table-hex", "d1", "--n", "3"])
    assert f"n: {payload['n']}" in text
    assert "osm: false" in text
    cert = payload["certificate"]
    assert f"k={cert['k']} l={cert['l']} m={cert['m']}" in text


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_formula_syntax_error_exits_2(capsys):
    assert cli.run(["classify", "x1 &"]) == 2
    assert "error:" in capsys.readouterr().err


def test_table_hex_requires_arity(capsys):
    assert cli.run(["classify", "--format", "table-hex", "d1"]) == 2
    capsys.readouterr()


def test_bad_hex_exits_2(capsys):
    assert cli.run(["classify", "--format", "table-hex", "zz", "--n", "3"]) == 2
    capsys.readouterr()


def test_sat_accepts_a_satlib_file_with_its_end_marker(capsys, tmp_path):
    # SATLIB uf* files close with a "%" line followed by "0".
    path = tmp_path / "uf3.cnf"
    path.write_text("c uf3\np cnf 3 2\n 1 -2 3 0\n-1 -3 0\n%\n0\n\n")
    payload = run_json(capsys, ["sat", str(path), "--format", "dimacs", "--json"])
    validate("sat", payload)
    assert payload["satisfiable"] is True


def test_dimacs_arity_conflict_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 2 1\n1 2 0\n"))
    assert cli.run(["classify", "--format", "dimacs", "-", "--n", "3"]) == 2
    capsys.readouterr()


def test_promise_violation_is_domain_error(capsys):
    assert cli.run(["dj", "x1 & x2"]) == 1
    assert "neither constant nor balanced" in capsys.readouterr().err


def test_helstrom_above_simulator_cap_is_domain_error(capsys):
    assert cli.run(["helstrom", "--unique-sat-pair", "--n", "21"]) == 1
    capsys.readouterr()


def test_max_n_flag_is_capped(capsys):
    assert cli.run(["classify", "x1", "--max-n", "30"]) == 2
    capsys.readouterr()


def test_env_var_lowers_default_cap(capsys, monkeypatch):
    monkeypatch.setenv("PILME_MAX_N", "3")
    assert cli.run(["classify", "x1 & x2 & x3 & x4"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("PILME_MAX_N", "4")
    payload = run_json(capsys, ["classify", "x1 & x2 & x3 & x4", "--json"])
    assert payload["n"] == 4


def test_bad_env_var_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PILME_MAX_N", "lots")
    assert cli.run(["classify", "x1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "formula", ["!" * 5000 + "x1", "(" * 3000 + "x1" + ")" * 3000], ids=["negations", "parentheses"]
)
def test_deeply_nested_formula_classifies_as_x1(capsys, formula):
    assert cli.run(["classify", formula, "--json"]) == 0
    nested = capsys.readouterr()
    assert cli.run(["classify", "x1", "--json"]) == 0
    assert nested == capsys.readouterr()


def test_run_builds_the_parser_once(capsys, monkeypatch):
    # Building the parser costs more than a small invocation, so run
    # reuses one per process.
    assert cli.run(["classify", "x1 & x2", "--json"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k)
    )
    for _ in range(3):
        assert cli.run(["classify", "x1 & x2", "--json"]) == 0
    capsys.readouterr()
    assert built == []
