import argparse
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from pilme import boolfn, cli, hypergraph, quantum_sim
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


@pytest.mark.parametrize(
    "formula, satisfiable, deciding_step",
    [
        ("x1 & !x1", False, "ancilla_readout"),
        ("x1 | !x1", True, "ancilla_readout"),
        ("x1 ^ x2 ^ x3", True, "deutsch_jozsa"),
        ("x1 | x2", True, "product_test"),
    ],
)
def test_sat_quantum_simulates_the_oracle_once(capsys, monkeypatch, formula, satisfiable, deciding_step):
    # One preparation serves every stage: the split reads the prepared state
    # and the readout is simulated on its support, so no second circuit runs.
    calls = []
    apply_uf = quantum_sim.apply_uf

    def refuse(*args):
        raise AssertionError("sat-quantum ran a second circuit")

    monkeypatch.setattr(quantum_sim, "apply_uf", lambda *a: calls.append(a) or apply_uf(*a))
    monkeypatch.setattr(quantum_sim, "deutsch_jozsa", refuse)
    payload = run_json(capsys, ["sat-quantum", formula, "--json"])
    assert payload["satisfiable"] is satisfiable
    assert [s["step"] for s in payload["trace"] if s["verdict"]] == [deciding_step]
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


def test_undecodable_file_is_a_one_line_input_error(capsys, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"x1 & x2\n\xff\xfe x1\n")
    assert cli.run(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(path)!r}: not UTF-8 text at byte 8\n"


def test_undecodable_stdin_is_a_one_line_input_error():
    # Python reads stdin strictly under a UTF-8 locale (surrogateescape only
    # under the C locale), so the decode error is raised by the read itself.
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pilme", "classify", "-"],
        input=b"\xff",
        env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8:strict"},
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: cannot read '-': not UTF-8 text at byte 0\n"


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


def test_helstrom_above_the_arity_cap_is_domain_error(capsys):
    assert cli.run(["helstrom", "--unique-sat-pair", "--n", "24"]) == 0
    assert cli.run(["helstrom", "--unique-sat-pair", "--n", "25"]) == 1
    assert capsys.readouterr().err == "error: n must be between 1 and 24\n"


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


# ---------------------------------------------------------------------------
# ANF text input: anf and hypergraph print it back and separable reads its
# answer off it, with no transform; the table-reading commands still build
# the table from it


def _sparse_anf(n):
    """Seeded sparse ANF text over n vertices, the last vertex in use."""
    rng = random.Random(n)
    edges = {(n - 1,)}
    edges |= {tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 5))))) for _ in range(12)}
    return f"c {n % 2}\n" + "".join(" ".join(map(str, e)) + "\n" for e in sorted(edges))


# (exit code, SHA-256 of stdout, stderr) of `<command> --format anf
# _sparse_anf(n) --n n`, recorded while every subcommand built the table.
SPARSE_ANF_ANSWERS = {
    ("state", 1): (0, "b997d7f634a7b20974aaf0c1c80c4f6c5581b1dc84c92fec903e6d32cf72b7f5", ""),
    ("separable", 1): (0, "ece6419ed067f5b2212b05a6009da362385fff6781d669573bff9b592d9cdcc1", ""),
    ("sat", 1): (0, "847ff7df84c79c0f1be237a73b1f9cea8665d0faea597b5cf22b705f683df414", ""),
    ("state", 5): (0, "4d111402fddf66c50d4e678ff9b52b7d8c87c5d7941fb12b72f436b65bbca079", ""),
    ("separable", 5): (0, "ee8453a51671a30ec339660cff161ef375586655ebfa641ff7f39715345862ca", ""),
    ("sat", 5): (0, "1d3c19a44b43c781f981ae9b841f612d2e6da14f3a8bdcd4fa542c803ee99a8b", ""),
    ("state", 16): (0, "66e2193d2dc85ce751fdab20fa13874f5666379df25508e879d41880acec5b78", ""),
    ("separable", 16): (0, "f9c846bdd41e59fa210efd13cd6c0eb7f1f2792d6cab7ae44e1f0384fa0ff324", ""),
    ("sat", 16): (0, "e4f98f5a6b2a0f5ae79e6088e97a9b853e77c99de3c4633624a95f3b3b8e72a4", ""),
    ("state", 20): (0, "678bb3fa55290f008daae2c3abb138badcd7be844a3cea2be7d6c6c986f07a9a", ""),
    ("separable", 20): (0, "0d37e6f190fdc66ab63c2995ed93b2f915e0e9fd113bb584d880a2bef4c8bf09", ""),
    ("sat", 20): (0, "e36aab97c123a980cd494eb7d6d1eca9a21f4f19e6358336d527149288a6b082", ""),
    ("state", 24): (0, "4ff166e9b422c0132fd69b3cd81e11c435744ac895e67019b6d69a067040a700", ""),
    ("separable", 24): (0, "b759177adc56d6965fa01d54691a85d87d67da32c23428dba6e0cb617a40984d", ""),
    ("sat", 24): (0, "e48a7a25c155f54efbe1bf3d119ac948e1b8aed87328d1b944b07eeac6ddb258", ""),
}


@pytest.mark.parametrize("n", [1, 5, 16, 20, 24])
def test_anf_and_hypergraph_print_anf_input_without_the_transform(n, capsys, monkeypatch):
    text = _sparse_anf(n)
    f = boolfn.from_anf(hypergraph.parse_anf_text(text, n))
    graph = hypergraph.hypergraph_of(f)
    facts = hypergraph.hypergraph_to_json(graph)
    entangling = hypergraph.entangling_edge_exists(graph)
    expected = {
        ("anf",): hypergraph.render_anf_text(graph),
        ("anf", "--json"): json.dumps(facts) + "\n",
        ("hypergraph",): hypergraph.render_anf_text(graph) + f"entangling: {str(entangling).lower()}\n",
        ("hypergraph", "--json"): json.dumps({**facts, "entangling": entangling}) + "\n",
    }
    # separable answers as it does on the truth table itself
    table = ["--format", "table-hex", boolfn.to_table_hex(f), "--n", str(n)]
    for flags in ((), ("--json",)):
        expected["separable", *flags] = run_text(capsys, ["separable", *table, *flags])

    def refuse(*args):
        raise AssertionError("a truth table was built")

    monkeypatch.setattr(boolfn, "_mobius", refuse)
    monkeypatch.setattr(boolfn, "compile", refuse)
    for (command, *flags), out in expected.items():
        assert run_text(capsys, [command, "--format", "anf", text, "--n", str(n), *flags]) == out


@pytest.mark.parametrize("n", [1, 5, 16, 20, 24])
def test_table_commands_on_anf_input_print_the_same_answers(n, capsys):
    for command in ("state", "separable", "sat"):
        code = cli.run([command, "--format", "anf", _sparse_anf(n), "--n", str(n)])
        out, err = capsys.readouterr()
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == SPARSE_ANF_ANSWERS[command, n]
