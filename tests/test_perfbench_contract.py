"""The library surface the benchmark harness in `perfbench/` relies on.

The harness reaches pilme through module attributes and wraps every
public function in spans, so renaming or deleting a function it calls
would otherwise first show up as a failed benchmark run.  These tests
import its operation, tracing, input and checking modules from the
checkout, unchanged, and run them on narrow inputs.
"""

import importlib
import random
from pathlib import Path

import numpy as np
import pytest

import pilme
import pilme.cli
from pilme import schemas
from pilme.boolfn import BooleanFunction, classify, sat_brute, to_table_hex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The harness's `ops` and `tracing` modules, imported as it imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("ops"), importlib.import_module("tracing")


def _tables(max_n):
    for n in range(1, max_n + 1):
        for table in range(1 << (1 << n)):
            yield BooleanFunction(n, table)


def test_the_library_sweep_runs_every_layer_on_every_narrow_function(perfbench):
    ops, _ = perfbench
    for f in _tables(3):
        out = ops.run_sweep(pilme, {"n": f.arity, "table": f.table, "family": "all"})
        assert out["verdict"].satisfiable == (sat_brute(f) is not None)
        assert out["from_anf"] == f


def test_traced_cli_runs_keep_the_paper_s_oracle_counts(perfbench):
    ops, tracing = perfbench
    slots = []
    for f in _tables(3):
        slot = {"text": to_table_hex(f), "fmt": "table-hex", "n": f.arity, "json": f.table % 2 == 0}
        commands = ["sat", "sat-quantum"]
        if classify(f).kind != "neither":
            commands.append("dj")
        slots += [dict(slot, cmd=cmd) for cmd in commands]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for slot in slots:
            rc, out, err = ops.run_cli(pilme.cli, ops.cli_argv(slot))
            assert rc == 0, (slot, err)
    finally:
        tracer.uninstall()
    dj = tracer.descendant_counts("quantum_sim.deutsch_jozsa", "quantum_sim.apply_uf")
    sat = tracer.descendant_counts("reductions.turing_reduce_sat", "reductions.cosm_star")
    assert dj and set(dj.values()) == {1}
    assert sat and max(sat.values()) <= 2


def test_traced_simulator_peaks_at_the_int8_oracle_output(perfbench):
    # dj and sat-quantum prepare psi_f once on an int8 oracle register and
    # read its int8 half, and sat-quantum's readout runs on its support, so
    # the largest state either returns is the oracle output, 2 bytes a sign.
    ops, tracing = perfbench
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for f in _tables(3):
            commands = ["sat-quantum"] + (["dj"] if classify(f).kind != "neither" else [])
            for cmd in commands:
                slot = {"text": to_table_hex(f), "fmt": "table-hex", "n": f.arity, "json": True, "cmd": cmd}
                rc, out, err = ops.run_cli(pilme.cli, ops.cli_argv(slot))
                assert rc == 0, (slot, err)
    finally:
        tracer.uninstall()
    assert set(tracer.descendant_counts("quantum_sim.deutsch_jozsa", "quantum_sim.apply_uf").values()) == {1}
    assert tracer.amplitude_bytes_peak == 2 << 3


def test_the_checker_passes_hypergraph_outputs_at_narrow_arities(perfbench):
    # The harness's own inputs, expected answers and output checker, on
    # every command and output form of the hypergraph workload, on dense
    # and sparse hypergraphs, so both ways of listing edges run, and on
    # dense and sparse ones as wide as the round's.
    ops, _ = perfbench
    workloads, checks = importlib.import_module("workloads"), importlib.import_module("checks")
    checker = checks.CliChecker(schemas.SCHEMAS)
    rng = random.Random(18)
    slot_id = 0
    for n in (4, 8, 10, 12):
        for family in ("dense-anf", "dense-hex", "sparse"):
            # The facts drawn for `state` hold the truth table as well, so
            # they answer every command.
            item = workloads._hypergraph_input(rng, n, family, "state")
            for cmd in ("anf", "hypergraph", "state", "separable"):
                for as_json in (False, True):
                    if as_json and (n, family) == (12, "dense-hex") and cmd in ("anf", "hypergraph"):
                        # As in the workload's round, these are read as text:
                        # schema-checking a 2,000-edge document takes ~0.15 s,
                        # and the dense-anf documents at n = 12 cover the form.
                        continue
                    slot = {"n": n, "family": family, "cmd": cmd, "json": as_json, **item}
                    rc, out, err = ops.run_cli(pilme.cli, ops.cli_argv(slot))
                    verdict = checker.check(slot_id, slot, rc, out, err)
                    assert verdict == ("ok", ""), (n, family, cmd, as_json)
                    slot_id += 1
    # The round's sparse hypergraphs at the widths it runs them, where
    # separable reads its answer off the coefficients.  No table is drawn,
    # so `state` is left out.
    for n in (20, 24):
        item = workloads._hypergraph_input(rng, n, "sparse", "separable")
        for cmd in ("anf", "hypergraph", "separable"):
            for as_json in (False, True):
                slot = {"n": n, "family": "sparse", "cmd": cmd, "json": as_json, **item}
                rc, out, err = ops.run_cli(pilme.cli, ops.cli_argv(slot))
                verdict = checker.check(slot_id, slot, rc, out, err)
                assert verdict == ("ok", ""), (n, "sparse", cmd, as_json)
                slot_id += 1
    # The round's widest dense slots: a table at n = 16, its edges listed in
    # runs and read back as text.
    item = workloads._hypergraph_input(rng, 16, "dense-hex", "anf")
    for cmd in ("anf", "hypergraph"):
        slot = {"n": 16, "family": "dense-hex", "cmd": cmd, "json": False, **item}
        rc, out, err = ops.run_cli(pilme.cli, ops.cli_argv(slot))
        assert checker.check(slot_id, slot, rc, out, err) == ("ok", ""), (16, "dense-hex", cmd)
        slot_id += 1


def test_the_checker_passes_every_json_output_of_the_other_rounds(perfbench):
    # The wide-sat and simulate rounds run every command with --json, the
    # only form the checker reads for them; run each command and family of
    # those rounds at narrow arities, from the harness's own generators.
    ops, _ = perfbench
    workloads, checks = importlib.import_module("workloads"), importlib.import_module("checks")
    checker = checks.CliChecker(schemas.SCHEMAS)
    rng, builders = random.Random(20), {}
    nrng = np.random.default_rng(20)
    slots = []
    for n in (4, 6, 8):
        for family in ("planted", "unit", "random", "flip", "parity", "product"):
            for cmd in ("sat", "separable", "reduce-karp", "classify"):
                item = workloads._wide_sat_input(rng, n, family, cmd, builders)
                slots.append({"n": n, "family": family, "cmd": cmd, "json": True, **item})
        simulated = [(fam, cmd) for fam in ("const0", "const1", "parity", "balanced")
                     for cmd in ("dj", "sat-quantum")] + [("random", "sat-quantum")]
        for family, cmd in simulated:
            item = workloads._simulate_input(rng, nrng, n, family)
            slots.append({"n": n, "family": family, "cmd": cmd, "json": True, **item})
    for n in (2, 10):
        slots.append({"n": n, "family": "pair", "cmd": "helstrom", "json": True,
                      **workloads._helstrom_input(n)})
    # A product at the cap: the second oracle call asks about the 25-ary
    # f AND y, which the arity cap does not refuse, so this slot answers.
    item = workloads._wide_sat_input(rng, 24, "product", "sat", builders)
    slots.append({"n": 24, "family": "product", "cmd": "sat", "json": True, **item})
    assert len(slots) == 102
    for slot_id, slot in enumerate(slots):
        rc, out, err = ops.run_cli(pilme.cli, ops.cli_argv(slot))
        verdict = checker.check(slot_id, slot, rc, out, err)
        assert verdict == ("ok", ""), (slot["n"], slot["family"], slot["cmd"])
