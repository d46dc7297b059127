"""The library surface the benchmark harness in `perfbench/` relies on.

The harness reaches pilme through module attributes and wraps every
public function in spans, so renaming or deleting a function it calls
would otherwise first show up as a failed benchmark run.  These tests
import its operation and tracing modules from the checkout, unchanged,
and run them on narrow inputs.
"""

import importlib
from pathlib import Path

import pytest

import pilme
import pilme.cli
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
