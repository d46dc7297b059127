"""One operation of each kind, as the timed loop and the cold start run it.

Layers are always reached through module attributes (`lme_state.is_osm`,
not a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path


def import_pilme(src: Path):
    """pilme from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(src))
    import pilme
    import pilme.cli

    if Path(pilme.__file__).resolve().parent != (src / "pilme").resolve():
        raise ImportError(f"pilme was imported from {pilme.__file__}, not from {src}")
    return pilme


def cli_argv(slot: dict) -> list[str]:
    if slot["cmd"] == "helstrom":
        argv = ["helstrom", "--unique-sat-pair", "--n", str(slot["n"])]
    else:
        argv = [slot["cmd"], slot["text"], "--format", slot["fmt"], "--n", str(slot["n"])]
    return argv + ["--json"] if slot["json"] else argv


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """In-process `pilme` invocation: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


class EvaluationMeter:
    """`evaluate_fn` for verify_certificate that counts point evaluations."""

    def __init__(self, evaluate):
        self._evaluate = evaluate
        self.count = 0

    def __call__(self, f, index: int) -> int:
        self.count += 1
        return self._evaluate(f, index)


def run_sweep(pilme, item: dict) -> dict:
    """One narrow function through every library layer; the results are
    returned unexamined so that checking stays outside the timed region."""
    boolfn, lme_state = pilme.boolfn, pilme.lme_state
    hypergraph, reductions = pilme.hypergraph, pilme.reductions
    f = boolfn.BooleanFunction(item["n"], item["table"])
    out: dict = {"f": f}
    out["state"] = state = lme_state.state_from_function(f)
    out["osm"] = lme_state.is_osm(state)
    if out["osm"]:
        out["rebuilt"] = lme_state.factorize(state).to_state()
    else:
        out["certificate"] = cert = lme_state.find_certificate(state)
        out["meter"] = meter = EvaluationMeter(boolfn.evaluate)
        out["verified"] = lme_state.verify_certificate(f, cert, evaluate_fn=meter)
    out["verdict"] = reductions.turing_reduce_sat(f)
    out["karp_product"] = reductions.cosm_star(reductions.karp_reduce(f))
    out["graph"] = graph = hypergraph.hypergraph_of(f)
    out["entangling"] = hypergraph.entangling_edge_exists(graph)
    out["from_anf"] = boolfn.from_anf(graph)
    out["classified"] = boolfn.classify(f)
    return out
