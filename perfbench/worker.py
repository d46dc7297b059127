"""The measured process: one client, closed loop, no threads.

Reads the generated workload (JSON on stdin), imports pilme from the
checkout, runs whole rounds of operations until the time is up, checks
every output outside the timed region, and prints one JSON document of
raw measurements.  With tracing on, the same rounds run again with spans
around every layer, and the per-layer numbers come from that pass.

    python3 perfbench/worker.py --src SRC --seconds S --seed N [--trace OUT] < workload.json
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter

import checks
import ops

MIN_OPS = 100  # op_p90_ms needs ten samples beyond it
UNTRACED_SHARE = 0.35  # of a traced run's time, spent on the untraced baseline


class Workload:
    """The generated operations of one workload, ready to run and check."""

    def __init__(self, payload: dict, pilme):
        self.pilme = pilme
        self.name = payload["workload"]
        if payload["mode"] == "library":
            self.items = payload["functions"]
            self.tags = [{"cmd": "sweep", "n": f["n"], "family": f["family"]} for f in self.items]
        else:
            self.items = payload["slots"]
            for slot in self.items:
                slot["argv"] = ops.cli_argv(slot)
            self.tags = [{"cmd": s["cmd"], "n": s["n"], "family": s["family"]} for s in self.items]
            from pilme import schemas

            self.checker = checks.CliChecker(schemas.SCHEMAS)
        self.library = payload["mode"] == "library"

    def run(self, index: int) -> tuple[float, str, str, dict]:
        """Run one operation; returns (seconds, status, reason, extras)."""
        item = self.items[index]
        if self.library:
            start = perf_counter()
            result = ops.run_sweep(self.pilme, item)
            elapsed = perf_counter() - start
            status, reason = checks.check_sweep(item, result)
            meter = result.get("meter")
            return elapsed, status, reason, {"evaluations": meter.count if meter else None}
        start = perf_counter()
        rc, out, err = ops.run_cli(self.pilme.cli, item["argv"])
        elapsed = perf_counter() - start
        status, reason = self.checker.check(index, item, rc, out, err)
        return elapsed, status, reason, {"output_bytes": len(out)}


class Recorder:
    """Latencies and outcomes of one pass over some rounds."""

    def __init__(self):
        # flat arrays: a list of floats would make peak RSS grow with the
        # number of operations, that is, with the machine's speed
        self.latency = array("d")
        self.slot = array("i")
        self.status: dict[str, int] = {"ok": 0, "cap": 0, "wrong": 0}
        self.reasons: dict[str, int] = {}
        self.output_bytes = 0
        self.evaluations = 0
        self.verify_calls = 0
        self.rounds = 0
        self.wall = 0.0

    def add(self, index: int, elapsed: float, status: str, reason: str, extras: dict) -> None:
        self.latency.append(elapsed)
        self.slot.append(index)
        self.status[status] += 1
        if reason:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.output_bytes += extras.get("output_bytes", 0)
        if extras.get("evaluations") is not None:
            self.evaluations += extras["evaluations"]
            self.verify_calls += 1

    def mark_wrong(self, positions: set[int], reason: str) -> None:
        """Turn already-recorded operations into failures (counts off the paper)."""
        if positions:
            self.reasons[reason] = self.reasons.get(reason, 0) + len(positions)
        self.status["wrong"] += len(positions)
        self.status["ok"] -= len(positions)

    def as_json(self) -> dict:
        return {
            "latency_s": self.latency.tolist(), "status": self.status, "reasons": self.reasons,
            "output_bytes": self.output_bytes, "evaluations": self.evaluations,
            "verify_calls": self.verify_calls, "rounds": self.rounds, "wall_s": self.wall,
        }


def run_rounds(workload: Workload, order: list[list[int]], seconds: float,
               recorder: Recorder, tracer=None, max_rounds: int | None = None) -> None:
    """Whole rounds, closed loop, until `seconds` would be overrun."""
    start = perf_counter()
    while True:
        if max_rounds is not None and recorder.rounds >= max_rounds:
            break
        elapsed = perf_counter() - start
        if max_rounds is None and recorder.rounds and len(recorder.latency) >= MIN_OPS:
            per_round = elapsed / recorder.rounds
            if elapsed + per_round > seconds:
                break
        for index in order[recorder.rounds % len(order)]:
            if tracer is not None:
                tracer.op_id = len(recorder.latency)
            recorder.add(index, *workload.run(index))
        recorder.rounds += 1
    recorder.wall = perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=Path, default=None,
                        help="write spans here and report per-layer numbers")
    args = parser.parse_args()
    pilme = ops.import_pilme(args.src)
    payload = json.load(sys.stdin)
    workload = Workload(payload, pilme)

    rng = random.Random(f"order:{args.seed}")
    order = []
    for _ in range(8):
        indices = list(range(len(workload.items)))
        rng.shuffle(indices)
        order.append(indices)

    # Warm-up: one op of each (command, family) at its smallest arity.
    seen: dict[tuple, int] = {}
    for index, tag in enumerate(workload.tags):
        key = (tag["cmd"], tag["family"])
        if key not in seen or tag["n"] < workload.tags[seen[key]]["n"]:
            seen[key] = index
    for index in seen.values():
        workload.run(index)

    result: dict = {"workload": workload.name}
    if args.trace is None:
        plain = Recorder()
        run_rounds(workload, order, args.seconds, plain)
        result["plain"] = plain.as_json()
    else:
        import tracing

        plain = Recorder()
        run_rounds(workload, order, args.seconds * UNTRACED_SHARE, plain)
        tracer = tracing.Tracer()
        traced = Recorder()
        tracer.install()
        try:
            run_rounds(workload, order, 0, traced, tracer, max_rounds=plain.rounds)
        finally:
            tracer.uninstall()
        op_tags = [workload.tags[i] for i in traced.slot]
        dj = tracer.descendant_counts("quantum_sim.deutsch_jozsa", "quantum_sim.apply_uf")
        sat = tracer.descendant_counts("reductions.turing_reduce_sat", "reductions.cosm_star")
        traced.mark_wrong({tracer.op[i] for i, c in dj.items() if c != 1},
                          "deutsch_jozsa used the oracle other than once")
        traced.mark_wrong({tracer.op[i] for i, c in sat.items() if c > 2},
                          "turing_reduce_sat made more than two oracle calls")
        summary = tracer.summary(op_tags, payload["scale"])
        summary.update({
            "oracle_uses_per_dj": max(dj.values(), default=0),
            "oracle_calls_per_sat": max(sat.values(), default=0),
            "amplitude_bytes_peak": tracer.amplitude_bytes_peak,
            "edges_out": tracer.edges_out,
            "parse_self_s": sum(v for k, v in summary["self_s"].items() if k in tracing.PARSE_SPANS),
            "spans": len(tracer.start),
        })
        tracer.write(args.trace, op_tags)
        result.update(plain=plain.as_json(), traced=traced.as_json(), layers=summary)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
