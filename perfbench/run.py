"""pilme benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: wide-sat, hypergraph, simulate, small-sweep (see workloads.py).
Inputs and expected answers are generated from the seed before timing
starts.  A fresh worker interpreter then runs whole rounds of operations,
closed loop with one client, for about S seconds and checks every output
outside the timed region.

--trace 0 reports the end-to-end metrics: throughput and latency of the
operations, the share answered correctly, the worker's peak memory, and
the cold set-up time (median over fresh interpreters that import pilme
and run the workload's first operation).  --trace 1 runs the same rounds
untraced and then traced, and reports per-layer metrics from spans
around every public pilme function; the spans are written to
.perfbench/trace-<workload>-seed<seed>.csv.gz.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are the same numbers for people.

Run from the root of a checkout; pilme is imported from its src/.
"""

from __future__ import annotations

import os

# One client and no threads: keep numpy's BLAS single-threaded in every
# process this benchmark starts (set before numpy is imported).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 150
COLD_STARTS = 8  # half before the measured run, half after it
IMPORT_PROBES = 3
SCALE_BUDGET = 4.5  # n -> n + 2 multiplies 2**n work by 4; O(n * 2**n) by about 4.4
WORKLOADS = ("wide-sat", "hypergraph", "simulate", "small-sweep")  # as in workloads.WHY

# (name, unit): printed in this order
END_TO_END = [
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("success_ratio", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
]
PER_LAYER = [
    ("boolfn.parse.self_ms", "ms/op"), ("boolfn.compile.calls", "calls/op"),
    ("boolfn.compile.self_ms", "ms/op"), ("boolfn.compile.scale_n2", "ratio"),
    ("boolfn.anf.self_ms", "ms/op"), ("boolfn.anf.scale_n2", "ratio"),
    ("boolfn.from_anf.self_ms", "ms/op"),
    ("lme_state.is_osm.calls", "calls/op"), ("lme_state.is_osm.self_ms", "ms/op"),
    ("lme_state.is_osm.scale_n2", "ratio"), ("lme_state.find_certificate.self_ms", "ms/op"),
    ("lme_state.factorize.self_ms", "ms/op"), ("lme_state.to_state.self_ms", "ms/op"),
    ("lme_state.to_state.scale_n2", "ratio"),
    ("lme_state.verify_certificate.evaluations_per_call", "count"),
    ("hypergraph.hypergraph_of.ms", "ms/op"), ("hypergraph.render_anf_text.self_ms", "ms/op"),
    ("hypergraph.to_json.self_ms", "ms/op"), ("hypergraph.parse_anf_text.self_ms", "ms/op"),
    ("hypergraph.edges_out", "edges/op"),
    ("reductions.turing_reduce_sat.self_ms", "ms/op"), ("reductions.karp_reduce.self_ms", "ms/op"),
    ("reductions.oracle_calls_per_sat", "count"), ("reductions.cap_failures", "1/op"),
    ("quantum_sim.prepare_psi_f.self_ms", "ms/op"), ("quantum_sim.apply_hadamard.calls", "calls/op"),
    ("quantum_sim.apply_hadamard.self_ms", "ms/op"), ("quantum_sim.apply_hadamard.scale_n2", "ratio"),
    ("quantum_sim.apply_uf.calls", "calls/op"), ("quantum_sim.apply_uf.self_ms", "ms/op"),
    ("quantum_sim.signs_from_state.self_ms", "ms/op"), ("quantum_sim.oracle_uses_per_dj", "count"),
    ("quantum_sim.amplitude_bytes_peak", "bytes"),
    ("cli.run.self_ms", "ms/op"), ("cli.run.self.scale_n2", "ratio"), ("cli.output_bytes", "bytes/op"),
    ("import.numpy_ms", "ms"), ("import.pilme_ms", "ms"), ("trace_overhead_ratio", "ratio"),
]
# The paper's exact counts: metric -> (relation, value)
PAPER_COUNTS = {
    "lme_state.verify_certificate.evaluations_per_call": ("==", 4),
    "reductions.oracle_calls_per_sat": ("<=", 2),
    "quantum_sim.oracle_uses_per_dj": ("==", 1),
}


def environment() -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


def start_worker(args, trace_path: Path | None) -> subprocess.Popen:
    """Start the measured process while this one is still small.

    Linux carries a process's pre-exec resident high-water mark into
    getrusage's ru_maxrss, and a spawned child starts as a copy of its
    parent; spawning before numpy and the generated inputs are loaded
    keeps the worker's peak_rss_mb its own.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--seconds", str(args.seconds), "--seed", str(args.seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_worker(proc: subprocess.Popen, payload: dict) -> dict:
    out, err = proc.communicate(json.dumps(payload), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err}")
    return json.loads(out)


def cold_start(request: str) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter to its first answer."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "cold.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(request)
        proc.stdin.close()
        first = proc.stdout.readline()
        elapsed = perf_counter() - start
        verdict = proc.stdout.read().strip()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "done" or proc.returncode != 0:
        raise RuntimeError(f"cold start failed ({proc.returncode}): {err.strip()}")
    return elapsed, verdict


def cold_request(payload: dict) -> str:
    if payload["mode"] == "library":
        item = payload["functions"][0]
    else:
        item = payload["slots"][0]
    return json.dumps({"src": str(SRC), "mode": payload["mode"], "item": item})


def import_times() -> tuple[float, float]:
    """Median cumulative import time of numpy and of pilme, from -X importtime."""
    numpy_us, pilme_us = [], []
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pilme.cli"
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            module = fields[2].strip()
            if module == "numpy":
                numpy_us.append(int(fields[1]))
            elif module == "pilme":
                pilme_us.append(int(fields[1]))
    return statistics.median(numpy_us) / 1000, statistics.median(pilme_us) / 1000


def end_to_end(result: dict, setup: list[float]) -> dict:
    plain = result["plain"]
    lat = plain["latency_s"]
    attempted = len(lat)
    return {
        "ops_per_s": attempted / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
        "success_ratio": plain["status"]["ok"] / attempted,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(result: dict, import_ms: tuple[float, float]) -> dict:
    traced, layers = result["traced"], result["layers"]
    ops = len(traced["latency_s"])
    self_s, total_s, calls = layers["self_s"], layers["total_s"], layers["calls"]

    def self_ms(span: str) -> float:
        return self_s.get(span, 0.0) * 1000 / ops

    def scale(metric: str) -> float:
        return layers["scale"].get(metric, {}).get("ratio", 0.0)

    out = {
        "boolfn.parse.self_ms": layers["parse_self_s"] * 1000 / ops,
        "hypergraph.hypergraph_of.ms": total_s.get("hypergraph.hypergraph_of", 0.0) * 1000 / ops,
        "hypergraph.edges_out": layers["edges_out"] / ops,
        "lme_state.verify_certificate.evaluations_per_call":
            traced["evaluations"] / traced["verify_calls"] if traced["verify_calls"] else 0,
        "reductions.oracle_calls_per_sat": layers["oracle_calls_per_sat"],
        "reductions.cap_failures": layers["cap_failures"] / ops,
        "quantum_sim.oracle_uses_per_dj": layers["oracle_uses_per_dj"],
        "quantum_sim.amplitude_bytes_peak": layers["amplitude_bytes_peak"],
        "cli.output_bytes": traced["output_bytes"] / ops,
        "import.numpy_ms": import_ms[0],
        "import.pilme_ms": import_ms[1],
        "trace_overhead_ratio": (ops / sum(traced["latency_s"]))
        / (len(result["plain"]["latency_s"]) / sum(result["plain"]["latency_s"])),
    }
    for name, _ in PER_LAYER:
        if name in out:
            continue
        if name.endswith("scale_n2"):
            out[name] = scale(name)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0) / ops
        elif name.endswith(".self_ms"):
            out[name] = self_ms(name[: -len(".self_ms")])
    return {name: out[name] for name, _ in PER_LAYER}


def paper_count_violations(metrics: dict) -> list[str]:
    bad = []
    for name, (relation, value) in PAPER_COUNTS.items():
        measured = metrics[name]
        if measured == 0:  # layer not called on this workload
            continue
        if (measured != value) if relation == "==" else (measured > value):
            bad.append(f"{name} = {measured}, the paper says {relation} {value}")
    return bad


def report(args, env: dict, metrics: dict, units: dict, extra: list[str]) -> None:
    print(f"pilme benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in extra:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pilme" / "__init__.py").is_file():
        print(f"error: no pilme package under {SRC}; run from a pilme checkout", file=sys.stderr)
        return 2

    trace_path = None
    if args.trace:
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    worker = start_worker(args, trace_path)
    extra: list[str] = []
    cold_ok = True
    try:
        import workloads

        env = environment()
        payload = workloads.generate(args.workload, args.seed)
        if not args.trace:
            # Cold starts on both sides of the measured run, so that a burst
            # of load on the shared host does not shift all of them.
            request = cold_request(payload)
            cold_start(request)  # bytecode caches are written once, not on every launch
            cold = [cold_start(request) for _ in range(COLD_STARTS // 2)]
        result = finish_worker(worker, payload)
        if args.trace:
            metrics = per_layer(result, import_times())
            units = dict(PER_LAYER)
            run = result["traced"]
            extra += paper_count_violations(metrics)
            extra.append(f"traced ops={len(run['latency_s'])} rounds={run['rounds']} "
                         f"spans={result['layers']['spans']} written to {trace_path.relative_to(ROOT)}")
            for metric, info in sorted(result["layers"]["scale"].items()):
                flag = "OVER BUDGET" if info["ratio"] > SCALE_BUDGET else "within budget"
                extra.append(f"scale {metric}: n={info['n']} vs n={info['n'] - 2} "
                             f"ratio {info['ratio']:.2f} (samples {info['samples'][0]}/"
                             f"{info['samples'][1]}), budget <= {SCALE_BUDGET}: {flag}")
        else:
            cold += [cold_start(request) for _ in range(COLD_STARTS - COLD_STARTS // 2)]
            setup, verdicts = [s for s, _ in cold], sorted({v for _, v in cold})
            metrics = end_to_end(result, setup)
            units = dict(END_TO_END)
            run = result["plain"]
            extra.append(f"ops={len(run['latency_s'])} rounds={run['rounds']} "
                         f"wall={run['wall_s']:.2f}s cold starts={len(setup)} "
                         f"first-op check: {', '.join(verdicts)}")
            cold_ok = verdicts == ["ok"]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.communicate()

    attempted = len(run["latency_s"])
    failed = run["status"]["cap"] + run["status"]["wrong"]
    extra.append(f"failed_ratio {failed / attempted:.6g} ({run['status']['cap']} known "
                 f"arity-cap failures, {run['status']['wrong']} wrong of {attempted})")
    extra += [f"failure x{count}: {reason}" for reason, count in sorted(run["reasons"].items())]
    correct = cold_ok and run["status"]["wrong"] == 0 and not (
        args.trace and paper_count_violations(metrics))
    report(args, env, metrics, units, extra)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
