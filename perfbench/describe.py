"""Print the record of this benchmark as JSON: every metric with its unit,
direction, layer and workloads; every workload with its arity mix,
command mix and the reason it was chosen; the seed argument; and the
machine facts later changes cite (nproc, Python, numpy, src/ lines).

    python3 perfbench/describe.py > perfbench/MANIFEST.json
"""

from __future__ import annotations

import json
import sys

import run
import workloads

ALL = ["wide-sat", "hypergraph", "simulate", "small-sweep"]
CLI = ["wide-sat", "hypergraph", "simulate"]

# metric -> (layer, workloads it is reported for, what it should move)
LAYER_METRICS = {
    "boolfn.parse.self_ms": ("boolfn", CLI, "ops_per_s, op_p90_ms on wide-sat"),
    "boolfn.compile.calls": ("boolfn", ["wide-sat"], "ops_per_s, op_p90_ms on wide-sat; not simulate"),
    "boolfn.compile.self_ms": ("boolfn", ["wide-sat"], "ops_per_s, op_p90_ms on wide-sat; not simulate"),
    "boolfn.compile.scale_n2": ("boolfn", ["wide-sat"], "op_p90_ms on wide-sat"),
    "boolfn.anf.self_ms": ("boolfn", ["hypergraph", "small-sweep"],
                           "ops_per_s, op_p90_ms on hypergraph; ops_per_s on small-sweep; not wide-sat"),
    "boolfn.anf.scale_n2": ("boolfn", ["hypergraph", "small-sweep"], "op_p90_ms on hypergraph"),
    "boolfn.from_anf.self_ms": ("boolfn", ["hypergraph", "small-sweep"],
                                "ops_per_s on hypergraph and small-sweep; not wide-sat"),
    "lme_state.is_osm.calls": ("lme_state", ALL, "ops_per_s on small-sweep, op_p50_ms on wide-sat"),
    "lme_state.is_osm.self_ms": ("lme_state", ALL, "ops_per_s on small-sweep, op_p50_ms on wide-sat"),
    "lme_state.is_osm.scale_n2": ("lme_state", ["wide-sat", "small-sweep"], "op_p50_ms on wide-sat"),
    "lme_state.find_certificate.self_ms": ("lme_state", ["wide-sat", "hypergraph", "small-sweep"],
                                           "ops_per_s on small-sweep"),
    "lme_state.factorize.self_ms": ("lme_state", ["wide-sat", "small-sweep"], "ops_per_s on small-sweep"),
    "lme_state.to_state.self_ms": ("lme_state", ["small-sweep"], "ops_per_s on small-sweep"),
    "lme_state.to_state.scale_n2": ("lme_state", ["small-sweep"], "ops_per_s on small-sweep"),
    "lme_state.verify_certificate.evaluations_per_call": ("lme_state", ["small-sweep"],
                                                          "exact count, the paper's 4"),
    "hypergraph.hypergraph_of.ms": ("hypergraph", ["hypergraph", "small-sweep"],
                                    "op_p50_ms, op_p90_ms on hypergraph"),
    "hypergraph.render_anf_text.self_ms": ("hypergraph", ["hypergraph"], "op_p50_ms, op_p90_ms on hypergraph"),
    "hypergraph.to_json.self_ms": ("hypergraph", ["hypergraph"], "op_p50_ms, op_p90_ms on hypergraph"),
    "hypergraph.parse_anf_text.self_ms": ("hypergraph", ["hypergraph"], "op_p50_ms, op_p90_ms on hypergraph"),
    "hypergraph.edges_out": ("hypergraph", ["hypergraph", "small-sweep"], "op_p90_ms on hypergraph"),
    "reductions.turing_reduce_sat.self_ms": ("reductions", ["wide-sat", "small-sweep"],
                                             "ops_per_s on small-sweep"),
    "reductions.karp_reduce.self_ms": ("reductions", ["wide-sat", "small-sweep"], "ops_per_s on small-sweep"),
    "reductions.oracle_calls_per_sat": ("reductions", ["wide-sat", "small-sweep"],
                                        "exact count, at most the paper's 2"),
    "reductions.cap_failures": ("reductions", ["wide-sat"], "success_ratio on wide-sat"),
    "quantum_sim.prepare_psi_f.self_ms": ("quantum_sim", ["simulate"], "ops_per_s, op_p50_ms on simulate"),
    "quantum_sim.apply_hadamard.calls": ("quantum_sim", ["simulate"], "ops_per_s, op_p50_ms on simulate"),
    "quantum_sim.apply_hadamard.self_ms": ("quantum_sim", ["simulate"], "ops_per_s, op_p50_ms on simulate"),
    "quantum_sim.apply_hadamard.scale_n2": ("quantum_sim", ["simulate"], "op_p90_ms on simulate"),
    "quantum_sim.apply_uf.calls": ("quantum_sim", ["simulate"], "ops_per_s, op_p50_ms on simulate"),
    "quantum_sim.apply_uf.self_ms": ("quantum_sim", ["simulate"], "ops_per_s, op_p50_ms on simulate"),
    "quantum_sim.signs_from_state.self_ms": ("quantum_sim", ["simulate"], "ops_per_s, op_p50_ms on simulate"),
    "quantum_sim.oracle_uses_per_dj": ("quantum_sim", ["simulate"], "exact count, the paper's 1"),
    "quantum_sim.amplitude_bytes_peak": ("quantum_sim", ["simulate"], "peak_rss_mb on simulate"),
    "cli.run.self_ms": ("cli", CLI, "op_p50_ms on hypergraph (state); not simulate"),
    "cli.run.self.scale_n2": ("cli", ["hypergraph"], "op_p50_ms on hypergraph (state)"),
    "cli.output_bytes": ("cli", CLI, "op_p50_ms on hypergraph"),
    "import.numpy_ms": ("import", ALL, "setup_s on every workload"),
    "import.pilme_ms": ("import", ALL, "setup_s on every workload"),
    "trace_overhead_ratio": ("benchmark", ALL, "none: traced over untraced ops_per_s"),
}
SCALE_NOTES = {
    "boolfn.compile.scale_n2": "O(size * 2**n) wide-int compile, n=24 vs 22 CNF",
    "boolfn.anf.scale_n2": "O(n * 2**n) butterfly; dense hypergraph n=16 vs 14",
    "lme_state.is_osm.scale_n2": "2**n - 1 sign comparisons, so about 4",
    "lme_state.to_state.scale_n2": "O(n * 2**n) expansion, n=8 vs 6",
    "quantum_sim.apply_hadamard.scale_n2": "one O(2**n) gate, so about 4",
    "cli.run.self.scale_n2": "sign-string rendering of `state`, n=16 vs 14",
}
END_TO_END_MEANING = {
    "ops_per_s": "operations per second of busy time, at the workload's round mix",
    "op_p50_ms": "median latency of one operation",
    "op_p90_ms": "90th-percentile latency of one operation (at least 100 ops per run)",
    "success_ratio": "operations answered correctly over attempted; 1 - failed_ratio",
    "peak_rss_mb": "peak resident memory of the worker process (getrusage)",
    "setup_s": "fresh interpreter: import pilme and finish the first operation (median of cold starts)",
}


def main() -> int:
    better = {"ops_per_s": "higher", "success_ratio": "higher"}
    metrics = [
        {"name": name, "unit": unit, "better": better.get(name, "lower"), "layer": "end_to_end",
         "workloads": ALL, "meaning": END_TO_END_MEANING[name]}
        for name, unit in run.END_TO_END
    ]
    for name, unit in run.PER_LAYER:
        layer, where, moves = LAYER_METRICS[name]
        entry = {"name": name, "unit": unit,
                 "better": "higher" if name == "trace_overhead_ratio" else "lower",
                 "layer": layer, "workloads": where, "moves": moves}
        if name in SCALE_NOTES:
            entry["budget"] = f"<= {run.SCALE_BUDGET}: {SCALE_NOTES[name]}"
        if name in run.PAPER_COUNTS:
            relation, value = run.PAPER_COUNTS[name]
            entry["paper"] = f"{relation} {value}"
        metrics.append(entry)
    record = {
        "command": "python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1",
        "seed_argument": "--seed: every input and expected answer is derived from it",
        "environment": run.environment(),
        "workloads": workloads.describe(),
        "metrics": metrics,
    }
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
