"""Spans around every public pilme function, from outside the package.

`Tracer.install` wraps each public function of the layer modules in
every pilme namespace that binds it, including names bound by
`from`-imports (`reductions.is_osm`, `quantum_sim.is_osm`,
`hypergraph.anf`), so calls between layers are seen as well as calls
from the benchmark.  The `cli` layer is one span, `cli.run`: its self
time is argument parsing, input reading and output rendering.

Spans are kept in memory in flat arrays (name, start, end, parent,
operation id) and written out once, after the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

from checks import CAP_MESSAGE

LAYERS = ("boolfn", "lme_state", "hypergraph", "reductions", "quantum_sim", "cli")
RENAMED = {"hypergraph.hypergraph_to_json": "hypergraph.to_json"}
PARSE_SPANS = frozenset({
    "boolfn.parse_formula", "boolfn.parse_dimacs_clauses", "boolfn.parse_dimacs",
    "boolfn.clauses_to_ast", "boolfn.from_table_hex",
})
STATE_RESULTS = frozenset({
    "quantum_sim.apply_uf", "quantum_sim.apply_hadamard",
    "quantum_sim.prepare_psi_f", "quantum_sim.basis_state",
})


def _arity(args: tuple) -> int:
    """Width of the table a call works on: an int arity argument (compile),
    or the arity of a function, state or hypergraph argument; -1 if none."""
    for arg in args[:2]:
        if type(arg) is int:
            return arg
        for attr in ("arity", "qubit_count", "vertex_count"):
            n = getattr(arg, attr, None)
            if n is not None:
                return n
    return -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.arity = array("i")
        self.op_id = -1
        self.errors: dict[int, str] = {}
        self.amplitude_bytes_peak = 0
        self.edges_out = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, starts, ends, parents, ops, arities, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.arity, self._stack)
        tracer = self
        watch_state = span in STATE_RESULTS
        watch_edges = span == "hypergraph.hypergraph_of"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            arities.append(_arity(args))
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = perf_counter()
                stack.pop()
                tracer.errors[idx] = str(exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if watch_state:
                tracer.amplitude_bytes_peak = max(tracer.amplitude_bytes_peak,
                                                  result.amplitudes.nbytes)
            elif watch_edges:
                tracer.edges_out += len(result.edges)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        modules = {layer: importlib.import_module(f"pilme.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                if layer == "cli" and attr != "run":
                    continue
                span = f"{layer}.{attr}"
                wrappers[id(value)] = self._wrap(RENAMED.get(span, span), value)
        decomposition = modules["lme_state"].FactorDecomposition
        wrappers[id(decomposition.to_state)] = self._wrap(
            "lme_state.to_state", decomposition.to_state)
        namespaces = [importlib.import_module("pilme"), *modules.values(), decomposition]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    # -----------------------------------------------------------------------
    # Analysis

    def self_times(self) -> array:
        """Span duration minus the time covered by its direct children."""
        child = array("d", bytes(8 * len(self.start)))
        out = array("d", bytes(8 * len(self.start)))
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start) - 1, -1, -1):
            duration = end[i] - start[i]
            out[i] = duration - child[i]
            if parent[i] >= 0:
                child[parent[i]] += duration
        return out

    def descendant_counts(self, ancestor: str, descendant: str) -> dict[int, int]:
        """For each `ancestor` span, how many `descendant` spans ran inside it."""
        if ancestor not in self._ids:
            return {}
        aid, did = self._ids[ancestor], self._ids.get(descendant)
        counts = {i: 0 for i, nid in enumerate(self.name) if nid == aid}
        for i, nid in enumerate(self.name):
            if nid != did:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            if p >= 0:
                counts[p] += 1
        return counts

    def summary(self, op_tags: list[dict], scale_rules: dict) -> dict:
        """Per-span totals and call counts, and the n / n-2 scaling ratios.

        `scale_rules` maps a metric name to (span, tag filter): the ratio
        is the median per-call self time at the largest n among matching
        operations over the median at n - 2.  Only calls on a table of the
        operation's own arity count (see `_arity`), not calls on the wider
        tables a reduction builds from it.
        """
        selfs = self.self_times()
        total_self: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        per_n: dict[tuple[str, int], list[float]] = defaultdict(list)
        rules_by_span = defaultdict(list)
        for metric, (span, tags) in scale_rules.items():
            rules_by_span[span].append((metric, tags))
        for i, nid in enumerate(self.name):
            span = self.names[nid]
            total_self[span] += selfs[i]
            total[span] += self.end[i] - self.start[i]
            calls[span] += 1
            for metric, tags in rules_by_span.get(span, ()):
                op = op_tags[self.op[i]]
                if (self.arity[i] in (-1, op["n"])
                        and all(op[key] in allowed for key, allowed in tags.items())):
                    per_n[(metric, op["n"])].append(selfs[i])
        scale = {}
        for metric in scale_rules:
            sizes = sorted(n for m, n in per_n if m == metric)
            if sizes and (metric, sizes[-1] - 2) in per_n:
                hi, lo = per_n[(metric, sizes[-1])], per_n[(metric, sizes[-1] - 2)]
                scale[metric] = {"n": sizes[-1], "ratio": statistics.median(hi) / statistics.median(lo),
                                 "samples": (len(hi), len(lo))}
        cap_failures = sum(
            1 for i, message in self.errors.items()
            if CAP_MESSAGE in message
            and self.names[self.name[i]] in ("reductions.turing_reduce_sat", "reductions.karp_reduce")
        )
        return {"self_s": dict(total_self), "total_s": dict(total), "calls": dict(calls),
                "scale": scale, "cap_failures": cap_failures}

    def write(self, path, op_tags: list[dict]) -> None:
        """All spans as gzip'd CSV: name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("# ops: " + ";".join(
                f"{i}:{t['cmd']}:{t['n']}:{t['family']}" for i, t in enumerate(op_tags)) + "\n")
            handle.write("name,start_s,end_s,parent,op\n")
            names = self.names
            handle.writelines(
                f"{names[nid]},{s:.9f},{e:.9f},{p},{o}\n"
                for nid, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
            )
