"""The four workloads: their operation mix, seeded inputs and expected answers.

A workload is a *round*: a fixed list of slots (arity, input family,
command, output mode).  Each slot gets its own input, drawn from the
seed, and the answer the generator built into it.  The worker runs whole
rounds, so every run has the same operation mix and the same share of
known failures, whatever the machine's speed.

Nothing here imports pilme; expected answers come from `reference`.
"""

from __future__ import annotations

import math
import random

import numpy as np

import reference as ref

CAP = 24  # pilme's hard arity cap; an op that must build a wider table hits it
CLAUSE_RATIO = 4.26

WHY = {
    "wide-sat": "DIMACS 3-CNF and formulas at n=16..24: time goes to boolfn.compile and the wide-int block tests; no ANF, no simulator",
    "hypergraph": "random hypergraphs, dense n=10..16 and sparse n=16..24: time goes to ANF edge extraction and edge/sign-string rendering",
    "simulate": "dj and sat-quantum on truth tables at n=12..20: time goes to the statevector gates, oracle and sign read-back",
    "small-sweep": "thousands of n=2..8 functions through every library layer: per-call fixed cost dominates, not table width",
}


# ---------------------------------------------------------------------------
# Round definitions: (n, family, command, json output)

_WS_SMALL = [
    ("planted", "sat"), ("unit", "sat"), ("random", "sat"), ("flip", "sat"),
    ("random", "separable"), ("parity", "separable"), ("product", "separable"),
    ("planted", "reduce-karp"), ("flip", "reduce-karp"),
    ("random", "classify"), ("unit", "classify"), ("product", "classify"),
]
_WS_CNF = [(fam, cmd) for fam in ("planted", "unit", "random")
           for cmd in ("sat", "separable", "reduce-karp", "classify")]
# The n = 18 CNF operations (10-17 ms) are a third of the round, so the
# median lies deep inside their cluster and not on its edge, where a few
# cheaper or dearer inputs of the seed would move it from one size to the
# next.  Eight n = 22 CNF compiles and one n = 24 one are the slowest
# seventh, so the 90th percentile lies inside the n = 22 cluster.
_WIDE_SAT = (
    [(16, fam, cmd, True) for fam, cmd in _WS_SMALL]
    + [(18, fam, cmd, True) for fam, cmd in _WS_SMALL + _WS_CNF]
    + [(20, fam, cmd, True) for fam, cmd in [
        ("planted", "sat"), ("random", "sat"), ("product", "sat"),
        ("planted", "separable"), ("unit", "separable"), ("flip", "separable"),
        ("random", "reduce-karp"), ("product", "reduce-karp"),
        ("random", "classify"), ("parity", "classify"),
    ]]
    + [(22, fam, cmd, True) for fam, cmd in [
        ("random", "sat"), ("unit", "sat"), ("planted", "separable"), ("unit", "reduce-karp"),
        ("planted", "classify"), ("random", "classify"), ("random", "separable"),
        ("planted", "reduce-karp"), ("flip", "sat"), ("parity", "sat"),
    ]]
    + [(24, fam, cmd, True) for fam, cmd in [
        ("random", "separable"), ("product", "sat"), ("parity", "reduce-karp"),
        ("flip", "sat"), ("flip", "classify"), ("product", "separable"),
    ]]
)

_HG_DENSE_SMALL = [
    ("dense-anf", "anf", True), ("dense-anf", "hypergraph", True),
    ("dense-anf", "state", True), ("dense-anf", "separable", True),
    ("dense-hex", "anf", False), ("dense-hex", "hypergraph", False),
    ("dense-hex", "state", False), ("dense-hex", "separable", False),
]
# Dense documents above n = 12 are read back as text: validating a
# 32768-edge JSON document against its schema takes seconds.
_HG_DENSE_WIDE = [
    ("dense-hex", "anf", False), ("dense-hex", "hypergraph", False),
    ("dense-hex", "state", True), ("dense-hex", "separable", False),
]
# Dense n = 10 and sparse n = 20 operations (5-10 ms) appear twice, so the
# median lies inside their group with as many cheaper operations below it
# as dearer ones above; the n = 24 sparse ones appear three times, so the
# 90th percentile lies inside the 110-140 ms group.
_HYPERGRAPH = (
    [(n, fam, cmd, js) for n in (10, 10, 12) for fam, cmd, js in _HG_DENSE_SMALL]
    + [(n, fam, cmd, js) for n in (14, 16) for fam, cmd, js in _HG_DENSE_WIDE]
    + [(n, "sparse", cmd, True) for n in (16, 18, 20, 22, 24)
       for cmd in ("anf", "hypergraph", "separable")]
    + [(n, "sparse", cmd, True) for n in (16, 16, 18, 20, 24, 24)
       for cmd in ("anf", "hypergraph", "separable")]
    + [(14, "dense-hex", "separable", True)]
)

_SIM_SMALL = [
    ("const0", "dj"), ("const1", "dj"), ("parity", "dj"), ("balanced", "dj"),
    ("const0", "sat-quantum"), ("parity", "sat-quantum"),
    ("balanced", "sat-quantum"), ("random", "sat-quantum"),
]
# Few n = 12 and more n = 18 operations: the median then falls inside the
# 18-22 ms cluster of n = 16 operations, not on a step between two sizes.
_SIMULATE = (
    [(12, fam, cmd, True) for fam, cmd in [
        ("const0", "dj"), ("balanced", "dj"), ("random", "sat-quantum"),
    ]]
    + [(n, fam, cmd, True) for n in (14, 16) for fam, cmd in _SIM_SMALL]
    + [(18, fam, cmd, True) for fam, cmd in [
        ("const1", "dj"), ("balanced", "dj"), ("parity", "dj"),
    ] + [(fam, "sat-quantum") for fam in ("const0", "const1", "parity", "balanced", "random")]
       + [("random", "sat-quantum")]]
    + [(20, fam, cmd, True) for fam, cmd in [
        ("const0", "dj"), ("const1", "dj"), ("balanced", "dj"), ("parity", "dj"),
        ("parity", "sat-quantum"), ("const0", "sat-quantum"), ("random", "sat-quantum"),
    ]]
    + [(n, "pair", "helstrom", True) for n in (10, 20)]
)

SMALL_SWEEP_SIZE = 1260
SMALL_ARITIES = range(2, 9)
SMALL_FAMILIES = ("random", "product", "flip")

ROUNDS = {"wide-sat": _WIDE_SAT, "hypergraph": _HYPERGRAPH, "simulate": _SIMULATE}

# Scaling ratios of the traced run: metric -> (span, operation filter).
# Each compares like with like, so the filter keeps one kind of input.
SCALE_RULES = {
    "wide-sat": {
        "boolfn.compile.scale_n2": ("boolfn.compile", {"family": ["planted", "unit", "random"]}),
        # the full 2**n - 1 comparisons run only on product states
        "lme_state.is_osm.scale_n2": ("lme_state.is_osm", {"family": ["product", "parity", "unit"]}),
    },
    "hypergraph": {
        "boolfn.anf.scale_n2": ("boolfn.anf", {"family": ["dense-anf", "dense-hex"]}),
        "cli.run.self.scale_n2": ("cli.run", {"cmd": ["state"]}),
    },
    "simulate": {
        "quantum_sim.apply_hadamard.scale_n2": ("quantum_sim.apply_hadamard", {}),
    },
    "small-sweep": {
        "boolfn.anf.scale_n2": ("boolfn.anf", {}),
        "lme_state.is_osm.scale_n2": ("lme_state.is_osm", {}),
        "lme_state.to_state.scale_n2": ("lme_state.to_state", {}),
    },
}


def describe() -> dict:
    """Arity mix and command mix of one round of each workload."""
    out = {}
    for name in WHY:
        if name == "small-sweep":
            arity = {str(n): SMALL_SWEEP_SIZE // len(SMALL_ARITIES) for n in SMALL_ARITIES}
            commands = {"library pipeline": SMALL_SWEEP_SIZE}
            families = {fam: SMALL_SWEEP_SIZE // len(SMALL_FAMILIES) for fam in SMALL_FAMILIES}
        else:
            arity, commands, families = {}, {}, {}
            for n, fam, cmd, _ in ROUNDS[name]:
                arity[str(n)] = arity.get(str(n), 0) + 1
                commands[cmd] = commands.get(cmd, 0) + 1
                families[fam] = families.get(fam, 0) + 1
        out[name] = {"why": WHY[name], "ops_per_round": sum(arity.values()),
                     "arity_mix": arity, "command_mix": commands, "family_mix": families}
    return out


# ---------------------------------------------------------------------------
# Input families


def _clause(rng: random.Random, n: int) -> list[int]:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]


def _cnf(rng: random.Random, n: int, family: str) -> list[list[int]]:
    m = round(CLAUSE_RATIO * n)
    if family == "random":
        return [_clause(rng, n) for _ in range(m)]
    if family == "planted":
        witness = rng.getrandbits(n)
        clauses = []
        while len(clauses) < m:
            clause = _clause(rng, n)
            if any((witness >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause):
                clauses.append(clause)
        return clauses
    v = rng.randint(1, n)
    clauses = [_clause(rng, n) for _ in range(m - 2)] + [[v], [-v]]
    rng.shuffle(clauses)
    return clauses


def _dimacs(n: int, clauses: list[list[int]]) -> str:
    body = [" ".join(map(str, clause + [0])) for clause in clauses]
    return "\n".join([f"p cnf {n} {len(clauses)}"] + body) + "\n"


def _formula(rng: random.Random, n: int, family: str) -> tuple[str, int, list[int]]:
    """Affine functions (product states) and affine-plus-one-monomial ones."""
    if family == "parity":
        support = list(range(n))
    else:
        support = sorted(rng.sample(range(n), rng.randint(1, n)))
    constant = rng.getrandbits(1)
    terms = [f"x{k + 1}" for k in support]
    edges = [1 << k for k in support]
    if family == "flip":
        monomial = sorted(rng.sample(range(n), rng.randint(2, 4)))
        terms.append("(" + " & ".join(f"x{k + 1}" for k in monomial) + ")")
        edges.append(sum(1 << k for k in monomial))
    if constant:
        terms.append("1")
    return " ^ ".join(terms), constant, edges


def _table_facts(table: np.ndarray, n: int, builder: ref.PackedBuilder, spec: dict) -> dict:
    count = ref.popcount(table)
    base = ref.point(table, 0)
    return {
        "n": n,
        "count": count,
        "kind": ref.kind_of(count, n),
        "osm": bool(np.array_equal(builder.affine_of(table), table)),
        "global": "-" if base else "+",
        "factors": ["-" if ref.point(table, 1 << k) != base else "+" for k in range(n)],
        "spec": spec,
    }


def _karp_digest(table: np.ndarray, n: int) -> str:
    return ref.digest("00" * (3 * (1 << n) // 8) + table.tobytes().hex())


def _sorted_edges(n: int, masks: list[int]) -> list[list[int]]:
    edges = [[k for k in range(n) if mask >> k & 1] for mask in masks]
    return sorted(edges, key=lambda e: (len(e), e))


def _anf_text(constant: int, n: int, masks: list[int]) -> str:
    lines = [f"c {constant}"] + [
        " ".join(str(k) for k in range(n) if mask >> k & 1) for mask in masks
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators


def _wide_sat_input(rng: random.Random, n: int, family: str, cmd: str,
                    builders: dict) -> dict:
    if n not in builders:
        builders[n] = ref.PackedBuilder(n)
    builder = builders[n]
    if family in ("planted", "unit", "random"):
        clauses = _cnf(rng, n, family)
        text, fmt = _dimacs(n, clauses), "dimacs"
        table = builder.cnf(clauses)
        spec = {"kind": "cnf", "clauses": clauses}
    else:
        text, constant, edges = _formula(rng, n, family)
        fmt = "formula"
        table = builder.anf(constant, edges)
        spec = {"kind": "anf", "c": constant, "edges": edges}
    facts = _table_facts(table, n, builder, spec)
    if cmd == "reduce-karp":
        facts["karp_digest"] = _karp_digest(table, n)
    # The documented arity-cap defect: the second oracle call of `sat`
    # materializes f AND y (n + 1 variables) and `reduce-karp` builds an
    # (n + 2)-variable table, both refused once they pass the cap.
    known_cap = (cmd == "reduce-karp" and n + 2 > CAP) or (
        cmd == "sat" and facts["osm"] and n + 1 > CAP)
    return {"text": text, "fmt": fmt, "facts": facts, "known_cap": known_cap}


def _dense_masks(rng: random.Random, n: int) -> list[int]:
    coeff = rng.getrandbits(1 << n) & ~1
    return [m for m in range(1, 1 << n) if coeff >> m & 1]


def _sparse_masks(rng: random.Random, n: int) -> list[int]:
    masks: set[int] = set()
    while len(masks) < 6:
        masks.add(sum(1 << k for k in rng.sample(range(n), rng.randint(1, 4))))
    return sorted(masks)


def _hypergraph_input(rng: random.Random, n: int, family: str, cmd: str) -> dict:
    masks = _dense_masks(rng, n) if family.startswith("dense") else _sparse_masks(rng, n)
    rng.shuffle(masks)
    constant = rng.getrandbits(1)
    spec = {"kind": "anf", "c": constant, "edges": masks}
    f0 = ref.evaluate_spec(spec, 0)
    facts = {
        "n": n,
        "c": constant,
        "edges": _sorted_edges(n, masks),
        "entangling": any(m & (m - 1) for m in masks),
        "osm": not any(m & (m - 1) for m in masks),
        "global": "-" if f0 else "+",
        "factors": ["-" if ref.evaluate_spec(spec, 1 << k) != f0 else "+" for k in range(n)],
        "spec": spec,
    }
    if family == "dense-hex" or cmd == "state":
        table = ref.table_from_anf_bits(constant, masks, n)
        facts["table_hex"] = table.tobytes().hex()
    if family == "dense-hex":
        text, fmt = facts["table_hex"], "table-hex"
    else:
        text, fmt = _anf_text(constant, n, masks), "anf"
    return {"text": text, "fmt": fmt, "facts": facts, "known_cap": False}


def _simulate_input(rng: random.Random, nrng: np.random.Generator, n: int,
                    family: str) -> dict:
    nbytes = (1 << n) // 8
    if family in ("const0", "const1"):
        table = np.full(nbytes, 0xFF if family == "const1" else 0, dtype=np.uint8)
    elif family == "parity":
        table = ref.PackedBuilder(n).anf(rng.getrandbits(1), [1 << k for k in range(n)])
    elif family == "balanced":
        bits = np.zeros(1 << n, dtype=np.uint8)
        bits[nrng.permutation(1 << n)[: 1 << (n - 1)]] = 1
        table = np.packbits(bits, bitorder="little")
    else:
        # neither constant nor balanced, which rules out every product state
        table = nrng.integers(0, 256, size=nbytes, dtype=np.uint8)
        while ref.kind_of(ref.popcount(table), n) != "neither":
            table = nrng.integers(0, 256, size=nbytes, dtype=np.uint8)
    count = ref.popcount(table)
    text = table.tobytes().hex()
    return {
        "text": text, "fmt": "table-hex", "known_cap": False,
        "facts": {"n": n, "count": count, "kind": ref.kind_of(count, n),
                  "spec": {"kind": "table", "hex": text}},
    }


def _helstrom_input(n: int) -> dict:
    overlap = 1.0 - 2.0 / (1 << n)
    error = 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))
    return {"text": "", "fmt": "", "known_cap": False,
            "facts": {"n": n, "overlap": overlap, "helstrom_error": error}}


def _small_function(rng: random.Random, n: int, family: str) -> int:
    size = 1 << n
    if family == "random":
        return rng.getrandbits(size)
    support = [k for k in range(n) if rng.getrandbits(1)]
    table = sum(1 << i for i in range(size) if sum(i >> k & 1 for k in support) & 1)
    if rng.getrandbits(1):
        table ^= (1 << size) - 1
    if family == "flip":
        table ^= 1 << rng.randrange(size)
    return table


def generate(workload: str, seed: int) -> dict:
    """Inputs, expected answers and the operation round for one run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "small-sweep":
        # Equal numbers of each (arity, family), so every seed has the same
        # mix; the first function is the cold-start operation.
        shapes = [(n, fam) for n in SMALL_ARITIES for fam in SMALL_FAMILIES]
        shapes = shapes * (SMALL_SWEEP_SIZE // len(shapes))
        rng.shuffle(shapes)
        first = shapes.index((8, "random"))
        shapes[0], shapes[first] = shapes[first], shapes[0]
        functions = []
        for n, family in shapes:
            table = _small_function(rng, n, family)
            functions.append({"n": n, "family": family, "table": table,
                              "facts": ref.small_facts(table, n)})
        return {"workload": workload, "mode": "library", "functions": functions,
                "scale": SCALE_RULES[workload]}
    nrng = np.random.default_rng(rng.getrandbits(63))
    builders: dict = {}
    slots = []
    for n, family, cmd, as_json in ROUNDS[workload]:
        if workload == "wide-sat":
            item = _wide_sat_input(rng, n, family, cmd, builders)
        elif workload == "hypergraph":
            item = _hypergraph_input(rng, n, family, cmd)
        elif cmd == "helstrom":
            item = _helstrom_input(n)
        else:
            item = _simulate_input(rng, nrng, n, family)
        slots.append({"n": n, "family": family, "cmd": cmd, "json": as_json, **item})
    return {"workload": workload, "mode": "cli", "slots": slots,
            "scale": SCALE_RULES[workload]}
