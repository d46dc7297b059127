"""Reference answers, computed without pilme.

The generator uses these to attach an expected answer to every input
before timing starts, and the checker uses the point evaluators to test
witnesses and certificates.  Nothing here imports pilme: a bug in the
package under test cannot leak into its own expected answers.

Truth tables of wide functions are numpy uint8 arrays packed the way the
`table-hex` format packs them (bit i of byte i // 8 is f(i)); narrow ones
(n <= 8) are plain Python ints.
"""

from __future__ import annotations

import hashlib

import numpy as np

_LOW_VARIABLE_BYTES = (0xAA, 0xCC, 0xF0)


def _nbytes(n: int) -> int:
    return max(1, (1 << n) // 8)


def variable_bytes(k: int, n: int) -> np.ndarray:
    """Packed table of x_{k+1} over n >= 3 variables."""
    if k < 3:
        return np.full(_nbytes(n), _LOW_VARIABLE_BYTES[k], dtype=np.uint8)
    bits = (np.arange(_nbytes(n)) >> (k - 3)) & 1
    return (bits * 0xFF).astype(np.uint8)


class PackedBuilder:
    """Builds packed tables over n >= 3 variables, caching the projections."""

    def __init__(self, n: int):
        self.n = n
        self._vars = [variable_bytes(k, n) for k in range(n)]

    def const(self, bit: int) -> np.ndarray:
        return np.full(_nbytes(self.n), 0xFF if bit else 0, dtype=np.uint8)

    def literal(self, lit: int) -> np.ndarray:
        table = self._vars[abs(lit) - 1]
        return table if lit > 0 else ~table

    def cnf(self, clauses: list[list[int]]) -> np.ndarray:
        out = self.const(1)
        for clause in clauses:
            disjunction = self.const(0)
            for lit in clause:
                disjunction |= self.literal(lit)
            out &= disjunction
        return out

    def anf(self, constant: int, edges: list[int]) -> np.ndarray:
        """XOR of one AND-of-variables per edge mask, plus the constant."""
        out = self.const(constant)
        for mask in edges:
            term = self.const(1)
            for k in range(self.n):
                if mask >> k & 1:
                    term &= self._vars[k]
            out ^= term
        return out

    def affine_of(self, table: np.ndarray) -> np.ndarray:
        """The affine function agreeing with `table` at 0 and at every e_k."""
        base = point(table, 0)
        out = self.const(base)
        for k in range(self.n):
            if point(table, 1 << k) != base:
                out ^= self._vars[k]
        return out


def point(table: np.ndarray, index: int) -> int:
    return int(table[index >> 3] >> (index & 7)) & 1


def popcount(table: np.ndarray) -> int:
    return int(np.unpackbits(table).sum(dtype=np.int64))


def kind_of(count: int, n: int) -> str:
    if count == 0:
        return "constant0"
    if count == 1 << n:
        return "constant1"
    if 2 * count == 1 << n:
        return "balanced"
    return "neither"


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def mobius_bits(bits: np.ndarray, n: int) -> np.ndarray:
    """Subset-lattice transform of an unpacked 0/1 vector of length 2**n."""
    out = bits.astype(np.uint8, copy=True)
    for k in range(n):
        cube = out.reshape(-1, 2, 1 << k)
        cube[:, 1, :] ^= cube[:, 0, :]
    return out


def table_from_anf_bits(constant: int, edges: list[int], n: int) -> np.ndarray:
    """Packed table of an XOR polynomial given by its edge masks."""
    coeff = np.zeros(1 << n, dtype=np.uint8)
    coeff[0] = constant
    coeff[np.asarray(edges, dtype=np.int64)] = 1
    return np.packbits(mobius_bits(coeff, n), bitorder="little")


# ---------------------------------------------------------------------------
# Narrow functions as ints (n <= 8)


def small_facts(table: int, n: int) -> dict:
    """Everything the small-sweep checks need about one narrow function."""
    size = 1 << n
    values = [table >> i & 1 for i in range(size)]
    coeff = list(values)
    for k in range(n):
        step = 1 << k
        for i in range(size):
            if i & step:
                coeff[i] ^= coeff[i ^ step]
    edges = sorted(i for i in range(1, size) if coeff[i])
    count = sum(values)
    base = values[0]
    flips = [values[1 << k] ^ base for k in range(n)]
    affine = all(
        values[i] == base ^ (sum(flips[k] for k in range(n) if i >> k & 1) & 1)
        for i in range(size)
    )
    return {
        "count": count,
        "kind": kind_of(count, n),
        "osm": affine,
        "constant": coeff[0],
        "edges": edges,
    }


# ---------------------------------------------------------------------------
# Point evaluators shipped to the checker


def evaluate_spec(spec: dict, x: int) -> int:
    """f(x) for an input described by its generator.

    `cnf`: clause lists; `anf`: constant plus edge masks; `table`: the
    packed table as an int, or as table-hex text, converted on first use.
    """
    kind = spec["kind"]
    if kind == "cnf":
        return int(all(
            any((x >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause)
            for clause in spec["clauses"]
        ))
    if kind == "anf":
        value = spec["c"]
        for mask in spec["edges"]:
            if x & mask == mask:
                value ^= 1
        return value
    if "table" not in spec:
        spec["table"] = int.from_bytes(bytes.fromhex(spec["hex"]), "little")
    return spec["table"] >> x & 1
