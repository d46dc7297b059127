"""Brute-force reference implementations, kept deliberately independent of
the library's packed-int tricks and array kernels: plain per-index loops,
for ANF text a line-by-line reader that sends every token through `int`,
for the Hadamard gate its full dense matrix, and for the subset-lattice
transform one numpy XOR per level over an unpacked bit array.
`apply_hadamard` is the exception: the butterfly form of the gate, which no
circuit of the simulator runs; the dense matrix checks it, and it checks
the one amplitude the Deutsch-Jozsa readout reads."""

import itertools

import numpy as np

from pilme.boolfn import MAX_N, ParseError
from pilme.quantum_sim import StateVector


def brute_anf_coefficients(table: int, n: int) -> int:
    """XOR-polynomial coefficients by direct subset sums: bit S of the
    result is the XOR of f over all subsets of S."""
    out = 0
    for s in range(1 << n):
        acc = 0
        for t in range(1 << n):
            if t & ~s == 0:
                acc ^= (table >> t) & 1
        out |= acc << s
    return out


def bit_array_anf_coefficients(table: int, n: int) -> int:
    """XOR-polynomial coefficients by the subset-lattice transform on one
    byte per entry: level k XORs each entry with bit k clear into the
    entry 2**k above it.  Fast enough for n = 24."""
    raw = np.frombuffer(table.to_bytes(max(1, (1 << n) // 8), "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[: 1 << n].copy()
    for k in range(n):
        pairs = bits.reshape(-1, 2, 1 << k)
        pairs[:, 1, :] ^= pairs[:, 0, :]
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def coeff_from_edges(constant: int, edges) -> int:
    """Packed XOR-polynomial coefficients of an edge list: bit 0 is the
    constant, bit S is set for the edge over the vertex set S."""
    coeff = constant
    for edge in edges:
        mask = 0
        for v in edge:
            mask |= 1 << v
        coeff |= 1 << mask
    return coeff


def sorted_edges_of(coeff: int, n: int) -> tuple:
    """The edges of a coefficient int, read one bit at a time, as vertex
    tuples sorted by (size, vertices)."""
    # Bit s read from its byte, not as (coeff >> s) & 1: each read is then
    # O(1), not a shift of the whole 2**n-bit int.
    raw = coeff.to_bytes((1 << n) // 8 + 1, "little")
    edges = [
        tuple(v for v in range(n) if (s >> v) & 1) for s in range(1, 1 << n) if raw[s >> 3] >> (s & 7) & 1
    ]
    return tuple(sorted(edges, key=lambda edge: (len(edge), edge)))


def read_anf_text(text: str, vertex_count=None, max_n: int = MAX_N):
    """ANF text read line by line, every vertex through `int`, as
    (vertex_count, coeff, edges) with the edges sorted by (size, vertices).

    The first faulty line raises, checked for a bad token, then a negative
    vertex, then a repeated vertex, then a repeated monomial; the vertex
    count is inferred or checked, and capped, only after every line."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "c" or header[1] not in ("0", "1"):
        raise ParseError(f"expected 'c 0' or 'c 1' header, got {lines[0]!r}")
    edges = set()
    for line in lines[1:]:
        try:
            vertices = [int(token) for token in line.split()]
        except ValueError:
            raise ParseError(f"bad monomial line {line!r}") from None
        if any(v < 0 for v in vertices):
            raise ParseError(f"negative vertex in {line!r}")
        edge = frozenset(vertices)
        if len(edge) != len(vertices):
            raise ParseError(f"repeated vertex in monomial {line!r}")
        if edge in edges:
            raise ParseError(f"duplicate monomial {line!r}")
        edges.add(edge)
    inferred = 1 + max((max(edge) for edge in edges), default=-1)
    if vertex_count is None:
        if inferred == 0:
            raise ParseError("vertex count cannot be inferred from an edge-free input")
        vertex_count = inferred
    elif vertex_count < inferred:
        raise ParseError(f"monomials reach vertex {inferred - 1}, beyond vertex count {vertex_count}")
    if vertex_count > max_n:
        raise ValueError(f"arity {vertex_count} exceeds the configured cap {max_n}")
    listed = sorted((tuple(sorted(edge)) for edge in edges), key=lambda edge: (len(edge), edge))
    return vertex_count, coeff_from_edges(int(header[1]), edges), tuple(listed)


def brute_anf_value(constant: int, edges, point: int) -> int:
    """Evaluate an XOR polynomial at one point from its edge list."""
    acc = constant
    for edge in edges:
        acc ^= all((point >> v) & 1 for v in edge)
    return acc & 1


def product_sign_vectors(n: int) -> set[int]:
    """All sign vectors of global_sign * (tensor product of |+>/|-> qubits),
    built by expanding the tensor product index by index."""
    vectors = set()
    for global_sign in (1, -1):
        for eps in itertools.product((1, -1), repeat=n):
            packed = 0
            for i in range(1 << n):
                sign = global_sign
                for k in range(n):
                    if (i >> k) & 1:
                        sign *= eps[k]
                if sign < 0:
                    packed |= 1 << i
            vectors.add(packed)
    return vectors


def pointwise_satisfying_count(table: int, n: int) -> int:
    return sum((table >> i) & 1 for i in range(1 << n))


# Formula trees: nested tuples ("var", k) with k the 0-based bit position,
# ("const", v), ("!", child), ("&" | "|" | "^", child, child, ...) and
# ("->" | "<->", left, right).  They are the test-side reference for the
# library's flat postfix programs.

_TREE_BINDING = {"<->": 1, "->": 2, "|": 3, "^": 4, "&": 5, "!": 6, "var": 7, "const": 7}


def tree_value(tree, point: int) -> int:
    """Value of a formula tree at one assignment (bit k of `point` is
    x_{k+1}), by walking the tree for that single point."""
    op, *args = tree
    if op == "var":
        return (point >> args[0]) & 1
    if op == "const":
        return args[0]
    values = [tree_value(arg, point) for arg in args]
    if op == "!":
        return 1 - values[0]
    if op == "&":
        return int(all(values))
    if op == "|":
        return int(any(values))
    if op == "^":
        return sum(values) & 1
    if op == "->":
        return int(not values[0] or values[1])
    if op == "<->":
        return int(values[0] == values[1])
    raise ValueError(f"not a formula tree: {tree!r}")


def render_tree(tree) -> str:
    """Formula text with only the parentheses the grammar needs to read the
    tree back unchanged: around a looser child, a same-operator child of
    an n-ary operator (which would otherwise merge into its chain), the
    left child of the right-associative ->, and the right child of the
    left-associative <->."""
    op, *args = tree
    if op == "var":
        return f"x{args[0] + 1}"
    if op == "const":
        return str(args[0])
    # The loosest binding each child may have and still go without parentheses.
    binding = _TREE_BINDING[op]
    needs = {"!": [binding], "->": [binding + 1, binding], "<->": [binding, binding + 1]}
    parts = [
        render_tree(arg) if _TREE_BINDING[arg[0]] >= need else f"({render_tree(arg)})"
        for arg, need in zip(args, needs.get(op, [binding + 1] * len(args)))
    ]
    return "!" + parts[0] if op == "!" else f" {op} ".join(parts)


def tree_program(tree) -> tuple:
    """The postfix program of a formula tree, children first."""
    op, *args = tree
    if op in ("var", "const"):
        return (tree,)
    code = tuple(step for arg in args for step in tree_program(arg))
    return code + ((op, len(args)),)


def cnf_tree(clauses):
    """Formula tree of a clause list, shaped as DIMACS input parses: a
    single clause or literal stands alone, an empty clause is 0 and an
    empty list is 1."""
    def literal(lit):
        return ("var", lit - 1) if lit > 0 else ("!", ("var", -lit - 1))

    def clause(c):
        if not c:
            return ("const", 0)
        return literal(c[0]) if len(c) == 1 else ("|", *map(literal, c))

    if not clauses:
        return ("const", 1)
    return clause(clauses[0]) if len(clauses) == 1 else ("&", *map(clause, clauses))


def serialize_dimacs(var_count: int, clauses) -> str:
    """DIMACS text of a clause list: the header, then one 0-terminated
    clause per line."""
    body = [" ".join(map(str, [*clause, 0])) for clause in clauses]
    return "\n".join([f"p cnf {var_count} {len(body)}", *body]) + "\n"


def product_table(n: int, global_minus: int, minus_mask: int) -> int:
    """Sign vector of a product state: entry i is minus iff global_minus
    XOR the parity of the minus qubits set in i."""
    bits = [global_minus ^ (bin(i & minus_mask).count("1") & 1) for i in range(1 << n)]
    return int("".join(map(str, reversed(bits))), 2)


def pointwise_certificate(table: int, n: int):
    """First failing block comparison as (k, 0, m), or None for a product.

    Level k compares d(i) = f(i) xor f(2**k + i) with d(0) for each i in
    [0, 2**k), one entry at a time; m is the first i that differs.
    """
    bits = [int(ch) for ch in reversed(format(table, f"0{1 << n}b"))]
    for k in range(n):
        width = 1 << k
        d0 = bits[0] ^ bits[width]
        for m in range(width):
            if bits[m] ^ bits[width + m] != d0:
                return (k, 0, m)
    return None


def permuted_oracle(amps, table: int, n: int):
    """|x>|y> -> |x>|y xor f(x)> with the ancilla y on top, as an index
    permutation: entry i reads x from its low n bits and takes the
    amplitude at i with bit n XORed by f(x)."""
    out = np.empty_like(amps)
    for i in range(len(amps)):
        x = i & ((1 << n) - 1)
        out[i] = amps[i ^ (((table >> x) & 1) << n)]
    return out


def basis_state(qubit_count: int, index: int) -> StateVector:
    """Computational basis state |index>, built through the checked
    `StateVector` constructor."""
    amps = np.zeros(1 << qubit_count, dtype=np.int32)
    amps[index] = 1
    return StateVector(qubit_count, amps)


def kron_hadamard(amps, n: int, qubit: int):
    """Unscaled Hadamard on one qubit of an integer vector: the full matrix
    I (x) [[1, 1], [1, -1]] (x) I times the vector, in int64.  The factor
    2**-0.5 is one more unit of the state's exponent."""
    low, high = (np.eye(1 << k, dtype=np.int64) for k in (qubit, n - 1 - qubit))
    gate = np.kron(np.kron(high, np.array([[1, 1], [1, -1]])), low)
    return gate @ np.asarray(amps, dtype=np.int64)


def apply_hadamard(sv: StateVector, qubit: int) -> StateVector:
    """Hadamard on one qubit, unscaled: each pair (lo, hi) of amplitudes
    2**qubit apart becomes (lo + hi, lo - hi), one butterfly of the fast
    Walsh-Hadamard transform, and the exponent grows by 1 for the factor
    2**-0.5.  The amplitudes are then halved while all are even, so the
    exponent is the least one possible and H twice is the identity on the
    integers too."""
    n = sv.qubit_count
    if not 0 <= qubit < n:
        raise ValueError("qubit index out of range")
    amps = sv.amplitudes.copy()
    cube = amps.reshape(1 << (n - 1 - qubit), 2, 1 << qubit)
    lo, hi = cube[:, 0, :], cube[:, 1, :]
    total = lo + hi
    np.subtract(lo, hi, out=hi)
    lo[...] = total
    exponent = sv.exponent + 1
    # A normalized vector is never all zero, so this loop ends.
    while not (amps & 1).any():
        amps >>= 1
        exponent -= 2
    return StateVector(n, amps, exponent)
