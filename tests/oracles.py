"""Brute-force reference implementations, kept deliberately independent of
the library's packed-int tricks: plain per-index loops only."""

import itertools


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
