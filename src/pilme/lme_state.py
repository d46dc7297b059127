"""Equal-weight sign states: product tests, factorization, certificates.

A state is the sign pattern of a 2**n amplitude vector whose entries are
all +-1/sqrt(2**n); bit i set means the coefficient of |i> is minus.
That pattern is the truth table of its generating function, so a state
is a BooleanFunction.  Membership in the set of plus/minus product
states, up to a global sign, then reduces to block comparisons on the
packed bits, and non-membership has a four-point witness.  The XOR
polynomial of f gives both answers: its single-vertex coefficients,
read once, decide the edge test and are a product's factors, and an
entangled state's witness is its lowest edge that couples two or more
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .boolfn import BooleanFunction, Hypergraph, evaluate


class NotProductError(ValueError):
    """The state does not factor into single-qubit plus/minus states."""


@dataclass(frozen=True)
class FactorDecomposition:
    """Witness that a state is global_sign times a product of |+>/|-> qubits.

    factors[k] is +1 when qubit k is |+> and -1 when it is |->.  The sign
    of |i> is then global_sign times the product of factors[k] over the
    set bits k of i, and global_sign itself is the sign of |0...0>.
    """

    global_sign: int
    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.global_sign not in (1, -1):
            raise ValueError("global_sign must be +1 or -1")
        if not self.factors:
            raise ValueError("at least one factor is required")
        if any(eps not in (1, -1) for eps in self.factors):
            raise ValueError("factors must be +1 or -1")

    def to_state(self) -> BooleanFunction:
        """Expand the tensor product in O(2**n) by doubling: the signs of
        [2**k, 2**(k+1)) are those of [0, 2**k), flipped if factor k is minus."""
        signs = 1 if self.global_sign < 0 else 0
        for k, eps in enumerate(self.factors):
            width = 1 << k
            signs |= (signs ^ ((1 << width) - 1 if eps < 0 else 0)) << width
        return BooleanFunction(len(self.factors), signs)


@dataclass(frozen=True)
class Certificate:
    """Four-point witness (k, l, m) of a failed block comparison: the sign
    pairs at (l, 2**k + l) and (m, 2**k + m) disagree about flipping."""

    k: int
    l: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.l < 0 or self.m < 0:
            raise ValueError("certificate indices must be non-negative")


def state_from_function(f: BooleanFunction) -> BooleanFunction:
    """Sign state whose coefficient of |i> is (-1)**f(i); the sign vector
    is the truth table bit-for-bit, so the state is f itself."""
    return f


def is_osm(state: BooleanFunction) -> bool:
    """True when the state is a product of single-qubit plus/minus states,
    up to a global sign.

    Level k compares the signs of basis states [0, 2**k) with those of
    [2**k, 2**(k+1)): qubit k factors out iff the blocks agree exactly or
    disagree exactly.  Only the first block pair is checked per level;
    the top level forces the second half of the vector to be a copy or a
    flip of the first, so the lower levels recursively constrain the
    prefix and the n first-block checks (2**n - 1 sign comparisons in
    total) are sufficient for the full product structure.
    """
    return find_certificate(state) is None


def factorize(state: BooleanFunction) -> FactorDecomposition:
    """Decompose a product state into its global sign and per-qubit factors.

    The global sign is the sign of |0...0>; qubit k is |+> iff |2**k| has
    the same sign as |0...0|.  Raises NotProductError on entangled input.
    """
    witness = membership_witness(state)
    if isinstance(witness, Certificate):
        raise NotProductError("state is not a product of plus/minus factors")
    return witness


def find_certificate(state: BooleanFunction) -> Optional[Certificate]:
    """Search the block tests for a violation; None iff the state is a product.

    k is the smallest failing level.  With d(i) the XOR of the sign bits
    at i and 2**k + i, a passing level has d constant on [0, 2**k); on the
    first failing level l is 0 and m is the smallest index whose d value
    differs from d(0).
    """
    for k in range(state.arity):
        width = 1 << k
        mask = (1 << width) - 1
        # Cut out the pair [0, 2**(k+1)) before shifting, so level k costs
        # O(2**k) and not a shift of the whole table.  At the top level the
        # pair is the whole table, and cutting it would only copy it.
        pair = state.table & ((1 << (2 * width)) - 1) if 2 * width < state.size else state.table
        d = (pair & mask) ^ (pair >> width)
        if d == 0 or d == mask:
            continue
        flipped = d ^ mask if d & 1 else d
        m = (flipped & -flipped).bit_length() - 1
        return Certificate(k, 0, m)
    return None


def _single_vertex_edges(h: Hypergraph) -> tuple[list[bool], int]:
    # Whether each vertex k has the edge {k} (bit 2**k of coeff), cleared from
    # the top set bit down while that is such an edge, and the bits left:
    # rest <= 1 exactly when the state is a product.  A product costs about
    # one pass over coeff, and a coupling edge above every single one none.
    rest, minus = h.coeff, [False] * h.vertex_count
    while rest > 1:
        top = rest.bit_length() - 1
        if top & (top - 1):
            break
        minus[top.bit_length() - 1] = True
        rest ^= 1 << top
    return minus, rest


def entangling_edge_exists(h: Hypergraph) -> bool:
    """True iff some edge couples at least two vertices.  Size-1 edges,
    at the power-of-two bits of `coeff`, are single-qubit phase flips
    (they swap |+> and |-> on one qubit) and never entangle."""
    return _single_vertex_edges(h)[1] > 1


def membership_witness(
    state: BooleanFunction | Hypergraph,
) -> Certificate | FactorDecomposition:
    """The certificate `find_certificate` gives an entangled state, or the
    factors of a product one, from its truth table or its hypergraph.

    A hypergraph is read off its coefficients, with no table.  The level-k
    difference d(i) = f(i) xor f(2**k + i) on [0, 2**k) has coefficient
    bits [2**k, 2**(k+1)) shifted down, so level k fails iff a bit strictly
    inside that range is set: an edge of two or more vertices whose top
    vertex is k.  On the first such level, m is the lowest of those bits
    minus 2**k, where d first differs from d(0).  With no such edge, the
    global sign is bit 0 and factor k is minus iff bit 2**k is set.
    """
    if isinstance(state, Hypergraph):
        minus, rest = _single_vertex_edges(state)
        if rest <= 1:
            return FactorDecomposition(-1 if state.coeff & 1 else 1, tuple(-1 if m else 1 for m in minus))
        # The top bit of rest couples vertices, so the scan stops by its level.
        for k in range((rest.bit_length() - 1).bit_length()):
            width = 1 << k
            # Cut before shifting, as find_certificate does: level k is O(2**k).
            low = rest & ((1 << 2 * width) - 1) if rest.bit_length() > 2 * width else rest
            window = low >> (width + 1)
            if window:
                break
        return Certificate(k, 0, (window & -window).bit_length())
    cert = find_certificate(state)
    if cert is not None:
        return cert
    # Factor k is minus iff bit 2**k differs from the sign of |0...0>, read
    # by masking that bit alone.
    table, base = state.table, state.table & 1
    factors = tuple(-1 if bool(table & (1 << (1 << k))) != base else 1 for k in range(state.arity))
    return FactorDecomposition(-1 if base else 1, factors)


def verify_certificate(
    f: BooleanFunction,
    cert: Certificate,
    evaluate_fn: Callable[[BooleanFunction, int], int] = evaluate,
) -> bool:
    """Check a certificate with exactly four point evaluations of f.

    True means f(l) xor f(2**k + l) differs from f(m) xor f(2**k + m), so
    the level-k block comparison fails and the sign state of f is not a
    product.  `evaluate_fn` exists so callers can meter the evaluation
    count.
    """
    if not 0 <= cert.k < f.arity:
        raise IndexError(f"level {cert.k} out of range for arity {f.arity}")
    width = 1 << cert.k
    if not (0 <= cert.l < width and 0 <= cert.m < width):
        raise IndexError(f"certificate indices must lie in [0, {width})")
    d_l = evaluate_fn(f, cert.l) ^ evaluate_fn(f, width + cert.l)
    d_m = evaluate_fn(f, cert.m) ^ evaluate_fn(f, width + cert.m)
    return d_l != d_m


def count_osm_states(n: int) -> int:
    """Exhaustively count product sign vectors among all 2**(2**n)."""
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    return sum(1 for v in range(1 << (1 << n)) if is_osm(BooleanFunction(n, v)))
