"""Equal-weight sign states: product tests, factorization, certificates.

A state is the sign pattern of a 2**n amplitude vector whose entries are
all +-1/sqrt(2**n); bit i set means the coefficient of |i> is minus.
That pattern is the truth table of its generating function, so a state
is a BooleanFunction.  Membership in the set of plus/minus product
states, up to a global sign, then reduces to block comparisons on the
packed bits, and non-membership has a four-point witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .boolfn import BooleanFunction, evaluate


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
    if not is_osm(state):
        raise NotProductError("state is not a product of plus/minus factors")
    return _read_factors(state)


def _read_factors(state: BooleanFunction) -> FactorDecomposition:
    """Global sign and factors of a state that has passed the block test."""
    # Bit 2**k is read by masking it alone, O(2**k), not by shifting the
    # whole table down to it.
    base = state.table & 1
    factors = tuple(
        1 if bool(state.table & (1 << (1 << k))) == base else -1
        for k in range(state.arity)
    )
    return FactorDecomposition(-1 if base else 1, factors)


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
        # O(2**k) and not a shift of the whole table.
        pair = state.table & ((1 << (2 * width)) - 1)
        d = (pair & mask) ^ (pair >> width)
        if d == 0 or d == mask:
            continue
        flipped = d ^ mask if d & 1 else d
        m = (flipped & -flipped).bit_length() - 1
        return Certificate(k, 0, m)
    return None


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
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 4:
        raise ValueError("exhaustive census is limited to n <= 4")
    return sum(1 for v in range(1 << (1 << n)) if is_osm(BooleanFunction(n, v)))


def is_entangled(state: BooleanFunction) -> bool:
    """Entanglement is the complement of product membership for this state
    family; undefined (an error) on a single qubit."""
    if state.arity < 2:
        raise ValueError("entanglement is undefined for a single qubit")
    return not is_osm(state)
