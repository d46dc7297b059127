"""Exact integer statevector simulation of the oracle circuits.

Every gate the pipelines need is an amplitude permutation (the bit-flip
oracle) or a Hadamard, (a, b) -> (a + b, a - b) / sqrt(2).  So a state is
an int32 vector a with one exponent e, standing for a * 2**(-e/2), and every
outcome probability is an exact dyadic rational: nothing is rounded.  The
all-zeros outcome after a Hadamard layer is read as one amplitude,
<0...0|H...H|psi> = <+...+|psi>, the scaled sum of the amplitudes, so the
layer itself never runs.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Literal

import numpy as np

from .boolfn import BooleanFunction, classify
from .lme_state import is_osm
from .reductions import SatVerdict, TraceStep

# 2**21 int32 amplitudes (state plus ancilla) is 8 MiB.
SIM_MAX_N = 20
# The bound on exponent + qubit_count.  With every |a| <= 2**(e/2), which
# is checked on outside input (this module's own arrays hold it by
# construction), the int64 sum of squares cannot wrap, and a butterfly sum
# fits in int32.
_MAX_SCALE = 62


class PromiseViolationError(ValueError):
    """The constant-versus-balanced subroutine was invoked outside its promise."""


@dataclass(frozen=True)
class StateVector:
    """The state amplitudes * 2**(-exponent/2) over 2**qubit_count basis
    states, held as int32 amplitudes whose squares sum to 2**exponent.

    Instances are immutable; gate application returns a new vector.  The
    amplitudes are copied unless `_fresh` is set, which this module does
    only for an int32 array it has just allocated and hands over.
    """

    qubit_count: int
    amplitudes: np.ndarray
    exponent: int = 0
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh: bool) -> None:
        n, e = self.qubit_count, self.exponent
        if n < 1:
            raise ValueError("qubit_count must be at least 1")
        if not 0 <= e <= _MAX_SCALE - n:
            raise ValueError(f"exponent must be between 0 and {_MAX_SCALE - n} at {n} qubits")
        amps = self.amplitudes if _fresh else np.array(self.amplitudes)
        if amps.shape != (1 << n,):
            raise ValueError("amplitude vector has the wrong length")
        if amps.dtype.kind not in "iu":
            raise ValueError("amplitudes must be integers")
        bound = math.isqrt(1 << e)
        in_range = _fresh or -bound <= amps.min() and amps.max() <= bound
        amps = amps.astype(np.int32, copy=False)
        if not in_range or int(np.einsum("i,i->", amps, amps, dtype=np.int64)) != 1 << e:
            raise ValueError("state vector is not normalized")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def _bit_array(packed: int, count: int) -> np.ndarray:
    nbytes = (count + 7) // 8
    raw = packed.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:count]


def _pack_bits(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def basis_state(qubit_count: int, index: int) -> StateVector:
    """Computational basis state |index>."""
    if not 0 <= index < (1 << qubit_count):
        raise ValueError("basis index out of range")
    amps = np.zeros(1 << qubit_count, dtype=np.int32)
    amps[index] = 1
    return StateVector(qubit_count, amps, _fresh=True)


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
    return StateVector(n, amps, exponent, _fresh=True)


def apply_uf(sv: StateVector, f: BooleanFunction, ancilla_index: int) -> StateVector:
    """Oracle gate |x>|y> -> |x>|y xor f(x)>.

    The register x is read from the non-ancilla qubits in increasing
    position order.  The gate is a permutation of amplitudes, so the
    exponent is unchanged.
    """
    n = f.arity
    if sv.qubit_count != n + 1:
        raise ValueError("state must have one more qubit than the function arity")
    if not 0 <= ancilla_index <= n:
        raise ValueError("ancilla index out of range")
    # Index (high, y, low), with low below the ancilla, holds |x = high * 2**a
    # + low>|y>, so f's table in the shape (high, low) lines up with both
    # halves.  The halves swap wherever f(x) is 1: XOR each with the masked
    # XOR of the two, so no branch.
    shape = (1 << (n - ancilla_index), 2, 1 << ancilla_index)
    flips = _bit_array(f.table, 1 << n).reshape(shape[0], shape[2])
    before = sv.amplitudes.reshape(shape)
    swap = before[:, 0, :] ^ before[:, 1, :]
    swap *= flips
    amps = np.empty(1 << (n + 1), dtype=np.int32)
    after = amps.reshape(shape)
    np.bitwise_xor(before[:, 0, :], swap, out=after[:, 0, :])
    np.bitwise_xor(before[:, 1, :], swap, out=after[:, 1, :])
    return StateVector(n + 1, amps, sv.exponent, _fresh=True)


def prepare_psi_f(f: BooleanFunction) -> StateVector:
    """Run the oracle on the all-plus register with a minus ancilla and
    strip the (exactly) decoupled ancilla.

    The returned n-qubit vector has amplitudes (-1)**f(i) and exponent n,
    so it stands for (-1)**f(i) / sqrt(2**n), matching the packed sign
    state of f sign for sign.
    """
    n = f.arity
    if n > SIM_MAX_N:
        raise ValueError(f"arity {n} exceeds the simulator cap {SIM_MAX_N}")
    half = 1 << n
    amps = np.ones(2 * half, dtype=np.int32)
    amps[half:] = -1
    after = apply_uf(StateVector(n + 1, amps, n + 1, _fresh=True), f, n)
    lower = after.amplitudes[:half]
    if not np.array_equal(after.amplitudes[half:], -lower):
        raise RuntimeError("ancilla failed to decouple")
    return StateVector(n, lower.copy(), n, _fresh=True)


def signs_from_state(sv: StateVector) -> BooleanFunction:
    """Read the packed sign pattern off an equal-weight real state."""
    magnitude = abs(int(sv.amplitudes[0]))
    if (np.abs(sv.amplitudes) != magnitude).any():
        raise ValueError("amplitudes are not an equal-weight sign pattern")
    return BooleanFunction(sv.qubit_count, _pack_bits(sv.amplitudes < 0))


def zero_outcome_probability(f: BooleanFunction) -> float:
    """Probability of the all-zeros outcome after a full Hadamard layer on
    the sign state of f.  That amplitude is <+...+|psi_f>, so only it is
    computed: the sum of the 2**n amplitudes (-1)**f(x) is W_f(0), the
    layer's unscaled amplitude 0, at exponent 2n.  So this is
    W_f(0)**2 / 2**(2n) = ((2**n - 2|f|) / 2**n)**2, exact in a float
    because W_f(0)**2 <= 2**40."""
    sv = prepare_psi_f(f)
    w = int(sv.amplitudes.sum(dtype=np.int64))
    return math.ldexp(w * w, -2 * sv.qubit_count)


def deutsch_jozsa(f: BooleanFunction) -> tuple[Literal["constant", "balanced"], float]:
    """Constant-versus-balanced decision with one oracle use, simulated;
    returns the label and the all-zeros probability it was read from.

    The promise is checked eagerly: outside it the all-zeros probability
    is strictly between 0 and 1 and the label would be meaningless.
    Under the promise the probability is exactly 1 (constant) or exactly
    0 (balanced).
    """
    if classify(f).kind == "neither":
        raise PromiseViolationError("function is neither constant nor balanced")
    p0 = zero_outcome_probability(f)
    return ("constant" if p0 == 1.0 else "balanced"), p0


def algorithm1_end_to_end(f: BooleanFunction) -> SatVerdict:
    """Full SAT pipeline on the simulator.

    Prepare the sign state through the oracle, test product membership on
    the simulated sign pattern (the membership device itself cannot exist
    physically, so the check is classical by necessity), split constant
    from balanced, and finally read the ancilla after one oracle call on
    the all-zeros input.  Like `reductions.turing_reduce_sat`, it ends
    through `SatVerdict`'s two constructors, whose one `sat_brute` witness
    lookup is the place a witness search by self-reduction replaces.
    """
    trace: list[TraceStep] = []
    psi = prepare_psi_f(f)
    trace.append(
        TraceStep("prepare", 0, None, "oracle applied once to the plus register with a minus ancilla")
    )
    if not is_osm(signs_from_state(psi)):
        return SatVerdict.satisfiable_at(f, trace, "product_test", 1, "simulated state is not a product")
    trace.append(
        TraceStep("product_test", 1, None, "simulated state is a product: f is constant or balanced")
    )
    outcome, _ = deutsch_jozsa(f)
    if outcome == "balanced":
        return SatVerdict.satisfiable_at(f, trace, "deutsch_jozsa", 1, "balanced")
    trace.append(TraceStep("deutsch_jozsa", 1, None, "constant"))
    readout = apply_uf(basis_state(f.arity + 1, 0), f, f.arity)
    value = int(readout.amplitudes[1 << f.arity] != 0)
    return SatVerdict.value_at_zero(trace, "ancilla_readout", 1, value, f"ancilla reads {value}")


# ---------------------------------------------------------------------------
# State discrimination


def overlap(a: BooleanFunction, b: BooleanFunction) -> float:
    """Inner product of two sign states: 1 - 2 * hamming(signs) / 2**n."""
    if a.arity != b.arity:
        raise ValueError("qubit counts differ")
    differing = (a.table ^ b.table).bit_count()
    return 1.0 - 2.0 * differing / a.size


def helstrom_error(a: BooleanFunction, b: BooleanFunction) -> float:
    """Minimum one-shot error probability for discriminating two equally
    likely pure states: (1 - sqrt(1 - overlap**2)) / 2."""
    ov = overlap(a, b)
    return 0.5 * (1.0 - math.sqrt(1.0 - ov * ov))


def helstrom_error_copies(a: BooleanFunction, b: BooleanFunction, copies: int) -> float:
    """Helstrom error when `copies` independent copies of the unknown state
    are available; the pair overlap contracts to overlap**copies."""
    if copies < 1:
        raise ValueError("copies must be positive")
    # A float overlap below 1 in size is at most 1 - 2**-53, so its power is
    # already 0.0 at 2**64 copies: capping the exponent there gives the same
    # value for any int, without converting a huge one to a float.
    ov = overlap(a, b) ** min(copies, 1 << 64)
    return 0.5 * (1.0 - math.sqrt(1.0 - ov * ov))


def unique_sat_pair(n: int) -> tuple[BooleanFunction, BooleanFunction]:
    """The hardest no-instance/unique-instance pair: the all-plus state of
    the all-zeros function and the state with only the sign of |0...0>
    flipped (the indicator of the all-zeros string).  Their overlap is
    1 - 2/2**n, exponentially close to one."""
    if not 1 <= n <= SIM_MAX_N:
        raise ValueError(f"n must be between 1 and {SIM_MAX_N}")
    return BooleanFunction(n, 0), BooleanFunction(n, 1)
