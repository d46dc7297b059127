"""Exact integer statevector simulation of the oracle circuits.

The one gate the pipelines apply is the bit-flip oracle U_f, an amplitude
permutation, so a state is an int32 vector a with one exponent e, standing
for a * 2**(-e/2), and every outcome probability is an exact dyadic
rational: nothing is rounded.  Only the +-1 oracle register inside
`prepare_psi_f` is int8; every state a caller builds or receives is int32.
The all-zeros outcome after a Hadamard layer is read as one amplitude,
<0...0|H...H|psi> = <+...+|psi>, the scaled sum of the amplitudes, so the
layer itself never runs.

A `StateVector` built by a caller is checked once, as it is constructed;
the arrays this module allocates itself are normalized by construction
and are wrapped without a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .boolfn import MAX_N, BooleanFunction, check_arity, classify
from .lme_state import is_osm
from .reductions import SatVerdict, TraceStep

# The bound on exponent + qubit_count for a vector built by a caller.  With
# every |a| <= 2**(e/2), which is checked first, the int64 sum of squares
# that checks the norm cannot wrap.
_MAX_SCALE = 62


class PromiseViolationError(ValueError):
    """The constant-versus-balanced subroutine was invoked outside its promise."""


@dataclass(frozen=True)
class StateVector:
    """The state amplitudes * 2**(-exponent/2) over 2**qubit_count basis
    states, held as int32 amplitudes whose squares sum to 2**exponent
    (int8 only for the oracle register `prepare_psi_f` keeps to itself).

    Instances are immutable; gate application returns a new vector.  The
    constructor copies the amplitudes and checks the shape, the dtype, the
    exponent, the amplitude range and the norm.
    """

    qubit_count: int
    amplitudes: np.ndarray
    exponent: int = 0

    def __post_init__(self) -> None:
        n, e = self.qubit_count, self.exponent
        if n < 1:
            raise ValueError("qubit_count must be at least 1")
        if not 0 <= e <= _MAX_SCALE - n:
            raise ValueError(f"exponent must be between 0 and {_MAX_SCALE - n} at {n} qubits")
        amps = np.array(self.amplitudes)
        if amps.shape != (1 << n,):
            raise ValueError("amplitude vector has the wrong length")
        if amps.dtype.kind not in "iu":
            raise ValueError("amplitudes must be integers")
        bound = math.isqrt(1 << e)
        in_range = -bound <= amps.min() and amps.max() <= bound
        amps = amps.astype(np.int32, copy=False)
        if not in_range or int(np.einsum("i,i->", amps, amps, dtype=np.int64)) != 1 << e:
            raise ValueError("state vector is not normalized")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def _built(qubit_count: int, amps: np.ndarray, exponent: int) -> StateVector:
    """Wrap an array this module has just allocated, normalized by
    construction, as a read-only state without the constructor's checks."""
    amps.flags.writeable = False
    sv = object.__new__(StateVector)
    vars(sv).update(qubit_count=qubit_count, amplitudes=amps, exponent=exponent)
    return sv


def _bit_array(packed: int, count: int) -> np.ndarray:
    nbytes = (count + 7) // 8
    raw = packed.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:count]


def _pack_bits(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def basis_state(qubit_count: int, index: int) -> StateVector:
    """Computational basis state |index>."""
    if qubit_count < 1:
        raise ValueError("qubit_count must be at least 1")
    if not 0 <= index < (1 << qubit_count):
        raise ValueError("basis index out of range")
    amps = np.zeros(1 << qubit_count, dtype=np.int32)
    amps[index] = 1
    return _built(qubit_count, amps, 0)


def apply_uf(sv: StateVector, f: BooleanFunction, ancilla_index: int) -> StateVector:
    """Oracle gate |x>|y> -> |x>|y xor f(x)>.

    The register x is read from the non-ancilla qubits in increasing
    position order.  The gate is a permutation of amplitudes, so the
    exponent is unchanged, and so is the dtype: int32 for a caller's
    state, int8 for the register inside `prepare_psi_f`.
    """
    n = f.arity
    if sv.qubit_count != n + 1:
        raise ValueError("state must have one more qubit than the function arity")
    if not 0 <= ancilla_index <= n:
        raise ValueError("ancilla index out of range")
    # Index (high, y, low), with low below the ancilla, holds |x = high * 2**a
    # + low>|y>, so f's table in the shape (high, low) lines up with both
    # halves.  The halves swap wherever f(x) is 1: XOR each with the masked
    # XOR of the two, so no branch.  The 0/1 flips are viewed as int8: as
    # uint8 they would mask an int8 register through a widening loop, ~4x slower.
    shape = (1 << (n - ancilla_index), 2, 1 << ancilla_index)
    flips = _bit_array(f.table, 1 << n).reshape(shape[0], shape[2]).view(np.int8)
    before = sv.amplitudes.reshape(shape)
    swap = before[:, 0, :] ^ before[:, 1, :]
    swap *= flips
    amps = np.empty(1 << (n + 1), dtype=before.dtype)
    after = amps.reshape(shape)
    np.bitwise_xor(before[:, 0, :], swap, out=after[:, 0, :])
    np.bitwise_xor(before[:, 1, :], swap, out=after[:, 1, :])
    return _built(n + 1, amps, sv.exponent)


def prepare_psi_f(f: BooleanFunction) -> StateVector:
    """Run the oracle on the all-plus register with a minus ancilla and
    strip the (exactly) decoupled ancilla.

    The returned n-qubit vector has amplitudes (-1)**f(i) and exponent n,
    so it stands for (-1)**f(i) / sqrt(2**n), matching the packed sign
    state of f sign for sign.
    """
    n = f.arity
    # At MAX_N = 24 the 2**25 int8 amplitudes (state plus ancilla) are 32 MiB.
    check_arity(n)
    half = 1 << n
    amps = np.empty(2 * half, dtype=np.int8)
    amps[:half] = 1
    amps[half:] = -1
    after = apply_uf(_built(n + 1, amps, n + 1), f, n)
    lower = after.amplitudes[:half]
    if not np.array_equal(after.amplitudes[half:], -lower):
        raise RuntimeError("ancilla failed to decouple")
    return _built(n, lower.astype(np.int32), n)


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
    because W_f(0)**2 <= 2**48 < 2**53 at MAX_N = 24."""
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
    lookup ROADMAP item 3 replaces with one read off the oracle's evidence.
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
    return helstrom_error_copies(a, b, 1)


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
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N}")
    return BooleanFunction(n, 0), BooleanFunction(n, 1)
