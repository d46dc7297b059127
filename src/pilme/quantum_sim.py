"""Real-amplitude statevector simulation of the oracle circuits.

Every gate the pipelines need (bit-flip oracles, Hadamard layers, phase
flips) maps real vectors to real vectors, so amplitudes are plain
float64 arrays and signs can be read off exactly.  Measurements are
reported as exact outcome probabilities; the quantities of interest are
all 0/1 or closed-form, so nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Literal

import numpy as np

from .boolfn import BooleanFunction, classify
from .lme_state import is_osm
from .reductions import SatVerdict, TraceStep, witness_lookup

# 2**21 float64 amplitudes (state plus ancilla) is 16 MiB.
SIM_MAX_N = 20
NORM_TOL = 1e-12
_SQRT_HALF = 1.0 / math.sqrt(2.0)


class PromiseViolationError(ValueError):
    """The constant-versus-balanced subroutine was invoked outside its promise."""


@dataclass(frozen=True)
class StateVector:
    """Normalized real amplitude vector over 2**qubit_count basis states.

    Instances are immutable; gate application returns a new vector.  The
    amplitudes are copied unless `_fresh` is set, which this module does
    only for a float64 array it has just allocated and hands over.
    """

    qubit_count: int
    amplitudes: np.ndarray
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh: bool) -> None:
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be at least 1")
        amps = self.amplitudes if _fresh else np.array(self.amplitudes, dtype=np.float64, copy=True)
        if amps.shape != (1 << self.qubit_count,):
            raise ValueError("amplitude vector has the wrong length")
        if abs(float(amps @ amps) - 1.0) > NORM_TOL:
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


def _hadamard_in_place(amps: np.ndarray, n: int, qubit: int) -> None:
    """Hadamard on one qubit of a writable n-qubit float64 vector, in place.

    Each pair (lo, hi) of amplitudes 2**qubit apart becomes
    ((lo + hi) * 2**-0.5, (lo - hi) * 2**-0.5): one butterfly of the fast
    Walsh-Hadamard transform, rounded exactly like the matrix gate.
    """
    cube = amps.reshape(1 << (n - 1 - qubit), 2, 1 << qubit)
    lo, hi = cube[:, 0, :], cube[:, 1, :]
    total = lo + hi
    np.subtract(lo, hi, out=hi)
    hi *= _SQRT_HALF
    np.multiply(total, _SQRT_HALF, out=lo)


def _transpose(amps: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """amps viewed as a (rows, cols) matrix, transposed into a new flat
    array 64 rows at a time, so each strip is read from cache."""
    src = amps.reshape(rows, cols)
    out = np.empty((cols, rows))
    for start in range(0, rows, 64):
        out[:, start : start + 64] = src[start : start + 64].T
    return out.reshape(-1)


def _hadamard_layer(amps: np.ndarray, n: int) -> np.ndarray:
    """Hadamard on qubits 0, 1, ..., n-1 in turn; returns a new vector.

    A butterfly on a low qubit works on runs of 2**qubit amplitudes, and
    numpy's per-run overhead dominates short runs.  So the low half of the
    qubits runs on the transposed vector, where they are the high bits.
    Every butterfly still sees the same operands in the same order.
    """
    low = n // 2
    moved = _transpose(amps, 1 << (n - low), 1 << low)
    for qubit in range(low):
        _hadamard_in_place(moved, n, n - low + qubit)
    out = _transpose(moved, 1 << low, 1 << (n - low))
    for qubit in range(low, n):
        _hadamard_in_place(out, n, qubit)
    return out


def basis_state(qubit_count: int, index: int) -> StateVector:
    """Computational basis state |index>."""
    if not 0 <= index < (1 << qubit_count):
        raise ValueError("basis index out of range")
    amps = np.zeros(1 << qubit_count)
    amps[index] = 1.0
    return StateVector(qubit_count, amps, _fresh=True)


def apply_hadamard(sv: StateVector, qubit: int) -> StateVector:
    """Hadamard on one qubit."""
    n = sv.qubit_count
    if not 0 <= qubit < n:
        raise ValueError("qubit index out of range")
    amps = sv.amplitudes.copy()
    _hadamard_in_place(amps, n, qubit)
    return StateVector(n, amps, _fresh=True)


def apply_uf(sv: StateVector, f: BooleanFunction, ancilla_index: int) -> StateVector:
    """Oracle gate |x>|y> -> |x>|y xor f(x)>.

    The register x is read from the non-ancilla qubits in increasing
    position order.  The gate is a permutation of amplitudes, so the norm
    is preserved exactly.
    """
    n = f.arity
    if sv.qubit_count != n + 1:
        raise ValueError("state must have one more qubit than the function arity")
    if not 0 <= ancilla_index <= n:
        raise ValueError("ancilla index out of range")
    # Index (high, y, low), with low below the ancilla, holds |x = high * 2**a
    # + low>|y>, so f's table in the shape (high, low) lines up with both
    # halves.  The halves swap wherever f(x) is 1: XOR each with the masked
    # XOR of the two, on the raw float64 bits, so no branch and no rounding.
    shape = (1 << (n - ancilla_index), 2, 1 << ancilla_index)
    flips = _bit_array(f.table, 1 << n).reshape(shape[0], shape[2])
    before = sv.amplitudes.view(np.uint64).reshape(shape)
    swap = before[:, 0, :] ^ before[:, 1, :]
    swap *= flips
    amps = np.empty(1 << (n + 1))
    after = amps.view(np.uint64).reshape(shape)
    np.bitwise_xor(before[:, 0, :], swap, out=after[:, 0, :])
    np.bitwise_xor(before[:, 1, :], swap, out=after[:, 1, :])
    return StateVector(n + 1, amps, _fresh=True)


def prepare_psi_f(f: BooleanFunction) -> StateVector:
    """Run the oracle on the all-plus register with a minus ancilla and
    strip the (exactly) decoupled ancilla.

    The returned n-qubit vector has amplitudes (-1)**f(i) / sqrt(2**n),
    matching the packed sign state of f sign for sign.
    """
    n = f.arity
    if n > SIM_MAX_N:
        raise ValueError(f"arity {n} exceeds the simulator cap {SIM_MAX_N}")
    dim = 1 << (n + 1)
    amps = np.empty(dim)
    amps[: dim // 2] = 1.0 / math.sqrt(dim)
    amps[dim // 2 :] = -1.0 / math.sqrt(dim)
    after = apply_uf(StateVector(n + 1, amps, _fresh=True), f, n)
    lower = after.amplitudes[: dim // 2]
    upper = after.amplitudes[dim // 2 :]
    if not np.array_equal(upper, -lower):
        raise RuntimeError("ancilla failed to decouple")
    return StateVector(n, lower * math.sqrt(2.0), _fresh=True)


def signs_from_state(sv: StateVector) -> BooleanFunction:
    """Read the packed sign pattern off an equal-weight real state."""
    scale = 1.0 / math.sqrt(sv.amplitudes.size)
    if float(np.max(np.abs(np.abs(sv.amplitudes) - scale))) > NORM_TOL:
        raise ValueError("amplitudes are not an equal-weight sign pattern")
    return BooleanFunction(sv.qubit_count, _pack_bits(sv.amplitudes < 0))


def zero_outcome_probability(f: BooleanFunction) -> float:
    """Probability of the all-zeros outcome after a full Hadamard layer on
    the sign state of f; equals ((sum of signs) / 2**n) squared."""
    sv = prepare_psi_f(f)
    out = StateVector(sv.qubit_count, _hadamard_layer(sv.amplitudes, sv.qubit_count), _fresh=True)
    return float(out.amplitudes[0] ** 2)


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
    return ("constant" if p0 > 0.5 else "balanced"), p0


def algorithm1_end_to_end(f: BooleanFunction) -> SatVerdict:
    """Full SAT pipeline on the simulator.

    Prepare the sign state through the oracle, test product membership on
    the simulated sign pattern (the membership device itself cannot exist
    physically, so the check is classical by necessity), split constant
    from balanced, and finally read the ancilla after one oracle call on
    the all-zeros input.
    """
    trace: list[TraceStep] = []
    psi = prepare_psi_f(f)
    trace.append(
        TraceStep("prepare", 0, None, "oracle applied once to the plus register with a minus ancilla")
    )
    if not is_osm(signs_from_state(psi)):
        trace.append(TraceStep("product_test", 1, "satisfiable", "simulated state is not a product"))
        return witness_lookup(f, trace, 1)
    trace.append(
        TraceStep("product_test", 1, None, "simulated state is a product: f is constant or balanced")
    )
    outcome, _ = deutsch_jozsa(f)
    if outcome == "balanced":
        trace.append(TraceStep("deutsch_jozsa", 1, "satisfiable", "balanced"))
        return witness_lookup(f, trace, 1)
    trace.append(TraceStep("deutsch_jozsa", 1, None, "constant"))
    readout = apply_uf(basis_state(f.arity + 1, 0), f, f.arity)
    p_one = float(readout.amplitudes[1 << f.arity] ** 2)
    value = 1 if p_one > 0.5 else 0
    trace.append(
        TraceStep(
            "ancilla_readout", 1,
            "satisfiable" if value else "unsatisfiable",
            f"ancilla reads {value}",
        )
    )
    return SatVerdict(bool(value), 0 if value else None, tuple(trace))


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
