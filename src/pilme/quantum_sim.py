"""Exact integer statevector simulation of the oracle circuits.

The one gate the pipelines apply is the bit-flip oracle U_f, with the
ancilla as the top qubit.  It permutes amplitudes, so a state is an int32
vector a with one exponent e, standing for a * 2**(-e/2), and every
outcome probability is an exact dyadic rational: nothing is rounded.
Each pipeline prepares psi_f once, on a +-1 int8 oracle register the gate
permutes tile by tile, and reads its int8 half only inside this module:
every state a caller builds or receives is int32.  At n = 24
`algorithm1_end_to_end` peaks at 67 MiB and `prepare_psi_f` at 96 MiB.
The all-zeros outcome after a Hadamard layer is read as one amplitude,
<0...0|H...H|psi> = <+...+|psi>, the scaled sum of the amplitudes, and
the ancilla readout on a basis state is simulated on its one-element
support, so neither runs on a full register.

A `StateVector` built by a caller is checked once, as it is constructed;
the arrays this module allocates itself are normalized by construction
and are wrapped without a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .boolfn import _BLOCK_BITS, MAX_N, BooleanFunction, check_arity, classify, evaluate
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
    (int8 only for the oracle register this module keeps to itself).

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


def apply_uf(sv: StateVector, f: BooleanFunction) -> StateVector:
    """Oracle gate |x>|y> -> |x>|y xor f(x)>, with the ancilla y on top:
    it is index bit n, so the state's halves are |x>|0> and |x>|1>.

    The gate is a permutation of amplitudes, so the exponent is unchanged,
    and so is the dtype: int32 for a caller's state, int8 for the oracle
    register this module keeps to itself.  It runs on 2**_BLOCK_BITS
    inputs x at a time and frees each tile's temporaries before the next
    tile allocates, so it allocates only its output beyond one tile.
    """
    n = f.arity
    if sv.qubit_count != n + 1:
        raise ValueError("state must have one more qubit than the function arity")
    # The halves swap wherever f(x) is 1: XOR each with the masked XOR of the
    # two, so no branch.  The 0/1 flips are viewed as int8: as uint8 they
    # would mask an int8 register through a widening loop, ~4x slower.
    amps = np.empty(1 << (n + 1), dtype=sv.amplitudes.dtype)
    before, after = sv.amplitudes.reshape(2, f.size), amps.reshape(2, f.size)
    raw = np.frombuffer(f.table.to_bytes(max(f.size >> 3, 1), "little"), dtype=np.uint8)
    tile = min(f.size, 1 << _BLOCK_BITS)
    for start in range(0, f.size, tile):
        x = np.s_[start : start + tile]
        flips = np.unpackbits(raw[start >> 3 : (start + tile + 7) >> 3], bitorder="little")[:tile].view(np.int8)
        lower, upper = before[:, x]
        swap = lower ^ upper
        swap *= flips
        np.bitwise_xor(lower, swap, out=after[0, x])
        np.bitwise_xor(upper, swap, out=after[1, x])
        del flips, swap
    return _built(n + 1, amps, sv.exponent)


def _psi_f(f: BooleanFunction) -> StateVector:
    """`prepare_psi_f`'s state as the int8 lower half of the oracle output,
    which would wrap under a caller's arithmetic, so it stays in the module."""
    n = f.arity
    # At MAX_N = 24 the 2**25 int8 amplitudes (state plus ancilla) are 32 MiB.
    check_arity(n)
    half = 1 << n
    amps = np.empty(2 * half, dtype=np.int8)
    amps[:half] = 1
    amps[half:] = -1
    after = apply_uf(_built(n + 1, amps, n + 1), f).amplitudes
    lower, upper = after[:half], after[half:]
    tile = 1 << _BLOCK_BITS
    for start in range(0, half, tile):
        if not np.array_equal(upper[start : start + tile], -lower[start : start + tile]):
            raise RuntimeError("ancilla failed to decouple")
    return _built(n, lower, n)


def prepare_psi_f(f: BooleanFunction) -> StateVector:
    """Run the oracle on the all-plus register with a minus ancilla and
    strip the (exactly) decoupled ancilla.

    The returned n-qubit vector has amplitudes (-1)**f(i) and exponent n,
    so it stands for (-1)**f(i) / sqrt(2**n), matching the packed sign
    state of f sign for sign.  It is widened to int32 on return.
    """
    psi = _psi_f(f)
    return _built(psi.qubit_count, psi.amplitudes.astype(np.int32), psi.exponent)


def signs_from_state(sv: StateVector) -> BooleanFunction:
    """Read the packed sign pattern off an equal-weight real state."""
    magnitude = abs(int(sv.amplitudes[0]))
    if (np.abs(sv.amplitudes) != magnitude).any():
        raise ValueError("amplitudes are not an equal-weight sign pattern")
    packed = np.packbits(sv.amplitudes < 0, bitorder="little")
    return BooleanFunction(sv.qubit_count, int.from_bytes(packed.tobytes(), "little"))


def zero_outcome_probability(f: BooleanFunction) -> float:
    """Probability of the all-zeros outcome after a full Hadamard layer on
    the sign state of f.  That amplitude is <+...+|psi_f>, so only it is
    computed: the sum of the 2**n amplitudes (-1)**f(x) is W_f(0), the
    layer's unscaled amplitude 0, at exponent 2n.  So this is
    W_f(0)**2 / 2**(2n) = ((2**n - 2|f|) / 2**n)**2, exact in a float
    because W_f(0)**2 <= 2**48 < 2**53 at MAX_N = 24."""
    w = int(_psi_f(f).amplitudes.sum(dtype=np.int64))
    return math.ldexp(w * w, -2 * f.arity)


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
    the all-zeros input.  psi_f is prepared once: a product sign state is
    constant or balanced, so the split is W_f(0), the sum of psi_f, with
    no promise check, and U_f|0...0>|0> = |0...0>|f(0)> is simulated on
    its one-element support as one point evaluation.  Like
    `reductions.turing_reduce_sat`, it ends through `SatVerdict`'s two
    constructors, whose one `sat_brute` witness lookup ROADMAP item 4
    replaces with one read off the oracle's evidence.
    """
    trace: list[TraceStep] = []
    psi = _psi_f(f)
    trace.append(
        TraceStep("prepare", 0, None, "oracle applied once to the plus register with a minus ancilla")
    )
    if not is_osm(signs_from_state(psi)):
        return SatVerdict.satisfiable_at(f, trace, "product_test", 1, "simulated state is not a product")
    trace.append(
        TraceStep("product_test", 1, None, "simulated state is a product: f is constant or balanced")
    )
    if not psi.amplitudes.sum(dtype=np.int64):
        return SatVerdict.satisfiable_at(f, trace, "deutsch_jozsa", 1, "balanced")
    trace.append(TraceStep("deutsch_jozsa", 1, None, "constant"))
    value = evaluate(f, 0)
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
