"""Dense state-vector simulation of up to three d-level registers.

Index convention: the register listed first in the layout is the most
significant base-d digit of the flat amplitude index, so for registers
(H, T) the basis state |h>|t> sits at index h*d + t.

Gates are pure functions returning new states. Each gate re-checks the
2-norm and raises NotNormalized if it drifted beyond 1e-9. A single-register
gate acts on the state viewed as (d**axis, d, rest), so every axis takes the
same path. A measurement is outcome_probabilities (the norm-checked law of
one register) followed by collapse onto one outcome; measure draws the
outcome in between. Below d = _FFT_MIN_D (41) the QFT and its inverse are
a product with a dense d x d matrix; from 41 up they are an FFT over the
register's nonzero fibers and build no table. The other per-gate tables
(copy permutation, phase column), and the QFT matrices below 41, sit in
caches keyed by dimension. Callers work at one d at a time, so each d x d
table keeps one entry and the copy permutation the two a three-register
run alternates between.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    NotNormalized,
    SameRegister,
    UnknownRegister,
    ValueOutOfRange,
)

_GATE_NORM_TOL = 1e-9
_MEASURE_NORM_TOL = 1e-6
# Largest state vector a layout may ask for: 2**24 complex amplitudes is
# 256 MB, plus an int64 copy permutation of the same length.
MAX_AMPLITUDES = 2**24
# Smallest register dimension whose QFT and inverse QFT run as an FFT; below
# it they are a product with a cached dense d x d matrix. Warm per-call cost
# of a QFT on a two-register state (2-vCPU Xeon, BLAS on one thread) crosses
# between d=37 and d=47: at d=31 dense 12-17 us against FFT 17-25 us, at
# d=47 dense 22-36 us against FFT 19-25 us, and near 41 the two are within
# a few us. Cold, the dense path first builds its matrix (about 100 us at
# d=41), so there the FFT always wins.
_FFT_MIN_D = 41


@dataclass(frozen=True)
class RegisterLayout:
    """Dimension d and ordered register labels (home H, transmitted T, and
    optionally one adversary ancilla)."""

    d: int
    registers: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueOutOfRange("register dimension must be at least 2")
        if self.d > 1024:
            raise ValueOutOfRange("register dimension capped at 1024")
        if not 1 <= len(self.registers) <= 3:
            raise ValueOutOfRange("layout supports 1 to 3 registers")
        if len(set(self.registers)) != len(self.registers):
            raise ValueOutOfRange("register labels must be unique")
        if self.d ** len(self.registers) > MAX_AMPLITUDES:
            raise ValueOutOfRange(
                f"{len(self.registers)} registers of dimension {self.d} need "
                f"{self.d ** len(self.registers)} amplitudes, above the budget of {MAX_AMPLITUDES}"
            )

    @property
    def qubits_per_register(self) -> int:
        """c = ceil(log2 d), the width of the equivalent qubit register."""
        return (self.d - 1).bit_length()

    def axis(self, register: str) -> int:
        try:
            return self.registers.index(register)
        except ValueError:
            raise UnknownRegister(f"no register {register!r} in {self.registers}") from None


class QuditState:
    """Complex amplitudes over the layout's registers (length d**k)."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: RegisterLayout, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        expected = layout.d ** len(layout.registers)
        if amplitudes.shape != (expected,):
            raise ValueOutOfRange(
                f"amplitude vector must have length {expected}, got {amplitudes.shape}"
            )
        self.layout = layout
        self.amplitudes = amplitudes

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)

    def split(self, register: str) -> np.ndarray:
        """Amplitudes viewed as (d**axis, d, rest), the register in the middle."""
        d = self.layout.d
        return self.amplitudes.reshape(d ** self.layout.axis(register), d, -1)

    def marginal(self, register: str) -> np.ndarray:
        """Probability distribution of one register, other registers traced out."""
        amps = self.split(register)
        return (amps.real**2 + amps.imag**2).sum(axis=(0, 2))


@dataclass(frozen=True)
class MeasurementOutcome:
    register: str
    value: int
    post_state: QuditState


def basis_state(layout: RegisterLayout, values: dict[str, int]) -> QuditState:
    """Computational basis state with the given value per register."""
    if set(values) != set(layout.registers):
        missing = set(layout.registers) ^ set(values)
        raise UnknownRegister(f"values must cover the layout exactly, mismatch: {missing}")
    index = 0
    for label in layout.registers:
        v = values[label]
        if not 0 <= v < layout.d:
            raise ValueOutOfRange(f"value {v} for register {label!r} not in [0, {layout.d})")
        index = index * layout.d + v
    amps = np.zeros(layout.d ** len(layout.registers), dtype=np.complex128)
    amps[index] = 1.0
    return QuditState(layout, amps)


@lru_cache(maxsize=1)
def _qft_matrix(d: int) -> np.ndarray:
    q = np.arange(d)
    m = np.exp(2j * np.pi * np.outer(q, q) / d) / math.sqrt(d)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1)
def _iqft_matrix(d: int) -> np.ndarray:
    m = _qft_matrix(d).conj()
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1)
def _copy_table(d: int) -> np.ndarray:
    """Target-value table of the copy gate: entry [a, b] is the target value
    that basis pair (a, b) maps to.

    The gate is bitwise XOR on the c-bit encodings, exactly the CNOT^(x)c
    cascade on qubit registers. For non-power-of-two d some XOR results fall
    outside [0, d); those pairs (never produced by an honest run, whose
    targets are only ever |0> or a copy of the control) are left unchanged,
    which keeps the table a self-inverse permutation in every row.
    """
    a = np.arange(d)[:, None]
    b = np.arange(d)[None, :]
    x = a ^ b
    table = np.where(x < d, x, b)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=2)
def _copy_permutation(d: int, k: int, c_axis: int, t_axis: int) -> np.ndarray:
    """Flat gather indices realizing the copy gate on a d**k state: the gate
    is an involution, so out = amps[perm] with perm[dest] = source = dest
    with the target digit re-mapped through _copy_table. The shift comes
    from sparse digit grids, so the only d**k array built is perm itself."""
    grid = np.indices((d,) * k, sparse=True)
    perm = np.arange(d**k).reshape((d,) * k)
    perm += (_copy_table(d)[grid[c_axis], grid[t_axis]] - grid[t_axis]) * d ** (k - 1 - t_axis)
    perm = perm.reshape(-1)
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=256)
def _phase_column(d: int, shadow_value: int) -> np.ndarray:
    """exp(2 pi i * s * value / d) for value in [0, d), as a (d, 1) column
    that broadcasts over a state split at the register's axis."""
    phases = np.exp(2j * np.pi * shadow_value * np.arange(d) / d).reshape(d, 1)
    phases.setflags(write=False)
    return phases


def _check_norm(amps: np.ndarray, tol: float) -> None:
    n2 = np.vdot(amps, amps).real
    if abs(n2 - 1.0) > 2 * tol:
        raise NotNormalized(f"state norm {math.sqrt(n2)} deviates from 1 beyond {tol}")


def _apply_fourier(state: QuditState, register: str, inverse: bool) -> QuditState:
    d = state.layout.d
    view = state.split(register)
    if d < _FFT_MIN_D:
        out = (_iqft_matrix if inverse else _qft_matrix)(d) @ view
    else:
        # A fiber is the register's d amplitudes with the other registers
        # held fixed. The gate maps a zero fiber to zero, so only nonzero
        # fibers are transformed. numpy's ifft has the QFT's sign; np.fft
        # is reached here because `import numpy` does not load it.
        a, b = view.any(axis=1).nonzero()
        out = np.zeros(view.shape, dtype=np.complex128)
        transform = np.fft.fft if inverse else np.fft.ifft
        out[a, :, b] = transform(view[a, :, b], axis=1, norm="ortho")
    out = out.reshape(-1)
    _check_norm(out, _GATE_NORM_TOL)
    return QuditState(state.layout, out)


def apply_qft(state: QuditState, register: str) -> QuditState:
    """|s> -> (1/sqrt d) sum_q exp(2 pi i s q / d) |q> on one register."""
    return _apply_fourier(state, register, inverse=False)


def apply_iqft(state: QuditState, register: str) -> QuditState:
    """Inverse of apply_qft (conjugate transpose; the matrix is symmetric)."""
    return _apply_fourier(state, register, inverse=True)


def apply_copy(state: QuditState, control: str, target: str) -> QuditState:
    """Self-inverse copy gate: |a>|0> -> |a>|a> and |a>|a> -> |a>|0>.

    See _copy_table for the exact basis permutation.
    """
    if control == target:
        raise SameRegister(f"control and target are both {control!r}")
    layout = state.layout
    perm = _copy_permutation(
        layout.d, len(layout.registers), layout.axis(control), layout.axis(target)
    )
    out = state.amplitudes[perm]
    _check_norm(out, _GATE_NORM_TOL)
    return QuditState(layout, out)


def apply_shadow_phase(state: QuditState, register: str, shadow: int) -> QuditState:
    """Phase-kickback form of the shadow oracle: |k> gains exp(2 pi i s k / d).

    The player's eigenstate stays a fixed computational basis state throughout
    the protocol and factors out, so only this diagonal on the transmitted
    register is simulated.
    """
    d = state.layout.d
    if not 0 <= shadow < d:
        raise ValueOutOfRange(f"shadow {shadow} not in [0, {d})")
    out = (state.split(register) * _phase_column(d, shadow)).reshape(-1)
    _check_norm(out, _GATE_NORM_TOL)
    return QuditState(state.layout, out)


def outcome_probabilities(state: QuditState, register: str) -> np.ndarray:
    """Distribution of a computational-basis measurement of one register,
    after the measurement norm check."""
    _check_norm(state.amplitudes, _MEASURE_NORM_TOL)
    return state.marginal(register)


def collapse(
    state: QuditState, register: str, value: int, probs: np.ndarray
) -> MeasurementOutcome:
    """Outcome `value` of measuring `register`: the state projected onto it and
    renormalised by its probability probs[value] (see outcome_probabilities)."""
    shaped = state.split(register)
    collapsed = np.zeros_like(shaped)
    collapsed[:, value, :] = shaped[:, value, :] / math.sqrt(probs[value])
    post = QuditState(state.layout, collapsed.reshape(-1))
    return MeasurementOutcome(register=register, value=value, post_state=post)


def measure(state: QuditState, register: str, rng: np.random.Generator) -> MeasurementOutcome:
    """Projective measurement of one register in the computational basis.

    Samples from the register marginal by inverse CDF, so the outcome is a
    deterministic function of the rng stream.
    """
    probs = outcome_probabilities(state, register)
    cdf = np.cumsum(probs)
    # Scaling by cdf[-1] absorbs sub-tolerance norm error and guarantees the
    # draw never lands past the last value with positive probability.
    value = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    value = min(value, state.layout.d - 1)
    return collapse(state, register, value, probs)
