"""State simulation of up to three d-level registers, held as its support.

A state is the list of basis states where its amplitude is not exactly zero:
one integer digit column per register, in layout order, and the complex
amplitude at each of those points, as QuditState(layout, digits, values).
The dense vector, read by QuditState.from_amplitudes and built only on
request (.amplitudes), puts the register listed first in the layout at the
most significant base-d digit: for registers (H, T), |h>|t> sits at h*d + t.

Gates are pure functions returning new states and cost O(support); none
builds a d**k array except the Fourier gates below d = _FFT_MIN_D (41), whose
dense scratch array has at most 40**3 entries. Only the Fourier gates grow a
support, and below 41 the scratch array bounds it, so only the FFT path
checks MAX_SUPPORT. Each gate re-checks the 2-norm of the support and raises
NotNormalized if it drifted beyond 1e-9. The copy gate remaps the target's
digit column, the shadow phase multiplies each amplitude by the phase of its
digit, a marginal is a bincount of one digit column, and a collapse keeps
the entries holding the outcome. A measurement is outcome_probabilities (the
norm-checked law of one register) followed by collapse onto one outcome,
which returns the collapsed state; measure draws the outcome in between
(draw_outcome) and returns (outcome, collapsed state).

Every seeded output is bit-for-bit what a dense simulation gives: the
Fourier gates do a dense simulation's arithmetic exactly, and a marginal
adds in the dense reduction's order (see QuditState.marginal). Below 41 the
support is scattered into a dense scratch array and multiplied by the
cached d x d matrix; from 41 up the register's nonzero fibers are gathered,
in the order of the other registers' digits, and run through one numpy FFT
call. Either way only exact zeros are dropped from the result: round-off
amplitudes (about 1e-17 on outcomes that should be impossible) stay, since a
probability of exactly 0 draws no random number in numpy's binomial and
would shift every later draw. The only tables are the QFT matrices and the
digit columns of the dense path below 41, and the phase rows, all cached by
dimension; callers work at one d at a time, so each table below 41 keeps
one entry.
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
# Largest support a gate may build (2**24 complex128 is 256 MB): a Fourier gate
# whose output could hold more raises ValueOutOfRange before it allocates it.
MAX_SUPPORT = 2**24
# Smallest register dimension whose QFT and inverse QFT run as an FFT; below
# it they are a product with a cached dense d x d matrix. Warm per-call cost
# of a QFT on a two-register state (2-vCPU Xeon, BLAS on one thread) crosses
# between d=37 and d=47: at d=31 dense 12-17 us against FFT 17-25 us, at
# d=47 dense 22-36 us against FFT 19-25 us, and near 41 the two are within
# a few us. Cold, the dense path first builds its matrix (about 100 us at
# d=41), so there the FFT always wins. The threshold also decides which
# arithmetic a fiber gets (a BLAS product or pocketfft), and the two round
# differently in the last bit, so moving it changes seeded outputs.
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
        # Dealing is O(t**2) with t < d (1.5 s at t = 1000, d = 1009), and
        # _phase_column caches up to 256 columns of d amplitudes: the cap bounds both.
        if self.d > 1024:
            raise ValueOutOfRange("register dimension capped at 1024")
        if not 1 <= len(self.registers) <= 3:
            raise ValueOutOfRange("layout supports 1 to 3 registers")
        if len(set(self.registers)) != len(self.registers):
            raise ValueOutOfRange("register labels must be unique")

    def axis(self, register: str) -> int:
        try:
            return self.registers.index(register)
        except ValueError:
            raise UnknownRegister(f"no register {register!r} in {self.registers}") from None


class QuditState:
    """The support of a state over the layout's registers: digits[i][j] is
    register i's value at support point j, values[j] its amplitude, which is
    never exactly 0. Every basis state not listed has amplitude exactly 0.

    QuditState(layout, digits, values) stores its arguments as given.
    QuditState.from_amplitudes(layout, amplitudes) builds one from a dense
    vector of length d**k; .amplitudes gives the dense vector back."""

    __slots__ = ("layout", "digits", "values")

    def __init__(self, layout: RegisterLayout, digits: tuple, values: np.ndarray):
        self.layout = layout
        self.digits = digits
        self.values = values

    @classmethod
    def from_amplitudes(cls, layout: RegisterLayout, amplitudes: np.ndarray) -> QuditState:
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        shape = (layout.d,) * len(layout.registers)
        if amplitudes.shape != (math.prod(shape),):
            raise ValueOutOfRange(
                f"amplitude vector must have length {math.prod(shape)}, got {amplitudes.shape}"
            )
        flat = np.flatnonzero(amplitudes)
        return cls(layout, np.unravel_index(flat, shape), amplitudes[flat])

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense vector of length d**k."""
        out = np.zeros((self.layout.d,) * len(self.layout.registers), dtype=np.complex128)
        out[self.digits] = self.values
        return out.reshape(-1)

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.values, self.values).real)

    def marginal(self, register: str) -> np.ndarray:
        """Probability distribution of one register, other registers traced out.

        bincount adds each bin's entries one by one in support order, which
        is bit-for-bit the dense reduction's sum whenever, within each bin,
        no two entries share the digits of the registers before this one and
        the entries come in increasing order of those digits. Every marginal
        a protocol pass takes is like that; tests/test_qudit.py pins it."""
        values = self.values
        return np.bincount(
            self.digits[self.layout.axis(register)],
            weights=values.real**2 + values.imag**2,
            minlength=self.layout.d,
        )


def basis_state(layout: RegisterLayout, values: dict[str, int]) -> QuditState:
    """Computational basis state with the given value per register."""
    if set(values) != set(layout.registers):
        missing = set(layout.registers) ^ set(values)
        raise UnknownRegister(f"values must cover the layout exactly, mismatch: {missing}")
    for label in layout.registers:
        v = values[label]
        if not 0 <= v < layout.d:
            raise ValueOutOfRange(f"value {v} for register {label!r} not in [0, {layout.d})")
    digits = tuple([np.array([values[label]], dtype=np.intp) for label in layout.registers])
    return QuditState(layout, digits, np.array([1.0 + 0j]))


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
def _basis_digits(d: int, k: int) -> tuple:
    """The k digit columns of every flat index of a d**k vector, for the
    dense Fourier path below _FFT_MIN_D (at most 3 x 40**3 entries)."""
    columns = tuple(np.indices((d,) * k).reshape(k, -1))
    for column in columns:
        column.setflags(write=False)
    return columns


@lru_cache(maxsize=256)
def _phase_column(d: int, shadow_value: int) -> np.ndarray:
    """exp(2 pi i * s * value / d) for value in [0, d), shape (d,): indexed by
    a digit column it gives each support point its phase."""
    phases = np.exp(2j * np.pi * shadow_value * np.arange(d) / d)
    phases.setflags(write=False)
    return phases


def _check_norm(values: np.ndarray, tol: float) -> None:
    n2 = float(np.vdot(values, values).real)
    if abs(n2 - 1.0) > 2 * tol:
        raise NotNormalized(f"state norm {math.sqrt(n2)} deviates from 1 beyond {tol}")


def _apply_fourier(state: QuditState, register: str, inverse: bool) -> QuditState:
    layout = state.layout
    d = layout.d
    axis = layout.axis(register)
    digits = state.digits
    if d < _FFT_MIN_D:
        # The dense product, on a scratch array of at most 40**3 entries.
        scratch = np.zeros((d,) * len(digits), dtype=np.complex128)
        scratch[digits] = state.values
        view = scratch.reshape(d**axis, d, -1)
        out = ((_iqft_matrix if inverse else _qft_matrix)(d) @ view).reshape(-1)
        flat = out.nonzero()[0]
        values = out[flat]
        digits = tuple([column[flat] for column in _basis_digits(d, len(digits))])
    else:
        # A fiber is the register's d amplitudes with the other registers
        # held fixed. The gate maps a zero fiber to zero, so only nonzero
        # fibers are transformed, in one batch ordered by the flat index of
        # the other registers' digits. numpy's ifft has the QFT's sign;
        # np.fft is reached here because `import numpy` does not load it.
        others = [column for i, column in enumerate(digits) if i != axis]
        shape = (d,) * len(others)
        key = np.ravel_multi_index(others, shape) if others else np.zeros_like(digits[axis])
        keys, fiber = np.unique(key, return_inverse=True)
        if len(keys) * d > MAX_SUPPORT:
            raise ValueOutOfRange(f"{len(keys) * d} entries exceed the support budget {MAX_SUPPORT}")
        fibers = np.zeros((len(keys), d), dtype=np.complex128)
        fibers[fiber, digits[axis]] = state.values
        transform = np.fft.fft if inverse else np.fft.ifft
        out = transform(fibers, axis=1, norm="ortho")
        rows, column = np.nonzero(out)
        values = out[rows, column]
        rest = list(np.unravel_index(keys[rows], shape)) if others else []
        digits = tuple(rest[:axis] + [column] + rest[axis:])
    _check_norm(values, _GATE_NORM_TOL)
    return QuditState(layout, digits, values)


def apply_qft(state: QuditState, register: str) -> QuditState:
    """|s> -> (1/sqrt d) sum_q exp(2 pi i s q / d) |q> on one register."""
    return _apply_fourier(state, register, inverse=False)


def apply_iqft(state: QuditState, register: str) -> QuditState:
    """Inverse of apply_qft (conjugate transpose; the matrix is symmetric)."""
    return _apply_fourier(state, register, inverse=True)


def apply_copy(state: QuditState, control: str, target: str) -> QuditState:
    """Self-inverse copy gate: |a>|0> -> |a>|a> and |a>|a> -> |a>|0>.

    The gate is bitwise XOR on the c-bit encodings, exactly the CNOT^(x)c
    cascade on qubit registers: target t becomes c XOR t. For non-power-of-two
    d some XOR results fall outside [0, d); those pairs (never produced by an
    honest run, whose targets are only ever |0> or a copy of the control) are
    left unchanged, which keeps the gate a self-inverse permutation of the
    basis. It only rewrites the target's digit column.
    """
    if control == target:
        raise SameRegister(f"control and target are both {control!r}")
    layout = state.layout
    c_axis, t_axis = layout.axis(control), layout.axis(target)
    t = state.digits[t_axis]
    x = state.digits[c_axis] ^ t
    digits = list(state.digits)
    digits[t_axis] = np.where(x < layout.d, x, t)
    _check_norm(state.values, _GATE_NORM_TOL)
    return QuditState(layout, tuple(digits), state.values)


def apply_shadow_phase(state: QuditState, register: str, shadow: int) -> QuditState:
    """Phase-kickback form of the shadow oracle: |k> gains exp(2 pi i s k / d).

    The player's eigenstate stays a fixed computational basis state throughout
    the protocol and factors out, so only this diagonal on the transmitted
    register is simulated.
    """
    layout = state.layout
    d = layout.d
    if not 0 <= shadow < d:
        raise ValueOutOfRange(f"shadow {shadow} not in [0, {d})")
    values = state.values * _phase_column(d, shadow)[state.digits[layout.axis(register)]]
    _check_norm(values, _GATE_NORM_TOL)
    return QuditState(layout, state.digits, values)


def outcome_probabilities(state: QuditState, register: str) -> np.ndarray:
    """Distribution of a computational-basis measurement of one register,
    after the measurement norm check."""
    _check_norm(state.values, _MEASURE_NORM_TOL)
    return state.marginal(register)


def collapse(state: QuditState, register: str, value: int, probs: np.ndarray) -> QuditState:
    """The state after outcome `value` of measuring `register`: projected onto
    it and renormalised by its probability probs[value] (see
    outcome_probabilities)."""
    hit = state.digits[state.layout.axis(register)] == value
    digits = tuple([column[hit] for column in state.digits])
    return QuditState(state.layout, digits, state.values[hit] / math.sqrt(probs[value]))


def draw_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One outcome drawn from a law by inverse CDF, so the outcome is a
    deterministic function of the rng stream."""
    cdf = np.cumsum(probs)
    # Scaling by cdf[-1] absorbs sub-tolerance norm error and guarantees the
    # draw never lands past the last value with positive probability.
    value = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(value, len(probs) - 1)


def measure(
    state: QuditState, register: str, rng: np.random.Generator
) -> tuple[int, QuditState]:
    """Projective measurement of one register in the computational basis,
    drawn by draw_outcome: (outcome, collapsed state)."""
    probs = outcome_probabilities(state, register)
    value = draw_outcome(probs, rng)
    return value, collapse(state, register, value, probs)
