"""State simulation of up to three d-level registers, held as its support.

A state is the list of basis states where its amplitude is not exactly zero:
one integer digit column per register, in layout order, and the complex
amplitude at each of those points, as QuditState(layout, digits, values).
The dense vector, read by QuditState.from_amplitudes and built only on
request (.amplitudes), puts the register listed first in the layout at the
most significant base-d digit: for registers (H, T), |h>|t> sits at h*d + t.

A batch stacks independent states of one layout, its members; each gate acts
on every member, in one call, as on that member alone, bit for bit.

Gates are pure functions returning new states and cost O(support); none
builds a d**k array except the Fourier gates below d = _FFT_MIN_D (41), whose
dense view has at most 40**3 entries per member. Only the Fourier gates grow
a support, and below 41 the dense view bounds it, so only the FFT path checks
MAX_SUPPORT, which bounds a whole batch. Each gate re-checks the 2-norm of
each member's support and raises NotNormalized if it drifted beyond 1e-9. The
copy gate remaps the target's digit column, the shadow phase multiplies each
amplitude by the phase of its digit, a marginal is a bincount of one digit
column, and a collapse keeps the entries holding the outcome. A measurement
is outcome_probabilities (the norm-checked law of one register) followed by
collapse onto one outcome, which returns the collapsed state; measure draws
the outcome in between (draw_outcome) and returns (outcome, collapsed state).

Below 41 the dense view (.amplitudes) is multiplied by the cached d x d QFT
matrix, or by its conjugate, and read back by from_amplitudes; from 41 up
the register's nonzero fibers are gathered, in order of the member and the
other digits, and run through one numpy FFT call. The two round differently
in the last bit, but no seeded output sees it: the engine snaps every law
to a 1e-12 grid before it draws (protocol._split), so a law value moves the
draw only if it lies within about 1e-16 of a grid boundary. Either way
only exact zeros are dropped from a gate's result: round-off amplitudes
(about 1e-17 on outcomes that should be impossible) stay, and snap to a
probability of exactly 0, which draws no random number. A marginal adds in
the dense reduction's order (see QuditState.marginal). The only tables are
the d-th roots of unity, indexed by exponent mod d, and the QFT matrix below
41, built from them; callers work at one d at a time, so each keeps one entry.
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
# a few us. Cold, the dense path first builds its matrix (about 25-40 us
# at d=41), so there the FFT always wins. The threshold also decides which
# arithmetic a fiber gets (a BLAS product or pocketfft). The two round
# differently in the last bit, which moves states (TestStateGolden pins them)
# but no seeded output, since each law is snapped before it is drawn, so the
# threshold can be chosen on speed alone.
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
        # Dealing is O(t**2) with t < d (1.5 s at t = 1000, d = 1009): the cap bounds it.
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

    A batch of `batch` members leads its digits with each point's member, in
    increasing order; a lone state has batch None. QuditState(layout, digits,
    values, batch=None) stores its arguments as given. from_amplitudes(layout,
    amplitudes, batch=None) reads a dense vector of length d**k per member, in
    member order, and .amplitudes gives that vector back."""

    __slots__ = ("layout", "digits", "values", "batch")

    def __init__(self, layout: RegisterLayout, digits: tuple, values: np.ndarray, batch=None):
        self.layout = layout
        self.digits = digits
        self.values = values
        self.batch = batch

    @classmethod
    def from_amplitudes(cls, layout: RegisterLayout, amplitudes: np.ndarray,
                        batch: int | None = None) -> QuditState:
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        shape = _shape(layout, batch)
        if amplitudes.shape != (math.prod(shape),):
            raise ValueOutOfRange(
                f"amplitude vector must have length {math.prod(shape)}, got {amplitudes.shape}"
            )
        flat = np.flatnonzero(amplitudes)
        return cls(layout, np.unravel_index(flat, shape), amplitudes[flat], batch)

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense vector of length d**k, one per member in member order."""
        out = np.zeros(_shape(self.layout, self.batch), dtype=np.complex128)
        out[self.digits] = self.values
        return out.reshape(-1)

    def column(self, register: str) -> np.ndarray:
        """The register's digit column."""
        return self.digits[self.layout.axis(register) + (self.batch is not None)]

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.values, self.values).real)

    def marginal(self, register: str) -> np.ndarray:
        """Probability distribution of one register, other registers traced
        out; on a batch, one row per member.

        bincount adds each bin's entries one by one in support order, which
        is bit-for-bit the dense reduction's sum whenever, within each bin,
        no two entries share the digits of the registers before this one and
        the entries come in increasing order of those digits. Every marginal
        a protocol pass takes is like that; tests/test_qudit.py pins it. On a
        batch a bin holds one member's points, in that member's order."""
        values, d, bins = self.values, self.layout.d, self.column(register)
        if self.batch is not None:
            bins = self.digits[0] * d + bins
        weights = values.real**2 + values.imag**2
        law = np.bincount(bins, weights=weights, minlength=(self.batch or 1) * d)
        return law if self.batch is None else law.reshape(self.batch, d)


def _shape(layout: RegisterLayout, batch: int | None) -> tuple[int, ...]:
    """The dense view's shape, led by the member axis on a batch."""
    return (() if batch is None else (batch,)) + (layout.d,) * len(layout.registers)


def basis_state(layout: RegisterLayout, values: dict[str, int | list[int]]) -> QuditState:
    """Computational basis state with the given value per register. Values
    given as a list, one per member, make a batch of that many members, in
    which every register given an int holds it in each member."""
    if set(values) != set(layout.registers):
        missing = set(layout.registers) ^ set(values)
        raise UnknownRegister(f"values must cover the layout exactly, mismatch: {missing}")
    columns = [values[label] for label in layout.registers]
    batch = next((len(c) for c in columns if isinstance(c, list)), None)
    for label, column in zip(layout.registers, columns):
        for v in column if isinstance(column, list) else [column]:
            if not 0 <= v < layout.d:
                raise ValueOutOfRange(f"value {v} for register {label!r} not in [0, {layout.d})")
    if batch is None:
        digits = tuple([np.array([c], dtype=np.intp) for c in columns])
        return QuditState(layout, digits, np.array([1.0 + 0j]))
    columns = [list(range(batch))] + [c if isinstance(c, list) else [c] * batch for c in columns]
    return QuditState(layout, tuple(np.array(columns, np.intp)), np.ones(batch, complex), batch)


@lru_cache(maxsize=1)
def _roots(d: int) -> np.ndarray:
    """exp(2 pi i j / d) for j in [0, d): every phase, indexed by its exponent mod d."""
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=1)
def _qft_matrix(d: int) -> np.ndarray:
    q = np.arange(d)
    m = _roots(d)[np.outer(q, q) % d] / math.sqrt(d)
    m.setflags(write=False)
    return m


def _check_norm(state: QuditState, tol: float) -> QuditState:
    """The state, once its 2-norm (each member's) is 1 within tol, else NotNormalized."""
    values = state.values
    if state.batch is None:
        n2 = float(np.vdot(values, values).real)
    else:  # the member whose norm is furthest from 1
        n2s = np.bincount(state.digits[0], values.real**2 + values.imag**2, state.batch)
        n2 = float(n2s[np.abs(n2s - 1.0).argmax()])
    if abs(n2 - 1.0) > 2 * tol:
        raise NotNormalized(f"state norm {math.sqrt(n2)} deviates from 1 beyond {tol}")
    return state


def _apply_fourier(state: QuditState, register: str, inverse: bool) -> QuditState:
    layout = state.layout
    d = layout.d
    axis = layout.axis(register)
    batch = state.batch
    if d < _FFT_MIN_D:
        # The dense product, on the dense view of at most 40**3 entries per
        # member; a batch's member axis leads, so each member's is its own.
        m = _qft_matrix(d).conj() if inverse else _qft_matrix(d)
        lead = () if batch is None else (batch,)
        out = m @ state.amplitudes.reshape(*lead, d**axis, d, -1)
        result = QuditState.from_amplitudes(layout, out.reshape(-1), batch)
    else:
        # A fiber is the register's d amplitudes with the member and the
        # other registers held fixed. The gate maps a zero fiber to zero, so
        # only nonzero fibers are transformed, in one call ordered by the flat
        # index of the member and the other registers' digits. numpy's ifft has
        # the QFT's sign; np.fft is reached here as `import numpy` skips it.
        digits = state.digits
        axis += batch is not None
        others = [column for i, column in enumerate(digits) if i != axis]
        shape = _shape(layout, batch)[:-1]  # every register has d values
        key = np.ravel_multi_index(others, shape) if others else np.zeros_like(digits[axis])
        keys, fiber = np.unique(key, return_inverse=True)
        if len(keys) * d > MAX_SUPPORT:
            raise ValueOutOfRange(f"{len(keys) * d} entries exceed the support budget {MAX_SUPPORT}")
        fibers = np.zeros((len(keys), d), dtype=np.complex128)
        fibers[fiber, digits[axis]] = state.values
        transform = np.fft.fft if inverse else np.fft.ifft
        out = transform(fibers, axis=1, norm="ortho")
        rows, column = np.nonzero(out)
        rest = list(np.unravel_index(keys[rows], shape)) if others else []
        digits = tuple(rest[:axis] + [column] + rest[axis:])
        result = QuditState(layout, digits, out[rows, column], batch)
    return _check_norm(result, _GATE_NORM_TOL)


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
    t_axis = layout.axis(target) + (state.batch is not None)
    t = state.digits[t_axis]
    x = state.column(control) ^ t
    digits = list(state.digits)
    digits[t_axis] = np.where(x < layout.d, x, t)
    _check_norm(state, _GATE_NORM_TOL)
    return QuditState(layout, tuple(digits), state.values, state.batch)


def apply_shadow_phase(state: QuditState, register: str, shadow: int | list[int]) -> QuditState:
    """Phase-kickback form of the shadow oracle: |k> gains exp(2 pi i s k / d);
    a batch takes one shadow s per member.

    The player's eigenstate stays a fixed computational basis state throughout
    the protocol and factors out, so only this diagonal on the transmitted
    register is simulated.
    """
    d, column = state.layout.d, state.column(register)
    if state.batch is None:
        if not 0 <= shadow < d:
            raise ValueOutOfRange(f"shadow {shadow} not in [0, {d})")
    else:
        if len(shadow) != state.batch or not all(0 <= s < d for s in shadow):
            raise ValueOutOfRange(f"shadows {shadow} not in [0, {d}), one per member")
        shadow = np.array(shadow)[state.digits[0]]
    phases = _roots(d)[shadow * column % d]
    result = QuditState(state.layout, state.digits, state.values * phases, state.batch)
    return _check_norm(result, _GATE_NORM_TOL)


def outcome_probabilities(state: QuditState, register: str) -> np.ndarray:
    """Distribution of a computational-basis measurement of one register,
    after the measurement norm check; on a batch, one row per member."""
    return _check_norm(state, _MEASURE_NORM_TOL).marginal(register)


def collapse(state: QuditState, register: str, value, probs: np.ndarray) -> QuditState:
    """The state after outcome `value` of measuring `register`: projected onto
    it and renormalised by its probability probs[value] (see
    outcome_probabilities). On a batch, value maps each member to keep to its
    outcome, each is renormalised by its own law, and they are numbered anew
    in order; the other members are dropped."""
    column = state.column(register)
    if state.batch is None:
        hit = column == value
        digits = tuple([c[hit] for c in state.digits])
        return QuditState(state.layout, digits, state.values[hit] / math.sqrt(probs[value]))
    onto = np.array([value.get(b, -1) for b in range(state.batch)])  # -1 matches no digit
    members = state.digits[0]
    hit = column == onto[members]
    members = members[hit]
    scale = np.sqrt(probs[np.arange(state.batch), onto])[members]
    digits = ((np.cumsum(onto >= 0) - 1)[members], *[c[hit] for c in state.digits[1:]])
    return QuditState(state.layout, digits, state.values[hit] / scale, len(value))


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
