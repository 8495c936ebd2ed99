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
builds a d**k array except the Fourier gates below d = _FFT_MIN_D (41), and
only when that dense view has fewer than 41**2 entries per member. Only the
Fourier gates grow a support, and on the dense path the dense view bounds it,
so only the fiber path checks MAX_SUPPORT, which bounds a whole batch. Each
gate, and each measurement before it reads its law, checks the 2-norm of
each member's support and raises NotNormalized if it is off 1 by more than
one tolerance, 1e-9 (_NORM_TOL): a state a pass measures comes out of a gate
or of a collapse, which renormalises by the law it was cut from, so no
looser bound is needed. The copy gate remaps the target's digit column,
the shadow phase multiplies each amplitude by the phase of its digit, a
marginal is a bincount of one digit column, and a collapse keeps the entries
holding the outcome. A measurement is outcome_probabilities (the norm-checked
law of one register) followed by collapse onto one outcome, which returns the
collapsed state; measure draws the outcome in between (draw_outcome) and
returns (outcome, collapsed state).

On the dense path the dense view (.amplitudes) is multiplied by the cached
d x d QFT matrix, or by its conjugate, and read back by from_amplitudes.
Otherwise the register's nonzero fibers are taken in order of the member and
the other digits: a fiber of one point becomes its amplitude times one row of
the roots table, and the fibers of two or more points go through one numpy
FFT call. The arithmetic of the two paths rounds differently in the last bit,
but no seeded output sees it: the engine snaps every law to a 1e-12 grid
before it draws (protocol._split), so a law value moves the draw only if it
lies within about 1e-16 of a grid boundary. Either way only exact zeros are
dropped from a gate's result: round-off amplitudes (about 1e-17 on outcomes
that should be impossible) stay, and snap to a probability of exactly 0,
which draws no random number. A marginal adds in the dense reduction's order
(see QuditState.marginal). The only tables are the d-th roots of unity,
indexed by exponent mod d, and the QFT matrix below 41, built from them;
callers work at one d at a time, so each keeps one entry.
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

_NORM_TOL = 1e-9
# Largest support a gate may build (2**24 complex128 is 256 MB): a Fourier gate
# whose output could hold more raises ValueOutOfRange before it allocates it.
MAX_SUPPORT = 2**24
# Smallest register dimension whose QFT and inverse QFT always run on the
# fibers; below it they are a product with a cached dense d x d matrix as
# long as the dense view holds fewer than _FFT_MIN_D**2 entries (one or two
# registers; three up to d = 11). Warm per-call cost on a two-register state
# (2-vCPU Xeon, one CPU, BLAS on one thread), dense against fibers, for a
# fiber of d points: 24.8 against 27.0 us at d=31, 30.9 against 29.2 at
# d=37, 40.3 against 28.4 at d=41. A fiber of one point is gathered in 10-11
# us at every d, but the threshold is per layout, not per state: a batch
# member must take the arithmetic it takes alone. With three registers the
# dense product costs 243 us at d=23 and 1 ms at d=37 against 11-28 us on
# the fibers. Cold, the dense path first builds its matrix (about 25-40 us
# at d=41). The threshold decides which arithmetic a fiber gets (a BLAS
# product, or a gathered row and pocketfft). They round differently in the
# last bit, which moves states (TestStateGolden pins them) but no seeded
# output, since each law is snapped before it is drawn, so the threshold can
# be chosen on speed alone.
_FFT_MIN_D = 41


@dataclass(frozen=True)
class RegisterLayout:
    """Dimension d and ordered register labels (home H, transmitted T, and
    optionally the adversary's register E)."""

    d: int
    registers: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueOutOfRange("register dimension must be at least 2")
        # Dealing is O(t**2) with t < d: `run --n 1008 --t 1000 --d 1009` takes
        # 0.05-0.07 s in-process on one CPU of a 2-vCPU Xeon host. The cap bounds
        # it, and keeps each dot product of the array deal below 1024**3 in int64.
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


def _check_norm(state: QuditState) -> QuditState:
    """The state, once its 2-norm (each member's) is 1 within _NORM_TOL, else NotNormalized."""
    values = state.values
    if state.batch is None:
        n2 = float(np.vdot(values, values).real)
    else:  # the member whose norm is furthest from 1
        n2s = np.bincount(state.digits[0], values.real**2 + values.imag**2, state.batch)
        n2 = float(n2s[np.abs(n2s - 1.0).argmax()])
    if abs(n2 - 1.0) > 2 * _NORM_TOL:
        raise NotNormalized(f"state norm {math.sqrt(n2)} deviates from 1 beyond {_NORM_TOL}")
    return state


def _one_point_rows(values: np.ndarray, column: np.ndarray, d: int, inverse: bool) -> np.ndarray:
    """The transforms of fibers holding one point each: row j is values[j]
    times exp(+-2 pi i column[j] q / d) / sqrt d for q in [0, d), gathered
    from the roots table (the sign is - for the inverse)."""
    sign = -1 if inverse else 1
    exponents = np.multiply.outer(sign * column, np.arange(d)) % d
    return (values / math.sqrt(d))[:, None] * _roots(d)[exponents]


def _fft_rows(rows: int, row: np.ndarray, column: np.ndarray, values: np.ndarray, d: int,
              inverse: bool) -> np.ndarray:
    """The transforms of `rows` fibers, fiber row[j] holding values[j] at
    column[j], in one numpy FFT call. numpy's ifft has the QFT's sign; np.fft
    is reached here as `import numpy` skips it."""
    fibers = np.zeros((rows, d), dtype=np.complex128)
    fibers[row, column] = values
    transform = np.fft.fft if inverse else np.fft.ifft
    return transform(fibers, axis=1, norm="ortho")


def _check_budget(entries: int) -> None:
    if entries > MAX_SUPPORT:
        raise ValueOutOfRange(f"{entries} entries exceed the support budget {MAX_SUPPORT}")


def _apply_fourier(state: QuditState, register: str, inverse: bool) -> QuditState:
    layout = state.layout
    d = layout.d
    axis = layout.axis(register)
    batch = state.batch
    if d < _FFT_MIN_D and d ** len(layout.registers) < _FFT_MIN_D**2:
        # The dense product, on the dense view of fewer than 41**2 entries
        # per member; a batch's member axis leads, so each member's is its own.
        m = _qft_matrix(d).conj() if inverse else _qft_matrix(d)
        lead = () if batch is None else (batch,)
        out = m @ state.amplitudes.reshape(*lead, d**axis, d, -1)
        result = QuditState.from_amplitudes(layout, out.reshape(-1), batch)
    else:
        # A fiber is the register's d amplitudes with the member and the
        # other registers held fixed. The gate maps a zero fiber to zero, so
        # only nonzero fibers are transformed, one output row each, ordered by
        # the flat index of the member and the other registers' digits. A
        # fiber of one point is a gathered row (_one_point_rows), the same
        # alone as in any batch; the others go through one FFT (_fft_rows).
        digits, values = state.digits, state.values
        axis += batch is not None
        column = digits[axis]
        others = [c for i, c in enumerate(digits) if i != axis]
        if len(values) == (batch or 1):
            # One point per member, so each point is its own fiber, in order.
            _check_budget(len(values) * d)
            out = _one_point_rows(values, column, d, inverse)
        else:
            shape = _shape(layout, batch)[:-1]  # every register has d values
            key = np.ravel_multi_index(others, shape) if others else np.zeros_like(column)
            keys, fiber = np.unique(key, return_inverse=True)
            _check_budget(len(keys) * d)
            single = np.bincount(fiber) == 1
            if not single.any():
                # No fiber of one point, as in the honest inverse QFT: every
                # fiber is an FFT row. The mixed case's masks and row map would
                # give the same bits but cost about 10 us a call at d = 509 and
                # runs_large_d 6% of its runs/s (BENCH_fiber_path_fold.json).
                out = _fft_rows(len(keys), fiber, column, values, d, inverse)
            else:
                out = np.empty((len(keys), d), dtype=np.complex128)
                alone = single[fiber]  # the points alone in their fiber
                out[fiber[alone]] = _one_point_rows(values[alone], column[alone], d, inverse)
                if not alone.all():
                    shared, grouped = ~single, ~alone
                    row = np.cumsum(shared)  # 1 + each shared fiber's row
                    out[shared] = _fft_rows(row[-1], row[fiber[grouped]] - 1, column[grouped],
                                            values[grouped], d, inverse)
            others = list(np.unravel_index(keys, shape)) if others else []  # per row
        rows, column = np.nonzero(out)
        held = [c[rows] for c in others]
        digits = tuple(held[:axis] + [column] + held[axis:])
        result = QuditState(layout, digits, out[rows, column], batch)
    return _check_norm(result)


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
    _check_norm(state)
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
    return _check_norm(result)


def outcome_probabilities(state: QuditState, register: str) -> np.ndarray:
    """Distribution of a computational-basis measurement of one register,
    after the norm check every gate makes (1e-9); on a batch, one row per
    member."""
    return _check_norm(state).marginal(register)


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
