import cmath
import itertools
import hashlib
import math
import tracemalloc
from functools import partial, reduce

import numpy as np
import pytest

from qss import adversary, protocol, qudit
from qss.adversary import AttackSpec, run_attack
from qss.cli import main
from qss.dealer import DealerConfig
from qss.errors import (
    NotNormalized,
    SameRegister,
    UnknownRegister,
    ValueOutOfRange,
)
from qss.qudit import (
    RegisterLayout,
    QuditState,
    apply_copy,
    apply_iqft,
    apply_qft,
    apply_shadow_phase,
    basis_state,
    collapse,
    measure,
    outcome_probabilities,
    _FFT_MIN_D,
    _qft_matrix,
)
from qss.protocol import instance_from_deal


def layout(d, *regs):
    return RegisterLayout(d=d, registers=regs or ("H",))


def random_state(lay, rng):
    n = lay.d ** len(lay.registers)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return QuditState.from_amplitudes(lay, amps / np.linalg.norm(amps))


class TestLayout:
    def test_limits(self):
        with pytest.raises(ValueOutOfRange):
            RegisterLayout(d=1, registers=("H",))
        with pytest.raises(ValueOutOfRange):
            RegisterLayout(d=5, registers=("H", "T", "E", "F"))
        with pytest.raises(ValueOutOfRange):
            RegisterLayout(d=5, registers=("H", "H"))

    def test_unknown_register(self):
        with pytest.raises(UnknownRegister):
            layout(3, "H", "T").axis("E")

    def test_three_registers_up_to_the_d_cap(self):
        # A layout allocates nothing, so it has no size budget: the support
        # budget is checked by the gate that grows a support (TestMemory).
        RegisterLayout(d=1009, registers=("H", "T", "E"))
        RegisterLayout(d=1024, registers=("H", "T", "E"))


class TestBasisState:
    def test_single_register(self):
        s = basis_state(layout(2), {"H": 0})
        assert np.allclose(s.amplitudes, [1, 0])

    def test_index_arithmetic(self):
        s = basis_state(layout(3, "H", "T"), {"H": 2, "T": 0})
        expected = np.zeros(9)
        expected[2 * 3 + 0] = 1
        assert np.allclose(s.amplitudes, expected)

    def test_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            basis_state(layout(5), {"H": 5})


class TestQft:
    def test_d2_is_hadamard(self):
        s0 = apply_qft(basis_state(layout(2), {"H": 0}), "H")
        s1 = apply_qft(basis_state(layout(2), {"H": 1}), "H")
        r = 1 / math.sqrt(2)
        assert np.allclose(s0.amplitudes, [r, r])
        assert np.allclose(s1.amplitudes, [r, -r])

    def test_d3_matches_formula(self):
        # Amplitudes evaluated here independently of the engine's matrix.
        s = apply_qft(basis_state(layout(3), {"H": 1}), "H")
        expected = [cmath.exp(2j * cmath.pi * q / 3) / math.sqrt(3) for q in range(3)]
        assert np.allclose(s.amplitudes, expected)

    def test_matrix_unitary(self):
        for d in (2, 3, 5, 7, 13):
            m = _qft_matrix(d)
            assert np.allclose(m @ m.conj().T, np.eye(d), atol=1e-12)

    def test_round_trip_basis_states(self):
        for d in (2, 3, 5, 7):
            for s in range(d):
                start = basis_state(layout(d), {"H": s})
                back = apply_iqft(apply_qft(start, "H"), "H")
                assert np.allclose(back.amplitudes, start.amplitudes, atol=1e-12)

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 7, 13, 61, 509):
            lay = layout(d, "H", "T")
            for _ in range(20):
                psi = random_state(lay, rng)
                back = apply_iqft(apply_qft(psi, "H"), "H")
                assert np.linalg.norm(back.amplitudes - psi.amplitudes) < 1e-10

    def test_superposition_collapses_back(self):
        plus = apply_qft(basis_state(layout(2), {"H": 0}), "H")
        assert np.allclose(apply_iqft(plus, "H").amplitudes, [1, 0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 5, 7, 13):
            psi = random_state(layout(d, "H", "T"), rng)
            for gate in (
                lambda s: apply_qft(s, "H"),
                lambda s: apply_iqft(s, "T"),
                lambda s: apply_copy(s, "H", "T"),
                lambda s: apply_shadow_phase(s, "T", 1),
            ):
                out = gate(psi)
                assert abs(out.norm() - 1.0) < 1e-9


class TestReferenceOperators:
    """Each single-register gate, on every axis of 1-, 2- and 3-register
    layouts, equals I (x) ... (x) U (x) ... (x) I built with np.kron from the
    gate's textbook d x d matrix."""

    @staticmethod
    def full_matrix(lay, gate):
        eye = np.eye(lay.d ** len(lay.registers))
        columns = [gate(QuditState.from_amplitudes(lay, column)).amplitudes for column in eye]
        return np.stack(columns, axis=1)

    # From d = 41 the QFT runs as an FFT; a 41**3 kron is out of reach, so
    # those dimensions take one and two registers only.
    @pytest.mark.parametrize(
        "d, k",
        [(d, k) for d in (2, 3, 5, 7) for k in (1, 2, 3)] + [(41, 1), (41, 2)],
    )
    def test_gates_match_kron_reference(self, d, k):
        lay = layout(d, *("H", "T", "E")[:k])
        q = np.arange(d)
        qft = np.array(
            [[cmath.exp(2j * cmath.pi * a * b / d) / math.sqrt(d) for b in q] for a in q]
        )
        s = d - 1
        gates = [
            (apply_qft, qft),
            (apply_iqft, qft.conj().T),
            (
                lambda state, reg: apply_shadow_phase(state, reg, s),
                np.diag([cmath.exp(2j * cmath.pi * s * v / d) for v in q]),
            ),
        ]
        for axis, register in enumerate(lay.registers):
            for gate, single in gates:
                factors = [np.eye(d)] * k
                factors[axis] = single
                reference = reduce(np.kron, factors)
                got = self.full_matrix(lay, lambda state: gate(state, register))
                assert np.max(np.abs(got - reference)) < 1e-12, (d, k, axis, gate)


class TestFftPath:
    """From d = _FFT_MIN_D up, and below it wherever a member's dense view
    holds _FFT_MIN_D**2 entries or more (three registers from d = 12), the
    QFT and its inverse transform only the nonzero fibers (the register's d
    amplitudes with the other registers fixed). Dense states, states with zero fibers and states whose fibers
    hold one point or several match an einsum with the textbook matrix on
    every axis, and zero fibers stay exactly 0."""

    @pytest.mark.parametrize(
        "d, k", [(13, 3), (37, 3), (41, 1), (41, 2), (41, 3), (43, 1), (43, 2), (43, 3), (127, 1),
                 (127, 2)]
    )
    def test_matches_einsum_reference(self, d, k):
        assert d >= _FFT_MIN_D or d**k >= _FFT_MIN_D**2
        regs = ("H", "T", "E")[:k]
        lay = layout(d, *regs)
        q = np.arange(d)
        # (a * b) % d keeps the phase argument small, so the reference is exact
        # to rounding at every d.
        qft = np.array(
            [[cmath.exp(2j * cmath.pi * (a * b % d) / d) / math.sqrt(d) for b in q] for a in q]
        )
        letters = "abc"[:k]
        rng = np.random.default_rng(d * 10 + k)
        for axis, register in enumerate(regs):
            shape = [d] * k
            shape[axis] = 1
            patterns = [np.ones(shape, dtype=bool)]
            for p_keep in (0.5, 0.05):
                keep = rng.random(shape) < p_keep
                keep.flat[rng.integers(keep.size)] = True
                patterns.append(keep)
            # About 1.5 random points per fiber: fibers of none, one and several.
            keep = rng.random((d,) * k) < 1.5 / d
            keep.flat[rng.integers(keep.size)] = True
            patterns.append(keep)
            subscripts = f"y{letters[axis]},{letters}->{letters.replace(letters[axis], 'y')}"
            for keep in patterns:
                amps = random_state(lay, rng).amplitudes.reshape((d,) * k) * keep
                psi = QuditState.from_amplitudes(lay, (amps / np.linalg.norm(amps)).reshape(-1))
                amps = psi.amplitudes.reshape((d,) * k)
                zero = np.broadcast_to(~keep.any(axis=axis, keepdims=True), amps.shape)
                for gate, single in ((apply_qft, qft), (apply_iqft, qft.conj().T)):
                    got = gate(psi, register).amplitudes.reshape((d,) * k)
                    reference = np.einsum(subscripts, single, amps)
                    assert np.max(np.abs(got - reference)) < 1e-12, (d, k, axis, gate)
                    assert np.all(got[zero] == 0), (d, k, axis, gate)


class TestOnePointRows:
    """From d = _FFT_MIN_D up, a fiber holding one point, at digit s with
    amplitude a, transforms to the row a * exp(+-2 pi i s q / d) / sqrt d
    gathered from the roots table; only fibers of two or more points reach
    numpy's FFT, whose output the gathered rows match."""

    @staticmethod
    def handed_to_fft(monkeypatch):
        """The list that every later np.fft.fft or ifft call appends its
        input to."""
        handed = []
        for name in ("fft", "ifft"):
            def recording(a, *args, transform=getattr(np.fft, name), **kwargs):
                handed.append(np.array(a))
                return transform(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        return handed

    @staticmethod
    def mixed_state(lay, rng):
        """A normalised two-register state on 12 random fibers along H: every
        other one holds one point, the rest 2 to 5."""
        d = lay.d
        amps = np.zeros((d, d), dtype=complex)
        for i, t in enumerate(rng.choice(d, size=12, replace=False)):
            points = 1 if i % 2 == 0 else int(rng.integers(2, 6))
            h = rng.choice(d, size=points, replace=False)
            amps[h, t] = rng.standard_normal(points) + 1j * rng.standard_normal(points)
        return QuditState.from_amplitudes(lay, (amps / np.linalg.norm(amps)).reshape(-1))

    @pytest.mark.parametrize("d", [41, 127, 509])
    def test_one_point_fibers_call_no_fft(self, monkeypatch, d):
        lay = layout(d, "H", "T", "E")
        lone = basis_state(lay, {"H": 3, "T": 0, "E": d - 1})
        batch = basis_state(lay, {"H": [0, 3, d - 1], "T": 0, "E": [1, 1, 2]})
        # d points, each alone in its fiber along T
        spread = apply_copy(apply_qft(lone, "H"), "H", "T")
        handed = self.handed_to_fft(monkeypatch)
        for state in (lone, batch):
            for register in lay.registers:
                apply_qft(state, register)
                apply_iqft(state, register)
        apply_qft(spread, "T")
        apply_iqft(spread, "T")
        assert handed == []

    @pytest.mark.parametrize("d", [41, 127, 509])
    def test_fft_gets_only_multi_point_rows(self, monkeypatch, d):
        lay = layout(d, "H", "T")
        rng = np.random.default_rng(d)
        lone = self.mixed_state(lay, rng)
        batch = stacked([lone, basis_state(lay, {"H": 1, "T": 2}), self.mixed_state(lay, rng)])
        handed = self.handed_to_fft(monkeypatch)
        for state in (lone, batch):
            # the fiber along H of each point: its member and its T digit
            key = state.digits[-1] + (d * state.digits[0] if state.batch else 0)
            points = np.unique(key, return_counts=True)[1]
            for gate in (apply_qft, apply_iqft):
                handed.clear()
                gate(state, "H")
                assert len(handed) == 1
                # one row per fiber of two or more points, in fiber order
                assert list(np.count_nonzero(handed[0], axis=1)) == list(points[points > 1])

    @pytest.mark.parametrize("d", [41, 127, 509, 1021])
    def test_one_point_rows_match_cmath(self, d):
        lay = layout(d, "H", "T")
        digits = [0, 1, d // 2, d - 1]
        lone = [basis_state(lay, {"H": s, "T": 5}) for s in digits]
        # A batch of one point per member, and one beside a member whose
        # fiber holds two points, which takes the FFT.
        batches = [basis_state(lay, {"H": digits, "T": 5}),
                   stacked(lone + [QuditState(lay, (np.array([0, 1]), np.array([5, 5])),
                                              np.array([0.6, 0.8j]))])]
        q = np.arange(d)
        for gate, sign in ((apply_qft, 1), (apply_iqft, -1)):
            reference = np.array([
                [cmath.exp(2j * cmath.pi * (sign * s * b % d) / d) / math.sqrt(d) for b in q]
                for s in digits
            ])
            got = np.zeros((len(digits), d), dtype=complex)
            for b, state in enumerate(lone):
                out = gate(state, "H")
                assert np.all(out.digits[1] == 5)
                got[b, out.digits[0]] = out.values
            assert np.max(np.abs(got - reference)) < 1e-15, gate
            for batch in batches:
                out = gate(batch, "H")
                assert np.all(out.digits[2] == 5)
                got = np.zeros((batch.batch, d), dtype=complex)
                got[out.digits[0], out.digits[1]] = out.values
                assert np.max(np.abs(got[:len(digits)] - reference)) < 1e-15, (gate, batch.batch)


class TestCopy:
    def test_standard_cnot(self):
        lay = layout(2, "H", "T")
        s = apply_copy(basis_state(lay, {"H": 1, "T": 0}), "H", "T")
        assert np.allclose(s.amplitudes, basis_state(lay, {"H": 1, "T": 1}).amplitudes)

    def test_uncopy_equal_values(self):
        lay = layout(3, "H", "T")
        s = apply_copy(basis_state(lay, {"H": 2, "T": 2}), "H", "T")
        assert np.allclose(s.amplitudes, basis_state(lay, {"H": 2, "T": 0}).amplitudes)

    def test_involution_on_all_basis_states(self):
        for d in (2, 3, 4, 5, 7):
            lay = layout(d, "H", "T")
            for a in range(d):
                for b in range(d):
                    start = basis_state(lay, {"H": a, "T": b})
                    twice = apply_copy(apply_copy(start, "H", "T"), "H", "T")
                    assert np.allclose(twice.amplitudes, start.amplitudes)

    def test_copies_and_uncopies_protocol_states(self):
        for d in (2, 3, 5, 7):
            lay = layout(d, "H", "T")
            for k in range(d):
                copied = apply_copy(basis_state(lay, {"H": k, "T": 0}), "H", "T")
                assert np.allclose(
                    copied.amplitudes, basis_state(lay, {"H": k, "T": k}).amplitudes
                )
                uncopied = apply_copy(copied, "H", "T")
                assert np.allclose(
                    uncopied.amplitudes, basis_state(lay, {"H": k, "T": 0}).amplitudes
                )

    def test_superposition_entangles(self):
        # QFT on H then copy must give (1/sqrt d) sum_k w^k |k>|k>.
        d = 5
        lay = layout(d, "H", "T")
        s = apply_qft(basis_state(lay, {"H": 1, "T": 0}), "H")
        s = apply_copy(s, "H", "T")
        expected = np.zeros(d * d, dtype=complex)
        for k in range(d):
            expected[k * d + k] = cmath.exp(2j * cmath.pi * k / d) / math.sqrt(d)
        assert np.allclose(s.amplitudes, expected)

    def test_same_register_rejected(self):
        with pytest.raises(SameRegister):
            apply_copy(basis_state(layout(3, "H", "T"), {"H": 0, "T": 0}), "H", "H")

    def test_unitary_on_random_states(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 5):
            lay = layout(d, "H", "T")
            psi = random_state(lay, rng)
            out = apply_copy(psi, "H", "T")
            assert abs(out.norm() - 1.0) < 1e-12
            # involution on arbitrary states too
            back = apply_copy(out, "H", "T")
            assert np.allclose(back.amplitudes, psi.amplitudes)

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_axis_pair_matches_digit_reference(self, k):
        # out[dest] = in[dest with the target digit t replaced by c XOR t,
        # or left as t when the XOR falls outside [0, d)].
        regs = ("H", "T", "E")[:k]
        rng = np.random.default_rng(13)
        for d in (2, 3, 5, 6):
            psi = random_state(layout(d, *regs), rng)
            amps = psi.amplitudes.reshape((d,) * k)
            for c in range(k):
                for t in range(k):
                    if c == t:
                        continue
                    out = apply_copy(psi, regs[c], regs[t]).amplitudes.reshape((d,) * k)
                    ref = np.empty_like(amps)
                    for dest in np.ndindex(*amps.shape):
                        src = list(dest)
                        if dest[c] ^ dest[t] < d:
                            src[t] = dest[c] ^ dest[t]
                        ref[dest] = amps[tuple(src)]
                    assert np.array_equal(out, ref), (d, c, t)

    def test_full_matrix_is_xor_permutation(self):
        # Build the gate's full matrix column by column: it must be a
        # permutation (hence unitary) that acts as bitwise XOR wherever the
        # XOR result is representable, and never maps a mismatched pair to
        # target 0.
        for d in (2, 3, 5, 6, 8):
            lay = layout(d, "H", "T")
            dim = d * d
            mat = np.zeros((dim, dim), dtype=complex)
            for a in range(d):
                for b in range(d):
                    col = basis_state(lay, {"H": a, "T": b})
                    mat[:, a * d + b] = apply_copy(col, "H", "T").amplitudes
            assert np.allclose(mat @ mat.conj().T, np.eye(dim))
            for a in range(d):
                for b in range(d):
                    target = np.argmax(np.abs(mat[:, a * d + b]))
                    t_val = target % d
                    if a ^ b < d:
                        assert t_val == a ^ b
                    else:
                        assert t_val == b
                    assert (t_val == 0) == (a == b)


class TestShadowPhase:
    def test_zero_shadow_is_identity(self):
        rng = np.random.default_rng(5)
        psi = random_state(layout(5, "H", "T"), rng)
        out = apply_shadow_phase(psi, "T", 0)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_d2_shadow_is_z_gate(self):
        plus = apply_qft(basis_state(layout(2), {"H": 0}), "H")
        out = apply_shadow_phase(plus, "H", 1)
        r = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, [r, -r])

    def test_phase_additivity(self):
        d = 7
        rng = np.random.default_rng(9)
        psi = random_state(layout(d, "H", "T"), rng)
        for s2, s3 in [(1, 2), (3, 6), (4, 4)]:
            sequential = apply_shadow_phase(apply_shadow_phase(psi, "T", s2), "T", s3)
            combined = apply_shadow_phase(psi, "T", (s2 + s3) % d)
            assert np.allclose(sequential.amplitudes, combined.amplitudes)

    @pytest.mark.parametrize("d", [509, 1021])
    def test_phase_is_the_reduced_root_of_unity(self, d):
        # |k> gains exp(2 pi i (s k mod d) / d) to rounding, alone and in a
        # batch; an exponent s k left unreduced drifts by up to about 1e-12.
        lay = layout(d, "T")
        for s in (1, d // 2, d - 1):
            want = np.array([cmath.exp(2j * cmath.pi * (s * k % d) / d) for k in range(d)])
            lone = [apply_shadow_phase(basis_state(lay, {"T": k}), "T", s).values for k in range(d)]
            batch = apply_shadow_phase(basis_state(lay, {"T": list(range(d))}), "T", [s] * d)
            assert np.max(np.abs(np.concatenate(lone) - want)) < 2e-15, s
            assert np.max(np.abs(batch.values - want)) < 2e-15, s

    def test_shadow_out_of_range(self):
        psi = basis_state(layout(5, "H", "T"), {"H": 0, "T": 0})
        for s in (-1, 5):
            with pytest.raises(ValueOutOfRange):
                apply_shadow_phase(psi, "T", s)


class TestMeasure:
    def test_basis_state_deterministic(self):
        rng = np.random.default_rng(0)
        value, post = measure(basis_state(layout(5), {"H": 3}), "H", rng)
        assert value == 3
        assert np.allclose(post.amplitudes, basis_state(layout(5), {"H": 3}).amplitudes)

    def test_uniform_superposition_statistics(self):
        # 8192 seeded shots on (|0>+|1>)/sqrt 2: 4 sigma around 4096.
        rng = np.random.default_rng(20240811)
        plus = apply_qft(basis_state(layout(2), {"H": 0}), "H")
        ones = sum(measure(plus, "H", rng)[0] for _ in range(8192))
        sigma = math.sqrt(8192 * 0.25)
        assert abs(ones - 4096) <= 4 * sigma

    def test_collapse_renormalizes(self):
        rng = np.random.default_rng(1)
        lay = layout(3, "H", "T")
        psi = random_state(lay, rng)
        value, post = measure(psi, "T", rng)
        assert abs(post.norm() - 1.0) < 1e-12
        assert np.allclose(post.marginal("T")[value], 1.0)

    def test_unnormalized_rejected(self):
        lay = layout(2)
        bad = QuditState.from_amplitudes(lay, np.array([1.0, 1.0]))
        with pytest.raises(NotNormalized):
            measure(bad, "H", np.random.default_rng(0))


class TestHonestPipeline:
    """The reconstruction circuit on explicit shadows, checked against the
    closed-form state it should pass through."""

    @staticmethod
    def run_pipeline(d, shadows):
        lay = layout(d, "H", "T")
        state = basis_state(lay, {"H": shadows[0], "T": 0})
        state = apply_qft(state, "H")
        state = apply_copy(state, "H", "T")
        for s in shadows[1:]:
            state = apply_shadow_phase(state, "T", s)
        return state, lay

    @staticmethod
    def direct_state(d, shadows):
        # (1/sqrt d) sum_k w^(sum s * k) |k>_H |k>_T, built without the engine.
        total = sum(shadows)
        amps = np.zeros(d * d, dtype=complex)
        for k in range(d):
            amps[k * d + k] = cmath.exp(2j * cmath.pi * total * k / d) / math.sqrt(d)
        # Global phase of the pipeline state is fixed by the s1 term already,
        # so no adjustment is needed.
        return amps

    def test_pipeline_matches_direct_construction(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 5, 7):
            for t in (1, 2, 3, 4):
                shadows = [int(rng.integers(d)) for _ in range(t)]
                state, _ = self.run_pipeline(d, shadows)
                assert np.allclose(state.amplitudes, self.direct_state(d, shadows))

    def test_uncopy_ancilla_always_zero(self):
        rng = np.random.default_rng(17)
        for d in (2, 3, 5, 7):
            shadows = [int(rng.integers(d)) for _ in range(3)]
            state, lay = self.run_pipeline(d, shadows)
            state = apply_copy(state, "H", "T")
            for _ in range(32):
                assert measure(state, "T", rng)[0] == 0

    def test_iqft_lands_on_shadow_sum(self):
        rng = np.random.default_rng(19)
        for d in (2, 3, 5, 7, 11):
            for t in (1, 2, 3, 4):
                shadows = [int(rng.integers(d)) for _ in range(t)]
                state, lay = self.run_pipeline(d, shadows)
                state = apply_copy(state, "H", "T")
                _, state = measure(state, "T", rng)
                state = apply_iqft(state, "H")
                expected = sum(shadows) % d
                idx = expected * d + 0
                assert abs(abs(state.amplitudes[idx]) - 1.0) < 1e-9
                assert measure(state, "H", rng)[0] == expected


class TestSupport:
    """A state holds its support: the basis states whose amplitude is not
    exactly zero. Round-off amplitudes stay in it, and the marginal of every
    state a pass reaches equals the dense reduction bit for bit."""

    @staticmethod
    def dense_marginal(state, register):
        # The reduction over the dense vector, as the engine computed it
        # before it held only the support.
        d = state.layout.d
        amps = state.amplitudes.reshape(d ** state.layout.axis(register), d, -1)
        return (amps.real**2 + amps.imag**2).sum(axis=(0, 2))

    def test_dense_round_trip_drops_only_exact_zeros(self):
        lay = layout(5, "H", "T")
        amps = np.zeros(25, dtype=complex)
        amps[[3, 7, 24]] = [0.6, 1e-300j, 0.8]
        psi = QuditState.from_amplitudes(lay, amps)
        assert len(psi.values) == 3
        assert np.array_equal(psi.amplitudes, amps)
        assert [tuple(map(int, c)) for c in psi.digits] == [(0, 1, 4), (3, 2, 4)]

    @pytest.mark.parametrize("d", [7, 43])
    def test_round_off_amplitudes_stay(self, d):
        # The honest final H state: one outcome carries the mass, the other
        # d - 1 carry round-off probabilities that a sampler must still see.
        lay = layout(d, "H", "T")
        state = apply_copy(apply_qft(basis_state(lay, {"H": 2, "T": 0}), "H"), "H", "T")
        state = apply_iqft(apply_copy(apply_shadow_phase(state, "T", 3), "H", "T"), "H")
        probs = state.marginal("H")
        assert len(state.values) == d
        assert probs[5] == pytest.approx(1.0)
        assert np.count_nonzero(probs) == d and np.delete(probs, 5).max() < 1e-20

    @pytest.mark.parametrize("d", [5, 7, 43, 61])
    def test_marginals_a_pass_takes_match_dense_reduction(self, d):
        two = layout(d, "H", "T")
        copied = apply_copy(apply_qft(basis_state(two, {"H": 1, "T": 0}), "H"), "H", "T")
        copied = apply_shadow_phase(copied, "T", 2)
        uncopied = apply_copy(copied, "H", "T")
        three = layout(d, "H", "T", "E")
        entangled = apply_qft(basis_state(three, {"H": 1, "T": 0, "E": 0}), "H")
        entangled = apply_copy(entangled, "H", "T")
        entangled = apply_copy(apply_copy(entangled, "T", "E"), "H", "T")
        measured = [
            (copied, "T"),  # intercept-resend
            (apply_iqft(copied, "T"), "T"),  # Fourier intercept
            (uncopied, "T"),  # ancilla check
            (apply_iqft(uncopied, "H"), "H"),  # the recovered value
            (entangled, "E"),  # entangle-measure probe
            (entangled, "T"),
        ]
        for state, register in measured:
            got = state.marginal(register)
            assert np.array_equal(got, self.dense_marginal(state, register)), register

    def test_marginals_of_arbitrary_states_match_to_rounding(self):
        rng = np.random.default_rng(23)
        for d, k in ((3, 3), (5, 2), (7, 3), (43, 2)):
            psi = random_state(layout(d, *("H", "T", "E")[:k]), rng)
            for register in psi.layout.registers:
                np.testing.assert_allclose(
                    psi.marginal(register), self.dense_marginal(psi, register), rtol=1e-12
                )


def sparse_state(lay, rng, points):
    """A normalised state on `points` random basis states, in random order."""
    flat = rng.choice(lay.d ** len(lay.registers), size=points, replace=False)
    values = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    digits = np.unravel_index(flat, (lay.d,) * len(lay.registers))
    return QuditState(lay, digits, values / np.linalg.norm(values))


def stacked(states):
    """The batch whose members are the given lone states, in order."""
    members = np.concatenate([np.full(len(s.values), b) for b, s in enumerate(states)])
    columns = [np.concatenate(c) for c in zip(*(s.digits for s in states))]
    values = np.concatenate([s.values for s in states])
    return QuditState(states[0].layout, (members, *columns), values, len(states))


def same_bits(a, b):
    """States a and b list the same points in the same order, with
    bit-identical amplitudes."""
    return (
        all(np.array_equal(x, y) for x, y in zip(a.digits, b.digits))
        and a.values.view(np.float64).tobytes() == b.values.view(np.float64).tobytes()
    )


class TestBatch:
    """A batch stacks independent members; every gate on it gives each member
    what the gate gives that member alone, bit for bit."""

    CASES = [(d, k) for d in (5, 37, 41, 127) for k in (2, 3)]

    @staticmethod
    def members(d, k, seed):
        lay = layout(d, *("H", "T", "E")[:k])
        rng = np.random.default_rng(seed)
        # Members of full support below the FFT threshold, sparse ones above
        # it. At d = 5 the Fourier gates take the dense product; at d = 37
        # they take it with two registers, but with three (50k points per
        # member, a dense view of 41**2 entries or more) they run on their
        # fibers.
        points = [lay.d**k if d < _FFT_MIN_D else 40, 1, 7]
        return [sparse_state(lay, rng, n) for n in points]

    @pytest.mark.parametrize("d, k", CASES)
    def test_gates_act_per_member(self, d, k):
        lone = self.members(d, k, seed=d * 10 + k)
        batch = stacked(lone)
        registers = lone[0].layout.registers
        gates = []
        for register in registers:
            gates += [lambda s, r=register: apply_qft(s, r), lambda s, r=register: apply_iqft(s, r)]
        for control, target in itertools.permutations(registers, 2):
            gates.append(lambda s, c=control, t=target: apply_copy(s, c, t))
        shadows = [0, d - 1, 3]
        for register in registers:
            gates.append((register, shadows))
        for gate in gates:
            if isinstance(gate, tuple):
                register, shadows = gate
                out = apply_shadow_phase(batch, register, shadows)
                alone = [apply_shadow_phase(s, register, v) for s, v in zip(lone, shadows)]
            else:
                out, alone = gate(batch), [gate(s) for s in lone]
            assert out.batch == len(alone)
            assert same_bits(out, stacked(alone)), (d, k, gate)

    @pytest.mark.parametrize("d, k", CASES)
    def test_laws_and_collapse_per_member(self, d, k):
        lone = self.members(d, k, seed=d * 10 + k + 1)
        batch = stacked(lone)
        for register in lone[0].layout.registers:
            laws = outcome_probabilities(batch, register)
            alone = [outcome_probabilities(s, register) for s in lone]
            assert laws.tobytes() == np.stack(alone).tobytes()
            # Member 1 is dropped; the others collapse onto an outcome they can take.
            onto = {0: int(alone[0].argmax()), 2: int(alone[2].argmax())}
            out = collapse(batch, register, onto, laws)
            kept = [collapse(lone[b], register, onto[b], alone[b]) for b in (0, 2)]
            assert out.batch == 2 and same_bits(out, stacked(kept))

    def test_amplitudes_in_member_order(self):
        lone = self.members(5, 2, seed=3)
        dense = stacked(lone).amplitudes
        assert dense.tobytes() == np.concatenate([s.amplitudes for s in lone]).tobytes()
        back = QuditState.from_amplitudes(lone[0].layout, dense, batch=3)
        assert back.batch == 3 and np.array_equal(back.amplitudes, dense)

    def test_basis_state_batch(self):
        lay = layout(7, "H", "T")
        batch = basis_state(lay, {"H": [3, 0, 6], "T": 2})
        assert batch.batch == 3
        alone = [basis_state(lay, {"H": h, "T": 2}) for h in (3, 0, 6)]
        assert same_bits(batch, stacked(alone))
        with pytest.raises(ValueOutOfRange):
            basis_state(lay, {"H": [3, 7], "T": 2})

    def test_one_member_off_norm_rejected(self):
        lone = self.members(41, 2, seed=5)
        lone[1] = QuditState(lone[1].layout, lone[1].digits, lone[1].values * 1.01)
        batch = stacked(lone)
        for gate in (lambda s: apply_qft(s, "H"), lambda s: apply_copy(s, "H", "T"),
                     lambda s: apply_shadow_phase(s, "T", [1, 2, 3]),
                     lambda s: outcome_probabilities(s, "T")):
            with pytest.raises(NotNormalized):
                gate(batch)

    def test_shadow_per_member(self):
        batch = stacked(self.members(5, 2, seed=6))
        for shadows in ([1, 2], [1, 2, 5], [1, -1, 2]):
            with pytest.raises(ValueOutOfRange):
                apply_shadow_phase(batch, "T", shadows)

    def test_support_budget_bounds_the_batch(self, monkeypatch):
        # Three members of 41 fibers each need 3 * 41 * 41 entries after a
        # QFT of T; a budget one below that refuses the batch, whose members
        # each fit.
        lay = layout(41, "H", "T")
        members = [apply_qft(basis_state(lay, {"H": 0, "T": 0}), "H") for _ in range(3)]
        monkeypatch.setattr(qudit, "MAX_SUPPORT", 3 * 41 * 41 - 1)
        for member in members:
            apply_qft(member, "T")
        with pytest.raises(ValueOutOfRange, match="support budget"):
            apply_qft(stacked(members), "T")


class TestCaches:
    """qudit's tables, the roots of unity and the dense QFT matrix, are cached
    by dimension; callers work at one d at a time, so each keeps one entry."""

    def test_one_dimension_at_a_time(self):
        # The dense Fourier path keeps one QFT matrix, for the current d.
        for d in (5, 7, 5):
            state = basis_state(layout(d, "H", "T", "E"), {"H": 1, "T": 0, "E": 0})
            state = apply_qft(state, "H")
            state = apply_copy(state, "H", "T")
            state = apply_copy(state, "T", "E")
            apply_iqft(state, "H")
            assert _qft_matrix.cache_info().currsize == 1
            hits = _qft_matrix.cache_info().hits
            # the live entry belongs to the current d
            _qft_matrix(d)
            assert _qft_matrix.cache_info().hits == hits + 1

    def test_fft_dimensions_build_no_matrix(self):
        _qft_matrix.cache_clear()
        for d in (_FFT_MIN_D, 127, 509):
            state = basis_state(layout(d, "H", "T"), {"H": 1, "T": 0})
            state = apply_qft(apply_qft(state, "H"), "T")
            apply_iqft(apply_iqft(state, "T"), "H")
        assert _qft_matrix.cache_info().currsize == 0

    def test_every_cache_holds_one_entry(self):
        # A forgery at d = 509 phases its rings with all d - 1 forged shadows;
        # a lone run at d = 7 then takes the dense path.
        caches = [f for f in vars(qudit).values() if hasattr(f, "cache_info")]
        assert caches
        forged = instance_from_deal(DealerConfig(n=4, t=3, secret=7, rng_seed=1, d_override=509))
        run_attack(forged, AttackSpec(kind="forgery", shots=8192, seed=1))
        assert all(f.cache_info().currsize <= 1 for f in caches)
        instance_from_deal(DealerConfig(n=4, t=3, secret=3, rng_seed=1, d_override=7)).run(seed=1)
        assert all(f.cache_info().currsize <= 1 for f in caches)


class TestStateGolden:
    """Pinned states: every gate, outcome_probabilities and collapse call made
    by four fixed-seed CLI invocations is wrapped at each binding site, and
    one SHA-256 over the per-call digests of the dense amplitudes (and of the
    outcome laws) is pinned; a collapse digest leads with the outcome, read
    from the call's `value` argument. Signed zeros are normalised with + 0.0. A change
    to the state engine that claims bit-identical arithmetic keeps it."""

    INVOCATIONS = [
        "run --n 5 --t 4 --secret 3 --d 7 --seed 11",
        "run --n 3 --t 3 --secret 100 --d 509 --seed 2",
        "attack --attack intercept_iqft --n 4 --t 3 --d 61 --shots 200 --seed 5 --hop 1",
        "attack --attack entangle_measure --n 4 --t 3 --d 43 --shots 30 --seed 2 --hypotheses 2 4",
    ]
    DIGEST = "ec022c229fb1741bb747451e32b6412ba7fd23cb035e0d5d70aa639af106904c"
    NAMES = (
        "basis_state", "apply_qft", "apply_iqft", "apply_copy", "apply_shadow_phase",
        "outcome_probabilities", "collapse",
    )

    def test_states_pinned(self, monkeypatch, capsys):
        calls = []

        def digest(name, result, args):
            if name == "outcome_probabilities":
                data = (result + 0.0).tobytes()
            elif name == "collapse":
                _, _, value, _ = args
                data = bytes([value % 256]) + (result.amplitudes + 0.0).tobytes()
            else:
                data = (result.amplitudes + 0.0).tobytes()
            calls.append(f"{name}:{hashlib.sha256(data).hexdigest()}")

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                digest(name, result, args)
                return result

            return wrapper

        for name in self.NAMES:
            wrapped = wrap(name, getattr(qudit, name))
            for module in (qudit, protocol, adversary):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        for argv in self.INVOCATIONS:
            assert main(argv.split()) == 0
        capsys.readouterr()
        total = hashlib.sha256("\n".join(calls).encode()).hexdigest()
        assert total == self.DIGEST


class TestWholePassRoutes:
    """One attacked run through the fibers (_FFT_MIN_D = 41) and through the
    dense product (_FFT_MIN_D = 1025) makes the same gate calls, and each
    call's dense output agrees to 1e-12. The hooks apply the inverse QFT to
    states whose fibers hold one point each (T after the copy for
    intercept_iqft, the three registers after the copy onto E for
    entangle_measure), and no attack law pinned elsewhere moves under a
    wrong sign on those rows."""

    @staticmethod
    def gate_outputs(threshold, run):
        """The dense output of every gate call `run` makes, and the number
        of one-point row gathers among them, with _FFT_MIN_D at threshold."""
        outputs, gathers = [], []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(qudit, "_FFT_MIN_D", threshold)
            real_rows = qudit._one_point_rows
            m.setattr(qudit, "_one_point_rows", lambda *a: gathers.append(1) or real_rows(*a))
            for name in TestStateGolden.NAMES:
                def wrapper(*args, real=getattr(qudit, name), name=name):
                    result = real(*args)
                    outputs.append((name, result if name == "outcome_probabilities"
                                    else result.amplitudes))
                    return result

                for module in (qudit, protocol, adversary):
                    if hasattr(module, name):
                        m.setattr(module, name, wrapper)
            run()
        return outputs, len(gathers)

    @pytest.mark.parametrize("kind, d", [
        ("intercept_iqft", 41), ("intercept_iqft", 43),
        ("entangle_measure", 13), ("entangle_measure", 43),
    ])
    def test_fibers_match_dense_product(self, kind, d):
        hook = {"intercept_iqft": adversary._fourier_intercept_hook,
                "entangle_measure": adversary._entangle_hook}[kind]
        channel = protocol.Channel(hooks={0: hook}, adversary=kind == "entangle_measure")
        instance = instance_from_deal(DealerConfig(n=4, t=3, secret=1, rng_seed=1, d_override=d))
        run = partial(instance.run, channel, 3)
        fibers, gathered = self.gate_outputs(_FFT_MIN_D, run)
        dense, none = self.gate_outputs(1025, run)
        assert gathered > 0 and none == 0
        assert [name for name, _ in fibers] == [name for name, _ in dense]
        for (name, a), (_, b) in zip(fibers, dense):
            assert np.max(np.abs(a - b)) < 1e-12, name


class TestMemory:
    """The state is its support, so memory follows the support, not d**k:
    an honest run holds d amplitudes and an entangle-measure pass at most
    d**2. Peaks are traced after one warm-up call (numpy's FFT module loads
    on first use)."""

    LIMIT = 2**20

    @staticmethod
    def traced_peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_honest_run_at_d1021(self):
        instance = instance_from_deal(
            DealerConfig(n=3, t=3, secret=500, rng_seed=1, d_override=1021)
        )
        assert instance.run(seed=1).f0 == 500
        assert self.traced_peak(lambda: instance.run(seed=1)) < self.LIMIT

    def test_entangle_measure_at_d127(self):
        instance = instance_from_deal(
            DealerConfig(n=4, t=3, secret=7, rng_seed=1, d_override=127)
        )
        spec = AttackSpec(kind="entangle_measure", shots=1, seed=0, hypotheses=(1, 3))
        assert self.traced_peak(lambda: run_attack(instance, spec)) < self.LIMIT

    def test_support_budget_checked_where_support_grows(self):
        # At d = 257 the first inverse QFT spreads T over 257**2 entries; the
        # second would transform those 257**2 fibers into 257**3 > MAX_SUPPORT
        # entries (about 270 MB) and is refused before it allocates them.
        calls = []

        def copy_t_to_e(state):
            calls.append("copy")
            return apply_copy(state, "T", "E")

        def iqft_t(state):
            calls.append("iqft T")
            return apply_iqft(state, "T")

        def iqft_e(state):
            calls.append("iqft E")
            return apply_iqft(state, "E")

        instance = protocol.instance_from_shadows(257, (3, 5))
        channel = protocol.Channel(hooks={0: (copy_t_to_e, iqft_t, iqft_e)}, adversary=True)

        def refused():
            with pytest.raises(ValueOutOfRange, match="support budget"):
                instance.run(channel=channel, seed=1)

        assert self.traced_peak(refused) < 32 * 2**20
        assert calls == ["copy", "iqft T", "iqft E"] * 2
