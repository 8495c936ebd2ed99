import itertools
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qss.adversary
import qss.dealer
import qss.field
import qss.protocol
from qss.dealer import DealerConfig, deal, hash_to_field
from qss.errors import InconsistentPackets, InvalidThreshold, NotNormalized, ValueOutOfRange
from qss.field import PrimeModulus, interpolate_at_zero, shadow
from qss.protocol import (
    Channel,
    Measure,
    ProtocolInstance,
    instance_from_deal,
    instance_from_players,
    instance_from_shadows,
    run_pass,
    split_batch,
    split_shot_series,
)
from qss.qudit import QuditState, apply_copy, apply_iqft, apply_qft


def build_players(n, t, secret, seed, subset=None, d_override=None):
    packets = deal(
        DealerConfig(n=n, t=t, secret=secret, rng_seed=seed, d_override=d_override)
    )
    ids = subset or tuple(range(1, t + 1))
    by_id = {p.player_id: p for p in packets}
    return [by_id[i] for i in ids]


class TestHonestRuns:
    def test_recovers_secret(self):
        for n, t, secret, seed in [(5, 3, 4, 1), (4, 2, 0, 9), (6, 4, 5, 3)]:
            players = build_players(n, t, secret, seed)
            tr = instance_from_players(players).run(seed=seed)
            assert tr.verdict == "accepted"
            assert tr.f0 == secret
            assert tr.ancilla == (0, 0)

    def test_all_subsets_small_grid(self):
        for d, n, t in [(5, 4, 2), (7, 5, 3), (11, 6, 4)]:
            for secret in (0, 1, d - 1):
                for subset in itertools.combinations(range(1, n + 1), t):
                    players = build_players(n, t, secret, seed=42, subset=subset, d_override=d)
                    tr = instance_from_players(players).run(seed=7)
                    assert tr.accepted and tr.f0 == secret, (d, n, t, subset, secret)

    def test_single_player(self):
        players = build_players(3, 1, 0, seed=0)
        tr = instance_from_players(players).run(seed=0)
        assert tr.accepted and tr.f0 == 0 and tr.t == 1

    def test_records_only_an_int_seed(self):
        # A SeedSequence or a Generator has no value a transcript could
        # replay, so it is recorded as None; the run is the same.
        inst = instance_from_players(build_players(5, 3, 2, seed=4))
        assert inst.run(seed=123).seed == 123
        for seed in (np.random.SeedSequence(123), np.random.default_rng(123)):
            tr = inst.run(seed=seed)
            assert tr.seed is None and tr == replace(inst.run(seed=123), seed=None)

    def test_deterministic_given_seed(self):
        players = build_players(5, 3, 2, seed=4)
        a = instance_from_players(players).run(seed=123)
        b = instance_from_players(players).run(seed=123)
        assert a == b

    def test_every_shot_lands_on_shadow_sum(self):
        players = build_players(4, 3, 3, seed=6)
        inst = instance_from_players(players)
        want = inst.expected_value("secret")
        for shot_seed in range(200):
            tr = inst.run(seed=shot_seed)
            assert tr.f0 == want and tr.ancilla[0] == 0

    def test_order_independence_of_hops(self):
        # Permuting all t players, P1 included, must not change f(0)' (phase
        # additivity; P1 is whichever packet leads).
        secret = 2
        base = build_players(6, 4, secret, seed=11, d_override=7)
        for perm in itertools.permutations(base):
            assert instance_from_players(list(perm)).run(seed=5).f0 == secret


class TestShadowLevelPipeline:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_recovers_shadow_sum_for_any_shadows(self, d, raw_shadows, seed):
        # The quantum pipeline is exact: whatever the shadows, the recovered
        # value is their sum mod d and the ancilla stays silent.
        inst = instance_from_shadows(d, tuple(v % d for v in raw_shadows))
        tr = inst.run(seed=seed)
        assert tr.f0 == sum(inst.shadows_secret) % d
        assert tr.ancilla[0] == 0


class TestBatchRuns:
    """split_batch walks instances of equal d and t together, one generator
    per member: each member gets the series of its own run."""

    @staticmethod
    def members(d, t):
        """Honest deals of different secrets where d admits t share points,
        and shadow-level instances whose hash shadows fail the check."""
        rng = np.random.default_rng(d * 100 + t)
        out = [
            instance_from_deal(DealerConfig(n=n, t=t, secret=int(rng.integers(d)),
                                            rng_seed=int(rng.integers(2**32)), d_override=d))
            for n in range(t, min(t + 3, d))
        ]
        for _ in range(2):
            secret = tuple(int(v) for v in rng.integers(d, size=t))
            hashed = [int(v) for v in rng.integers(d, size=t)]
            if sum(hashed) % d == hash_to_field(sum(secret) % d, PrimeModulus(d)):
                hashed[0] = (hashed[0] + 1) % d
            out.append(instance_from_shadows(d, secret, tuple(hashed)))
        return out

    @staticmethod
    def batch(insts, channel=None):
        """One-shot series of the members, member b drawing from default_rng(b)."""
        rngs = [np.random.default_rng(seed) for seed in range(len(insts))]
        return split_batch(insts, [1] * len(insts), rngs, channel)

    @pytest.mark.parametrize("d", [2, 5, 37, 41, 127])
    @pytest.mark.parametrize("t", [1, 3, 5])
    def test_members_get_their_own_runs(self, d, t, monkeypatch):
        insts = self.members(d, t)
        alone = [split_shot_series(inst, 1, seed) for seed, inst in enumerate(insts)]
        verdicts = ["accepted"] * (len(insts) - 2) + ["abort_hash"] * 2
        assert [run.verdict for series in alone for run in series.runs] == verdicts
        calls = []
        real = qss.protocol.apply_qft
        monkeypatch.setattr(qss.protocol, "apply_qft", lambda *a: calls.append(a) or real(*a))
        # Each member's runs and pass leaves are those of its lone series.
        assert self.batch(insts) == alone
        # One QFT per pass for the whole batch.
        assert len(calls) == 2

    @pytest.mark.parametrize("d", [5, 41])
    def test_measuring_hooks_take_a_lone_instance(self, d, monkeypatch):
        # A batch of two or more refuses a channel whose hook measures, or
        # that reads out the adversary's register, before any gate; a lone
        # instance runs it.
        gates = []
        for name in ("basis_state", "apply_qft", "apply_iqft", "apply_copy",
                     "apply_shadow_phase", "outcome_probabilities", "collapse"):
            real = getattr(qss.protocol, name)
            monkeypatch.setattr(qss.protocol, name,
                                lambda *a, real=real, name=name: gates.append(name) or real(*a))

        def iqft_t(state):
            gates.append("hook")
            return apply_iqft(state, "T")

        def qft_t(state):
            gates.append("hook")
            return apply_qft(state, "T")

        def copy_t(state):
            gates.append("hook")
            return apply_copy(state, "T", "E")

        channels = {
            (0, 2): Channel(hooks={0: (iqft_t, Measure("T"), qft_t), 2: (Measure("T"),)}),
            (None,): Channel(hooks={1: (copy_t,)}, adversary=True),
        }
        insts = self.members(d, 3)
        for hops, channel in channels.items():
            for batch in (insts, insts[:2]):
                with pytest.raises(ValueError, match="measuring hook"):
                    self.batch(batch, channel)
            assert gates == []
            for seed, inst in enumerate(insts):
                tr = inst.run(channel, seed)
                # Each pass that ran filed one outcome per measuring step.
                passes = 2 if tr.ancilla[0] == 0 else 1
                assert [hop for _, hop, _ in tr.hook_events] == list(hops) * passes
            assert "hook" in gates
            gates.clear()

    @pytest.mark.parametrize("d", [5, 41])
    def test_members_aborting_at_p1_get_their_own_series(self, d):
        # An inverse QFT on T at hop 0 measures nothing but disturbs every
        # member, so P1's ancilla check splits each member's shots between
        # ancilla 0, walked on in a part of the batch, and its aborts.
        rng = np.random.default_rng(d)
        insts = [instance_from_shadows(d, *(tuple(int(v) for v in rng.integers(d, size=3))
                                            for _ in range(2))) for _ in range(4)]
        shots = [300, 1, 57, 1000]
        channel = Channel(hooks={0: (partial(apply_iqft, register="T"),)})
        batch = split_batch(insts, shots, [np.random.default_rng(b) for b in range(4)], channel)
        assert batch == [split_shot_series(inst, m, b, channel)
                         for b, (inst, m) in enumerate(zip(insts, shots))]
        for series, m in zip(batch, shots):
            assert sum(n for _, n in series.secret) == m
            if m > 1:
                assert any(p.ancilla for p, _ in series.secret)
                assert any(p.ancilla == 0 for p, _ in series.secret)

    def test_one_generator_per_member(self):
        insts = self.members(5, 3)
        shots = [1] * len(insts)
        for members in (len(insts) - 1, len(insts) + 1):
            with pytest.raises(ValueError):
                split_batch(insts, shots, [np.random.default_rng(1)] * members)
        with pytest.raises(ValueError):
            self.batch([*insts, instance_from_shadows(7, (1, 2, 3))])

    def test_one_member_off_norm_rejected(self):
        def drift(state):
            scale = np.where(state.digits[0] == 1, 1.01, 1.0)
            return QuditState(state.layout, state.digits, state.values * scale, state.batch)

        insts = self.members(5, 3)
        with pytest.raises(NotNormalized):
            self.batch(insts, Channel(hooks={0: (drift,)}))


class TestInstanceFromDeal:
    """instance_from_deal deals P1..Pt only; their packets do not depend on n."""

    def test_deals_two_evaluations_per_player(self, monkeypatch):
        calls = []
        real = qss.dealer.eval_poly

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(qss.dealer, "eval_poly", counting)
        for n, t in [(1, 1), (6, 2), (16, 8)]:
            calls.clear()
            instance_from_deal(DealerConfig(n=n, t=t, secret=1, rng_seed=3))
            assert len(calls) == 2 * t, (n, t)

    def test_threshold_above_n_rejected(self):
        for d_override in (None, 7):
            with pytest.raises(InvalidThreshold):
                instance_from_deal(
                    DealerConfig(n=3, t=4, secret=1, rng_seed=0, d_override=d_override)
                )

    def test_fixed_modulus_checked_once(self, monkeypatch):
        checked = []
        real = qss.field.is_prime

        def spy(p):
            checked.append(p)
            return real(p)

        monkeypatch.setattr(qss.field, "is_prime", spy)
        instance_from_deal(DealerConfig(n=6, t=4, secret=3, rng_seed=2, d_override=13))
        assert checked == [13]

    def test_equals_first_t_packets_of_full_deal(self):
        for n, t, d, seed in itertools.product((1, 3, 6), (1, 2, 3), (None, 7, 13), (0, 5)):
            if t > n:
                continue
            config = DealerConfig(n=n, t=t, secret=0, rng_seed=seed, d_override=d)
            expected = instance_from_players(deal(config)[:t])
            assert instance_from_deal(config) == expected, (n, t, d, seed)


class TestClassicalEquivalence:
    def test_quantum_equals_interpolation_and_shadow_sum(self):
        for d, n, t, secret in [(5, 4, 3, 2), (7, 6, 2, 6), (11, 5, 4, 10)]:
            players = build_players(n, t, secret, seed=13, d_override=d)
            inst = instance_from_players(players)
            tr = inst.run(seed=21)
            via_sum = inst.expected_value("secret")
            mod = inst.modulus
            points = [(p.player_id, p.f_share) for p in players]
            assert tr.f0 == via_sum == interpolate_at_zero(points, mod) == secret
            xs = [p.player_id for p in players]
            assert inst.shadows_secret == tuple(
                shadow(p.f_share, p.player_id, xs, mod) for p in players
            )
            assert inst.shadows_hash == tuple(
                shadow(p.g_share, p.player_id, xs, mod) for p in players
            )

    def test_hash_pass_equivalence(self):
        players = build_players(5, 3, 1, seed=17)
        inst = instance_from_players(players)
        assert inst.run(seed=2).g0 == inst.expected_value("hash")

    def test_expected_value_empty_rejected(self):
        with pytest.raises(ValueError):
            instance_from_players([]).expected_value("secret")


class TestAbortSoundness:
    def test_fake_shadow_shifts_additively(self):
        # Exhaustive over every fake shadow of every player: d=5, t=3.
        d = 5
        inst = instance_from_deal(
            DealerConfig(n=4, t=3, secret=2, rng_seed=19, d_override=d)
        )
        h_true = hash_to_field(2, PrimeModulus(d))
        for position in (1, 2, 3):
            true = inst.shadows_secret[position - 1]
            for fake in range(d):
                forged = inst.with_shadow(position, fake)
                tr = forged.run(seed=3)
                delta = (fake - true) % d
                assert tr.f0 == (2 + delta) % d
                assert tr.ancilla[0] == 0  # a wrong phase never trips the ancilla check
                expected_detected = hash_to_field(tr.f0, PrimeModulus(d)) != h_true
                assert (tr.verdict == "abort_hash") == expected_detected
                if delta == 0:
                    assert tr.accepted

    def test_detection_rate_over_fakes(self):
        # d=5: verdict is abort_hash for all fakes except hash collisions,
        # i.e. probability about 1 - 1/d over fake choices.
        d = 5
        inst = instance_from_deal(
            DealerConfig(n=4, t=3, secret=1, rng_seed=19, d_override=d)
        )
        true = inst.shadows_secret[1]
        outcomes = [
            inst.with_shadow(2, fake).run(seed=4).verdict
            for fake in range(d)
            if fake != true
        ]
        detected = sum(1 for v in outcomes if v == "abort_hash")
        assert detected == 4  # exhaustive: no collisions for S=1 at d=5


class TestVerifyHash:
    """The final check of a run: SHA1 of the recovered secret, mod d,
    against g(0)'."""

    def test_accepts_true_pair(self):
        # An honest run recovers s and g(0)' = SHA1(s) mod d, which match.
        inst = instance_from_deal(DealerConfig(n=4, t=3, secret=3, rng_seed=1, d_override=7))
        tr = inst.run(seed=1)
        assert tr.accepted and (tr.f0, tr.g0) == (3, inst.expected_value("hash"))
        assert hash_to_field(tr.f0, inst.modulus) == tr.g0

    def test_rejects_perturbed_hash(self):
        d = PrimeModulus(7)
        g0 = hash_to_field(3, d)
        assert hash_to_field(3, d) != (g0 + 1) % 7

    def test_false_positive_rate_matches_exhaustive_count(self):
        # d=101, S=17: exactly one other v in Z_d collides with H(17) mod d
        # (exhaustively counted), so uniform wrong guesses pass with rate
        # 1/100; a Monte Carlo run must sit within 4 sigma of that.
        d = PrimeModulus(101)
        g0 = hash_to_field(17, d)
        collisions = [
            v for v in range(101) if v != 17 and hash_to_field(v, d) == g0
        ]
        assert len(collisions) == 1
        rng = np.random.default_rng(2024)
        trials = 10_000
        hits = 0
        for _ in range(trials):
            v = int(rng.integers(100))
            v = v if v < 17 else v + 1  # uniform over Z_101 minus the secret
            hits += hash_to_field(v, d) == g0
        p = len(collisions) / 100
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) <= 4 * sigma


class TestValidation:
    def test_mixed_moduli_rejected(self):
        a = deal(DealerConfig(n=3, t=2, secret=1, rng_seed=0))
        b = deal(DealerConfig(n=3, t=2, secret=1, rng_seed=0, d_override=7))
        with pytest.raises(InconsistentPackets):
            instance_from_players([a[0], b[1]]).run()

    def test_duplicate_points_rejected(self):
        packets = deal(DealerConfig(n=3, t=2, secret=1, rng_seed=0))
        with pytest.raises(InconsistentPackets):
            instance_from_players([packets[0], packets[0]]).run()

    def test_channel_hop_count_checked(self):
        # A t=3 ring has hops 0..2; a lone reconstructor has none.
        noop = ()
        inst = instance_from_players(build_players(4, 3, 1, seed=1))
        inst.run(channel=Channel(hooks={2: noop}), seed=0)
        for key in (3, -1):
            with pytest.raises(ValueError):
                inst.run(channel=Channel(hooks={key: noop}), seed=0)
        single = instance_from_players(build_players(3, 1, 0, seed=0))
        with pytest.raises(ValueError):
            single.run(channel=Channel(hooks={0: noop}), seed=0)

    @pytest.mark.parametrize("shots", [0, -3, -1, 2.5, True, "3", None, 2**63, 2**64])
    def test_shot_counts_off_the_rule_rejected_before_any_gate(self, shots, monkeypatch):
        # The engine takes an int in [1, MAX_SHOTS] per member: a bool is
        # not a count, and a float is not rounded. An attack spec and the
        # per-shot reference take the same rule: a forgery drew its split
        # from a spec's 2.5 shots, and the reference ran True as one shot.
        def no_gate(*args):
            raise AssertionError("a gate ran")

        monkeypatch.setattr(qss.protocol, "basis_state", no_gate)
        inst = instance_from_shadows(5, (1, 2))
        rng = np.random.default_rng(0)
        for call in (partial(split_shot_series, inst, shots, 1),
                     partial(split_batch, [inst, inst], [3, shots], [rng, rng]),
                     partial(qss.protocol.secret_pass, inst, shots, rng, Channel()),
                     partial(qss.adversary.AttackSpec, kind="forgery", shots=shots),
                     partial(qss.adversary.run_shot_series, inst, shots, 1)):
            with pytest.raises(ValueOutOfRange, match="shots must be an int"):
                call()

    def test_shot_counts_on_the_rule_run(self):
        inst = instance_from_shadows(5, (1, 2))
        for shots in (1, np.int64(3), qss.protocol.MAX_SHOTS):
            series = split_shot_series(inst, shots, 1)
            assert sum(series.runs.values()) == shots

    @pytest.mark.parametrize("secret, hashed", [((1.5, 2), None), ((True, 2), None),
                                                ((1, 2), (0, 2.0))])
    def test_shadow_instance_takes_ints_only(self, secret, hashed):
        # A shadow of 1.5 would run as 1 while expected_value() said 3.5.
        with pytest.raises(ValueOutOfRange, match="shadow must be an int"):
            instance_from_shadows(5, secret, hashed)

    def test_shadow_instance_reads_numpy_ints_as_ints(self):
        inst = instance_from_shadows(5, (np.int64(7), 2), (np.int64(1), 0))
        assert inst.shadows_secret == (2, 2) and inst.shadows_hash == (1, 0)
        assert all(type(v) is int for v in inst.shadows_secret + inst.shadows_hash)

    def test_shadow_instance_lengths(self):
        with pytest.raises(InconsistentPackets):
            instance_from_shadows(5, (1, 2), (1,))

    def test_shadow_instance_empty_rejected(self):
        # instance_from_players([]) raises ValueError the same way.
        with pytest.raises(ValueError):
            instance_from_players([])
        with pytest.raises(ValueError):
            instance_from_shadows(5, ())

    def test_with_shadow_position_checked(self):
        inst = instance_from_shadows(5, (1, 2, 3))
        assert inst.with_shadow(1, 4).shadows_secret == (4, 2, 3)
        assert inst.with_shadow(3, 4, "hash").shadows_hash == (0, 0, 4)
        for position in (0, 4):
            with pytest.raises(ValueOutOfRange):
                inst.with_shadow(position, 4)


class TestTranscript:
    def test_json_schema(self):
        players = build_players(5, 3, 4, seed=1)
        tr = instance_from_players(players).run(seed=1)
        blob = tr.to_json()
        assert sorted(blob) == [
            "ancilla", "d", "f0", "g0", "seed", "shots", "t", "verdict", "xs",
        ]
        assert blob["shots"] == 1
        round_tripped = json.loads(json.dumps(tr.to_json(), sort_keys=True))
        assert round_tripped == json.loads(json.dumps(blob))

    def test_abort_skips_second_pass(self):
        # A hook that shifts T by one leaves no (k, k) pair for the uncopy
        # to cancel, so the pass-1 ancilla check must fire and end the run.
        from qss.qudit import QuditState

        def shift_t(state):
            d = state.layout.d
            rolled = np.roll(state.amplitudes.reshape(d, d), 1, axis=1)
            return QuditState.from_amplitudes(state.layout, rolled.reshape(-1))

        players = build_players(4, 2, 1, seed=2, d_override=5)
        channel = Channel(hooks={0: (shift_t,)})
        tr = instance_from_players(players).run(channel=channel, seed=9)
        assert tr.verdict == "abort_ancilla"
        assert len(tr.ancilla) == 1 and tr.ancilla[0] != 0
        assert tr.f0 is None and tr.g0 is None


class TestHookPlumbing:
    def test_hooks_fire_once_per_pass_in_order(self):
        players = build_players(4, 3, 1, seed=3)
        # A computational-basis intercept leaves the ancilla at 0, so both
        # passes run.
        spy = (Measure("T"),)
        channel = Channel(hooks={0: spy, 2: spy})
        tr = instance_from_players(players).run(channel=channel, seed=0)
        assert [e[:2] for e in tr.hook_events] == [
            ("secret", 0), ("secret", 2), ("hash", 0), ("hash", 2),
        ]

    def test_measure_files_value_and_collapses(self):
        players = build_players(4, 3, 1, seed=3, d_override=5)
        returned = []

        def record(state):
            returned.append(state)
            return state

        probe = (Measure("T"), record)
        for seed in range(6):
            returned.clear()
            tr = instance_from_players(players).run(channel=Channel(hooks={1: probe}), seed=seed)
            # one event per pass that ran, filed at the hook's hop
            assert len(tr.hook_events) == len(tr.ancilla) == len(returned)
            for (pass_name, hop, payload), out in zip(tr.hook_events, returned):
                assert hop == 1 and payload.keys() == {"value"}
                point_mass = np.zeros(5)
                point_mass[payload["value"]] = 1.0
                np.testing.assert_allclose(out.marginal("T"), point_mass, atol=1e-12)

    def test_hook_events_not_serialized(self):
        players = build_players(4, 3, 1, seed=3)
        channel = Channel(hooks={0: (Measure("T"),)})
        tr = instance_from_players(players).run(channel=channel, seed=0)
        assert "hook_events" not in tr.to_json()

    @pytest.mark.parametrize("fourier", [False, True], ids=["computational", "fourier"])
    def test_leaves_come_in_walk_order(self, fourier):
        # Grouped by the hook's outcome, ascending; in each group the leaves
        # whose ancilla read 0, H ascending, then the aborts, ancilla
        # ascending. The pairing deals out the hash pass's (ancilla, g(0)')
        # groups in this order, so it reaches the attack outputs. Only the
        # Fourier-basis intercept leaves aborts to order.
        hook = (partial(apply_iqft, register="T"), Measure("T")) if fourier else (Measure("T"),)
        inst = instance_from_shadows(5, (1, 2, 3), (0, 4, 1))
        policy = partial(qss.protocol._split, np.random.default_rng(1))
        leaves = run_pass([inst], Channel(hooks={0: hook}), "secret", [100_000], [policy])[0]
        keys = [(p.events[0][2]["value"], p.ancilla, -1 if p.value is None else p.value)
                for p, _ in leaves]
        assert keys == sorted(set(keys))
        assert {k[0] for k in keys} == set(range(5))
        assert {k[2] for k in keys if k[1] == 0} == set(range(5))
        assert any(k[1] for k in keys) == fourier

    def test_deep_ring_walks_without_recursion(self):
        # One Measure hook on each of 1000 hops: a walk that recursed once
        # per measurement would pass the interpreter's recursion limit.
        channel = Channel(hooks={k: (Measure("T"),) for k in range(1000)})
        tr = instance_from_shadows(1021, tuple(range(1000))).run(channel=channel, seed=1)
        assert tr.verdict == "abort_hash"
        assert len(tr.hook_events) == 2000
