import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qss.dealer
import qss.field
from qss.dealer import DealerConfig, deal, hash_to_field
from qss.errors import InconsistentPackets, InvalidThreshold, ValueOutOfRange
from qss.field import PrimeModulus, interpolate_at_zero, shadow
from qss.protocol import (
    Channel,
    Measure,
    ProtocolInstance,
    instance_from_deal,
    instance_from_players,
    instance_from_shadows,
    verify_hash,
)


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
    def test_accepts_true_pair(self):
        d = PrimeModulus(7)
        assert verify_hash(3, hash_to_field(3, d), d)

    def test_rejects_perturbed_hash(self):
        d = PrimeModulus(7)
        g0 = hash_to_field(3, d)
        assert not verify_hash(3, (g0 + 1) % 7, d)

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
            hits += verify_hash(v, g0, d)
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

    def test_deep_ring_walks_without_recursion(self):
        # One Measure hook on each of 1000 hops: a walk that recursed once
        # per measurement would pass the interpreter's recursion limit.
        channel = Channel(hooks={k: (Measure("T"),) for k in range(1000)})
        tr = instance_from_shadows(1021, tuple(range(1000))).run(channel=channel, seed=1)
        assert tr.verdict == "abort_hash"
        assert len(tr.hook_events) == 2000
