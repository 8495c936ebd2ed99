import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from qss.dealer import DealerConfig, SharePacket, choose_modulus, deal, hash_to_field
from qss.errors import InvalidThreshold, SecretOutOfRange, ValueOutOfRange
from qss.field import PrimeModulus, eval_poly, interpolate_at_zero, is_prime


class TestChooseModulus:
    def test_examples(self):
        assert choose_modulus(3).d == 5
        assert choose_modulus(4).d == 5
        assert choose_modulus(1).d == 2

    def test_smallest_prime_in_range(self):
        # Brute-force oracle over a wide range of player counts.
        for n in range(1, 200):
            expected = next(p for p in range(n + 1, 2 * n + 1) if is_prime(p))
            assert choose_modulus(n).d == expected

    def test_invalid_count(self):
        with pytest.raises(ValueOutOfRange):
            choose_modulus(0)


class TestHashToField:
    def test_deterministic(self):
        d = PrimeModulus(11)
        assert hash_to_field(42, d) == hash_to_field(42, d)

    def test_range(self):
        d = PrimeModulus(2)
        for s in range(16):
            assert hash_to_field(s, d) in (0, 1)

    def test_golden_value(self):
        # SHA1 of eight zero bytes is 05fe405753166f125559e7c9ac558654f107c7e9;
        # that digest as a 160-bit integer is divisible by 7.
        assert hash_to_field(0, PrimeModulus(7)) == 0
        digest = hashlib.sha1(b"\x00" * 8).digest()
        assert int.from_bytes(digest, "big") % 7 == 0

    def test_big_endian_eight_byte_encoding(self):
        # Pinning the byte layout: value 1 hashes as 00..01, not as b"1".
        digest = hashlib.sha1(bytes(7) + b"\x01").digest()
        expected = int.from_bytes(digest, "big") % 13
        assert hash_to_field(1, PrimeModulus(13)) == expected

    def test_negative_rejected(self):
        # Neither a negative secret nor one past 8 bytes has an encoding.
        for secret in (-1, 2**64):
            with pytest.raises(ValueOutOfRange):
                hash_to_field(secret, PrimeModulus(7))

    def test_takes_the_int_rule(self):
        # A numpy secret called to_bytes, which numpy ints lack; True hashed as 1.
        for d in (5, 7, 13):
            mod = PrimeModulus(d)
            for secret in (0, 2, 4):
                assert hash_to_field(np.int64(secret), mod) == hash_to_field(secret, mod)
                assert hash_to_field(np.uint8(secret), mod) == hash_to_field(secret, mod)
        for secret in (True, False, 2.0):
            with pytest.raises(ValueOutOfRange, match="secret must be an int"):
                hash_to_field(secret, PrimeModulus(5))


class TestDeal:
    def test_threshold_one_gives_constant_shares(self):
        packets = deal(DealerConfig(n=4, t=1, secret=3, rng_seed=8))
        h = hash_to_field(3, packets[0].modulus)
        for p in packets:
            assert p.f_share == 3
            assert p.g_share == h

    def test_every_qualified_subset_reconstructs(self):
        for n, t, secret, seed in [(4, 2, 1, 0), (5, 3, 4, 1), (6, 4, 2, 2)]:
            packets = deal(DealerConfig(n=n, t=t, secret=secret, rng_seed=seed))
            modulus = packets[0].modulus
            h = hash_to_field(secret, modulus)
            for subset in itertools.combinations(packets, t):
                f_points = [(p.player_id, p.f_share) for p in subset]
                g_points = [(p.player_id, p.g_share) for p in subset]
                assert interpolate_at_zero(f_points, modulus) == secret
                assert interpolate_at_zero(g_points, modulus) == h

    def test_deterministic_given_seed(self):
        config = DealerConfig(n=5, t=3, secret=2, rng_seed=77)
        first = deal(config)
        second = deal(config)
        assert first == second
        third = deal(DealerConfig(n=5, t=3, secret=2, rng_seed=78))
        assert first != third

    def test_share_values_in_range(self):
        packets = deal(DealerConfig(n=6, t=4, secret=0, rng_seed=5))
        for p in packets:
            assert 0 <= p.f_share < p.modulus.d
            assert 0 <= p.g_share < p.modulus.d

    def test_secret_out_of_range(self):
        with pytest.raises(SecretOutOfRange):
            deal(DealerConfig(n=3, t=2, secret=5, rng_seed=0))  # d=5

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            deal(DealerConfig(n=5, t=6, secret=0, rng_seed=0))
        with pytest.raises(InvalidThreshold):
            deal(DealerConfig(n=5, t=0, secret=0, rng_seed=0))

    def test_d_override(self):
        packets = deal(DealerConfig(n=5, t=2, secret=6, rng_seed=0, d_override=7))
        assert packets[0].modulus.d == 7
        assert len(packets) == 5

    def test_d_override_must_exceed_n(self):
        with pytest.raises(ValueOutOfRange):
            deal(DealerConfig(n=5, t=2, secret=1, rng_seed=0, d_override=5))

    def test_d_override_must_be_prime(self):
        with pytest.raises(ValueOutOfRange):
            deal(DealerConfig(n=5, t=2, secret=1, rng_seed=0, d_override=9))

    def test_numpy_ints_deal_as_ints(self):
        # hash_to_field called to_bytes on the numpy secret.
        config = DealerConfig(n=np.int64(4), t=np.int64(3), secret=np.int64(2), d_override=np.int64(7))
        kept = (config.n, config.t, config.secret, config.d_override)
        assert kept == (4, 3, 2, 7) and all(type(v) is int for v in kept)
        assert deal(config) == deal(DealerConfig(n=4, t=3, secret=2, d_override=7))

    @pytest.mark.parametrize("fields", [
        {"t": True}, {"secret": True}, {"secret": 2.5}, {"n": 4.0}, {"d_override": 7.0},
    ])
    def test_config_takes_ints_only(self, fields):
        # t=True dealt a one-player ring, secret=True ran secret 1, and the
        # floats failed deep in the deal.
        with pytest.raises(ValueOutOfRange, match="must be an int"):
            DealerConfig(**{"n": 4, "t": 3, "secret": 2, **fields})

    @pytest.mark.parametrize(
        "config, d, shares",
        [
            (
                DealerConfig(n=6, t=4, secret=3, rng_seed=11),
                7,
                [(1, 0), (1, 1), (5, 2), (1, 6), (5, 2), (5, 0)],
            ),
            (
                DealerConfig(n=5, t=3, secret=42, rng_seed=2024, d_override=101),
                101,
                [(33, 86), (59, 57), (19, 70), (14, 24), (44, 20)],
            ),
        ],
    )
    def test_pinned_shares(self, config, d, shares):
        # Recorded when shares were still wrapped field elements: a change in
        # the order or the range of the coefficient draws changes these, and
        # every attack report with them.
        packets = deal(config)
        assert packets[0].modulus.d == d
        assert [(p.f_share, p.g_share) for p in packets] == shares


class TestPerfectSecrecy:
    def test_t_minus_one_views_independent_of_secret(self):
        # Exhaustive over coefficient vectors: the view of any t-1 players is
        # a bijective image of the coefficients, hence identical (uniform)
        # for every secret.
        for d, t in [(5, 2), (5, 3), (7, 2)]:
            mod = PrimeModulus(d)
            view_histograms = []
            for secret in range(d):
                views = Counter()
                for coeffs in itertools.product(range(d), repeat=t - 1):
                    poly = (secret, *coeffs)
                    view = tuple(eval_poly(poly, x, mod) for x in range(1, t))
                    views[view] += 1
                view_histograms.append(views)
            # every view equally likely, and the same distribution for all S
            first = view_histograms[0]
            assert len(set(first.values())) == 1
            for other in view_histograms[1:]:
                assert other == first
