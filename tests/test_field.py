import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss.errors import DuplicatePoint, ValueOutOfRange, ZeroInverse
from qss.field import (
    PrimeModulus,
    consecutive_weights,
    eval_poly,
    field_inv,
    interpolate_at_zero,
    is_prime,
    lagrange_coeff,
    shadow,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def brute_inverse(a, d):
    """Independent oracle: scan all candidates for a*b = 1 mod d."""
    for b in range(1, d):
        if a * b % d == 1:
            return b
    raise AssertionError(f"no inverse of {a} mod {d}")


class TestPrimality:
    def test_small_values(self):
        expected = {p for p in range(100) if p > 1 and all(p % q for q in range(2, p))}
        assert {p for p in range(100) if is_prime(p)} == expected

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueOutOfRange):
            PrimeModulus(6)
        with pytest.raises(ValueOutOfRange):
            PrimeModulus(1)

    def test_large_prime_accepted(self):
        PrimeModulus((1 << 61) - 1)  # Mersenne prime

    def test_modulus_takes_ints_only(self):
        # 5.0 passed the primality test, and a numpy d made every shadow of
        # an instance a numpy int.
        for d in (5.0, True):
            with pytest.raises(ValueOutOfRange, match="modulus must be an int"):
                PrimeModulus(d)
        assert type(PrimeModulus(np.int64(5)).d) is int


class TestFieldElement:
    """Field values are ints in [0, d); these check field_inv on them."""

    def test_inverse_examples(self):
        assert field_inv(1, PrimeModulus(7)) == 1
        assert field_inv(3, PrimeModulus(7)) == brute_inverse(3, 7) == 5
        assert field_inv(4, PrimeModulus(5)) == brute_inverse(4, 5) == 4

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroInverse):
            field_inv(0, PrimeModulus(7))

    @given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=1 << 20))
    def test_inverse_involution(self, d, raw):
        mod = PrimeModulus(d)
        a = raw % (d - 1) + 1
        assert field_inv(field_inv(a, mod), mod) == a
        assert a * field_inv(a, mod) % d == 1


class TestPolynomial:
    """A polynomial is its coefficient tuple, constant term first."""

    def test_eval_examples(self):
        p = (3, 2)  # 3 + 2x
        assert eval_poly(p, 1, PrimeModulus(7)) == 5
        assert eval_poly(p, 2, PrimeModulus(7)) == 0  # 3 + 4 = 7 = 0 mod 7

    def test_zero_polynomial(self):
        for x in range(1, 11):
            assert eval_poly((0, 0, 0), x, PrimeModulus(11)) == 0

    def test_zero_point_rejected(self):
        with pytest.raises(ValueOutOfRange):
            eval_poly((3, 2), 0, PrimeModulus(7))


class TestLagrange:
    def test_single_point_weight_is_one(self):
        assert lagrange_coeff(3, [3], PrimeModulus(5)) == 1

    def test_two_point_examples(self):
        mod = PrimeModulus(7)
        # 2 * (2-1)^-1 = 2 and 1 * (1-2)^-1 = 6^-1 = 6
        assert lagrange_coeff(1, [1, 2], mod) == 2
        assert lagrange_coeff(2, [1, 2], mod) == 6
        assert 6 * 6 % 7 == 1  # 6 really is the inverse of -1 mod 7

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePoint):
            lagrange_coeff(1, [1, 1], PrimeModulus(7))
        with pytest.raises(DuplicatePoint):
            lagrange_coeff(3, [1, 2], PrimeModulus(7))

    def test_points_equal_mod_d_have_no_weight(self):
        # 1 and 6 differ as ints but are one point of Z_5.
        with pytest.raises(ZeroInverse):
            lagrange_coeff(1, [1, 6], PrimeModulus(5))

    def test_weights_sum_to_one(self):
        # Interpolating the constant polynomial 1 must give 1.
        for d in (5, 7, 11):
            mod = PrimeModulus(d)
            for t in range(1, 5):
                for xs in itertools.combinations(range(1, d), t):
                    total = sum(lagrange_coeff(x, xs, mod) for x in xs) % d
                    assert total == 1

    @pytest.mark.parametrize("d", [3, 5, 97])
    def test_consecutive_weights_are_lagrange_coeffs(self, d):
        # The closed form (-1)**(r - 1) * C(t, r) of the points 1..t, every t < d.
        mod = PrimeModulus(d)
        for t in range(1, d):
            xs = list(range(1, t + 1))
            assert consecutive_weights(t, mod) == [lagrange_coeff(x, xs, mod) for x in xs], t

    def test_consecutive_weights_need_t_below_d(self):
        # At t = d the point d is 0 mod d.
        for t in (0, 5, 6):
            with pytest.raises(ValueOutOfRange):
                consecutive_weights(t, PrimeModulus(5))


class TestShadow:
    def test_examples(self):
        mod = PrimeModulus(7)
        assert shadow(5, 1, [1, 2], mod) == 3  # 5*2 mod 7
        assert shadow(0, 2, [1, 2], mod) == 0
        assert shadow(2, 3, [3], PrimeModulus(5)) == 2

    def test_shadows_sum_to_constant_term(self):
        # f(x) = 3 + 2x over Z_7 at x in {1, 2}: shadows must sum to f(0).
        mod = PrimeModulus(7)
        xs = [1, 2]
        total = sum(shadow(eval_poly((3, 2), x, mod), x, xs, mod) for x in xs) % 7
        assert total == 3


class TestInterpolation:
    def test_recovers_constant_term(self):
        mod = PrimeModulus(7)
        points = [(x, eval_poly((3, 2), x, mod)) for x in [1, 2]]
        assert interpolate_at_zero(points, mod) == 3

    def test_single_point(self):
        assert interpolate_at_zero([(4, 9)], PrimeModulus(11)) == 9

    def test_exhaustive_small_fields(self):
        # Every polynomial of degree < t over Z_d, every t-subset of points.
        for d in (2, 3, 5):
            mod = PrimeModulus(d)
            for t in (1, 2, 3):
                if t >= d:
                    continue
                for coeffs in itertools.product(range(d), repeat=t):
                    for xs in itertools.combinations(range(1, d), t):
                        points = [(x, eval_poly(coeffs, x, mod)) for x in xs]
                        assert interpolate_at_zero(points, mod) == coeffs[0]

    @settings(max_examples=60)
    @given(
        st.sampled_from([7, 11, 13]),
        st.integers(min_value=1, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_random_polynomials(self, d, t, rnd):
        mod = PrimeModulus(d)
        coeffs = [rnd.randrange(d) for _ in range(t)]
        xs = rnd.sample(range(1, d), t)
        points = [(x, eval_poly(coeffs, x, mod)) for x in xs]
        assert interpolate_at_zero(points, mod) == coeffs[0]

    def test_shadow_sum_equals_interpolation(self):
        # The two reconstruction routes agree on random instances.
        import random

        rnd = random.Random(20240811)
        for _ in range(50):
            d = rnd.choice([5, 7, 11, 13])
            t = rnd.randint(1, 4)
            mod = PrimeModulus(d)
            coeffs = [rnd.randrange(d) for _ in range(t)]
            xs = rnd.sample(range(1, d), t)
            points = [(x, eval_poly(coeffs, x, mod)) for x in xs]
            via_shadows = sum(shadow(y, x, xs, mod) for x, y in points) % d
            assert via_shadows == interpolate_at_zero(points, mod) == coeffs[0]
