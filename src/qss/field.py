"""Exact arithmetic modulo a prime d: polynomial evaluation, Lagrange
coefficients and shadows. This is the classical substrate of both the dealing
and the reconstruction phase.

A field value is a plain int in [0, d). PrimeModulus is the one validated
field type; every function takes it once per call and returns ints in
[0, d). check_int is the one int rule: the modulus, the dealer's config, a
protocol instance's shadows, the engine's shot counts and an attack spec
take it."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DuplicatePoint, ValueOutOfRange, ZeroInverse

# Witnesses that make Miller-Rabin deterministic for all 64-bit integers.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def check_int(what: str, value) -> int:
    """value as an int, else ValueOutOfRange naming `what`: an int is what
    operator.index takes, but not a bool, so a float is not truncated and
    True is not a count, a position or a shadow."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueOutOfRange(f"{what} must be an int, got {value!r}")


def is_prime(p: int) -> bool:
    """Deterministic primality test for integers below 2**64."""
    if p < 2:
        return False
    for q in _MR_WITNESSES:
        if p % q == 0:
            return p == q
    r, s = p - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, r, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """The prime d defining the field Z_d: an int (check_int, kept as an
    int) that fits in 64 bits."""

    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", check_int("modulus", self.d))
        if self.d >= 1 << 64:
            raise ValueOutOfRange(f"modulus {self.d} does not fit in 64 bits")
        if not is_prime(self.d):
            raise ValueOutOfRange(f"modulus {self.d} is not prime")

    def __repr__(self) -> str:
        return f"PrimeModulus({self.d})"


def field_inv(a: int, modulus: PrimeModulus) -> int:
    """Multiplicative inverse in Z_d (Fermat: a**(d-2))."""
    d = modulus.d
    if a % d == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    return pow(a, d - 2, d)


def eval_poly(coefficients: tuple[int, ...], x: int, modulus: PrimeModulus) -> int:
    """Horner evaluation at x of the polynomial with these coefficients,
    constant term first. Evaluation points are player IDs, never 0."""
    d = modulus.d
    if x % d == 0:
        raise ValueOutOfRange("evaluation point must be nonzero")
    acc = 0
    for c in reversed(coefficients):
        acc = (acc * x + c) % d
    return acc


def lagrange_coeff(x_r: int, xs: list[int], modulus: PrimeModulus) -> int:
    """Interpolation weight at zero for the point x_r among the points xs:
    prod_{j != r} x_j * (prod_{j != r} (x_j - x_r))^-1, one inversion."""
    if len(set(xs)) != len(xs):
        raise DuplicatePoint("interpolation points repeat")
    if x_r not in xs:
        raise DuplicatePoint(f"{x_r} is not one of the interpolation points")
    d = modulus.d
    num = den = 1
    for x_j in xs:
        if x_j != x_r:
            num, den = num * x_j % d, den * (x_j - x_r) % d
    return num * field_inv(den, modulus) % d


def consecutive_weights(t: int, modulus: PrimeModulus) -> list[int]:
    """lagrange_coeff(r, [1, ..., t], modulus) for r = 1..t, in closed form:
    prod_{j != r} j / (j - r) = (-1)**(r - 1) * C(t, r). Needs t < d, so that
    no point is 0 mod d."""
    d = modulus.d
    if not 1 <= t < d:
        raise ValueOutOfRange(f"need 1 <= t < d for the points 1..t, got t={t}, d={d}")
    return [(-1) ** (r - 1) * math.comb(t, r) % d for r in range(1, t + 1)]


def shadow(share: int, x_r: int, xs: list[int], modulus: PrimeModulus) -> int:
    """Share pre-multiplied by its Lagrange weight; shadows sum to the secret."""
    return share * lagrange_coeff(x_r, xs, modulus) % modulus.d


def interpolate_at_zero(points: list[tuple[int, int]], modulus: PrimeModulus) -> int:
    """Classical reconstruction of the constant term from (x, y) pairs."""
    xs = [x for x, _ in points]
    return sum(y * lagrange_coeff(x, xs, modulus) for x, y in points) % modulus.d
