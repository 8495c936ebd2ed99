"""Exact arithmetic modulo a prime d: field elements, polynomials, Lagrange
coefficients and shadows. This is the classical substrate of both the dealing
and the reconstruction phase."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicatePoint, ModulusMismatch, ValueOutOfRange, ZeroInverse

# Witnesses that make Miller-Rabin deterministic for all 64-bit integers.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic primality test for integers below 2**64."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    """The prime d defining the field Z_d. Must fit in 64 bits."""

    d: int

    def __post_init__(self) -> None:
        if self.d >= 1 << 64:
            raise ValueOutOfRange(f"modulus {self.d} does not fit in 64 bits")
        if not is_prime(self.d):
            raise ValueOutOfRange(f"modulus {self.d} is not prime")

    def element(self, value: int) -> FieldElement:
        return FieldElement(value % self.d, self)

    def __repr__(self) -> str:
        return f"PrimeModulus({self.d})"


@dataclass(frozen=True)
class FieldElement:
    """An integer in [0, d) tied to its modulus."""

    value: int
    modulus: PrimeModulus

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.modulus.d:
            raise ValueOutOfRange(f"{self.value} not in [0, {self.modulus.d})")

    def _check(self, other: FieldElement) -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"mixed moduli {self.modulus.d} and {other.modulus.d}"
            )

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement((self.value + other.value) % self.modulus.d, self.modulus)

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement((self.value - other.value) % self.modulus.d, self.modulus)

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement((self.value * other.value) % self.modulus.d, self.modulus)

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.value % self.modulus.d, self.modulus)

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus.d})"


@dataclass(frozen=True)
class Polynomial:
    """Coefficients over Z_d, constant term first; degree is len-1 = t-1."""

    coefficients: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueOutOfRange("polynomial needs at least the constant term")
        mod = self.coefficients[0].modulus
        for c in self.coefficients[1:]:
            if c.modulus != mod:
                raise ModulusMismatch("polynomial coefficients mix moduli")

    @property
    def modulus(self) -> PrimeModulus:
        return self.coefficients[0].modulus


def field_inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse in Z_d (Fermat: a**(d-2))."""
    if a.value == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    d = a.modulus.d
    return FieldElement(pow(a.value, d - 2, d), a.modulus)


def eval_poly(p: Polynomial, x: FieldElement) -> FieldElement:
    """Horner evaluation of p at x. Evaluation points are player IDs, never 0."""
    if x.modulus != p.modulus:
        raise ModulusMismatch("point and polynomial disagree on modulus")
    if x.value == 0:
        raise ValueOutOfRange("evaluation point must be nonzero")
    acc = FieldElement(0, p.modulus)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def lagrange_coeff(x_r: FieldElement, xs: list[FieldElement]) -> FieldElement:
    """Interpolation weight at zero for the point x_r among the points xs:
    prod_{j != r} x_j * (x_j - x_r)^-1."""
    if len({x.value for x in xs}) != len(xs):
        raise DuplicatePoint("interpolation points repeat")
    if x_r not in xs:
        raise DuplicatePoint(f"{x_r!r} is not one of the interpolation points")
    acc = FieldElement(1, x_r.modulus)
    for x_j in xs:
        if x_j.value == x_r.value:
            continue
        acc = acc * x_j * field_inv(x_j - x_r)
    return acc


def shadow(
    share_value: FieldElement, x_r: FieldElement, xs: list[FieldElement]
) -> FieldElement:
    """Share pre-multiplied by its Lagrange weight; shadows sum to the secret."""
    return share_value * lagrange_coeff(x_r, xs)


def interpolate_at_zero(
    points: list[tuple[FieldElement, FieldElement]]
) -> FieldElement:
    """Classical reconstruction of the constant term from (x, y) pairs."""
    xs = [x for x, _ in points]
    acc = FieldElement(0, xs[0].modulus)
    for x_r, y_r in points:
        acc = acc + y_r * lagrange_coeff(x_r, xs)
    return acc
