"""Dealing phase: modulus selection, secret hashing, and share distribution.

The dealer builds two degree-(t-1) polynomials over Z_d, one hiding the
secret and one hiding its SHA1 digest reduced mod d, and hands player i the
pair of evaluations at x = i as a SharePacket, which also names the modulus.
The packet is all a player holds, and player i's packet depends on the
secret, t, d and rng_seed but not on n. Shares travel over an abstract
authenticated channel; their physical encoding is out of scope here.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidThreshold, SecretOutOfRange, ValueOutOfRange
from .field import PrimeModulus, eval_poly, is_prime


@dataclass(frozen=True)
class DealerConfig:
    n: int
    t: int
    secret: int
    rng_seed: int = 0
    d_override: int | None = None


@dataclass(frozen=True)
class SharePacket:
    """One player's view after dealing: both evaluations at x = player_id."""

    player_id: int
    modulus: PrimeModulus
    f_share: int
    g_share: int


def choose_modulus(n: int) -> PrimeModulus:
    """Smallest prime in (n, 2n]; exists for every n >= 1 by Bertrand."""
    if n < 1:
        raise ValueOutOfRange("player count must be at least 1")
    for p in range(n + 1, 2 * n + 1):
        if is_prime(p):
            return PrimeModulus(p)
    raise AssertionError(f"no prime in ({n}, {2 * n}]")  # unreachable


@lru_cache(maxsize=1)  # a shot series checks one f(0)' against many hash leaves in a row
def hash_to_field(secret: int, d: PrimeModulus) -> int:
    """SHA1 of the secret's 8-byte big-endian encoding, reduced mod d."""
    if not 0 <= secret < 1 << 64:
        raise ValueOutOfRange(f"secret {secret} does not fit in 8 unsigned bytes")
    digest = hashlib.sha1(secret.to_bytes(8, "big")).digest()
    return int.from_bytes(digest, "big") % d.d


def resolve_modulus(config: DealerConfig) -> PrimeModulus:
    """The prime a deal works over: d_override when set, else choose_modulus(n).
    Rejects a threshold outside [1, n] first."""
    if not 1 <= config.t <= config.n:
        raise InvalidThreshold(f"need 1 <= t <= n, got t={config.t}, n={config.n}")
    if config.d_override is None:
        return choose_modulus(config.n)
    if config.d_override <= config.n:
        raise ValueOutOfRange(
            f"d={config.d_override} must exceed n={config.n} for distinct share points"
        )
    return PrimeModulus(config.d_override)


def deal(config: DealerConfig) -> list[SharePacket]:
    """Draw both polynomials from the seeded rng and evaluate at x = 1..n;
    packet i - 1 is player i's, and every packet carries the modulus."""
    return _deal(config, resolve_modulus(config), config.n)


def _deal(config: DealerConfig, modulus: PrimeModulus, count: int) -> list[SharePacket]:
    """deal over an already resolved modulus, for players 1..count only."""
    if not 0 <= config.secret < modulus.d:
        raise SecretOutOfRange(f"secret {config.secret} not in [0, {modulus.d})")

    rng = np.random.default_rng(config.rng_seed)
    f = _random_polynomial(config.secret, modulus, config.t, rng)
    g = _random_polynomial(hash_to_field(config.secret, modulus), modulus, config.t, rng)
    return [
        SharePacket(
            player_id=i,
            modulus=modulus,
            f_share=eval_poly(f, i, modulus),
            g_share=eval_poly(g, i, modulus),
        )
        for i in range(1, count + 1)
    ]


def _random_polynomial(
    constant: int, modulus: PrimeModulus, t: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Coefficients, constant term first, of a degree-(t-1) polynomial.

    Coefficients are uniform over all of Z_d; a zero leading coefficient only
    lowers the effective degree, which never hurts reconstruction."""
    return (constant, *rng.integers(0, modulus.d, size=t - 1).tolist())
