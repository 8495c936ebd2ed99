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
from typing import Sequence

import numpy as np

from .errors import InvalidThreshold, SecretOutOfRange, ValueOutOfRange
from .field import PrimeModulus, check_int, eval_poly, is_prime


@dataclass(frozen=True)
class DealerConfig:
    """What a deal takes. n, t, secret and d_override (when set) must be ints
    (check_int), and are kept as ints; their ranges are checked by the deal."""

    n: int
    t: int
    secret: int
    rng_seed: int = 0
    d_override: int | None = None

    def __post_init__(self) -> None:
        for what in ("n", "t", "secret", "d_override"):
            if getattr(self, what) is not None:
                object.__setattr__(self, what, check_int(what, getattr(self, what)))


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


def hash_to_field(secret: int, d: PrimeModulus) -> int:
    """SHA1 of the secret's 8-byte big-endian encoding, reduced mod d. The
    secret must be an int (check_int): a numpy int hashes as the equal int."""
    secret = check_int("secret", secret)
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
    modulus = resolve_modulus(config)
    f, g = draw_polynomials(config, modulus)
    return [
        SharePacket(
            player_id=i,
            modulus=modulus,
            f_share=eval_poly(f, i, modulus),
            g_share=eval_poly(g, i, modulus),
        )
        for i in range(1, config.n + 1)
    ]


def draw_polynomials(config: DealerConfig, modulus: PrimeModulus) -> tuple[tuple[int, ...], ...]:
    """The two polynomials of a deal over a resolved modulus, coefficients
    constant term first: f hides the secret, g its hash. Both draw their t - 1
    other coefficients from default_rng(rng_seed), f's first.

    Coefficients are uniform over all of Z_d; a zero leading coefficient only
    lowers the effective degree, which never hurts reconstruction."""
    if not 0 <= config.secret < modulus.d:
        raise SecretOutOfRange(f"secret {config.secret} not in [0, {modulus.d})")
    rng = np.random.default_rng(config.rng_seed)
    d, others = modulus.d, config.t - 1
    f = (config.secret, *rng.integers(0, d, size=others).tolist())
    g = (hash_to_field(config.secret, modulus), *rng.integers(0, d, size=others).tolist())
    return f, g


def share_table(configs: Sequence[DealerConfig], modulus: PrimeModulus) -> np.ndarray:
    """Both polynomials of each config (draw_polynomials) at x = 1..T, T the
    largest t, as one Vandermonde product mod d: entry [c, 0, x - 1] is
    config c's f(x), [c, 1, x - 1] its g(x). A shorter polynomial is padded
    with zero coefficients. The product is in int64: each dot product, T < d
    terms below d**2, stays below d**3, which int64 holds only up to d of
    about 2e6, so callers check the register cap (d <= 1024) first."""
    width = max(config.t for config in configs)
    coefficients = np.zeros((len(configs), 2, width), dtype=np.int64)
    for row, config in zip(coefficients, configs):
        f, g = draw_polynomials(config, modulus)
        row[:, :config.t] = f, g
    # powers[k, x - 1] = x**k mod d.
    powers = np.ones((width, width), dtype=np.int64)
    x = np.arange(1, width + 1)
    for k in range(1, width):
        powers[k] = powers[k - 1] * x % modulus.d
    return coefficients @ powers % modulus.d
