"""Exception types shared across the package."""


class QssError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInverse(QssError):
    """Multiplicative inverse of zero was requested."""


class DuplicatePoint(QssError):
    """Interpolation points are not pairwise distinct."""


class ValueOutOfRange(QssError):
    """A value lies outside its range (a register or field value outside
    [0, d), a shot count outside [1, MAX_SHOTS]), or is not an int where
    one is needed."""


class UnknownRegister(QssError):
    """A register label is not present in the layout."""


class SameRegister(QssError):
    """Control and target of a two-register gate coincide."""


class NotNormalized(QssError):
    """State norm drifted beyond tolerance."""


class SecretOutOfRange(QssError):
    """Secret does not fit in the selected field."""


class InvalidThreshold(QssError):
    """Threshold t violates 1 <= t <= n."""


class InconsistentPackets(QssError):
    """Share packets mix moduli or repeat evaluation points."""


class PresetInfeasible(QssError):
    """No prime modulus fits the requested simulation preset."""
