"""Exception types shared across the package."""


class BqtruError(Exception):
    """Base class for all package errors."""


class ContextMismatch(BqtruError):
    """Operands live in different ring contexts (degree or modulus)."""


class NotInvertible(BqtruError):
    """Element has no multiplicative inverse in the requested ring."""


class EvenModulus(BqtruError):
    """Operation requires an odd modulus (inverse of 2 is needed)."""


class NormVanishesOutsideT(BqtruError):
    """Quaternion norm has a grid zero outside the secret point set."""


class WeightTooLarge(BqtruError):
    """Ternary weight 2d exceeds the number of coefficients."""


class RetriesExhausted(BqtruError):
    """Key generation gave up after the configured number of attempts."""


class MessageOutOfRange(BqtruError):
    """Message coefficients exceed the centered mod-p range."""


class DecryptionFailure(BqtruError):
    """No message: the strict-mode check failed, or (in either mode) the digits do not decode."""


class PayloadTooLarge(BqtruError):
    """Payload does not fit into the message quaternion."""


class RankDeficient(BqtruError):
    """Lattice basis rows are linearly dependent."""


class MalformedData(BqtruError):
    """Serialized key/ciphertext failed header or range validation."""


class ReductionBudgetExceeded(BqtruError):
    """Basis reduction hit its configured swap budget before converging."""
