"""Exception types shared across the library."""


class CvkError(Exception):
    """Base class for all library errors."""


class NotInvertible(CvkError):
    """Modular inverse requested for a non-unit (gcd(a, m) != 1)."""


class SharedFactor(CvkError):
    """Two prime bases overlap, so the CRT transfer is undefined."""


class MalformedSignature(CvkError):
    """A signature (or key) fails structural validation before any
    cryptographic check runs."""


class DimensionMismatch(CvkError):
    """Operands of a linear-algebra operation do not conform."""


class BudgetExceeded(CvkError):
    """A security-budget denominator went non-positive: the verification
    key must be refreshed before more rejections are observed."""


class ResampleLimit(CvkError):
    """A sampling loop hit its attempt cap without a usable draw."""
