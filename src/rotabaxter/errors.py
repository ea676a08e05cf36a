"""Exception hierarchy shared by the whole package."""


class RotaBaxterError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDenominatorError(RotaBaxterError, ZeroDivisionError):
    """A rational was given with denominator zero."""


class FormatError(RotaBaxterError, ValueError):
    """Malformed textual input: rationals, element literals, JSON files."""


class AlgebraMismatchError(RotaBaxterError):
    """Operands belong to different algebras."""


class OperatorDomainError(RotaBaxterError):
    """An operator primitive was applied outside the algebra it is defined on."""


class InvalidDomainError(RotaBaxterError):
    """A sweep domain is empty or inconsistent."""


class InvalidDimensionError(RotaBaxterError):
    """A dimension parameter is out of range or inconsistent."""


class CannotNormalizeError(RotaBaxterError):
    """Weight normalization requested for a weight-zero operator."""


class UnsupportedDomainError(RotaBaxterError):
    """The check is not defined for this algebra, operator or structure."""
