"""Exact rational coefficients.

The coefficient field is the rationals, represented by the standard
library's :class:`fractions.Fraction`, which already maintains the
canonical form this package relies on everywhere: reduced terms,
positive denominator, and a unique zero (0/1).  Every identity check in
the package is an exact-equality check on these values; there is no
tolerance parameter anywhere.

This module adds the strict textual form "p/q" (or "p" for integers)
used by all file formats and element literals.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError, ZeroDenominatorError

# Optional minus on the numerator only; no signs on the denominator.
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def normalize(num: int, den: int = 1) -> Fraction:
    """Reduced representative of num/den with positive denominator."""
    if den == 0:
        raise ZeroDenominatorError(f"zero denominator in {num}/0")
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse the strict "p/q" form (minus sign allowed on p only)."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise FormatError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return normalize(num, den)


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_rational(value) -> Fraction:
    """Coerce an exact value (int, Fraction, or "p/q" string).

    Floats are rejected: they would silently break exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise FormatError(f"not a rational: {value!r}")
