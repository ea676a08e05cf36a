"""Exact rational coefficients.

A coefficient is an ``int`` when it is integral and a
:class:`fractions.Fraction` otherwise; it is never a ``float``.  Both
types compare, hash and format alike, and ``Fraction`` keeps the
canonical form this package relies on everywhere: reduced terms,
positive denominator.  Integral values stay ``int`` because almost every
coefficient the checks meet (monomials, 0/1 structure constants, small
weights) is integral, and ``int`` arithmetic is about a hundred times
cheaper than ``Fraction`` arithmetic.  Every identity check in the
package is an exact-equality check on these values; there is no
tolerance parameter anywhere.

Mixing an ``int`` with a ``Fraction`` costs as much as a product of two
``Fraction`` values, so the accumulation kernels take no arithmetic on an
identity operand (``algebra.accumulate``): a factor that is the ``int`` 1
is not multiplied, and a key seen for the first time is stored, not added
to 0.
An integral value that ``Fraction`` arithmetic still computes becomes an
``int`` where zeros are dropped, in ``algebra.clean_terms`` and
``Element._trusted``, so every element and every term dict that becomes
an operand holds its integral values as ``int`` values.

``int / int`` is a ``float`` in Python, so :func:`div` is the only
division of coefficients in the package.  A random sweep clears its
tuples once, to the integer numerators that :func:`integral` gives, so
its products and operator images run at ``int`` speed, and divides only
a witness back (``checks.SharedPass``).

This module adds the strict textual form "p/q" (or "p" for integers)
used by all file formats and element literals.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import FormatError, ZeroDenominatorError

# Optional minus on the numerator only; no signs on the denominator.
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def _exact(q: Fraction):
    """``q`` as an ``int`` when integral, else ``q`` itself."""
    return q.numerator if q.denominator == 1 else q


def normalize(num: int, den: int = 1):
    """Reduced representative of num/den with positive denominator
    (an ``int`` when the quotient is integral)."""
    if den == 0:
        raise ZeroDenominatorError(f"zero denominator in {num}/0")
    return _exact(Fraction(num, den))


def div(a, b):
    """Exact quotient a/b of two coefficients; the only coefficient
    division in the package."""
    if type(a) is int and b == 1:
        return a
    if b == 0:
        raise ZeroDenominatorError(f"division of {a} by zero")
    return _exact(Fraction(a, b))


def integral(terms):
    """``(numerators, d)`` with ``terms[k] == numerators[k] / d`` for every
    key, every numerator an ``int`` and ``d`` the lcm of the coefficients'
    denominators; ``terms`` itself when its coefficients are all ``int``."""
    d = 1
    plain = True
    for c in terms.values():
        if type(c) is not int:
            plain = False
            d = lcm(d, c.denominator)
    if plain:
        return terms, 1
    return {k: c.numerator * (d // c.denominator) for k, c in terms.items()}, d


def parse_rational(text: str):
    """Parse the strict "p/q" form (minus sign allowed on p only)."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise FormatError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return normalize(num, den)


def format_rational(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_rational(value):
    """Coerce an exact value (int, Fraction, or "p/q" string) to a
    coefficient: an ``int`` when integral, else a ``Fraction``.

    Floats are rejected: they would silently break exactness.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _exact(value)
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise FormatError(f"not a rational: {value!r}")
