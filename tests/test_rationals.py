"""Coefficient-field contract: exact, reduced, canonical."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotabaxter.errors import FormatError, ZeroDenominatorError
from rotabaxter.rationals import (
    as_rational,
    div,
    format_rational,
    normalize,
    parse_rational,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


def test_normalize_reduces():
    assert normalize(2, 4) == Fraction(1, 2)


def test_normalize_moves_sign_to_numerator():
    q = normalize(3, -6)
    assert q == Fraction(-1, 2)
    assert q.denominator == 2 and q.numerator == -1


def test_normalize_canonical_zero():
    q = normalize(0, 5)
    assert q.numerator == 0 and q.denominator == 1


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        normalize(1, 0)


def test_normalize_idempotent():
    q = normalize(7, 3)
    assert normalize(q.numerator, q.denominator) == q


def test_add():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 2) + Fraction(-1, 2) == Fraction(0)
    assert Fraction(0) + Fraction(7, 3) == Fraction(7, 3)


def test_mul():
    assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
    assert Fraction(5, 7) * 1 == Fraction(5, 7)
    assert Fraction(5, 7) * 0 == 0


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_strict_form():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == 17
    assert parse_rational(" -5 ") == -5


@pytest.mark.parametrize("bad", ["3/-4", "+3", "1.5", "a", "3 / 4", "", "1/2/3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        parse_rational("1/0")


def test_as_rational_rejects_floats_and_bools():
    assert as_rational(3) == 3
    assert as_rational("1/2") == Fraction(1, 2)
    with pytest.raises(FormatError):
        as_rational(0.5)
    with pytest.raises(FormatError):
        as_rational(True)


def test_integral_values_are_ints():
    assert type(as_rational(Fraction(4, 2))) is int and as_rational(Fraction(4, 2)) == 2
    assert type(normalize(4, 2)) is int
    assert type(parse_rational("6/3")) is int
    assert type(as_rational("1/2")) is Fraction


def test_div_is_exact():
    assert div(1, 2) == Fraction(1, 2)
    assert type(div(4, 2)) is int and div(4, 2) == 2
    assert div(Fraction(3, 4), Fraction(3, 2)) == Fraction(1, 2)
    assert type(div(Fraction(3, 2), Fraction(1, 2))) is int


def test_div_by_zero():
    with pytest.raises(ZeroDenominatorError):
        div(1, 0)
    with pytest.raises(ZeroDenominatorError):
        div(Fraction(1, 2), Fraction(0))
