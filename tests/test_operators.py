"""The operator zoo against independent oracles."""

import re
from fractions import Fraction

import pytest

from rotabaxter.algebra import DomainSpec, apply_operator
from rotabaxter.algebras import FiniteAlgebra, laurent, make_componentwise, make_matrix_algebra, polynomial
from rotabaxter.checks import check_idempotent, check_rbr
from rotabaxter.errors import (
    CannotNormalizeError,
    InvalidDimensionError,
    OperatorDomainError,
)
from rotabaxter.operators import (
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    matrix_operator,
    miller_matrix,
    modified_of,
    nijenhuis_family,
    normalize_weight,
    opposite_of,
    scale_operator,
)

L = laurent()
P = polynomial()
MS = make_rms()
MS_OPP = make_rms_opposite()
INTEG = make_integration()


def derivative(x):
    """d/dt, the oracle inverse of integration."""
    return P.element({e - 1: c * e for e, c in x.terms.items() if e != 0})


def test_rms_examples():
    x = L.element({-2: 1, 0: 3, 5: 1})
    assert MS(x) == L.monomial(-2)
    assert MS(L.monomial(3)).is_zero
    y = L.element({-1: 1, 1: 1})
    assert MS(MS(y)) == MS(y)


def test_rms_opposite_examples():
    x = L.element({-2: 1, 0: 3, 5: 1})
    assert MS_OPP(x) == L.element({0: 3, 5: 1})
    y = L.element({-1: 1, 2: -2})
    assert MS(y) + MS_OPP(y) == y
    assert MS_OPP(L.monomial(-4)).is_zero


def test_integration_examples():
    one = P.monomial(0)
    assert INTEG(one) == P.monomial(1)
    assert INTEG(P.monomial(1)) == P.element({2: Fraction(1, 2)})
    assert INTEG(P.zero()).is_zero


def test_integration_oracle_derivative_inverts():
    x = P.element({0: 3, 2: Fraction(-1, 4), 7: Fraction(5, 2)})
    anti = INTEG(x)
    assert derivative(anti) == x
    assert anti.coefficient(0) == 0


def test_integration_rejects_poles():
    with pytest.raises(OperatorDomainError):
        INTEG(L.monomial(-1))


def test_miller_examples():
    m11 = make_miller(1, 1)
    a = m11.algebra
    assert m11(a.basis_element(0)) == a.basis_element(0)
    assert m11(a.basis_element(1)).is_zero

    m21 = make_miller(2, 1)
    a = m21.algebra
    assert m21(a.basis_element(1)) == a.basis_element(0) + a.basis_element(1)

    m12 = make_miller(1, 2)
    a = m12.algebra
    assert m12(a.basis_element(1)) == -a.basis_element(2)


def test_miller_matches_matvec_oracle():
    for s, t in ((1, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
        op = make_miller(s, t)
        alg = op.algebra
        rows = miller_matrix(s, t)
        n = s + t
        for j in range(n):
            expected = alg.element(
                {i: rows[i][j] for i in range(n) if rows[i][j] != 0})
            assert op(alg.basis_element(j)) == expected


def test_miller_dimension_guard():
    with pytest.raises(InvalidDimensionError):
        make_miller(0, 1)


def test_shift_truncation_examples():
    r0 = make_shift_truncation(0)
    x = L.element({-1: 1, 0: 1, 1: 1})
    assert r0(x) == L.element({-1: 1, 0: 1})
    assert make_shift_truncation(1)(L.monomial(2)).is_zero
    assert make_shift_truncation(-2)(L.monomial(-1)).is_zero


def test_modified_of_examples():
    b = modified_of(MS)
    assert b(L.monomial(-1)) == -L.monomial(-1)
    assert b(L.monomial(1)) == L.monomial(1)
    b0 = modified_of(INTEG)
    assert b0(P.monomial(1)) == P.element({2: -1})  # -2 * t^2/2


def test_opposite_of_examples():
    opp = opposite_of(MS)
    x = L.element({-2: 1, 0: 1})
    assert opp(x) == MS_OPP(x)
    twice = opposite_of(opposite_of(MS))
    y = L.element({-3: 2, 4: Fraction(1, 3)})
    assert twice(y) == MS(y)
    m11 = make_miller(1, 1)
    opp11 = opposite_of(m11)
    a = m11.algebra
    assert opp11(a.basis_element(0)).is_zero
    assert opp11(a.basis_element(1)) == a.basis_element(1)


def test_nijenhuis_family_examples():
    n0 = nijenhuis_family(MS, 0)
    assert n0(L.monomial(-1)) == L.monomial(-1)
    n1 = nijenhuis_family(MS, 1)
    assert n1(L.monomial(1)) == -L.monomial(1)
    n2 = nijenhuis_family(MS, 2)
    assert n2(L.monomial(0)) == L.element({0: -2})


def test_normalize_weight():
    assert normalize_weight(MS) is MS
    scaled = scale_operator(3, MS)
    assert scaled.weight == 3
    back = normalize_weight(scaled)
    assert back.weight == 1
    x = L.element({-2: 5, 1: 1})
    assert back(x) == MS(x)
    with pytest.raises(CannotNormalizeError):
        normalize_weight(INTEG)


def test_scaling_law():
    """If R has weight λ, then μR passes the relation at weight μλ."""
    cases = [(MS, Fraction(1)), (MS_OPP, Fraction(1)), (INTEG, Fraction(0))]
    for mu in (Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 2)):
        for op, lam in cases:
            scaled = scale_operator(mu, op)
            assert scaled.weight == mu * lam
            alg = op.algebra
            dom = DomainSpec.basis(0, 6) if alg is P else DomainSpec.basis(-4, 4)
            assert check_rbr(alg, scaled, mu * lam, dom).passed


def test_negation_flips_weight():
    neg = scale_operator(-1, MS)
    assert neg.weight == -1
    assert check_rbr(L, neg, Fraction(-1), DomainSpec.basis(-4, 4)).passed


def test_idempotency_facts():
    dom = DomainSpec.basis(-8, 8)
    for op in (MS, MS_OPP, make_shift_truncation(0)):
        assert check_idempotent(L, op, dom).passed
    report = check_idempotent(P, INTEG, DomainSpec.basis(0, 4))
    assert not report.passed
    t = P.monomial(1)
    assert INTEG(t) == P.element({2: Fraction(1, 2)})
    assert INTEG(INTEG(t)) == P.element({3: Fraction(1, 6)})


def test_miller_rbr_all_sizes():
    for s in range(1, 5):
        for t in range(1, 5):
            op = make_miller(s, t)
            assert check_rbr(op.algebra, op, Fraction(1),
                             DomainSpec.basis(0, 0)).passed


# --- operators are linear maps compiled from their basis images --------------


def test_domain_errors_survive_compiled_images():
    m2 = make_matrix_algebra(2)
    undefined = re.escape("operator 'ms' is not defined on matrix(4)")
    for op in (MS, modified_of(MS)):
        # twice each: nothing is cached for an algebra the operator rejects
        for x in (m2.zero(), m2.zero(), m2.basis_element(0), m2.from_coords([1, 0, 0, 2])):
            with pytest.raises(OperatorDomainError, match=undefined):
                op(x)
    integ = make_integration()
    assert integ(L.element({0: 1, 2: 3})) == L.element({1: 1, 3: 1})
    for _ in range(2):
        with pytest.raises(OperatorDomainError,
                           match=re.escape("integration undefined on exponent -1 < 0")):
            integ(L.element({2: 1, -1: 3}))
    assert integ(L.zero()).is_zero


def test_image_tables_tell_apart_equal_algebras_of_different_kinds():
    # the preset and a table loaded from its constants are equal algebras,
    # but a matrix operator is only defined on the preset's kind
    m2 = make_matrix_algebra(2)
    loaded = FiniteAlgebra(m2.constants)
    assert loaded == m2
    op = matrix_operator(m2, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    assert op(m2.basis_element(0)) == m2.basis_element(0)
    for x in (loaded.zero(), loaded.basis_element(0)):
        with pytest.raises(OperatorDomainError,
                           match=re.escape("operator 'matrix' is not defined on "
                                           "structure-constants(4)")):
            op(x)


def test_operators_built_and_dropped_in_a_loop_never_share_images():
    # Structurally different operators built and dropped one after another,
    # so a new one may take the memory of one just freed: each must answer
    # from its own images.
    x = L.element({k: k + 5 for k in range(-4, 5)})
    for n in range(300):
        op = make_shift_truncation(n % 7 - 3) if n % 2 else scale_operator(n, MS)
        assert op(x) == apply_operator(L, op.expr, x)
        assert op(x) == apply_operator(L, op.expr, x)
        del op


def test_a_matrix_of_the_wrong_size_is_refused():
    with pytest.raises(InvalidDimensionError,
                       match=re.escape("matrix must be 2x2 for componentwise(2)")):
        matrix_operator(make_componentwise(2), [[1]])
