"""Element arithmetic, operator expressions, and sweep domains."""

import itertools
import re
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotabaxter.algebra import (
    Compose,
    DomainSpec,
    Identity,
    Scale,
    Sum,
    apply_operator,
    lie_bracket,
)
from rotabaxter.algebras import (
    FiniteAlgebra,
    StructureConstants,
    laurent,
    make_componentwise,
    make_matrix_algebra,
    matrix_basis_index,
    polynomial,
)
from rotabaxter.errors import (
    AlgebraMismatchError,
    FormatError,
    InvalidDomainError,
    OperatorDomainError,
)
from rotabaxter.operators import make_miller, make_rms
from test_random_sweeps import draws

L = laurent()
P = polynomial()


def dense_multiply(xs, ys):
    """Independent Laurent product: dense coefficient lists with offsets."""
    if not xs or not ys:
        return {}
    lo_x, lo_y = min(xs), min(ys)
    hi_x, hi_y = max(xs), max(ys)
    ax = [xs.get(e, Fraction(0)) for e in range(lo_x, hi_x + 1)]
    ay = [ys.get(e, Fraction(0)) for e in range(lo_y, hi_y + 1)]
    out = [Fraction(0)] * (len(ax) + len(ay) - 1)
    for i, ci in enumerate(ax):
        for j, cj in enumerate(ay):
            out[i + j] += ci * cj
    return {lo_x + lo_y + k: c for k, c in enumerate(out) if c != 0}


laurent_terms = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    max_size=5,
)


def test_element_is_canonical():
    x = L.element({2: Fraction(1), -1: Fraction(0)})
    assert x.support() == (2,)
    assert type(x.coefficient(2)) is int
    half = Fraction(1, 2)
    assert L.element({0: half}).coefficient(0) is half
    assert L.element({0: 1}) - L.element({0: 1}) == L.zero()


def test_linear_combine_examples():
    z = L.monomial(-1)
    assert z.scale(1) + z.scale(1) == L.element({-1: 2})
    z2 = L.monomial(2)
    assert (z2.scale(1) + z2.scale(-1)).is_zero
    a2 = make_componentwise(2)
    e1 = a2.basis_element(0)
    e2 = a2.basis_element(1)
    mid = (e1 + e2).scale(Fraction(1, 2)) + (e1 - e2).scale(Fraction(1, 2))
    assert mid == e1


def test_mixed_algebra_operations_rejected():
    with pytest.raises(AlgebraMismatchError):
        L.monomial(0) + P.monomial(0)
    with pytest.raises(AlgebraMismatchError):
        L.monomial(0) * make_componentwise(2).basis_element(0)


def test_laurent_multiply_example():
    x = L.monomial(-1) + L.monomial(1)
    y = L.monomial(-1)
    assert x * y == L.element({-2: 1, 0: 1})


def test_laurent_unit():
    x = L.element({-3: Fraction(2, 5), 0: 1, 4: -2})
    assert L.unit() * x == x
    assert x * L.unit() == x


@given(laurent_terms, laurent_terms)
@settings(max_examples=60)
def test_laurent_multiply_matches_dense_oracle(xs, ys):
    x, y = L.element(xs), L.element(ys)
    assert (x * y).terms == dense_multiply(x.terms, y.terms)


@given(laurent_terms, laurent_terms, laurent_terms)
@settings(max_examples=40)
def test_laurent_bilinear_and_associative(xs, ys, zs):
    x, y, z = L.element(xs), L.element(ys), L.element(zs)
    assert (x + y) * z == x * z + y * z
    assert z * (x + y) == z * x + z * y
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


def test_componentwise_products():
    a3 = make_componentwise(3)
    e2 = a3.basis_element(1)
    assert e2 * e2 == e2
    a2 = make_componentwise(2)
    assert (a2.basis_element(0) * a2.basis_element(1)).is_zero


def test_apply_operator_examples():
    ms = make_rms()
    x = L.monomial(3)
    assert apply_operator(L, Identity(), x) == x
    modified = Sum(Scale(1, Identity()), Scale(-2, ms.expr))
    assert apply_operator(L, modified, L.monomial(-1)) == L.element({-1: -1})
    twice = Compose(ms.expr, ms.expr)
    arg = L.element({-2: 1, 1: 1})
    assert apply_operator(L, twice, arg) == L.monomial(-2)


def test_compose_order_inner_first():
    from rotabaxter.operators import matrix_operator

    a2 = make_componentwise(2)
    lower = matrix_operator(a2, [[0, 1], [0, 0]], label="lower")  # e2 -> e1
    proj = matrix_operator(a2, [[1, 0], [0, 0]], label="proj")    # kill e2
    e2 = a2.basis_element(1)
    assert apply_operator(a2, Compose(proj.expr, lower.expr), e2) == a2.basis_element(0)
    assert apply_operator(a2, Compose(lower.expr, proj.expr), e2).is_zero


def test_operator_domain_error():
    ms = make_rms()
    m2 = make_componentwise(2)
    with pytest.raises(OperatorDomainError):
        apply_operator(m2, ms.expr, m2.basis_element(0))


@given(laurent_terms, laurent_terms,
       st.fractions(min_value=-4, max_value=4, max_denominator=5),
       st.fractions(min_value=-4, max_value=4, max_denominator=5))
@settings(max_examples=40)
def test_operator_linearity(xs, ys, c1, c2):
    ms = make_rms()
    exprs = [Identity(), ms.expr, Scale(Fraction(3, 2), ms.expr),
             Sum(Identity(), ms.expr), Compose(ms.expr, ms.expr)]
    x, y = L.element(xs), L.element(ys)
    combo = x.scale(c1) + y.scale(c2)
    for expr in exprs:
        lhs = apply_operator(L, expr, combo)
        rhs = (apply_operator(L, expr, x).scale(c1)
               + apply_operator(L, expr, y).scale(c2))
        assert lhs == rhs


def test_lie_bracket_examples():
    assert lie_bracket(L, L.monomial(1), L.monomial(-1)).is_zero
    m2 = make_matrix_algebra(2)
    e = lambda p, q: m2.basis_element(matrix_basis_index(2, p, q))
    assert lie_bracket(m2, e(0, 1), e(1, 0)) == e(0, 0) - e(1, 1)
    x = e(0, 1) + 2 * e(1, 1)
    assert lie_bracket(m2, x, x).is_zero


def test_lie_bracket_antisymmetry_and_jacobi():
    m2 = make_matrix_algebra(2)
    rng = random.Random(7)
    spec = DomainSpec.random(1, coeff_bound=4, seed=7)
    for _ in range(25):
        x = m2.random_element(spec, rng)
        y = m2.random_element(spec, rng)
        z = m2.random_element(spec, rng)
        assert lie_bracket(m2, x, y) == -lie_bracket(m2, y, x)
        jac = (lie_bracket(m2, x, lie_bracket(m2, y, z))
               + lie_bracket(m2, y, lie_bracket(m2, z, x))
               + lie_bracket(m2, z, lie_bracket(m2, x, y)))
        assert jac.is_zero


def test_random_element_deterministic():
    spec = DomainSpec.random(10, lo=-2, hi=2, coeff_bound=5, support_bound=3, seed=99)
    assert (L.random_element(spec, random.Random(spec.seed))
            == L.random_element(spec, random.Random(spec.seed)))


def test_random_element_bounds():
    spec = DomainSpec.random(1, lo=-2, hi=2, coeff_bound=5, support_bound=3, seed=3)
    rng = random.Random(3)
    for _ in range(50):
        x = L.random_element(spec, rng)
        assert len(x.terms) <= 3
        for e, c in x.terms.items():
            assert -2 <= e <= 2
            assert abs(c.numerator) <= 5  # reduction can only shrink it
            assert c.denominator <= 5


def test_random_element_zero_coeff_bound():
    spec = DomainSpec.random(1, coeff_bound=0, seed=1)
    assert L.random_element(spec, random.Random(spec.seed)).is_zero


def test_domain_spec_guards():
    with pytest.raises(InvalidDomainError, match=r"empty exponent range \[3, -3\]"):
        DomainSpec.basis(3, -3)
    with pytest.raises(InvalidDomainError, match=r"empty exponent range \[1, 0\]"):
        DomainSpec.random(5, lo=1, hi=0)
    with pytest.raises(InvalidDomainError, match="needs at least one sample, got 0"):
        DomainSpec.random(0)


# --- the two kinds of domain --------------------------------------------------

M4 = make_componentwise(4)  # the algebra of the selector miller:2,2


@pytest.mark.parametrize("algebra,keys", [(L, range(-2, 3)), (P, range(0, 3)), (M4, range(4))],
                         ids=["laurent", "polynomial", "miller:2,2"])
def test_basis_window_tuples_are_the_basis_tuples_in_key_order(algebra, keys):
    dom = DomainSpec.basis(-2, 2)
    basis = [algebra.basis_element(k) for k in keys]
    assert dom.basis(algebra) == basis
    for arity in (1, 2, 3):
        assert list(dom.tuples(algebra, arity)) == list(itertools.product(basis, repeat=arity))


@pytest.mark.parametrize("algebra", [L, P, M4], ids=["laurent", "polynomial", "miller:2,2"])
def test_random_sample_tuples_are_the_seeded_draws(algebra):
    dom = DomainSpec.random(7, lo=-2, hi=2, coeff_bound=4, support_bound=2, seed=11)
    for arity in (1, 2, 3):
        assert list(dom.tuples(algebra, arity)) == draws(algebra, dom, arity)


def test_domains_refuse_a_window_with_no_basis_key():
    for dom in (DomainSpec.basis(-3, -1), DomainSpec.random(5, lo=-3, hi=-1)):
        with pytest.raises(InvalidDomainError, match="empty basis window"):
            dom.tuples(P, 2)


def test_domain_report_forms():
    window = DomainSpec.basis(-2, 3)
    sample = DomainSpec.random(5, lo=-1, hi=2, coeff_bound=4, support_bound=2, seed=9)
    basis_form = {"mode": "basis", "lo": -2, "hi": 3}
    # a finite basis sweep keeps the window it ignores
    assert window.describe(L) == window.describe(M4) == basis_form
    assert sample.describe(L) == {"mode": "random", "lo": -1, "hi": 2, "samples": 5,
                                  "coeff_bound": 4, "support_bound": 2, "seed": 9}
    assert list(sample.describe(L)) == ["mode", "lo", "hi", "samples", "coeff_bound",
                                        "support_bound", "seed"]
    assert sample.describe(M4) == {"mode": "random", "samples": 5, "coeff_bound": 4, "seed": 9}
    assert list(sample.describe(M4)) == ["mode", "samples", "coeff_bound", "seed"]


def test_domain_equality_and_repr():
    assert DomainSpec.basis(0, 3) == DomainSpec.basis(0, 3)
    assert DomainSpec.basis(0, 3) != DomainSpec.basis(0, 4)
    assert DomainSpec.random(5, seed=1) == DomainSpec.random(5, seed=1)
    assert DomainSpec.random(5, seed=1) != DomainSpec.random(5, seed=2)
    assert DomainSpec.basis(-4, 4) != DomainSpec.random(5)
    assert DomainSpec.basis(0, 3) != (0, 3)
    assert repr(DomainSpec.basis(0, 3)) == "DomainSpec({'mode': 'basis', 'lo': 0, 'hi': 3})"
    assert repr(DomainSpec.random(5, seed=1)) == (
        "DomainSpec({'mode': 'random', 'lo': -4, 'hi': 4, 'samples': 5, "
        "'coeff_bound': 5, 'support_bound': 3, 'seed': 1})")


def test_random_domain_refuses_a_negative_coeff_bound():
    with pytest.raises(InvalidDomainError, match="coeff_bound >= 0, got -3"):
        DomainSpec.random(50, coeff_bound=-3)


def test_random_domain_refuses_a_negative_support_bound():
    with pytest.raises(InvalidDomainError, match="support_bound >= 0, got -1"):
        DomainSpec.random(50, support_bound=-1)


def test_polynomial_rejects_negative_exponents():
    with pytest.raises(FormatError):
        P.element({-1: 1})


# --- literal syntax ---------------------------------------------------------


def test_parse_laurent_literal():
    x = L.parse_element("3/2 z^-2 + z^0 - z^3")
    assert x == L.element({-2: Fraction(3, 2), 0: 1, 3: -1})
    assert L.parse_element("z") == L.monomial(1)
    assert L.parse_element("-4") == L.element({0: -4})
    assert L.parse_element("0").is_zero


def test_literal_round_trip():
    x = L.element({-2: Fraction(3, 2), 0: 1, 3: -1, 5: Fraction(-2, 7)})
    assert L.parse_element(L.format_element(x)) == x
    assert L.format_element(L.zero()) == "0"


def test_parse_laurent_literal_rejects_junk():
    for bad in ["z^", "2 +", "q^2", "1 1", ""]:
        with pytest.raises(FormatError):
            L.parse_element(bad)


def test_vector_literal_round_trip():
    a3 = make_componentwise(3)
    x = a3.element({0: Fraction(1, 2), 2: -3})
    text = a3.format_element(x)
    assert text == "[1/2, 0, -3]"
    assert a3.parse_element(text) == x
    with pytest.raises(FormatError):
        a3.parse_element("[1, 2]")


def _set_terms(x):
    x.terms = {}


C2, C3 = make_componentwise(2), make_componentwise(3)
NON_UNITAL = FiniteAlgebra(StructureConstants.build(1, [[[0]]]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: _set_terms(L.monomial(1)), AttributeError, "Element is immutable"),
    (lambda: L.monomial(1).coords(), AlgebraMismatchError,
     "coords() needs a finite-dimensional algebra"),
    (lambda: NON_UNITAL.unit(), OperatorDomainError, "structure-constants(1) has no unit"),
    (lambda: apply_operator(C3, make_miller(1, 1).expr, C3.unit()), OperatorDomainError,
     "operator 'miller:1,1' needs dimension 2, got componentwise(3)"),
    (lambda: apply_operator(C3, Identity(), C2.unit()), AlgebraMismatchError,
     "element does not belong to the given algebra"),
    (lambda: C2.parse_element("1, 2"), FormatError, "vector literal must be bracketed: '1, 2'"),
], ids=["immutable", "coords", "unit", "dimension", "algebra", "unbracketed"])
def test_a_misused_element_or_operator_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
