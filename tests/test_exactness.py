"""Coefficients are exact: an ``int`` or a ``Fraction``, never a ``float``,
and integral data stays ``int`` through products."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rotabaxter.algebra import (
    Element,
    apply_operator,
    clean_terms,
    linear_extension,
)
from rotabaxter.algebras import laurent, make_componentwise, make_matrix_algebra, polynomial
from rotabaxter.checks import _rref
from rotabaxter.dendriform import (
    build_from_nijenhuis,
    build_modified_pair,
    build_tri_from_rbo,
    build_weight0_pair,
)
from rotabaxter.operators import (
    make_identity_operator,
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    matrix_operator,
    modified_of,
    nijenhuis_family,
    normalize_weight,
    operator_matrix,
    scale_operator,
)
from rotabaxter.tensor import TensorAlgebra, tensor2

from test_checks import identity_sides

L = laurent()
P = polynomial()
M2 = make_matrix_algebra(2)
MILLER = make_miller(2, 2)

# ints, integral Fractions and proper Fractions alike
scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.integers(-4, 4).map(Fraction),
)


def assert_exact(x: Element) -> None:
    for c in x.terms.values():
        assert type(c) in (int, Fraction), (type(c), x)


def _laurent_ops():
    ms = make_rms()
    return [ms, make_rms_opposite(), make_shift_truncation(1), modified_of(ms),
            nijenhuis_family(ms, Fraction(1, 2)),
            normalize_weight(scale_operator(3, ms)),
            normalize_weight(scale_operator(Fraction(2, 3), ms))]


def _polynomial_ops():
    integ = make_integration()
    return [integ, modified_of(integ), scale_operator(Fraction(1, 2), integ),
            normalize_weight(scale_operator(2, make_identity_operator(P)))]


def _finite_ops(draw):
    rows = [[draw(scalars) for _ in range(4)] for _ in range(4)]
    op = matrix_operator(M2, rows, weight=draw(scalars.filter(bool)))
    return [op, normalize_weight(op),
            normalize_weight(scale_operator(5, make_identity_operator(M2)))]


CASES = {
    "laurent": (L, range(-3, 4), lambda draw: _laurent_ops()),
    "polynomial": (P, range(0, 5), lambda draw: _polynomial_ops()),
    "matrix:2": (M2, range(4), _finite_ops),
    "miller:2,2": (MILLER.algebra, range(4),
                   lambda draw: [MILLER, modified_of(MILLER)]),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_chains_never_produce_floats(data):
    draw = data.draw
    algebra, keys, make_ops = CASES[draw(st.sampled_from(sorted(CASES)))]
    ops = make_ops(draw)

    def element():
        support = draw(st.lists(st.sampled_from(list(keys)), max_size=3, unique=True))
        return algebra.element({k: draw(scalars) for k in support})

    pool = [element(), element()]
    for _ in range(draw(st.integers(1, 8))):
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        step = draw(st.sampled_from(["add", "sub", "neg", "scale", "mul", "op"]))
        if step == "add":
            z = x + y
        elif step == "sub":
            z = x - y
        elif step == "neg":
            z = -x
        elif step == "scale":
            z = draw(scalars) * x
        elif step == "mul":
            z = x * y
        else:
            z = draw(st.sampled_from(ops))(x)
        assert_exact(z)
        pool.append(z)
    if algebra.dimension is not None:
        reduced, _ = _rref([list(z.coords()) for z in pool])
        for row in reduced:
            assert all(type(c) in (int, Fraction) for c in row), row
        for op in ops:
            for row in operator_matrix(algebra, op):
                assert all(type(c) in (int, Fraction) for c in row), row


def _structures(algebra, op, lam):
    """Each construction built from ``op`` with its ≺, ≻ and ∘ written out
    through the operator's expression walk; ∘ is None for the two-product
    constructions."""
    R = lambda v: apply_operator(algebra, op.expr, v)
    return [
        (build_weight0_pair(op), (lambda a, b: a * R(b), lambda a, b: R(a) * b, None)),
        (build_modified_pair(op, lam), (lambda a, b: a * R(b) - lam * (a * b),
                                        lambda a, b: R(a) * b + lam * (a * b), None)),
        (build_tri_from_rbo(op, lam), (lambda a, b: a * R(b), lambda a, b: R(a) * b,
                                       lambda a, b: (-lam) * (a * b))),
        (build_from_nijenhuis(op), (lambda a, b: a * R(b), lambda a, b: R(a) * b,
                                    lambda a, b: -R(a * b))),
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compiled_maps_match_their_definitions(data):
    """Operators extended from cached basis values, and products on
    elements and on term dicts, agree with their definitions on random
    elements and zero, on first use and once the operators' tables are
    warm."""
    draw = data.draw
    algebra, keys, make_ops = CASES[draw(st.sampled_from(sorted(CASES)))]
    ops = make_ops(draw)

    def element():
        support = draw(st.lists(st.sampled_from(list(keys)), max_size=3, unique=True))
        return algebra.element({k: draw(scalars) for k in support})

    xs = [element() for _ in range(3)]
    for op in ops:
        for x in xs + xs:
            z = op(x)
            assert z == apply_operator(algebra, op.expr, x)
            assert_exact(z)
    operands = xs + [algebra.zero()]
    pairs = [(a, b) for a in operands for b in operands]
    for ds, formulas in _structures(algebra, draw(st.sampled_from(ops)), draw(scalars)):
        for a, b in pairs + pairs:
            star = algebra.zero()
            for product, formula in zip((ds.prec, ds.succ, ds.middle), formulas):
                if formula is None:
                    assert product is None
                    continue
                expected = formula(a, b)
                z = product(a, b)
                assert z == expected
                assert_exact(z)
                raw = product.on_terms(algebra)(a.terms, b.terms)
                assert all(type(c) in (int, Fraction) for c in raw.values()), raw
                assert clean_terms(raw) == expected.terms
                star = star + z
            z = ds.star(a, b)
            assert z == star
            assert_exact(z)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operators_on_terms_match_the_element_map(data):
    """``on_terms`` of a term dict, a single unit term (the cached image)
    included, is the terms of the operator's image: clean, and exact."""
    draw = data.draw
    algebra, keys, make_ops = CASES[draw(st.sampled_from(sorted(CASES)))]
    ops = make_ops(draw)

    def unit_or_element_terms():
        if draw(st.booleans()):
            return {draw(st.sampled_from(list(keys))): 1}
        support = draw(st.lists(st.sampled_from(list(keys)), max_size=3, unique=True))
        return algebra.element({k: draw(scalars) for k in support}).terms

    xs = [unit_or_element_terms() for _ in range(3)]
    for op in ops:
        on_terms = op.on_terms(algebra)
        for terms in xs + xs:
            image = on_terms(terms)
            x = Element(algebra, terms)
            assert image == op(x).terms == apply_operator(algebra, op.expr, x).terms
            assert all(image.values()), image
            for c in image.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), image


def assert_int(x: Element) -> None:
    for c in x.terms.values():
        assert type(c) is int, (type(c), x)


def test_laurent_basis_sweep_keeps_int_coefficients():
    sides = identity_sides("rbr", L, make_rms(), Fraction(1))
    for i in range(-3, 4):
        for j in range(-3, 4):
            x, y = L.basis_element(i), L.basis_element(j)
            assert_int(x * y)
            for side in sides(x, y):
                assert_int(side)


def test_matrix_product_keeps_int_coefficients():
    x = M2.element({0: 1, 1: -2, 3: 3})
    y = M2.from_coords([2, 0, Fraction(4, 2), -1])
    assert_int(x * y)
    assert_int(x * y - y * x)
    for i in range(4):
        for j in range(4):
            assert all(type(c) is int for c in M2.basis_product(i, j).values())


def test_integral_finite_results_of_fraction_operands_are_int():
    """Finite products and operator images of ``Fraction`` operands clean
    their results, so an integral coordinate comes back an ``int``, not a
    ``Fraction(n, 1)``."""
    h = Fraction(1, 2)
    M3 = make_matrix_algebra(3)
    x = M3.from_coords([h, h, 1, 3 * h, -h, 2, -h, 3 * h, 1])
    y = M3.from_coords([h, h, -h, 3 * h, 3 * h, 5 * h, 1, 2, -1])
    assert x * y == M3.from_coords([2, 3, 0, 2, 4, -4, 3, 4, 3])
    assert_int(x * y)
    half_miller = scale_operator(h, make_miller(3, 2))
    z = make_componentwise(5).from_coords([2, -4, 6, -2, Fraction(1, 3)])
    assert half_miller(z) == z.algebra.from_coords([2, 1, 3, 0, 1])
    assert_int(half_miller(z))


def test_tensor_product_keeps_int_coefficients():
    r = tensor2(M2, {(0, 1): 1, (1, 3): 2})
    assert_int(r * r)


def test_integration_and_normalize_are_exact():
    x = P.element({0: 1, 1: 1, 3: 4})
    assert make_integration()(x) == P.element({1: 1, 2: Fraction(1, 2), 4: 1})
    assert_exact(make_integration()(x))
    half = normalize_weight(scale_operator(2, make_rms()))
    assert half.expr.coeff == Fraction(1, 2)
    assert type(normalize_weight(scale_operator(-1, make_rms())).expr.coeff) is int


def test_integral_basis_values_enter_tables_as_int():
    """2·∫z = z² is computed as 2·(1/2)·z², a Fraction(1, 1) coefficient;
    compiled operators store it, and the products computed from it hold
    it, as an int."""
    double_integral = scale_operator(2, make_integration())
    z = P.monomial(1)
    assert double_integral(z) == P.monomial(2)
    assert_int(double_integral(z))
    ds = build_weight0_pair(double_integral)
    assert ds.prec(P.monomial(0), z) == P.monomial(2)
    assert_int(ds.prec(P.monomial(0), z))
    assert_int(ds.star(z, z))


def test_integral_sums_and_products_of_fractions_are_int():
    """Integral results are ``int`` on every algebra kind, also where
    ``Fraction`` arithmetic computed them."""
    h = Fraction(1, 2)
    half_z = L.monomial(1, h)
    half_pole = L.monomial(-1, h)
    half_e11 = M2.element({0: h})
    for z, expected in ((half_z * L.monomial(1, 2), {2: 1}),
                        (half_z + half_z, {1: 1}),
                        (half_e11 + half_e11, {0: 1}),
                        (make_rms()(half_pole + half_pole), {-1: 1})):
        assert z.terms == expected
        assert all(type(c) is int for c in z.terms.values()), z.terms


# Mostly the coefficients that the kernels take no arithmetic on (1, -1)
# or that must come back ``int`` (small ints, integral Fractions).
kernel_coeffs = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def naive(pairs) -> dict:
    """Σ c·terms over ``(c, terms)`` pairs in ``Fraction`` arithmetic,
    without zeros."""
    acc: dict = {}
    for c, terms in pairs:
        for k, v in terms.items():
            acc[k] = acc.get(k, Fraction(0)) + Fraction(c) * Fraction(v)
    return {k: v for k, v in acc.items() if v}


def assert_kernel(raw: dict, expected: dict, *operands) -> None:
    """``raw`` cleaned equals ``expected``, holds no float and is ``int``
    wherever integral; when every operand coefficient is an ``int``, so is
    every raw coefficient, zeros included."""
    assert all(type(c) in (int, Fraction) for c in raw.values()), raw
    clean = clean_terms(raw)
    assert clean == expected
    for c in clean.values():
        assert (type(c) is int) == (Fraction(c).denominator == 1), clean
    if all(type(c) is int for terms in operands for c in terms.values()):
        assert all(type(c) is int for c in raw.values()), raw


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_accumulation_kernels_match_a_naive_fraction_sum(data):
    draw = data.draw
    keys = range(-2, 3)

    def terms(keys=keys):
        support = draw(st.lists(st.sampled_from(list(keys)), max_size=3, unique=True))
        return {k: draw(kernel_coeffs) for k in support}

    a, b = terms(), terms()
    ab = [(ci * cj, {i + j: 1}) for i, ci in a.items() for j, cj in b.items()]
    assert_kernel(L.multiply_terms(a, b), naive(ab), a, b)
    x, y = L.element(a), L.element(b)
    assert_kernel((x + y).terms, naive([(1, a), (1, b)]), a, b)

    images = {k: terms() for k in a}  # the basis values the maps are asked for
    op = linear_extension(lambda x: L.element(naive((c, images[k]) for k, c in x.terms.items())))
    assert_kernel(op.on_terms(L)(a), naive((c, images[k]) for k, c in a.items()),
                  a, *images.values())

    T = TensorAlgebra(M2, 2)
    pairs = [(i, j) for i in range(4) for j in range(4)]
    r, s = terms(pairs), terms(pairs)
    rs = [(ci * cj, T.basis_product(i, j)) for i, ci in r.items() for j, cj in s.items()]
    assert_kernel(T.multiply_terms(r, s), naive(rs), r, s)

    rows = [[draw(kernel_coeffs) for _ in range(4)] for _ in range(4)]
    v = terms(range(4))
    columns = [(c, {i: row[j] for i, row in enumerate(rows)}) for j, c in v.items()]
    assert_kernel(matrix_operator(M2, rows)(M2.element(v)).terms, naive(columns), v,
                  *({j: c for j, c in enumerate(row)} for row in rows))
