"""Identity checkers: positives, refutations, witness soundness."""

import hashlib
import json
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotabaxter import checks
from rotabaxter.algebra import DomainSpec, Element, apply_operator, clean_terms, lie_bracket
from rotabaxter.algebras import (
    LaurentAlgebra,
    laurent,
    make_componentwise,
    make_matrix_algebra,
    polynomial,
    structure_constants_to_json,
)
from rotabaxter.checks import (
    IDENTITIES,
    check,
    check_idempotent,
    check_image_closure,
    check_lie_modified,
    check_modified_rbr,
    check_nijenhuis,
    check_rbr,
    find_violation,
    violation_report,
)
from rotabaxter.cli import parse_algebra, parse_operator
from rotabaxter.dendriform import (
    build_from_nijenhuis,
    build_modified_pair,
    build_tri_from_rbo,
    build_weight0_pair,
    check_dialgebra,
    check_rbr_on_compositions,
    check_star_associative,
    check_trialgebra,
)
from rotabaxter.errors import OperatorDomainError, UnsupportedDomainError
from rotabaxter.operators import (
    compose_operator,
    make_identity_operator,
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    matrix_operator,
    modified_of,
    nijenhuis_family,
    operator_matrix_from_json,
    opposite_of,
    scale_operator,
    sum_operator,
    thresholds,
)
from rotabaxter.rationals import as_rational
from rotabaxter.report import dumps_reports
from rotabaxter.suite import borel_projector_m2
from rotabaxter.tensor import TensorAlgebra, induced_operator, tensor2

L = laurent()
P = polynomial()
MS = make_rms()
MS_OPP = make_rms_opposite()
INTEG = make_integration()
ONE = Fraction(1)


def identity_sides(identity, algebra, op, lam):
    """The sides of one of the checks' ``IDENTITIES`` as elements."""
    sides = IDENTITIES[identity](algebra.multiply_terms, op.on_terms(algebra), as_rational(lam))
    return lambda x, y: tuple(Element._trusted(algebra, side)
                              for side in sides(x.terms, y.terms))


def truncation_residual_on_monomials(r, lam, i, j):
    """Closed-form residual of the Rota-Baxter relation for the
    truncation R_r on z^i, z^j: keep(e) = 1 iff e <= r."""
    keep = lambda e: 1 if e <= r else 0
    s = i + j
    lhs = keep(i) * keep(j) + lam * keep(s)
    rhs = keep(s) * (keep(i) + keep(j))
    return lhs - rhs  # coefficient of z^(i+j)


def test_rbr_worked_example_pole_pair():
    x = y = L.monomial(-1)
    sides = identity_sides("rbr", L, MS, ONE)
    lhs, rhs = sides(x, y)
    assert lhs == L.element({-2: 2})
    assert rhs == L.element({-2: 2})


def test_rbr_worked_example_integration():
    sides = identity_sides("rbr", P, INTEG, Fraction(0))
    one = P.monomial(0)
    lhs, rhs = sides(one, one)
    assert lhs == P.element({2: 1})
    assert rhs == P.element({2: 1})


def test_rbr_truncation_fails_with_recorded_witness():
    r1 = make_shift_truncation(1)
    report = check_rbr(L, r1, ONE, DomainSpec.basis(-4, 4))
    assert not report.passed
    w = report.witness
    # witness soundness: both sides re-evaluate to the recorded values
    sides = identity_sides("rbr", L, r1, ONE)
    lhs, rhs = sides(*w.inputs)
    assert (lhs, rhs) == (w.lhs, w.rhs)
    assert lhs - rhs == w.diff and not w.diff.is_zero


def test_rbr_truncations_match_closed_form_oracle():
    for r in (-3, -2, -1, 0, 1, 2, 3):
        op = make_shift_truncation(r)
        expected_ok = all(
            truncation_residual_on_monomials(r, 1, i, j) == 0
            for i in range(-4, 5) for j in range(-4, 5))
        report = check_rbr(L, op, ONE, DomainSpec.basis(-4, 4))
        assert report.passed == expected_ok, f"r={r}"


def test_modified_rbr_worked_examples():
    b = modified_of(MS)
    sides = identity_sides("modified-rbr", L, b, ONE)
    zm = L.monomial(-1)
    lhs, rhs = sides(zm, zm)
    assert lhs == L.monomial(-2) and rhs == L.monomial(-2)
    z = L.monomial(1)
    lhs, rhs = sides(z, z)
    assert lhs == L.monomial(2) and rhs == L.monomial(2)


def test_modified_rbr_weight_zero_case():
    b = modified_of(INTEG)  # B = -2R at weight 0
    assert check_modified_rbr(P, b, Fraction(0), DomainSpec.basis(0, 6)).passed


def test_nijenhuis_worked_examples():
    n2 = nijenhuis_family(MS, 2)
    sides = identity_sides("nijenhuis", L, n2, ONE)
    lhs, rhs = sides(L.monomial(-1), L.monomial(1))
    assert lhs == L.element({0: 2}) and rhs == L.element({0: 2})
    lhs, rhs = sides(L.monomial(1), L.monomial(1))
    assert lhs == L.element({2: 8}) and rhs == L.element({2: 8})
    n1 = nijenhuis_family(MS, 1)
    sides = identity_sides("nijenhuis", L, n1, ONE)
    lhs, rhs = sides(L.monomial(0), L.monomial(0))
    assert lhs == L.element({0: 2}) and rhs == L.element({0: 2})


def test_lie_modified_commutative_is_vacuous():
    bad = modified_of(make_shift_truncation(3))  # not even a Rota-Baxter op
    assert check_lie_modified(L, bad, ONE, DomainSpec.basis(-3, 3)).passed


def test_lie_modified_matches_antisymmetrized_modified_residual():
    m2 = make_matrix_algebra(2)
    b = modified_of(borel_projector_m2())
    mod_sides = identity_sides("modified-rbr", m2, b, ONE)
    lie_sides = identity_sides("lie-modified", m2, b, ONE)
    basis = [m2.basis_element(i) for i in range(4)]
    for x in basis:
        for y in basis:
            ml, mr = mod_sides(x, y)
            nl, nr = mod_sides(y, x)
            ll, lr = lie_sides(x, y)
            assert (ml - mr) - (nl - nr) == ll - lr


def test_lie_modified_alternating_inputs_pass():
    m2 = make_matrix_algebra(2)
    b = modified_of(borel_projector_m2())
    sides = identity_sides("lie-modified", m2, b, ONE)
    x = m2.basis_element(1) + 2 * m2.basis_element(2)
    lhs, rhs = sides(x, x)
    assert lhs.is_zero and rhs.is_zero


def test_operator_domain_error_propagates():
    import pytest as _pytest

    from rotabaxter.errors import OperatorDomainError

    with _pytest.raises(OperatorDomainError):
        check_rbr(L, INTEG, Fraction(0), DomainSpec.basis(-2, 2))


def test_identity_operator_has_weight_one():
    ident = make_identity_operator(L)
    assert ident.weight == ONE
    assert check_rbr(L, ident, ONE, DomainSpec.basis(-3, 3)).passed
    assert not check_rbr(L, ident, Fraction(0), DomainSpec.basis(-3, 3)).passed


def test_idempotent_reports():
    assert check_idempotent(L, MS, DomainSpec.basis(-8, 8)).passed
    assert check_idempotent(L, make_identity_operator(L),
                            DomainSpec.basis(-3, 3)).passed
    report = check_idempotent(P, INTEG, DomainSpec.basis(0, 4))
    assert not report.passed
    w = report.witness
    assert w.inputs[0] == P.monomial(0)  # first failing monomial is t^0
    assert w.lhs == INTEG(INTEG(w.inputs[0]))
    assert w.rhs == INTEG(w.inputs[0])


# --- image closure ----------------------------------------------------------


def test_image_closure_miller_22_images():
    op = make_miller(2, 2)
    alg = op.algebra
    # column reduction oracle by hand: R(e1)=e1, R(e2)=e1+e2, R(e3)=-e4,
    # R(e4)=0 so im(R) = span(e1, e2, e4); opposite (1-R) gives
    # span(e1, e3, e4).  Both closed under the componentwise product.
    assert op(alg.basis_element(2)) == -alg.basis_element(3)
    report = check_image_closure(alg, op)
    assert report.passed
    assert "im(R) rank 3" in report.notes


def test_image_closure_miller_11():
    op = make_miller(1, 1)
    report = check_image_closure(op.algebra, op)
    assert report.passed
    assert "im(R) rank 1" in report.notes


def test_image_closure_zero_operator():
    m2 = make_matrix_algebra(2)
    zero_op = matrix_operator(m2, [[0] * 4 for _ in range(4)],
                              label="zero", weight=0)
    report = check_image_closure(m2, zero_op)
    assert report.passed
    assert "im(R) rank 0" in report.notes


def test_image_closure_failure_case():
    # span(E11, E12 + E21) is not closed: its square contains E22.
    m2 = make_matrix_algebra(2)
    rows = [
        [1, 0, 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 0, 0],
    ]
    op = matrix_operator(m2, rows, label="bad-proj", weight=0)
    report = check_image_closure(m2, op)
    assert not report.passed
    assert report.witness is not None
    u, v = report.witness.inputs
    assert m2.multiply(u, v) == report.witness.lhs
    assert report.witness.lhs - report.witness.rhs == report.witness.diff


def test_image_closure_laurent_window():
    report = check_image_closure(L, MS, DomainSpec.basis(-4, 4))
    assert report.passed
    report = check_image_closure(L, MS_OPP, DomainSpec.basis(-4, 4))
    assert report.passed


def test_image_closure_laurent_needs_window_and_projector():
    with pytest.raises(UnsupportedDomainError):
        check_image_closure(L, MS)
    with pytest.raises(UnsupportedDomainError):
        check_image_closure(L, scale_operator(2, MS), DomainSpec.basis(-2, 2))


def test_image_closure_refuses_random_samples_and_tensor_algebras():
    miller = make_miller(2, 2)
    with pytest.raises(UnsupportedDomainError,
                       match="^image closure is swept on basis images, not random samples$"):
        check_image_closure(miller.algebra, miller, DomainSpec.random(3))
    square = tensor2(make_matrix_algebra(2), {}).algebra
    with pytest.raises(UnsupportedDomainError,
                       match=r"^image closure is not defined on matrix\(4\)⊗matrix\(4\)$"):
        check_image_closure(square, make_identity_operator())


def test_image_closure_truncation_above_zero_not_closed():
    r1 = make_shift_truncation(1)
    report = check_image_closure(L, r1, DomainSpec.basis(-2, 2))
    assert not report.passed  # z^1 * z^1 = z^2 escapes
    assert "im(R) not closed" in report.notes
    # replay: the sides are the product and its image under R
    w = report.witness
    x, y = w.inputs
    assert (x, y) == (L.monomial(1), L.monomial(1))
    assert w.lhs == x * y == L.monomial(2)
    assert w.rhs == r1(x * y) and w.rhs.is_zero
    assert w.diff == w.lhs - w.rhs


def test_image_closure_vets_both_images_before_any_product():
    # im(R) is not closed on this window (previous test), but at weight 2
    # the opposite 2·id − R doubles z^2, so it is no projector; that is
    # found before the product of any two image elements is tested
    r1 = replace(make_shift_truncation(1), weight=2)
    with pytest.raises(UnsupportedDomainError, match="maps z\\^2 to 2 z\\^2"):
        check_image_closure(L, r1, DomainSpec.basis(-2, 2))


# --- violation search -------------------------------------------------------


def test_find_violation_examples():
    w = find_violation(L, "rbr", make_shift_truncation(1), ONE)
    assert w.inputs == (L.monomial(1), L.monomial(1))
    assert w.diff == L.monomial(2)

    w = find_violation(L, "rbr", make_shift_truncation(-2), ONE)
    assert w.inputs == (L.monomial(-1), L.monomial(-1))
    assert w.lhs == L.monomial(-2) and w.rhs.is_zero

    assert find_violation(L, "rbr", MS, ONE) is None


def test_find_violation_deterministic():
    a = find_violation(L, "rbr", make_shift_truncation(2), ONE)
    b = find_violation(L, "rbr", make_shift_truncation(2), ONE)
    assert a.inputs == b.inputs and a.diff == b.diff


def test_violation_report_statuses():
    bad = violation_report(L, "rbr", make_shift_truncation(3), ONE, max_range=4)
    assert bad.status == "fail" and bad.witness is not None
    good = violation_report(L, "rbr", make_shift_truncation(0), ONE, max_range=4)
    assert good.status == "pass" and good.witness is None


# --- stated invariants ------------------------------------------------------

BUILTIN_CASES = [
    (L, MS, ONE),
    (L, MS_OPP, ONE),
    (L, scale_operator(-1, MS), Fraction(-1)),
    (L, make_shift_truncation(0), ONE),
    (L, make_shift_truncation(1), ONE),
    (L, make_shift_truncation(-2), ONE),
    (P, INTEG, Fraction(0)),
]


@pytest.mark.parametrize("identity", ["rbr", "modified-rbr", "nijenhuis"])
def test_exhaustive_and_random_modes_agree(identity):
    for alg, op, lam in BUILTIN_CASES:
        use = modified_of(op) if identity == "modified-rbr" else op
        exhaustive = DomainSpec.basis(-4, 4)
        randomized = DomainSpec.random(1000, lo=-4, hi=4, coeff_bound=5,
                                       support_bound=3, seed=2024)
        check = {"rbr": check_rbr, "modified-rbr": check_modified_rbr,
                 "nijenhuis": check_nijenhuis}[identity]
        verdict_basis = check(alg, use, lam, exhaustive).status
        verdict_random = check(alg, use, lam, randomized).status
        assert verdict_basis == verdict_random, (identity, op.describe())


def test_derivation_consistency_modified_from_verified():
    """Operators verified at weight λ ≠ 0 give modified operators
    passing the modified relation at the same λ."""
    cases = [(L, MS, ONE), (L, MS_OPP, ONE), (L, scale_operator(-1, MS),
                                              Fraction(-1))]
    for s, t in ((1, 1), (2, 2), (3, 1)):
        op = make_miller(s, t)
        cases.append((op.algebra, op, ONE))
    for alg, op, lam in cases:
        dom = DomainSpec.basis(-4, 4)
        assert check_rbr(alg, op, lam, dom).passed
        assert check_modified_rbr(alg, modified_of(op), lam, dom).passed


def test_opposite_stability_at_weight_one():
    for op in (MS, MS_OPP, make_shift_truncation(0), borel_projector_m2(),
               make_miller(2, 2)):
        alg = op.algebra
        dom = DomainSpec.basis(-4, 4)
        assert check_rbr(alg, op, ONE, dom).passed
        assert check_rbr(alg, opposite_of(op), ONE, dom).passed


def test_nijenhuis_family_over_sampled_alphas():
    for alpha in (Fraction(-3), Fraction(-1), Fraction(0), Fraction(2, 3),
                  Fraction(1), Fraction(7, 2), Fraction(5)):
        n = nijenhuis_family(MS, alpha)
        assert check_nijenhuis(L, n, ONE, DomainSpec.basis(-4, 4)).passed


def test_modified_pass_implies_lie_modified_pass():
    cases = [(L, modified_of(MS), ONE),
             (make_matrix_algebra(2), modified_of(borel_projector_m2()), ONE)]
    for s, t in ((1, 1), (2, 2)):
        op = make_miller(s, t)
        cases.append((op.algebra, modified_of(op), ONE))
    for alg, b, lam in cases:
        dom = DomainSpec.basis(-3, 3)
        if check_modified_rbr(alg, b, lam, dom).passed:
            assert check_lie_modified(alg, b, lam, dom).passed


# --- report serialization ---------------------------------------------------


def test_report_json_shape_and_determinism():
    report = check_rbr(L, make_shift_truncation(1), ONE, DomainSpec.basis(-4, 4))
    payload = report.to_json()
    assert set(payload) == {"check", "algebra", "operator", "weight", "domain",
                            "status", "tuples", "witness", "notes"}
    assert payload["status"] == "fail"
    assert payload["witness"]["diff"] == "z^2"
    again = check_rbr(L, make_shift_truncation(1), ONE, DomainSpec.basis(-4, 4))
    assert dumps_reports(report) == dumps_reports(again)


def test_random_mode_reports_byte_deterministic():
    dom = DomainSpec.random(50, lo=-3, hi=3, coeff_bound=4, support_bound=2,
                            seed=5)
    a = dumps_reports(check_rbr(L, MS, ONE, dom))
    b = dumps_reports(check_rbr(L, MS, ONE, dom))
    assert a == b


def test_identity_table_drives_check():
    from rotabaxter.checks import IDENTITIES, check
    from rotabaxter.errors import InvalidDomainError

    assert list(IDENTITIES) == ["rbr", "modified-rbr", "nijenhuis", "lie-modified"]
    dom = DomainSpec.basis(-3, 3)
    assert dumps_reports(check("rbr", L, MS, ONE, dom)) == \
        dumps_reports(check_rbr(L, MS, ONE, dom))
    with pytest.raises(InvalidDomainError):
        check("no-such-identity", L, MS, ONE, dom)


def test_violation_search_budget_counts():
    # windows [-k, k] for k = 0..4
    report = violation_report(L, "rbr", make_shift_truncation(0), ONE, max_range=4)
    assert report.passed and report.tuples == 165
    # a finite algebra's windows all coincide, so the basis is swept once
    m2 = make_matrix_algebra(2)
    report = violation_report(m2, "rbr", make_identity_operator(m2), ONE, max_range=4)
    assert report.passed and report.tuples == 16


def test_violation_search_makes_each_window_when_it_reaches_it():
    """A witness at tuple 10 is found without the key lists of all 2,001
    windows, which took over 100 MB."""
    tracemalloc.start()
    try:
        report = violation_report(L, "rbr", make_shift_truncation(1), ONE, max_range=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.status, report.tuples) == ("fail", 10)
    assert peak < 4 * 2**20


# --- the identities on term dicts --------------------------------------------

M3 = make_matrix_algebra(3)
# not a Rota-Baxter operator at any weight, with proper fractions
M3_OP = matrix_operator(M3, [
    [Fraction(1, 2), 1, 0, 0, 0, 0, 0, 0, 0], [0] * 9,
    [0, 0, 1, 0, 0, 0, 0, 0, Fraction(-2, 3)], [0] * 9,
    [0, 0, 0, 0, 1, 0, 0, 0, 0], [0] * 9, [0] * 9, [0] * 9,
    [0, 0, 0, 0, 0, 0, 0, 0, 1]], label="frac")
MILLER = make_miller(2, 2)

# (algebra, keys of its elements, operators)
ELEMENT_CASES = [
    (L, range(-3, 4), [MS, nijenhuis_family(MS, Fraction(3, 2))]),
    (P, range(0, 5), [INTEG]),
    (M3, range(9), [M3_OP]),
    (MILLER.algebra, range(4), [MILLER]),
]

# the identities as written on elements, the reference for the term dicts
ELEMENT_FORMULAS = {
    "rbr": lambda A, op, lam, x, y: (
        op(x) * op(y) + lam * op(x * y), op(op(x) * y + x * op(y))),
    "modified-rbr": lambda A, op, lam, x, y: (
        op(x) * op(y), op(op(x) * y + x * op(y)) - (lam * lam) * (x * y)),
    "nijenhuis": lambda A, op, lam, x, y: (
        op(x) * op(y) + lam * op(op(x * y)), op(op(x) * y + x * op(y))),
    "lie-modified": lambda A, op, lam, x, y: (
        lie_bracket(A, op(x), op(y)),
        op(lie_bracket(A, op(x), y) + lie_bracket(A, x, op(y)))
        - (lam * lam) * lie_bracket(A, x, y)),
}

coefficients = st.one_of(st.integers(-3, 3).filter(bool),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4)
                         .filter(bool))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_identity_sides_match_the_element_formulas(data):
    algebra, keys, ops = data.draw(st.sampled_from(ELEMENT_CASES))
    op = data.draw(st.sampled_from(ops))
    lam = data.draw(st.sampled_from([Fraction(0), ONE, Fraction(-1), Fraction(3, 2)]))
    identity = data.draw(st.sampled_from(list(ELEMENT_FORMULAS)))
    # empty dicts give zero elements
    x, y = (algebra.element(data.draw(st.dictionaries(st.sampled_from(keys),
                                                      coefficients, max_size=4)))
            for _ in range(2))
    assert identity_sides(identity, algebra, op, lam)(x, y) == \
        ELEMENT_FORMULAS[identity](algebra, op, lam, x, y)


def test_term_sides_raise_where_the_element_formulas_raise():
    integ_on_laurent = replace(INTEG, algebra=L)
    x, y = L.element({1: 2, -2: 1}), L.monomial(0)
    for identity, formula in ELEMENT_FORMULAS.items():
        with pytest.raises(OperatorDomainError, match="exponent -2 < 0"):
            formula(L, integ_on_laurent, ONE, x, y)
        with pytest.raises(OperatorDomainError, match="exponent -2 < 0"):
            identity_sides(identity, L, integ_on_laurent, ONE)(x, y)
    m2 = make_matrix_algebra(2)
    for dom in (DomainSpec.basis(0, 0), DomainSpec.random(5, seed=1)):
        with pytest.raises(OperatorDomainError,
                           match=re.escape("operator 'ms' is not defined on matrix(4)")):
            check_rbr(m2, MS, ONE, dom)
    with pytest.raises(OperatorDomainError, match="exponent -2 < 0"):
        check_rbr(L, INTEG, Fraction(0), DomainSpec.basis(-2, 2))
    with pytest.raises(OperatorDomainError, match="exponent -3 < 0"):
        check_lie_modified(L, INTEG, Fraction(0), DomainSpec.random(5, seed=3))


def digest(reports) -> str:
    return hashlib.sha256(dumps_reports(reports).encode()).hexdigest()


def test_pair_identity_reports_are_pinned():
    """The serialised reports of failing pair-identity sweeps, recorded
    while the identities were still evaluated on elements."""
    lie = check_lie_modified(M3, M3_OP, ONE,
                             DomainSpec.random(12, coeff_bound=3, seed=4))
    assert (lie.status, lie.tuples) == ("fail", 1)
    assert lie.witness.to_json()["lhs"] == "[0, 0, 7/2, 0, 0, 0, 0, 0, 0]"
    assert digest(lie) == \
        "1b7db9bf041c0a490f6fc9f7bfc9b805d780371eb3124683428d9d49bfbd1012"
    modified = check_modified_rbr(L, modified_of(MS), Fraction(2), DomainSpec.basis(-2, 3))
    assert (modified.status, modified.tuples) == ("fail", 1)
    assert digest(modified) == \
        "014476b5046cea00c62c59b1c74930d3a2706897c17de57fdc03d6cbbb14a898"
    # the recorded bytes with the domain's "samples" 0 instead of 200, the
    # only change since the search lost its random phase
    search = violation_report(L, "nijenhuis", make_shift_truncation(2), ONE)
    assert (search.status, search.tuples) == ("fail", 30)
    assert digest(search) == \
        "a12ca7513f76e08de4ec87fb963e7cad2164440aa6e4bdce07f992125fbcb57d"


def _laurent_family():
    """ms, the operators derived from it, and a failing truncation."""
    ms = make_rms()
    return [ms, modified_of(ms), opposite_of(ms), nijenhuis_family(ms, Fraction(1, 2)),
            make_shift_truncation(1)]


def _miller_family():
    """The same on miller:2,2, a finite algebra."""
    m = make_miller(2, 2)
    return [m, modified_of(m), opposite_of(m), nijenhuis_family(m, Fraction(1, 2)),
            scale_operator(2, m)]


@pytest.mark.parametrize("make_ops", [_laurent_family, _miller_family],
                         ids=["laurent", "miller:2,2"])
def test_cached_operator_images_survive_every_check(make_ops):
    """``on_terms`` hands out its cached image of a basis element itself;
    no check that reads it writes into it."""
    ops = make_ops()
    rbo, modified, opposite, nij, failing = ops
    algebra = rbo.algebra
    dom = DomainSpec.basis(-3, 3)
    for op in ops:
        for lam in (ONE, Fraction(1, 2)):
            check_rbr(algebra, op, lam, dom)
            check_modified_rbr(algebra, op, lam, dom)
            check_nijenhuis(algebra, op, lam, dom)
            for identity in ("rbr", "modified-rbr", "nijenhuis"):
                violation_report(algebra, identity, op, lam, max_range=2)
        check_idempotent(algebra, op, dom)
    assert not check_rbr(algebra, failing, ONE, dom).passed
    for ds in (build_tri_from_rbo(rbo, ONE), build_tri_from_rbo(opposite, ONE),
               build_from_nijenhuis(nij), build_modified_pair(modified, ONE)):
        if ds.has_middle:
            check_trialgebra(ds, dom)
        check_star_associative(ds, dom)

    for op, fresh in zip(ops, make_ops()):
        images = op.on_terms(algebra)
        for k in algebra.basis_keys(dom.lo, dom.hi):
            image = images({k: 1})
            assert image is images({k: 1})  # the cached image itself
            assert image == fresh.on_terms(algebra)({k: 1})
            assert image == apply_operator(algebra, op.expr, algebra.basis_element(k)).terms
            assert all(image.values()), image


# --- one pair per sign pattern -----------------------------------------------

SCALARS = [Fraction(0), ONE, Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2)]


def truncation_ops(depth: int):
    """Operators built by scale, sum and compose, at most ``depth`` deep,
    from id and the truncations ms, ms-opp and shift:r, r in [-3, 3]."""
    leaves = st.one_of(st.sampled_from([make_rms(), make_rms_opposite(), make_identity_operator()]),
                       st.integers(-3, 3).map(make_shift_truncation))
    if depth == 0:
        return leaves
    inner = truncation_ops(depth - 1)
    return st.one_of(leaves,
                     st.builds(scale_operator, st.sampled_from(SCALARS), inner),
                     st.builds(sum_operator, inner, inner),
                     st.builds(compose_operator, inner, inner))


def full_sweep(fn, *args):
    """``fn(*args)`` with no sign-pattern key and no transposition key, so
    every tuple is evaluated."""
    with mock.patch.object(checks, "_basis_key", lambda *args: None), \
            mock.patch.object(LaurentAlgebra, "commutative", False):
        return fn(*args)


def test_sign_pattern_sweeps_match_full_sweeps():
    statuses = set()

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def one_case(data):
        algebra = data.draw(st.sampled_from([L, P]))
        op = data.draw(truncation_ops(3))
        identity = data.draw(st.sampled_from(list(IDENTITIES)))
        lam = data.draw(st.sampled_from([Fraction(0), ONE, Fraction(-1), Fraction(1, 2)]))
        lo = data.draw(st.integers(-6, 10))
        # a polynomial window must hold an exponent >= 0
        hi = data.draw(st.integers(max(lo, 0 if algebra is P else lo), 10))
        dom = DomainSpec.basis(lo, hi)
        max_range = data.draw(st.integers(0, 5))
        for fn, args in ((check, (identity, algebra, op, lam, dom)),
                         (violation_report, (algebra, identity, op, lam, max_range))):
            report = fn(*args)
            assert report.to_json() == full_sweep(fn, *args).to_json()
            statuses.add(report.status)

    one_case()
    assert statuses == {"pass", "fail"}


def test_sign_pattern_axiom_passes_match_full_passes():
    """The dendriform axioms and the ≺/≻ compositions of a truncation
    splitting, decided one tuple per sign pattern, give the reports of
    passes that evaluate every tuple."""
    statuses = set()
    splittings = [lambda op, lam: build_weight0_pair(op), build_modified_pair,
                  build_tri_from_rbo, lambda op, lam: build_from_nijenhuis(op)]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def one_case(data):
        algebra = data.draw(st.sampled_from([L, P]))
        op = replace(data.draw(truncation_ops(2)), algebra=algebra)
        lam = data.draw(st.sampled_from([ONE, Fraction(-1), Fraction(1, 2)]))
        ds = data.draw(st.sampled_from(splittings))(op, lam)
        # an offset window at most 5 wide; a polynomial one must hold an exponent >= 0
        lo = data.draw(st.integers(-4 if algebra is P else -6, 6))
        hi = data.draw(st.integers(max(lo, 0) if algebra is P else lo, lo + 4))
        dom = DomainSpec.basis(lo, hi)
        runs = [(check_dialgebra, ds), (check_star_associative, ds),
                (check_rbr_on_compositions, ds, op)]
        if ds.has_middle:
            runs.append((check_trialgebra, ds))
        for fn, *args in runs:
            reports, full = fn(*args, dom), full_sweep(fn, *args, dom)
            assert dumps_reports(reports) == dumps_reports(full)
            statuses.update(r.status for r in (reports if isinstance(reports, list) else [reports]))

    one_case()
    assert statuses == {"pass", "fail"}


@pytest.mark.parametrize("op", [make_rms(), make_rms_opposite()]
                         + [make_shift_truncation(r) for r in range(-3, 4)],
                         ids=lambda op: op.describe())
def test_declared_cuts_are_true(op):
    """R(z^e) = c·z^e for every e, with one c at or below the cut and
    another above it."""
    [cut] = thresholds(op.expr)
    scalars = {True: set(), False: set()}
    for e in range(-40, 41):
        image = op(L.monomial(e)).terms
        assert set(image) <= {e}
        scalars[e <= cut].add(image.get(e, 0))
    assert len(scalars[True]) == len(scalars[False]) == 1
    assert scalars[True] != scalars[False]


def test_thresholds_of_truncation_built_expressions():
    ms, shift1 = make_rms(), make_shift_truncation(1)
    assert thresholds(make_identity_operator().expr) == frozenset()
    assert thresholds(modified_of(ms).expr) == {-1}
    assert thresholds(nijenhuis_family(make_shift_truncation(2), Fraction(1, 2)).expr) == {2}
    assert thresholds(compose_operator(shift1, sum_operator(MS_OPP, scale_operator(-1, ms))).expr) \
        == {-1, 1}


M2 = make_matrix_algebra(2)
C2 = make_componentwise(2)
OUTSIDE_THE_CLASS = [
    INTEG,
    make_miller(1, 1),
    matrix_operator(C2, [[1, 0], [0, 0]]),
    operator_matrix_from_json({"dim": 2, "matrix": [[1, 0], [0, 0]]}, C2),
    induced_operator(tensor2(M2, {(1, 1): 1})),
]


@pytest.mark.parametrize("outside", OUTSIDE_THE_CLASS, ids=lambda op: op.describe())
def test_thresholds_is_none_outside_the_truncation_class(outside):
    ms, ident = make_rms(), make_identity_operator()
    for op in (outside, scale_operator(2, outside), sum_operator(ms, outside),
               sum_operator(outside, ident), compose_operator(outside, ms),
               compose_operator(ms, scale_operator(-1, sum_operator(ident, outside)))):
        assert thresholds(op.expr) is None


@pytest.fixture
def evaluated(monkeypatch):
    """The pairs on which the sides of ``rbr`` are evaluated."""
    pairs = []
    make_sides = IDENTITIES["rbr"]

    def counting_sides(algebra, op, lam):
        sides = make_sides(algebra, op, lam)

        def counted(x, y):
            pairs.append((x, y))
            return sides(x, y)

        return counted

    monkeypatch.setitem(IDENTITIES, "rbr", counting_sides)
    return pairs


def test_laurent_basis_sweep_evaluates_one_pair_per_sign_pattern(evaluated):
    report = check_rbr(L, MS, ONE, DomainSpec.basis(-12, 12))
    assert (report.status, report.tuples) == ("pass", 625)
    # (a, b, a+b) at or below -1: all but (yes, yes, no) and (no, no, yes)
    assert len(evaluated) == 6


def test_violation_search_evaluates_one_pair_per_sign_pattern(evaluated):
    report = violation_report(L, "rbr", make_shift_truncation(2), ONE)
    assert (report.status, report.tuples) == ("fail", 30)
    assert report.witness.to_json() == {"inputs": ["z", "z^2"], "lhs": "z^3", "rhs": "0",
                                        "diff": "z^3"}
    assert digest(report) == \
        "a572ad5c6bcf4951ad1165d7c6a719ba9d8a1bc0c839ffe3c85e5f2f6b440971"
    assert len(evaluated) < 30


@pytest.mark.parametrize("algebra, op, lam, dom, tuples, pairs", [
    (P, INTEG, Fraction(0), DomainSpec.basis(0, 20), 441, 231),
    (L, MS, ONE, DomainSpec.random(50, seed=2), 50, 50),
    (MILLER.algebra, MILLER, ONE, DomainSpec.basis(0, 0), 16, 10),
], ids=["integration", "random", "finite"])
def test_other_sweeps_evaluate_every_pair(evaluated, algebra, op, lam, dom, tuples, pairs):
    """Without a sign key, a basis sweep of a commutative algebra evaluates
    every pair up to transposition, n(n + 1)/2 of n², and a random sweep
    every tuple."""
    report = check_rbr(algebra, op, lam, dom)
    assert (report.status, report.tuples) == ("pass", tuples)
    assert len(evaluated) == pairs


# --- the transposition key of commutative algebras ---------------------------------


@pytest.fixture
def decided(monkeypatch):
    """The number of tuples on which each identity of a SharedPass is
    evaluated, by identity id."""
    calls = Counter()
    init = checks.SharedPass.__init__

    def counted(check_id, sides):
        def evaluate(*args):
            calls[check_id] += 1
            return sides(*args)

        return evaluate

    def counting_init(self, tuples, identities, prepare=None, key=None):
        init(self, tuples, {i: counted(i, s) for i, s in identities.items()}, prepare, key)

    monkeypatch.setattr(checks.SharedPass, "__init__", counting_init)
    return calls


def keyless(algebra, sweep):
    """``sweep()`` with ``algebra.commutative`` off, so every pair is evaluated."""
    with mock.patch.object(algebra, "commutative", False):
        return sweep()


# K[x]/(x³) on the basis 1, x, x², and the operator R(x²) = 1, R(1) = R(x) = 0
TRUNCATED_POLYNOMIALS = {"dim": 3, "unit": ["1", "0", "0"],
                         "c": [[[int(i + j == k) for k in range(3)] for j in range(3)]
                               for i in range(3)]}
LAST_TO_FIRST = {"dim": 3, "matrix": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]}
C3 = make_componentwise(3)
# im(R) = span(e0, e1 + 2e2), which holds e0·e0 and e0·(e1 + 2e2) = 0 but not (e1 + 2e2)²
NOT_CLOSED = matrix_operator(C3, [[1, 0, 0], [0, 1, 0], [0, 2, 0]], label="not-closed")
MILLER_12 = make_miller(1, 2)

# (algebra, sweep, tuples, pairs evaluated); each failure is at a pair with a
# transpose met before it
KEY_SITES = {
    **{f"polynomial-integration-{identity}": (
        P, lambda identity=identity: check(identity, P, INTEG, Fraction(0),
                                           DomainSpec.basis(0, 20)), 441, 231)
       for identity in IDENTITIES},
    "polynomial-violation": (
        P, lambda: violation_report(P, "rbr", compose_operator(INTEG, make_shift_truncation(3)),
                                    Fraction(0)), 11, 5),
    "miller-22": (MILLER.algebra, lambda: check_rbr(MILLER.algebra, MILLER, ONE,
                                                    DomainSpec.basis(0, 0)), 16, 10),
    "miller-12-modified": (MILLER_12.algebra, lambda: check_modified_rbr(
        MILLER_12.algebra, MILLER_12, ONE, DomainSpec.basis(0, 0)), 5, 4),
    "finite-image-closure": (C3, lambda: check_image_closure(C3, NOT_CLOSED), 4, 3),
    "laurent-image-closure": (L, lambda: check_image_closure(
        L, make_shift_truncation(2), DomainSpec.basis(-3, 3)), 30, 20),
}


@pytest.mark.parametrize("algebra, sweep, tuples, pairs", KEY_SITES.values(), ids=KEY_SITES)
def test_transposition_key_sweeps_match_full_sweeps(decided, algebra, sweep, tuples, pairs):
    report = sweep()
    assert (report.tuples, sum(decided.values())) == (tuples, pairs)
    assert report.to_json() == keyless(algebra, sweep).to_json()
    assert sum(decided.values()) == pairs + tuples


def test_transposition_key_on_a_file_table(decided, tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(TRUNCATED_POLYNOMIALS))
    (tmp_path / "r.json").write_text(json.dumps(LAST_TO_FIRST))
    algebra, context = parse_algebra(f"file:{tmp_path / 'a.json'}")
    op = parse_operator(f"file:{tmp_path / 'r.json'}", algebra, context)
    assert algebra.commutative
    # at weight 0 the witness is (x², x²), after three skipped transposes
    for lam, tuples, pairs in ((Fraction(0), 9, 6), (ONE, 3, 3)):
        decided.clear()
        sweep = lambda: check_rbr(algebra, op, lam, DomainSpec.basis(0, 0))
        report = sweep()
        assert (report.status, report.tuples, decided["rbr"]) == ("fail", tuples, pairs)
        assert report.to_json() == keyless(algebra, sweep).to_json()


def test_a_noncommutative_sweep_keeps_every_pair(evaluated):
    report = check_rbr(M2, borel_projector_m2(), ONE, DomainSpec.basis(0, 0))
    assert (report.status, report.tuples) == ("pass", 16)
    assert len(evaluated) == 16


def test_compositions_with_prec_and_succ_keep_every_pair(decided):
    """≺ and ≻ do not commute, even on a commutative algebra: with an
    operator that has no cuts, ``rbr.on.*`` evaluates every pair."""
    assert MILLER.algebra.commutative and thresholds(MILLER.expr) is None
    reports = check_rbr_on_compositions(build_tri_from_rbo(MILLER, ONE), MILLER,
                                        DomainSpec.basis(0, 0))
    assert [(r.check, r.status, r.tuples) for r in reports] == \
        [("rbr.on.prec", "pass", 16), ("rbr.on.succ", "pass", 16)]
    assert decided["rbr.on.prec"] == decided["rbr.on.succ"] == 16


def test_commutative_is_read_off_the_product(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(structure_constants_to_json(M2.constants)))
    (tmp_path / "a.json").write_text(json.dumps(TRUNCATED_POLYNOMIALS))
    assert L.commutative and P.commutative and C3.commutative
    assert parse_algebra(f"file:{tmp_path / 'a.json'}")[0].commutative
    assert not M2.commutative
    assert not parse_algebra(f"file:{path}")[0].commutative
    assert not TensorAlgebra(C3, 2).commutative


# --- the premise of the verdict key: equal keys, equal verdicts ------------------


def keyed_passes(sweep):
    """Run ``sweep()``; return the stream, sides, ``prepare`` and key of
    each keyed SharedPass it made, the stream as a list."""
    passes = []
    init = checks.SharedPass.__init__

    def recording_init(self, tuples, identities, prepare=None, key=None):
        tuples = list(tuples)
        if key is not None:
            passes.append((tuples, identities, prepare, key))
        init(self, tuples, identities, prepare, key)

    with mock.patch.object(checks.SharedPass, "__init__", recording_init):
        sweep()
    return passes


def assert_one_verdict_per_key(sweeps):
    """Every item of a keyed pass of ``sweeps`` has, under each identity of
    the pass, the verdict of every other item of its key."""
    for sweep in sweeps:
        for items, identities, prepare, key in keyed_passes(sweep):
            verdicts = {}
            for item in items:
                tup, args = (item, [x.terms for x in item]) if prepare is None else prepare(item)
                verdict = tuple(clean_terms(lhs) == clean_terms(rhs)
                                for lhs, rhs in (sides(*args) for sides in identities.values()))
                assert verdicts.setdefault(key(item), verdict) == verdict, tup


WEIGHTS = [Fraction(0), ONE, Fraction(-1), Fraction(1, 2)]
SPLITTINGS = [lambda op, lam: build_weight0_pair(op), build_modified_pair, build_tri_from_rbo,
              lambda op, lam: build_from_nijenhuis(op)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_sign_pattern_class_has_one_verdict(data):
    """On a Laurent-type window at most 5 wide, every pair or triple of
    one sign pattern has the verdict of the others, under each pair
    identity, the ≺/≻ compositions and each axiom of a splitting."""
    algebra = data.draw(st.sampled_from([L, P]))
    op = replace(data.draw(truncation_ops(2)), algebra=algebra)
    lam = data.draw(st.sampled_from(WEIGHTS))
    lo = data.draw(st.integers(-4 if algebra is P else -6, 6))
    dom = DomainSpec.basis(lo, data.draw(st.integers(max(lo, 0) if algebra is P else lo, lo + 4)))
    ds = data.draw(st.sampled_from(SPLITTINGS))(op, lam or ONE)
    sweeps = [lambda identity=identity: check(identity, algebra, op, lam, dom)
              for identity in IDENTITIES]
    sweeps += [lambda: violation_report(algebra, "rbr", op, lam, 2),
               lambda: check_dialgebra(ds, dom), lambda: check_star_associative(ds, dom),
               lambda: check_rbr_on_compositions(ds, op, dom)]
    if ds.has_middle:
        sweeps.append(lambda: check_trialgebra(ds, dom))
    assert_one_verdict_per_key(sweeps)


def matrix_ops(n: int):
    """Operators on ``componentwise:n`` with entries in [-1, 2]."""
    row = st.lists(st.integers(-1, 2), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(
        lambda rows: matrix_operator(make_componentwise(n), rows))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_transposition_class_has_one_verdict(data):
    """On a commutative algebra, for an operator without cuts, a pair and
    its transpose have one verdict under each pair identity and in both
    image closures.  The ≺/≻ compositions and the axioms are swept too, so
    a key given to their passes would be tested as well."""
    op = data.draw(st.one_of(
        matrix_ops(2), matrix_ops(3),
        st.builds(make_miller, st.integers(1, 2), st.integers(1, 2)),
        st.just(INTEG)))
    algebra, lam = op.algebra, data.draw(st.sampled_from(WEIGHTS))
    lo = data.draw(st.integers(0, 4))
    dom = DomainSpec.basis(lo, data.draw(st.integers(lo, lo + 4)))
    ds = build_tri_from_rbo(op, lam or ONE)
    sweeps = [lambda identity=identity: check(identity, algebra, op, lam, dom)
              for identity in IDENTITIES]
    sweeps += [lambda: violation_report(algebra, "rbr", op, lam, 2),
               lambda: check_rbr_on_compositions(ds, op, dom), lambda: check_dialgebra(ds, dom)]
    if algebra is not P:
        sweeps.append(lambda: check_image_closure(algebra, replace(op, weight=lam)))
    assert_one_verdict_per_key(sweeps)
