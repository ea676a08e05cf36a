"""Dendriform constructions and their axiom checks."""

import collections
import hashlib
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from rotabaxter import dendriform
from rotabaxter.algebra import DomainSpec
from rotabaxter.algebras import laurent, make_matrix_algebra, polynomial
from rotabaxter.checks import check_rbr
from rotabaxter.dendriform import (
    DendriformStructure,
    build_from_nijenhuis,
    build_modified_pair,
    build_tri_from_rbo,
    build_weight0_pair,
    check_dialgebra,
    check_rbr_on_compositions,
    check_star_associative,
    check_trialgebra,
)
from rotabaxter.errors import AlgebraMismatchError, OperatorDomainError, UnsupportedDomainError
from rotabaxter.operators import (
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    modified_of,
    nijenhuis_family,
    scale_operator,
)
from rotabaxter.report import CheckReport, Witness, dumps_reports
from rotabaxter.suite import borel_projector_m2

L = laurent()
P = polynomial()
MS = make_rms()
INTEG = make_integration()
HALF = Fraction(1, 2)


# --- constructions, frozen worked values -------------------------------------


def test_weight0_pair_values():
    ds = build_weight0_pair(INTEG)
    one = P.monomial(0)
    t = P.monomial(1)
    assert ds.prec(one, one) == t
    assert ds.succ(one, one) == t
    assert ds.prec(one, t) == P.element({2: HALF})
    assert ds.succ(one, t) == P.element({2: 1})
    assert ds.prec(P.zero(), t).is_zero
    assert not ds.has_middle


def test_modified_pair_values():
    b = modified_of(MS)
    ds = build_modified_pair(b, 1)
    zm = L.monomial(-1)
    assert ds.prec(zm, zm) == L.element({-2: -2})
    assert ds.succ(zm, zm).is_zero
    z = L.monomial(1)
    assert ds.prec(z, z).is_zero
    assert ds.succ(z, z) == L.element({2: 2})
    assert ds.prec(L.zero(), z).is_zero and ds.succ(L.zero(), z).is_zero


def test_modified_pair_footnote_equivalence_at_weight_one():
    """a≺b = −2a·R(b) and a≻b = 2(id−R)(a)·b at λ = 1."""
    b = modified_of(MS)
    ds = build_modified_pair(b, 1)
    opp = make_rms_opposite()
    for i in range(-3, 4):
        for j in range(-3, 4):
            x, y = L.monomial(i), L.monomial(j)
            assert ds.prec(x, y) == -2 * (x * MS(y))
            assert ds.succ(x, y) == 2 * (opp(x) * y)


def test_tri_from_rbo_values():
    neg = scale_operator(-1, MS)
    ds = build_tri_from_rbo(neg, -1)
    zm = L.monomial(-1)
    assert ds.prec(zm, zm) == L.element({-2: -1})
    assert ds.succ(zm, zm) == L.element({-2: -1})
    assert ds.middle(zm, zm) == L.element({-2: 1})

    ds_pos = build_tri_from_rbo(MS, 1)
    z = L.monomial(1)
    assert ds_pos.prec(z, z).is_zero
    assert ds_pos.succ(z, z).is_zero
    assert ds_pos.middle(z, z) == L.element({2: -1})
    assert ds_pos.prec(L.zero(), z).is_zero


def test_nijenhuis_structure_values():
    n1 = nijenhuis_family(MS, 1)  # 2R - id
    ds = build_from_nijenhuis(n1)
    z = L.monomial(1)
    assert ds.prec(z, z) == L.element({2: -1})
    assert ds.succ(z, z) == L.element({2: -1})
    assert ds.middle(z, z) == L.element({2: 1})
    assert ds.star(z, z) == L.element({2: -1})
    # against the declared star formula a·N(b) + N(a)·b − N(ab)
    for i in (-2, -1, 0, 1, 2):
        for j in (-2, -1, 0, 1, 2):
            a, b = L.monomial(i), L.monomial(j)
            direct = a * n1(b) + n1(a) * b - n1(a * b)
            assert ds.star(a, b) == direct
    n0 = nijenhuis_family(MS, 0)
    ds0 = build_from_nijenhuis(n0)
    zm = L.monomial(-1)
    assert ds0.star(zm, zm) == L.monomial(-2)


# --- axiom suites -------------------------------------------------------------


def test_dialgebra_weight0_integration():
    reports = check_dialgebra(build_weight0_pair(INTEG), DomainSpec.basis(0, 4))
    assert [r.check for r in reports] == ["ddi.1", "ddi.2", "ddi.3"]
    assert all(r.passed for r in reports)


def test_dialgebra_modified_pair():
    ds = build_modified_pair(modified_of(MS), 1)
    assert all(r.passed for r in check_dialgebra(ds, DomainSpec.basis(-4, 4)))


def test_dialgebra_fails_for_non_rbo():
    bad = build_weight0_pair(make_shift_truncation(1))  # not weight 0
    reports = check_dialgebra(bad, DomainSpec.basis(-3, 3))
    failing = [r for r in reports if not r.passed]
    assert failing
    w = failing[0].witness
    assert w is not None and not w.diff.is_zero


def _fold_middle(ds, into):
    """``ds`` with its ∘ added to its ``into`` product ("prec" or "succ")
    and then dropped: a structure with ≺ and ≻ only."""
    product = getattr(ds, into)
    folded = lambda a, b: product(a, b) + ds.middle(a, b)
    return replace(ds, middle=None, provenance=f"{ds.provenance}, ∘ in {into}",
                   **{into: folded})


# case -> ((R, λ, window), (passed, tuples) of ddi.1-ddi.3 for tri(R, λ) with ∘
# folded into either product); shift:2 is no Rota-Baxter operator
FOLDED_DIALGEBRAS = {
    "ms": ((MS, 1, (-4, 4)), [(True, 729)] * 3),
    "2ms": ((scale_operator(2, MS), 2, (-4, 4)), [(True, 729)] * 3),
    "-ms": ((scale_operator(-1, MS), -1, (-4, 4)), [(True, 729)] * 3),
    "miller:2,2": ((make_miller(2, 2), 1, (0, 0)), [(True, 64)] * 3),
    "row-projector": ((borel_projector_m2(), 1, (0, 0)), [(True, 64)] * 3),
    "shift:2": ((make_shift_truncation(2), 1, (-3, 3)), [(False, 34), (True, 343), (False, 232)]),
}


@pytest.mark.parametrize("into", ["prec", "succ"])
@pytest.mark.parametrize("case", list(FOLDED_DIALGEBRAS))
def test_a_weight_lambda_operator_gives_a_dialgebra_once_the_middle_is_folded(case, into):
    """The abstract's claim that a weight-λ Rota-Baxter operator gives a
    dendriform dialgebra: fold the ∘ = −λ·ab of tri(R, λ) into ≺ or into ≻.
    check_dialgebra reads only ≺ and ≻, and the unfolded pair a·R(b),
    R(a)·b of every case here fails ddi.1 and ddi.3: at λ ≠ 0 it is no
    dialgebra."""
    (op, lam, window), verdicts = FOLDED_DIALGEBRAS[case]
    ds, dom = build_tri_from_rbo(op, lam), DomainSpec.basis(*window)
    reports = check_dialgebra(_fold_middle(ds, into), dom)
    assert [r.check for r in reports] == ["ddi.1", "ddi.2", "ddi.3"]
    assert [(r.passed, r.tuples) for r in reports] == verdicts
    unfolded = {r.check: r.passed for r in check_dialgebra(ds, dom)}
    assert not unfolded["ddi.1"] and not unfolded["ddi.3"]


def test_trialgebra_positive_cases():
    for op, lam in ((MS, 1), (scale_operator(-1, MS), -1),
                    (make_rms_opposite(), 1)):
        ds = build_tri_from_rbo(op, lam)
        reports = check_trialgebra(ds, DomainSpec.basis(-3, 3))
        assert [r.check for r in reports] == [f"tri.{i}" for i in range(1, 8)]
        assert all(r.passed for r in reports)
        assert check_star_associative(ds, DomainSpec.basis(-3, 3)).passed


def test_trialgebra_miller():
    op = make_miller(2, 2)
    ds = build_tri_from_rbo(op, 1)
    assert all(r.passed for r in check_trialgebra(ds, DomainSpec.basis(0, 0)))
    assert check_star_associative(ds, DomainSpec.basis(0, 0)).passed


def test_wrong_sign_middle_fails_tri1_with_witness():
    ds = build_tri_from_rbo(MS, 1)
    wrong = replace(ds, middle=lambda a, b: a * b,
                    provenance="tri-wrong-sign(ms)")
    reports = {r.check: r for r in check_trialgebra(wrong, DomainSpec.basis(-4, 4))}
    assert reports["tri.1"].status == "fail"
    assert reports["tri.1"].witness is not None
    # the axioms that only use associativity survive the sign flip
    for axiom in ("tri.2", "tri.4", "tri.5", "tri.6", "tri.7"):
        assert reports[axiom].passed
    # replay the witness through the axiom's two sides
    w = reports["tri.1"].witness
    a, b, c = w.inputs
    lhs = wrong.prec(wrong.prec(a, b), c)
    rhs = wrong.prec(a, wrong.prec(b, c) + wrong.succ(b, c) + wrong.middle(b, c))
    assert lhs == w.lhs and rhs == w.rhs and lhs - rhs == w.diff


def test_star_associative_worked_example():
    ds = build_tri_from_rbo(MS, 1)
    z = L.monomial(1)
    assert ds.star(z, z) == L.element({2: -1})
    assert ds.star(ds.star(z, z), z) == L.monomial(3)
    assert ds.star(z, ds.star(z, z)) == L.monomial(3)


def test_star_associative_weight0_two_product():
    ds = build_weight0_pair(INTEG)
    assert check_star_associative(ds, DomainSpec.basis(0, 3)).passed


def test_nijenhuis_star_associativity():
    ds = build_from_nijenhuis(nijenhuis_family(MS, 1))
    report = check_star_associative(ds, DomainSpec.basis(-3, 3))
    assert report.check == "nij.star.assoc"
    assert report.passed


def test_nijenhuis_trialgebra_verdicts_reported():
    """The first four axioms are consequences of the Nijenhuis relation;
    the last three are not, and the checker must say so per case."""
    ds = build_from_nijenhuis(nijenhuis_family(MS, 1))
    reports = {r.check: r for r in check_trialgebra(ds, DomainSpec.basis(-3, 3))}
    for axiom in ("tri.1", "tri.2", "tri.3", "tri.4"):
        assert reports[axiom].passed
    for axiom in ("tri.5", "tri.6", "tri.7"):
        assert reports[axiom].status in ("pass", "fail")
        if not reports[axiom].passed:
            assert reports[axiom].witness is not None
    # on this domain the non-forced axioms do fail, with sound witnesses
    assert not reports["tri.7"].passed


def test_rbr_on_compositions_for_idempotent():
    ds = build_tri_from_rbo(MS, 1)
    reports = check_rbr_on_compositions(ds, MS, DomainSpec.basis(-4, 4))
    assert [r.check for r in reports] == ["rbr.on.prec", "rbr.on.succ"]
    assert all(r.passed for r in reports)
    assert not any("precondition-unmet" in n for r in reports for n in r.notes)


def test_rbr_on_compositions_flags_unmet_precondition():
    ds = build_weight0_pair(INTEG)
    reports = check_rbr_on_compositions(ds, INTEG, DomainSpec.basis(0, 3))
    assert all(any("precondition-unmet" in n for n in r.notes) for r in reports)


def test_failing_rbr_on_compositions_reports_are_pinned():
    """Reports of operators that are not weight 1 (shift:2) or neither
    idempotent nor weight 1 (2·ms), in basis and random mode, recorded
    while each composition had a sweep of its own on elements."""
    reports = []
    for R in (make_shift_truncation(2), scale_operator(2, MS)):
        ds = build_tri_from_rbo(R, 1)
        for dom in (DomainSpec.basis(-3, 3), DomainSpec.random(30, seed=2)):
            reports += check_rbr_on_compositions(ds, R, dom)
    assert [(r.check, r.status, r.tuples, str(r.witness.diff)) for r in reports] == [
        ("rbr.on.prec", "fail", 34, "z^3"), ("rbr.on.succ", "fail", 34, "z^3"),
        ("rbr.on.prec", "fail", 18, "3/2 z^3"), ("rbr.on.succ", "fail", 18, "3/2 z^3"),
        ("rbr.on.prec", "fail", 1, "-4 z^-6"), ("rbr.on.succ", "fail", 1, "-4 z^-6"),
        ("rbr.on.prec", "fail", 8, "12/5 z^-2"), ("rbr.on.succ", "fail", 6, "3 z^-1")]
    assert hashlib.sha256(dumps_reports(reports).encode()).hexdigest() == \
        "8b5add04011850aec5d8c76757a01608a3f3a69f2d28f14423edc40bb7bf5fd0"


def test_rbr_on_compositions_zero_inputs_pass():
    ds = build_tri_from_rbo(MS, 1)
    zero = L.zero()
    lhs = ds.prec(MS(zero), MS(zero)) + MS(ds.prec(zero, zero))
    assert lhs.is_zero


# --- stated structural invariants --------------------------------------------


def test_splitting_identity_star_equals_sum_of_products():
    for ds in (build_tri_from_rbo(MS, 1),
               build_tri_from_rbo(scale_operator(-1, MS), -1),
               build_from_nijenhuis(nijenhuis_family(MS, 2))):
        for i in (-2, 0, 3):
            for j in (-3, -1, 2):
                a, b = L.monomial(i), L.monomial(j)
                total = ds.prec(a, b) + ds.succ(a, b) + ds.middle(a, b)
                assert ds.star(a, b) == total


@pytest.mark.parametrize("build", [build_weight0_pair, lambda R: build_tri_from_rbo(R, 1),
                                   build_from_nijenhuis], ids=["weight0", "tri", "nijenhuis"])
@pytest.mark.parametrize("R", [MS, make_miller(2, 2)], ids=["ms", "miller:2,2"])
def test_operator_built_structures_share_one_splitting(build, R):
    """Whatever middle product a structure built from R has, its ≺ and ≻
    are a·R(b) and R(a)·b."""
    ds = build(R)
    for a, b in DomainSpec.random(20, seed=7).tuples(R.algebra, 2):
        assert ds.prec(a, b) == a * R(b)
        assert ds.succ(a, b) == R(a) * b


def test_one_rbr_factorization_at_weight_minus_one():
    """R(a*b) = R(a)·R(b) when R is verified at weight −1 and
    a*b = a·R(b) + R(a)·b + a·b."""
    neg = scale_operator(-1, MS)
    assert check_rbr(L, neg, Fraction(-1), DomainSpec.basis(-4, 4)).passed
    for i in range(-3, 4):
        for j in range(-3, 4):
            a, b = L.monomial(i), L.monomial(j)
            star = a * neg(b) + neg(a) * b + a * b
            assert neg(star) == neg(a) * neg(b)


def test_trialgebra_with_zero_middle_dominates_dialgebra():
    """A structure passing all seven axioms with ∘ ≡ 0 satisfies the
    dialgebra axioms: tri.1-tri.3 degenerate to ddi.1-ddi.3."""
    base = build_weight0_pair(INTEG)
    with_zero_middle = DendriformStructure(
        algebra=base.algebra, prec=base.prec, succ=base.succ,
        middle=lambda a, b: base.algebra.zero(),
        provenance="weight0-with-zero-middle", weight=base.weight)
    dom = DomainSpec.basis(0, 3)
    assert all(r.passed for r in check_trialgebra(with_zero_middle, dom))
    assert all(r.passed for r in check_dialgebra(base, dom))


def test_products_are_bilinear():
    ds = build_tri_from_rbo(MS, 1)
    a, b, c = L.monomial(-2), L.monomial(1), L.element({0: 1, 2: -3})
    lam = Fraction(5, 3)
    for product in (ds.prec, ds.succ, ds.middle, ds.star):
        assert product(a + lam * b, c) == product(a, c) + lam * product(b, c)
        assert product(c, a + lam * b) == product(c, a) + lam * product(c, b)


def test_a_product_of_elements_of_two_algebras_is_refused():
    """a·R(b) and R(a)·b refuse operands of two algebras: the algebra
    product does."""
    ds = build_tri_from_rbo(MS, 1)
    for a, b in ((L.monomial(1), P.monomial(1)), (P.monomial(1), L.monomial(1))):
        for product in (ds.prec, ds.succ):
            with pytest.raises(AlgebraMismatchError):
                product(a, b)


# --- products are computed from the operators' cached basis images -----------


def test_structures_built_and_dropped_in_a_loop_never_share_tables():
    a = L.element({-2: 1, 1: 2})
    b = L.element({-1: 3, 0: 1, 2: -1})
    for n in range(200):
        op = make_shift_truncation(n % 5 - 2)
        lam = Fraction(n % 3 + 1, 2)
        ds = build_tri_from_rbo(op, lam)
        for _ in range(2):
            assert ds.prec(a, b) == a * op(b)
            assert ds.succ(a, b) == op(a) * b
            assert ds.middle(a, b) == (-lam) * (a * b)
            assert ds.star(a, b) == a * op(b) + op(a) * b - lam * (a * b)
        del ds, op


def test_star_uses_a_replaced_product():
    ds = build_tri_from_rbo(MS, 1)
    a, b = L.element({-1: 1, 2: 1}), L.element({-2: 2, 1: 1})
    assert ds.star(a, b) == a * MS(b) + MS(a) * b - a * b
    wrong = replace(ds, middle=lambda x, y: x * y)
    assert wrong.star(a, b) == a * MS(b) + MS(a) * b + a * b
    assert ds.star(a, b) == a * MS(b) + MS(a) * b - a * b


def test_product_domain_errors_survive_compiled_tables():
    m2 = make_matrix_algebra(2)
    ds = build_tri_from_rbo(MS, 1)
    undefined = re.escape("operator 'ms' is not defined on matrix(4)")
    for product in (ds.prec, ds.succ, ds.star):
        with pytest.raises(OperatorDomainError, match=undefined):
            product(m2.zero(), m2.zero())
    # R(b) is undefined, so a≺b is, even for a = 0 and after a≺b was
    # computed for b in R's domain, on elements and on term dicts
    w0 = build_weight0_pair(INTEG)
    assert w0.prec(L.zero(), L.monomial(1)).is_zero
    negative = re.escape("integration undefined on exponent -1 < 0")
    # twice each: R caches no image where it is undefined
    for a, b in ((L.zero(), L.monomial(-1)), (L.monomial(2), L.monomial(-1))) * 2:
        with pytest.raises(OperatorDomainError, match=negative):
            w0.prec(a, b)
        with pytest.raises(OperatorDomainError, match=negative):
            w0.succ(b, a)
        with pytest.raises(OperatorDomainError, match=negative):
            w0.prec.on_terms(L)(a.terms, b.terms)
        with pytest.raises(OperatorDomainError, match=negative):
            w0.succ.on_terms(L)(b.terms, a.terms)



# --- one shared pass per structure gives the reports of one sweep per axiom ----


def element_axioms(ds):
    """The axioms written on elements, each to be swept on its own: the
    reference for the shared pass on term dicts."""
    lt, gt, mid, star = ds.prec, ds.succ, ds.middle, ds.star
    return {
        "ddi.1": lambda a, b, c: (lt(lt(a, b), c), lt(a, lt(b, c)) + lt(a, gt(b, c))),
        "ddi.2": lambda a, b, c: (gt(a, lt(b, c)), lt(gt(a, b), c)),
        "ddi.3": lambda a, b, c: (gt(a, gt(b, c)), gt(lt(a, b), c) + gt(gt(a, b), c)),
        "tri.1": lambda a, b, c: (lt(lt(a, b), c), lt(a, lt(b, c) + gt(b, c) + mid(b, c))),
        "tri.2": lambda a, b, c: (lt(gt(a, b), c), gt(a, lt(b, c))),
        "tri.3": lambda a, b, c: (gt(a, gt(b, c)), gt(lt(a, b) + gt(a, b) + mid(a, b), c)),
        "tri.4": lambda a, b, c: (mid(lt(a, b), c), mid(a, gt(b, c))),
        "tri.5": lambda a, b, c: (mid(gt(a, b), c), gt(a, mid(b, c))),
        "tri.6": lambda a, b, c: (lt(mid(a, b), c), mid(a, lt(b, c))),
        "tri.7": lambda a, b, c: (mid(mid(a, b), c), mid(a, mid(b, c))),
        "star.assoc": lambda a, b, c: (star(star(a, b), c), star(a, star(b, c))),
    }


def assert_reports_match_one_sweep_per_axiom(ds, dom, reports):
    """Each report is that of a plain sweep of its axiom on elements: the
    first tuple, as drawn, whose sides differ, and the tuples swept up to
    it."""
    axioms = element_axioms(ds)
    axioms["nij.star.assoc"] = axioms["star.assoc"]
    for report in reports:
        witness, count = None, 0
        for tup in dom.tuples(ds.algebra, 3):
            count += 1
            lhs, rhs = axioms[report.check](*tup)
            if lhs != rhs:
                witness = Witness(tup, lhs, rhs, lhs - rhs)
                break
        alone = CheckReport(check=report.check, algebra=ds.algebra.describe(),
                            operator=ds.provenance, weight=ds.weight,
                            domain=dom.describe(ds.algebra), tuples=count, witness=witness)
        assert report == alone
        assert report.to_json() == alone.to_json()


def outcomes(reports):
    return [(r.check, r.status, r.tuples) for r in reports]


def test_shared_pass_drops_axioms_at_their_first_witness():
    ds = build_tri_from_rbo(make_shift_truncation(2), 1)
    dom = DomainSpec.basis(-3, 3)
    reports = check_trialgebra(ds, dom) + [check_star_associative(ds, dom)]
    assert outcomes(reports) == [
        ("tri.1", "fail", 34), ("tri.2", "pass", 343), ("tri.3", "fail", 232),
        ("tri.4", "pass", 343), ("tri.5", "pass", 343), ("tri.6", "pass", 343),
        ("tri.7", "pass", 343), ("star.assoc", "fail", 34)]
    assert_reports_match_one_sweep_per_axiom(ds, dom, reports)


def test_shared_pass_dialgebra_of_a_wrong_weight():
    ds = build_weight0_pair(make_shift_truncation(1))
    dom = DomainSpec.basis(-3, 3)
    reports = check_dialgebra(ds, dom) + [check_star_associative(ds, dom)]
    assert outcomes(reports)[:3] == [
        ("ddi.1", "fail", 1), ("ddi.2", "pass", 343), ("ddi.3", "fail", 1)]
    assert_reports_match_one_sweep_per_axiom(ds, dom, reports)


def test_shared_pass_adapts_a_product_given_as_a_function_of_elements():
    wrong = replace(build_tri_from_rbo(MS, 1), middle=lambda a, b: a * b,
                    provenance="tri-wrong-sign(ms)")
    dom = DomainSpec.basis(-3, 3)
    reports = check_trialgebra(wrong, dom) + [check_star_associative(wrong, dom)]
    assert [r.status for r in reports] == ["fail", "pass", "fail"] + ["pass"] * 4 + ["fail"]
    assert_reports_match_one_sweep_per_axiom(wrong, dom, reports)


def test_shared_pass_in_random_mode():
    ds = build_from_nijenhuis(nijenhuis_family(MS, 1))
    dom = DomainSpec.random(20, seed=1)
    reports = check_trialgebra(ds, dom) + [check_star_associative(ds, dom)]
    assert outcomes(reports) == [(f"tri.{i}", "pass", 20) for i in range(1, 5)] + [
        (f"tri.{i}", "fail", 1) for i in range(5, 8)] + [("nij.star.assoc", "pass", 20)]
    assert_reports_match_one_sweep_per_axiom(ds, dom, reports)


@pytest.mark.parametrize("ds, outcome", [
    (build_tri_from_rbo(make_miller(2, 2), 1), ["fail", "pass", "fail"] + ["pass"] * 8),
    (build_modified_pair(modified_of(borel_projector_m2()), 1), ["pass"] * 4),
    (build_from_nijenhuis(nijenhuis_family(MS, HALF)),
     ["fail", "pass", "fail"] + ["pass"] * 4 + ["fail"] * 3 + ["pass"]),
    (build_tri_from_rbo(scale_operator(2, borel_projector_m2()), 1),
     ["fail", "pass", "fail"] * 2 + ["pass"] * 4 + ["fail"]),
], ids=["tri-miller", "modified-row-projector", "nijenhuis-half", "tri-twice-row-projector"])
def test_shared_pass_on_multi_term_and_fraction_values(ds, outcome):
    """Basis passes whose pair products have several terms (finite
    algebras) or Fraction coefficients, passing and failing."""
    dom = DomainSpec.basis(-3, 3)
    reports = check_dialgebra(ds, dom) + (check_trialgebra(ds, dom) if ds.has_middle else [])
    reports.append(check_star_associative(ds, dom))
    assert [r.status for r in reports] == outcome
    assert_reports_match_one_sweep_per_axiom(ds, dom, reports)


class CountingProduct:
    """A product whose term-level entry counts its calls."""

    def __init__(self, product):
        self.product, self.calls = product, 0

    def on_terms(self, algebra):
        mul = self.product.on_terms(algebra)

        def counted(x, y):
            self.calls += 1
            return mul(x, y)

        return counted


@pytest.mark.parametrize("name", ["prec", "middle"])
def test_basis_pass_computes_a_product_once_per_distinct_operand_pair(name):
    """The 729 tuples of a [-4, 4] window need ≺ and ∘ on far fewer
    distinct pairs of values, since z^p·z^q depends only on p + q; a pass
    that computed every side per tuple called ≺ 2,997 times and ∘ 4,455."""
    ds = build_tri_from_rbo(MS, 1)
    dom = DomainSpec.basis(-4, 4)
    counter = CountingProduct(getattr(ds, name))
    reports = check_trialgebra(replace(ds, **{name: counter}), dom)
    assert 0 < counter.calls <= 729
    assert reports == check_trialgebra(ds, dom)
    assert dumps_reports(reports) == dumps_reports(check_trialgebra(ds, dom))


# --- one tuple per sign pattern ------------------------------------------------


@pytest.fixture
def evaluated(monkeypatch):
    """The number of tuples on which each identity of a dendriform pass is
    evaluated while it is open."""
    counts = collections.Counter()

    def counted(identity, sides):
        def sides_counted(*args):
            counts[identity] += 1
            return sides(*args)

        return sides_counted

    class CountingPass(dendriform.SharedPass):
        def __init__(self, tuples, identities, *args, **kwargs):
            super().__init__(tuples, {i: counted(i, s) for i, s in identities.items()},
                             *args, **kwargs)

    monkeypatch.setattr(dendriform, "SharedPass", CountingPass)
    return counts


def test_truncation_splitting_evaluates_one_tuple_per_sign_pattern(evaluated):
    """On [-12, 12] each axiom of tri(ms) covers 15,625 triples and
    evaluates the first of each of the 24 sign patterns of a, b, c, a+b,
    b+c and a+b+c; the ≺/≻ compositions cover 625 pairs and evaluate the
    first of each of the 6 patterns of a, b and a+b."""
    ds = build_tri_from_rbo(MS, 1)
    dom = DomainSpec.basis(-12, 12)
    reports = check_trialgebra(ds, dom)
    assert outcomes(reports) == [(f"tri.{i}", "pass", 15625) for i in range(1, 8)]
    assert evaluated == {f"tri.{i}": 24 for i in range(1, 8)}
    evaluated.clear()
    assert outcomes(check_rbr_on_compositions(ds, MS, dom)) == [
        ("rbr.on.prec", "pass", 625), ("rbr.on.succ", "pass", 625)]
    assert evaluated == {"rbr.on.prec": 6, "rbr.on.succ": 6}


@pytest.mark.parametrize("ds, dom", [
    (replace(build_tri_from_rbo(MS, 1), middle=lambda a, b: -(a * b)), DomainSpec.basis(-2, 2)),
    (build_weight0_pair(INTEG), DomainSpec.basis(0, 4)),
], ids=["plain-middle", "weight0-integration"])
def test_passes_without_known_cuts_evaluate_every_triple(evaluated, ds, dom):
    """A product given as a plain function carries no cuts, and
    integration has none: such passes evaluate every triple."""
    reports = (check_trialgebra if ds.has_middle else check_dialgebra)(ds, dom)
    reports.append(check_star_associative(ds, dom))
    assert {(r.status, r.tuples) for r in reports} == {("pass", 125)}
    assert set(evaluated.values()) == {125}
    assert len(evaluated) == len(reports)
    assert_reports_match_one_sweep_per_axiom(ds, dom, reports)


# --- domain errors of the axiom checks -----------------------------------------


def test_axiom_checks_keep_basis_mode_domain_errors():
    ms_on_matrices = replace(MS, algebra=make_matrix_algebra(2))
    integration_on_laurent = replace(INTEG, algebra=L)
    cases = [
        (build_tri_from_rbo(ms_on_matrices, 1), DomainSpec.basis(0, 0),
         "operator 'ms' is not defined on matrix(4)"),
        (build_weight0_pair(integration_on_laurent), DomainSpec.basis(-3, 2),
         "integration undefined on exponent -3 < 0"),
    ]
    for ds, dom, message in cases:
        for check in (check_dialgebra, check_trialgebra, check_star_associative):
            if check is check_trialgebra and not ds.has_middle:
                continue
            with pytest.raises(OperatorDomainError, match=re.escape(message)):
                check(ds, dom)


def test_trialgebra_axioms_refuse_a_structure_without_middle_product():
    for ds in (build_weight0_pair(INTEG), build_modified_pair(modified_of(MS), 1)):
        with pytest.raises(UnsupportedDomainError,
                           match=re.escape(f"{ds.provenance} has no middle product ∘")):
            check_trialgebra(ds, DomainSpec.basis(0, 2))


def test_random_mode_error_comes_from_the_first_base_product_that_raises():
    """A pass computes a tuple's base products before any nested product,
    and each axiom's before the next one's.  When several products raise,
    the error is that of the first in this order: here exponent -1, where
    one sweep per axiom raised on exponent -3 from lt(lt(a, b), c)."""
    ds = build_weight0_pair(replace(INTEG, algebra=L))
    dom = DomainSpec.random(20, lo=-3, hi=3, seed=5)
    with pytest.raises(OperatorDomainError, match="exponent -1 < 0"):
        check_dialgebra(ds, dom)


def test_random_mode_pass_reports_are_pinned():
    """Serialised reports of random-mode passes, recorded while the pass
    still computed the products of (a, b) and (b, c) for every tuple; a
    random pass meets distinct pairs at every tuple."""
    digest = lambda reports: hashlib.sha256(dumps_reports(reports).encode()).hexdigest()
    wrong = replace(build_tri_from_rbo(MS, 1), middle=lambda a, b: a * b,
                    provenance="tri-wrong-sign(ms)")
    reports = check_trialgebra(wrong, DomainSpec.random(40, lo=-3, hi=3, coeff_bound=3,
                                                        seed=9))
    assert outcomes(reports) == [("tri.1", "fail", 14), ("tri.2", "pass", 40),
                                 ("tri.3", "fail", 10)] + [
        (f"tri.{i}", "pass", 40) for i in range(4, 8)]
    assert digest(reports) == \
        "c2608ff5f0814f3566aa14141029cfeb759f20a4b121af52cdeb0dec5056cfa1"
    ds = build_from_nijenhuis(nijenhuis_family(make_shift_truncation(1), HALF))
    star = check_star_associative(ds, DomainSpec.random(25, lo=-3, hi=3, coeff_bound=3,
                                                        seed=2))
    assert (star.check, star.status, star.tuples) == ("nij.star.assoc", "fail", 4)
    assert digest(star) == \
        "ec3354b24b085354e82e9678803c8b4eaeb42a204b48054bc4861d6b2380cfc5"
