"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single "[acceptance] criterion N: PASS" line on its
way out (straight to the real stdout so the lines survive pytest's
capture); any assertion failure keeps the line from being printed and
fails the run.
"""

import sys
from dataclasses import replace
from fractions import Fraction

from rotabaxter.algebra import DomainSpec
from rotabaxter.algebras import laurent, make_matrix_algebra, matrix_basis_index, polynomial
from rotabaxter.checks import (
    check_idempotent,
    check_image_closure,
    check_lie_modified,
    check_modified_rbr,
    check_nijenhuis,
    check_rbr,
    find_violation,
)
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
from rotabaxter.report import dumps_reports
from rotabaxter.suite import borel_projector_m2, dumps_suite, run_suite
from rotabaxter.tensor import acybe_residual, induced_operator, tensor2, tensor3

from test_checks import identity_sides

L = laurent()
P = polynomial()
MS = make_rms()
MS_OPP = make_rms_opposite()
NEG_MS = scale_operator(-1, MS)
INTEG = make_integration()
ONE = Fraction(1)


def announce(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({detail})",
          file=sys.__stdout__, flush=True)


def test_criterion_1_rbr_positives():
    report = check_rbr(L, MS, ONE, DomainSpec.basis(-8, 8))
    assert report.passed and report.tuples == 289 and report.witness is None
    assert check_rbr(L, NEG_MS, Fraction(-1), DomainSpec.basis(-8, 8)).passed
    assert check_rbr(L, MS_OPP, ONE, DomainSpec.basis(-8, 8)).passed
    assert check_rbr(P, INTEG, Fraction(0), DomainSpec.basis(0, 10)).passed
    for s in range(1, 5):
        for t in range(1, 5):
            op = make_miller(s, t)
            rep = check_rbr(op.algebra, op, ONE, DomainSpec.basis(0, 0))
            assert rep.passed and rep.witness is None, (s, t)
    announce(1, "ms/-ms/ms-opp/integration/miller all pass exactly")


def test_criterion_2_rbr_negatives():
    for r in (1, 2, -2, 3):
        op = make_shift_truncation(r)
        witness = find_violation(L, "rbr", op, ONE, max_range=4)
        assert witness is not None, f"r={r}"
        for x in witness.inputs:
            assert all(-4 <= e <= 4 for e in x.support())
        lhs, rhs = identity_sides("rbr", L, op, ONE)(*witness.inputs)
        assert lhs == witness.lhs and rhs == witness.rhs
        assert not (lhs - rhs).is_zero
    for r in (-1, 0):
        op = make_shift_truncation(r)
        assert find_violation(L, "rbr", op, ONE, max_range=4) is None
    announce(2, "truncations r in {1,2,-2,3} refuted in [-4,4]; r in {-1,0} clean")


def test_criterion_3_modified_relation():
    assert check_modified_rbr(L, modified_of(MS), ONE,
                              DomainSpec.basis(-8, 8)).passed
    assert check_modified_rbr(L, modified_of(NEG_MS), Fraction(-1),
                              DomainSpec.basis(-8, 8)).passed
    assert check_modified_rbr(L, modified_of(MS_OPP), ONE,
                              DomainSpec.basis(-8, 8)).passed
    assert check_modified_rbr(P, modified_of(INTEG), Fraction(0),
                              DomainSpec.basis(0, 10)).passed
    for s in range(1, 5):
        for t in range(1, 5):
            op = make_miller(s, t)
            assert check_modified_rbr(op.algebra, modified_of(op), ONE,
                                      DomainSpec.basis(0, 0)).passed
    borel = borel_projector_m2()
    assert check_rbr(borel.algebra, borel, ONE, DomainSpec.basis(0, 0)).passed
    assert check_lie_modified(borel.algebra, modified_of(borel), ONE,
                              DomainSpec.basis(0, 0)).passed
    announce(3, "modified relation holds wherever the plain one was verified")


def test_criterion_4_dialgebra():
    reports = check_dialgebra(build_weight0_pair(INTEG), DomainSpec.basis(0, 6))
    assert all(r.passed for r in reports)
    reports = check_dialgebra(build_modified_pair(modified_of(MS), 1),
                              DomainSpec.basis(-4, 4))
    assert all(r.passed for r in reports)
    announce(4, "dialgebra axioms for weight-0 and modified splittings")


def test_criterion_5_trialgebra():
    dom = DomainSpec.basis(-4, 4)
    for op, lam in ((MS, ONE), (NEG_MS, Fraction(-1)), (MS_OPP, ONE)):
        ds = build_tri_from_rbo(op, lam)
        assert all(r.passed for r in check_trialgebra(ds, dom)), op.describe()
        assert check_star_associative(ds, dom).passed
    miller = make_miller(2, 2)
    ds = build_tri_from_rbo(miller, 1)
    assert all(r.passed for r in check_trialgebra(ds, DomainSpec.basis(0, 0)))
    assert check_star_associative(ds, DomainSpec.basis(0, 0)).passed
    wrong = replace(build_tri_from_rbo(MS, 1), middle=lambda a, b: a * b,
                    provenance="tri-wrong-sign(ms)")
    tri1 = check_trialgebra(wrong, dom)[0]
    assert tri1.check == "tri.1" and tri1.status == "fail"
    assert tri1.witness is not None and not tri1.witness.diff.is_zero
    announce(5, "all seven axioms plus star; wrong-sign middle refuted on tri.1")


def test_criterion_6_idempotent_compatibility():
    ds = build_tri_from_rbo(MS, 1)
    reports = check_rbr_on_compositions(ds, MS, DomainSpec.basis(-4, 4))
    assert [r.check for r in reports] == ["rbr.on.prec", "rbr.on.succ"]
    assert all(r.passed for r in reports)
    announce(6, "weight-1 relation holds on both derived compositions for ms")


def test_criterion_7_nijenhuis():
    for alpha in (Fraction(-1), Fraction(0), Fraction(1, 2), ONE,
                  Fraction(2), Fraction(5)):
        n = nijenhuis_family(MS, alpha)
        assert check_nijenhuis(L, n, ONE, DomainSpec.basis(-5, 5)).passed, alpha
    ds = build_from_nijenhuis(nijenhuis_family(MS, 1))
    star = check_star_associative(ds, DomainSpec.basis(-3, 3))
    assert star.check == "nij.star.assoc" and star.passed
    tri7 = [r for r in check_trialgebra(ds, DomainSpec.basis(-3, 3))
            if r.check == "tri.7"][0]
    assert tri7.status in ("pass", "fail")  # reported, not asserted
    announce(7, f"family passes; star associative; tri.7 reported ({tri7.status})")


def test_criterion_8_acybe():
    m2 = make_matrix_algebra(2)
    e = lambda p, q: matrix_basis_index(2, p, q)
    assert acybe_residual(tensor2(m2, {})).is_zero
    nilp = tensor2(m2, {(e(0, 1), e(0, 1)): 1})
    assert acybe_residual(nilp).is_zero
    idem = tensor2(m2, {(e(0, 0), e(0, 0)): 1})
    assert acybe_residual(idem) == tensor3(m2, {(e(0, 0), e(0, 0), e(0, 0)): 1})
    assert check_rbr(m2, induced_operator(nilp), Fraction(0),
                     DomainSpec.basis(0, 0)).passed
    announce(8, "residuals exact; induced operator passes at weight 0")


def test_criterion_9_image_closure():
    for s in range(1, 4):
        for t in range(1, 4):
            op = make_miller(s, t)
            assert check_image_closure(op.algebra, op).passed, (s, t)
    assert check_idempotent(L, MS, DomainSpec.basis(-8, 8)).passed
    assert check_image_closure(L, MS, DomainSpec.basis(-4, 4)).passed
    announce(9, "miller images and the windowed pole projector close")


def test_criterion_10_infrastructure():
    # exhaustive and random modes agree on the identity checks above
    rand = lambda seed: DomainSpec.random(400, lo=-4, hi=4, coeff_bound=5,
                                          support_bound=3, seed=seed)
    agree_cases = [
        ("rbr ms", lambda d: check_rbr(L, MS, ONE, d)),
        ("rbr ms-opp", lambda d: check_rbr(L, MS_OPP, ONE, d)),
        ("rbr -ms", lambda d: check_rbr(L, NEG_MS, Fraction(-1), d)),
        ("rbr shift:1", lambda d: check_rbr(L, make_shift_truncation(1), ONE, d)),
        ("rbr shift:-2", lambda d: check_rbr(L, make_shift_truncation(-2), ONE, d)),
        ("rbr shift:0", lambda d: check_rbr(L, make_shift_truncation(0), ONE, d)),
        ("modified ms", lambda d: check_modified_rbr(L, modified_of(MS), ONE, d)),
        ("nijenhuis a=2", lambda d: check_nijenhuis(
            L, nijenhuis_family(MS, 2), ONE, d)),
        ("idempotent ms", lambda d: check_idempotent(L, MS, d)),
    ]
    for name, runner in agree_cases:
        assert runner(DomainSpec.basis(-4, 4)).status == \
            runner(rand(2024)).status, name
    tri_cases = [
        ("tri ms", build_tri_from_rbo(MS, 1)),
        ("tri wrong-sign", replace(build_tri_from_rbo(MS, 1),
                                   middle=lambda a, b: a * b,
                                   provenance="tri-wrong-sign(ms)")),
    ]
    for name, ds in tri_cases:
        basis_verdicts = [r.status for r in
                          check_trialgebra(ds, DomainSpec.basis(-4, 4))]
        random_verdicts = [r.status for r in check_trialgebra(ds, rand(2024))]
        assert basis_verdicts == random_verdicts, name

    # reports are byte-deterministic under a fixed seed
    rep_a = check_rbr(L, MS, ONE, rand(77))
    rep_b = check_rbr(L, MS, ONE, rand(77))
    assert dumps_reports(rep_a) == dumps_reports(rep_b)

    # the bundled suite encodes criteria 1-9 with expected-fail markers
    result = run_suite("paper-all", seed=0)
    assert result["ok"]
    criteria = {entry["criterion"] for entry in result["entries"]}
    assert criteria == {str(i) for i in range(1, 10)}
    expected_fail = [e for e in result["entries"] if e["expected"] == "fail"]
    assert expected_fail
    assert all(e["status"] == "fail" and e["report"]["witness"] is not None
               for e in expected_fail)
    assert dumps_suite(result) == dumps_suite(run_suite("paper-all", seed=0))
    announce(10, "mode agreement, byte-determinism, paper-all matrix all hold")
