"""The "paper-all" regression matrix.

Bundles every identity the package is about into one deterministic run:
positive cases that must pass, deliberately negative cases that must
fail with a witness, and report-only entries whose verdict is recorded
without being judged.  The aggregate verdict is "ok" exactly when every
entry matches its expectation.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import DomainSpec
from .algebras import laurent, make_matrix_algebra, matrix_basis_index, polynomial
from .checks import (
    check_idempotent,
    check_image_closure,
    check_lie_modified,
    check_modified_rbr,
    check_nijenhuis,
    check_rbr,
    violation_report,
)
from .dendriform import (
    build_from_nijenhuis,
    build_modified_pair,
    build_tri_from_rbo,
    build_weight0_pair,
    check_dialgebra,
    check_rbr_on_compositions,
    check_star_associative,
    check_trialgebra,
)
from .operators import (
    WeightedOperator,
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    matrix_operator,
    modified_of,
    nijenhuis_family,
    scale_operator,
)
from .tensor import acybe_report, induced_operator, tensor2, tensor3


def borel_projector_m2() -> WeightedOperator:
    """Projection of 2x2 matrices onto their first row (span of E11, E12);
    a weight-1 Rota-Baxter operator on the matrix algebra."""
    alg = make_matrix_algebra(2)
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0] = 1
    rows[1][1] = 1
    return matrix_operator(alg, rows, label="row-projector", weight=1,
                           note="first-row projector on 2x2 matrices")


def build_entries() -> list:
    """The JSON entries of the full matrix; deterministic, and it samples
    nothing."""
    L = laurent()
    P = polynomial()
    ms = make_rms()
    ms_opp = make_rms_opposite()
    neg_ms = scale_operator(-1, ms)
    integ = make_integration()
    one = Fraction(1)

    entries: list[dict] = []

    def add(name, criterion, expected, report):
        # expected is "pass", "fail", or "report" for a verdict recorded unjudged
        entries.append({"name": name, "criterion": criterion, "expected": expected,
                        "status": report.status,
                        "ok": expected == "report" or report.status == expected,
                        "report": report.to_json()})

    # --- criterion 1: Rota-Baxter positives, each (name, algebra, R, λ, window)
    positives = [("ms @1 [-8,8]", L, ms, one, DomainSpec.basis(-8, 8)),
                 ("-ms @-1 [-8,8]", L, neg_ms, Fraction(-1), DomainSpec.basis(-8, 8)),
                 ("ms-opp @1 [-8,8]", L, ms_opp, one, DomainSpec.basis(-8, 8)),
                 ("integration @0 deg<=10", P, integ, Fraction(0), DomainSpec.basis(0, 10))]
    for s in range(1, 5):
        for t in range(1, 5):
            miller = make_miller(s, t)
            positives.append((f"miller:{s},{t} @1", miller.algebra, miller, one,
                              DomainSpec.basis(0, 0)))
    for name, alg, op, lam, dom in positives:
        add(f"rbr {name}", "1", "pass", check_rbr(alg, op, lam, dom))

    # --- criterion 2: truncation negatives (and the two true positives)
    for r in (1, 2, -2, 3):
        add(f"violate rbr shift:{r} @1", "2", "fail",
            violation_report(L, "rbr", make_shift_truncation(r), one, max_range=4))
    for r in (-1, 0):
        add(f"violate rbr shift:{r} @1", "2", "pass",
            violation_report(L, "rbr", make_shift_truncation(r), one, max_range=4))

    # --- criterion 3: modified relation on every positive case
    for name, alg, op, lam, dom in positives:
        add(f"modified {name}", "3", "pass", check_modified_rbr(alg, modified_of(op), lam, dom))
    borel = borel_projector_m2()
    add("rbr row-projector M2 @1", "3", "pass",
        check_rbr(borel.algebra, borel, one, DomainSpec.basis(0, 0)))
    add("lie-modified row-projector M2 @1", "3", "pass",
        check_lie_modified(borel.algebra, modified_of(borel), one,
                           DomainSpec.basis(0, 0)))

    # --- criterion 4: dendriform dialgebras
    for rep in check_dialgebra(build_weight0_pair(integ), DomainSpec.basis(0, 6)):
        add(f"{rep.check} weight0(integration) deg<=6", "4", "pass", rep)
    for rep in check_dialgebra(build_modified_pair(modified_of(ms), 1),
                               DomainSpec.basis(-4, 4)):
        add(f"{rep.check} modified-pair(ms) [-4,4]", "4", "pass", rep)

    # --- criterion 5: dendriform trialgebras, each (label, R, λ, window, name suffix)
    tri_cases = [("ms", ms, one, DomainSpec.basis(-4, 4), " [-4,4]"),
                 ("-ms", neg_ms, Fraction(-1), DomainSpec.basis(-4, 4), " [-4,4]"),
                 ("ms-opp", ms_opp, one, DomainSpec.basis(-4, 4), " [-4,4]"),
                 ("miller:2,2", make_miller(2, 2), one, DomainSpec.basis(0, 0), "")]
    for label, op, lam, dom, suffix in tri_cases:
        ds = build_tri_from_rbo(op, lam)
        for rep in check_trialgebra(ds, dom):
            add(f"{rep.check} tri({label}){suffix}", "5", "pass", rep)
        add(f"star.assoc tri({label}){suffix}", "5", "pass", check_star_associative(ds, dom))
    # wrong-sign middle product a∘b = ab, the splitting of ms at weight -1
    # checked at weight 1: the two axioms that need the Rota-Baxter relation
    # break, the purely associative ones survive
    from dataclasses import replace as _replace

    wrong = _replace(build_tri_from_rbo(ms, -1), provenance="tri-wrong-sign(ms)", weight=one)
    wrong_expect = {"tri.1": "fail", "tri.3": "fail"}
    for rep in check_trialgebra(wrong, DomainSpec.basis(-4, 4)):
        add(f"{rep.check} tri-wrong-sign(ms) [-4,4]", "5",
            wrong_expect.get(rep.check, "pass"), rep)

    # --- criterion 6: idempotent compatibility
    ds_ms = build_tri_from_rbo(ms, 1)
    for rep in check_rbr_on_compositions(ds_ms, ms, DomainSpec.basis(-4, 4)):
        add(f"{rep.check} (ms) [-4,4]", "6", "pass", rep)

    # --- criterion 7: Nijenhuis family
    for alpha in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
                  Fraction(2), Fraction(5)):
        n_op = nijenhuis_family(ms, alpha)
        add(f"nijenhuis alpha={alpha} [-5,5]", "7", "pass",
            check_nijenhuis(L, n_op, one, DomainSpec.basis(-5, 5)))
    nij_ds = build_from_nijenhuis(nijenhuis_family(ms, 1))
    add("nij.star.assoc (alpha=1) [-3,3]", "7", "pass",
        check_star_associative(nij_ds, DomainSpec.basis(-3, 3)))
    for rep in check_trialgebra(nij_ds, DomainSpec.basis(-3, 3)):
        if rep.check == "tri.7":
            add("tri.7 nijenhuis(alpha=1) [-3,3]", "7", "report", rep)

    # --- criterion 8: Yang-Baxter residuals and the induced operator
    m2 = make_matrix_algebra(2)
    e = lambda p, q: matrix_basis_index(2, p, q)
    r_zero = tensor2(m2, {})
    r_nilp = tensor2(m2, {(e(0, 1), e(0, 1)): 1})
    r_idem = tensor2(m2, {(e(0, 0), e(0, 0)): 1})
    add("acybe r=0", "8", "pass", acybe_report(r_zero, "0"))
    add("acybe r=E12xE12", "8", "pass", acybe_report(r_nilp, "E12xE12"))
    add("acybe r=E11xE11", "8", "fail",
        acybe_report(r_idem, "E11xE11",
                     expected_residual=tensor3(m2, {(e(0, 0), e(0, 0), e(0, 0)): 1})))
    add("rbr induced(E12xE12) @0", "8", "pass",
        check_rbr(m2, induced_operator(r_nilp), Fraction(0),
                  DomainSpec.basis(0, 0)))

    # --- criterion 9: image closure
    for s in range(1, 4):
        for t in range(1, 4):
            miller = make_miller(s, t)
            add(f"image-closure miller:{s},{t}", "9", "pass",
                check_image_closure(miller.algebra, miller))
    add("image-closure ms window [-4,4]", "9", "pass",
        check_image_closure(L, ms, DomainSpec.basis(-4, 4)))
    add("idempotent ms [-8,8]", "9", "pass",
        check_idempotent(L, ms, DomainSpec.basis(-8, 8)))

    return entries


def run_suite(preset: str = "paper-all", seed: int = 0) -> dict:
    """The result of a preset.  No entry samples, so ``seed`` only goes
    into the result's top-level ``"seed"`` field."""
    if preset != "paper-all":
        raise ValueError(f"unknown suite preset {preset!r}")
    entries = build_entries()
    return {
        "suite": preset,
        "seed": seed,
        "ok": all(entry["ok"] for entry in entries),
        "entries": entries,
    }


def dumps_suite(result: dict) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"
