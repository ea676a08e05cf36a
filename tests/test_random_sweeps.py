"""Random-mode sweeps: pinned witnesses, and every report against a sweep on
the tuples as drawn."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotabaxter.algebra import DomainSpec
from rotabaxter.algebras import (
    laurent,
    make_componentwise,
    make_matrix_algebra,
    matrix_basis_index,
    polynomial,
)
from rotabaxter.checks import check, check_idempotent, check_rbr
from rotabaxter.cli import main
from rotabaxter.dendriform import (
    build_tri_from_rbo,
    build_weight0_pair,
    check_dialgebra,
    check_star_associative,
    check_trialgebra,
)
from rotabaxter.errors import InvalidDomainError
from rotabaxter.operators import (
    make_integration,
    make_miller,
    make_rms,
    make_shift_truncation,
    matrix_operator,
    nijenhuis_family,
    scale_operator,
)
from rotabaxter.report import CheckReport, Witness, dumps_reports
from rotabaxter.suite import borel_projector_m2
from test_checks import ELEMENT_FORMULAS
from test_dendriform import element_axioms

ONE = Fraction(1)


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def draws(algebra, dom, arity):
    """The tuples a random domain draws, in sweep order."""
    rng = random.Random(dom.seed)
    return [tuple(algebra.random_element(dom, rng) for _ in range(arity))
            for _ in range(dom.samples)]


def upper_projector(n):
    """Projection of n×n matrices onto the upper triangle, diagonal
    included, along the strictly lower one: a weight-1 operator."""
    rows = [[0] * (n * n) for _ in range(n * n)]
    for p in range(n):
        for q in range(p, n):
            i = matrix_basis_index(n, p, q)
            rows[i][i] = 1
    return matrix_operator(make_matrix_algebra(n), rows, label=f"upper:{n}", weight=1)


def test_a_zero_support_bound_still_sweeps_a_finite_algebra():
    """A finite draw fills every coordinate, whatever its support bound, so
    only a zero coefficient bound makes every draw zero there."""
    miller = make_miller(2, 2)
    op, dom = scale_operator(2, miller), DomainSpec.random(5, support_bound=0, seed=1)
    assert check_rbr(miller.algebra, op, 1, dom).status == "fail"
    with pytest.raises(InvalidDomainError, match="coeff_bound 0 draws only zeros"):
        check_rbr(miller.algebra, op, 1, DomainSpec.random(5, coeff_bound=0))
    with pytest.raises(InvalidDomainError, match="support_bound 0 draws only zeros"):
        check_rbr(laurent(), make_shift_truncation(2), 1, dom)


# --- failing random sweeps with fractional witnesses, recorded while random
# tuples were still swept as drawn ---------------------------------------------

# operator -> {seed: sha256 of the report}; every one fails at its first tuple
RBR_PINS = {
    "2*upper:3": {
        1: "f572b21390c5bcd68742df34808d387ae7e26bac8aff5f2fe896e8d9cde3615d",
        2: "7717c510556be2883cd26aae9166cc92e7413b4748d28b496656f2378f1c60df",
        3: "132205e4fb0d2b93afbc58af46e9c12203ef32e831c5ea8b49224851e2099ca6",
    },
    "2*miller:4,8": {
        1: "423d489134a85bc526d64ff477055f1ac059e2a834e0e9598ba7c33b39016126",
        2: "e6e155dc0fb5eedd668f0d566806fa19458a389709957272e221583ebd24f06b",
        3: "aeedd4bb4165eda1778bdae94c8990b1d144a2a98c82f263d277da795f7631fe",
    },
}


@pytest.mark.parametrize("op", [scale_operator(2, upper_projector(3)),
                                scale_operator(2, make_miller(4, 8))],
                         ids=lambda op: op.describe())
def test_fractional_random_witnesses_are_pinned(op):
    """2R has weight 2, so the weight-1 relation fails on generic tuples."""
    for seed, digest in RBR_PINS[op.describe()].items():
        dom = DomainSpec.random(24, coeff_bound=5, seed=seed)
        report = check_rbr(op.algebra, op, ONE, dom)
        assert (report.status, report.tuples) == ("fail", 1)
        assert sha(dumps_reports(report)) == digest
        # the witness is the tuple as drawn, with its Fraction coefficients
        assert report.witness.inputs == draws(op.algebra, dom, 2)[0]
        assert any(type(c) is Fraction for x in report.witness.inputs
                   for c in x.terms.values())


# test id -> (argv, tuples, sha256 of stdout, sha256 of the --output file)
CLI_PINS = {
    "check-rbr": (
        ["check-rbr", "--algebra", "miller:2,2", "--operator", "scale(2,miller)",
         "--weight", "1", "--samples", "5"], 1,
        "4635126ac132ff9f8d3954242f8273f38979bc0997bf81325490ccff6a3ea69a",
        "dde9f0d4ccee9652d444bf1aed5d4aeda5b402ce5b1953b253acce97e3cbd87a"),
    "check-idempotent": (
        ["check-idempotent", "--algebra", "laurent", "--operator", "scale(2,ms)",
         "--samples", "5", "--seed", "3"], 2,
        "5f4e978d5e39d0572404473793b37d96a3a4391af34595e8cb3c8a3aedaa054f",
        "1a04b488bc44a3489e15fac14d01210ec96c2109bfe5f405c8a25a7446cab692"),
    # Fraction entries in the operator matrix: the one case where the finite
    # kernels still multiply Fractions on a sweep of cleared tuples
    "check-rbr-fraction-operator": (
        ["check-rbr", "--algebra", "miller:2,2", "--operator", "scale(1/2,miller)",
         "--weight", "1", "--samples", "5"], 1,
        "77c643c03016807d33ade5a8a05acde2309c61fd18fce2369449218e64481013",
        "cbcff5a25ce5c8199ff638523cb9b4829a46c58df7f2f6dc4233104c05a00573"),
}


@pytest.mark.parametrize("argv,tuples,stdout_sha,output_sha", list(CLI_PINS.values()),
                         ids=list(CLI_PINS))
def test_fractional_random_cli_witnesses_are_pinned(argv, tuples, stdout_sha, output_sha,
                                                    capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(argv + ["--output", str(out_path)]) == 1
    stdout = capsys.readouterr().out
    assert f"tuples={tuples}" in stdout
    assert sha(stdout) == stdout_sha
    assert sha(out_path.read_bytes()) == output_sha


# --- the sweep against a reference on the tuples as drawn -----------------------

def reference_report(check_id, algebra, operator, weight, dom, arity, sides) -> CheckReport:
    """The report of a sweep that evaluates ``sides`` on elements, on each
    drawn tuple in order, and stops at the first one where they differ."""
    witness, count = None, dom.samples
    for n, tup in enumerate(draws(algebra, dom, arity), 1):
        lhs, rhs = sides(*tup)
        if lhs != rhs:
            witness, count = Witness(tup, lhs, rhs, lhs - rhs), n
            break
    domain = {"mode": "random", "lo": dom.lo, "hi": dom.hi, "samples": dom.samples,
              "coeff_bound": dom.coeff_bound, "support_bound": dom.support_bound,
              "seed": dom.seed}
    if algebra.dimension is not None:  # a finite draw reads neither window nor support bound
        for unread in ("lo", "hi", "support_bound"):
            del domain[unread]
    return CheckReport(check=check_id, algebra=algebra.describe(), operator=operator,
                       weight=weight, domain=domain, tuples=count, witness=witness)


def refusal(algebra, dom):
    """The error of a random sweep whose draws would all be zero, or None.
    A polynomial window below exponent 0 holds no basis key; a zero
    coefficient bound, or a zero support bound on a Laurent-type algebra,
    leaves no term nonzero."""
    if algebra is P and dom.hi < 0:
        return "empty basis window"
    if dom.coeff_bound == 0 or (dom.support_bound == 0 and algebra.dimension is None):
        return "draws only zeros"
    return None


def assert_refused(sweeps, message):
    for sweep in sweeps:
        with pytest.raises(InvalidDomainError, match=message):
            sweep()


def assert_matches_reference(report, reference):
    assert (report.status, report.tuples) == (reference.status, reference.tuples)
    assert report == reference
    assert dumps_reports(report) == dumps_reports(reference)


L, P = laurent(), polynomial()
MS = make_rms()
# (algebra, operator, the weight it has); 2·R has twice the weight of R, so
# at R's weight it fails, and shift:2 fails at every weight
ORACLE_CASES = [
    (L, MS, ONE), (L, make_shift_truncation(2), ONE), (L, scale_operator(2, MS), ONE),
    (L, nijenhuis_family(MS, Fraction(1, 2)), ONE),
    (P, make_integration(), Fraction(0)), (P, make_shift_truncation(1), ONE),
    (make_matrix_algebra(2), borel_projector_m2(), ONE),
    (make_matrix_algebra(2), scale_operator(2, borel_projector_m2()), ONE),
    (make_matrix_algebra(3), upper_projector(3), ONE),
    (make_matrix_algebra(3), scale_operator(2, upper_projector(3)), ONE),
    (make_componentwise(4), make_miller(2, 2), ONE),
    (make_componentwise(4), scale_operator(Fraction(1, 2), make_miller(2, 2)), ONE),
]


@st.composite
def random_domains(draw, algebra, samples):
    lo = draw(st.integers(-4, 2)) if algebra.dimension is None else -4
    return DomainSpec.random(samples, lo=lo, hi=lo + draw(st.integers(0, 4)),
                             coeff_bound=draw(st.integers(0, 6)),
                             support_bound=draw(st.integers(0, 4)),
                             seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_identities_and_idempotence_match_the_reference(data):
    algebra, op, weight = data.draw(st.sampled_from(ORACLE_CASES))
    lam = data.draw(st.sampled_from([weight, weight + 1]))  # the true or a wrong weight
    dom = data.draw(random_domains(algebra, data.draw(st.integers(1, 12))))
    message = refusal(algebra, dom)
    if message is not None:
        assert_refused([lambda i=i: check(i, algebra, op, lam, dom) for i in ELEMENT_FORMULAS]
                       + [lambda: check_idempotent(algebra, op, dom)], message)
        return
    for identity, formula in ELEMENT_FORMULAS.items():
        reference = reference_report(identity, algebra, op.describe(), lam, dom, 2,
                                     lambda x, y: formula(algebra, op, lam, x, y))
        assert_matches_reference(check(identity, algebra, op, lam, dom), reference)
    reference = reference_report("idempotent", algebra, op.describe(), None, dom, 1,
                                 lambda x: (op(op(x)), op(x)))
    assert_matches_reference(check_idempotent(algebra, op, dom), reference)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dendriform_axioms_match_the_reference(data):
    algebra, op, weight = data.draw(st.sampled_from(ORACLE_CASES))
    lam = data.draw(st.sampled_from([weight, weight + 1]))
    dom = data.draw(random_domains(algebra, data.draw(st.integers(1, 5))))
    ds = (build_weight0_pair(replace(op, algebra=algebra)) if lam == 0
          else build_tri_from_rbo(replace(op, algebra=algebra), lam))
    message = refusal(algebra, dom)
    if message is not None:
        sweeps = [lambda: check_dialgebra(ds, dom), lambda: check_star_associative(ds, dom)]
        if ds.has_middle:
            sweeps.append(lambda: check_trialgebra(ds, dom))
        assert_refused(sweeps, message)
        return
    reports = check_dialgebra(ds, dom) + [check_star_associative(ds, dom)]
    if ds.has_middle:
        reports += check_trialgebra(ds, dom)
    axioms = element_axioms(ds)
    for report in reports:
        reference = reference_report(report.check, algebra, ds.provenance, ds.weight, dom, 3,
                                     axioms[report.check])
        assert_matches_reference(report, reference)
