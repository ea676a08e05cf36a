"""The benchmark's workloads: inputs made from a seed, the operations a
round runs, and the gate that checks each operation's output.

Every workload drives the package through its public entry points only
(``rotabaxter``, ``rotabaxter.suite``, ``python -m rotabaxter``); the
package receives the generated inputs and nothing else.  Calls go through
module attributes (``rb.check_rbr``), never through names bound here, so
the tracer's replacements are seen.

An operation is a pair of callables: ``call`` runs the program and is the
only timed part; ``check`` inspects what ``call`` returned and yields
``(output text, tuples, problems)``.  A non-empty problem list is a failed
operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import rotabaxter as rb
import rotabaxter.suite as rb_suite

HERE = Path(__file__).resolve().parent

# sha256 of dumps_suite(run_suite(seed=0)) at the commit that defined the
# benchmark; any other seed must give these bytes once its seed fields are
# reset to 0.
PAPER_ALL_SHA256 = "7199ad735598acaff8806db86c9a0255c432db188a44d483a71efe8de972e50e"

ONE = Fraction(1)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


# ---------------------------------------------------------------------------
# Gate helpers


def replay_problems(report, sides) -> list:
    """Re-evaluate both sides on the witness inputs; lhs, rhs and diff must
    come back exactly, in objects and in the report's JSON."""
    w = report.witness
    if w is None:
        return [f"{report.check}: expected a witness, got none"]
    lhs, rhs = sides(*w.inputs)
    problems = []
    if lhs == rhs:
        problems.append(f"{report.check}: witness does not violate the identity")
    if (lhs, rhs, lhs - rhs) != (w.lhs, w.rhs, w.diff):
        problems.append(f"{report.check}: witness replay differs")
    if report.to_json()["witness"] != {"inputs": [str(x) for x in w.inputs],
                                       "lhs": str(lhs), "rhs": str(rhs),
                                       "diff": str(lhs - rhs)}:
        problems.append(f"{report.check}: witness JSON differs from replay")
    return problems


def expect(statuses, tuples=None, sides=None, max_tuples=None, notes=None):
    """Gate for an operation returning one report or a list of reports.

    ``statuses`` is one expected status per report.  Passing reports must
    have swept exactly ``tuples`` tuples; failing ones must carry a
    witness that ``sides`` replays, found within ``max_tuples``.  When
    ``notes`` is given, every report must carry exactly those notes.
    """

    def check(result):
        reports, text = result
        reports = list(reports) if isinstance(reports, (list, tuple)) else [reports]
        problems = []
        if len(reports) != len(statuses):
            problems.append(f"{len(reports)} reports, expected {len(statuses)}")
        for rep, want in zip(reports, statuses):
            if rep.status != want:
                problems.append(f"{rep.check}: status {rep.status}, expected {want}")
            elif want == "pass":
                if rep.tuples != tuples or rep.witness is not None:
                    problems.append(f"{rep.check}: {rep.tuples} tuples, expected {tuples}")
            else:
                if max_tuples is not None and not 0 < rep.tuples <= max_tuples:
                    problems.append(f"{rep.check}: {rep.tuples} tuples, budget {max_tuples}")
                problems += replay_problems(rep, sides)
            if notes is not None and rep.notes != notes:
                problems.append(f"{rep.check}: notes {rep.notes}, expected {notes}")
        return text, sum(r.tuples for r in reports), problems

    return check


def report_op(name, *parts) -> Op:
    """Operation that makes one or more public check calls of one kind and
    serialises their reports; each part is a ``(call, gate)`` pair."""

    def call():
        out = []
        for fn, _ in parts:
            reports = fn()
            out.append((reports, rb.dumps_reports(reports)))
        return out

    def check(results):
        checked = [gate(result) for (_, gate), result in zip(parts, results)]
        return ("".join(text for text, _, _ in checked), sum(n for _, n, _ in checked),
                [p for _, _, probs in checked for p in probs])

    return Op(name, call, check)


def rbr_sides(op, lam):
    def sides(x, y):
        rx, ry = op(x), op(y)
        return rx * ry + lam * op(x * y), op(rx * y + x * ry)

    return sides


def window(center: int, half: int) -> "rb.DomainSpec":
    return rb.DomainSpec.basis(center - half, center + half)


# ---------------------------------------------------------------------------
# paper-all


def _seedless(result: dict) -> dict:
    """The suite result with every seed field reset to 0."""
    result = json.loads(json.dumps(result))
    result["seed"] = 0
    for entry in result["entries"]:
        domain = entry["report"]["domain"]
        if "seed" in domain:
            domain["seed"] = 0
    return result


def paper_all(seed: int, workdir: Path) -> list:
    reference = json.loads((HERE / "paper_all_seed0.json").read_text())

    def call():
        result = rb_suite.run_suite(seed=seed)
        return result, rb_suite.dumps_suite(result)

    def check(out):
        result, text = out
        problems = []
        if not result["ok"]:
            problems.append("suite verdict is not ok")
        got = [[e["name"], e["expected"], e["status"], e["report"]["tuples"]]
               for e in result["entries"]]
        bad = [g[0] for g, r in zip(got, reference) if g != r]
        if len(got) != len(reference) or bad:
            problems.append(f"entries differ from seed 0: {bad[:5]} ({len(got)} entries)")
        digest = hashlib.sha256(rb_suite.dumps_suite(_seedless(result)).encode()).hexdigest()
        if digest != PAPER_ALL_SHA256:
            problems.append(f"suite bytes changed: sha256 {digest}")
        tuples = sum(e["report"]["tuples"] for e in result["entries"])
        return text, tuples, problems

    return [Op("paper-all", call, check)]


# ---------------------------------------------------------------------------
# basis-sweep

# Same-shaped rationals (denominator 2) so that the seed's choice of α
# changes the inputs without changing the cost of the arithmetic much.
_ALPHAS = [Fraction(k, 2) for k in (1, 3, 5, 7, 9)]


def basis_sweep(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    # Arity-2 windows come in pairs centred at +o and -o, one operation per
    # pair: the cost of a window depends on how many exponents sit on each
    # side of 0, and the pair cancels the first-order part of that.
    # Arity-3 windows are centred: one step of offset moves their cost by
    # about 5 %.
    o = rng.randint(1, 3)
    p = rng.randint(0, 4)
    alpha1, alpha2, alpha3 = rng.sample(_ALPHAS, 3)
    L, P = rb.laurent(), rb.polynomial()
    ms = rb.make_rms()
    integ = rb.make_integration()
    mod_ms = rb.modified_of(ms)
    nij1, nij2 = rb.nijenhuis_family(ms, alpha1), rb.nijenhuis_family(ms, alpha2)
    tri = rb.build_tri_from_rbo(ms, 1)
    mod_pair = rb.build_modified_pair(mod_ms, 1)
    nij_pair = rb.build_from_nijenhuis(rb.nijenhuis_family(ms, alpha3))
    w0_pair = rb.build_weight0_pair(integ)
    passes = lambda reports, arity, keys: expect(["pass"] * reports, tuples=keys ** arity)
    pair = lambda check, *args: (
        (lambda: check(*args, window(o, 12)), passes(1, 2, 25)),
        (lambda: check(*args, window(-o, 12)), passes(1, 2, 25)))

    return [
        report_op(f"rbr ms [±{o}±12]", *pair(rb.check_rbr, L, ms, ONE)),
        report_op(f"modified-rbr ms [±{o}±12]", *pair(rb.check_modified_rbr, L, mod_ms, ONE)),
        report_op(f"nijenhuis alpha={alpha1},{alpha2} [±{o}±12]",
                  (lambda: rb.check_nijenhuis(L, nij1, ONE, window(o, 12)), passes(1, 2, 25)),
                  (lambda: rb.check_nijenhuis(L, nij2, ONE, window(-o, 12)), passes(1, 2, 25))),
        report_op(f"rbr integration [{p},{p + 20}]", (lambda: rb.check_rbr(
            P, integ, Fraction(0), rb.DomainSpec.basis(p, p + 20)), passes(1, 2, 21))),
        report_op("tri.* tri(ms) [-4,4]", (lambda: rb.check_trialgebra(
            tri, window(0, 4)), passes(7, 3, 9))),
        report_op("star.assoc tri(ms) [-4,4]", (lambda: rb.check_star_associative(
            tri, window(0, 4)), passes(1, 3, 9))),
        report_op("ddi.* modified-pair(ms) [-3,3]", (lambda: rb.check_dialgebra(
            mod_pair, window(0, 3)), passes(3, 3, 7))),
        report_op(f"nij.star.assoc alpha={alpha3} [-3,3]", (lambda: rb.check_star_associative(
            nij_pair, window(0, 3)), passes(1, 3, 7))),
        report_op("ddi.* weight0(integration) [0,6]", (lambda: rb.check_dialgebra(
            w0_pair, rb.DomainSpec.basis(0, 6)), passes(3, 3, 7))),
    ]


# ---------------------------------------------------------------------------
# random-finite


def upper_projector(n: int):
    """Projection of n×n matrices onto the upper triangle (diagonal
    included) along the strictly lower one.  Both are subalgebras, so it
    is a weight-1 Rota-Baxter operator."""
    alg = rb.make_matrix_algebra(n)
    d = n * n
    rows = [[0] * d for _ in range(d)]
    for p in range(n):
        for q in range(p, n):
            i = rb.matrix_basis_index(n, p, q)
            rows[i][i] = 1
    return rb.matrix_operator(alg, rows, label=f"upper:{n}", weight=1,
                              note="upper-triangular projector")


def _rational(rng, bound: int = 7) -> Fraction:
    """Nonzero, non-integer rational (so never 1, a weight the CLI
    workload relies on being wrong)."""
    while True:
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, bound), rng.randint(2, bound))
        if q.denominator != 1:
            return q


def random_finite(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    sample_seed = lambda: rng.randrange(2 ** 31)
    M3, M4 = rb.make_matrix_algebra(3), rb.make_matrix_algebra(4)
    P3, P4 = upper_projector(3), upper_projector(4)
    split = rng.randint(3, 9)
    miller = rb.make_miller(split, 12 - split)
    small = rb.make_miller(rng.randint(1, 5), 3)
    neg_p3 = rb.scale_operator(2, P3)
    neg_miller = rb.scale_operator(2, miller)
    rand = lambda n: rb.DomainSpec.random(n, coeff_bound=5, seed=sample_seed())
    e = lambda p, q: rb.matrix_basis_index(3, p, q)

    def sweep(fn, spec, expected="pass", sides=None):
        return (lambda: fn(spec),
                expect([expected], tuples=spec.samples, sides=sides, max_tuples=spec.samples))

    # ACYBE on matrix:3: r = a⊗a with a² = 0 solves it; r = c·e⊗e for an
    # idempotent e leaves the residual c²·e⊗e⊗e, and the report carries a
    # note when the residual is another one.
    acybe = []
    for k, support in enumerate(((e(0, 1), e(0, 2)), (e(0, 2), e(1, 2)))):
        a = {i: _rational(rng) for i in support}
        r = rb.tensor2(M3, {(i, j): ci * cj for i, ci in a.items() for j, cj in a.items()})
        acybe.append((lambda r=r, k=k: rb_suite.acybe_report(r, f"a⊗a #{k}"),
                      expect(["pass"], tuples=1, notes=())))
    d = rng.randrange(3)
    i, c = e(d, d), _rational(rng)
    r_idem = rb.tensor2(M3, {(i, i): c})
    residual = rb.tensor3(M3, {(i, i, i): c * c})
    acybe.append((lambda: rb_suite.acybe_report(r_idem, "c·e⊗e", expected_residual=residual),
                  expect(["fail"], max_tuples=1, notes=(),
                         sides=lambda r: (rb.acybe_residual(r), rb.tensor3(M3, {})))))

    return [
        report_op("rbr upper:3", sweep(lambda d: rb.check_rbr(M3, P3, ONE, d), rand(24))),
        report_op("modified-rbr upper:3", sweep(lambda d: rb.check_modified_rbr(
            M3, rb.modified_of(P3), ONE, d), rand(24))),
        report_op("rbr upper:4", sweep(lambda d: rb.check_rbr(M4, P4, ONE, d), rand(10))),
        report_op("modified-rbr upper:4", sweep(lambda d: rb.check_modified_rbr(
            M4, rb.modified_of(P4), ONE, d), rand(8))),
        report_op("lie-modified upper:4", sweep(lambda d: rb.check_lie_modified(
            M4, rb.modified_of(P4), ONE, d), rand(6))),
        report_op(f"rbr {miller.describe()}", sweep(lambda d: rb.check_rbr(
            miller.algebra, miller, ONE, d), rand(24))),
        report_op(f"modified-rbr {miller.describe()}", sweep(lambda d: rb.check_modified_rbr(
            miller.algebra, rb.modified_of(miller), ONE, d), rand(12))),
        # Deliberate negatives: 2R has weight 2, so at weight 1 the relation
        # is off by -2R(xy), which is nonzero for generic x, y.
        report_op("rbr 2*R @1",
                  sweep(lambda d: rb.check_rbr(M3, neg_p3, ONE, d), rand(24),
                        "fail", rbr_sides(neg_p3, ONE)),
                  sweep(lambda d: rb.check_rbr(miller.algebra, neg_miller, ONE, d), rand(24),
                        "fail", rbr_sides(neg_miller, ONE))),
        report_op("associativity matrix:4", (lambda: rb.verify_associativity(M4.constants),
                                             expect(["pass"], tuples=16 ** 3))),
        # im(S_s ⊕ T_t) has rank s+t-1, and so has im(id - R).
        report_op("image-closure miller", *[
            (lambda m=m: rb.check_image_closure(m.algebra, m),
             expect(["pass"], tuples=2 * (m.algebra.dimension - 1) ** 2))
            for m in (miller, small)]),
        report_op("acybe matrix:3", *acybe),
    ]


# ---------------------------------------------------------------------------
# cli-check


def cli_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ROTABAXTER_SEED")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(argv, workdir: Path, env: dict, prefix) -> tuple:
    """Run one CLI invocation to completion; returns (exit code, stdout,
    report file bytes, stderr)."""
    out = workdir / "report.json"
    if out.exists():
        out.unlink()
    env = dict(env, PERFBENCH_T_SPAWN=repr(time.perf_counter()))
    proc = subprocess.run([*prefix, *argv, "--output", str(out)], cwd=workdir, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout, out.read_bytes() if out.exists() else b"", proc.stderr


def cli_gate(code, statuses, tuples=None, max_tuples=None, replay=None):
    """Gate for one CLI invocation: exit code, report statuses and tuple
    counts from the JSON report, and a replay of any witness."""

    def check(result):
        got_code, stdout, report_bytes, stderr = result
        problems = []
        if got_code != code:
            problems.append(f"exit code {got_code}, expected {code}: {stderr[-300:]!r}")
        try:
            payload = json.loads(report_bytes)
        except ValueError:
            return stdout + report_bytes, 0, problems + ["no JSON report"]
        reports = payload if isinstance(payload, list) else [payload]
        for rep, want in zip(reports, statuses):
            if rep["status"] != want:
                problems.append(f"{rep['check']}: status {rep['status']}, expected {want}")
            elif want == "pass" and (rep["tuples"] != tuples or rep["witness"] is not None):
                problems.append(f"{rep['check']}: {rep['tuples']} tuples, expected {tuples}")
            elif want == "fail":
                if rep["witness"] is None or not 0 < rep["tuples"] <= max_tuples:
                    problems.append(f"{rep['check']}: bad failure report")
                else:
                    problems += replay(rep["witness"])
        if len(reports) != len(statuses):
            problems.append(f"{len(reports)} reports, expected {len(statuses)}")
        return stdout + report_bytes, sum(r["tuples"] for r in reports), problems

    return check


def replay_json(algebra, sides):
    """Witness replay from the report's text: parse the inputs with the
    algebra's literal syntax and re-evaluate both sides."""

    def replay(w):
        inputs = [algebra.parse_element(t) for t in w["inputs"]]
        lhs, rhs = sides(*inputs)
        got = {"inputs": [str(x) for x in inputs], "lhs": str(lhs), "rhs": str(rhs),
               "diff": str(lhs - rhs)}
        if lhs == rhs or got != w:
            return [f"witness replay differs: {w} vs {got}"]
        return []

    return replay


def cli_invocations(seed: int, workdir: Path) -> list:
    """(argv, gate) pairs; writes the input files the invocations read."""
    rng = random.Random(seed)
    L = rb.laurent()
    M2 = rb.make_matrix_algebra(2)
    e = lambda p, q: rb.matrix_basis_index(2, p, q)

    alg_file = workdir / "algebra.json"
    alg_file.write_text(json.dumps(
        rb.algebras.structure_constants_to_json(M2.constants)))
    # μ·P for the upper-triangular projector P has weight μ.
    mu = _rational(rng)
    rows = [[mu if i == j and i != e(1, 0) else 0 for j in range(4)] for i in range(4)]
    op = rb.matrix_operator(M2, rows, weight=mu)
    op_file = workdir / "operator.json"
    op_file.write_text(json.dumps(rb.operators.operator_matrix_to_json(M2, op)))
    x = _rational(rng)
    nilp = workdir / "tensor_nilpotent.json"
    nilp.write_text(json.dumps({"algebra": "matrix:2", "terms": [
        {"i": e(0, 1), "j": e(0, 1), "coeff": rb.format_rational(x * x)}]}))
    d, c = rng.randrange(2), _rational(rng)
    idem = workdir / "tensor_idempotent.json"
    idem.write_text(json.dumps({"algebra": "matrix:2", "terms": [
        {"i": e(d, d), "j": e(d, d), "coeff": rb.format_rational(c)}]}))
    residual = str(rb.tensor3(M2, {(e(d, d),) * 3: c * c}))

    def acybe_replay(w):
        return [] if (w["lhs"], w["diff"], w["rhs"]) == (residual, residual, "0") \
            else [f"acybe residual {w['lhs']}, expected {residual}"]

    shift = rng.choice([1, 2, 3, -2, -3])
    lo = rng.randint(-3, -1)
    alpha = rng.choice(_ALPHAS)
    return [
        (["check-rbr", "--algebra", "laurent", "--operator", "ms", "--weight", "1",
          "--range", "-8", "8"], cli_gate(0, ["pass"], tuples=17 ** 2)),
        (["dendriform", "--algebra", "laurent", "--operator", "ms", "--weight", "1",
          "--construct", "tri", "--axioms", "tri", "--range", str(lo), str(lo + 4)],
         cli_gate(0, ["pass"] * 7, tuples=5 ** 3)),
        (["violate", "--algebra", "laurent", "--operator", f"shift:{shift}",
          "--identity", "rbr", "--weight", "1"],
         # violate's budget: windows [-k, k] for k <= 4, then 200 samples.
         cli_gate(1, ["fail"], max_tuples=sum((2 * k + 1) ** 2 for k in range(5)) + 200,
                  replay=replay_json(L, rbr_sides(rb.make_shift_truncation(shift), ONE)))),
        (["check-nijenhuis", "--algebra", "laurent", "--operator",
          f"nijenhuis(ms,{rb.format_rational(alpha)})", "--weight", "1", "--range", "-6", "6"],
         cli_gate(0, ["pass"], tuples=13 ** 2)),
        (["check-image-closure", "--algebra", "miller:2,2", "--operator", "miller",
          "--weight", "1"], cli_gate(0, ["pass"], tuples=2 * 3 ** 2)),
        (["check-rbr", "--algebra", f"file:{alg_file}", "--operator", f"file:{op_file}",
          f"--weight={rb.format_rational(mu)}"], cli_gate(0, ["pass"], tuples=4 ** 2)),
        (["check-rbr", "--algebra", f"file:{alg_file}", "--operator", f"file:{op_file}",
          "--weight", "1"],
         cli_gate(1, ["fail"], max_tuples=4 ** 2, replay=replay_json(M2, rbr_sides(op, ONE)))),
        (["acybe", "--tensor", str(nilp)], cli_gate(0, ["pass"], tuples=1)),
        (["acybe", "--tensor", str(idem)],
         cli_gate(1, ["fail"], max_tuples=1, replay=acybe_replay)),
    ]


def cli_check(seed: int, workdir: Path, probe_level: str | None = None) -> list:
    """One operation per invocation of ``python -m rotabaxter``; with
    ``probe_level`` the invocations go through ``cli_probe.py`` instead,
    which writes its trace to ``probe-<i>.json`` in ``workdir``."""
    env = cli_env(HERE.parent)
    ops = []
    for i, (argv, gate) in enumerate(cli_invocations(seed, workdir)):
        if probe_level is None:
            prefix = (sys.executable, "-m", "rotabaxter")
        else:
            prefix = (sys.executable, str(HERE / "cli_probe.py"), "--level", probe_level,
                      "--stats", str(workdir / f"probe-{i}.json"), "--")
        ops.append(Op(argv[0], lambda argv=argv, prefix=prefix: run_cli(
            argv, workdir, env, prefix), gate))
    return ops


WORKLOADS = {
    "paper-all": paper_all,
    "basis-sweep": basis_sweep,
    "random-finite": random_finite,
    "cli-check": cli_check,
}
