"""Self-test of the benchmark's output gate and tracer.

    python3 perfbench/selftest.py

Checks, on small inputs, that:

* a flipped expectation is caught: a passing check gated as "fail", a
  failing one gated as "pass", a wrong tuple count, a CLI exit code gated
  as another, and a tampered witness all count as failed operations;
* the tracer sees calls made through names that other modules bound with
  ``from ... import`` (``dendriform.sweep_identity``, the re-exports of the
  package), counts only output reports in ``checks.tuples``, and leaves
  every replaced name as it was after ``uninstall``;
* no garbage collection runs inside the reference work behind the speed
  samples, and it leaves the collector's count as it found it, so the
  package's heap cannot move the samples and the samples do not move the
  package's collections.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rotabaxter as rb  # noqa: E402
import rotabaxter.checks as rb_checks  # noqa: E402
import rotabaxter.dendriform as rb_dendriform  # noqa: E402

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

ONE = Fraction(1)


def failures(op) -> int:
    return 1 if op.check(op.call())[2] else 0


def gated(fn, *statuses, **expectation) -> int:
    """Failures of one check call run as a benchmark operation."""
    return failures(wl.report_op("selftest", (fn, wl.expect(list(statuses), **expectation))))


def main() -> int:
    results = []

    def claim(what, ok):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    L = rb.laurent()
    ms, shift = rb.make_rms(), rb.make_shift_truncation(2)
    dom = rb.DomainSpec.basis(-3, 3)
    good = lambda: rb.check_rbr(L, ms, ONE, dom)
    bad = lambda: rb.check_rbr(L, shift, ONE, dom)
    sides = wl.rbr_sides(shift, ONE)
    claim("correct expectations pass", gated(good, "pass", tuples=49)
          + gated(bad, "fail", sides=sides, max_tuples=49) == 0)
    claim("pass gated as fail is caught", gated(good, "fail", sides=sides, max_tuples=49) == 1)
    claim("fail gated as pass is caught", gated(bad, "pass", tuples=49) == 1)
    claim("wrong tuple count is caught", gated(good, "pass", tuples=48) == 1)

    def tampered():
        report = bad()
        w = report.witness
        return dataclasses.replace(report, witness=dataclasses.replace(w, rhs=w.lhs, diff=L.zero()))

    claim("tampered witness is caught", gated(tampered, "fail", sides=sides, max_tuples=49) == 1)

    with tempfile.TemporaryDirectory() as tmp:
        ops = wl.cli_check(0, Path(tmp))
        op = ops[0]
        claim("CLI invocation with its own exit code passes", failures(op) == 0)
        flipped = wl.Op(op.name, op.call, wl.cli_gate(1, ["fail"], max_tuples=289,
                                                       replay=lambda w: []))
        claim("CLI exit code gated as 1 is caught", failures(flipped) == 1)

    # The speed samples must not depend on the package's heap: even with
    # a collection due at every allocation, none runs inside them.
    collections = []

    def track(phase, info):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is worker.reference_work.__code__:
                collections.append(phase)
            frame = frame.f_back

    threshold = gc.get_threshold()
    gc.callbacks.append(track)
    gc.set_threshold(1)
    try:
        worker.reference_work()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(track)
    count = gc.get_count()[0]
    worker.reference_work()
    claim("no collection runs inside the reference work, and it leaves the count as it was",
          not collections and gc.get_count()[0] == count and gc.isenabled())

    # Tracer: a call through dendriform's own binding of sweep_identity.
    originals = (rb_checks.sweep_identity, rb_dendriform.sweep_identity, rb.check_rbr,
                 rb.algebra.Element.__init__)
    tracer = tr.Tracer("full", "selftest")
    tracer.install()
    try:
        ds = rb.build_tri_from_rbo(ms, 1)
        reports = rb.check_rbr_on_compositions(ds, ms, rb.DomainSpec.basis(-1, 1))
        text = rb.dumps_reports(reports)
    finally:
        tracer.uninstall()
    claim("sweeps called through dendriform's imported name are traced",
          tracer.count("checks.sweep") == 4)
    claim("checks.tuples counts output reports, not precondition sweeps",
          tracer.output_tuples() == sum(r.tuples for r in reports) == 18)
    claim("fine layers are counted", min(tracer.count(k) for k in (
        "algebra.element_init", "algebras.multiply", "operators.apply",
        "dendriform.product")) > 0)
    claim("outputs unchanged under the tracer", text == rb.dumps_reports(
        rb.check_rbr_on_compositions(rb.build_tri_from_rbo(ms, 1), ms,
                                     rb.DomainSpec.basis(-1, 1))))
    claim("uninstall restores every name", originals == (
        rb_checks.sweep_identity, rb_dendriform.sweep_identity, rb.check_rbr,
        rb.algebra.Element.__init__))

    print(f"{sum(results)}/{len(results)} self-test checks hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
