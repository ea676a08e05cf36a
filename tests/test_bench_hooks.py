"""The hooks the benchmark's tracer (perfbench/tracer.py) relies on.

The tracer wraps package functions by name and counts the tuples of the
leaf reports that get serialised.  A renamed hook, or a report counted
twice, would break the traced benchmark run; this test catches both.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import rotabaxter.checks as checks
import rotabaxter.dendriform as dendriform
from rotabaxter.algebra import DomainSpec
from rotabaxter.algebras import laurent
from rotabaxter.operators import make_rms, make_shift_truncation

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_traced_tuples_match_reports():
    L = laurent()
    tracer = Tracer("full", "hooks")
    tracer.install()
    try:
        # module attributes, so the tracer's replacements are the ones called
        passing = checks.check_rbr(L, make_rms(), Fraction(1), DomainSpec.basis(-3, 3))
        failing = checks.violation_report(L, "rbr", make_shift_truncation(1),
                                          Fraction(1), max_range=4)
        reports = [passing, failing]
        for report in reports:
            report.to_json()
    finally:
        tracer.uninstall()
    assert [r.status for r in reports] == ["pass", "fail"]
    assert passing.tuples == 49
    assert tracer.output_tuples() == sum(r.tuples for r in reports)
    assert set(tracer.per_check) == {"rbr", "violate.rbr"}


def test_each_axiom_report_is_returned_by_its_own_sweep():
    """The axioms of a structure are decided in one shared pass, yet the
    tracer sees every report come back from its own ``sweep_identity``
    call, also where axioms drop out of the pass at different tuples."""
    tri = dendriform.build_tri_from_rbo(make_shift_truncation(2), 1)
    pair = dendriform.build_weight0_pair(make_shift_truncation(1))
    dom = DomainSpec.basis(-3, 3)
    tracer = Tracer("coarse", "hooks")
    tracer.install()
    try:
        groups = [dendriform.check_trialgebra(tri, dom),
                  dendriform.check_dialgebra(pair, dom),
                  [dendriform.check_star_associative(tri, dom)]]
        reports = [r for group in groups for r in group]
        for report in reports:
            report.to_json()
    finally:
        tracer.uninstall()
    assert [len(group) for group in groups] == [7, 3, 1]
    assert len({r.tuples for r in reports}) > 2
    assert tracer.count("checks.sweep") == len(reports)
    assert tracer.output_tuples() == sum(r.tuples for r in reports)


def test_cli_main_runs_through_module_level_run(monkeypatch, capsys):
    """perfbench/cli_probe.py times a command by replacing ``cli.run`` with
    a one-argument wrapper, so ``main`` must pass the parsed command line
    to the module-level ``run``."""
    import rotabaxter.cli as cli

    seen = []
    run = cli.run

    def timed_run(args):
        seen.append(args.command)
        return run(args)

    monkeypatch.setattr(cli, "run", timed_run)
    assert cli.main(["check-rbr", "--algebra", "laurent", "--operator", "ms",
                     "--weight", "1", "--range", "-1", "1"]) == 0
    assert seen == ["check-rbr"]
    assert "[PASS] rbr" in capsys.readouterr().out


# One traced trialgebra check on the window [-4, 4], which holds z^-1 and
# z^-2: CPython hashes -1 and -2 alike, so anything keyed by these elements
# collides, and how often a colliding lookup compares elements depends on
# the per-process string hash.
_TRACED_TRIALGEBRA = """
import json, sys
sys.path[:0] = sys.argv[1:]
from tracer import Tracer
import rotabaxter.dendriform as dendriform
from rotabaxter.algebra import DomainSpec
from rotabaxter.operators import make_rms
tracer = Tracer("full", "hash-seed")
tracer.install()
try:
    dendriform.check_trialgebra(dendriform.build_tri_from_rbo(make_rms(), 1),
                                DomainSpec.basis(-4, 4))
finally:
    tracer.uninstall()
print(json.dumps({layer: stats[0] for layer, stats in tracer.stats.items()}))
"""


def test_traced_counts_do_not_depend_on_the_hash_seed():
    counts = []
    for hash_seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-c", _TRACED_TRIALGEBRA, str(ROOT / "src"), str(ROOT / "perfbench")],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed), capture_output=True, text=True,
            check=True).stdout
        counts.append(json.loads(out.splitlines()[-1]))
    assert counts[0]["checks.sweep"] == 7
    assert counts[0] == counts[1]
