"""One workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|run|trace --workdir DIR

Imports the package from ``src/`` of the checkout, builds the workload's
inputs and prints ``READY <time.perf_counter()>``, then ``REFERENCE`` with
ten times of ``reference_work``.  With ``--mode setup`` it stops there.  With ``--mode run`` it repeats rounds of the workload's
operations, checking every output, until ``S`` seconds have passed (and
at least two rounds ran), then prints a JSON summary as its last line.
With ``--mode trace`` it does the same untraced, then one round under the
coarse tracer and one under the full tracer, between two more untraced
rounds, and adds the per-layer figures to the summary.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import rotabaxter as rb  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

perf = time.perf_counter

# Every check id any workload runs; the traced run reports each of them.
CHECK_IDS = (
    "rbr", "modified-rbr", "nijenhuis", "lie-modified", "idempotent",
    "ddi.1", "ddi.2", "ddi.3", "tri.1", "tri.2", "tri.3", "tri.4", "tri.5", "tri.6",
    "tri.7", "star.assoc", "nij.star.assoc", "rbr.on.prec", "rbr.on.succ",
    "violate.rbr", "image-closure", "associativity", "acybe",
)


def build_ops(name: str, seed: int, workdir: Path, probe_level=None) -> list:
    if probe_level is not None and name == "cli-check":
        return workloads.cli_check(seed, workdir, probe_level=probe_level)
    return workloads.WORKLOADS[name](seed, workdir)


def run_round(ops, tracer=None, probe=None) -> tuple:
    """Run every operation once; only ``op.call`` is timed.  Returns the
    (start, end) of each call, less the time ``probe`` spent inside it,
    and its result."""
    spans, results = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        spent = probe.spent if probe else 0.0
        t0 = perf()
        results.append(op.call())
        t1 = perf()
        spans.append((t0, t1 - ((probe.spent - spent) if probe else 0.0)))
    return spans, results


def check_round(ops, results) -> dict:
    digest = hashlib.sha256()
    size = tuples = failed = 0
    problems = []
    for op, result in zip(ops, results):
        text, n, probs = op.check(result)
        data = text.encode() if isinstance(text, str) else text
        digest.update(data)
        size += len(data)
        tuples += n
        if probs:
            failed += 1
            problems += [f"{op.name}: {p}" for p in probs]
    return {"digest": digest.hexdigest(), "bytes": size, "tuples": tuples,
            "failed": failed, "problems": problems}


def reference_work() -> float:
    """Seconds taken by a fixed, small piece of work (about 1.5 ms) that
    uses the standard library only (fractions in small dicts, like the
    package's elements) and no package code, so a change to the package
    cannot move it.  It runs with the garbage collector off and frees
    everything it makes, so it leaves the collector's counts as it found
    them: no collection the package's objects made due runs inside it,
    and it brings none forward."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf()
    acc: dict = {}
    for i in range(4):
        for k, v in {k: Fraction(k + 1, i + 2) for k in range(12)}.items():
            for j in range(6):
                key = (k + j) % 17
                acc[key] = acc.get(key, Fraction(0)) + v * Fraction(j + 1, 3)
        acc = {k: v for k, v in acc.items() if v != 0}
    t1 = perf()
    if enabled:
        gc.enable()
    return t1 - t0


class SpeedProbe:
    """Samples the host's speed while the timed calls run.

    The host's speed drifts by 20-50 % over minutes and flips between a
    fast and a slow state within seconds (other tenants share it), and the
    package's code slows down with it.  A timer signal interrupts the
    calls every ``period`` seconds and runs ``reference_work`` in the same
    thread, so the samples cover the calls' time evenly; ``run.py``
    divides the drift out with them.  No thread or process is added,
    and ``spent`` (the time inside the handler) is taken out of the times
    of in-process calls.  Next to a CLI process the worker only waits, so
    it samples five times as often there."""

    IN_PROCESS_PERIOD_S = 0.1
    BESIDE_CLI_PERIOD_S = 0.02

    def __init__(self, period: float):
        self.period = period
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = perf()
        self.samples.append(reference_work())
        self.spent += perf() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_rounds(ops, seconds: float, in_process: bool) -> dict:
    """Rounds for ``seconds`` (at least two).  The handler's time is taken
    out of in-process calls only: next to a CLI process it runs in
    parallel and delays nothing."""
    start = perf()
    round_times, latencies, checks, reference = [], [], [], []
    period = SpeedProbe.IN_PROCESS_PERIOD_S if in_process else SpeedProbe.BESIDE_CLI_PERIOD_S
    while len(round_times) < 2 or perf() - start < seconds:
        probe = SpeedProbe(period)
        with probe:
            spans, results = run_round(ops, probe=probe if in_process else None)
        # A round shorter than the period gets one sample right after it.
        reference.append(probe.samples or [reference_work()])
        times = [t1 - t0 for t0, t1 in spans]
        round_times.append(sum(times))
        latencies += times
        checks.append(check_round(ops, results))
    digests = {c["digest"] for c in checks}
    problems = [p for c in checks for p in c["problems"]]
    if len(digests) > 1:
        problems.append(f"outputs differ between rounds of one run: {len(digests)} versions")
    return {
        "round_times": round_times,
        "latencies": latencies,
        "reference": reference,
        "ops_per_round": len(ops),
        "round_tuples": checks[0]["tuples"],
        "attempted": len(ops) * len(checks),
        "failed": sum(c["failed"] for c in checks) + (len(digests) > 1),
        "problems": problems,
        "digest": checks[0]["digest"],
        "bytes": checks[0]["bytes"],
    }


def traced_round(name: str, seed: int, workdir: Path, level: str, run_id: str) -> tuple:
    """One round under the tracer; the inputs are rebuilt after it is
    installed, so products built at set-up are traced as well."""
    tracer = tr.Tracer(level, run_id)
    tracer.install()
    try:
        ops = build_ops(name, seed, workdir, probe_level=level)
        spans, results = run_round(ops, tracer)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    if name == "cli-check":
        snap = merge_probes(workdir, spans, run_id)
    return snap, sum(t1 - t0 for t0, t1 in spans), check_round(ops, results), len(ops)


def untraced_round(ops) -> tuple:
    """Time and checked output of one more untraced round."""
    spans, results = run_round(ops)
    return sum(t1 - t0 for t0, t1 in spans), check_round(ops, results)


def merge_probes(workdir: Path, spans: list, run_id: str) -> dict:
    """Fold the per-invocation probe files into one snapshot, with one
    span per invocation as the parent of the probe's own spans."""
    total = tr.empty_snapshot()
    phases = {"interp_start_s": [], "import_s": [], "parse_s": [], "run_s": []}
    for i, (t0, t1) in enumerate(spans):
        probe = json.loads((workdir / f"probe-{i}.json").read_text())
        for key in phases:
            phases[key].append(probe[key])
        part = probe["snapshot"]
        tr.merge(total, part)
        parent = len(total["spans"])
        total["spans"].append(["cli.invocation", t0, t1, None, run_id, i])
        for name, s0, s1, p, _run, _op in part["spans"]:
            total["spans"].append([name, s0, s1, parent if p is None else parent + 1 + p,
                                   run_id, i])
    total["cli"] = {k: statistics.median(v) for k, v in phases.items()}
    return total


def micro_rationals(seed: int) -> dict:
    """ns per coefficient operation on the package's own coefficient type."""
    import random
    import timeit

    c = rb.laurent().basis_element(0).terms[0]
    rng = random.Random(seed)
    texts = [f"{rng.randint(-999, 999)}/{rng.randint(1, 999)}" for _ in range(500)]
    values = [rb.parse_rational(t) for t in texts]
    best = lambda stmt, g, n: min(timeit.Timer(stmt, globals=g).repeat(5, n)) / n * 1e9
    return {
        "rationals.coeff_mul_add_ns": best("c * c + c", {"c": c}, 20000),
        "rationals.parse_ns": best("for t in texts: parse(t)",
                                   {"texts": texts, "parse": rb.parse_rational}, 20) / len(texts),
        "rationals.format_ns": best("for v in values: fmt(v)",
                                    {"values": values, "fmt": rb.format_rational}, 20) / len(values),
    }


def layer_metrics(coarse, full, overhead, untraced, micro) -> dict:
    stats = full["stats"]
    count = lambda layer: stats.get(layer, [0, 0.0, 0.0])[0]
    self_s = lambda layer: stats.get(layer, [0, 0.0, 0.0])[2]
    ratio = lambda a, b: a / b if b else 0.0
    tuples = untraced["round_tuples"]
    per_check = coarse["per_check"]
    cli = coarse.get("cli", dict.fromkeys(("interp_start_s", "import_s", "parse_s", "run_s"), 0.0))
    m = dict(micro)
    m.update({
        "algebra.element_init.count": count("algebra.element_init"),
        "algebra.element_init.self_s": self_s("algebra.element_init"),
        "algebra.element_arith.count": count("algebra.element_arith"),
        "algebra.element_arith.self_s": self_s("algebra.element_arith"),
        "algebra.element_init_per_tuple": ratio(count("algebra.element_init"), tuples),
        "algebras.multiply.count": count("algebras.multiply"),
        "algebras.multiply.self_s": self_s("algebras.multiply"),
        "algebras.basis_product.count": count("algebras.basis_product"),
        "algebras.basis_product.self_s": self_s("algebras.basis_product"),
        "algebras.basis_product_per_multiply": ratio(count("algebras.basis_product"),
                                                     count("algebras.multiply")),
        "operators.apply.count": count("operators.apply"),
        "operators.apply.self_s": self_s("operators.apply"),
        "operators.expr_node.count": count("operators.expr_node"),
        "operators.nodes_per_apply": ratio(count("operators.expr_node"),
                                           count("operators.apply")),
        "dendriform.product.count": count("dendriform.product"),
        "dendriform.product.self_s": self_s("dendriform.product"),
        "checks.sweep.count": count("checks.sweep"),
        "checks.tuples": full["output_tuples"],
        "checks.sweep.self_s": self_s("checks.sweep"),
        "checks.image_closure.self_s": self_s("checks.image_closure"),
        "tensor.acybe.count": count("tensor.acybe"),
        "tensor.acybe.self_s": self_s("tensor.acybe"),
        "report.serialise_s": coarse["stats"].get("report.serialise", [0, 0.0])[1],
        "report.bytes": untraced["bytes"],
        "cli.interp_start_s": cli["interp_start_s"],
        "cli.import_s": cli["import_s"],
        "cli.parse_s": cli["parse_s"],
        "cli.run_s": cli["run_s"],
        "trace.overhead_frac": overhead,
    })
    for check_id in CHECK_IDS:
        seconds, n = per_check.get(check_id, (0.0, 0))
        m[f"checks.us_per_tuple.{check_id}"] = ratio(seconds * 1e6, n)
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    if not Path(rb.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rotabaxter imported from {rb.__file__}, not from {ROOT / 'src'}")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    ops = build_ops(args.workload, args.seed, workdir)
    print(f"READY {perf()!r}", flush=True)
    reference_work()  # the first run in a fresh interpreter is slower
    print(f"REFERENCE {json.dumps([reference_work() for _ in range(10)])}", flush=True)
    if args.mode == "setup":
        return 0

    summary = timed_rounds(ops, args.seconds, in_process=args.workload != "cli-check")
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-check" else resource.RUSAGE_SELF
    summary["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    if args.mode == "trace":
        run_id = f"{args.workload}-seed{args.seed}"
        coarse, _, coarse_check, n = traced_round(args.workload, args.seed, workdir,
                                                  "coarse", run_id)
        # The full tracer's overhead is taken against untraced rounds right
        # before and after it, as the host's speed drifts within seconds.
        before, before_check = untraced_round(ops)
        full, full_wall, full_check, _ = traced_round(args.workload, args.seed, workdir,
                                                      "full", run_id)
        after, after_check = untraced_round(ops)
        summary["attempted"] += 4 * n
        for label, snap, check in (("coarse-traced", coarse, coarse_check),
                                   ("full-traced", full, full_check),
                                   ("neighbouring", None, before_check),
                                   ("neighbouring", None, after_check)):
            trouble = list(check["problems"])
            if check["digest"] != summary["digest"]:
                trouble.append(f"{label} output differs from the untraced output")
            if snap is not None and snap["output_tuples"] != summary["round_tuples"]:
                trouble.append(f"{label} trace saw {snap['output_tuples']} tuples, "
                               f"reports hold {summary['round_tuples']}")
            if trouble:
                summary["failed"] += max(check["failed"], 1)
            summary["problems"] += trouble
        summary["layers"] = layer_metrics(coarse, full, full_wall / ((before + after) / 2) - 1,
                                          summary, micro_rationals(args.seed))
        summary["spans"] = coarse["spans"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
