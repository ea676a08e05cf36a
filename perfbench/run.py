"""rotabaxter benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Each workload runs in fresh interpreters started one after
another (``worker.py``), so set-up time includes the imports, peak memory
covers one workload only and nothing warmed by one workload is seen by
the next:

1. one untimed start that compiles the package's bytecode;
2. ``SETUP_RUNS`` starts that only build the inputs, for ``setup_s``;
3. the measured start: its set-up counts towards ``setup_s`` too, then it
   runs rounds for S seconds (``--trace 1``: followed by a coarse-traced
   and a fully traced round).

End-to-end times are scaled to a reference speed measured alongside
them (see ``worker.SpeedProbe``).
Every operation's output is checked.  The last stdout line is the JSON
result; the lines before it name every metric with its unit, the sample
counts and the environment.  The exit code is 1 when an output check
failed and 2 when the benchmark could not run.  Spans and the full result
are written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("paper-all", "basis-sweep", "random-finite", "cli-check")
SETUP_RUNS = 5
# Time of worker.reference_work at the reference speed.
REFERENCE_S = 0.0015
WORKER_TIMEOUT_S = 160


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "loadavg": Path("/proc/loadavg").read_text().split()[:3]}


def start_worker(args, mode: str, workdir: Path, seconds: int = 0) -> tuple:
    """Start one worker and wait for it; returns its set-up seconds, the
    reference-work times it took right after set-up, and its last stdout
    line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(workdir)]
    t0 = time.perf_counter()
    # A session of its own, so that a worker that overruns is stopped
    # together with any CLI process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker ({mode}) ran longer than {WORKER_TIMEOUT_S} s")
    lines = stdout.splitlines()
    tagged = dict(line.split(" ", 1) for line in lines if line.startswith(("READY ", "REFERENCE ")))
    if proc.returncode != 0 or len(tagged) != 2:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}: {stderr[-2000:]}")
    return float(tagged["READY"]) - t0, json.loads(tagged["REFERENCE"]), lines[-1]


def round_scales(rounds: list, beside_cli: bool) -> list:
    """Factor that brings each round's times to the reference speed, from
    the reference-work samples taken during each round.

    In-process, the samples interleave with the calls in one thread and
    the host's speed flips within seconds, so each round is scaled by the
    mean of its own samples.  Next to a CLI process the samples run on the
    other CPU and follow the CLI only on average, with a long tail of slow
    samples that the CLI does not share: the whole run is scaled by the
    median of its samples."""
    if beside_cli:
        typical = statistics.median(t for samples in rounds for t in samples)
        return [REFERENCE_S / typical] * len(rounds)
    return [REFERENCE_S / statistics.mean(samples) for samples in rounds]


def percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rotabaxter" / "__init__.py").is_file():
        print(f"error: no rotabaxter package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env_start = environment()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        start_worker(args, "setup", workdir)
        setups = [start_worker(args, "setup", workdir)[:2] for _ in range(SETUP_RUNS)]
        *ready, line = start_worker(args, "trace" if args.trace else "run", workdir, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(tuple(ready))
    summary = json.loads(line)
    # Every time is brought to the reference speed: multiplied by
    # REFERENCE_S over the time of the reference work sampled during the
    # timed calls (see worker.SpeedProbe) or right after set-up.
    setup_scale = REFERENCE_S / statistics.mean(t for _, ref in setups for t in ref)
    scales = round_scales(summary["reference"], args.workload == "cli-check")
    env_end = environment()

    n = summary["ops_per_round"]
    lat = [t * scales[i // n] for i, t in enumerate(summary["latencies"])]
    # One round's time, op by op: the median of each operation over the
    # rounds, summed, so one slow call in a typical round does not move it.
    wall = sum(statistics.median(lat[j::n]) for j in range(n))
    # A request is one CLI invocation on cli-check and one round elsewhere:
    # percentiles over a mix of check calls that differ tenfold in length
    # jump between kinds of call from run to run.
    requests = lat if args.workload == "cli-check" else [
        t * scale for t, scale in zip(summary["round_times"], scales)]
    if args.trace:
        values = summary["layers"]
    else:
        values = {
            "setup_s": statistics.median(raw for raw, _ in setups) * setup_scale,
            "wall_s": wall,
            "tuples_per_s": summary["round_tuples"] / wall,
            "latency_p50_ms": statistics.median(requests) * 1e3,
            "latency_p90_ms": percentile(requests, 90) * 1e3,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        print(f"error: metrics {sorted(set(units) ^ set(values))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}

    print(f"workload {args.workload} seed {args.seed}: {len(summary['round_times'])} rounds, "
          f"{len(lat)} operations timed, {len(requests)} latency samples, "
          f"{len(setups)} set-ups, {summary['round_tuples']} tuples per round")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  times are scaled to the reference speed by {statistics.median(scales):.4g} "
          f"(median over rounds; set-up: "
          f"{setup_scale:.4g}); unscaled: median round "
          f"{statistics.median(summary['round_times']):.6g} s, median set-up "
          f"{statistics.median(raw for raw, _ in setups):.6g} s")
    for problem in summary["problems"][:20]:
        print(f"  FAILED {problem}")
    print(f"env start {json.dumps(env_start)}")
    print(f"env end   {json.dumps(env_end)}")

    result = {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, env_start=env_start, env_end=env_end, setups=setups,
                  **{k: v for k, v in summary.items() if k not in ("layers", "spans")})
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [dict(zip(("name", "start", "end", "parent", "run", "op"), s))
                 for s in summary["spans"]]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
