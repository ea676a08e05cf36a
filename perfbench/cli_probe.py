"""Traced run of ``python -m rotabaxter``.

    python3 perfbench/cli_probe.py --level coarse|full --stats PATH -- ARGS...

Imports ``rotabaxter.cli``, installs the tracer and calls the package's own
``rotabaxter.cli.main(ARGS)``, then writes the phase times and the
tracer's snapshot to PATH as JSON.  ``cli.run`` is wrapped for timing
only: ``parse_s`` runs from the call of ``main`` to the start of ``run``
(argparse, selector and file parsing), ``run_s`` is ``run`` itself.  The
command's standard output, report file and exit code are left exactly as
the plain CLI gives them.

``PERFBENCH_T_SPAWN`` holds the parent's ``time.perf_counter()`` just
before it started this process (the clock is system-wide on Linux), so
interpreter start-up is measured from the parent's side.
"""

import time

T_MAIN = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    import rotabaxter.cli as cli
    t_import = time.perf_counter() - t0

    import json
    import os

    from tracer import Tracer

    argv = sys.argv[1:]
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    cli_args = argv[split + 1:]

    run = cli.run
    marks = {}

    def timed_run(config):
        marks["run_start"] = time.perf_counter()
        try:
            return run(config)
        finally:
            marks["run_end"] = time.perf_counter()

    tracer = Tracer(opts["--level"], run_id=f"cli-{os.getpid()}")
    tracer.install()
    cli.run = timed_run
    try:
        t0 = time.perf_counter()
        code = cli.main(cli_args)
        t1 = time.perf_counter()
    finally:
        cli.run = run
        tracer.uninstall()
    sys.stdout.flush()
    run_start = marks.get("run_start", t1)
    stats = {
        "interp_start_s": T_MAIN - float(os.environ["PERFBENCH_T_SPAWN"]),
        "import_s": t_import,
        "parse_s": run_start - t0,
        "run_s": marks.get("run_end", t1) - run_start,
        "snapshot": tracer.snapshot(),
    }
    with open(opts["--stats"], "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
