"""Tracer for the rotabaxter package, installed from outside the package.

``Tracer.install`` replaces public functions and methods of the package's
modules with timing wrappers and puts everything back on ``uninstall``; the
package source is never edited.  A function is replaced under every name
that refers to it in any ``rotabaxter`` module, so a name another module
bound with ``from ... import`` (``dendriform.sweep_identity``,
``suite.check_rbr``, the package's re-exports) is traced too.

Two levels:

* ``coarse``: span boundaries only: the public checks, the leaf sweeps,
  the ACYBE residual, the suite and report serialisation.  Each call is
  kept as a full span (name, start, end, parent, run id, op id).  Few
  calls, so the timings are close to untraced ones; per-check cost per
  tuple comes from this level.
* ``full``: additionally the fine boundaries (``Element`` construction
  and arithmetic, ``multiply``, ``basis_product``, operator application,
  operator-tree nodes, dendriform products).  These are aggregated in
  memory as count, total and self time only: ``paper-all`` alone builds
  about half a million elements, and a span per call would distort memory.

Self time is a call's duration minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

perf = time.perf_counter

# Public checks that produce their report through a leaf below.
_CHECK_FUNCTIONS = (
    "check_rbr", "check_modified_rbr", "check_nijenhuis", "check_lie_modified",
    "check_idempotent", "find_violation",
)
_DENDRIFORM_CHECKS = (
    "check_dialgebra", "check_trialgebra", "check_star_associative",
    "check_rbr_on_compositions",
)
_BUILDERS = (
    "build_weight0_pair", "build_modified_pair", "build_tri_from_rbo",
    "build_from_nijenhuis",
)
_ELEMENT_ARITH = ("__add__", "__sub__", "__neg__", "scale", "__mul__", "__rmul__",
                  "__eq__")


def check_key(check_id: str) -> str:
    """Metric-safe form of a report's check id: ``violate(rbr)`` -> ``violate.rbr``."""
    return check_id.replace("(", ".").replace(")", "")


class Tracer:
    def __init__(self, level: str, run_id: str):
        if level not in ("coarse", "full"):
            raise ValueError(f"unknown trace level {level!r}")
        self.level = level
        self.run_id = run_id
        self.op = None
        self.stats: dict = {}      # layer -> [count, total_s, self_s]
        self.spans: list = []      # [name, start, end, parent, run, op]
        self.per_check: dict = {}  # check key -> [seconds, tuples]
        self._stack: list = []     # one [child_seconds, span_index] per open call
        self._leaf_reports: list = []
        self._serialised: dict = {}  # id -> report; holding it keeps ids unique
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _entry(self, layer: str) -> list:
        return self.stats.setdefault(layer, [0, 0.0, 0.0])

    def timed(self, layer: str, fn, span: bool = False, on_return=None):
        """Wrap ``fn``: count it under ``layer`` with total and self time,
        keep a full span per call when ``span`` is set, and pass each
        result with its duration to ``on_return``."""
        entry = self._entry(layer)
        stack = self._stack
        spans = self.spans
        name = f"{layer}:{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = None
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.run_id, self.op])
            frame = [0.0, index]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if index is not None:
                    spans[index][1] = t0
                    spans[index][2] = t1
            if on_return is not None:
                on_return(result, dt)
            return result

        return wrapper

    def counted(self, layer: str, fn):
        """Count-only wrapper; its time stays with the enclosing call."""
        entry = self._entry(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _leaf(self, report, dt):
        key = check_key(report.check)
        acc = self.per_check.setdefault(key, [0.0, 0])
        acc[0] += dt
        acc[1] += report.tuples
        self._leaf_reports.append(report)

    def _acybe(self, residual, dt):
        acc = self.per_check.setdefault("acybe", [0.0, 0])
        acc[0] += dt
        acc[1] += 1

    # -- patching ---------------------------------------------------------

    @staticmethod
    def _package_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "rotabaxter" or name.startswith("rotabaxter."))]

    def _patch_function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in self._package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def _wrap_builder(self, build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            ds = build(*args, **kwargs)
            products = {k: self.timed("dendriform.product", getattr(ds, k))
                        for k in ("prec", "succ", "middle") if getattr(ds, k) is not None}
            return dataclasses.replace(ds, **products)

        return wrapper

    def _mark_serialised(self, to_json):
        serialised = self._serialised

        @functools.wraps(to_json)
        def wrapper(report):
            serialised[id(report)] = report
            return to_json(report)

        return wrapper

    def install(self) -> None:
        import rotabaxter.algebra as algebra
        import rotabaxter.algebras as algebras
        import rotabaxter.checks as checks
        import rotabaxter.dendriform as dendriform
        import rotabaxter.report as report
        import rotabaxter.suite as suite
        import rotabaxter.tensor as tensor

        span = lambda layer, **kw: (lambda fn: self.timed(layer, fn, span=True, **kw))

        for name in _CHECK_FUNCTIONS:
            self._patch_function(checks, name, span("checks.check"))
        for name in _DENDRIFORM_CHECKS:
            self._patch_function(dendriform, name, span("checks.check"))
        self._patch_function(checks, "sweep_identity", span("checks.sweep", on_return=self._leaf))
        self._patch_function(checks, "violation_report", span("checks.sweep", on_return=self._leaf))
        self._patch_function(checks, "check_image_closure",
                             span("checks.image_closure", on_return=self._leaf))
        self._patch_function(algebras, "verify_associativity",
                             span("checks.associativity", on_return=self._leaf))
        self._patch_function(tensor, "acybe_residual", span("tensor.acybe", on_return=self._acybe))
        self._patch_function(suite, "run_suite", span("suite.run"))
        self._patch_function(suite, "acybe_report", span("suite.acybe_report"))
        self._patch_function(suite, "dumps_suite", span("report.serialise"))
        self._patch_function(report, "dumps_reports", span("report.serialise"))
        self._patch_method(report.CheckReport, "to_json", self._mark_serialised)
        if self.level == "coarse":
            return

        timed = lambda layer: (lambda fn: self.timed(layer, fn))
        counted = lambda layer: (lambda fn: self.counted(layer, fn))
        self._patch_method(algebra.Element, "__init__", timed("algebra.element_init"))
        for name in _ELEMENT_ARITH:
            self._patch_method(algebra.Element, name, timed("algebra.element_arith"))
        self._patch_method(algebra.Algebra, "multiply", timed("algebras.multiply"))
        for cls in (algebras.LaurentAlgebra, algebras.FiniteAlgebra):
            self._patch_method(cls, "basis_product", timed("algebras.basis_product"))
        self._patch_function(algebra, "apply_operator", timed("operators.apply"))
        for cls in (algebra.Identity, algebra.Primitive, algebra.Scale, algebra.Sum,
                    algebra.Compose):
            self._patch_method(cls, "apply", counted("operators.expr_node"))
        self._patch_method(dendriform.DendriformStructure, "star", timed("dendriform.product"))
        for name in _BUILDERS:
            self._patch_function(dendriform, name, self._wrap_builder)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def output_tuples(self) -> int:
        """Tuples of the leaf reports that reached the output (were
        serialised), plus one per ACYBE residual; precondition sweeps that
        no report shows are left out."""
        seen = sum(r.tuples for r in self._leaf_reports if id(r) in self._serialised)
        return seen + self.count("tensor.acybe")

    def count(self, layer: str) -> int:
        return self.stats.get(layer, [0])[0]

    def self_s(self, layer: str) -> float:
        return self.stats.get(layer, [0, 0.0, 0.0])[2]

    def snapshot(self) -> dict:
        """Plain-data summary; sums across processes with ``merge``."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "per_check": {k: list(v) for k, v in self.per_check.items()},
            "output_tuples": self.output_tuples(),
            "spans": [list(s) for s in self.spans],
        }


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (counts and times are sums)."""
    for key in ("stats", "per_check"):
        for name, values in part[key].items():
            acc = total[key].setdefault(name, [0] * len(values))
            for i, v in enumerate(values):
                acc[i] += v
    total["output_tuples"] += part["output_tuples"]
    return total


def empty_snapshot() -> dict:
    return {"stats": {}, "per_check": {}, "output_tuples": 0, "spans": []}
