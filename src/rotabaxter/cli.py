"""Batch command-line interface.

Exit codes: 0 when every requested check passed (no witnesses),
1 when at least one check failed (the report carries a witness), and
2 on configuration or file-format errors (the diagnostic names the
offending field).  The ``suite`` command compares outcomes against expectations
instead: 0 means every entry, including the deliberately negative ones,
matched.

The weight is always taken from the command line, never inferred from
an operator, so the two sign conventions that differ only in λ can
never drift silently.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import Algebra, DomainSpec
from .algebras import (
    FiniteAlgebra,
    laurent,
    load_structure_constants_file,
    make_componentwise,
    make_matrix_algebra,
    polynomial,
    verify_associativity,
)
from .checks import (
    IDENTITIES,
    check,
    check_idempotent,
    check_image_closure,
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
from .errors import FormatError, InvalidDomainError, RotaBaxterError
from .operators import (
    WeightedOperator,
    compose_operator,
    make_identity_operator,
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    modified_of,
    nijenhuis_family,
    normalize_weight,
    operator_matrix_from_json,
    opposite_of,
    scale_operator,
    sum_operator,
)
from .rationals import format_rational, parse_rational
from .report import CheckReport, dumps_reports
from .suite import acybe_report, dumps_suite, run_suite
from .tensor import induced_operator, tensor2_from_json

SEED_ENV_VAR = "ROTABAXTER_SEED"


@dataclass
class RunConfig:
    command: str
    algebra: str | None = None
    operator: str | None = None
    weight: Fraction | None = None
    domain: DomainSpec | None = None
    output: str | None = None
    seed: int = 0
    axioms: str | None = None
    construct: str | None = None
    identity: str = "rbr"
    max_range: int = 4
    samples: int = 200
    range_given: bool = False
    tensor_path: str | None = None
    suite_preset: str | None = None


# ---------------------------------------------------------------------------
# Selector parsing


def parse_algebra(spec: str):
    """Algebra selector -> (algebra, context); context remembers preset
    parameters so operator selectors like bare "miller" can resolve."""
    spec = spec.strip()
    context: dict = {}
    if spec == "laurent":
        return laurent(), context
    if spec == "polynomial":
        return polynomial(), context
    m = re.fullmatch(r"miller:(\d+),(\d+)", spec)
    if m:
        s, t = int(m.group(1)), int(m.group(2))
        context["miller"] = (s, t)
        return make_componentwise(s + t), context
    m = re.fullmatch(r"componentwise:(\d+)", spec)
    if m:
        return make_componentwise(int(m.group(1))), context
    m = re.fullmatch(r"matrix:(\d+)", spec)
    if m:
        return make_matrix_algebra(int(m.group(1))), context
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        constants = load_structure_constants_file(path)
        verdict = verify_associativity(constants)
        if not verdict.passed:
            raise FormatError(
                f"{path}: structure constants are not associative; "
                f"{verdict.notes[0] if verdict.notes else 'violation found'}")
        return FiniteAlgebra(constants), context
    raise FormatError(f"unknown algebra selector {spec!r}")


_PRESET_RE = re.compile(r"^([a-z-]+)(?::(.*))?$")
_TOKEN_RE = re.compile(
    r"\s*([A-Za-z][A-Za-z0-9-]*(?::-?\d+)?|[(),]|-?\d+(?:/\d+)?)")


def _resolve_preset(name: str, params: str | None, algebra: Algebra,
                    context: dict, weight: Fraction | None) -> WeightedOperator:
    if name == "id":
        return make_identity_operator(algebra)
    if name == "ms":
        return make_rms()
    if name == "ms-opp":
        return make_rms_opposite()
    if name == "integration":
        return make_integration()
    if name == "shift":
        if params is None:
            raise FormatError("operator 'shift' needs a cutoff, e.g. shift:1")
        return make_shift_truncation(int(params))
    if name == "miller":
        if params is not None:
            m = re.fullmatch(r"(\d+),(\d+)", params)
            if not m:
                raise FormatError(f"bad miller parameters {params!r}")
            s, t = int(m.group(1)), int(m.group(2))
        elif "miller" in context:
            s, t = context["miller"]
        else:
            raise FormatError(
                "operator 'miller' needs block sizes (miller:s,t) or an "
                "algebra selector miller:s,t")
        op = make_miller(s, t)
        if op.algebra != algebra:
            raise FormatError(
                f"miller:{s},{t} acts on componentwise({s + t}), "
                f"not on {algebra.describe()}")
        return op
    if name == "file":
        raise FormatError("use the full form file:PATH as the operator selector")
    raise FormatError(f"unknown operator preset {name!r}")


# function -> (argument kinds, constructor); kind "e" is an operator
# expression, "q" a rational
_FUNCTIONS = {
    "scale": ("qe", scale_operator),
    "sum": ("ee", sum_operator),
    "compose": ("ee", compose_operator),
    "modified": ("e", modified_of),
    "opposite": ("e", opposite_of),
    "nijenhuis": ("eq", nijenhuis_family),
    "normalize": ("e", normalize_weight),
}


class _ExprParser:
    """Recursive descent over scale/sum/compose/modified/opposite/
    nijenhuis/normalize applied to presets."""

    def __init__(self, tokens, algebra, context, weight):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.context = context
        self.weight = weight

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise FormatError("unexpected end of operator expression")
        if expected is not None and tok != expected:
            raise FormatError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> WeightedOperator:
        op = self.expr()
        if self.peek() is not None:
            raise FormatError(f"trailing input in operator expression: {self.peek()!r}")
        return op

    def rational(self) -> Fraction:
        tok = self.take()
        return parse_rational(tok)

    def expr(self) -> WeightedOperator:
        tok = self.take()
        if not re.match(r"^[A-Za-z]", tok):
            raise FormatError(f"expected an operator, got {tok!r}")
        if self.peek() == "(":
            self.take("(")
            if tok not in _FUNCTIONS:
                raise FormatError(f"unknown operator function {tok!r}")
            kinds, build = _FUNCTIONS[tok]
            args = []
            for n, kind in enumerate(kinds):
                if n:
                    self.take(",")
                args.append(self.expr() if kind == "e" else self.rational())
            self.take(")")
            return build(*args)
        m = _PRESET_RE.match(tok)
        if not m:
            raise FormatError(f"bad operator token {tok!r}")
        return _resolve_preset(m.group(1), m.group(2), self.algebra,
                               self.context, self.weight)


def parse_operator(spec: str, algebra: Algebra, context: dict,
                   weight: Fraction | None) -> WeightedOperator:
    spec = spec.strip()
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if not isinstance(algebra, FiniteAlgebra):
            raise FormatError(
                "operator-matrix files need a finite-dimensional algebra")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: invalid JSON: {exc}") from exc
        return operator_matrix_from_json(data, algebra, weight=weight)
    if "(" not in spec:
        m = _PRESET_RE.match(spec)
        if not m:
            raise FormatError(f"bad operator selector {spec!r}")
        return _resolve_preset(m.group(1), m.group(2), algebra, context, weight)
    tokens = []
    pos = 0
    while pos < len(spec):
        m = _TOKEN_RE.match(spec, pos)
        if m is None or m.end() == pos:
            raise FormatError(f"bad operator expression near {spec[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return _ExprParser(tokens, algebra, context, weight).parse()


def load_tensor(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "algebra" not in data:
        raise FormatError(f"{path}: tensor file needs an 'algebra' field")
    algebra, _ = parse_algebra(data["algebra"])
    if not isinstance(algebra, FiniteAlgebra):
        raise FormatError(f"{path}: tensors need a finite-dimensional algebra")
    return tensor2_from_json(data, algebra), algebra


# ---------------------------------------------------------------------------
# Execution


def _print_report(report: CheckReport) -> None:
    weight = "-" if report.weight is None else format_rational(report.weight)
    tag = "PASS" if report.passed else "FAIL"
    print(f"[{tag}] {report.check} | {report.algebra} | {report.operator} "
          f"| weight={weight} | tuples={report.tuples}")
    for note in report.notes:
        print(f"       note: {note}")
    if report.witness is not None:
        w = report.witness
        inputs = ", ".join(str(x) for x in w.inputs)
        print(f"       witness: ({inputs})")
        print(f"         lhs  = {w.lhs}")
        print(f"         rhs  = {w.rhs}")
        print(f"         diff = {w.diff}")


def _emit(reports, output: str | None) -> int:
    if isinstance(reports, CheckReport):
        reports = [reports]
    for report in reports:
        _print_report(report)
    if output:
        payload = reports[0] if len(reports) == 1 else list(reports)
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(dumps_reports(payload))
    return 0 if all(r.passed for r in reports) else 1


def _require_weight(config: RunConfig) -> Fraction:
    if config.weight is None:
        raise FormatError(f"command {config.command!r} needs --weight")
    return config.weight


# check command -> identity swept by checks.check
_IDENTITY_COMMANDS = {
    "check-rbr": "rbr",
    "check-modified": "modified-rbr",
    "check-nijenhuis": "nijenhuis",
    "check-lie-modified": "lie-modified",
}


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit code."""
    if config.command == "suite":
        try:
            result = run_suite(config.suite_preset or "paper-all",
                               seed=config.seed)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        bad = [e for e in result["entries"] if not e["ok"]]
        for entry in result["entries"]:
            marker = "ok " if entry["ok"] else "BAD"
            print(f"[{marker}] criterion {entry['criterion']:>2} | "
                  f"expected {entry['expected']:<6} got {entry['status']:<4} | "
                  f"{entry['name']}")
        print(f"suite {result['suite']}: {len(result['entries'])} entries, "
              f"{len(bad)} unexpected")
        if config.output:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(dumps_suite(result))
        return 0 if result["ok"] else 1

    if config.command in ("acybe", "induce"):
        r, algebra = load_tensor(config.tensor_path)
        if config.command == "acybe":
            return _emit(acybe_report(r, str(r)), config.output)
        op = induced_operator(r)
        lam = config.weight if config.weight is not None else 0
        return _emit(check("rbr", algebra, op, lam, config.domain), config.output)

    algebra, context = parse_algebra(config.algebra)
    if config.range_given and isinstance(algebra, FiniteAlgebra):
        raise InvalidDomainError(
            f"--range is an exponent window; {algebra.describe()} is "
            f"finite-dimensional and its checks sweep the whole basis")
    operator = parse_operator(config.operator, algebra, context, config.weight)
    dom = config.domain

    if config.command in _IDENTITY_COMMANDS:
        return _emit(check(_IDENTITY_COMMANDS[config.command], algebra, operator,
                           _require_weight(config), dom),
                     config.output)
    if config.command == "check-idempotent":
        return _emit(check_idempotent(algebra, operator, dom), config.output)
    if config.command == "check-image-closure":
        return _emit(check_image_closure(algebra, operator, dom), config.output)
    if config.command == "violate":
        lam = _require_weight(config)
        return _emit(violation_report(algebra, config.identity, operator, lam,
                                      max_range=config.max_range,
                                      samples=config.samples,
                                      seed=config.seed),
                     config.output)
    if config.command == "dendriform":
        return _run_dendriform(config, algebra, operator)
    raise FormatError(f"unknown command {config.command!r}")


def _run_dendriform(config: RunConfig, algebra, operator) -> int:
    construct = config.construct or "tri"
    if construct == "weight0":
        ds = build_weight0_pair(operator)
    elif construct == "modified":
        lam = _require_weight(config)
        ds = build_modified_pair(modified_of(replace(operator, weight=lam)), lam)
    elif construct == "tri":
        lam = _require_weight(config)
        ds = build_tri_from_rbo(operator, lam)
    elif construct == "nijenhuis":
        ds = build_from_nijenhuis(operator)
    else:
        raise FormatError(f"unknown construction {construct!r}")

    axioms = config.axioms or ("tri" if ds.has_middle else "ddi")
    dom = config.domain
    if axioms == "ddi":
        reports = check_dialgebra(ds, dom)
    elif axioms == "tri":
        if not ds.has_middle:
            raise FormatError(
                f"construction {construct!r} has no middle product; "
                f"use --axioms ddi or star")
        reports = check_trialgebra(ds, dom)
    elif axioms == "star":
        reports = [check_star_associative(ds, dom)]
    elif axioms == "rbr-compositions":
        reports = check_rbr_on_compositions(ds, operator, dom)
    else:
        raise FormatError(f"unknown axiom set {config.axioms!r}")
    return _emit(reports, config.output)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_selectors(parser):
    parser.add_argument("--algebra", required=True,
                        help="laurent | polynomial | miller:s,t | "
                             "componentwise:n | matrix:n | file:PATH")
    parser.add_argument("--operator", required=True,
                        help="preset (ms, ms-opp, integration, shift:r, "
                             "miller, id, file:PATH) or expression over "
                             "scale/sum/compose/modified/opposite/"
                             "nijenhuis/normalize")


def _add_run_options(parser):
    parser.add_argument("--weight", type=parse_rational, default=None,
                        help="weight λ used by the check (p/q)")
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=None,
                        help=f"sampling seed (default ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--output", default=None, help="write a JSON report here")


def _add_random_options(parser):
    parser.add_argument("--random", action="store_true",
                        help="random elements instead of exhaustive basis tuples")
    parser.add_argument("--coeff-bound", type=int, default=5)
    parser.add_argument("--support-bound", type=int, default=3)


def _add_check_options(parser):
    """Options of the commands that sweep a domain of an algebra."""
    _add_selectors(parser)
    _add_run_options(parser)
    parser.add_argument("--range", nargs=2, type=int, default=None,
                        metavar=("LO", "HI"),
                        help="exponent window for exhaustive basis mode "
                             "(Laurent-type algebras only; default -4 4)")
    _add_random_options(parser)
    parser.set_defaults(window=(-4, 4))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotabaxter",
        description="Construct Rota-Baxter operators, derive dendriform "
                    "structures, and verify or refute their identities "
                    "exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in (*_IDENTITY_COMMANDS, "check-idempotent", "check-image-closure"):
        _add_check_options(sub.add_parser(name))

    p = sub.add_parser("dendriform")
    _add_check_options(p)
    p.add_argument("--construct", choices=["weight0", "modified", "tri",
                                           "nijenhuis"], default="tri")
    p.add_argument("--axioms", choices=["ddi", "tri", "star",
                                        "rbr-compositions"], default=None)

    p = sub.add_parser("violate")
    _add_selectors(p)
    _add_run_options(p)
    p.add_argument("--identity", choices=list(IDENTITIES), default="rbr")
    p.add_argument("--max-range", type=int, default=4)

    p = sub.add_parser("acybe")
    p.add_argument("--tensor", required=True, help="tensor JSON file")
    p.add_argument("--output", default=None)

    p = sub.add_parser("induce")
    p.add_argument("--tensor", required=True, help="tensor JSON file")
    _add_run_options(p)
    _add_random_options(p)
    # the sweep covers the whole tensor algebra; reports record the window 0 0
    p.set_defaults(window=(0, 0))

    p = sub.add_parser("suite")
    p.add_argument("preset", nargs="?", default="paper-all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)

    return parser


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.seed if getattr(args, "seed", None) is not None else _default_seed()
    config = RunConfig(command=args.command, seed=seed)
    if hasattr(args, "output"):
        config.output = args.output
    if args.command == "suite":
        config.suite_preset = args.preset
        return config
    if hasattr(args, "random"):
        config.range_given = getattr(args, "range", None) is not None
        lo, hi = args.range if config.range_given else args.window
        if args.random:
            config.domain = DomainSpec.random(
                args.samples, lo=lo, hi=hi, coeff_bound=args.coeff_bound,
                support_bound=args.support_bound, seed=seed)
        else:
            config.domain = DomainSpec.basis(lo, hi)
    config.weight = getattr(args, "weight", None)
    if args.command in ("acybe", "induce"):
        config.tensor_path = args.tensor
        return config
    config.algebra = args.algebra
    config.operator = args.operator
    config.axioms = getattr(args, "axioms", None)
    config.construct = getattr(args, "construct", None)
    config.identity = getattr(args, "identity", "rbr")
    config.max_range = getattr(args, "max_range", 4)
    config.samples = args.samples
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except RotaBaxterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
