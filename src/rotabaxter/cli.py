"""Batch command-line interface.

Exit codes: 0 when every requested check passed (no witnesses),
1 when at least one check failed (the report carries a witness), and
2 on configuration or file-format errors (the diagnostic names the
offending field), malformed option values such as ``--weight 1/0``
included.  The ``suite`` command compares outcomes against expectations
instead: 0 means every entry, including the deliberately negative ones,
matched.  The listing on stdout is best effort: once its reader has
gone, the rest of it is discarded, and the ``--output`` file and the
exit code are still the run's.

The parsed :class:`argparse.Namespace` is the only form a command line
takes: :func:`run` reads each option from it directly, and each
subcommand accepts only the options its path reads (``_COMMANDS``).
No environment variable is read: the command line is a run's whole
configuration.  A sweep draws random tuples exactly when ``--samples``,
``--coeff-bound``, ``--support-bound`` or ``--seed`` is given; ``--help``
names their defaults.
A call loads only what its command runs: ``dendriform``, ``suite`` and
``tensor`` are imported in the branches that use them, and only the
named subcommand gets its options (:func:`build_parser`).

The weight is always taken from the command line, never inferred from
an operator, so the two sign conventions that differ only in λ can
never drift silently.  The ``dendriform`` constructions ``weight0`` and
``nijenhuis`` have a weight of their own, 0 and 1, and refuse any other
``--weight``.

An operator selector is ``file:PATH`` as a whole, or else one
expression parsed by :func:`parse_operator` from one token list: a
preset such as ``ms``, ``shift:1`` or ``miller:2,2`` is one token, its
parameters included, and parses the same alone and inside a function
such as ``scale(1,miller:2,2)``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace
from fractions import Fraction

from .algebra import Algebra, DomainSpec
from .algebras import (
    FiniteAlgebra,
    laurent,
    load_json,
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

DEFAULT_SAMPLES = 200


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


# a preset token carries its parameters, up to a space, a parenthesis or
# a comma; only a miller: token keeps one comma, unless its first parameter is
# digits and the comma is followed by no digit or by a whole rational p/q, so
# nijenhuis(miller:2,1/2) and sum(miller:2,ms) split there; miller:2,2x stays whole
_TOKEN_RE = re.compile(r"\s*(miller:(?:\d+(?:,\d+)?(?![^\s(),])"
                       r"(?!,\d(?!\d*/\d+(?![^\s(),])))|[^\s(),]*(?:,[^\s(),]*)?)"
                       r"|[A-Za-z][A-Za-z0-9-]*(?::[^\s(),]*)?|[(),]|-?\d+(?:/\d+)?)")


def _resolve_preset(token: str, algebra: Algebra, context: dict) -> WeightedOperator:
    """The preset of one selector token, such as ``ms``, ``shift:1`` or
    ``miller:2,2``; the only reader of a preset's parameters."""
    name, colon, params = token.partition(":")
    # presets are built on the selected algebra: a structure lives on it
    plain = {"id": make_identity_operator, "ms": make_rms, "ms-opp": make_rms_opposite,
             "integration": make_integration}
    if name in plain:
        if colon:
            raise FormatError(f"operator {name!r} takes no parameters, got {params!r}")
        return replace(plain[name](), algebra=algebra)
    if name == "shift":
        if not colon:
            raise FormatError("operator 'shift' needs a cutoff, e.g. shift:1")
        if not re.fullmatch(r"-?\d+", params):
            raise FormatError(f"bad shift cutoff {params!r}")
        return replace(make_shift_truncation(int(params)), algebra=algebra)
    if name == "miller":
        if colon:
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


def parse_operator(spec: str, algebra: Algebra, context: dict) -> WeightedOperator:
    """Operator selector -> operator: ``file:PATH`` as a whole selector,
    else a preset or a function of ``_FUNCTIONS`` applied to selectors
    and rationals, parsed by recursive descent over one token list."""
    spec = spec.strip()
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if not isinstance(algebra, FiniteAlgebra):
            raise FormatError(
                "operator-matrix files need a finite-dimensional algebra")
        return operator_matrix_from_json(load_json(path), algebra)
    tokens = []
    pos = 0
    while pos < len(spec):
        m = _TOKEN_RE.match(spec, pos)
        if m is None:
            raise FormatError(f"bad operator expression near {spec[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.reverse()  # consumed from the end

    def take(expected=None) -> str:
        if not tokens:
            raise FormatError("unexpected end of operator expression")
        tok = tokens.pop()
        if expected is not None and tok != expected:
            raise FormatError(f"expected {expected!r}, got {tok!r}")
        return tok

    def expr() -> WeightedOperator:
        tok = take()
        if not tok[0].isalpha():
            raise FormatError(f"expected an operator, got {tok!r}")
        if not tokens or tokens[-1] != "(":
            return _resolve_preset(tok, algebra, context)
        take()
        if tok not in _FUNCTIONS:
            raise FormatError(f"unknown operator function {tok!r}")
        kinds, build = _FUNCTIONS[tok]
        args = []
        for n, kind in enumerate(kinds):
            if n:
                take(",")
            args.append(expr() if kind == "e" else parse_rational(take()))
        take(")")
        return build(*args)

    op = expr()
    if tokens:
        raise FormatError(f"trailing input in operator expression: {tokens[-1]!r}")
    return op


def load_tensor(path: str):
    from .tensor import tensor2_from_json

    data = load_json(path)
    if not isinstance(data, dict) or "algebra" not in data:
        raise FormatError(f"{path}: tensor file needs an 'algebra' field")
    if not isinstance(data["algebra"], str):
        raise FormatError(f"{path}: field 'algebra' must be a string, got {data['algebra']!r}")
    algebra, _ = parse_algebra(data["algebra"])
    if not isinstance(algebra, FiniteAlgebra):
        raise FormatError(f"{path}: field 'algebra' must name a finite-dimensional "
                          f"algebra, got {data['algebra']!r}")
    return tensor2_from_json(data, algebra), algebra


# ---------------------------------------------------------------------------
# Execution


def _say(line: str | None = None) -> None:
    """Print one line of the listing, or with no line flush what stdout
    holds.  When stdout's reader has gone, stdout is pointed at the null
    device (the recipe of the ``signal`` module's note on SIGPIPE), so the
    run goes on and the interpreter's last flush does not fail."""
    try:
        if line is None:
            sys.stdout.flush()
        else:
            print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_report(report: CheckReport) -> None:
    weight = "-" if report.weight is None else format_rational(report.weight)
    tag = "PASS" if report.passed else "FAIL"
    sampled = (f" | random seed={report.domain['seed']}"
               if report.domain["mode"] == "random" else "")
    _say(f"[{tag}] {report.check} | {report.algebra} | {report.operator} "
         f"| weight={weight} | tuples={report.tuples}{sampled}")
    for note in report.notes:
        _say(f"       note: {note}")
    if report.witness is not None:
        w = report.witness
        inputs = ", ".join(str(x) for x in w.inputs)
        _say(f"       witness: ({inputs})")
        _say(f"         lhs  = {w.lhs}")
        _say(f"         rhs  = {w.rhs}")
        _say(f"         diff = {w.diff}")


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


def _require_weight(args: argparse.Namespace) -> Fraction:
    if args.weight is None:
        raise FormatError(f"command {args.command!r} needs --weight")
    return args.weight


def _domain(args: argparse.Namespace, window) -> DomainSpec:
    """Basis tuples of the window, or seeded random tuples inside it when
    a sampling option is given; a sampling option that is not given, or
    that the command does not take, keeps its default."""
    sampling = {name: value
                for name in ("samples", "coeff_bound", "support_bound", "seed")
                if (value := getattr(args, name, None)) is not None}
    if not sampling:
        return DomainSpec.basis(*window)
    samples = sampling.pop("samples", DEFAULT_SAMPLES)
    return DomainSpec.random(samples, *window, **sampling)


# check command -> identity swept by checks.check
_IDENTITY_COMMANDS = {
    "check-rbr": "rbr",
    "check-modified": "modified-rbr",
    "check-nijenhuis": "nijenhuis",
    "check-lie-modified": "lie-modified",
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    command = args.command
    if command == "suite":
        from .suite import dumps_suite, run_suite

        try:
            result = run_suite(args.preset)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        bad = [e for e in result["entries"] if not e["ok"]]
        for entry in result["entries"]:
            marker = "ok " if entry["ok"] else "BAD"
            _say(f"[{marker}] criterion {entry['criterion']:>2} | "
                 f"expected {entry['expected']:<6} got {entry['status']:<4} | "
                 f"{entry['name']}")
        _say(f"suite {result['suite']}: {len(result['entries'])} entries, "
             f"{len(bad)} unexpected")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dumps_suite(result))
        return 0 if result["ok"] else 1

    if command == "acybe":
        from .tensor import acybe_report

        r, _ = load_tensor(args.tensor)
        return _emit(acybe_report(r, str(r)), args.output)
    if command == "induce":
        from .tensor import induced_operator

        # the sweep covers the whole tensor algebra; reports record the window 0 0
        dom = _domain(args, (0, 0))
        r, algebra = load_tensor(args.tensor)
        lam = args.weight if args.weight is not None else 0
        return _emit(check("rbr", algebra, induced_operator(r), lam, dom), args.output)
    if command == "violate":
        algebra, context = parse_algebra(args.algebra)
        operator = parse_operator(args.operator, algebra, context)
        return _emit(violation_report(algebra, args.identity, operator,
                                      _require_weight(args), max_range=args.max_range),
                     args.output)

    window = args.range or (-4, 4)
    dom = _domain(args, window)
    algebra, context = parse_algebra(args.algebra)
    if isinstance(algebra, FiniteAlgebra):
        if args.range is not None:
            raise InvalidDomainError(
                f"--range is an exponent window; {algebra.describe()} is "
                f"finite-dimensional and its checks sweep the whole basis")
        if getattr(args, "support_bound", None) is not None:
            raise InvalidDomainError(
                f"--support-bound bounds the terms of a Laurent draw; "
                f"{algebra.describe()} is finite-dimensional and its random "
                f"elements fill every coordinate")
    operator = parse_operator(args.operator, algebra, context)
    if command in _IDENTITY_COMMANDS:
        return _emit(check(_IDENTITY_COMMANDS[command], algebra, operator,
                           _require_weight(args), dom),
                     args.output)
    if command == "check-idempotent":
        return _emit(check_idempotent(algebra, operator, dom), args.output)
    if command == "check-image-closure":
        # λ·id − R uses the weight given on the command line
        operator = replace(operator, weight=_require_weight(args))
        return _emit(check_image_closure(algebra, operator, dom), args.output)
    return _run_dendriform(args, algebra, operator, dom)


def _run_dendriform(args: argparse.Namespace, algebra, operator, dom) -> int:
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

    # argparse restricts --construct and --axioms to the choices handled here
    construct = args.construct
    if construct == "weight0":
        ds = build_weight0_pair(operator)
    elif construct == "modified":
        lam = _require_weight(args)
        ds = build_modified_pair(modified_of(replace(operator, weight=lam)), lam)
    elif construct == "tri":
        ds = build_tri_from_rbo(operator, _require_weight(args))
    else:
        ds = build_from_nijenhuis(operator)
    if args.weight not in (None, ds.weight):
        raise FormatError(f"--construct {construct} builds at weight "
                          f"{format_rational(ds.weight)}, not at --weight "
                          f"{format_rational(args.weight)}")

    axioms = args.axioms or ("tri" if ds.has_middle else "ddi")
    if axioms == "ddi":
        reports = check_dialgebra(ds, dom)
    elif axioms == "tri":
        reports = check_trialgebra(ds, dom)
    elif axioms == "star":
        reports = [check_star_associative(ds, dom)]
    else:
        reports = check_rbr_on_compositions(ds, operator, dom)
    return _emit(reports, args.output)


# ---------------------------------------------------------------------------
# Argument parsing


def _rational_arg(text: str):
    """argparse type of ``--weight``: a malformed value, a zero
    denominator included, is a usage error (exit 2)."""
    try:
        return parse_rational(text)
    except RotaBaxterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# option -> add_argument keywords
_OPTIONS = {
    "preset": dict(nargs="?", default="paper-all"),
    "--tensor": dict(required=True, help="tensor JSON file"),
    "--algebra": dict(required=True,
                      help="laurent | polynomial | miller:s,t | "
                           "componentwise:n | matrix:n | file:PATH"),
    "--operator": dict(required=True,
                       help="preset (ms, ms-opp, integration, shift:r, "
                            "miller, id, file:PATH) or expression over "
                            "scale/sum/compose/modified/opposite/"
                            "nijenhuis/normalize"),
    "--weight": dict(type=_rational_arg,
                     help="weight λ used by the check (p/q; induce: default 0)"),
    "--samples": dict(type=int, help=f"random tuples to draw (default {DEFAULT_SAMPLES})"),
    "--seed": dict(type=int, help="sampling seed (default 0)"),
    "--output": dict(help="write a JSON report here"),
    "--range": dict(nargs=2, type=int, metavar=("LO", "HI"),
                    help="exponent window for exhaustive basis mode "
                         "(Laurent-type algebras only; default -4 4)"),
    "--coeff-bound": dict(type=int, help="largest |p| and q of a random coefficient p/q "
                                         "(default 5)"),
    "--support-bound": dict(type=int,
                            help="most terms of a random element (Laurent-type "
                                 "algebras only; default 3)"),
    "--construct": dict(choices=["weight0", "modified", "tri", "nijenhuis"],
                        default="tri"),
    "--axioms": dict(choices=["ddi", "tri", "star", "rbr-compositions"]),
    "--identity": dict(choices=list(IDENTITIES), default="rbr"),
    "--max-range": dict(type=int, default=4),
}

# the domain options and --output of the sweeping checks, in --help order
_CHECK_OPTIONS = "--samples --seed --output --range --coeff-bound --support-bound"

# command -> the options its path reads, in --help order
_COMMANDS = {
    **dict.fromkeys(_IDENTITY_COMMANDS,
                    "--algebra --operator --weight " + _CHECK_OPTIONS),
    "check-idempotent": "--algebra --operator " + _CHECK_OPTIONS,
    "check-image-closure": "--algebra --operator --weight --output --range",
    "dendriform": f"--algebra --operator --weight {_CHECK_OPTIONS} --construct --axioms",
    "violate": "--algebra --operator --weight --output --identity --max-range",
    "acybe": "--tensor --output",
    "induce": "--tensor --weight --samples --seed --output --coeff-bound",
    "suite": "preset --output",
}


# argparse reads an argument that starts with "-" as an option unless it
# matches this pattern of negative numbers (its default accepts -1 and
# -0.5 but not -1/2); widened to rationals, "--weight -1/2" reads like
# "--weight=-1/2".  The pattern is set on argparse's private attribute
# _negative_number_matcher, which is no documented API;
# tests/test_cli.py::test_negative_rational_weight_as_separate_argument
# fails by name if a Python release drops it.
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of ``argv``.  Every subcommand is registered, but when
    ``argv[0]`` names one, only that one gets its options: the others
    cannot be reached by ``argv``, and setting up their options is most
    of the cost of building the parser."""
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="rotabaxter",
        description="Construct Rota-Baxter operators, derive dendriform "
                    "structures, and verify or refute their identities "
                    "exactly.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMANDS.items():
        p = sub.add_parser(command)
        if named in (None, command):
            p._negative_number_matcher = _NEGATIVE_NUMBER
            for option in options.split():
                p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return run(args)
    except (RotaBaxterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """:func:`main` as a program.  Output that argparse leaves in stdout's
    buffer (``--help``) is flushed through :func:`_say`, so a reader that
    has gone does not change the exit code."""
    try:
        sys.exit(main())
    finally:
        _say()


if __name__ == "__main__":
    console_main()
