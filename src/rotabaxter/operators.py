"""The operator zoo.

Every constructor returns a :class:`WeightedOperator`: an operator
expression together with the weight it claims to satisfy the
Rota-Baxter relation at.  The declared weight is metadata only: the
checkers re-verify it, and the truncation family is constructed exactly
so that most of its members fail.

Every operator is linear, so it is fixed by its images of basis keys:
calling a :class:`WeightedOperator` walks the expression tree once per
basis key and algebra, and extends linearly from the cached images.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from .algebra import (
    Algebra,
    Compose,
    Element,
    Identity,
    OperatorExpr,
    Primitive,
    Scale,
    Sum,
    accumulate,
    apply_operator,
    linear_extension,
)
from .algebras import FiniteAlgebra, laurent, make_componentwise, polynomial
from .errors import (
    CannotNormalizeError,
    FormatError,
    InvalidDimensionError,
    OperatorDomainError,
    ZeroDenominatorError,
)
from .rationals import as_rational, div, format_rational

_LAURENT_KINDS = ("laurent", "polynomial")


@dataclass(frozen=True)
class WeightedOperator:
    """Operator expression plus declared weight and home algebra.

    ``weight`` is what the constructor claims; checkers never trust it.
    ``note`` records how the operator was built.  Calling the operator
    applies the linear extension of ``expr``'s basis images, which are
    cached on the instance, one table per algebra.
    """

    expr: OperatorExpr
    weight: Fraction | None
    algebra: Algebra
    note: str = ""
    _apply: Callable[[Element], Element] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        expr = self.expr  # not self, so the operator and its tables form no cycle
        object.__setattr__(self, "_apply", linear_extension(
            lambda x: apply_operator(x.algebra, expr, x)))

    def __call__(self, x: Element) -> Element:
        return self._apply(x)

    def on_terms(self, algebra: Algebra) -> Callable[[dict], dict]:
        """The operator on term dicts of ``algebra`` (see :func:`linear_extension`)."""
        return self._apply.on_terms(algebra)

    def describe(self) -> str:
        return self.expr.describe()


# ---------------------------------------------------------------------------
# Laurent-side primitives


class Truncation(Primitive):
    """A Laurent-side primitive that keeps the terms z^e with e ≤ ``cut``
    (or, if not ``below``, those with e > ``cut``) and drops the rest.
    The cut is declared here, never parsed from the label, and
    :func:`thresholds` reads it."""

    def __init__(self, label: str, params: tuple, cut: int, below: bool = True):
        def apply(algebra, x):
            return Element._trusted(algebra, {e: c for e, c in x.terms.items()
                                              if (e <= cut) == below})

        super().__init__(label, apply, params=params, kinds=_LAURENT_KINDS)
        self.cut = cut


def thresholds(expr: OperatorExpr) -> frozenset | None:
    """The cuts of an expression built by scale, sum and compose from
    ``id`` and :class:`Truncation` primitives; None for any other.

    Such an operator maps z^e to c·z^e, where the scalar c depends only
    on which cuts t have e ≤ t: each node keeps that form.
    """
    if isinstance(expr, Identity):
        return frozenset()
    if isinstance(expr, Truncation):
        return frozenset((expr.cut,))
    if isinstance(expr, Scale):
        return thresholds(expr.inner)
    if isinstance(expr, (Sum, Compose)):
        parts = (expr.left, expr.right) if isinstance(expr, Sum) else (expr.outer, expr.inner)
        left, right = map(thresholds, parts)
        return None if left is None or right is None else left | right
    return None


def make_rms() -> WeightedOperator:
    """Minimal-subtraction projector: keep the pole part (exponents < 0).

    Idempotent; satisfies the Rota-Baxter relation at weight 1.
    """
    expr = Truncation("ms", ("ms",), cut=-1)
    return WeightedOperator(expr, Fraction(1), laurent(), note="pole-part projector")


def make_rms_opposite() -> WeightedOperator:
    """Complementary projector: keep exponents >= 0 (equals id − ms)."""
    expr = Truncation("ms-opp", ("ms-opp",), cut=-1, below=False)
    return WeightedOperator(expr, Fraction(1), laurent(), note="non-pole projector")


def make_shift_truncation(r: int) -> WeightedOperator:
    """Truncation keeping exponents <= r.

    For r = -1 this is the pole projector and for r = 0 still a
    weight-1 Rota-Baxter operator; for any other r the relation fails
    and the checkers can exhibit a witness.
    """
    expr = Truncation(f"shift:{r}", ("shift", r), cut=r)
    return WeightedOperator(expr, Fraction(1), laurent(),
                            note=f"truncation at exponent {r}")


def make_integration() -> WeightedOperator:
    """Antiderivative with zero constant term: t^n -> t^(n+1)/(n+1).

    A weight-0 Rota-Baxter operator (integration by parts).  Elements
    with negative exponents are rejected: their antiderivative leaves
    the algebra.
    """

    def apply(algebra, x):
        out = {}
        for e, c in x.terms.items():
            if e < 0:
                raise OperatorDomainError(
                    f"integration undefined on exponent {e} < 0")
            out[e + 1] = div(c, e + 1)
        return Element._trusted(algebra, out)

    expr = Primitive("integration", apply, params=("integration",),
                     kinds=_LAURENT_KINDS)
    return WeightedOperator(expr, Fraction(0), polynomial(), note="antiderivative")


def make_identity_operator(algebra: Algebra | None = None) -> WeightedOperator:
    """The identity map; a Rota-Baxter operator of weight 1."""
    return WeightedOperator(Identity(), Fraction(1),
                            algebra if algebra is not None else laurent(),
                            note="identity")


# ---------------------------------------------------------------------------
# Matrix operators on finite-dimensional algebras


def _matvec(rows, x: Element, algebra) -> Element:
    out: dict = {}
    for j, cj in x.terms.items():
        accumulate(out, cj, {i: row[j] for i, row in enumerate(rows) if row[j]})
    return Element._trusted(algebra, out)


def matrix_operator(algebra: FiniteAlgebra, rows, label: str = "matrix",
                    weight=None, note: str = "") -> WeightedOperator:
    """Operator given by a square matrix, column convention:
    R(e_j) = Σ_i M[i][j] e_i."""
    n = algebra.dimension
    rows = tuple(tuple(as_rational(c) for c in row) for row in rows)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InvalidDimensionError(
            f"matrix must be {n}x{n} for {algebra.describe()}")

    def apply(alg, x):
        return _matvec(rows, x, alg)

    expr = Primitive(label, apply, params=("matrix", rows),
                     kinds=(algebra.kind,), dimension=n)
    return WeightedOperator(expr, None if weight is None else as_rational(weight),
                            algebra, note=note or label)


def miller_matrix(s: int, t: int) -> list:
    """Block-diagonal matrix diag(S_s, T_t): S is upper triangular of
    ones (diagonal included), T is strictly lower triangular of -1."""
    n = s + t
    rows = [[0] * n for _ in range(n)]
    for i in range(s):
        for j in range(i, s):
            rows[i][j] = 1
    for i in range(t):
        for j in range(i):
            rows[s + i][s + j] = -1
    return rows


def make_miller(s: int, t: int) -> WeightedOperator:
    """Block operator diag(S_s, T_t) on the componentwise algebra of
    dimension s+t; a Rota-Baxter operator of weight 1."""
    if s < 1 or t < 1:
        raise InvalidDimensionError(f"block sizes must be >= 1, got s={s}, t={t}")
    algebra = make_componentwise(s + t)
    op = matrix_operator(algebra, miller_matrix(s, t), label=f"miller:{s},{t}",
                         weight=Fraction(1), note=f"block operator s={s}, t={t}")
    return op


def operator_matrix(algebra: FiniteAlgebra, op: WeightedOperator) -> list:
    """Matrix of an operator on a finite-dimensional algebra, column j
    holding the coordinates of R(e_j)."""
    n = algebra.dimension
    cols = []
    for j in range(n):
        cols.append(apply_operator(algebra, op.expr, algebra.basis_element(j)).coords())
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Derived operators


def scale_operator(mu, op: WeightedOperator) -> WeightedOperator:
    """μ·R; if R has weight λ then μ·R has weight μ·λ."""
    mu = as_rational(mu)
    weight = None if op.weight is None else mu * op.weight
    return WeightedOperator(Scale(mu, op.expr), weight, op.algebra,
                            note=f"{format_rational(mu)}*({op.note or op.describe()})")


def sum_operator(a: WeightedOperator, b: WeightedOperator) -> WeightedOperator:
    """Pointwise sum; no weight is inferred for the result."""
    return WeightedOperator(Sum(a.expr, b.expr), None, a.algebra,
                            note="operator sum")


def compose_operator(outer: WeightedOperator, inner: WeightedOperator) -> WeightedOperator:
    """Composition (inner first); no weight is inferred for the result."""
    return WeightedOperator(Compose(outer.expr, inner.expr), None, outer.algebra,
                            note="operator composition")


def modified_of(op: WeightedOperator) -> WeightedOperator:
    """B = λ·id − 2R for λ the declared weight of R.

    When R satisfies the Rota-Baxter relation at λ, B satisfies
    B(x)B(y) = B(B(x)y + xB(y)) − λ²xy.
    """
    lam = op.weight if op.weight is not None else Fraction(0)
    expr = Sum(Scale(lam, Identity()), Scale(-2, op.expr))
    return WeightedOperator(expr, lam, op.algebra,
                            note=f"modified of ({op.note or op.describe()})")


def opposite_of(op: WeightedOperator) -> WeightedOperator:
    """λ·id − R, same declared weight; an involution on operators.

    At weight 1 this is the classical opposite 1 − R; the general-λ
    form is the unique affine extension that stays involutive.
    """
    lam = op.weight if op.weight is not None else Fraction(0)
    expr = Sum(Scale(lam, Identity()), Scale(-1, op.expr))
    return WeightedOperator(expr, op.weight, op.algebra,
                            note=f"opposite of ({op.note or op.describe()})")


def nijenhuis_family(op: WeightedOperator, alpha) -> WeightedOperator:
    """N_α = R − α(id − R) = (1+α)·R − α·id.

    For R an idempotent weight-1 Rota-Baxter operator, every N_α
    satisfies the weight-1 Nijenhuis relation; the checker verifies
    this, the constructor does not.
    """
    alpha = as_rational(alpha)
    expr = Sum(Scale(1 + alpha, op.expr),
               Scale(-alpha, Identity()))
    return WeightedOperator(expr, Fraction(1), op.algebra,
                            note=f"nijenhuis alpha={format_rational(alpha)} "
                                 f"of ({op.note or op.describe()})")


def normalize_weight(op: WeightedOperator) -> WeightedOperator:
    """Rescale a weight-λ operator to weight 1 (λ ≠ 0)."""
    if op.weight is None or op.weight == 0:
        raise CannotNormalizeError("cannot normalize an operator of weight 0")
    if op.weight == 1:
        return op
    return replace(scale_operator(div(1, op.weight), op),
                   note=f"normalized ({op.note or op.describe()})")


# ---------------------------------------------------------------------------
# Operator-matrix file format (JSON):
#   {"dim": n, "matrix": [[..], ..]}  row-major, entries "p/q" or int;
#   column j holds the image of e_j.  The file declares no weight: a check
#   takes its weight from its caller.


def operator_matrix_from_json(data, algebra: FiniteAlgebra) -> WeightedOperator:
    if not isinstance(data, dict):
        raise FormatError("operator-matrix file must be a JSON object")
    dim = data.get("dim")
    if type(dim) is not int or dim < 1:
        raise FormatError(f"field 'dim' must be a positive integer, got {dim!r}")
    if dim != algebra.dimension:
        raise InvalidDimensionError(
            f"operator matrix is {dim}x{dim} but algebra has dimension "
            f"{algebra.dimension}")
    rows = data.get("matrix")
    if (not isinstance(rows, list) or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)):
        raise FormatError("field 'matrix' must be a dim x dim array")
    try:
        return matrix_operator(algebra, rows, label="matrix-file",
                               note="operator matrix from file")
    except (FormatError, ZeroDenominatorError) as exc:
        raise type(exc)(f"field 'matrix': {exc}") from exc


def operator_matrix_to_json(algebra: FiniteAlgebra, op: WeightedOperator) -> dict:
    rows = operator_matrix(algebra, op)
    return {
        "dim": algebra.dimension,
        "matrix": [[format_rational(c) for c in row] for row in rows],
    }
