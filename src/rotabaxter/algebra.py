"""Algebra elements, operator expressions, and sweep domains: a basis
window or a random sample, each making its own tuples and report form.

Elements are immutable sparse linear combinations over a fixed basis:
integer exponents for Laurent-type algebras, basis indices 0..n-1 for
finite-dimensional ones.  The representation is canonical (no zero
coefficients are stored, and integral ones are ``int``), so equality is
syntactic and exact.

Operator expressions form a small tree closed under identity, scaling,
sum, and composition.  ``Compose(f, g)`` applies ``g`` first, then ``f``.

A linear map is fixed by its values on basis keys:
:func:`linear_extension` computes those values once per algebra and
extends from them, which is how operators are evaluated.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Callable, Mapping

from .errors import (
    AlgebraMismatchError,
    FormatError,
    InvalidDomainError,
    OperatorDomainError,
)
from .rationals import as_rational, format_rational, normalize, parse_rational


class Element:
    """Immutable sparse element of an algebra.

    ``terms`` maps basis keys to nonzero coefficients.  All arithmetic
    that involves two elements insists they belong to the same algebra.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: Mapping):
        clean = {}
        for key, coeff in terms.items():
            coeff = as_rational(coeff)
            if coeff != 0:
                algebra.validate_key(key)
                clean[key] = coeff
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, algebra, terms: Mapping) -> "Element":
        """Build an arithmetic result whose keys are valid for ``algebra``
        and whose coefficients are already exact; only zeros are dropped and
        integral ``Fraction``s made ``int`` (see :func:`clean_terms`)."""
        self = object.__new__(cls)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", clean_terms(terms))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def support(self) -> tuple:
        return tuple(sorted(self.terms))

    def coords(self) -> tuple:
        """Dense coordinate tuple; finite-dimensional algebras only."""
        n = self.algebra.dimension
        if n is None:
            raise AlgebraMismatchError("coords() needs a finite-dimensional algebra")
        return tuple(self.terms.get(i, 0) for i in range(n))

    def _check_same(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"operands from different algebras: "
                f"{self.algebra.describe()} vs {other.algebra.describe()}"
            )

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element._trusted(self.algebra, accumulate(dict(self.terms), 1, other.terms))

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._trusted(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar) -> "Element":
        c = as_rational(scalar)
        if c == 1:
            return self
        return Element._trusted(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return self.algebra.multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.algebra, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        return self.algebra.format_element(self)

    def __repr__(self) -> str:
        return f"<{self.algebra.describe()}: {self}>"


class Algebra:
    """Associative algebra over the rationals; subclasses fix the basis
    and the product on basis keys, and the bilinear extension lives here."""

    kind: str = "abstract"
    dimension = None
    unital: bool = False
    # e_i·e_j == e_j·e_i for every pair of basis keys; a fact of the product
    # that lets a pair sweep decide (x, y) and (y, x) once (see ``checks``)
    commutative: bool = False
    variable: str = "z"

    def validate_key(self, key) -> None:
        raise NotImplementedError

    def basis_product(self, i, j) -> Mapping:
        """Coefficients of e_i · e_j as a key -> coefficient mapping;
        callers only read it."""
        raise NotImplementedError

    def element(self, terms: Mapping) -> Element:
        return Element(self, terms)

    def zero(self) -> Element:
        return Element(self, {})

    def basis_element(self, key) -> Element:
        return Element(self, {key: 1})

    def unit(self) -> Element:
        raise OperatorDomainError(f"{self.describe()} has no unit")

    def multiply(self, a: Element, b: Element) -> Element:
        if ((a.algebra is not self and a.algebra != self)
                or (b.algebra is not self and b.algebra != self)):
            raise AlgebraMismatchError("operands do not belong to this algebra")
        return Element._trusted(self, self.multiply_terms(a.terms, b.terms))

    def multiply_terms(self, a: Mapping, b: Mapping) -> dict:
        """Product of two term dicts from ``basis_product``; may hold zeros.
        A pair whose basis product is zero costs no coefficient product."""
        basis_product = self.basis_product
        acc: dict = {}
        for i, ci in a.items():
            unit_i = ci is _ONE
            for j, cj in b.items():
                product = basis_product(i, j)
                if product:
                    accumulate(acc, cj if unit_i else ci if cj is _ONE else ci * cj, product)
        return acc

    def basis_keys(self, lo: int, hi: int) -> list:
        """Basis keys swept by a basis window; Laurent kinds use the
        exponent window, finite kinds ignore it."""
        raise NotImplementedError

    def random_element(self, spec: "RandomSample", rng) -> Element:
        raise NotImplementedError

    def format_element(self, x: Element) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"<algebra {self.describe()}>"


def _random_coeff(rng, bound: int):
    num = rng.randint(-bound, bound) if bound > 0 else 0
    den = rng.randint(1, bound) if bound > 0 else 1
    return normalize(num, den)


class DomainSpec:
    """The tuples an identity is checked on: a :class:`BasisWindow` built by
    :meth:`basis` or a :class:`RandomSample` built by :meth:`random`.  Each
    makes its own tuples, ``tuples(algebra, arity)``, and report form,
    ``describe(algebra)``, and refuses a window with no basis key in it."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise InvalidDomainError(f"empty exponent range [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    @staticmethod
    def basis(lo: int, hi: int) -> "BasisWindow":
        return BasisWindow(lo, hi)

    @staticmethod
    def random(samples: int, lo: int = -4, hi: int = 4, coeff_bound: int = 5,
               support_bound: int = 3, seed: int = 0) -> "RandomSample":
        return RandomSample(samples, lo, hi, coeff_bound, support_bound, seed)

    def _keys(self, algebra: Algebra) -> list:
        keys = algebra.basis_keys(self.lo, self.hi)
        if not keys:
            raise InvalidDomainError("empty basis window")
        return keys

    def __eq__(self, other):
        if not isinstance(other, DomainSpec):
            return NotImplemented
        return self.describe() == other.describe()

    def __repr__(self):
        return f"DomainSpec({self.describe()})"


class BasisWindow(DomainSpec):
    """Every basis tuple with keys in [lo, hi], a window that finite-dimensional
    algebras ignore.  Because every identity checked here is multilinear in
    its element slots, passing on all of them is equivalent to passing on
    all elements supported in the window."""

    __slots__ = ()

    def basis(self, algebra: Algebra) -> list:
        """The basis elements of the window, in key order."""
        return [algebra.basis_element(k) for k in self._keys(algebra)]

    def tuples(self, algebra: Algebra, arity: int):
        return itertools.product(self.basis(algebra), repeat=arity)

    def describe(self, algebra: Algebra | None = None) -> dict:
        return {"mode": "basis", "lo": self.lo, "hi": self.hi}


class RandomSample(DomainSpec):
    """``samples`` reproducible random tuples: same seed, same sequence.

    Coefficients are p/q with |p| ≤ ``coeff_bound`` and
    1 ≤ q ≤ ``coeff_bound``; a Laurent-type element has at most
    ``support_bound`` terms in the window, and a finite-dimensional one
    fills every coordinate.  Both bounds must be non-negative, and a
    sweep refuses a bound that makes every draw zero.  By the
    same multilinearity, a sweep evaluates each drawn tuple as its
    denominator-cleared multiple, which has ``int`` coefficients, and its
    witness is the tuple as drawn (see :mod:`rotabaxter.checks`).  Only
    the inputs are cleared: an operator with non-integer matrix entries
    still computes with ``Fraction`` values.
    """

    __slots__ = ("samples", "coeff_bound", "support_bound", "seed")

    def __init__(self, samples, lo, hi, coeff_bound, support_bound, seed):
        super().__init__(lo, hi)
        if samples < 1:
            raise InvalidDomainError(f"random mode needs at least one sample, got {samples}")
        for name, bound in (("coeff_bound", coeff_bound), ("support_bound", support_bound)):
            if bound < 0:
                raise InvalidDomainError(f"random mode needs {name} >= 0, got {bound}")
        self.samples, self.coeff_bound = samples, coeff_bound
        self.support_bound, self.seed = support_bound, seed

    def tuples(self, algebra: Algebra, arity: int) -> "RandomTuples":
        self._keys(algebra)  # a window with no key would draw only zeros
        for name in ("coeff_bound",) + (("support_bound",) if algebra.dimension is None else ()):
            if getattr(self, name) == 0:
                raise InvalidDomainError(f"random mode with {name} 0 draws only zeros")
        rng = random.Random(self.seed)
        return RandomTuples(tuple(algebra.random_element(self, rng) for _ in range(arity))
                            for _ in range(self.samples))

    def describe(self, algebra: Algebra | None = None) -> dict:
        """A finite-dimensional draw reads no lo, hi or support_bound: they are left out."""
        finite = algebra is not None and algebra.dimension is not None
        fields = (("samples", "coeff_bound", "seed") if finite
                  else ("lo", "hi", "samples", "coeff_bound", "support_bound", "seed"))
        return {"mode": "random", **{name: getattr(self, name) for name in fields}}


class RandomTuples:
    """One pass over the tuples of a :class:`RandomSample`, as drawn; a
    :class:`~rotabaxter.checks.SharedPass` sweeps their denominator-cleared multiples."""

    def __init__(self, draws):
        self._draws = draws

    def __iter__(self):
        return self._draws


# ---------------------------------------------------------------------------
# Operator expressions


class OperatorExpr:
    """Formal linear operator; evaluation is delegated to the node types."""

    def apply(self, algebra: Algebra, x: Element) -> Element:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<operator {self.describe()}>"


class Identity(OperatorExpr):
    def apply(self, algebra, x):
        return x

    def describe(self):
        return "id"

    def __eq__(self, other):
        return isinstance(other, Identity)

    def __hash__(self):
        return hash("id")


class Primitive(OperatorExpr):
    """Named primitive with an evaluation function.

    ``kinds`` restricts the algebra kinds the primitive accepts (None
    means any); ``dimension`` additionally pins a finite dimension.
    Equality ignores the function and compares (label, params) so that
    structurally equal expressions compare equal.
    """

    def __init__(self, label: str, fn: Callable[[Algebra, Element], Element],
                 params: tuple = (), kinds: tuple | None = None,
                 dimension: int | None = None):
        self.label = label
        self.fn = fn
        self.params = params
        self.kinds = kinds
        self.dimension = dimension

    def apply(self, algebra, x):
        if self.kinds is not None and algebra.kind not in self.kinds:
            raise OperatorDomainError(
                f"operator {self.label!r} is not defined on {algebra.describe()}")
        if self.dimension is not None and algebra.dimension != self.dimension:
            raise OperatorDomainError(
                f"operator {self.label!r} needs dimension {self.dimension}, "
                f"got {algebra.describe()}")
        return self.fn(algebra, x)

    def describe(self):
        return self.label

    def __eq__(self, other):
        return (isinstance(other, Primitive)
                and self.label == other.label and self.params == other.params)

    def __hash__(self):
        return hash((self.label, self.params))


class Scale(OperatorExpr):
    def __init__(self, coeff, inner: OperatorExpr):
        self.coeff = as_rational(coeff)
        self.inner = inner

    def apply(self, algebra, x):
        return self.inner.apply(algebra, x).scale(self.coeff)

    def describe(self):
        return f"{format_rational(self.coeff)}*{self.inner.describe()}"

    def __eq__(self, other):
        return (isinstance(other, Scale)
                and self.coeff == other.coeff and self.inner == other.inner)

    def __hash__(self):
        return hash(("scale", self.coeff, self.inner))


class Sum(OperatorExpr):
    def __init__(self, left: OperatorExpr, right: OperatorExpr):
        self.left = left
        self.right = right

    def apply(self, algebra, x):
        return self.left.apply(algebra, x) + self.right.apply(algebra, x)

    def describe(self):
        return f"({self.left.describe()} + {self.right.describe()})"

    def __eq__(self, other):
        return (isinstance(other, Sum)
                and self.left == other.left and self.right == other.right)

    def __hash__(self):
        return hash(("sum", self.left, self.right))


class Compose(OperatorExpr):
    """outer ∘ inner: the inner operator is applied first."""

    def __init__(self, outer: OperatorExpr, inner: OperatorExpr):
        self.outer = outer
        self.inner = inner

    def apply(self, algebra, x):
        return self.outer.apply(algebra, self.inner.apply(algebra, x))

    def describe(self):
        return f"({self.outer.describe()} . {self.inner.describe()})"

    def __eq__(self, other):
        return (isinstance(other, Compose)
                and self.outer == other.outer and self.inner == other.inner)

    def __hash__(self):
        return hash(("compose", self.outer, self.inner))


def apply_operator(algebra: Algebra, op: OperatorExpr, x: Element) -> Element:
    if x.algebra != algebra:
        raise AlgebraMismatchError("element does not belong to the given algebra")
    return op.apply(algebra, x)


# ---------------------------------------------------------------------------
# Linear maps extended from their values on basis keys


class _PerAlgebra:
    """One compiled value per algebra, made on first use by ``make``.

    Values are keyed by the algebra's kind and the algebra itself: finite
    algebras compare by structure constants only, while an operator's
    domain also depends on the kind.  The last algebra used is found by
    identity, since hashing an algebra on every call costs more than the
    table lookups themselves.
    """

    __slots__ = ("_make", "_values", "_last")

    def __init__(self, make: Callable[[Algebra], object]):
        self._make = make
        self._values: dict = {}
        self._last = (None, None)

    def __call__(self, algebra: Algebra):
        last_algebra, value = self._last
        if algebra is last_algebra:
            return value
        key = (algebra.kind, algebra)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._make(algebra)
        self._last = (algebra, value)
        return value


def _basis(algebra: Algebra, key) -> Element:
    """e_key for a key taken from an element of ``algebra``; zero for None."""
    return Element._trusted(algebra, {} if key is None else {key: 1})


def linear_extension(fn: Callable[[Element], Element]) -> Callable[[Element], Element]:
    """The linear map x ↦ Σ c_k·fn(e_k) for x = Σ c_k·e_k.

    Each fn(e_k) is computed once per algebra.  The zero element goes to
    ``fn`` itself, so a map undefined on its algebra raises for it too.
    Denominators are not cleared here: a random sweep clears its tuples
    once (``checks.SharedPass``), so its sums run on ``int`` coefficients.

    ``apply.on_terms(algebra)`` is the map on term dicts of ``algebra``,
    whose images hold no zero coefficients; an empty dict goes to ``fn``.
    Its result is read-only: for a basis element, one key with the int 1
    as its coefficient, it is the cached image fn(e_k).terms itself, which
    is already clean, so a caller that needs a dict to write into copies it.
    """

    def compile_on(algebra: Algebra):
        table: dict = {}

        def image_of(k) -> dict:
            image = table.get(k)
            if image is None:
                image = table[k] = fn(_basis(algebra, k)).terms
            return image

        def combine(terms: Mapping) -> dict:
            acc: dict = {}
            for k, c in terms.items():
                accumulate(acc, c, table.get(k) or image_of(k))
            return acc

        def on_terms(terms: Mapping) -> dict:
            if len(terms) == 1:
                [(k, c)] = terms.items()
                if c is _ONE:
                    return image_of(k)
            elif not terms:
                return fn(_basis(algebra, None)).terms
            return clean_terms(combine(terms))

        return on_terms

    images = _PerAlgebra(compile_on)

    def apply(x: Element) -> Element:
        if not x.terms:
            return fn(x)
        algebra = x.algebra
        return Element._trusted(algebra, images(algebra)(x.terms))

    apply.on_terms = images
    return apply


# ---------------------------------------------------------------------------
# Module-level vector-space helpers


def clean_terms(terms: Mapping) -> dict:
    """``terms`` without its zero coefficients, and with integral
    ``Fraction``s made ``int``, so that what is computed from it runs at
    ``int`` speed."""
    return {k: c if type(c) is int or c.denominator != 1 else c.numerator
            for k, c in terms.items() if c}


# The factor the kernels do not multiply by.  They test for it by identity:
# CPython keeps one int 1, so the test is a pointer comparison, while
# ``c == 1`` on a Fraction runs Fraction.__eq__ and a type test first
# (``type(c) is int``) costs more on the many int factors than it saves.
# A value equal to 1 that is another object is merely multiplied, so no
# result depends on this.
_ONE = 1


def accumulate(acc: dict, c, terms: Mapping) -> dict:
    """Add c·terms into ``acc`` and return it, with no arithmetic on an
    identity operand: a factor that is the int 1 is not multiplied, and a
    key new to ``acc`` is stored, not added to 0.  ``acc`` may end up with
    zeros."""
    if c is _ONE:
        for k, v in terms.items():
            acc[k] = acc[k] + v if k in acc else v
    else:
        for k, v in terms.items():
            v = c if v is _ONE else c * v
            acc[k] = acc[k] + v if k in acc else v
    return acc


def add_terms(first: Mapping, *rest: Mapping) -> dict:
    """Σ terms without zeros."""
    acc = dict(first)
    for terms in rest:
        accumulate(acc, 1, terms)
    return clean_terms(acc)


def scale_terms(c, terms: Mapping) -> Mapping:
    """c·terms, with no products for c = ±1, and ``{}`` for c = 0."""
    if not c:
        return {}
    if c == 1:
        return terms
    if c == -1:
        return {k: -v for k, v in terms.items()}
    return {k: c * v for k, v in terms.items()}


def lie_bracket(algebra: Algebra, a: Element, b: Element) -> Element:
    """Commutator a·b − b·a of the algebra product."""
    return algebra.multiply(a, b) - algebra.multiply(b, a)


# ---------------------------------------------------------------------------
# Element literal syntax
#
#   Laurent / polynomial:  "3/2 z^-2 + z^0 - z^3"   (variable z or t)
#   finite-dimensional:    "[1/2, 0, -3]"

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*"
    r"(?:(?P<var>[A-Za-z])(?:\^(?P<exp>-?\d+))?)?"
)


def parse_laurent_literal(algebra: Algebra, text: str) -> Element:
    text = text.strip()
    if not text:
        raise FormatError("empty element literal")
    terms: dict = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise FormatError(f"bad element literal near {text[pos:]!r}")
        sign, coeff, var, exp = m.group("sign", "coeff", "var", "exp")
        if coeff is None and var is None:
            raise FormatError(f"bad element literal near {text[pos:]!r}")
        if not first and sign is None:
            raise FormatError(f"missing sign before {text[pos:]!r}")
        value = parse_rational(coeff) if coeff is not None else 1
        if sign == "-":
            value = -value
        if var is not None:
            if var != algebra.variable:
                raise FormatError(
                    f"variable {var!r} does not match {algebra.variable!r}")
            exponent = int(exp) if exp is not None else 1
        else:
            exponent = 0
        terms[exponent] = terms.get(exponent, 0) + value
        pos = m.end()
        first = False
    return algebra.element(terms)


def format_signed_terms(x: Element, monomial: Callable[[object], str]) -> str:
    """``x`` as a signed sum in sorted key order, such as "-z^-1 + 3/2 z";
    ``monomial(key)`` names a basis element, with "" for the unit, whose
    coefficient is always written."""
    if x.is_zero:
        return "0"
    chunks = []
    for key in sorted(x.terms):
        coeff = x.terms[key]
        mag = abs(coeff)
        mono = monomial(key)
        if not mono:
            body = format_rational(mag)
        else:
            body = mono if mag == 1 else f"{format_rational(mag)} {mono}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def format_laurent_literal(algebra: Algebra, x: Element) -> str:
    var = algebra.variable
    return format_signed_terms(
        x, lambda e: "" if e == 0 else var if e == 1 else f"{var}^{e}")


def parse_vector_literal(algebra: Algebra, text: str) -> Element:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(f"vector literal must be bracketed: {text!r}")
    inner = text[1:-1].strip()
    parts = [p.strip() for p in inner.split(",")] if inner else []
    if len(parts) != algebra.dimension:
        raise FormatError(
            f"vector literal has {len(parts)} coordinates, "
            f"algebra dimension is {algebra.dimension}")
    return algebra.element({i: parse_rational(p) for i, p in enumerate(parts)})


def format_vector_literal(algebra: Algebra, x: Element) -> str:
    return "[" + ", ".join(format_rational(c) for c in x.coords()) + "]"
