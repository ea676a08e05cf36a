"""Splitting an associative product into dendriform pieces.

Each constructor takes an operator and returns a bundle of bilinear
products: a left product ``prec`` (≺), a right product ``succ`` (≻),
and for three-product structures a middle product ``middle`` (∘).
The constructors never reject a non-conforming operator; refutation is
a first-class use case, so a structure built from a bad operator simply
fails the axiom checks with a witness.

Constructions and the weights they expect (checkers verify, builders
don't).  All four return one splitting, a≺b = a·L(b), a≻b = R(a)·b and
a∘b = M(ab), for three operators L, R and M, with no ∘ when M is None.
The three built from an operator take it as L and R; the modified pair
takes L = B − λ·id and R = B + λ·id, the trialgebra M = −λ·id, and the
Nijenhuis structure M = −N.

* ``build_weight0_pair(R)``        a≺b = a·R(b), a≻b = R(a)·b
* ``build_modified_pair(B, λ)``    a≺b = a·B(b) − λab, a≻b = B(a)·b + λab
* ``build_tri_from_rbo(R, λ)``     a≺b = a·R(b), a≻b = R(a)·b, a∘b = −λ·ab
* ``build_from_nijenhuis(N)``      a≺b = a·N(b), a≻b = N(a)·b, a∘b = −N(ab)

The middle product −λ·ab is the unique scalar multiple of the algebra
product for which the weight-λ Rota-Baxter relation turns the seven
trialgebra axioms into consequences; at λ = −1 it is the product
itself.  For the Nijenhuis structure the middle product −N(ab) is
chosen so that ≺+≻+∘ equals the associative product
a·N(b) + N(a)·b − N(ab); only axioms 1–4 of the seven are forced by
the Nijenhuis relation, so the checker reports the rest per case.

Each product is written once, in the algebra product and L, R and M,
and built from that one definition twice: on elements, with ``*`` and
the operators, and as its ``on_terms(algebra)``, on term dicts, with
``multiply_terms`` and the operators' ``on_terms``.  The operators keep
their images of basis keys, so no product keeps a table of its own.  The
axiom checks call a product given as a plain function of elements on the
pass's operands themselves.

The axioms of a structure are decided in one pass over the domain: the
products of a pair of elements are computed on term dicts through the
products' term-level entry, and every axiom still open at (a, b, c) is
evaluated from those of (a, b) and (b, c) (see :class:`checks.SharedPass`),
each side as one product of two operands.  In basis mode the values of
the pass are numbered by their terms, and each product is computed once
per distinct pair of numbers; the numbering follows the order in which
values are first met and hashes only ``int`` and ``Fraction`` terms, never
an ``Element``, so the work does not depend on ``PYTHONHASHSEED``.  Each
axiom still gets the report of a sweep of its own.

Each product carries the cuts of L, R and M (:func:`operators.thresholds`),
or None when one of them is outside the truncation class, and a basis
pass whose products all carry cuts is keyed on them (see :mod:`checks`).
A plain function of elements, such as a ∘ swapped in with
``dataclasses.replace``, carries no cuts, and the passes that use it
evaluate every triple.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import checks
from .algebra import (
    Algebra,
    BasisWindow,
    DomainSpec,
    Element,
    add_terms,
    clean_terms,
)
from .checks import SharedPass, check_idempotent, check_rbr, rbr_sides, sweep_identity
from .errors import UnsupportedDomainError
from .operators import (
    WeightedOperator,
    make_identity_operator,
    scale_operator,
    sum_operator,
    thresholds,
)
from .rationals import as_rational, format_rational
from .report import CheckReport


@dataclass(frozen=True)
class DendriformStructure:
    """Derived bilinear products with provenance."""

    algebra: Algebra
    prec: Callable[[Element, Element], Element]
    succ: Callable[[Element, Element], Element]
    middle: Optional[Callable[[Element, Element], Element]]
    provenance: str
    weight: Fraction | None = None

    @property
    def has_middle(self) -> bool:
        return self.middle is not None

    def star(self, a: Element, b: Element) -> Element:
        """≺ + ≻ (+ ∘): the recombined associative candidate."""
        total = self.prec(a, b) + self.succ(a, b)
        if self.middle is not None:
            total = total + self.middle(a, b)
        return total


def _products(mul, L, R, M) -> list:
    """a≺b = a·L(b), a≻b = R(a)·b and a∘b = M(ab) in the product ``mul``
    and the maps L, R and M, with no ∘ when M is None."""
    products = [lambda a, b: mul(a, L(b)), lambda a, b: mul(R(a), b)]
    if M is not None:
        products.append(lambda a, b: M(mul(a, b)))
    return products


def _splitting(L: WeightedOperator, R: WeightedOperator, M: Optional[WeightedOperator],
               provenance: str, weight) -> DendriformStructure:
    """The splitting of :func:`_products` by the operators L, R and M.

    Each product is built from that one definition twice: on elements,
    with ``*`` and the operators, and as its ``on_terms(algebra)``, with
    ``multiply_terms`` and the operators' ``on_terms``, the input of M
    cleaned first.  Each carries ``cuts``, the union of the cuts of L, R
    and M (see :func:`operators.thresholds`), or None when one is not
    known."""
    cuts = _union([thresholds(op.expr) for op in (L, R, M) if op is not None])

    def on_terms(algebra: Algebra) -> list:
        M_terms = None if M is None else M.on_terms(algebra)
        return _products(algebra.multiply_terms, L.on_terms(algebra), R.on_terms(algebra),
                         None if M is None else lambda terms: M_terms(clean_terms(terms)))

    products = _products(operator.mul, L, R, M)
    for i, product in enumerate(products):
        product.on_terms = lambda algebra, i=i: on_terms(algebra)[i]
        product.cuts = cuts
    prec, succ, *middle = products
    return DendriformStructure(algebra=L.algebra, prec=prec, succ=succ,
                               middle=middle[0] if middle else None, provenance=provenance,
                               weight=weight)


def build_weight0_pair(R: WeightedOperator) -> DendriformStructure:
    """Two-product splitting for a weight-0 operator."""
    return _splitting(R, R, None, f"weight0({R.describe()})", Fraction(0))


def build_modified_pair(B: WeightedOperator, lam) -> DendriformStructure:
    """Two-product splitting through a modified operator B = λ·id − 2R.

    At λ = 1 the products agree with −2a·R(b) and 2·(id−R)(a)·b.
    """
    lam = as_rational(lam)
    identity = make_identity_operator(B.algebra)
    return _splitting(sum_operator(B, scale_operator(-lam, identity)),
                      sum_operator(B, scale_operator(lam, identity)), None,
                      f"modified(weight {format_rational(lam)}; {B.describe()})", lam)


def build_tri_from_rbo(R: WeightedOperator, lam) -> DendriformStructure:
    """Three-product splitting for a weight-λ operator, λ ≠ 0."""
    lam = as_rational(lam)
    return _splitting(R, R, scale_operator(-lam, make_identity_operator(R.algebra)),
                      f"tri(weight {format_rational(lam)}; {R.describe()})", lam)


def build_from_nijenhuis(N: WeightedOperator) -> DendriformStructure:
    """Three-product splitting for a weight-1 Nijenhuis operator."""
    return _splitting(N, N, scale_operator(-1, N), f"nijenhuis({N.describe()})", Fraction(1))


# ---------------------------------------------------------------------------
# Axiom checks
#
# Each axiom maps (a, c, ab, bc) to its two sides, each one product of two
# operands: ab and bc hold the products of (a, b) and of (b, c) in the order
# ≺, ≻ (, ∘), then their sum.  An operand is a term dict, or in basis mode its
# value number, and a product mul(x, y) returns a term dict (see _products).
# A side may hold zero coefficients; the pass drops them before it compares
# differing sides.


def _dialgebra_axioms(lt, gt):
    return {
        "ddi.1": lambda a, c, ab, bc: (lt(ab[0], c), lt(a, bc[-1])),
        "ddi.2": lambda a, c, ab, bc: (gt(a, bc[0]), lt(ab[1], c)),
        "ddi.3": lambda a, c, ab, bc: (gt(a, bc[1]), gt(ab[-1], c)),
    }


def _trialgebra_axioms(lt, gt, mid):
    return {
        "tri.1": lambda a, c, ab, bc: (lt(ab[0], c), lt(a, bc[3])),
        "tri.2": lambda a, c, ab, bc: (lt(ab[1], c), gt(a, bc[0])),
        "tri.3": lambda a, c, ab, bc: (gt(a, bc[1]), gt(ab[3], c)),
        "tri.4": lambda a, c, ab, bc: (mid(ab[0], c), mid(a, bc[1])),
        "tri.5": lambda a, c, ab, bc: (mid(ab[1], c), gt(a, bc[2])),
        "tri.6": lambda a, c, ab, bc: (lt(ab[2], c), mid(a, bc[0])),
        "tri.7": lambda a, c, ab, bc: (mid(ab[2], c), mid(a, bc[2])),
    }


def _star_axiom(axiom_id: str):
    return lambda star: {axiom_id: lambda a, c, ab, bc: (star(ab[-1], c), star(a, bc[-1]))}


def _through_elements(product, algebra: Algebra):
    """``product``, a function of elements of ``algebra``, on term dicts."""
    return lambda x, y: product(Element._trusted(algebra, x), Element._trusted(algebra, y)).terms


def _on_terms(ds: DendriformStructure, products) -> tuple:
    """The term-level entries of ``products`` on the structure's algebra,
    and the union of the cuts the products carry: None when one carries
    none, as a product given as a plain function does, which is called on
    the pass's operands themselves."""
    algebra = ds.algebra
    muls = [p.on_terms(algebra) if hasattr(p, "on_terms") else _through_elements(p, algebra)
            for p in products]
    return muls, _union([getattr(p, "cuts", None) for p in products])


def _union(cut_sets: list) -> frozenset | None:
    """The union of ``cut_sets``, or None when one of them is not known."""
    return None if None in cut_sets else frozenset().union(*cut_sets)


def _pair_products(muls, x, y) -> list:
    found = [clean_terms(mul(x, y)) for mul in muls]
    found.append(add_terms(*found))
    return found


def _axiom_reports(ds: DendriformStructure, dom: DomainSpec, make_axioms, muls, cuts) -> list:
    """One report per axiom of ``make_axioms(*muls)``, all decided in one
    shared pass.

    With ``cuts`` known, a ≺, ≻ or ∘ of monomials of exponents p and q is
    z^(p+q) times a scalar fixed by the sides of p, q and p+q, and the
    operands of the axioms are a, c, a+b and b+c.  So in basis mode the
    pass is keyed on the sign pattern of a, b, c, a+b, b+c and a+b+c
    (:func:`checks._basis_key`): at most 24 triples for ``ms``.

    In basis mode every operand of the pass gets a value number, keyed by
    its clean terms: the basis elements of the window, and the products of
    each pair of them with their sum, which a |B|² table indexed by the
    pair's positions keeps as numbers, filled on first use.  Each product
    keeps its value on a pair of numbers, so an axiom side is computed once
    per distinct pair of operands and is a lookup after that; on a graded
    algebra, z^p·z^q depends only on p + q.  The numbers are given in the
    order the values are first met, and a lookup hashes ``int`` and
    ``Fraction`` terms, whose hashes are not salted, never an ``Element``;
    so the work, and the traced counts, do not depend on
    ``PYTHONHASHSEED``.  Random tuples seldom share an operand, so their
    products are computed per tuple."""
    algebra = ds.algebra
    if isinstance(dom, BasisWindow):
        basis = dom.basis(algebra)
        numbers: dict = {}  # frozenset of a value's clean terms -> its number
        values: list = []  # number -> clean terms

        def number(terms: dict) -> int:
            key = frozenset(terms.items())
            found = numbers.get(key)
            if found is None:
                found = numbers[key] = len(values)
                values.append(terms)
            return found

        def on_numbers(mul):
            memo: dict = {}

            def product(i: int, j: int) -> dict:
                found = memo.get((i, j))
                if found is None:
                    found = memo[i, j] = mul(values[i], values[j])
                return found

            return product

        muls = [on_numbers(mul) for mul in muls]
        operands = [number(e.terms) for e in basis]
        n = len(basis)
        table = [[None] * n for _ in range(n)]

        def pair(p: int, q: int) -> list:
            found = table[p][q]
            if found is None:
                found = table[p][q] = [number(terms) for terms in _pair_products(
                    muls, operands[p], operands[q])]
            return found

        def prepare(positions):
            p, q, r = positions
            return ((basis[p], basis[q], basis[r]),
                    (operands[p], operands[r], pair(p, q), pair(q, r)))

        tuples = itertools.product(range(n), repeat=3)
        pattern = checks._basis_key(algebra, cuts, 3, dom.lo, dom.hi, False)
        key = None
        if pattern is not None:
            exponents = [e for x in basis for e in x.terms]

            def key(positions):
                p, q, r = positions
                return pattern(exponents[p], exponents[q], exponents[r])
    else:
        def prepare(terms):
            a, b, c = terms
            return terms, (a, c, _pair_products(muls, a, b), _pair_products(muls, b, c))

        tuples, key = dom.tuples(algebra, 3), None
    axioms = make_axioms(*muls)
    shared = SharedPass(tuples, axioms, prepare, key)
    return [sweep_identity(axiom_id, algebra, ds.provenance, ds.weight, dom, shared)
            for axiom_id in axioms]


def check_dialgebra(ds: DendriformStructure, dom: DomainSpec) -> list:
    """The three two-product axioms; their sum makes ≺+≻ associative:

        (a≺b)≺c = a≺(b≺c) + a≺(b≻c)
        a≻(b≺c) = (a≻b)≺c
        a≻(b≻c) = (a≺b)≻c + (a≻b)≻c
    """
    return _axiom_reports(ds, dom, _dialgebra_axioms, *_on_terms(ds, (ds.prec, ds.succ)))


def check_trialgebra(ds: DendriformStructure, dom: DomainSpec) -> list:
    """The seven three-product axioms, with a*b = a≺b + a≻b + a∘b:

        (a≺b)≺c = a≺(b*c)     (a≻b)≺c = a≻(b≺c)     a≻(b≻c) = (a*b)≻c
        (a≺b)∘c = a∘(b≻c)     (a≻b)∘c = a≻(b∘c)     (a∘b)≺c = a∘(b≺c)
        (a∘b)∘c = a∘(b∘c)
    """
    if ds.middle is None:
        raise UnsupportedDomainError(
            f"{ds.provenance} has no middle product ∘; the trialgebra axioms "
            f"need ≺, ≻ and ∘, the dialgebra axioms only ≺ and ≻")
    return _axiom_reports(ds, dom, _trialgebra_axioms,
                          *_on_terms(ds, (ds.prec, ds.succ, ds.middle)))


def check_star_associative(ds: DendriformStructure, dom: DomainSpec) -> CheckReport:
    """(a*b)*c = a*(b*c) for the recombined product."""
    axiom_id = "nij.star.assoc" if ds.provenance.startswith("nijenhuis") \
        else "star.assoc"
    muls, cuts = _on_terms(ds, [p for p in (ds.prec, ds.succ, ds.middle) if p is not None])

    def star(x: dict, y: dict) -> dict:
        return add_terms(*[mul(x, y) for mul in muls])

    [report] = _axiom_reports(ds, dom, _star_axiom(axiom_id), [star], cuts)
    return report


def check_rbr_on_compositions(ds: DendriformStructure, R: WeightedOperator,
                              dom: DomainSpec) -> list:
    """For an idempotent weight-1 operator, the weight-1 Rota-Baxter
    relation holds with the product replaced by ≺ and by ≻:

        R(x) ≺ R(y) + R(x ≺ y) = R(R(x) ≺ y + x ≺ R(y))

    and likewise for ≻: :func:`checks.rbr_sides` at weight 1 with ≺ or ≻
    as the product, both decided in one pass, keyed on the cuts of ≺, ≻
    and R but not on transposition (see :mod:`checks`).  When the
    precondition fails (operator not idempotent, or not weight 1 on this
    domain), the verdicts are still computed and the reports are flagged.
    """
    algebra = ds.algebra
    notes = []
    if not check_idempotent(algebra, R, dom).passed:
        notes.append("precondition-unmet: operator is not idempotent on this domain")
    if not check_rbr(algebra, R, Fraction(1), dom).passed:
        notes.append("precondition-unmet: operator is not weight 1 on this domain")

    R_terms = R.on_terms(algebra)
    key = None
    if isinstance(dom, BasisWindow):
        cuts = _union([getattr(ds.prec, "cuts", None), getattr(ds.succ, "cuts", None),
                       thresholds(R.expr)])
        key = checks._pair_key(algebra, cuts, dom.lo, dom.hi, False)
    shared = SharedPass(dom.tuples(algebra, 2), {
        # on elements, so that a wrapper of a product sees the calls (ROADMAP item 1)
        "rbr.on.prec": rbr_sides(_through_elements(ds.prec, algebra), R_terms, 1),
        "rbr.on.succ": rbr_sides(_through_elements(ds.succ, algebra), R_terms, 1),
    }, key=key)
    return [sweep_identity(axiom_id, algebra, ds.provenance, Fraction(1), dom, shared,
                           notes=tuple(notes))
            for axiom_id in ("rbr.on.prec", "rbr.on.succ")]
