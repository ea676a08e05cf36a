"""Splitting an associative product into dendriform pieces.

Each constructor takes an operator and returns a bundle of bilinear
products: a left product ``prec`` (≺), a right product ``succ`` (≻),
and for three-product structures a middle product ``middle`` (∘).
The constructors never reject a non-conforming operator; refutation is
a first-class use case, so a structure built from a bad operator simply
fails the axiom checks with a witness.

Constructions and the weights they expect (checkers verify, builders
don't):

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

Every product is bilinear, so it is fixed by its values on basis pairs:
the constructors wrap each product in :func:`bilinear_extension`, whose
tables are computed once and shared by every axiom checked on the
structure, ``star`` included.  The axiom checks extend a product given
as a plain function of elements from its basis values the same way.

The axioms of a structure are decided in one pass over the domain: the
products of a pair of elements are computed on term dicts through the
products' term-level entry, once per pass for a pair of basis elements,
and every axiom still open at (a, b, c) is evaluated from those of
(a, b) and (b, c) (see :class:`checks.SharedPass`).  Each axiom still
gets the report of a sweep of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import Algebra, DomainSpec, Element, add_terms, bilinear_extension, clean_terms
from .checks import (
    SharedPass,
    check_idempotent,
    check_rbr,
    domain_basis,
    domain_tuples,
    sweep_identity,
)
from .errors import UnsupportedDomainError
from .operators import WeightedOperator
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
    source: WeightedOperator | None = None

    @property
    def has_middle(self) -> bool:
        return self.middle is not None

    def star(self, a: Element, b: Element) -> Element:
        """≺ + ≻ (+ ∘): the recombined associative candidate."""
        total = self.prec(a, b) + self.succ(a, b)
        if self.middle is not None:
            total = total + self.middle(a, b)
        return total


def build_weight0_pair(R: WeightedOperator) -> DendriformStructure:
    """Two-product splitting for a weight-0 operator."""
    return DendriformStructure(
        algebra=R.algebra,
        prec=bilinear_extension(lambda a, b: a * R(b)),
        succ=bilinear_extension(lambda a, b: R(a) * b),
        middle=None,
        provenance=f"weight0({R.describe()})",
        weight=Fraction(0),
        source=R,
    )


def build_modified_pair(B: WeightedOperator, lam) -> DendriformStructure:
    """Two-product splitting through a modified operator B = λ·id − 2R.

    At λ = 1 the products agree with −2a·R(b) and 2·(id−R)(a)·b.
    """
    lam = as_rational(lam)
    return DendriformStructure(
        algebra=B.algebra,
        prec=bilinear_extension(lambda a, b: a * B(b) - lam * (a * b)),
        succ=bilinear_extension(lambda a, b: B(a) * b + lam * (a * b)),
        middle=None,
        provenance=f"modified(weight {format_rational(lam)}; {B.describe()})",
        weight=lam,
        source=B,
    )


def build_tri_from_rbo(R: WeightedOperator, lam) -> DendriformStructure:
    """Three-product splitting for a weight-λ operator, λ ≠ 0."""
    lam = as_rational(lam)
    return DendriformStructure(
        algebra=R.algebra,
        prec=bilinear_extension(lambda a, b: a * R(b)),
        succ=bilinear_extension(lambda a, b: R(a) * b),
        middle=bilinear_extension(lambda a, b: (-lam) * (a * b)),
        provenance=f"tri(weight {format_rational(lam)}; {R.describe()})",
        weight=lam,
        source=R,
    )


def build_from_nijenhuis(N: WeightedOperator) -> DendriformStructure:
    """Three-product splitting for a weight-1 Nijenhuis operator."""
    return DendriformStructure(
        algebra=N.algebra,
        prec=bilinear_extension(lambda a, b: a * N(b)),
        succ=bilinear_extension(lambda a, b: N(a) * b),
        middle=bilinear_extension(lambda a, b: -N(a * b)),
        provenance=f"nijenhuis({N.describe()})",
        weight=Fraction(1),
        source=N,
    )


# ---------------------------------------------------------------------------
# Axiom checks
#
# Each axiom maps (a, c, ab, bc) to its two sides on term dicts: ab and bc
# hold the products of (a, b) and of (b, c) in the order ≺, ≻ (, ∘), then
# their sum; each product is mul(x, y, acc=None) (see bilinear_extension).
# A side may hold zero coefficients; the pass drops them before it compares
# differing sides.


def _dialgebra_axioms(lt, gt):
    return {
        "ddi.1": lambda a, c, ab, bc: (lt(ab[0], c), lt(a, bc[1], lt(a, bc[0]))),
        "ddi.2": lambda a, c, ab, bc: (gt(a, bc[0]), lt(ab[1], c)),
        "ddi.3": lambda a, c, ab, bc: (gt(a, bc[1]), gt(ab[1], c, gt(ab[0], c))),
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
    def axioms(*products):
        def star(x, y):
            acc: dict = {}
            for mul in products:
                mul(x, y, acc)
            return acc

        return {axiom_id: lambda a, c, ab, bc: (star(ab[-1], c), star(a, bc[-1]))}

    return axioms


def _axiom_reports(ds: DendriformStructure, dom: DomainSpec, make_axioms,
                   products) -> list:
    """One report per axiom, all decided in one shared pass.

    In basis mode the pass walks the positions (p, q, r) of the tuples in
    the basis B, and the products of a pair of basis elements are computed
    once, into a |B|² table filled on first use and indexed by the pair's
    positions, so no lookup hashes or compares elements.  Random tuples
    seldom share a pair, so their products are computed per tuple."""
    algebra = ds.algebra
    muls = [(p if hasattr(p, "on_terms") else bilinear_extension(p)).on_terms(algebra)
            for p in products]
    axioms = make_axioms(*muls)

    def pair_products(x: dict, y: dict) -> list:
        found = [clean_terms(mul(x, y)) for mul in muls]
        found.append(add_terms(*found))
        return found

    if dom.mode == "basis":
        basis = domain_basis(algebra, dom)
        terms = [e.terms for e in basis]
        n = len(basis)
        table = [[None] * n for _ in range(n)]

        def pair(p: int, q: int) -> list:
            found = table[p][q]
            if found is None:
                found = table[p][q] = pair_products(terms[p], terms[q])
            return found

        def prepare(positions):
            p, q, r = positions
            return ((basis[p], basis[q], basis[r]),
                    (terms[p], terms[r], pair(p, q), pair(q, r)))

        tuples = itertools.product(range(n), repeat=3)
    else:
        def prepare(tup):
            a, b, c = tup
            return tup, (a.terms, c.terms, pair_products(a.terms, b.terms),
                         pair_products(b.terms, c.terms))

        tuples = domain_tuples(algebra, dom, 3)
    shared = SharedPass(tuples, axioms, prepare)
    return [sweep_identity(axiom_id, algebra, ds.provenance, ds.weight, dom, 3, shared)
            for axiom_id in axioms]


def check_dialgebra(ds: DendriformStructure, dom: DomainSpec) -> list:
    """The three two-product axioms; their sum makes ≺+≻ associative:

        (a≺b)≺c = a≺(b≺c) + a≺(b≻c)
        a≻(b≺c) = (a≻b)≺c
        a≻(b≻c) = (a≺b)≻c + (a≻b)≻c
    """
    return _axiom_reports(ds, dom, _dialgebra_axioms, (ds.prec, ds.succ))


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
    return _axiom_reports(ds, dom, _trialgebra_axioms, (ds.prec, ds.succ, ds.middle))


def check_star_associative(ds: DendriformStructure, dom: DomainSpec) -> CheckReport:
    """(a*b)*c = a*(b*c) for the recombined product."""
    axiom_id = "nij.star.assoc" if ds.provenance.startswith("nijenhuis") \
        else "star.assoc"
    products = [p for p in (ds.prec, ds.succ, ds.middle) if p is not None]
    [report] = _axiom_reports(ds, dom, _star_axiom(axiom_id), products)
    return report


def check_rbr_on_compositions(ds: DendriformStructure, R: WeightedOperator,
                              dom: DomainSpec) -> list:
    """For an idempotent weight-1 operator, the weight-1 Rota-Baxter
    relation holds with the product replaced by ≺ and by ≻:

        R(x) ≺ R(y) + R(x ≺ y) = R(R(x) ≺ y + x ≺ R(y))

    and likewise for ≻.  When the precondition fails (operator not
    idempotent, or not weight 1 on this domain), the verdicts are still
    computed and the reports are flagged.
    """
    notes = []
    if not check_idempotent(ds.algebra, R, dom).passed:
        notes.append("precondition-unmet: operator is not idempotent on this domain")
    if not check_rbr(ds.algebra, R, Fraction(1), dom).passed:
        notes.append("precondition-unmet: operator is not weight 1 on this domain")

    def composition_sides(product):
        def sides(x, y):
            rx, ry = R(x), R(y)
            return (product(rx, ry) + R(product(x, y)),
                    R(product(rx, y) + product(x, ry)))

        return sides

    reports = []
    for axiom_id, product in (("rbr.on.prec", ds.prec), ("rbr.on.succ", ds.succ)):
        reports.append(sweep_identity(axiom_id, ds.algebra, ds.provenance,
                                      Fraction(1), dom, 2,
                                      composition_sides(product),
                                      notes=tuple(notes)))
    return reports
