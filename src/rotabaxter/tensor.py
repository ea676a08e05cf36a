"""Tensor squares and cubes over unital finite-dimensional algebras,
and the associative Yang-Baxter residual

    acybe(r) = r13·r12 − r12·r23 + r23·r13,   r ∈ A⊗A,

whose vanishing characterizes solutions (``acybe_report`` checks it).
Embeddings insert the unit in the omitted slot, so the algebra must be
unital; non-unital algebras are rejected rather than silently extended.

``induced_operator`` realizes the natural two-sided multiplication
candidate x ↦ Σ u_i·x·v_i for r = Σ u_i⊗v_i.  Whether it satisfies the
weight-0 Rota-Baxter relation is checked empirically per tensor, never
assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Algebra, Element, Primitive, format_signed_terms
from .algebras import FiniteAlgebra
from .errors import FormatError, UnsupportedDomainError
from .operators import WeightedOperator
from .rationals import as_rational, format_rational
from .report import CheckReport, Witness


class TensorAlgebra(Algebra):
    """A⊗…⊗A (``rank`` factors) with the factor-wise product; basis keys
    are index tuples, one base index per factor."""

    def __init__(self, base: FiniteAlgebra, rank: int):
        self.base = base
        self.rank = rank

    def validate_key(self, key) -> None:
        if not isinstance(key, tuple) or len(key) != self.rank:
            raise FormatError(f"tensor key {key} must have {self.rank} indices")
        for idx in key:
            self.base.validate_key(idx)

    def basis_product(self, i: tuple, j: tuple):
        out = {(): 1}
        for a, b in zip(i, j):
            factor = self.base.basis_product(a, b)
            if not factor:
                return {}
            out = {key + (k,): c * ck for key, c in out.items()
                   for k, ck in factor.items()}
        return out

    def format_element(self, x: Element) -> str:
        return format_signed_terms(x, lambda key: f"e[{','.join(map(str, key))}]")

    def describe(self) -> str:
        return "⊗".join([self.base.describe()] * self.rank)

    def __eq__(self, other):
        return (isinstance(other, TensorAlgebra) and self.rank == other.rank
                and self.base == other.base)

    def __hash__(self):
        return hash(("tensor", self.rank, self.base))


def tensor2(algebra: FiniteAlgebra, terms) -> Element:
    return TensorAlgebra(algebra, 2).element(terms)


def tensor3(algebra: FiniteAlgebra, terms) -> Element:
    return TensorAlgebra(algebra, 3).element(terms)


def _unit_terms(algebra: FiniteAlgebra) -> dict:
    if not algebra.unital:
        raise UnsupportedDomainError(
            f"{algebra.describe()} has no unit; tensor embeddings need one")
    return {i: c for i, c in enumerate(algebra.constants.unit) if c != 0}


# slot pair -> where (i, j) of r and the unit index u go in A⊗A⊗A
_EMBEDDINGS = {
    "12": lambda i, j, u: (i, j, u),
    "13": lambda i, j, u: (i, u, j),
    "23": lambda i, j, u: (u, i, j),
}


def embed(r: Element, slots: str) -> Element:
    """Insert the unit in the slot omitted by ``slots`` ("12", "13", "23")."""
    base = r.algebra.base
    unit = _unit_terms(base)
    if slots not in _EMBEDDINGS:
        raise FormatError(f"slot pair must be 12, 13 or 23, got {slots!r}")
    place = _EMBEDDINGS[slots]
    return tensor3(base, {place(i, j, u): c * cu for (i, j), c in r.terms.items()
                          for u, cu in unit.items()})


def acybe_residual(r: Element) -> Element:
    """Exact residual; r solves the equation iff the residual is zero."""
    r12 = embed(r, "12")
    r13 = embed(r, "13")
    r23 = embed(r, "23")
    return r13 * r12 - r12 * r23 + r23 * r13


def acybe_report(r, name: str, expected_residual=None) -> CheckReport:
    """Pass iff the Yang-Baxter residual of ``r`` is exactly zero."""
    residual = acybe_residual(r)
    notes = ()
    if expected_residual is not None and residual != expected_residual:
        notes = ("residual differs from the recorded value",)
    witness = None if residual.is_zero else Witness((r,), residual,
                                                    residual.algebra.zero(),
                                                    residual)
    return CheckReport(
        check="acybe", algebra=r.algebra.base.describe(), operator=name,
        weight=None, domain={"mode": "exact-residual"},
        tuples=1, witness=witness, notes=notes)


def induced_operator(r: Element) -> WeightedOperator:
    """x ↦ Σ c_ij · e_i·x·e_j for r = Σ c_ij e_i⊗e_j; declared weight 0."""
    alg = r.algebra.base
    _unit_terms(alg)
    terms = tuple(sorted(r.terms.items()))

    def apply(algebra, x):
        out = algebra.zero()
        for (i, j), coeff in terms:
            out = out + coeff * algebra.multiply(
                algebra.multiply(algebra.basis_element(i), x),
                algebra.basis_element(j))
        return out

    expr = Primitive(f"induced({len(terms)} terms)", apply,
                     params=("induced", terms), kinds=(alg.kind,),
                     dimension=alg.dimension)
    return WeightedOperator(expr, Fraction(0), alg,
                            note="two-sided multiplication induced by a tensor")


# ---------------------------------------------------------------------------
# Tensor file format (JSON):
#   {"algebra": "matrix:2" | "componentwise:n" | "file:...",
#    "terms": [{"i": p, "j": q, "coeff": "p/q"}, ...]}   (0-based indices)


def tensor2_from_json(data, algebra: FiniteAlgebra) -> Element:
    if not isinstance(data, dict):
        raise FormatError("tensor file must be a JSON object")
    raw = data.get("terms")
    if not isinstance(raw, list):
        raise FormatError("field 'terms' must be a list")
    terms: dict = {}
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict) or not {"i", "j", "coeff"} <= set(entry):
            raise FormatError(f"field 'terms'[{k}] needs keys i, j, coeff")
        i, j = entry["i"], entry["j"]
        if type(i) is not int or type(j) is not int:
            raise FormatError(f"field 'terms'[{k}]: indices must be integers")
        key = (i, j)
        terms[key] = terms.get(key, 0) + as_rational(entry["coeff"])
    return tensor2(algebra, terms)


def tensor2_to_json(r: Element, algebra_name: str) -> dict:
    return {
        "algebra": algebra_name,
        "terms": [{"i": i, "j": j, "coeff": format_rational(c)}
                  for (i, j), c in sorted(r.terms.items())],
    }
