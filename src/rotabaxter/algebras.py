"""Concrete algebras: Laurent polynomials, ordinary polynomials, the
componentwise vector algebra, full matrix algebras, and arbitrary
finite-dimensional algebras given by structure constants."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .algebra import (
    Algebra,
    Element,
    RandomSample,
    _ONE,
    _random_coeff,
    clean_terms,
    format_laurent_literal,
    format_vector_literal,
    parse_laurent_literal,
    parse_vector_literal,
)
from .errors import FormatError, InvalidDimensionError, ZeroDenominatorError
from .rationals import as_rational, format_rational
from .report import CheckReport, Witness


class LaurentAlgebra(Algebra):
    """Laurent polynomials in one variable with rational coefficients.

    Finite support only: every operator in this package keeps Laurent
    polynomials inside Laurent polynomials, so nothing is lost against
    full Laurent series with finite pole part.
    """

    kind = "laurent"
    dimension = None
    unital = True
    commutative = True
    variable = "z"

    def validate_key(self, key) -> None:
        if type(key) is not int:
            raise FormatError(f"Laurent exponent must be an integer, got {key!r}")

    def basis_product(self, i: int, j: int):
        return {i + j: 1}

    def multiply_terms(self, a, b) -> dict:
        """z^i · z^j = z^(i+j), added without ``basis_product`` calls and
        with no arithmetic on an identity operand (see ``algebra.accumulate``)."""
        acc: dict = {}
        for i, ci in a.items():
            if ci is _ONE:
                for j, cj in b.items():
                    k = i + j
                    acc[k] = acc[k] + cj if k in acc else cj
            else:
                for j, cj in b.items():
                    k, v = i + j, ci if cj is _ONE else ci * cj
                    acc[k] = acc[k] + v if k in acc else v
        return acc

    def monomial(self, exponent: int, coeff=1) -> Element:
        return self.element({exponent: as_rational(coeff)})

    def unit(self) -> Element:
        return self.monomial(0)

    def basis_keys(self, lo: int, hi: int) -> list:
        return list(range(lo, hi + 1))

    def random_element(self, spec: RandomSample, rng) -> Element:
        exponents = self.basis_keys(spec.lo, spec.hi)
        size = rng.randint(0, min(spec.support_bound, len(exponents)))
        chosen = rng.sample(exponents, size)
        return self.element({e: _random_coeff(rng, spec.coeff_bound) for e in chosen})

    def format_element(self, x: Element) -> str:
        return format_laurent_literal(self, x)

    def parse_element(self, text: str) -> Element:
        return parse_laurent_literal(self, text)

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(self.kind)


class PolynomialAlgebra(LaurentAlgebra):
    """The non-negative-exponent subalgebra of the Laurent polynomials."""

    kind = "polynomial"
    variable = "t"

    def validate_key(self, key) -> None:
        super().validate_key(key)
        if key < 0:
            raise FormatError(
                f"exponent {key} is negative; not a polynomial element")

    def basis_keys(self, lo: int, hi: int) -> list:
        return list(range(max(lo, 0), hi + 1))


_LAURENT = LaurentAlgebra()
_POLYNOMIAL = PolynomialAlgebra()


def laurent() -> LaurentAlgebra:
    return _LAURENT


def polynomial() -> PolynomialAlgebra:
    return _POLYNOMIAL


@dataclass(frozen=True)
class StructureConstants:
    """Dense product table: e_i · e_j = Σ_k table[i][j][k] e_k.

    The table is not trusted to be associative; run
    :func:`verify_associativity` before doing identity checks on it.
    """

    dim: int
    table: tuple
    unit: tuple | None = None

    @classmethod
    def build(cls, dim: int, entries, unit=None) -> "StructureConstants":
        if dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
        table = tuple(
            tuple(tuple(as_rational(entries[i][j][k]) for k in range(dim))
                  for j in range(dim))
            for i in range(dim)
        )
        if unit is not None:
            unit = tuple(as_rational(u) for u in unit)
            if len(unit) != dim:
                raise InvalidDimensionError("unit coordinate count != dimension")
        return cls(dim, table, unit)


class FiniteAlgebra(Algebra):
    """Finite-dimensional algebra defined by structure constants.

    Equality compares the structure constants (and unit), not the kind
    label, so a table loaded from a file equals the preset it encodes.
    """

    dimension: int
    unital: bool

    def __init__(self, constants: StructureConstants, kind: str = "structure-constants"):
        self.constants = constants
        self.kind = kind
        self.dimension = constants.dim
        self.unital = constants.unit is not None
        table = constants.table
        self.commutative = all(table[i][j] == table[j][i]
                               for i in range(self.dimension) for j in range(i))
        # _rows[i][j] is e_i · e_j as a sparse {k: c_ijk} mapping, for the
        # nonzero products only; built once and handed out read-only
        products = ([{k: c for k, c in enumerate(row) if c != 0} for row in plane]
                    for plane in constants.table)
        self._rows = tuple({j: p for j, p in enumerate(plane) if p} for plane in products)

    def validate_key(self, key) -> None:
        if type(key) is not int or not 0 <= key < self.dimension:
            raise FormatError(
                f"basis index {key!r} outside 0..{self.dimension - 1}")

    def basis_product(self, i: int, j: int):
        return self._rows[i].get(j, {})

    def multiply_terms(self, a, b) -> dict:
        """Only the pairs (i, j) with e_i · e_j ≠ 0 are visited, and,
        unlike the generic product, the result holds no zeros.  An empty
        operand gives ``{}`` at once, with no pass over the other."""
        if not a or not b:
            return {}
        rows = self._rows
        acc: dict = {}
        for i, ci in a.items():
            for j, product in rows[i].items():
                cj = b.get(j)
                if cj is not None:
                    cij = ci * cj
                    for k, ck in product.items():
                        acc[k] = acc.get(k, 0) + cij * ck
        return clean_terms(acc)

    def unit(self) -> Element:
        if self.constants.unit is None:
            return super().unit()
        return self.element(dict(enumerate(self.constants.unit)))

    def from_coords(self, coords) -> Element:
        coords = list(coords)
        if len(coords) != self.dimension:
            raise FormatError(
                f"{len(coords)} coordinates for dimension {self.dimension}")
        return self.element({i: as_rational(c) for i, c in enumerate(coords)})

    def basis_keys(self, lo: int, hi: int) -> list:
        return list(range(self.dimension))

    def random_element(self, spec: RandomSample, rng) -> Element:
        return self.element(
            {i: _random_coeff(rng, spec.coeff_bound) for i in range(self.dimension)})

    def format_element(self, x: Element) -> str:
        return format_vector_literal(self, x)

    def parse_element(self, text: str) -> Element:
        return parse_vector_literal(self, text)

    def describe(self) -> str:
        return f"{self.kind}({self.dimension})"

    def __eq__(self, other):
        return isinstance(other, FiniteAlgebra) and self.constants == other.constants

    def __hash__(self):
        return hash(("finite", self.dimension))


def make_componentwise(n: int) -> FiniteAlgebra:
    """K^n with the componentwise product e_i·e_j = δ_ij e_i.

    The product forces Σ e_i to act as the unit, so it is registered as
    such.
    """
    if n < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {n}")
    entries = [[[1 if i == j == k else 0 for k in range(n)]
                for j in range(n)] for i in range(n)]
    unit = [1] * n
    return FiniteAlgebra(StructureConstants.build(n, entries, unit), kind="componentwise")


def matrix_basis_index(n: int, p: int, q: int) -> int:
    """Basis index of the matrix unit E_pq (row-major, 0-based)."""
    return p * n + q


def make_matrix_algebra(n: int) -> FiniteAlgebra:
    """Full n×n matrix algebra on the basis of matrix units E_pq,
    with E_pq · E_rs = δ_qr E_ps and unit Σ_p E_pp."""
    if n < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {n}")
    dim = n * n
    entries = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    if q == r:
                        i = matrix_basis_index(n, p, q)
                        j = matrix_basis_index(n, r, s)
                        k = matrix_basis_index(n, p, s)
                        entries[i][j][k] = 1
    unit = [0] * dim
    for p in range(n):
        unit[matrix_basis_index(n, p, p)] = 1
    return FiniteAlgebra(StructureConstants.build(dim, entries, unit), kind="matrix")


def verify_associativity(constants: StructureConstants) -> CheckReport:
    """Exhaustively test (e_i e_j) e_k = e_i (e_j e_k) on all basis triples.

    This is the quartic structure-constant identity, compared on the term
    dicts of both sides; the first violating (i, j, k) is reported as a
    witness, and only its sides are built as elements.
    """
    alg = FiniteAlgebra(constants)
    dim = constants.dim
    mul = alg.multiply_terms
    products = [[alg.basis_product(i, j) for j in range(dim)] for i in range(dim)]
    witness, notes, count = None, (), 0
    for count, (i, j, k) in enumerate(itertools.product(range(dim), repeat=3), 1):
        lhs = mul(products[i][j], {k: 1})
        rhs = mul({i: 1}, products[j][k])
        if lhs != rhs:
            lhs, rhs = Element._trusted(alg, lhs), Element._trusted(alg, rhs)
            witness = Witness(tuple(map(alg.basis_element, (i, j, k))), lhs, rhs, lhs - rhs)
            notes = (f"violating basis triple (i,j,k)=({i},{j},{k})",)
            break
    return CheckReport(
        check="associativity", algebra=alg.describe(), operator="product",
        weight=None, domain={"mode": "basis-triples", "dim": dim},
        tuples=count, witness=witness, notes=notes)


# ---------------------------------------------------------------------------
# Structure-constants file format (JSON):
#   {"dim": n, "unit": ["p/q", ...] (optional),
#    "c": [[[..], ..], ..]}   with c[i][j][k] as "p/q" strings or ints


def structure_constants_from_json(data) -> StructureConstants:
    if not isinstance(data, dict):
        raise FormatError("structure-constants file must be a JSON object")
    if "dim" not in data:
        raise FormatError("missing field 'dim'")
    dim = data["dim"]
    if type(dim) is not int or dim < 1:
        raise FormatError(f"field 'dim' must be a positive integer, got {dim!r}")
    table = data.get("c")
    if not isinstance(table, list) or len(table) != dim:
        raise FormatError("field 'c' must be a list of length dim")
    for i, plane in enumerate(table):
        if not isinstance(plane, list) or len(plane) != dim:
            raise FormatError(f"field 'c'[{i}] must be a list of length dim")
        for j, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != dim:
                raise FormatError(f"field 'c'[{i}][{j}] must be a list of length dim")
    unit = data.get("unit")
    if unit is not None and (not isinstance(unit, list) or len(unit) != dim):
        raise FormatError("field 'unit' must be a list of length dim")
    try:
        return StructureConstants.build(dim, table, unit)
    except (FormatError, ZeroDenominatorError) as exc:
        raise type(exc)(f"field 'c' or 'unit': {exc}") from exc


def structure_constants_to_json(constants: StructureConstants) -> dict:
    data = {
        "dim": constants.dim,
        "c": [[[format_rational(c) for c in row] for row in plane]
              for plane in constants.table],
    }
    if constants.unit is not None:
        data["unit"] = [format_rational(u) for u in constants.unit]
    return data


def load_json(path):
    """Contents of a JSON input file; malformed JSON is a FormatError
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def load_structure_constants_file(path) -> StructureConstants:
    return structure_constants_from_json(load_json(path))
