"""Built-in algebras and the structure-constants file format."""

import json
import re
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotabaxter.algebra import DomainSpec
from rotabaxter.algebras import (
    FiniteAlgebra,
    StructureConstants,
    laurent,
    load_structure_constants_file,
    make_componentwise,
    make_matrix_algebra,
    matrix_basis_index,
    polynomial,
    structure_constants_from_json,
    structure_constants_to_json,
    verify_associativity,
)
from rotabaxter.errors import (
    AlgebraMismatchError,
    FormatError,
    InvalidDimensionError,
    ZeroDenominatorError,
)
from rotabaxter.operators import matrix_operator, operator_matrix

L = laurent()
P = polynomial()


def test_componentwise_examples():
    a2 = make_componentwise(2)
    ones = a2.basis_element(0) + a2.basis_element(1)
    assert ones * ones == ones
    a3 = make_componentwise(3)
    assert a3.basis_element(1) * a3.basis_element(1) == a3.basis_element(1)
    assert (a2.basis_element(0) * a2.basis_element(1)).is_zero


def test_componentwise_unit():
    a4 = make_componentwise(4)
    assert a4.unital
    x = a4.from_coords([1, Fraction(-2, 3), 0, 5])
    assert a4.unit() * x == x
    assert x * a4.unit() == x


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        make_componentwise(0)
    with pytest.raises(InvalidDimensionError):
        make_matrix_algebra(0)


def test_matrix_units_oracle():
    """E_pq · E_rs = δ_qr E_ps, exhaustively for n = 2 and 3."""
    for n in (2, 3):
        alg = make_matrix_algebra(n)
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        got = alg.basis_element(matrix_basis_index(n, p, q)) \
                            * alg.basis_element(matrix_basis_index(n, r, s))
                        if q == r:
                            assert got == alg.basis_element(matrix_basis_index(n, p, s))
                        else:
                            assert got.is_zero


def test_matrix_algebra_examples():
    m2 = make_matrix_algebra(2)
    e = lambda p, q: m2.basis_element(matrix_basis_index(2, p, q))
    assert e(0, 1) * e(1, 0) == e(0, 0)
    assert (e(0, 1) * e(0, 1)).is_zero
    assert m2.unit() * e(1, 1) == e(1, 1)
    # (E11 + E12)(E11 - E21) = E11 - E11: the kernel drops the cancelled term
    i = lambda p, q: matrix_basis_index(2, p, q)
    assert m2.multiply_terms({i(0, 0): 1, i(0, 1): 1}, {i(0, 0): 1, i(1, 0): -1}) == {}


def test_matrix_algebra_dimension_and_associativity():
    for n in (1, 2, 3):
        alg = make_matrix_algebra(n)
        assert alg.dimension == n * n
        assert verify_associativity(alg.constants).passed


def test_verify_associativity_pass_cases():
    assert verify_associativity(make_componentwise(2).constants).passed
    assert verify_associativity(make_matrix_algebra(2).constants).passed


def test_verify_associativity_failure_with_witness():
    # e1e1 = e2, e1e2 = e1, everything else zero: already (e1e1)e1 = e2e1
    # = 0 against e1(e1e1) = e1e2 = e1, so the first violating triple in
    # sweep order is (0,0,0).
    z, o = Fraction(0), Fraction(1)
    entries = [
        [[z, o], [o, z]],
        [[z, z], [z, z]],
    ]
    sc = StructureConstants.build(2, entries)
    report = verify_associativity(sc)
    assert not report.passed
    assert report.witness is not None
    assert "(0,0,0)" in report.notes[0].replace(" ", "")
    alg = FiniteAlgebra(sc)
    a, b, c = report.witness.inputs
    lhs = alg.multiply(alg.multiply(a, b), c)
    rhs = alg.multiply(a, alg.multiply(b, c))
    assert lhs - rhs == report.witness.diff


def test_laurent_and_polynomial_commutative():
    rng = random.Random(11)
    spec = DomainSpec.random(1, lo=-4, hi=4, coeff_bound=6, support_bound=4, seed=11)
    for _ in range(30):
        x, y = L.random_element(spec, rng), L.random_element(spec, rng)
        assert x * y == y * x
    rng = random.Random(12)
    for _ in range(30):
        x, y = P.random_element(spec, rng), P.random_element(spec, rng)
        assert x * y == y * x


def test_polynomial_is_subalgebra_of_laurent():
    rng = random.Random(13)
    spec = DomainSpec.random(1, lo=0, hi=5, coeff_bound=6, support_bound=4, seed=13)
    for _ in range(30):
        x, y = P.random_element(spec, rng), P.random_element(spec, rng)
        included = L.element(dict((x * y).terms))
        via_laurent = L.element(dict(x.terms)) * L.element(dict(y.terms))
        assert included == via_laurent


def test_structure_constants_round_trip(tmp_path):
    a2 = make_componentwise(2)
    data = structure_constants_to_json(a2.constants)
    path = tmp_path / "cw2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = FiniteAlgebra(load_structure_constants_file(path))
    assert loaded == a2


def test_structure_constants_json_guards():
    with pytest.raises(FormatError):
        structure_constants_from_json({"c": []})
    with pytest.raises(FormatError):
        structure_constants_from_json({"dim": 2, "c": [[[0, 0], [0, 0]]]})
    with pytest.raises(FormatError):
        structure_constants_from_json(
            {"dim": 1, "c": [[[0.5]]]})
    with pytest.raises(ZeroDenominatorError):
        structure_constants_from_json({"dim": 1, "c": [[["1/0"]]]})


def test_finite_algebra_equality_ignores_kind_label():
    a2 = make_componentwise(2)
    clone = FiniteAlgebra(a2.constants)  # kind defaults to structure-constants
    assert clone == a2


# ---------------------------------------------------------------------------
# The finite product kernel against the structure constants

# The non-associative table of test_verify_associativity_failure_with_witness
# scaled by 3/2: e1e1 = 3/2 e2, e1e2 = 3/2 e1.
HALVES = FiniteAlgebra(StructureConstants.build(
    2, [[[0, Fraction(3, 2)], [Fraction(3, 2), 0]], [[0, 0], [0, 0]]]))
KERNEL_CASES = {"matrix:3": make_matrix_algebra(3), "componentwise:5": make_componentwise(5),
                "3/2 non-associative": HALVES}

# ints, integral Fractions, proper Fractions and zero alike
coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-4, 4).map(Fraction),
)


def finite_elements(alg):
    coords = st.lists(coefficients, min_size=alg.dimension, max_size=alg.dimension)
    return coords.map(lambda cs: alg.element(dict(enumerate(cs))))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_finite_product_is_the_structure_constant_sum(data):
    """x·y = Σ_ijk x_i·y_j·c_ijk e_k on dense, sparse and zero operands."""
    alg = KERNEL_CASES[data.draw(st.sampled_from(sorted(KERNEL_CASES)))]
    x, y = data.draw(finite_elements(alg)), data.draw(finite_elements(alg))
    n, c = alg.dimension, alg.constants.table
    expected = [sum(x.coefficient(i) * y.coefficient(j) * c[i][j][k]
                    for i in range(n) for j in range(n)) for k in range(n)]
    product = alg.multiply(x, y)
    assert product.coords() == tuple(expected)
    assert all(type(v) is int or v.denominator != 1 for v in product.terms.values())
    assert alg.multiply_terms(x.terms, y.terms) == product.terms


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_matrix_operator_image_is_matrix_times_coords(data):
    alg = make_matrix_algebra(2)
    entries = st.lists(coefficients, min_size=4, max_size=4)
    op = matrix_operator(alg, data.draw(st.lists(entries, min_size=4, max_size=4)))
    x = data.draw(finite_elements(alg))
    rows = operator_matrix(alg, op)
    assert op(x).coords() == tuple(sum(m * v for m, v in zip(row, x.coords()))
                                   for row in rows)


def test_equal_algebras_multiply_and_different_ones_refuse(tmp_path):
    m2 = make_matrix_algebra(2)
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(structure_constants_to_json(m2.constants)), encoding="utf-8")
    loaded = FiniteAlgebra(load_structure_constants_file(path))
    assert loaded is not m2 and loaded == m2
    x = m2.from_coords([1, Fraction(1, 2), 0, -3])
    y = loaded.from_coords([Fraction(2, 3), 0, 1, 1])
    assert m2.multiply(x, y) == loaded.multiply(x, y) == x * y
    assert (x * y).coords() == (Fraction(7, 6), Fraction(1, 2), -3, -3)
    with pytest.raises(AlgebraMismatchError):
        m2.multiply(x, make_componentwise(4).from_coords([1, 1, 1, 1]))
    with pytest.raises(AlgebraMismatchError):
        x * make_componentwise(4).from_coords([1, 1, 1, 1])


def test_verify_associativity_fraction_table_report_is_pinned():
    """The full report of a Fraction table that first fails at (1,1,1):
    e0e0 = e0, e1e1 = 3/2 e2, e1e2 = 1/3 e1 + 2/5 e2, e2e1 = -e1 + 5/4 e2."""
    entries = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    entries[0][0][0] = 1
    entries[1][1][2] = Fraction(3, 2)
    entries[1][2][1], entries[1][2][2] = Fraction(1, 3), Fraction(2, 5)
    entries[2][1][1], entries[2][1][2] = -1, Fraction(5, 4)
    report = verify_associativity(StructureConstants.build(3, entries))
    assert report.to_json() == {
        "check": "associativity",
        "algebra": "structure-constants(3)",
        "operator": "product",
        "weight": None,
        "domain": {"mode": "basis-triples", "dim": 3},
        "status": "fail",
        "tuples": 14,
        "witness": {"inputs": ["[0, 1, 0]", "[0, 1, 0]", "[0, 1, 0]"],
                    "lhs": "[0, -3/2, 15/8]", "rhs": "[0, 1/2, 3/5]",
                    "diff": "[0, -2, 51/40]"},
        "notes": ["violating basis triple (i,j,k)=(1,1,1)"],
    }


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_finite_product_of_an_empty_operand_is_empty(name):
    alg = KERNEL_CASES[name]
    dense = {i: Fraction(i + 1, 2) for i in range(alg.dimension)}
    assert alg.multiply_terms({}, dense) == {}
    assert alg.multiply_terms(dense, {}) == {}
    assert alg.multiply_terms({}, {}) == {}


def first_associativity_violation(table, dim):
    """(i, j, k), lhs and rhs coordinates of the first triple in sweep order
    with (e_i e_j) e_k ≠ e_i (e_j e_k), by dense sums over the table; None
    when there is none.  Also the number of triples swept."""
    def times(x, y):
        return [sum(x[p] * y[q] * table[p][q][r] for p in range(dim) for q in range(dim))
                for r in range(dim)]

    basis = [[int(p == q) for p in range(dim)] for q in range(dim)]
    triples = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]
    for count, (i, j, k) in enumerate(triples, 1):
        lhs = times(times(basis[i], basis[j]), basis[k])
        rhs = times(basis[i], times(basis[j], basis[k]))
        if lhs != rhs:
            return (i, j, k), lhs, rhs, count
    return None, None, None, len(triples)


# mostly zero, so that many products e_i e_j, and so many operands, are empty
sparse_coefficients = st.one_of(st.just(0), st.just(0), st.just(0), coefficients)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_associativity_keeps_its_first_witness_and_tuple_count(data):
    dim = data.draw(st.integers(1, 4))
    entries = [[[data.draw(sparse_coefficients) for _ in range(dim)] for _ in range(dim)]
               for _ in range(dim)]
    sc = StructureConstants.build(dim, entries)
    triple, lhs, rhs, count = first_associativity_violation(sc.table, dim)
    report = verify_associativity(sc)
    assert report.tuples == count
    if triple is None:
        assert report.passed and report.witness is None
        return
    alg = FiniteAlgebra(sc)
    assert not report.passed
    assert report.notes == (f"violating basis triple (i,j,k)=({','.join(map(str, triple))})",)
    assert report.witness.inputs == tuple(map(alg.basis_element, triple))
    assert report.witness.lhs.coords() == tuple(lhs)
    assert report.witness.rhs.coords() == tuple(rhs)


def test_verify_associativity_witness_past_empty_operands():
    """e0e0 = e0, e1e1 = e2, e2e2 = 3/2 e1: the first fourteen triples
    have an empty operand on each side or agree, and (1,1,2) gives
    3/2 e1 against zero."""
    entries = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    entries[0][0][0], entries[1][1][2], entries[2][2][1] = 1, 1, Fraction(3, 2)
    report = verify_associativity(StructureConstants.build(3, entries))
    assert (report.status, report.tuples) == ("fail", 15)
    assert report.notes == ("violating basis triple (i,j,k)=(1,1,2)",)
    assert str(report.witness.lhs) == "[0, 3/2, 0]"
    assert report.witness.rhs.is_zero


def test_verify_associativity_cleans_a_side_that_cancels():
    """e0e0 = e1 - e2 and e1e0 = e2e0 = e3: (e0e0)e0 = e3 - e3 sums two
    products, through l = 1 and l = 2, to zero, as e0(e0e0) is; the table
    is associative."""
    entries = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    entries[0][0][1], entries[0][0][2] = 1, -1
    entries[1][0][3] = entries[2][0][3] = 1
    sc = StructureConstants.build(4, entries)
    assert first_associativity_violation(sc.table, 4) == (None, None, None, 64)
    report = verify_associativity(sc)
    assert (report.status, report.tuples, report.witness, report.notes) == ("pass", 64, None, ())


def test_verify_associativity_reports_the_first_k_of_a_pair():
    """e0e0 = e1 + e2, e1e2 = e1, e2e1 = e2: the pair (0, 0) differs at k = 2,
    reached first through l = 1, and at k = 1; the witness is k = 1."""
    entries = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    entries[0][0][1] = entries[0][0][2] = 1
    entries[1][2][1] = entries[2][1][2] = 1
    sc = StructureConstants.build(3, entries)
    assert first_associativity_violation(sc.table, 3)[0] == (0, 0, 1)
    report = verify_associativity(sc)
    assert (report.status, report.tuples) == ("fail", 2)
    assert report.notes == ("violating basis triple (i,j,k)=(0,0,1)",)
    assert (str(report.witness.lhs), str(report.witness.rhs)) == ("[0, 0, 1]", "[0, 0, 0]")


@pytest.mark.parametrize("call, error, message", [
    (lambda: L.element({"a": 1}), FormatError, "Laurent exponent must be an integer, got 'a'"),
    (lambda: L.element({True: 1}), FormatError, "Laurent exponent must be an integer, got True"),
    (lambda: make_componentwise(2).element({5: 1}), FormatError, "basis index 5 outside 0..1"),
    (lambda: make_componentwise(2).element({True: 1}), FormatError,
     "basis index True outside 0..1"),
    (lambda: make_componentwise(2).from_coords([1]), FormatError,
     "1 coordinates for dimension 2"),
    (lambda: StructureConstants.build(0, []), InvalidDimensionError,
     "dimension must be >= 1, got 0"),
    (lambda: StructureConstants.build(1, [[[1]]], unit=[1, 0]), InvalidDimensionError,
     "unit coordinate count != dimension"),
], ids=["laurent-key", "laurent-bool", "finite-key", "finite-bool", "coords", "dimension",
        "unit"])
def test_a_malformed_key_or_table_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
