"""Tensor squares/cubes and the associative Yang-Baxter residual."""

import re
from fractions import Fraction

import pytest

from rotabaxter.algebra import DomainSpec
from rotabaxter.algebras import (
    FiniteAlgebra,
    StructureConstants,
    make_componentwise,
    make_matrix_algebra,
    matrix_basis_index,
)
from rotabaxter.checks import check_rbr
from rotabaxter.errors import FormatError, UnsupportedDomainError
from rotabaxter.tensor import (
    acybe_report,
    acybe_residual,
    embed,
    induced_operator,
    tensor2,
    tensor2_from_json,
    tensor2_to_json,
    tensor3,
)

M2 = make_matrix_algebra(2)
E = lambda p, q: matrix_basis_index(2, p, q)


def test_embed_examples():
    r = tensor2(M2, {(E(0, 1), E(0, 1)): 1})
    unit_keys = {E(0, 0): 1, E(1, 1): 1}
    expected_12 = tensor3(M2, {(E(0, 1), E(0, 1), u): c
                               for u, c in unit_keys.items()})
    assert embed(r, "12") == expected_12
    expected_13 = tensor3(M2, {(E(0, 1), u, E(0, 1)): c
                               for u, c in unit_keys.items()})
    assert embed(r, "13") == expected_13
    assert embed(tensor2(M2, {}), "23").is_zero


def test_embed_requires_unit():
    z = Fraction(0)
    no_unit = FiniteAlgebra(StructureConstants.build(
        1, [[[z]]]))  # 1-dim algebra with zero product, no unit
    with pytest.raises(UnsupportedDomainError):
        embed(tensor2(no_unit, {(0, 0): 1}), "12")


def test_mul3_matrix_unit_oracle():
    a = tensor3(M2, {(E(0, 1), E(0, 0), E(0, 1)): 1})
    b = tensor3(M2, {(E(0, 1), E(0, 1), E(0, 0)): 1})
    assert (a * b).is_zero  # first slot: E12 E12 = 0
    c = tensor3(M2, {(E(0, 0), E(0, 0), E(0, 0)): 1})
    d = tensor3(M2, {(E(0, 0), E(0, 0), E(0, 0)): 1})
    assert c * d == c
    assert (a * tensor3(M2, {})).is_zero


def test_mul3_bilinear_and_embed_linear():
    r = tensor2(M2, {(E(0, 0), E(1, 1)): Fraction(2, 3), (E(0, 1), E(1, 0)): -1})
    s = tensor2(M2, {(E(1, 0), E(0, 1)): 1})
    lam = Fraction(5, 2)
    assert embed(r + lam * s, "13") == embed(r, "13") + lam * embed(s, "13")
    a, b = embed(r, "12"), embed(s, "23")
    c = embed(r, "13")
    assert (a + lam * c) * b == a * b + lam * (c * b)
    assert b * (a + lam * c) == b * a + lam * (b * c)


def test_acybe_residual_examples():
    assert acybe_residual(tensor2(M2, {})).is_zero
    nilp = tensor2(M2, {(E(0, 1), E(0, 1)): 1})
    assert acybe_residual(nilp).is_zero
    idem = tensor2(M2, {(E(0, 0), E(0, 0)): 1})
    assert acybe_residual(idem) == tensor3(
        M2, {(E(0, 0), E(0, 0), E(0, 0)): 1})


def test_acybe_report_notes_a_residual_other_than_the_recorded_one():
    idem = tensor2(M2, {(E(0, 0), E(0, 0)): 1})
    recorded = tensor3(M2, {(E(0, 0), E(0, 0), E(0, 0)): 1})
    assert list(acybe_report(idem, "E11xE11", expected_residual=recorded).notes) == []
    report = acybe_report(idem, "E11xE11", expected_residual=2 * recorded)
    assert list(report.notes) == ["residual differs from the recorded value"]
    assert not report.passed


def test_acybe_residual_is_quadratic():
    r = tensor2(M2, {(E(0, 0), E(0, 0)): 1, (E(0, 1), E(1, 0)): Fraction(1, 2)})
    base = acybe_residual(r)
    for c in (Fraction(2), Fraction(-1), Fraction(3, 4), Fraction(0)):
        assert acybe_residual(c * r) == (c * c) * base


def test_induced_operator_examples():
    nilp = tensor2(M2, {(E(0, 1), E(0, 1)): 1})
    op = induced_operator(nilp)
    assert op(M2.basis_element(E(1, 0))) == M2.basis_element(E(0, 1))
    zero_op = induced_operator(tensor2(M2, {}))
    assert zero_op(M2.basis_element(E(0, 0))).is_zero
    assert check_rbr(M2, op, Fraction(0), DomainSpec.basis(0, 0)).passed


CORPUS = [
    ("zero", {}),
    ("E12xE12", {(E(0, 1), E(0, 1)): 1}),
    ("E12xE11", {(E(0, 1), E(0, 0)): 1}),
    ("E11xE11", {(E(0, 0), E(0, 0)): 1}),
    ("E11xE12", {(E(0, 0), E(0, 1)): 1}),
    ("mix", {(E(0, 1), E(0, 1)): Fraction(3, 2), (E(0, 0), E(0, 0)): 1}),
]


def test_corpus_bridge_solutions_induce_weight0_operators():
    """Every stored solution's induced operator passes the weight-0
    relation exhaustively; every entry whose induced operator fails it
    has a nonzero residual."""
    dom = DomainSpec.basis(0, 0)
    seen_solution = seen_violation = False
    for name, terms in CORPUS:
        r = tensor2(M2, terms)
        solves = acybe_residual(r).is_zero
        induced_ok = check_rbr(M2, induced_operator(r), Fraction(0), dom).passed
        if solves:
            seen_solution = True
            assert induced_ok, name
        if not induced_ok:
            seen_violation = True
            assert not solves, name
    assert seen_solution and seen_violation


def test_tensor_json_round_trip():
    r = tensor2(M2, {(E(0, 1), E(1, 0)): Fraction(-2, 7), (E(0, 0), E(1, 1)): 3})
    data = tensor2_to_json(r, "matrix:2")
    assert data["algebra"] == "matrix:2"
    assert tensor2_from_json(data, M2) == r


def test_tensor_file_must_be_an_object():
    """The CLI refuses a non-object file before it reads the algebra; a
    library caller reaches this check."""
    with pytest.raises(FormatError, match="tensor file must be a JSON object"):
        tensor2_from_json([], M2)


def test_tensor_formatting():
    r = tensor2(M2, {(E(0, 1), E(1, 0)): 1})
    assert str(r) == "e[1,2]"
    res = tensor3(M2, {(E(0, 0), E(0, 0), E(0, 0)): -2})
    assert str(res) == "-2 e[0,0,0]"


def test_componentwise_tensors_also_work():
    a2 = make_componentwise(2)
    r = tensor2(a2, {(0, 0): 1})
    residual = acybe_residual(r)
    assert residual == tensor3(a2, {(0, 0, 0): 1})


def test_tensors_are_elements_of_tensor_algebras():
    from rotabaxter.algebra import Element
    from rotabaxter.errors import FormatError
    from rotabaxter.tensor import TensorAlgebra

    r = tensor2(M2, {(E(0, 1), E(1, 0)): 1})
    assert isinstance(r, Element) and r.algebra == TensorAlgebra(M2, 2)
    assert acybe_residual(r).algebra == TensorAlgebra(M2, 3)
    with pytest.raises(FormatError, match="must have 2 indices"):
        tensor2(M2, {(0,): 1})
    with pytest.raises(FormatError, match="must have 3 indices"):
        tensor3(M2, {(0, 0): 1})


def test_an_unknown_slot_pair_is_refused():
    r = tensor2(M2, {(E(0, 0), E(0, 0)): 1})
    with pytest.raises(FormatError, match=re.escape("slot pair must be 12, 13 or 23, got '21'")):
        embed(r, "21")
