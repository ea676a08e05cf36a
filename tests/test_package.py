"""The package namespace: every public name, loaded eagerly or on first use."""

import importlib

import pytest

import rotabaxter
import rotabaxter.suite

# submodule -> the public names the package re-exports from it
EXPORTS = {
    "algebra": "Compose DomainSpec Element Identity OperatorExpr Primitive Scale Sum "
               "apply_operator lie_bracket",
    "algebras": "FiniteAlgebra LaurentAlgebra PolynomialAlgebra StructureConstants laurent "
                "make_componentwise make_matrix_algebra matrix_basis_index polynomial "
                "verify_associativity",
    "checks": "IDENTITIES check check_idempotent check_image_closure check_lie_modified "
              "check_modified_rbr check_nijenhuis check_rbr find_violation violation_report",
    "dendriform": "DendriformStructure build_from_nijenhuis build_modified_pair "
                  "build_tri_from_rbo build_weight0_pair check_dialgebra "
                  "check_rbr_on_compositions check_star_associative check_trialgebra",
    "errors": "AlgebraMismatchError CannotNormalizeError FormatError InvalidDimensionError "
              "InvalidDomainError OperatorDomainError RotaBaxterError UnsupportedDomainError "
              "ZeroDenominatorError",
    "operators": "WeightedOperator compose_operator make_identity_operator make_integration "
                 "make_miller make_rms make_rms_opposite make_shift_truncation "
                 "matrix_operator modified_of nijenhuis_family normalize_weight "
                 "operator_matrix opposite_of scale_operator sum_operator",
    "rationals": "format_rational normalize parse_rational",
    "report": "CheckReport Witness dumps_reports",
    "suite": "run_suite",
    "tensor": "TensorAlgebra acybe_residual embed induced_operator tensor2 tensor3",
}


def test_every_public_name_is_the_submodules_object():
    star: dict = {}
    exec("from rotabaxter import *", star)
    listed = dir(rotabaxter)
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"rotabaxter.{module}")
        assert getattr(rotabaxter, module) is submodule
        for name in names.split():
            obj = getattr(submodule, name)
            assert getattr(rotabaxter, name) is obj, name
            assert star[name] is obj, name
            assert name in listed, name


def test_names_loaded_on_first_use_follow_their_module(monkeypatch):
    assert rotabaxter.run_suite is rotabaxter.suite.run_suite
    # nothing is stored in the package, so a rebinding in the module shows
    assert "run_suite" not in vars(rotabaxter)
    monkeypatch.setattr(rotabaxter.suite, "run_suite", "rebound")
    assert rotabaxter.run_suite == "rebound"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rotabaxter.no_such_name
