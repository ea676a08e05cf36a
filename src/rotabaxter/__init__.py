"""Exact construction and verification of Rota-Baxter operators and the
dendriform di-/trialgebra structures they induce.

Everything is computed over the rationals with syntactic equality, so a
check either proves an identity on its swept domain or produces a
replayable counterexample witness.
"""

from importlib import import_module as _import_module

from .algebra import (
    Compose,
    DomainSpec,
    Element,
    Identity,
    OperatorExpr,
    Primitive,
    Scale,
    Sum,
    apply_operator,
    lie_bracket,
)
from .algebras import (
    FiniteAlgebra,
    LaurentAlgebra,
    PolynomialAlgebra,
    StructureConstants,
    laurent,
    make_componentwise,
    make_matrix_algebra,
    matrix_basis_index,
    polynomial,
    verify_associativity,
)
from .checks import (
    IDENTITIES,
    check,
    check_idempotent,
    check_image_closure,
    check_lie_modified,
    check_modified_rbr,
    check_nijenhuis,
    check_rbr,
    find_violation,
    violation_report,
)
from .errors import (
    AlgebraMismatchError,
    CannotNormalizeError,
    FormatError,
    InvalidDimensionError,
    InvalidDomainError,
    OperatorDomainError,
    RotaBaxterError,
    UnsupportedDomainError,
    ZeroDenominatorError,
)
from .operators import (
    WeightedOperator,
    compose_operator,
    make_identity_operator,
    make_integration,
    make_miller,
    make_rms,
    make_rms_opposite,
    make_shift_truncation,
    matrix_operator,
    modified_of,
    nijenhuis_family,
    normalize_weight,
    operator_matrix,
    opposite_of,
    scale_operator,
    sum_operator,
)
from .rationals import format_rational, normalize, parse_rational
from .report import CheckReport, Witness, dumps_reports

# The modules that no check command runs, and their public names -> the
# module.  They are imported on first use (PEP 562), so that a command that
# does not use them neither compiles nor runs them.
_LAZY = {
    name: module
    for module, names in (
        ("dendriform", "DendriformStructure build_from_nijenhuis build_modified_pair "
                       "build_tri_from_rbo build_weight0_pair check_dialgebra "
                       "check_rbr_on_compositions check_star_associative "
                       "check_trialgebra"),
        ("suite", "run_suite"),
        ("tensor", "TensorAlgebra acybe_residual embed induced_operator tensor2 tensor3"),
    )
    for name in (module, *names.split())
}

# without it, ``from rotabaxter import *`` would miss the names of _LAZY
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    # The value is not stored in the package namespace, so a name that is
    # later rebound in its module (by a tracer, say) resolves to the new value.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
