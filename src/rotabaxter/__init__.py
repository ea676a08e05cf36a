"""Exact construction and verification of Rota-Baxter operators and the
dendriform di-/trialgebra structures they induce.

Everything is computed over the rationals with syntactic equality, so a
check either proves an identity on its swept domain or produces a
replayable counterexample witness.
"""

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
from .dendriform import (
    DendriformStructure,
    build_from_nijenhuis,
    build_modified_pair,
    build_tri_from_rbo,
    build_weight0_pair,
    check_dialgebra,
    check_rbr_on_compositions,
    check_star_associative,
    check_trialgebra,
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
from .suite import run_suite
from .tensor import (
    TensorAlgebra,
    acybe_residual,
    embed,
    induced_operator,
    tensor2,
    tensor3,
)

__version__ = "0.1.0"
