"""twistkit: exact verification and construction of twisting maps and twisted
tensor products of finite-dimensional associative algebras.

The package works entirely in structure constants over an exact field (the
rationals or a prime field).  A candidate map is a grid of linear
endomorphisms; three independent routes decide whether it is a twisting map,
and verified candidates yield the twisted product algebra together with its
faithful matrix representation.
"""

from .algebra import (
    FiniteDimAlgebra,
    direct_product,
    duplicate_algebra,
    field_algebra,
    kn_algebra,
    quadratic_algebra,
    truncated_poly_algebra,
    validate_algebra,
)
from .basischange import MorphismData, RebaseResult, check_induced_morphism, make_morphism, rebase
from .catalog import (
    Quiver,
    QuiverRep,
    kn_conditions,
    make_kn,
    make_ncd,
    make_quantum_duplicate,
    make_truncated,
    ncd_conditions,
    qdup_conditions,
    quiver_of,
    truncated_conditions,
    truncated_from_first_row,
)
from .errors import (
    BlockFormError,
    DimensionMismatchError,
    FieldError,
    FieldMismatchError,
    MorphismError,
    SchemaError,
    SearchSpaceTooLargeError,
    SingularMatrixError,
    TwistKitError,
    UnverifiedCandidateError,
)
from .extension import (
    BlockDecomposition,
    check_extension_given_theta,
    check_lemma_blocks,
    check_remark_delta,
    direct_sum,
    factor_algebras,
    restrict,
    split_blocks,
)
from .fields import Field, GF, QQ
from .linalg import (
    AlgMatrix,
    EndoMatrix,
    KMatrix,
    algmat_mul,
    endo_mat_mul,
    kernel_basis,
    mat_inverse,
    mat_mul,
    rank,
)
from .report import Failure, VerificationReport
from .search import SearchSpace, cross_validate, enumerate_space
from .twisting import (
    FaithfulRep,
    GammaFamily,
    TwistedTensorAlgebra,
    TwistingCandidate,
    build_twisted_product,
    certify,
    chi_eval,
    faithful_rep,
    lift_structure_matrix,
    phi_hat,
    rho_hat,
    verify_faithful,
)

__version__ = "0.1.0"
