"""Tensor permutation and commutation matrices.

Exact constructions of the permutation matrices that reorder Kronecker
factors, implicit linear-time application, cross-checked builders,
classification of swap matrices, and the expansion of U[n(x)n] over the
generalized Gell-Mann basis.
"""

from .index_algebra import (
    IMPLICIT_BOUND,
    DimList,
    IndexPerm,
    Sigma,
    flatten,
    induced_index_perm,
    unflatten,
)
from .matrix_core import (
    DEFAULT_DENSE_BOUND,
    CapacityError,
    complex_matrix,
    domain_of,
    elementary,
    elementary_kron_index,
    int_matrix,
    kron,
    kron_basis_rank,
    matmul,
    matrices_close,
    matrices_equal,
    rect_identity,
    transpose,
)
from .perm_matrix import (
    ClosureReport,
    TcmLabel,
    TensorPermSpec,
    apply,
    build_delta,
    build_elementary_sum,
    build_stride_rule,
    classify_tcm,
    closure_check,
    commutation_conjugation_check,
    is_permutation_matrix,
    tcm_spec,
)
from .gellmann import (
    HermitianBasis,
    SwapDecomposition,
    decompose_swap,
    generalized_gellmann,
    sum_lambda_kron,
)

__version__ = "0.1.0"

__all__ = [
    "DimList",
    "Sigma",
    "IndexPerm",
    "IMPLICIT_BOUND",
    "flatten",
    "unflatten",
    "induced_index_perm",
    "DEFAULT_DENSE_BOUND",
    "CapacityError",
    "int_matrix",
    "complex_matrix",
    "domain_of",
    "kron",
    "matmul",
    "transpose",
    "elementary",
    "elementary_kron_index",
    "rect_identity",
    "kron_basis_rank",
    "matrices_equal",
    "matrices_close",
    "TensorPermSpec",
    "TcmLabel",
    "ClosureReport",
    "tcm_spec",
    "build_delta",
    "build_elementary_sum",
    "build_stride_rule",
    "apply",
    "commutation_conjugation_check",
    "classify_tcm",
    "closure_check",
    "is_permutation_matrix",
    "HermitianBasis",
    "SwapDecomposition",
    "generalized_gellmann",
    "sum_lambda_kron",
    "decompose_swap",
    "__version__",
]
