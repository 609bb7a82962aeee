"""Tensor permutation and commutation matrices.

Exact constructions of the permutation matrices that reorder Kronecker
factors, implicit linear-time application, cross-checked builders,
classification of swap matrices, and the expansion of U[n(x)n] over the
generalized Gell-Mann basis.
"""

from . import gellmann, index_algebra, matrix_core, perm_matrix
from .index_algebra import *
from .matrix_core import *
from .perm_matrix import *
from .gellmann import *

__version__ = "0.1.0"

__all__ = [
    *index_algebra.__all__,
    *matrix_core.__all__,
    *perm_matrix.__all__,
    *gellmann.__all__,
    "__version__",
]
