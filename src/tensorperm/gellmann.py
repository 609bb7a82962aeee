"""Pauli, Gell-Mann, and generalized Gell-Mann bases, and the expansion of
the swap matrix U[n(x)n] over them.

The basis for factor dimension n consists of the identity lambda0 plus
n^2 - 1 Hermitian traceless generators normalized to Tr(g_a g_b) = 2 delta_ab.
Over that basis the swap matrix has the closed form

    U[n(x)n] = (1/n) lambda0 (x) lambda0 + (1/2) sum_i g_i (x) g_i

so its decomposition table is c00 = 1/n, diagonal entries 1/2, and zero
everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .index_algebra import DimList, Sigma, induced_index_perm
from .matrix_core import DEFAULT_DENSE_BOUND, _check_capacity, kron

__all__ = [
    "HermitianBasis",
    "SwapDecomposition",
    "generalized_gellmann",
    "sum_lambda_kron",
    "decompose_swap",
]


@dataclass(frozen=True)
class HermitianBasis:
    """Identity plus the n^2 - 1 Hermitian traceless generators for size n."""

    n: int
    lambda0: np.ndarray
    generators: tuple[np.ndarray, ...]

    def with_identity(self) -> list[np.ndarray]:
        """The full basis [lambda0, g1, g2, ...] in decomposition order."""
        return [self.lambda0, *self.generators]


def _sym(n: int, j: int, k: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    m[j - 1, k - 1] = 1
    m[k - 1, j - 1] = 1
    return m


def _anti(n: int, j: int, k: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    m[j - 1, k - 1] = -1j
    m[k - 1, j - 1] = 1j
    return m


def _diag(n: int, d: int) -> np.ndarray:
    entries = [1.0] * d + [-float(d)] + [0.0] * (n - d - 1)
    return math.sqrt(2.0 / (d * (d + 1))) * np.diag(entries).astype(np.complex128)


def generalized_gellmann(n: int) -> HermitianBasis:
    """Generators for size n, normalized to Tr(g_a g_b) = 2 delta_ab.

    Canonical order: the symmetric pair matrices for j < k, then the
    antisymmetric ones, then the n - 1 diagonal matrices. For n = 3 the
    generators are reordered to the conventional Gell-Mann numbering
    lambda1..lambda8 (pairwise interleaved, diagonals at positions 3 and 8);
    n = 2 already yields the Pauli matrices sigma1, sigma2, sigma3.
    """
    if n < 2:
        raise ValueError(f"basis needs a factor dimension of at least 2, got {n}")
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    sym = [_sym(n, j, k) for j, k in pairs]
    anti = [_anti(n, j, k) for j, k in pairs]
    diag = [_diag(n, d) for d in range(1, n)]
    if n == 3:
        generators = (sym[0], anti[0], diag[0], sym[1], anti[1], sym[2], anti[2], diag[1])
    else:
        generators = tuple(sym + anti + diag)
    return HermitianBasis(n=n, lambda0=np.eye(n, dtype=np.complex128), generators=generators)


def sum_lambda_kron(n: int) -> np.ndarray:
    """The n^2 x n^2 sum of g_i (x) g_i over all generators for size n."""
    basis = generalized_gellmann(n)
    total = np.zeros((n * n, n * n), dtype=np.complex128)
    for g in basis.generators:
        total += kron(g, g)
    return total


@dataclass(frozen=True)
class SwapDecomposition:
    """Coefficients of U[n(x)n] over the basis products, index 0 = identity.

    ``table[a, b]`` is the coefficient of basis[a] (x) basis[b] where basis
    is [lambda0, g1, ..., g_{n^2-1}].
    """

    n: int
    table: np.ndarray

    @property
    def c00(self) -> float:
        return float(self.table[0, 0].real)

    def coefficient(self, a: int, b: int) -> complex:
        return complex(self.table[a, b])

    def reconstruct(self) -> np.ndarray:
        """Sum the table back into an n^2 x n^2 matrix."""
        basis = generalized_gellmann(self.n).with_identity()
        total = np.zeros((self.n * self.n, self.n * self.n), dtype=np.complex128)
        for a, b in np.argwhere(self.table):
            total += self.table[a, b] * kron(basis[a], basis[b])
        return total


def decompose_swap(n: int, dense_bound: int = DEFAULT_DENSE_BOUND) -> SwapDecomposition:
    """Expand U[n(x)n] over the basis products by trace inner products.

    The coefficient of B_a (x) B_b is Tr(U (B_a (x) B_b)) = Tr(B_a B_b)
    divided by Tr(B_a^2) * Tr(B_b^2): n^2 for the identity pair, 4 for two
    generators, 2n for the mixed terms. Since vec(B^T) is vec(B) read
    through U's index permutation, the whole table is one Gram product of
    the flattened basis.
    """
    if n < 2:
        raise ValueError(f"swap decomposition needs a factor dimension of at least 2, got {n}")
    _check_capacity(n * n, dense_bound)
    # one expression, so the list of n^2 basis matrices is freed before the gather
    flat = np.stack(generalized_gellmann(n).with_identity()).reshape(n * n, n * n)
    swap = induced_index_perm(DimList((n, n)), Sigma((2, 1)))
    gram = flat[:, swap.index] @ flat.T
    norms = gram.diagonal().real
    gram /= np.outer(norms, norms)  # in place: no second table
    return SwapDecomposition(n=n, table=gram)
