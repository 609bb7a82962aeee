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


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Identity plus the n^2 - 1 Hermitian traceless generators for size n."""

    n: int
    lambda0: np.ndarray
    generators: tuple[np.ndarray, ...]

    def with_identity(self) -> list[np.ndarray]:
        """The full basis [lambda0, g1, g2, ...] in decomposition order."""
        return [self.lambda0, *self.generators]


# Slot of each canonical generator (symmetric pairs, antisymmetric pairs,
# diagonals) in the conventional n = 3 numbering lambda1..lambda8.
_GELLMANN_SLOTS = (1, 4, 6, 2, 5, 7, 3, 8)


def _basis_array(n: int) -> np.ndarray:
    """All n^2 basis matrices in decomposition order, lambda0 first, as one
    (n^2, n, n) complex128 array."""
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    basis[0] = np.eye(n)
    slots = np.array(_GELLMANN_SLOTS) if n == 3 else np.arange(1, n * n)
    j, k = np.triu_indices(n, 1)
    sym, anti, diag = np.split(slots, [len(j), 2 * len(j)])
    basis[sym, j, k] = basis[sym, k, j] = 1
    basis[anti, j, k] = -1j
    basis[anti, k, j] = 1j
    for d, slot in enumerate(diag, start=1):
        scale = math.sqrt(2.0 / (d * (d + 1)))
        basis[slot, range(d), range(d)] = scale
        basis[slot, d, d] = scale * -float(d)
    return basis


def generalized_gellmann(n: int) -> HermitianBasis:
    """Generators for size n, normalized to Tr(g_a g_b) = 2 delta_ab.

    Canonical order: the symmetric pair matrices for j < k, then the
    antisymmetric ones, then the n - 1 diagonal matrices. For n = 3 the
    generators are reordered to the conventional Gell-Mann numbering
    lambda1..lambda8 (pairwise interleaved, diagonals at positions 3 and 8);
    n = 2 already yields the Pauli matrices sigma1, sigma2, sigma3. All
    matrices are views of one (n^2, n, n) array.
    """
    if n < 2:
        raise ValueError(f"basis needs a factor dimension of at least 2, got {n}")
    basis = _basis_array(n)
    return HermitianBasis(n=n, lambda0=basis[0], generators=tuple(basis[1:]))


def sum_lambda_kron(n: int) -> np.ndarray:
    """The n^2 x n^2 sum of g_i (x) g_i over all generators for size n."""
    return sum(kron(g, g) for g in generalized_gellmann(n).generators)


@dataclass(frozen=True, eq=False)
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
        basis = _basis_array(self.n)
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
    flat = _basis_array(n).reshape(n * n, n * n)
    swap = induced_index_perm(DimList((n, n)), Sigma((2, 1)))
    gram = flat[:, swap.index] @ flat.T
    norms = gram.diagonal().real
    gram /= np.outer(norms, norms)  # in place: no second table
    return SwapDecomposition(n=n, table=gram)
