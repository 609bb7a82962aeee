"""Tensor permutation matrices built three independent ways, applied
implicitly, and classified.

The matrix U for factor dimensions (n1, ..., nk) and a position permutation
sigma is the unique 0/1 matrix with

    U . (a1 (x) a2 (x) ... (x) ak) = a_sigma(1) (x) ... (x) a_sigma(k)

for all column vectors a_t of size n_t. The two-factor swap case
U[n(x)p] . (a (x) b) = b (x) a (a of size n, b of size p) is the tensor
commutation matrix, labelled here ``TcmLabel(n, p)``.

Three constructions are provided and must agree:

* :func:`build_delta` places row r's 1 by the index relation j_sigma(t) = i_t
  (rows read over the permuted dimension list, columns over the original);
* :func:`build_elementary_sum` accumulates one elementary matrix per column
  multi-index, at the row given by flattening the sigma-reordered parts over
  the permuted dimensions, all N of them in one scatter-add;
* :func:`build_stride_rule` (two factors, swap only) walks a cursor down the
  columns, descending n rows per column and restarting each sweep one row
  lower, and cross-checks the walk against the closed form that puts the 1 of
  column p*(j-1)+l at row n*(l-1)+j.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable

import numpy as np

from .index_algebra import (DimList, Sigma, _check_arity, _check_length, _digits, _permute_factors,
                            induced_index_perm)
from .matrix_core import (DEFAULT_DENSE_BOUND, _check_capacity, _kron_block, _kron_operands,
                          domain_of)

__all__ = [
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
]


@dataclass(frozen=True, init=False)
class TensorPermSpec:
    """Factor dimensions plus the permutation acting on factor positions.

    A :class:`DimList` or :class:`Sigma` is kept as given; anything else is
    read into one. Errors come in that order: dims, sigma, then their arity.
    """

    dims: DimList
    sigma: Sigma

    def __init__(self, dims: DimList | Iterable[int], sigma: Sigma | Iterable[int]) -> None:
        if not isinstance(dims, DimList):
            dims = DimList(dims)
        if not isinstance(sigma, Sigma):
            sigma = Sigma(sigma)
        _check_arity(dims, sigma)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "sigma", sigma)

    @property
    def size(self) -> int:
        return self.dims.size


@dataclass(frozen=True)
class TcmLabel:
    """Name of the two-factor swap U[n(x)p], which sends a (x) b to b (x) a."""

    n: int
    p: int

    def spec(self) -> TensorPermSpec:
        return tcm_spec(self.n, self.p)

    def __str__(self) -> str:
        return f"{self.n}x{self.p}"


def tcm_spec(n: int, p: int) -> TensorPermSpec:
    """Spec of the tensor commutation matrix U[n(x)p]."""
    return TensorPermSpec(DimList((n, p)), Sigma((2, 1)))


def build_delta(spec: TensorPermSpec, dense_bound: int = DEFAULT_DENSE_BOUND) -> np.ndarray:
    """Dense materialization of the induced index permutation.

    Entry (r, c) is 1 exactly when the row multi-index i (over the permuted
    dimensions) and column multi-index j (over the original dimensions)
    satisfy i_t = j_sigma(t) for every t.
    """
    n = spec.size
    _check_capacity(n, dense_bound)
    dense = np.zeros((n, n), dtype=np.int64)
    dense[np.arange(n), induced_index_perm(spec.dims, spec.sigma).index] = 1
    return dense


def build_elementary_sum(spec: TensorPermSpec,
                         dense_bound: int = DEFAULT_DENSE_BOUND) -> np.ndarray:
    """Sum of one order-N elementary matrix per column multi-index.

    The multi-index (j1, ..., jk) contributes a 1 in the column it flattens
    to and in the row obtained by flattening (j_sigma(1), ..., j_sigma(k))
    over the permuted dimension list. A valid result has exactly N ones.
    """
    n = spec.size
    _check_capacity(n, dense_bound)
    dims = spec.dims.dims
    # 0-based parts of all N column multi-indices at once, last part fastest
    parts = _digits(np.arange(n), dims)
    # flatten each multi-index by the lexicographic (Horner) rule: the column
    # over the original dimensions, the row over the permuted ones
    col = row = 0
    for d, part in zip(dims, parts):
        col = col * d + part
    for s in spec.sigma.mapping:
        row = row * dims[s - 1] + parts[s - 1]
    dense = np.zeros((n, n), dtype=np.int64)
    # add, not assign, so that two multi-indices landing on one entry show as a 2
    np.add.at(dense, (row, col), 1)
    return dense


def _stride_positions_walk(n: int, p: int) -> list[int]:
    # Cursor walk: 1 at (1, 1), then one column right and n rows down per
    # step; when the cursor falls off the bottom, the next sweep restarts
    # one row lower than the previous one. Records each column's 1-based row.
    size = n * p
    rows = []
    row = 1
    for _ in range(size):
        rows.append(row)
        row += n
        if row > size:
            row = row - size + 1
    return rows


def _stride_positions_closed(n: int, p: int) -> np.ndarray:
    # Column p*(j-1)+l carries its 1 at row n*(l-1)+j, so (j, l) run
    # row-major gives the rows in column order.
    return (n * np.arange(p) + np.arange(1, n + 1)[:, None]).ravel()


def build_stride_rule(n: int, p: int, dense_bound: int = DEFAULT_DENSE_BOUND) -> np.ndarray:
    """The swap U[n(x)p] built by the column-walk rule, cross-checked against
    its closed form."""
    if n < 1 or p < 1:
        raise ValueError(f"factor dimensions must be positive, got ({n}, {p})")
    size = n * p
    _check_capacity(size, dense_bound)
    walked = _stride_positions_walk(n, p)
    if not np.array_equal(walked, _stride_positions_closed(n, p)):
        raise RuntimeError(f"stride walk and closed form disagree for ({n}, {p})")
    dense = np.zeros((size, size), dtype=np.int64)
    dense[np.subtract(walked, 1), np.arange(size)] = 1
    return dense


def apply(spec: TensorPermSpec, v):
    """Permute a length-N vector in O(N) without materializing the matrix.

    For v = a1 (x) ... (x) ak the result is a_sigma(1) (x) ... (x) a_sigma(k).
    The length of v is checked first. A numpy array, of any order, comes back
    as a fresh C-ordered base-class array of its dtype, copied once through
    the transposed view of its factor axes, with no index array; trailing
    axes are kept. Lists and tuples come back as lists of the original
    entries, gathered through the index permutation, which raises
    :class:`CapacityError` above ``IMPLICIT_BOUND`` entries before it is built.
    """
    n = prod(spec.dims.dims)
    _check_length(v, n)
    if isinstance(v, np.ndarray):
        return _permute_factors(v, spec.dims.dims, spec.sigma.mapping)
    return induced_index_perm(spec.dims, spec.sigma).apply(v)


# Entries per block of rows in the conjugation check: two blocks and their
# temporaries stay within a core's L2 cache, even for complex128.
_BLOCK_ENTRIES = 2 ** 15


def commutation_conjugation_check(spec: TensorPermSpec, matrices,
                                  dense_bound: int = DEFAULT_DENSE_BOUND) -> bool:
    """True iff U . (A1 (x) ... (x) Ak) = (A_sigma(1) (x) ... (x) A_sigma(k)) . U
    holds, with A_t square of size dims[t] and all factors in one of the two
    scalar domains: exactly for integers, and for complex floats within
    4 * k * eps * max|K'| for k factors, since the two Kronecker products
    multiply each entry's factors in different orders.

    Since U is a permutation matrix, the identity is U . K . U^T = K'. Row r
    of K' = A_sigma(1) (x) ... (x) A_sigma(k), read as a multi-index i over
    the permuted dimensions, is the Kronecker product of row i_t of each
    factor A_sigma(t). Row r of U . K is row col[r] of K = A1 (x) ... (x) Ak,
    col being U's index from :func:`induced_index_perm`: the product of row
    j_t of each A_t, with j the digits of col[r] over the original
    dimensions. U^T then reorders K's columns by sigma (Van Loan 2000), so
    the columns of both sides sit in the sigma layout, fixed once per call:
    one axis per factor of size > 1, holding that factor's columns, ordered
    by factor size with the largest last, so that numpy's inner loop runs
    along the widest factor. K' folds the factor rows in sigma's order and
    U . K . U^T in K's, and the two blocks are compared in memory order. A
    wrong U shows in its rows. Each block holds about 2**15 entries of rows,
    so no N x N array is formed and the extra memory does not grow with
    N**2. Errors are those of the two whole Kronecker products, raised
    before any product is formed.
    """
    _check_capacity(spec.size, dense_bound)
    mats = [np.asarray(a) for a in matrices]
    dims = spec.dims.dims
    order = [s - 1 for s in spec.sigma.mapping]
    if len(mats) != len(dims):
        raise ValueError(f"expected {len(dims)} matrices, got {len(mats)}")
    for t, (a, d) in enumerate(zip(mats, dims), start=1):
        if a.shape != (d, d):
            raise ValueError(f"matrix {t} must be {d}x{d}, got {a.shape}")
        domain_of(a)  # a single factor never reaches kron's domain check
    if len(mats) > 1:  # as in reduce(kron), a single factor is compared as given
        mats = _kron_operands(mats)
        _kron_operands([mats[f] for f in order])  # the int64 reach of K''s chain
    layout = sorted((f for f, d in enumerate(dims) if d > 1), key=dims.__getitem__)
    mats = [a.reshape([d] + [d if t == f else 1 for t in layout])
            for f, (a, d) in enumerate(zip(mats, dims))]
    permuted = [mats[f] for f in order]
    permuted_dims = [dims[f] for f in order]
    col = induced_index_perm(spec.dims, spec.sigma).index
    n = spec.size
    step = max(1, _BLOCK_ENTRIES // n)
    exact = not np.iscomplexobj(mats[0])
    worst, scale = [], []
    for start in range(0, n, step):
        stop = min(start + step, n)
        # K''s row r takes row i_t of factor sigma(t), i its digits over the
        # permuted dimensions; U . K's row r is K's row col[r]
        k_prime = _kron_block(permuted, _digits(np.arange(start, stop), permuted_dims))
        k = _kron_block(mats, _digits(col[start:stop], dims))
        if exact:
            if not np.array_equal(k, k_prime):
                return False
        else:
            scale.append(np.abs(k_prime).max())
            np.subtract(k_prime, k, out=k_prime)
            worst.append(np.abs(k_prime).max())
        del k, k_prime  # freed before the next block is built
    return exact or bool(np.max(worst) <= 4 * len(mats) * np.finfo(np.float64).eps * np.max(scale))


def is_permutation_matrix(m) -> bool:
    """Square 0/1 matrix with exactly one 1 per row and per column.

    Two passes over ``m``: a count of its nonzero entries, which must be N,
    then each row's ``argmax``, whose entry must be a 1. Those N ones in N
    rows leave room for no other nonzero entry, so no entry is tested
    against the set {0, 1}; their columns must then hit every column.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or np.count_nonzero(m) != m.shape[0]:
        return False
    if m.size == 0:
        return True
    cols = m.argmax(axis=1)
    hit = np.zeros(len(cols), dtype=bool)
    hit[cols] = True
    return bool((m[np.arange(len(cols)), cols] == 1).all() and hit.all())


def classify_tcm(m) -> list[TcmLabel]:
    """Every label (n, p) whose swap matrix equals ``m``; empty if none.

    The input must be a square 0/1 matrix. U[n(x)p] sends row i*n + j
    (i < p, j < n) to column j*p + i, so for n >= 2 row 1 holds its 1 in
    column p, and for n = 1 or p = 1 the swap is the identity. The column q
    of row 1's largest entry thus names the one candidate: U[(N/q)(x)q] when
    q divides N, the identity U[N(x)1] when q = 1, and none otherwise.

    A matrix with N nonzero entries, counted in one pass, is that candidate
    exactly when the N entries at the candidate's positions, taken from
    :func:`induced_index_perm`, are all 1: they leave room for no other. Any
    matrix that gets no label takes one more pass, a count of its entries
    equal to 1, which tells a 0/1 matrix (no label) from one that raises.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("classification needs a square matrix")
    order = m.shape[0]
    nonzero = np.count_nonzero(m)
    if order and nonzero == order:
        q = int(m[1].argmax()) if order > 1 else 1
        if q and order % q == 0:
            n = order // q
            cols = induced_index_perm(DimList((n, q)), Sigma((2, 1))).index
            if (m[np.arange(order), cols] == 1).all():
                # the identity, U[N(x)1], is also U[1(x)N]
                pairs = {(n, q), (q, n)} if q == 1 else {(n, q)}
                return [TcmLabel(a, b) for a, b in sorted(pairs)]
    if np.count_nonzero(m == 1) != nonzero:
        raise ValueError("classification needs a 0/1 matrix")
    return []


@dataclass(frozen=True)
class ClosureReport:
    """Whether {identity, U[n(x)p], U[p(x)n]} is closed under matrix product;
    if not, ``witness`` names the first product that escapes the set."""

    closed: bool
    witness: str | None = None


def closure_check(n: int, p: int) -> ClosureReport:
    """Test closure of {U[1(x)np], U[n(x)p], U[p(x)n]} under matrix product.

    Each matrix is its index permutation, so every ordered pair is composed
    in O(np) and the product looked up in the set by value; the implicit
    bound limits the order. U[n(x)p] sends entry i < np - 1 to
    n * i mod (np - 1) and U[p(x)n] is its inverse, so closure holds exactly
    when U[n(x)p] has order at most 3: when min(n, p) = 1 (U = I), n = p
    (U involutive), or p = n**2 or n = p**2 (U of order 3). It fails for
    every other pair: already for (n, p) = (3, 2) the square of U[3(x)2] is
    a permutation matrix outside the set.
    """
    elements = [
        (f"U[{a}x{b}]", induced_index_perm(DimList((a, b)), Sigma((2, 1))))
        for a, b in ((1, n * p), (n, p), (p, n))
    ]
    members = {perm for _, perm in elements}
    for name_a, a in elements:
        for name_b, b in elements:
            if a.compose(b) not in members:
                return ClosureReport(closed=False, witness=f"{name_a} * {name_b}")
    return ClosureReport(closed=True)
