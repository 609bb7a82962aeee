"""Dense matrices over two scalar domains, with Kronecker-product algebra.

Matrices are plain numpy arrays in one of two domains: exact integers
(int64, compared with exact equality) or complex floats (complex128,
compared within an explicit tolerance). Floating real arrays are rejected
so that every comparison is either exact or deliberately toleranced.

Integer results are exact: unsigned entries past int64 are refused rather
than wrapped, and :func:`kron` and :func:`matmul` refuse integer inputs whose
product could leave int64.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "DEFAULT_DENSE_BOUND",
    "CapacityError",
    "int_matrix",
    "complex_matrix",
    "domain_of",
    "kron",
    "matmul",
    "elementary",
    "elementary_kron_index",
    "kron_basis_rank",
    "rank_over_rationals",
    "matrices_equal",
    "matrices_close",
]

# Largest row/column count for dense materialization; beyond it only
# implicit index-permutation operations are allowed.
DEFAULT_DENSE_BOUND = 4096

INT_DOMAIN = "int"
COMPLEX_DOMAIN = "complex"
_INT64_MAX = int(np.iinfo(np.int64).max)


class CapacityError(Exception):
    """A dense object would exceed the configured row/column bound, or an
    index permutation the implicit bound."""


def _check_capacity(n: int, dense_bound: int) -> None:
    """Refuse a dense square matrix of order ``n`` above ``dense_bound``."""
    if n > dense_bound:
        raise CapacityError(f"dense order {n} exceeds dense bound {dense_bound}")


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got {m.ndim}-d data")
    if domain_of(m) == COMPLEX_DOMAIN:
        return m.astype(np.complex128, copy=False)
    # uint64 is the one integer dtype whose values can leave int64
    if m.dtype == np.uint64 and m.size and int(m.max()) > _INT64_MAX:
        raise ValueError(f"integer entry {int(m.max())} is out of int64 range")
    return m.astype(np.int64, copy=False)


def int_matrix(rows) -> np.ndarray:
    """Exact-integer matrix from nested sequences."""
    m = _as_matrix(rows)
    if m.dtype != np.int64:
        raise ValueError("entries are not integers")
    return m


def complex_matrix(rows) -> np.ndarray:
    """Complex-float matrix from nested sequences (real input is promoted)."""
    return _as_matrix(np.array(rows, dtype=np.complex128))


def domain_of(a: np.ndarray) -> str:
    """Scalar domain tag of a matrix: 'int' or 'complex'."""
    dtype = np.asarray(a).dtype
    if dtype.kind in "iu":
        return INT_DOMAIN
    if dtype.kind == "c":
        return COMPLEX_DOMAIN
    raise ValueError(f"unsupported scalar domain {dtype}: use exact integers or complex floats")


def _common_domain(a: np.ndarray, b: np.ndarray) -> str:
    da, db = domain_of(a), domain_of(b)
    if da != db:
        raise ValueError(f"scalar domain mismatch: {da} vs {db}")
    return da


def _max_abs(m: np.ndarray) -> int:
    # a Python int, since abs() of the int64 minimum wraps in numpy
    return max(-int(m.min()), int(m.max())) if m.size else 0


def _check_reach(bound: int) -> None:
    if bound > _INT64_MAX:
        raise ValueError(f"integer entries could reach {bound}, past int64")


def _check_int64(a: np.ndarray, b: np.ndarray, terms: int) -> None:
    """Refuse integer operands whose sums of ``terms`` entrywise products
    could leave int64, before any product is formed."""
    _check_reach(terms * _max_abs(a) * _max_abs(b))


def kron(a, b, dense_bound: int = DEFAULT_DENSE_BOUND) -> np.ndarray:
    """Kronecker product: the block matrix whose (i, j) block is a[i, j] * b.

    numpy's innermost loop runs over the last axis of the product. When b is
    narrower than a, each row of a is repeated and each row of b tiled to the
    full output width, so that loop covers a whole output row of ca * cb
    entries rather than b's cb columns. The repeated a is a temporary of
    1/rb the output's size.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    domain = _common_domain(a, b)
    ra, ca = a.shape
    rb, cb = b.shape
    _check_capacity(max(ra * rb, ca * cb), dense_bound)
    if domain == INT_DOMAIN:
        _check_int64(a, b, 1)
    if cb < ca:
        product = np.repeat(a, cb, axis=1)[:, None, :] * np.tile(b, (1, ca))[None, :, :]
    else:
        product = a[:, None, :, None] * b[None, :, None, :]
    return product.reshape(ra * rb, ca * cb)


def _kron_operands(mats: list) -> list[np.ndarray]:
    """The factors of ``reduce(kron, mats)`` as :func:`kron` converts them,
    refused where that chain would refuse them, with its error and in its
    order, but with no product formed.

    max|A (x) B| = max|A| * max|B| for integers, so the int64 reach of each
    step of the chain is the running product of the factors' max-abs values.
    """
    first = _as_matrix(mats[0])
    operands = [first]
    reach = _max_abs(first) if domain_of(first) == INT_DOMAIN else None
    for b in mats[1:]:
        b = _as_matrix(b)
        _common_domain(first, b)
        if reach is not None:
            reach *= _max_abs(b)
            _check_reach(reach)
        operands.append(b)
    return operands


def _kron_block(mats: list[np.ndarray], rows: list[np.ndarray]) -> np.ndarray:
    """Rows of mats[0] (x) mats[1] (x) ..., block row b taking row rows[t][b]
    of factor t (a 1-entry index broadcasts over the block).

    Each factor comes with its columns already reshaped onto an axis of its
    own, so the block's columns come out in the layout those axes set, not
    in the product's column order. The block is the left fold that
    ``reduce(kron, mats)`` computes, with the running product on the left of
    every multiplication, so each entry is the same product.
    """
    block = mats[0][rows[0]]
    for a, r in zip(mats[1:], rows[1:]):
        block = block * a[r]
    return block


def matmul(a, b) -> np.ndarray:
    a, b = _as_matrix(a), _as_matrix(b)
    domain = _common_domain(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}")
    if domain == INT_DOMAIN:
        _check_int64(a, b, a.shape[1])
    return a @ b


def elementary(shape, i: int, j: int) -> np.ndarray:
    """Matrix with a single 1 at (i, j), 1-based. ``shape`` is a side length
    for a square matrix or a (rows, cols) pair."""
    rows, cols = (shape, shape) if np.ndim(shape) == 0 else (shape[0], shape[1])
    rows, cols, i, j = map(operator.index, (rows, cols, i, j))
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid elementary matrix shape {rows}x{cols}")
    if not 1 <= i <= rows:
        raise ValueError(f"row index out of range: got {i}, matrix has {rows} rows")
    if not 1 <= j <= cols:
        raise ValueError(f"column index out of range: got {j}, matrix has {cols} columns")
    m = np.zeros((rows, cols), dtype=np.int64)
    m[i - 1, j - 1] = 1
    return m


def elementary_kron_index(n: int, p: int, i: int, j: int, k: int, l: int) -> tuple[int, int]:
    """Position (row, col) of the single 1 in the product of an n x n
    elementary matrix at (i, j) with a p x p elementary matrix at (k, l):

        row = p*(i - 1) + k,   col = p*(j - 1) + l
    """
    n, p, i, j, k, l = map(operator.index, (n, p, i, j, k, l))
    if not 1 <= i <= n or not 1 <= j <= n:
        raise ValueError(f"elementary indices ({i}, {j}) out of range for size {n}")
    if not 1 <= k <= p or not 1 <= l <= p:
        raise ValueError(f"elementary indices ({k}, {l}) out of range for size {p}")
    return p * (i - 1) + k, p * (j - 1) + l


def rank_over_rationals(rows) -> int:
    """Rank by Gaussian elimination over exact rationals.

    Takes any iterable of equal-length integer (or Fraction) rows. This is
    deliberately independent of floating-point linear algebra so it can serve
    as an exact oracle.
    """
    from fractions import Fraction  # here, so that importing the package skips it and decimal

    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def kron_basis_rank(n: int, m: int, p: int, r: int,
                    dense_bound: int = DEFAULT_DENSE_BOUND) -> int:
    """Rank of the n*m*p*r Kronecker products of the two elementary bases,
    each flattened to a vector. Full rank (= n*m*p*r) means the products form
    a basis of the (n*p) x (m*r) matrices."""
    if min(n, m, p, r) < 1:
        raise ValueError("all dimensions must be >= 1")
    _check_capacity(n * m * p * r, dense_bound)
    stacked = []
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            left = elementary((n, m), i, j)
            for k in range(1, p + 1):
                for l in range(1, r + 1):
                    right = elementary((p, r), k, l)
                    stacked.append(kron(left, right, dense_bound=dense_bound).ravel().tolist())
    return rank_over_rationals(stacked)


def matrices_equal(a, b) -> bool:
    """Exact equality for exact-integer matrices. Complex matrices are
    refused: compare those with :func:`matrices_close` and a tolerance."""
    a, b = _as_matrix(a), _as_matrix(b)
    if domain_of(a) != INT_DOMAIN or domain_of(b) != INT_DOMAIN:
        raise ValueError("complex matrices require an explicit tolerance; use matrices_close")
    return a.shape == b.shape and bool(np.array_equal(a, b))


def matrices_close(a, b, tol: float) -> bool:
    """Entrywise comparison within ``tol`` (mandatory). Accepts either domain,
    so complex results can be checked against exact integer references."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a.astype(np.complex128) - b.astype(np.complex128))) <= tol)
