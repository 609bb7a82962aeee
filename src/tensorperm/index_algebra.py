"""Multi-index flattening and the index permutations induced by reordering tensor factors.

All indices in the public model are 1-based: a multi-index (i1, ..., ik) over
factor dimensions (n1, ..., nk) flattens to the linear position

    s = nk*...*n2*(i1 - 1) + nk*...*n3*(i2 - 1) + ... + nk*(i_{k-1} - 1) + ik

which is exactly the rank of the multi-index in lexicographic order.
Reordering the factors by a permutation ``sigma`` induces a permutation of the
linear indices {1, ..., N}; that induced permutation *is* the tensor
permutation matrix in implicit form, stored one column index per row.

Reordering factors is a tensor transposition: a length-N array read with
one axis per factor of size > 1, those axes reordered by sigma, and read
back in row order. :func:`_permute_factors` works out that shape and axis
order in two plain loops and copies the transposed view once into a fresh
base-class ``ndarray``; ``perm_matrix.apply`` permutes a numpy array that
way, with no index array. :class:`IndexPerm` holds the permutation as one
read-only 0-based ``np.intp`` array, and :func:`induced_index_perm` builds
that array by the same transposition of ``arange(N)``, for what needs the
index itself: ``apply`` on lists and tuples, the checkers, the dense
constructions and the ``perm`` text format. Orders up to 2**20 are cached by
(dims, sigma) with ``functools.lru_cache``, 32 at a time, so the cache holds
at most 256 MiB of index arrays. An index takes 8 bytes per entry, so
building one above :data:`IMPLICIT_BOUND` entries raises
:class:`CapacityError` before anything is allocated; the transposed copy of
a numpy array needs no index, and its only bound is the memory for its
output.

:class:`DimList` and :class:`Sigma` read and check their entries once, in
``__init__``. Of index permutations, only what enters from outside is
checked: ``IndexPerm(col_of_row)``, and through it ``formats.parse_perm``
and unpickling, checks in O(N) that the columns form a permutation. The transposition, ``inverse`` and ``compose``
yield permutations by construction and are trusted. Conversion to 1-based
indices happens only at the API and format boundaries. The per-index
:func:`flatten` and :func:`unflatten` stay independent of that core, so
tests can check one against the other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .matrix_core import CapacityError

__all__ = [
    "DimList",
    "Sigma",
    "IndexPerm",
    "IMPLICIT_BOUND",
    "flatten",
    "unflatten",
    "induced_index_perm",
]

# Largest order N of an index permutation; its index array takes 8 bytes per
# entry, 1 GiB at the bound.
IMPLICIT_BOUND = 2**27

# Largest order whose induced permutation is cached; 32 cached index arrays
# of this size take 256 MiB.
_CACHED_ORDER = 2**20


@dataclass(frozen=True, init=False)
class DimList:
    """Ordered factor dimensions (n1, ..., nk) of a tensor-product space."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]) -> None:
        dims = tuple(map(operator.index, dims))
        if not dims:
            raise ValueError("dimension list must contain at least one factor")
        for t, n in enumerate(dims, start=1):
            if n < 1:
                raise ValueError(f"factor {t} must be a positive dimension, got {n}")
        object.__setattr__(self, "dims", dims)

    @property
    def size(self) -> int:
        """Total linear size N = n1*n2*...*nk."""
        return prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, t: int) -> int:
        return self.dims[t]

    def permuted(self, sigma: "Sigma") -> "DimList":
        """The reordered list (n_sigma(1), ..., n_sigma(k))."""
        _check_arity(self, sigma)
        return DimList(tuple(self.dims[s - 1] for s in sigma.mapping))


@dataclass(frozen=True, init=False)
class Sigma:
    """A permutation of the factor positions {1, ..., k}, stored as the image list.

    ``mapping[t-1]`` is sigma(t). The identity on three factors is (1, 2, 3);
    the swap of two factors is (2, 1).
    """

    mapping: tuple[int, ...]

    def __init__(self, mapping: Iterable[int]) -> None:
        mapping = tuple(map(operator.index, mapping))
        k = len(mapping)
        if sorted(mapping) != list(range(1, k + 1)):
            raise ValueError(f"sigma is not a permutation of 1..{k}: {mapping}")
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def identity(cls, k: int) -> "Sigma":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def reversal(cls, k: int) -> "Sigma":
        """The full reversal (k, k-1, ..., 1); for k=2 this is the swap."""
        return cls(tuple(range(k, 0, -1)))

    def __len__(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "Sigma":
        # the inverse sends sigma(t) to t: the positions t in order of sigma(t)
        return Sigma(tuple(sorted(range(1, len(self) + 1), key=lambda t: self.mapping[t - 1])))

    def compose(self, other: "Sigma") -> "Sigma":
        """The permutation t -> self(other(t))."""
        if len(other) != len(self):
            raise ValueError("cannot compose permutations of different lengths")
        return Sigma(tuple(self.mapping[v - 1] for v in other.mapping))


def _check_arity(dims: DimList, sigma: Sigma) -> None:
    """Refuse a sigma whose length is not the number of factors."""
    if len(sigma.mapping) != len(dims.dims):
        raise ValueError(
            f"sigma has {len(sigma.mapping)} positions but there are {len(dims.dims)} factors")


def flatten(dims: DimList, parts: Sequence[int]) -> int:
    """Linear position (1-based) of a multi-index, per the lexicographic rule."""
    parts = tuple(map(operator.index, parts))
    if len(parts) != len(dims):
        raise ValueError(f"multi-index has {len(parts)} parts but there are {len(dims)} factors")
    s = 0
    for t, (n, i) in enumerate(zip(dims, parts), start=1):
        if not 1 <= i <= n:
            raise ValueError(f"index part {t} out of range: got {i}, factor dimension is {n}")
        s = s * n + (i - 1)
    return s + 1


def unflatten(dims: DimList, s: int) -> tuple[int, ...]:
    """Multi-index whose linear position is ``s``; inverse of :func:`flatten`."""
    s = operator.index(s)
    if not 1 <= s <= dims.size:
        raise ValueError(f"linear index out of range: got {s}, size is {dims.size}")
    rem, parts = s - 1, []
    for n in reversed(dims.dims):
        rem, r = divmod(rem, n)
        parts.append(r + 1)
    return tuple(reversed(parts))


def _digits(values: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """0-based mixed-radix digits of ``values`` over ``dims``, last digit
    fastest; a size-1 factor's digit is a 1-entry zero, which broadcasts."""
    digits = [np.zeros(1, dtype=np.intp)] * len(dims)
    for t in range(len(dims) - 1, -1, -1):
        if dims[t] > 1:
            values, digits[t] = np.divmod(values, dims[t])
    return digits


def _check_implicit(n: int) -> None:
    """Refuse an order above :data:`IMPLICIT_BOUND`, before anything is allocated."""
    if n > IMPLICIT_BOUND:
        raise CapacityError(f"implicit order {n} exceeds implicit bound {IMPLICIT_BOUND}")


def _check_length(v, n: int) -> None:
    """Refuse a vector whose length is not the order ``n``."""
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} does not match size {n}")


def _validated(index: np.ndarray) -> np.ndarray:
    """Freeze a 0-based column index from outside after an O(N) range and scatter check."""
    n = index.size
    if index.ndim != 1:
        raise ValueError(f"col_of_row must be one-dimensional, got {index.ndim}-d data")
    if n and (index.min() < 0 or index.max() >= n):
        raise ValueError(f"col_of_row is not a permutation of 1..{n}: entry out of range")
    hit = np.zeros(n, dtype=bool)
    hit[index] = True
    if not hit.all():
        raise ValueError(f"col_of_row is not a permutation of 1..{n}: repeated entry")
    index.flags.writeable = False
    return index


class IndexPerm:
    """A permutation of {1, ..., N} in matrix form: row r carries its 1 in
    column ``col_of_row[r-1]``.

    Applying it to a vector v therefore yields out[r] = v[col_of_row[r]].
    The permutation is held as one read-only 0-based ``np.intp`` array,
    :attr:`index`; ``col_of_row`` is the same permutation as a 1-based tuple
    of ints, built on each access. Equality and hashing are by value. The
    constructor refuses float and complex entries, in an object array too,
    and checks in O(N) that the rest form a permutation.
    """

    __slots__ = ("_index",)

    def __init__(self, col_of_row: Sequence[int]) -> None:
        cols = np.asarray(col_of_row)
        if cols.dtype.kind in "fc" and cols.size:  # an empty sequence reads as float64
            raise ValueError(f"col_of_row is not a permutation: {cols.dtype} entries")
        if cols.dtype == object:  # the cast below takes int() of each entry, truncating floats
            try:
                entries = [operator.index(c) for c in cols.flat]
            except TypeError as e:
                raise ValueError(f"col_of_row is not a permutation: {e}") from None
            cols = np.array(entries, dtype=object).reshape(cols.shape)
        try:
            self._index = _validated(cols.astype(np.intp, copy=False) - 1)
        except OverflowError:
            raise ValueError("col_of_row is not a permutation: entry out of range") from None

    @classmethod
    def _from_index(cls, index: np.ndarray) -> "IndexPerm":
        # ``index`` is 0-based and a permutation by construction: not checked, owned and frozen here
        index.flags.writeable = False
        perm = cls.__new__(cls)
        perm._index = index
        return perm

    @property
    def index(self) -> np.ndarray:
        """Read-only 0-based column of each row's 1, as ``np.intp``."""
        return self._index

    @property
    def col_of_row(self) -> tuple[int, ...]:
        """1-based column of each row's 1."""
        return tuple((self._index + 1).tolist())

    @property
    def n_rows(self) -> int:
        return self._index.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexPerm):
            return NotImplemented
        return np.array_equal(self._index, other._index)

    def __hash__(self) -> int:
        return hash(self._index.tobytes())

    def __repr__(self) -> str:
        return f"IndexPerm(col_of_row={self.col_of_row!r})"

    def __reduce__(self):
        return IndexPerm, (self._index + 1,)

    def apply(self, v):
        """Permute a vector in O(N) without materializing the matrix.

        Lists and tuples come back as lists of the original entries; numpy
        arrays come back as numpy arrays (gathered, so the input is never
        modified).
        """
        _check_length(v, self.n_rows)
        if isinstance(v, np.ndarray):
            return v[self._index]
        # an object array holds the entries themselves, so the gather
        # returns the caller's objects unconverted
        return np.fromiter(v, dtype=object, count=len(v))[self._index].tolist()

    def inverse(self) -> "IndexPerm":
        inv = np.empty_like(self._index)
        inv[self._index] = np.arange(self.n_rows, dtype=np.intp)
        return IndexPerm._from_index(inv)

    def compose(self, other: "IndexPerm") -> "IndexPerm":
        """Index permutation of the matrix product self . other."""
        if other.n_rows != self.n_rows:
            raise ValueError("cannot compose index permutations of different sizes")
        return IndexPerm._from_index(other._index[self._index])


def _permute_factors(a: np.ndarray, dims: tuple[int, ...], mapping: tuple[int, ...]) -> np.ndarray:
    """A fresh C-ordered copy of ``a`` whose leading axis, read as one axis
    per factor, has those axes reordered by sigma; trailing axes are kept.

    Entry i of the result is entry j of ``a`` with j_sigma(t) = i_t, so this
    applies the induced permutation in one strided copy, with no index array.
    A size-1 factor moves no index, so it gets no axis: every kept axis is at
    least 2, so at most log2(N) remain, well inside numpy's limit on the
    number of axes. ``axis_of[t]`` is factor t's axis, and the axes are taken
    in sigma's order. ``a`` is read as a base-class ``ndarray``, so a
    subclass such as a memmap, a masked array or an ``np.matrix``, which
    stays 2-D through a reshape, gives a plain copy of its dtype.
    """
    axis_of, shape = [], []
    for n in dims:
        axis_of.append(len(shape))
        if n > 1:
            shape.append(n)
    axes = []
    for s in mapping:
        if dims[s - 1] > 1:
            axes.append(axis_of[s - 1])
    rest = a.shape[1:]
    axes.extend(range(len(shape), len(shape) + len(rest)))
    view = np.asarray(a).reshape(tuple(shape) + rest).transpose(axes)
    return np.array(view, order="C").reshape(a.shape)


def _induced_index(dims: tuple[int, ...], mapping: tuple[int, ...]) -> np.ndarray:
    # Entry j of arange(N) is the 0-based column of multi-index j, so
    # permuting its factors gives, for each row i, the column with
    # j_sigma(t) = i_t.
    return _permute_factors(np.arange(prod(dims), dtype=np.intp), dims, mapping)


@lru_cache(maxsize=32)
def _cached_perm(dims: tuple[int, ...], mapping: tuple[int, ...]) -> IndexPerm:
    return IndexPerm._from_index(_induced_index(dims, mapping))


def induced_index_perm(dims: DimList, sigma: Sigma) -> IndexPerm:
    """The permutation of linear indices induced by reordering factors by sigma.

    Row r, read as a multi-index (i1, ..., ik) over the *output* dimensions
    (n_sigma(1), ..., n_sigma(k)), is sent to the column obtained by
    flattening, over the *input* dimensions, the multi-index (j1, ..., jk)
    with j_sigma(t) = i_t. Equivalently: applying the result to a1 (x) ... (x) ak
    produces a_sigma(1) (x) ... (x) a_sigma(k).

    Raises :class:`CapacityError` above :data:`IMPLICIT_BOUND` entries,
    before anything is allocated.
    """
    _check_arity(dims, sigma)
    n = dims.size
    _check_implicit(n)
    if n <= _CACHED_ORDER:
        return _cached_perm(dims.dims, sigma.mapping)
    return IndexPerm._from_index(_induced_index(dims.dims, sigma.mapping))
