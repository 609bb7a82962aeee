"""Independent brute-force oracles used to derive and cross-check expected
values. These deliberately avoid the library's own code paths: enumeration
instead of arithmetic, explicit block assembly instead of vectorized kron.
"""

import itertools
import math
from functools import partial, reduce

import numpy as np

from tensorperm import (
    DEFAULT_DENSE_BOUND,
    ClosureReport,
    DimList,
    Sigma,
    TcmLabel,
    build_stride_rule,
    generalized_gellmann,
    induced_index_perm,
    kron,
    matrices_close,
)
from tensorperm.formats import _fmt_float
from tensorperm.index_algebra import _factor_axes, _flatten, _unflatten
from tensorperm.matrix_core import _check_capacity, domain_of


def lex_position(dims, parts):
    """1-based rank of a multi-index in the lexicographic enumeration of all
    multi-indices over ``dims``."""
    ranges = [range(1, n + 1) for n in dims]
    return list(itertools.product(*ranges)).index(tuple(parts)) + 1


def naive_kron(a, b):
    """Kronecker product by explicit block assembly over python lists."""
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a[i][j] * b[k][l]
    return out


def naive_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum(a[i][m] * b[m][j] for m in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def perm_dense(col_of_row):
    """0/1 matrix with row r's 1 at column col_of_row[r-1] (1-based)."""
    n = len(col_of_row)
    out = [[0] * n for _ in range(n)]
    for r, c in enumerate(col_of_row):
        out[r][c - 1] = 1
    return out


def delta_entry_matrix(dims, mapping):
    """Entry-by-entry construction: rows carry multi-indices over the
    permuted dimensions, columns over the original ones, and entry (i, j) is
    1 iff i_t = j_sigma(t) for every t."""
    out_dims = [dims[s - 1] for s in mapping]
    row_indices = list(itertools.product(*[range(1, n + 1) for n in out_dims]))
    col_indices = list(itertools.product(*[range(1, n + 1) for n in dims]))
    size = math.prod(dims)
    assert len(row_indices) == len(col_indices) == size
    return [
        [
            int(all(i[t] == j[mapping[t] - 1] for t in range(len(dims))))
            for j in col_indices
        ]
        for i in row_indices
    ]


def dim_lists(max_size, max_k=4):
    """Every factor dimension list with product at most ``max_size``:
    all lists of one or two factors (ones included), plus all lists of three
    or four factors with every factor at least 2. Ones beyond two factors
    only pad the space without changing any matrix content.
    """
    out = [(n,) for n in range(1, max_size + 1)]
    for a in range(1, max_size + 1):
        for b in range(1, max_size // a + 1):
            out.append((a, b))
    for k in range(3, max_k + 1):
        def extend(prefix, prod):
            if len(prefix) == k:
                out.append(tuple(prefix))
                return
            f = 2
            while prod * f * (2 ** (k - len(prefix) - 1)) <= max_size:
                extend(prefix + (f,), prod * f)
                f += 1
        extend((), 1)
    return out


def all_specs(max_size, max_k=4):
    """Every (dims, sigma image list) pair for the dim_lists enumeration."""
    for dims in dim_lists(max_size, max_k):
        for mapping in itertools.permutations(range(1, len(dims) + 1)):
            yield dims, mapping


def loop_elementary_sum(dims, mapping):
    """build_elementary_sum one column multi-index at a time: add a 1 at the
    column the multi-index flattens to over ``dims`` and the row its
    sigma-reordered parts flatten to over the permuted dimensions."""
    out_dims = tuple(dims[s - 1] for s in mapping)
    n = math.prod(dims)
    dense = np.zeros((n, n), dtype=np.int64)
    for j in itertools.product(*(range(1, d + 1) for d in dims)):
        col = _flatten(tuple(dims), j)
        row = _flatten(out_dims, tuple(j[s - 1] for s in mapping))
        dense[row - 1, col - 1] += 1
    return dense


def induced_cols_per_row(dims, mapping):
    """1-based column of each row's 1, one row at a time: unflatten the row
    over the permuted dimensions, send part t to factor sigma(t), flatten over
    the original dimensions. Uses only the library's per-index helpers, not
    its array construction of the same permutation."""
    out_dims = tuple(dims[s - 1] for s in mapping)
    cols = []
    for r in range(1, math.prod(dims) + 1):
        i = _unflatten(out_dims, r)
        j = [0] * len(dims)
        for t, s in enumerate(mapping):
            j[s - 1] = i[t]
        cols.append(_flatten(tuple(dims), tuple(j)))
    return tuple(cols)


def dense_closure(n, p):
    """closure_check by dense int64 products: multiply every ordered pair of
    {I, U[n(x)p], U[p(x)n]} and look the product up in the set. The swaps
    come from the stride-rule construction, not from the index permutation."""
    size = n * p
    elements = [
        (f"U[1x{size}]", np.eye(size, dtype=np.int64)),
        (f"U[{n}x{p}]", build_stride_rule(n, p)),
        (f"U[{p}x{n}]", build_stride_rule(p, n)),
    ]
    members = {mat.tobytes() for _, mat in elements}
    for name_a, a in elements:
        for name_b, b in elements:
            if (a @ b).tobytes() not in members:
                return ClosureReport(closed=False, witness=f"{name_a} * {name_b}")
    return ClosureReport(closed=True)


def dense_trace_decomposition(n):
    """Coefficient table of U[n(x)n] over the basis products, each entry the
    trace Tr(U . (B_a (x) B_b)) of a dense Kronecker product, divided by
    Tr(B_a^2) * Tr(B_b^2). O(n^8); the swap comes from the stride rule."""
    u = build_stride_rule(n, n).astype(np.complex128)
    basis = generalized_gellmann(n).with_identity()
    norms = [float(np.trace(b @ b).real) for b in basis]
    table = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for a, left in enumerate(basis):
        for b, right in enumerate(basis):
            table[a, b] = np.sum(u.T * np.kron(left, right)) / (norms[a] * norms[b])
    return table


def isin_is_permutation_matrix(m):
    """is_permutation_matrix by an entry-set test and row and column sums."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not np.isin(m, (0, 1)).all():
        return False
    return bool((m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all())


def isin_classify_tcm(m):
    """classify_tcm by an entry-set test, row sums, and a compare of the
    column of each row's 1 with every swap's index permutation."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("classification needs a square matrix")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("classification needs a 0/1 matrix")
    order = m.shape[0]
    if order == 0 or not (m.sum(axis=1) == 1).all():
        return []
    cols = m.argmax(axis=1)
    swaps = [(n, order // n) for n in range(1, order + 1) if order % n == 0]
    return [TcmLabel(n, p) for n, p in swaps
            if np.array_equal(cols, induced_index_perm(DimList((n, p)), Sigma((2, 1))).index)]


def nested_write_decomposition(dec, tol):
    """write_decomposition by a nested walk over every (a, b) of the table."""
    lines = [f"n {dec.n}", f"c00 {_fmt_float(dec.c00)}"]
    count = dec.table.shape[0]
    for a in range(count):
        for b in range(count):
            if a == 0 and b == 0:
                continue
            c = dec.table[a, b]
            if abs(c) > tol:
                lines.append(f"{a} {b} {_fmt_float(c.real)} {_fmt_float(c.imag)}")
    return "\n".join(lines) + "\n"


def whole_conjugation_check(spec, matrices, dense_bound=DEFAULT_DENSE_BOUND):
    """commutation_conjugation_check on the whole N x N Kronecker products:
    both chains are formed by ``reduce(kron)``, and K, read as a tensor of
    shape dims + dims, is compared through a view with both axis groups
    reordered by sigma. Errors are those of the kron chains."""
    _check_capacity(spec.size, dense_bound)
    mats = [np.asarray(a) for a in matrices]
    dims = spec.dims.dims
    if len(mats) != len(dims):
        raise ValueError(f"expected {len(dims)} matrices, got {len(mats)}")
    for t, (a, d) in enumerate(zip(mats, dims), start=1):
        if a.shape != (d, d):
            raise ValueError(f"matrix {t} must be {d}x{d}, got {a.shape}")
        domain_of(a)  # a single factor never reaches kron's domain check
    kron_within_bound = partial(kron, dense_bound=dense_bound)
    forward = reduce(kron_within_bound, mats)
    permuted = reduce(kron_within_bound, [mats[s - 1] for s in spec.sigma.mapping])
    shape, axes = _factor_axes(dims, spec.sigma.mapping)
    out_shape = tuple(shape[a] for a in axes)
    conjugated = forward.reshape(shape + shape).transpose(axes + [a + len(shape) for a in axes])
    if not np.iscomplexobj(permuted):
        return bool(np.array_equal(conjugated, permuted.reshape(out_shape + out_shape)))
    tol = 4 * len(mats) * np.finfo(np.float64).eps * np.abs(permuted).max()
    return matrices_close(conjugated.reshape(permuted.shape), permuted, tol)


def swap_table(order):
    """CLI ``classify --order`` text from every swap's index permutation,
    grouped by value: each label, ``identity`` if its permutation moves
    nothing, and the labels of the same permutation."""
    perms = {(n, order // n): induced_index_perm(DimList((n, order // n)), Sigma((2, 1)))
             for n in range(1, order + 1) if order % n == 0}
    labels_of = {}  # IndexPerm equality and hashing are by value
    for pair, perm in perms.items():
        labels_of.setdefault(perm, []).append(pair)
    identity = perms[(1, order)]  # U[1(x)N] moves nothing
    lines = []
    for (n, p), perm in perms.items():
        marks = []
        if perm == identity:
            marks.append("identity")
        partners = [f"{a}x{b}" for a, b in labels_of[perm] if (a, b) != (n, p)]
        if partners:
            marks.append("= " + " = ".join(partners))
        lines.append(" ".join([f"{n}x{p}", *marks]).rstrip())
    return "".join(line + "\n" for line in lines)
