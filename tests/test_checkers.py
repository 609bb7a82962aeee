"""The checkers, which run on index permutations, against dense matrix
algebra oracles."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorperm import (
    CapacityError,
    DimList,
    Sigma,
    TcmLabel,
    TensorPermSpec,
    build_delta,
    build_stride_rule,
    classify_tcm,
    closure_check,
    commutation_conjugation_check,
    decompose_swap,
    index_algebra,
    induced_index_perm,
    is_permutation_matrix,
    kron,
    matrix_core,
    perm_matrix,
    tcm_spec,
)

import oracles
from oracles import (
    all_specs,
    dense_closure,
    dense_trace_decomposition,
    isin_classify_tcm,
    isin_is_permutation_matrix,
    naive_kron,
    whole_conjugation_check,
)


def test_closure_matches_dense_products_up_to_64():
    for n in range(1, 65):
        for p in range(1, 64 // n + 1):
            assert closure_check(n, p) == dense_closure(n, p), (n, p)


def test_closure_at_order_4096():
    assert closure_check(64, 64).closed
    assert closure_check(64, 32).witness == "U[64x32] * U[64x32]"


def _dense_labels(m, swaps):
    return [TcmLabel(n, p) for (n, p), u in swaps.items() if np.array_equal(m, u)]


def test_classify_matches_dense_compare_on_swaps_and_their_products():
    # 4640 matrices: every swap of each order up to 120, and every product of two
    for order in range(1, 121):
        swaps = {(n, order // n): build_stride_rule(n, order // n)
                 for n in range(1, order + 1) if order % n == 0}
        for u in swaps.values():
            assert classify_tcm(u) == _dense_labels(u, swaps)
            for v in swaps.values():
                assert classify_tcm(u @ v) == _dense_labels(u @ v, swaps)


@pytest.mark.parametrize("rows", [
    # each of these, read for the first 1 or for every 1 of each row, gives
    # the identity's columns 1, 2, 3
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 1, 0], [0, 0, 0], [0, 0, 1]],
    # one 1 per row in repeated columns: row 1's column names the identity,
    # then U[2x2], and neither matches
    [[0, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
])
def test_classify_refuses_zero_one_matrices_that_are_not_permutations(rows):
    assert classify_tcm(np.array(rows, dtype=np.int64)) == []


def _perm_dense(cols):
    m = np.zeros((len(cols), len(cols)), dtype=np.int64)
    m[np.arange(len(cols)), cols] = 1
    return m


def test_classify_matches_isin_oracle_on_swaps_to_400():
    for order in range(121, 401):
        for n in (n for n in range(1, order + 1) if order % n == 0):
            m = _perm_dense(induced_index_perm(DimList((n, order // n)), Sigma((2, 1))).index)
            assert classify_tcm(m) == isin_classify_tcm(m), (n, order // n)


def test_classify_matches_isin_oracle_on_random_permutations():
    # Row 1's column is moved to 0 (no candidate), 1 (the identity) and each
    # divisor of the order (one swap), so every branch of the row-1 rule sees
    # a permutation that its candidate does not match.
    rng = np.random.default_rng(17)
    for order in range(2, 97):
        for target in [None, 0, 1, *(q for q in range(2, order) if order % q == 0)]:
            cols = rng.permutation(order)
            if target is not None:
                r = int(np.flatnonzero(cols == target)[0])
                cols[[1, r]] = cols[[r, 1]]
            m = _perm_dense(cols)
            assert classify_tcm(m) == isin_classify_tcm(m), (order, cols)


@pytest.mark.parametrize("rows, labels", [
    (np.zeros((0, 0), dtype=np.int64), []),
    ([[1]], [TcmLabel(1, 1)]),
    ([[0]], []),
    ([[1, 0], [0, 1]], [TcmLabel(1, 2), TcmLabel(2, 1)]),
    ([[0, 1], [1, 0]], []),
    ([[1, 1], [0, 0]], []),
    ([[0, 1], [0, 1]], []),
], ids=["0", "1", "1-zero", "2-identity", "2-reversal", "2-row-pair", "2-column-pair"])
def test_classify_at_orders_0_1_2(rows, labels):
    assert classify_tcm(np.array(rows)) == labels
    assert isin_classify_tcm(np.array(rows)) == labels


@pytest.mark.parametrize("rows", [
    # N nonzero entries; row 0's largest is a 1 beside a -1, so row 1 has none
    [[1, -1, 0], [0, 0, 0], [0, 0, 1]],
    # one nonzero per row, but row 0's is a 2
    [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
    # each row's largest entry is a 1, plus one more nonzero entry, a -1
    [[1, -1, 0], [0, 1, 0], [0, 0, 1]],
])
def test_classify_refuses_an_entry_other_than_0_or_1_whatever_else_fails(rows):
    with pytest.raises(ValueError, match="^classification needs a 0/1 matrix$"):
        classify_tcm(np.array(rows, dtype=np.int64))


_CANDIDATE_DTYPES = [np.int64, np.float64, np.complex128, np.bool_]
_SWAP_4X3 = induced_index_perm(DimList((4, 3)), Sigma((2, 1))).index  # row 1's 1 in column 3


@pytest.mark.parametrize("dtype", _CANDIDATE_DTYPES)
def test_classify_labels_a_swap_in_every_dtype(dtype):
    assert classify_tcm(_perm_dense(_SWAP_4X3).astype(dtype)) == [TcmLabel(4, 3)]


@pytest.mark.parametrize("dtype", [d for d in _CANDIDATE_DTYPES if d is not np.bool_])
@pytest.mark.parametrize("row", [0, 1, 11])
def test_classify_refuses_a_2_at_a_candidate_position(dtype, row):
    # still 12 nonzero entries, row 1's largest still in column 3
    m = _perm_dense(_SWAP_4X3).astype(dtype)
    m[row, _SWAP_4X3[row]] = 2
    with pytest.raises(ValueError, match="^classification needs a 0/1 matrix$"):
        classify_tcm(m)


@pytest.mark.parametrize("dtype", _CANDIDATE_DTYPES)
def test_classify_gives_no_label_when_row_1_is_empty(dtype):
    # 12 nonzero entries, two of them in row 0, none in row 1
    m = _perm_dense(_SWAP_4X3).astype(dtype)
    m[1, _SWAP_4X3[1]] = 0
    m[0, 1] = 1
    assert classify_tcm(m) == []


@pytest.mark.parametrize("dtype", _CANDIDATE_DTYPES)
def test_classify_gives_no_label_when_only_the_last_row_misses(dtype):
    # one 1 per row, at U[4x3]'s position in every row but the last, so
    # only the last of the candidate's entries is a 0
    cols = _SWAP_4X3.copy()
    cols[-1] = 0
    m = _perm_dense(cols).astype(dtype)
    assert classify_tcm(m) == []


@pytest.mark.parametrize("extra", [1, -1])
def test_is_permutation_matrix_refuses_one_nonzero_too_many(extra):
    m = np.eye(3, dtype=np.int64)
    m[0, 2] = extra
    assert not is_permutation_matrix(m)


# Entry values per dtype: the two that make a permutation matrix first, then
# values that must spoil it (NaN, -0.0, which is a zero, and non-0/1 entries).
_ENTRIES = {
    np.int64: [0, 1, 2, -1],
    np.bool_: [False, True],
    np.float64: [0.0, 1.0, -0.0, np.nan, 0.5, -1.0, np.inf],
    np.complex128: [0, 1, 1j, 1 + 1j, -1, complex(np.nan, 0), 1 - 1j],
}


@st.composite
def _small_matrices(draw):
    dtype = draw(st.sampled_from(list(_ENTRIES)))
    entries = st.sampled_from(_ENTRIES[dtype])
    rows = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["permutation", "square", "rectangle", "1-d", "3-d"]))
    if kind == "permutation":
        m = np.zeros((rows, rows), dtype=dtype)
        m[np.arange(rows), draw(st.permutations(range(rows)))] = 1
        if rows and draw(st.booleans()):
            m[draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))] = draw(entries)
        return m
    shape = {"square": (rows, rows), "rectangle": (rows, draw(st.integers(0, 6))),
             "1-d": (rows,), "3-d": (rows, rows, draw(st.integers(1, 2)))}[kind]
    values = draw(st.lists(entries, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=dtype).reshape(shape)


def _outcome(f, m):
    try:
        return "result", f(m)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(_small_matrices())
def test_permutation_checkers_match_their_entry_set_definitions(m):
    assert _outcome(is_permutation_matrix, m) == _outcome(isin_is_permutation_matrix, m)
    assert _outcome(classify_tcm, m) == _outcome(isin_classify_tcm, m)


def test_decompose_matches_dense_traces():
    for n in range(2, 9):
        table = decompose_swap(n).table
        assert np.max(np.abs(table - dense_trace_decomposition(n))) <= 1e-12, n


def test_conjugation_takes_complex_factors():
    # small Gaussian integers, so every product is exact in complex128 and
    # the exact comparison is meaningful
    rng = np.random.default_rng(7)
    spec = TensorPermSpec((2, 3, 2), (2, 3, 1))
    mats = [rng.integers(-9, 10, (d, d)) + 1j * rng.integers(-9, 10, (d, d)) for d in (2, 3, 2)]
    assert commutation_conjugation_check(spec, mats)


def _normal_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# A swap and its transpose; two cyclic sigmas, which are not their own
# inverse; 1,1, whose factors all have size 1, so K has no factor axes; and
# 4,3,2 under 3,1,2, whose size-ordered column layout (2, 3, 4) differs from
# both K's column order (4, 3, 2) and K''s (2, 4, 3).
_CONJUGATION_SPECS = [tcm_spec(3, 2), TensorPermSpec((2, 3, 2), (2, 3, 1)), tcm_spec(2, 3),
                      TensorPermSpec((2, 3, 4), (2, 3, 1)), TensorPermSpec((1, 1), (2, 1)),
                      TensorPermSpec((4, 3, 2), (3, 1, 2))]
_CONJUGATION_IDS = ["3x2", "2,3,2", "2x3", "2,3,4", "1,1", "4,3,2"]


@pytest.mark.parametrize("spec", _CONJUGATION_SPECS, ids=_CONJUGATION_IDS)
def test_conjugation_tolerates_rounding_of_complex_factors(spec):
    # the two Kronecker products round a*b and b*a differently, so exact
    # equality fails for most draws of these factors
    for seed in range(20):
        rng = np.random.default_rng(seed)
        assert commutation_conjugation_check(spec, [_normal_complex(rng, d) for d in spec.dims])


def _scale_largest(a, factor):
    a = np.array(a)
    a.flat[np.abs(a).argmax()] *= factor
    return a


_KRON_BLOCK = matrix_core._kron_block


def _perturbing_k_prime(monkeypatch, perturb):
    """Route the conjugation check's _kron_block through
    ``perturb(mats, rows, seen)``, which returns the block of
    K' = A_sigma(1) (x) ... to compare; ``seen`` counts K''s rows in earlier
    blocks. Each block builds K' first, then K."""
    calls, seen = [], [0]

    def wrapped(mats, rows):
        calls.append(1)
        if len(calls) % 2 == 0:  # K
            return _KRON_BLOCK(mats, rows)
        block = perturb(mats, rows, seen[0])
        seen[0] += len(block)
        return block

    monkeypatch.setattr(perm_matrix, "_kron_block", wrapped)


@pytest.mark.parametrize("spec", _CONJUGATION_SPECS, ids=_CONJUGATION_IDS)
def test_conjugation_rejects_a_perturbed_complex_factor(spec, monkeypatch):
    # U's index is right, so the identity holds for any factors; to see that
    # the tolerance still catches a real error, the blocks of
    # K' = A_sigma(1) (x) ... are built with that first factor's largest
    # entry scaled by 1 + 1e-9.
    rng = np.random.default_rng(11)
    mats = [_normal_complex(rng, d) for d in spec.dims]
    assert commutation_conjugation_check(spec, mats)
    _perturbing_k_prime(monkeypatch, lambda ms, rows, seen: _KRON_BLOCK(
        [_scale_largest(ms[0], 1 + 1e-9), *ms[1:]], rows))
    assert not commutation_conjugation_check(spec, mats)


@pytest.mark.parametrize("spec", _CONJUGATION_SPECS, ids=_CONJUGATION_IDS)
def test_conjugation_rejects_a_perturbed_integer_product(spec, monkeypatch):
    # The integer twin of the complex case: one entry of K' comes out of its
    # block raised by 1, which the exact compare of U . K . U^T with K' must
    # catch wherever it lands. Entry (r, c) is row r's c-th block column in
    # memory order; the block's columns are K''s in some order, so every
    # entry is raised once.
    rng = np.random.default_rng(11)
    mats = [rng.integers(-9, 10, (d, d)) for d in spec.dims]
    assert commutation_conjugation_check(spec, mats)
    for entry in range(spec.size ** 2):
        row, col = divmod(entry, spec.size)

        def raise_entry(ms, rows, seen):
            block = _KRON_BLOCK(ms, rows)
            if seen <= row < seen + len(block):
                block.reshape(len(block), -1)[row - seen, col] += 1
            return block

        _perturbing_k_prime(monkeypatch, raise_entry)
        assert not commutation_conjugation_check(spec, mats), entry


@pytest.mark.parametrize("k", [33, 65])
def test_conjugation_past_32_factors(k):
    # 2k axes would pass numpy's 64-axis limit; size-1 factors are dropped.
    # Their entries are +-1 (or +-1j), so the int64 guard admits the product.
    rng = np.random.default_rng(k)
    dims = (2, 3) + (1,) * (k - 2)
    spec = TensorPermSpec(dims, tuple(rng.permutation(k) + 1))
    ints = [rng.integers(-9, 10, (d, d)) if d > 1 else rng.choice([-1, 1], (1, 1))
            for d in dims]
    assert commutation_conjugation_check(spec, ints)
    complexes = [_normal_complex(rng, d) if d > 1 else rng.choice([1, -1, 1j, -1j], (1, 1))
                 for d in dims]
    assert commutation_conjugation_check(spec, complexes)


def test_conjugation_takes_a_dense_bound(monkeypatch):
    mats = [np.arange(9).reshape(3, 3), np.arange(4).reshape(2, 2)]
    assert commutation_conjugation_check(tcm_spec(3, 2), mats, dense_bound=6)
    calls = []
    monkeypatch.setattr(perm_matrix, "_kron_block", lambda *args: calls.append(1))
    with pytest.raises(CapacityError, match="dense order 6 exceeds dense bound 5"):
        commutation_conjugation_check(tcm_spec(3, 2), mats, dense_bound=5)
    assert not calls  # refused before any block of a Kronecker product


@pytest.mark.parametrize("mats", [
    [np.eye(3), np.eye(2)],
    [np.eye(3, dtype=np.int64), np.eye(2, dtype=np.complex128)],
])
def test_conjugation_refuses_real_float_and_mixed_factors(mats):
    with pytest.raises(ValueError, match="domain"):
        commutation_conjugation_check(tcm_spec(3, 2), mats)


def test_conjugation_refuses_a_single_real_float_factor():
    with pytest.raises(ValueError, match="domain"):
        commutation_conjugation_check(TensorPermSpec((3,), (1,)), [np.eye(3)])


def _both(spec, mats):
    """Outcome of the blocked check and of the whole-matrix oracle."""
    return (_outcome(lambda ms: commutation_conjugation_check(spec, ms), mats),
            _outcome(lambda ms: whole_conjugation_check(spec, ms), mats))


def test_conjugation_matches_the_whole_matrix_oracle_on_every_spec_to_36():
    rng = np.random.default_rng(36)
    for dims, mapping in all_specs(36):
        spec = TensorPermSpec(dims, mapping)
        got, want = _both(spec, [rng.integers(-9, 10, (d, d)) for d in dims])
        assert got == want == ("result", True), (dims, mapping)


def test_conjugation_matches_naive_dense_products(monkeypatch):
    # U . K . U^T with U from build_delta and K, K' by explicit block assembly;
    # then again with every induced index rolled by one place, a permutation
    # but the wrong U for any order past 1, which both sides must refuse.
    # The oracle of _both transposes by factor axes and never reads U.
    right = index_algebra._induced_index
    try:
        for wrong in (False, True):
            if wrong:
                monkeypatch.setattr(index_algebra, "_induced_index",
                                    lambda dims, mapping: np.roll(right(dims, mapping), 1))
            index_algebra._cached_perm.cache_clear()  # monkeypatch leaves the lru cache alone
            rng = np.random.default_rng(12)
            for dims, mapping in all_specs(12):
                spec = TensorPermSpec(dims, mapping)
                mats = [rng.integers(-9, 10, (d, d)) for d in dims]
                u = build_delta(spec)
                k = np.array(reduce(naive_kron, [m.tolist() for m in mats]), dtype=np.int64)
                k_prime = np.array(reduce(naive_kron, [mats[s - 1].tolist() for s in mapping]),
                                   dtype=np.int64)
                holds = np.array_equal(u @ k @ u.T, k_prime)
                assert holds is commutation_conjugation_check(spec, mats), (dims, mapping)
                # a zero K, from a size-1 factor drawn as 0, is kept by any U
                assert holds is (not wrong or spec.size == 1 or not k.any()), (dims, mapping)
    finally:
        monkeypatch.undo()
        index_algebra._cached_perm.cache_clear()


# Orders 1000 and 1021 leave a last block of fewer rows than the others.
_UNEVEN_SPECS = [TensorPermSpec((10, 10, 10), (3, 1, 2)), tcm_spec(8, 125), tcm_spec(1021, 1),
                 tcm_spec(1, 1021), TensorPermSpec((1021,), (1,))]
_UNEVEN_IDS = ["10,10,10", "8x125", "1021x1", "1x1021", "1021"]


@pytest.mark.parametrize("spec", _UNEVEN_SPECS, ids=_UNEVEN_IDS)
def test_conjugation_matches_the_oracle_on_a_partial_last_block(spec, monkeypatch):
    rng = np.random.default_rng(1000)
    ints = [rng.integers(-9, 10, (d, d)) for d in spec.dims]
    assert _both(spec, ints) == (("result", True),) * 2
    assert _both(spec, [_normal_complex(rng, d) for d in spec.dims]) == (("result", True),) * 2

    def raise_last_entry(ms, rows, seen):
        block = _KRON_BLOCK(ms, rows)
        if seen + len(block) == spec.size:
            block.reshape(len(block), -1)[-1, -1] += 1
        return block

    _perturbing_k_prime(monkeypatch, raise_last_entry)
    assert not commutation_conjugation_check(spec, ints)


@pytest.mark.parametrize("spec", [tcm_spec(3, 2), TensorPermSpec((2, 3, 4), (2, 3, 1)),
                                  TensorPermSpec((10, 10, 10), (3, 1, 2)), tcm_spec(8, 125)],
                         ids=["3x2", "2,3,4", "10,10,10", "8x125"])
def test_conjugation_matches_the_oracle_at_the_complex_tolerance(spec, monkeypatch):
    # K''s first factor's largest entry scaled by 1 + h, with h around the
    # tolerance's 4 * k * eps: both checks build K' from the same perturbed
    # factor, so they must agree on each side of the tolerance.
    rng = np.random.default_rng(4)
    mats = [_normal_complex(rng, d) for d in spec.dims]
    k = len(mats)
    outcomes = []
    for m in np.linspace(0.25, 2, 15):
        factor = 1 + m * 4 * k * np.finfo(np.float64).eps
        _perturbing_k_prime(monkeypatch, lambda ms, rows, seen: _KRON_BLOCK(
            [_scale_largest(ms[0], factor), *ms[1:]], rows))
        calls = []

        def kron_scaling_k_prime(a, b, dense_bound):
            calls.append(1)
            if len(calls) == k:  # K takes k - 1 products, then K' starts
                a = _scale_largest(a, factor)
            return kron(a, b, dense_bound=dense_bound)

        monkeypatch.setattr(oracles, "kron", kron_scaling_k_prime)
        got, want = _both(spec, mats)
        assert got == want, m
        outcomes.append(got)
    assert set(outcomes) == {("result", True), ("result", False)}


_NAN = np.array([[1, 2, 3], [4, np.nan, 5], [1, 1, 1]]) + 0j


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("spec, mats", [
    (TensorPermSpec((5,), (1,)), [np.arange(25).reshape(5, 5)]),
    (TensorPermSpec((5,), (1,)), [np.arange(25).reshape(5, 5) * 1j]),
    (TensorPermSpec((1,), (1,)), [np.array([[7]])]),
    (TensorPermSpec((3,), (1,)), [_NAN]),
    (TensorPermSpec((3,), (1,)), [np.full((3, 3), 2**63, dtype=np.uint64)]),
    (TensorPermSpec((3,), (1,)), [np.eye(3, dtype=np.complex64)]),
    (TensorPermSpec((3,), (1,)), [np.eye(3)]),
    (tcm_spec(3, 2), [_NAN, np.eye(2) + 0j]),
    (tcm_spec(3, 2), [_NAN.real + np.inf * 1j, np.eye(2) + 0j]),
    (tcm_spec(3, 2), [np.eye(3, dtype=np.int8) * 100, np.eye(2, dtype=np.int16) * 300]),
    (tcm_spec(3, 2), [np.eye(3, dtype=np.complex64), np.eye(2, dtype=np.complex64)]),
], ids=["k1-int", "k1-complex", "k1-1x1", "k1-nan", "k1-uint64-past-int64", "k1-complex64",
        "k1-float", "nan", "inf", "int8-int16", "complex64"])
def test_conjugation_matches_the_oracle_on_single_factors_and_odd_entries(spec, mats):
    got, want = _both(spec, mats)
    assert got == want


@pytest.mark.parametrize("k", [33, 65])
def test_conjugation_matches_the_oracle_past_32_factors(k):
    rng = np.random.default_rng(k)
    dims = (2, 3) + (1,) * (k - 2)
    spec = TensorPermSpec(dims, tuple(rng.permutation(k) + 1))
    ints = [rng.integers(-9, 10, (d, d)) if d > 1 else rng.choice([-1, 1], (1, 1)) for d in dims]
    assert _both(spec, ints) == (("result", True),) * 2
    complexes = [_normal_complex(rng, d) if d > 1 else rng.choice([1, -1, 1j, -1j], (1, 1))
                 for d in dims]
    assert _both(spec, complexes) == (("result", True),) * 2


_BIG = np.full((2, 2), 2**40)


@pytest.mark.parametrize("spec, mats", [
    (tcm_spec(3, 2), [np.eye(3, dtype=np.int64)]),
    (tcm_spec(3, 2), [np.eye(3, dtype=np.int64)] * 2),
    (tcm_spec(3, 2), [np.eye(3, dtype=np.int64)] * 3),
    (tcm_spec(3, 2), [np.eye(3), np.eye(2)]),
    (tcm_spec(3, 2), [np.eye(3, dtype=bool), np.eye(2, dtype=np.int64)]),
    (tcm_spec(3, 2), [np.eye(3, dtype=np.int64), np.eye(2, dtype=np.complex128)]),
    (tcm_spec(3, 2), [np.eye(3, dtype=np.complex128), np.eye(2, dtype=np.int64)]),
    (tcm_spec(3, 2), [np.eye(3, dtype=np.int64), np.full((2, 2), 2**63, dtype=np.uint64)]),
    (tcm_spec(3, 2), [np.full((3, 3), 2**63, dtype=np.uint64), np.eye(2)]),
    (tcm_spec(3, 2), [np.full((3, 3), 2**40), np.full((2, 2), 2**30)]),
    (tcm_spec(3, 2), [np.full((3, 3), -2**63), np.full((2, 2), -1)]),
    # the forward chain's reach is 0 after the zero factor; K''s is not
    (TensorPermSpec((3, 2, 2), (2, 3, 1)), [np.zeros((3, 3), dtype=np.int64), _BIG, _BIG]),
    (TensorPermSpec((3, 2, 2), (3, 1, 2)), [np.full((3, 3), 2**20), _BIG, _BIG]),
    (TensorPermSpec((3, 2, 2), (3, 1, 2)), [np.full((3, 3), 2**20), _BIG, np.eye(2)]),
    (tcm_spec(65, 64), [np.eye(65, dtype=np.int64), np.eye(64, dtype=np.int64)]),
], ids=["count-1", "shape", "count-3", "float", "bool", "int-complex", "complex-int",
        "uint64-second", "uint64-before-float", "reach", "reach-int64-min", "reach-of-k-prime",
        "reach-third-step", "reach-before-float", "dense-bound"])
def test_conjugation_refuses_as_the_oracle_does(spec, mats):
    got, want = _both(spec, mats)
    assert got == want
    assert got[0] != "result"


@pytest.mark.parametrize("spec, dtype", [
    (TensorPermSpec((32, 4, 4, 2), (1, 3, 4, 2)), np.int64),
    (TensorPermSpec((8, 8, 8, 8), (3, 2, 4, 1)), np.complex128),
    (tcm_spec(2, 2048), np.complex128),
], ids=["1024-int64", "4096-complex128", "2x2048-complex128"])
def test_conjugation_memory_does_not_grow_with_n_squared(spec, dtype):
    # one N x N int64 array is 8 MB at order 1024; a complex128 one 268 MB at 4096
    rng = np.random.default_rng(2)
    mats = [rng.integers(-9, 10, (d, d)).astype(dtype) for d in spec.dims]
    tracemalloc.start()
    try:
        assert commutation_conjugation_check(spec, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
