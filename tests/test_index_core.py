"""The array-native index core: induced permutations built by tensor
transposition, the array-backed IndexPerm, ``apply`` on every input kind
(ndarrays by one strided copy, with no index), the lru_cache of induced
permutations up to 2**20 entries, the memory that reading ``col_of_row``
leaves held, and the implicit size bound."""

import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorperm
from tensorperm import (
    IMPLICIT_BOUND,
    CapacityError,
    DimList,
    IndexPerm,
    Sigma,
    TcmLabel,
    TensorPermSpec,
    apply,
    build_stride_rule,
    classify_tcm,
    induced_index_perm,
    tcm_spec,
)
from tensorperm import index_algebra, perm_matrix
from tensorperm.cli import main
from tensorperm.formats import parse_perm

from oracles import induced_cols_per_row


@st.composite
def specs(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    mapping = draw(st.permutations(range(1, len(dims) + 1)))
    return tuple(dims), tuple(mapping)


@settings(max_examples=200, deadline=None)
@given(specs())
def test_induced_perm_matches_per_row_reference(spec):
    dims, mapping = spec
    perm = induced_index_perm(DimList(dims), Sigma(mapping))
    assert perm.col_of_row == induced_cols_per_row(dims, mapping)


def test_index_is_read_only_zero_based_intp():
    perm = induced_index_perm(DimList((3, 2)), Sigma((2, 1)))
    assert perm.index.dtype == np.intp
    assert perm.index.tolist() == [0, 2, 4, 1, 3, 5]
    assert not perm.index.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        perm.index[0] = 1
    assert perm.col_of_row == (1, 3, 5, 2, 4, 6)
    assert all(type(c) is int for c in perm.col_of_row)


def test_constructor_leaves_caller_array_writable():
    cols = np.array([2, 3, 1])
    perm = IndexPerm(cols)
    cols[0] = 7
    assert perm.col_of_row == (2, 3, 1)


def test_equality_and_hash_by_value():
    a = IndexPerm((2, 3, 1))
    b = IndexPerm([2, 3, 1])
    c = IndexPerm(np.array([2, 3, 1], dtype=np.int32))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != IndexPerm((1, 2, 3))
    assert a != IndexPerm((2, 1))
    assert a != (2, 3, 1)
    assert a == IndexPerm((3, 1, 2)).inverse()


@pytest.mark.parametrize("cols", [(0, 1, 2), (1, 2, 4), (1, 1, 3), (3, 3, 3), (2**70, 1),
                                  # floats would truncate to a permutation
                                  [1.5, 2], np.array([2.9, 1.2]), (1 + 0j, 2),
                                  np.array([2.9, 1.2], dtype=object)])
def test_rejects_entries_outside_or_repeated(cols):
    with pytest.raises(ValueError, match="not a permutation") as info:
        IndexPerm(cols)
    assert "\n" not in str(info.value)


def test_rejects_nested_input():
    with pytest.raises(ValueError, match="one-dimensional"):
        IndexPerm([[1, 2], [2, 1]])


def test_inverse_and_compose_agree_with_one_based_loops():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 50):
        p = IndexPerm(rng.permutation(n) + 1)
        q = IndexPerm(rng.permutation(n) + 1)
        inv = [0] * n
        for r, c in enumerate(p.col_of_row, start=1):
            inv[c - 1] = r
        assert p.inverse().col_of_row == tuple(inv)
        assert p.compose(q).col_of_row == tuple(q.col_of_row[c - 1] for c in p.col_of_row)
        assert not p.inverse().index.flags.writeable
        assert not p.compose(q).index.flags.writeable


class _Checked(Exception):
    """Raised in place of the O(N) permutation check."""


def test_only_columns_from_outside_are_checked(monkeypatch):
    def refuse(index):
        raise _Checked

    monkeypatch.setattr(index_algebra, "_validated", refuse)
    index_algebra._cached_perm.cache_clear()
    # built by the library: a transposition, cached or not, its inverse and
    # a composition, and classify_tcm's candidate swap
    cached = induced_index_perm(DimList((3, 2)), Sigma((2, 1)))
    assert cached.col_of_row == (1, 3, 5, 2, 4, 6)
    uncached = induced_index_perm(DimList((1025, 1024)), Sigma((2, 1)))
    assert uncached.index[:3].tolist() == [0, 1024, 2048]
    assert cached.inverse().compose(cached).col_of_row == (1, 2, 3, 4, 5, 6)
    assert not uncached.inverse().index.flags.writeable
    assert classify_tcm(build_stride_rule(4, 3)) == [TcmLabel(4, 3)]
    # from outside: columns, perm text and a pickle
    with pytest.raises(_Checked):
        IndexPerm((2, 1))
    with pytest.raises(_Checked):
        parse_perm("2\n2 1\n")
    with pytest.raises(_Checked):
        pickle.loads(pickle.dumps(cached))


def test_list_apply_returns_the_original_objects():
    perm = IndexPerm((3, 1, 2))
    values = [10**30, 2.5, -7]
    out = perm.apply(values)
    assert out == [-7, 10**30, 2.5]
    assert all(a is b for a, b in zip(out, [values[2], values[0], values[1]]))
    assert perm.apply((1, 2, 3)) == [3, 1, 2]


def test_pickle_round_trip_keeps_value_and_read_only_index():
    perm = induced_index_perm(DimList((2, 3, 2)), Sigma((3, 1, 2)))
    back = pickle.loads(pickle.dumps(perm))
    assert back == perm
    assert not back.index.flags.writeable


def _read_only(n):
    v = np.arange(n, dtype=np.int16)
    v.flags.writeable = False
    return v


def _objects(n):
    v = np.empty(n, dtype=object)
    v[:] = [10**30 + i for i in range(n)]
    return v


_APPLY_INPUTS = {
    "int64": lambda n: np.arange(n, dtype=np.int64) - 3,
    "float64": lambda n: np.linspace(-1.5, 2.5, n),
    "complex": lambda n: np.arange(n) * (1 - 2j),
    "2-d": lambda n: np.arange(3 * n, dtype=np.int32).reshape(n, 3),
    "list": lambda n: [10**30 + i for i in range(n)],
    "tuple": lambda n: tuple(float(i) + 0.5 for i in range(n)),
    "strided": lambda n: np.arange(2 * n)[::2],
    "fortran 2-d": lambda n: np.asfortranarray(np.arange(3 * n, dtype=np.float32).reshape(n, 3)),
    "read-only": _read_only,
    "bool": lambda n: np.arange(n) % 3 == 1,
    "object ndarray": _objects,
}


@settings(max_examples=100, deadline=None)
@given(specs(), st.sampled_from(sorted(_APPLY_INPUTS)))
def test_apply_matches_a_gather_through_the_per_row_reference(spec, kind):
    dims, mapping = spec
    v = _APPLY_INPUTS[kind](int(np.prod(dims)))
    cols = [c - 1 for c in induced_cols_per_row(dims, mapping)]
    out = apply(TensorPermSpec(DimList(dims), Sigma(mapping)), v)
    if isinstance(v, np.ndarray):
        assert type(out) is np.ndarray and out.dtype == v.dtype
        assert np.array_equal(out, v[cols])
        assert not np.shares_memory(out, v)
        assert out.flags.c_contiguous and out.flags.writeable
        if v.dtype == object:
            assert all(a is v[c] for a, c in zip(out, cols))
    else:
        assert type(out) is list
        assert len(out) == len(v)
        assert all(a is v[c] for a, c in zip(out, cols))


def test_apply_keeps_trailing_axes_and_never_returns_the_callers_buffer():
    rows = np.arange(12).reshape(6, 2)
    spec = tcm_spec(3, 2)
    out = apply(spec, rows)
    assert np.array_equal(out, rows[[0, 2, 4, 1, 3, 5]])
    assert not np.shares_memory(out, rows)
    # each permutation below moves nothing, so v itself, or a view of it,
    # would hold the right values, in the caller's own buffer
    v = np.arange(6.0)
    for dims, mapping in [((6,), (1,)), ((1, 6, 1), (3, 1, 2)), ((2, 3), (1, 2))]:
        out = apply(TensorPermSpec(DimList(dims), Sigma(mapping)), v)
        assert np.array_equal(out, v)
        assert not np.shares_memory(out, v)


def _fresh_base_array_of(v, out):
    return (type(out) is np.ndarray and out.dtype == v.dtype and out.flags.c_contiguous
            and out.flags.writeable and not np.shares_memory(out, v))


def test_apply_returns_a_fresh_base_class_array_of_the_inputs_dtype(tmp_path):
    spec = TensorPermSpec((2, 3, 4), (3, 1, 2))
    want = np.arange(24).reshape(2, 3, 4).transpose(2, 0, 1).ravel()
    mapped = np.memmap(tmp_path / "v", dtype=np.int64, mode="w+", shape=(24,))
    mapped[:] = np.arange(24)
    masked = np.ma.masked_array(np.arange(24), mask=np.arange(24) % 5 == 0)
    for v in [mapped, masked, np.arange(24, dtype=">i8"), (np.arange(48) // 2)[::2]]:
        out = apply(spec, v)
        assert _fresh_base_array_of(v, out) and np.array_equal(out, want)
    # nothing moves here, so a view of v would hold the right values
    for dims, mapping, v in [((2, 3, 4), (1, 2, 3), np.arange(24.0)),
                             ((1, 1, 1), (3, 1, 2), np.array([7], dtype=">i8")),
                             ((1,), (1,), np.ma.masked_array([1j], mask=[True]))]:
        out = apply(TensorPermSpec(dims, mapping), v)
        assert _fresh_base_array_of(v, out) and np.array_equal(out, np.asarray(v))
    rows = np.arange(48, dtype=np.float32).reshape(6, 4, 2)[:, ::2]
    out = apply(tcm_spec(3, 2), rows)
    assert _fresh_base_array_of(rows, out) and out.shape == (6, 2, 2)
    assert np.array_equal(out, rows[[0, 2, 4, 1, 3, 5]])


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_apply_of_a_np_matrix_reads_it_as_a_plain_array():
    spec = TensorPermSpec((2, 3), (2, 1))
    v = np.matrix(np.arange(6)).T
    out = apply(spec, v)
    assert _fresh_base_array_of(v, out)
    assert np.array_equal(out, apply(spec, np.arange(6).reshape(6, 1)))


def test_apply_of_a_fresh_spec_enters_at_most_7_package_frames():
    # the three spec constructors, the arity check, apply, its length check
    # and the copy; with cold caches each frame more costs microseconds
    # against about 150 us for the whole call at this order
    package = os.path.dirname(tensorperm.__file__)
    v = np.arange(32400)
    apply(TensorPermSpec((20, 45, 36), (2, 3, 1)), v)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        apply(TensorPermSpec((20, 45, 36), (2, 3, 1)), v)
    finally:
        sys.setprofile(None)
    assert len(calls) <= 7, calls


def test_ndarray_apply_builds_no_index_permutation(monkeypatch):
    def refuse(dims, sigma):
        raise AssertionError("apply built an index permutation")

    monkeypatch.setattr(perm_matrix, "induced_index_perm", refuse)
    spec = TensorPermSpec((1025, 1024), (2, 1))  # past the cached orders
    v = np.arange(spec.size)
    assert np.array_equal(apply(spec, v), v.reshape(1025, 1024).T.ravel())
    with pytest.raises(AssertionError, match="built an index"):
        apply(tcm_spec(3, 2), list(range(6)))


def test_cache_keeps_32_orders_up_to_2_pow_20(monkeypatch):
    builds = []
    build = index_algebra._induced_index
    monkeypatch.setattr(index_algebra, "_induced_index",
                        lambda dims, mapping: builds.append(dims) or build(dims, mapping))
    index_algebra._cached_perm.cache_clear()
    largest_cached = DimList((2**10, 2**10))
    perm = induced_index_perm(largest_cached, Sigma((2, 1)))
    assert induced_index_perm(largest_cached, Sigma((2, 1))) is perm
    past = DimList((2**20 + 1,))
    assert induced_index_perm(past, Sigma((1,))) == induced_index_perm(past, Sigma((1,)))
    assert builds == [(2**10, 2**10), (2**20 + 1,), (2**20 + 1,)]
    assert index_algebra._cached_perm.cache_info().maxsize == 32


def test_reading_col_of_row_leaves_nothing_held():
    spec = DimList((100, 100, 100)), Sigma((3, 1, 2))
    perm = induced_index_perm(*spec)
    assert induced_index_perm(*spec) is perm  # cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(perm.col_of_row) == 10**6
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20


class _Reached(Exception):
    """Raised in place of building an index array, so bound tests allocate nothing."""


def _no_build(dims, mapping):
    raise _Reached(dims)


def test_implicit_bound_admits_the_bound(monkeypatch):
    monkeypatch.setattr(index_algebra, "_induced_index", _no_build)
    for dims, mapping in [((IMPLICIT_BOUND,), (1,)), ((2**14, 2**13), (2, 1))]:
        with pytest.raises(_Reached):
            induced_index_perm(DimList(dims), Sigma(mapping))
    with pytest.raises(_Reached):
        main(["gen", "--format", "perm", "--dims", str(IMPLICIT_BOUND)])


class _LongSequence(Sequence):
    """A sequence of IMPLICIT_BOUND + 1 entries that holds none of them."""

    def __len__(self):
        return IMPLICIT_BOUND + 1

    def __getitem__(self, i):
        raise AssertionError("an entry was read")


def test_apply_checks_bound_then_length_before_building(monkeypatch):
    # the length comes first; only a list or tuple, whose index would take
    # 8 bytes per entry, meets the bound, and before anything is built
    monkeypatch.setattr(index_algebra, "_induced_index", _no_build)
    with pytest.raises(ValueError, match="vector length 2 does not match size 2097152"):
        apply(TensorPermSpec((2048, 1024), (2, 1)), [1, 2])
    with pytest.raises(ValueError, match="vector length 1 does not match size 134217729"):
        apply(TensorPermSpec((IMPLICIT_BOUND + 1,), (1,)), [1])
    with pytest.raises(CapacityError, match="implicit bound"):
        apply(TensorPermSpec((IMPLICIT_BOUND + 1,), (1,)), _LongSequence())


_PAST_THE_BOUND = """
import json, resource
import numpy as np
from tensorperm import DimList, Sigma, TensorPermSpec, apply, flatten, unflatten

floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
dims, sigma = (2**14, 2**13 + 1), (2, 1)
n = dims[0] * dims[1]
v = np.tile(np.arange(251, dtype=np.uint8), n // 251 + 1)[:n]
out = apply(TensorPermSpec(dims, sigma), v)
# row r, read over the permuted dims, holds column flatten(dims, j) with
# j_sigma(t) = i_t, whose entry is its 0-based position mod 251
rows = [1, n, *np.random.default_rng(0).integers(1, n + 1, 1000).tolist()]
permuted = DimList(dims).permuted(Sigma(sigma))
wrong = 0
for r in rows:
    i = unflatten(permuted, r)
    j = [0] * len(dims)
    for t, s in enumerate(sigma):
        j[s - 1] = i[t]
    wrong += int(out[r - 1]) != (flatten(DimList(dims), j) - 1) % 251
print(json.dumps({"floor_kib": floor, "result": [
    type(out).__name__, str(out.dtype), list(out.shape), out.flags.c_contiguous,
    np.shares_memory(out, v), wrong]}))
"""


def test_ndarray_apply_past_the_bound_needs_only_its_input_and_output():
    # N = 2**27 + 2**14 uint8 entries, 134 MB: past the bound that an index
    # of 8 bytes per entry needs, so only the copy may take memory
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tensorperm.__file__)),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", _PAST_THE_BOUND], stdout=subprocess.PIPE,
                            env=env)
    report = json.loads(proc.stdout.read())
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    # class, dtype, shape, C order, memory shared with the input, wrong rows
    n = 2**27 + 2**14
    assert report["result"] == ["ndarray", "uint8", [n], True, False, 0]
    # the floor is the child's peak after its imports; the input and the
    # output take n bytes each
    assert usage.ru_maxrss * 1024 <= report["floor_kib"] * 1024 + 2.2 * n


def test_implicit_bound_plus_one_is_a_capacity_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(index_algebra, "_induced_index", _no_build)
    with pytest.raises(CapacityError, match="implicit bound"):
        induced_index_perm(DimList((IMPLICIT_BOUND + 1,)), Sigma((1,)))
    for argv in (
        ["gen", "--format", "perm", "--dims", str(IMPLICIT_BOUND + 1)],
        ["gen", "--format", "perm", "--dims", "100000,100000"],
        ["bench", "--dims", "100000,100000", "--reps", "1"],
        ["apply", "--dims", "100000,100000", "--input", str(tmp_path / "missing")],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: implicit order")
        assert captured.err.count("\n") == 1
