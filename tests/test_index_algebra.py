import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorperm import (
    DimList,
    IndexPerm,
    Sigma,
    TensorPermSpec,
    closure_check,
    flatten,
    induced_index_perm,
    matrix_core,
    unflatten,
)

from oracles import all_specs, induced_cols_per_row, lex_position, perm_dense


def test_flatten_first_index_is_one():
    assert flatten(DimList((3, 2)), (1, 1)) == 1


def test_flatten_matches_enumeration_oracle():
    assert lex_position((2, 2, 2), (2, 1, 2)) == 6
    assert flatten(DimList((2, 2, 2)), (2, 1, 2)) == 6
    assert lex_position((3, 5), (2, 3)) == 8
    assert flatten(DimList((3, 5)), (2, 3)) == 8


def test_flatten_equals_enumeration_everywhere_small():
    for dims in [(3, 2), (2, 3, 2), (1, 4), (5,), (2, 1, 3)]:
        d = DimList(dims)
        for pos, parts in enumerate(
            itertools.product(*[range(1, n + 1) for n in dims]), start=1
        ):
            assert flatten(d, parts) == pos


def test_flatten_range_error_names_position():
    with pytest.raises(ValueError, match="part 2"):
        flatten(DimList((3, 2)), (1, 3))
    with pytest.raises(ValueError, match="part 1"):
        flatten(DimList((3, 2)), (0, 1))


def test_flatten_length_mismatch():
    with pytest.raises(ValueError, match="2 parts"):
        flatten(DimList((3, 2, 2)), (1, 1))


def test_unflatten_examples():
    assert unflatten(DimList((3, 2)), 1) == (1, 1)
    assert unflatten(DimList((2, 2, 2)), 6) == (2, 1, 2)
    assert unflatten(DimList((3, 5)), 15) == (3, 5)


def test_unflatten_range_error():
    with pytest.raises(ValueError, match="out of range"):
        unflatten(DimList((3, 2)), 7)
    with pytest.raises(ValueError, match="out of range"):
        unflatten(DimList((3, 2)), 0)


def test_round_trip_exhaustive_small():
    for dims in [(4,), (3, 2), (2, 2, 2), (1, 6, 1), (2, 3, 2, 2)]:
        d = DimList(dims)
        for s in range(1, d.size + 1):
            assert flatten(d, unflatten(d, s)) == s


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.data())
def test_round_trip_hypothesis(dims, data):
    d = DimList(tuple(dims))
    s = data.draw(st.integers(1, d.size))
    parts = unflatten(d, s)
    assert flatten(d, parts) == s
    for t, part in enumerate(parts):
        assert 1 <= part <= dims[t]


def test_flatten_strictly_increasing_in_lex_order():
    for dims in [(3, 2), (2, 3, 2), (4, 1, 2)]:
        d = DimList(dims)
        ordered = list(itertools.product(*[range(1, n + 1) for n in dims]))
        values = [flatten(d, parts) for parts in ordered]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


def test_dimlist_validation():
    with pytest.raises(ValueError, match="at least one factor"):
        DimList(())
    with pytest.raises(ValueError, match="factor 2"):
        DimList((3, 0))


@pytest.mark.parametrize("call", [
    lambda: DimList((2.5, 2)),
    lambda: Sigma((1.0, 2.7)),
    lambda: TensorPermSpec((2.5, 2), (2, 1.9)),
    lambda: closure_check(2.5, 2),
    lambda: flatten(DimList((2, 3)), (2.9, 1)),
    lambda: unflatten(DimList((2, 3)), 2.5),
    lambda: matrix_core.elementary((2.5, 2), 1, 1),
    lambda: matrix_core.elementary(2.5, 1, 1),
    lambda: matrix_core.elementary(3, 1.5, 1),
    lambda: matrix_core.elementary_kron_index(2, 2, 1.5, 1, 1, 1),
], ids=["DimList", "Sigma", "TensorPermSpec", "closure_check", "flatten", "unflatten",
        "elementary", "elementary-side", "elementary-index", "elementary_kron_index"])
def test_non_integer_dimensions_and_indices_are_refused(call):
    # each of these used to truncate its floats and go on, or fail in numpy indexing
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_numpy_integers_pass_as_dimensions_and_indices():
    dims = DimList((np.int64(2), np.int32(3)))
    assert dims.dims == (2, 3) and all(type(n) is int for n in dims.dims)
    assert Sigma(np.array([2, 1])).mapping == (2, 1)
    assert flatten(dims, np.array([2, 1])) == 4
    assert unflatten(dims, np.uint8(5)) == (2, 2)
    assert np.array_equal(matrix_core.elementary(np.int64(3), np.int32(2), 1),
                          matrix_core.elementary(3, 2, 1))
    got = matrix_core.elementary_kron_index(np.int64(2), 2, np.uint8(2), 1, 1, 1)
    assert got == (3, 1) and all(type(x) is int for x in got)


def test_sigma_inverse_matches_exhaustive_search():
    sigma = Sigma((2, 3, 1))
    identity = Sigma.identity(3)
    found = [
        cand
        for cand in itertools.permutations((1, 2, 3))
        if sigma.compose(Sigma(cand)) == identity
    ]
    assert found == [(3, 1, 2)]
    assert sigma.inverse() == Sigma((3, 1, 2))


def test_sigma_identity_and_transpositions_are_involutions():
    for k in range(1, 5):
        ident = Sigma.identity(k)
        assert ident.inverse() == ident
    for k in range(2, 5):
        for a in range(1, k + 1):
            for b in range(a + 1, k + 1):
                mapping = list(range(1, k + 1))
                mapping[a - 1], mapping[b - 1] = mapping[b - 1], mapping[a - 1]
                tr = Sigma(tuple(mapping))
                assert tr.inverse() == tr


def test_sigma_rejects_non_permutations():
    with pytest.raises(ValueError, match="not a permutation"):
        Sigma((1, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        Sigma((0, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        Sigma((1, 3))


def test_sigma_reversal():
    assert Sigma.reversal(2) == Sigma((2, 1))
    assert Sigma.reversal(4) == Sigma((4, 3, 2, 1))


def test_induced_perm_swap_two_factors():
    perm = induced_index_perm(DimList((3, 2)), Sigma((2, 1)))
    assert perm.col_of_row == (1, 3, 5, 2, 4, 6)


def test_induced_perm_single_factor_identity():
    for n in (1, 2, 5):
        perm = induced_index_perm(DimList((n,)), Sigma((1,)))
        assert perm.col_of_row == tuple(range(1, n + 1))


def test_induced_perm_three_factor_reversal():
    perm = induced_index_perm(DimList((2, 2, 2)), Sigma((3, 2, 1)))
    assert perm.col_of_row == (1, 5, 3, 7, 2, 6, 4, 8)


def test_induced_perm_length_mismatch():
    with pytest.raises(ValueError, match="2 positions"):
        induced_index_perm(DimList((2, 2, 2)), Sigma((2, 1)))


def test_induced_perm_bijective_everywhere():
    # IndexPerm's constructor rejects non-bijections, so construction
    # succeeding is the check; sweep every spec at small scale.
    for dims, mapping in all_specs(81):
        perm = induced_index_perm(DimList(dims), Sigma(mapping))
        assert perm.n_rows == DimList(dims).size


def test_induced_perm_past_64_factors():
    # one axis per factor would exceed numpy's 64-axis limit; the size-1
    # factors move no index and are dropped before the transposition
    dims = (2,) + (1,) * 70 + (3,)
    mapping = tuple(range(len(dims), 0, -1))
    perm = induced_index_perm(DimList(dims), Sigma(mapping))
    assert perm.col_of_row == induced_cols_per_row(dims, mapping) == (1, 4, 2, 5, 3, 6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=8), st.data())
def test_induced_perm_with_size_one_factors_matches_per_index_oracle(dims, data):
    mapping = tuple(data.draw(st.permutations(range(1, len(dims) + 1))))
    perm = induced_index_perm(DimList(tuple(dims)), Sigma(mapping))
    assert perm.col_of_row == induced_cols_per_row(dims, mapping)


def test_composition_matches_dense_matmul():
    cases = [
        ((3, 2), (2, 1), (2, 1)),
        ((2, 3, 2), (2, 3, 1), (3, 1, 2)),
        ((2, 2, 3), (3, 2, 1), (1, 3, 2)),
        ((4, 3), (2, 1), (1, 2)),
        ((2, 2, 2, 2), (2, 1, 4, 3), (4, 3, 2, 1)),
    ]
    for dims, map_s, map_t in cases:
        d = DimList(dims)
        sigma, tau = Sigma(map_s), Sigma(map_t)
        first = induced_index_perm(d, sigma)
        second = induced_index_perm(d.permuted(sigma), tau)
        combined = induced_index_perm(d, sigma.compose(tau))
        left = np.array(perm_dense(second.col_of_row)) @ np.array(perm_dense(first.col_of_row))
        assert np.array_equal(left, np.array(perm_dense(combined.col_of_row)))
        assert second.compose(first) == combined


def test_index_perm_apply_list_and_array():
    perm = induced_index_perm(DimList((3, 2)), Sigma((2, 1)))
    assert perm.apply([1, 2, 3, 4, 5, 6]) == [1, 3, 5, 2, 4, 6]
    out = perm.apply(np.array([1, 2, 3, 4, 5, 6]))
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [1, 3, 5, 2, 4, 6]


def test_index_perm_apply_length_mismatch():
    perm = induced_index_perm(DimList((3, 2)), Sigma((2, 1)))
    with pytest.raises(ValueError, match="length 5"):
        perm.apply([1, 2, 3, 4, 5])


def test_index_perm_inverse():
    perm = IndexPerm((2, 3, 1))
    assert perm.inverse() == IndexPerm((3, 1, 2))
    assert perm.compose(perm.inverse()) == IndexPerm((1, 2, 3))


def test_index_perm_rejects_non_bijections():
    with pytest.raises(ValueError, match="not a permutation"):
        IndexPerm((1, 1, 3))
