import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from tensorperm import (
    CapacityError,
    DimList,
    Sigma,
    TcmLabel,
    TensorPermSpec,
    apply,
    build_delta,
    build_elementary_sum,
    build_stride_rule,
    classify_tcm,
    closure_check,
    commutation_conjugation_check,
    is_permutation_matrix,
    tcm_spec,
)
from tensorperm import perm_matrix

from oracles import all_specs, delta_entry_matrix, loop_elementary_sum, naive_kron
from references import U222_REVERSAL_REF, U23_REF, U32_REF, U35_REF

rng = np.random.default_rng(1234)


def _kron_vec(parts):
    out = np.asarray(parts[0], dtype=np.int64).reshape(-1, 1)
    for part in parts[1:]:
        part = np.asarray(part, dtype=np.int64).reshape(-1, 1)
        out = np.array(naive_kron(out.tolist(), part.tolist()), dtype=np.int64)
    return out.ravel()


def test_build_delta_reference_matrices():
    assert build_delta(tcm_spec(3, 2)).tolist() == U32_REF
    assert build_delta(tcm_spec(2, 3)).tolist() == U23_REF
    assert build_delta(TensorPermSpec((2, 2, 2), (3, 2, 1))).tolist() == U222_REVERSAL_REF


def test_build_delta_one_by_n_is_identity():
    for n in (1, 2, 7):
        assert np.array_equal(build_delta(tcm_spec(1, n)), np.eye(n, dtype=np.int64))
        assert np.array_equal(build_delta(tcm_spec(n, 1)), np.eye(n, dtype=np.int64))


def test_build_delta_matches_entry_formula_oracle():
    cases = [
        ((3, 2), (2, 1)),
        ((2, 3), (2, 1)),
        ((2, 2, 2), (3, 2, 1)),
        ((2, 3, 2), (2, 3, 1)),
        ((4, 3), (1, 2)),
        ((2, 2, 3), (3, 1, 2)),
    ]
    for dims, mapping in cases:
        got = build_delta(TensorPermSpec(dims, mapping))
        assert got.tolist() == delta_entry_matrix(dims, mapping)


def test_build_delta_capacity():
    with pytest.raises(CapacityError):
        build_delta(tcm_spec(3, 3), dense_bound=8)


def test_build_elementary_sum_matches_delta_references():
    assert build_elementary_sum(tcm_spec(3, 2)).tolist() == U32_REF
    assert build_elementary_sum(TensorPermSpec((2, 2, 2), (3, 2, 1))).tolist() == U222_REVERSAL_REF


def test_build_elementary_sum_identity_sigma():
    for dims in [(4,), (2, 3), (2, 2, 2)]:
        spec = TensorPermSpec(dims, tuple(range(1, len(dims) + 1)))
        assert np.array_equal(build_elementary_sum(spec), np.eye(spec.size, dtype=np.int64))


def test_build_elementary_sum_has_exactly_size_ones():
    for dims, mapping in [((3, 2), (2, 1)), ((2, 2, 2), (2, 3, 1)), ((3, 4), (2, 1))]:
        total = build_elementary_sum(TensorPermSpec(dims, mapping))
        assert total.sum() == total.shape[0]
        assert total.max() == 1


def test_builders_agree_exhaustively_small():
    for dims, mapping in all_specs(32):
        spec = TensorPermSpec(dims, mapping)
        assert np.array_equal(build_delta(spec), build_elementary_sum(spec))


def test_build_elementary_sum_matches_loop_oracle():
    for dims, mapping in all_specs(36):
        assert np.array_equal(build_elementary_sum(TensorPermSpec(dims, mapping)),
                              loop_elementary_sum(dims, mapping)), (dims, mapping)


def test_build_elementary_sum_matches_loop_oracle_past_64_factors():
    # 72 factors, all but two of size 1: more than numpy's 64 axes
    dims = (2,) + (1,) * 70 + (3,)
    mapping = tuple(range(72, 0, -1))
    assert np.array_equal(build_elementary_sum(TensorPermSpec(dims, mapping)),
                          loop_elementary_sum(dims, mapping))


def test_build_elementary_sum_matches_loop_oracle_at_order_1024():
    dims, mapping = (4, 2, 8, 16), (3, 1, 4, 2)
    assert np.array_equal(build_elementary_sum(TensorPermSpec(dims, mapping)),
                          loop_elementary_sum(dims, mapping))


def test_stride_rule_reference():
    assert build_stride_rule(3, 5).tolist() == U35_REF
    assert build_stride_rule(3, 2).tolist() == U32_REF


def test_stride_rule_degenerate_factors():
    for p in (1, 2, 5):
        assert np.array_equal(build_stride_rule(1, p), np.eye(p, dtype=np.int64))
    for n in (1, 3):
        assert np.array_equal(build_stride_rule(n, 1), np.eye(n, dtype=np.int64))


def test_stride_rule_agrees_with_delta_up_to_64():
    for n in range(1, 65):
        for p in range(1, 64 // n + 1):
            assert np.array_equal(build_stride_rule(n, p), build_delta(tcm_spec(n, p)))


def test_stride_rule_cross_check_fires_on_a_wrong_walk(monkeypatch):
    def walk_restarting_on_the_same_row(n, p):
        # the true walk restarts each sweep one row lower
        size = n * p
        rows, row = [], 1
        for _ in range(size):
            rows.append(row)
            row += n
            if row > size:
                row -= size
        return rows

    monkeypatch.setattr(perm_matrix, "_stride_positions_walk", walk_restarting_on_the_same_row)
    with pytest.raises(RuntimeError, match=r"stride walk and closed form disagree for \(3, 5\)"):
        build_stride_rule(3, 5)


def test_stride_rule_validation():
    with pytest.raises(ValueError):
        build_stride_rule(0, 3)
    with pytest.raises(CapacityError):
        build_stride_rule(3, 5, dense_bound=8)


def test_apply_two_factor_swap_relocates_products():
    for _ in range(25):
        a = rng.integers(-9, 10, 3)
        b = rng.integers(-9, 10, 2)
        got = apply(tcm_spec(3, 2), _kron_vec([a, b]))
        assert np.array_equal(got, _kron_vec([b, a]))
        # entry layout: (a1b1, a2b1, a3b1, a1b2, a2b2, a3b2)
        expected = [a[0] * b[0], a[1] * b[0], a[2] * b[0], a[0] * b[1], a[1] * b[1], a[2] * b[1]]
        assert got.tolist() == expected


def test_apply_identity_sigma_echoes():
    spec = TensorPermSpec((2, 3, 2), (1, 2, 3))
    v = list(range(1, 13))
    assert apply(spec, v) == v


def test_apply_three_factor_reversal():
    spec = TensorPermSpec((2, 2, 2), (3, 2, 1))
    for _ in range(25):
        a, b, c = (rng.integers(-9, 10, 2) for _ in range(3))
        got = apply(spec, _kron_vec([a, b, c]))
        assert np.array_equal(got, _kron_vec([c, b, a]))


def test_apply_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        apply(tcm_spec(3, 2), [1, 2, 3])


def test_conjugation_check_random_two_factor():
    spec = tcm_spec(3, 2)
    for _ in range(25):
        mats = [rng.integers(-9, 10, (3, 3)), rng.integers(-9, 10, (2, 2))]
        assert commutation_conjugation_check(spec, mats)


def test_conjugation_check_identity_sigma():
    spec = TensorPermSpec((2, 2, 3), (1, 2, 3))
    mats = [rng.integers(-9, 10, (d, d)) for d in (2, 2, 3)]
    assert commutation_conjugation_check(spec, mats)


def test_conjugation_fails_for_corrupted_matrix():
    # Swapping one pair of rows of the swap matrix breaks the conjugation
    # identity; the dense product oracle confirms the two sides differ.
    corrupted = build_delta(tcm_spec(3, 2))
    corrupted[[0, 1]] = corrupted[[1, 0]]
    a = rng.integers(-9, 10, (3, 3)).astype(np.int64)
    b = rng.integers(-9, 10, (2, 2)).astype(np.int64)
    forward = np.array(naive_kron(a.tolist(), b.tolist()), dtype=np.int64)
    backward = np.array(naive_kron(b.tolist(), a.tolist()), dtype=np.int64)
    assert not np.array_equal(corrupted @ forward, backward @ corrupted)


def test_conjugation_check_shape_errors():
    with pytest.raises(ValueError, match="expected 2 matrices"):
        commutation_conjugation_check(tcm_spec(3, 2), [np.eye(3, dtype=np.int64)])
    with pytest.raises(ValueError, match="matrix 2 must be 2x2"):
        commutation_conjugation_check(
            tcm_spec(3, 2), [np.eye(3, dtype=np.int64), np.eye(3, dtype=np.int64)]
        )


def test_classify_identity_orders():
    labels = classify_tcm(np.eye(12, dtype=np.int64))
    assert labels == [TcmLabel(1, 12), TcmLabel(12, 1)]


def test_classify_single_swap():
    assert classify_tcm(build_delta(tcm_spec(3, 4))) == [TcmLabel(3, 4)]


def test_classify_product_of_swaps_is_not_a_swap():
    product = build_delta(tcm_spec(2, 6)) @ build_delta(tcm_spec(4, 3))
    assert classify_tcm(product) == []


def test_classify_validation():
    with pytest.raises(ValueError, match="square"):
        classify_tcm(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="0/1"):
        classify_tcm(2 * np.eye(4, dtype=np.int64))


def test_classify_prime_orders_only_trivial_labels():
    for q in (2, 3, 5, 7, 11, 13):
        labels = classify_tcm(np.eye(q, dtype=np.int64))
        assert labels == [TcmLabel(1, q), TcmLabel(q, 1)]
        for label in labels:
            assert np.array_equal(build_delta(label.spec()), np.eye(q, dtype=np.int64))


def test_order_12_has_six_labels_four_nontrivial_distinct():
    labels = [(n, 12 // n) for n in (1, 2, 3, 4, 6, 12)]
    mats = {pair: build_delta(tcm_spec(*pair)) for pair in labels}
    assert np.array_equal(mats[(1, 12)], np.eye(12, dtype=np.int64))
    assert np.array_equal(mats[(12, 1)], np.eye(12, dtype=np.int64))
    nontrivial = [(2, 6), (6, 2), (3, 4), (4, 3)]
    for x, y in itertools.combinations(nontrivial, 2):
        assert not np.array_equal(mats[x], mats[y])


def test_closure_square_factor_is_closed():
    report = closure_check(2, 2)
    assert report.closed and report.witness is None


def test_closure_trivial_factor_is_closed():
    assert closure_check(1, 5).closed


def test_closure_holds_exactly_when_the_swap_has_order_at_most_3():
    # U[n(x)p] sends entry i < np - 1 to n * i mod (np - 1), and U[p(x)n] is
    # its inverse; the set is closed when U is the identity, an involution
    # (n = p) or of order 3, which takes p = n**2 or n = p**2
    for n in range(2, 40):
        for p in range(2, 40):
            expected = n == p or p == n * n or n == p * p
            assert closure_check(n, p).closed == expected, (n, p)


def test_closure_fails_for_3_2_with_square_witness():
    report = closure_check(3, 2)
    assert not report.closed
    assert report.witness == "U[3x2] * U[3x2]"
    # dense oracle: the square really is outside the three-element set
    u32 = build_delta(tcm_spec(3, 2))
    square = u32 @ u32
    members = [np.eye(6, dtype=np.int64), u32, build_delta(tcm_spec(2, 3))]
    assert not any(np.array_equal(square, m) for m in members)
    assert is_permutation_matrix(square)


def test_transpose_duality_general():
    cases = [((3, 2), (2, 1)), ((2, 3, 2), (2, 3, 1)), ((2, 2, 3), (3, 1, 2))]
    for dims, mapping in cases:
        spec = TensorPermSpec(dims, mapping)
        dual = TensorPermSpec(spec.dims.permuted(spec.sigma), spec.sigma.inverse())
        assert np.array_equal(build_delta(spec).T, build_delta(dual))


def test_swap_transpose_and_inverse_up_to_64():
    for n in range(1, 65):
        for p in range(1, 64 // n + 1):
            u = build_delta(tcm_spec(n, p))
            v = build_delta(tcm_spec(p, n))
            assert np.array_equal(u.T, v)
            assert np.array_equal(u @ v, np.eye(n * p, dtype=np.int64))


def test_square_swap_symmetric_involutive():
    for n in range(1, 9):
        u = build_delta(tcm_spec(n, n))
        assert np.array_equal(u, u.T)
        assert np.array_equal(u @ u, np.eye(n * n, dtype=np.int64))


def test_every_builder_output_is_a_permutation_matrix():
    for dims, mapping in all_specs(24):
        spec = TensorPermSpec(dims, mapping)
        assert is_permutation_matrix(build_delta(spec))
        assert is_permutation_matrix(build_elementary_sum(spec))
    for n in range(1, 7):
        for p in range(1, 24 // n + 1):
            assert is_permutation_matrix(build_stride_rule(n, p))


def test_is_permutation_matrix_rejections():
    assert not is_permutation_matrix(np.zeros((2, 3), dtype=np.int64))
    assert not is_permutation_matrix(np.ones((2, 2), dtype=np.int64))
    assert not is_permutation_matrix(2 * np.eye(2, dtype=np.int64))


def test_spec_validation():
    with pytest.raises(ValueError, match="positions"):
        TensorPermSpec((3, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        TensorPermSpec((3, 2), (1, 1))
    spec = TensorPermSpec((3, 2), (2, 1))
    assert isinstance(spec.dims, DimList)
    assert isinstance(spec.sigma, Sigma)
    assert spec.size == 6


def test_spec_types_construct_compare_and_refuse_alike_from_every_input_form():
    forms = [
        TensorPermSpec((3, 2, 4), (2, 3, 1)),
        TensorPermSpec(dims=[3, 2, 4], sigma=[2, 3, 1]),
        TensorPermSpec(np.array([3, 2, 4]), (np.int64(2), np.int32(3), np.uint8(1))),
        TensorPermSpec((d for d in (3, 2, 4)), (s for s in (2, 3, 1))),
        TensorPermSpec(DimList(dims=iter([3, 2, 4])), Sigma(mapping=np.array([2, 3, 1]))),
    ]
    for spec in forms:
        assert spec == forms[0] and hash(spec) == hash(forms[0])
        assert spec.dims.dims == (3, 2, 4) and spec.sigma.mapping == (2, 3, 1)
        assert all(type(x) is int for x in spec.dims.dims + spec.sigma.mapping)
    assert repr(forms[0]) == ("TensorPermSpec(dims=DimList(dims=(3, 2, 4)), "
                              "sigma=Sigma(mapping=(2, 3, 1)))")
    dims, sigma = DimList((3, 2)), Sigma((2, 1))
    spec = TensorPermSpec(dims, sigma)
    assert spec.dims is dims and spec.sigma is sigma
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert pickle.loads(pickle.dumps(dims)) == dims
    assert dataclasses.replace(spec, dims=(2, 3)) == TensorPermSpec((2, 3), (2, 1))
    assert dataclasses.replace(dims, dims=[4]) == DimList((4,))
    assert dataclasses.replace(sigma, mapping=(1, 2)) == Sigma.identity(2)
    for obj, field in [(spec, "dims"), (dims, "dims"), (sigma, "mapping")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)


@pytest.mark.parametrize("call, message", [
    (lambda: DimList(()), "dimension list must contain at least one factor"),
    (lambda: DimList((3, 0)), "factor 2 must be a positive dimension, got 0"),
    (lambda: Sigma((1, 1)), "sigma is not a permutation of 1..2: (1, 1)"),
    (lambda: Sigma(()), None),
    (lambda: TensorPermSpec((3, 2), (1, 2, 3)), "sigma has 3 positions but there are 2 factors"),
    # dims are read first, then sigma, then the two are matched
    (lambda: TensorPermSpec((3, -1), (1, 1, 1)), "factor 2 must be a positive dimension, got -1"),
    (lambda: TensorPermSpec((3, 2), (2, 2, 2)), "sigma is not a permutation of 1..3: (2, 2, 2)"),
    (lambda: TensorPermSpec([], ()), "dimension list must contain at least one factor"),
    (lambda: TensorPermSpec((3,), ()), "sigma has 0 positions but there are 1 factors"),
    (lambda: dataclasses.replace(tcm_spec(3, 2), dims=(3, 2, 1)),
     "sigma has 2 positions but there are 3 factors"),
])
def test_spec_type_errors_keep_their_messages_and_order(call, message):
    if message is None:  # the empty permutation is a permutation
        assert call().mapping == ()
        return
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
