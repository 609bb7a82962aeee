"""The checkers, which run on index permutations, against dense matrix
algebra oracles."""

import numpy as np
import pytest

from tensorperm import (
    CapacityError,
    TcmLabel,
    TensorPermSpec,
    build_stride_rule,
    classify_tcm,
    closure_check,
    commutation_conjugation_check,
    decompose_swap,
    kron,
    perm_matrix,
    tcm_spec,
)

from oracles import dense_closure, dense_trace_decomposition


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
    for order in range(1, 37):
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
])
def test_classify_refuses_zero_one_matrices_that_are_not_permutations(rows):
    assert classify_tcm(np.array(rows, dtype=np.int64)) == []


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


@pytest.mark.parametrize("spec", [tcm_spec(3, 2), TensorPermSpec((2, 3, 2), (2, 3, 1))],
                         ids=["3x2", "2,3,2"])
def test_conjugation_tolerates_rounding_of_complex_factors(spec):
    # the two Kronecker products round a*b and b*a differently, so exact
    # equality fails for most draws of these factors
    for seed in range(20):
        rng = np.random.default_rng(seed)
        assert commutation_conjugation_check(spec, [_normal_complex(rng, d) for d in spec.dims])


@pytest.mark.parametrize("spec", [tcm_spec(3, 2), TensorPermSpec((2, 3, 2), (2, 3, 1))],
                         ids=["3x2", "2,3,2"])
def test_conjugation_rejects_a_perturbed_complex_factor(spec, monkeypatch):
    # Both sides are built from the same factors, so the identity always
    # holds; to see that the tolerance still catches a real error, the
    # product K' = A_sigma(1) (x) ... gets its first factor's largest entry
    # scaled by 1 + 1e-9.
    rng = np.random.default_rng(11)
    mats = [_normal_complex(rng, d) for d in spec.dims]
    assert commutation_conjugation_check(spec, mats)
    calls = []

    def kron_perturbing_k_prime(a, b, dense_bound):
        calls.append(1)
        if len(calls) == len(mats):  # K takes k - 1 products, then K' starts
            a = a.copy()
            a.flat[np.abs(a).argmax()] *= 1 + 1e-9
        return kron(a, b, dense_bound=dense_bound)

    monkeypatch.setattr(perm_matrix, "kron", kron_perturbing_k_prime)
    assert not commutation_conjugation_check(spec, mats)


def test_conjugation_takes_a_dense_bound(monkeypatch):
    mats = [np.arange(9).reshape(3, 3), np.arange(4).reshape(2, 2)]
    assert commutation_conjugation_check(tcm_spec(3, 2), mats, dense_bound=6)
    calls = []
    monkeypatch.setattr(perm_matrix, "kron", lambda *args, **kwargs: calls.append(1))
    with pytest.raises(CapacityError, match="dense order 6 exceeds dense bound 5"):
        commutation_conjugation_check(tcm_spec(3, 2), mats, dense_bound=5)
    assert not calls  # refused before any Kronecker product


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
