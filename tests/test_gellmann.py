import tracemalloc

import numpy as np
import pytest

from tensorperm import (
    build_delta,
    decompose_swap,
    generalized_gellmann,
    matrices_close,
    sum_lambda_kron,
    tcm_spec,
)

from oracles import per_generator_gellmann
from references import GELLMANN_REF, P9_REF, PAULI_REF

BASIS_TOL = 1e-12
RECON_TOL = 1e-10


def test_basis_and_decomposition_compare_and_hash_by_identity():
    basis, dec = generalized_gellmann(2), decompose_swap(2)
    for value, twin in ((basis, generalized_gellmann(2)), (dec, decompose_swap(2))):
        assert value == value and value != twin
        assert hash(value) == hash(value)
        assert len({value, twin}) == 2


def test_pauli_case():
    basis = generalized_gellmann(2)
    assert len(basis.generators) == 3
    for got, ref in zip(basis.generators, PAULI_REF):
        assert matrices_close(got, np.array(ref, dtype=np.complex128), BASIS_TOL)


def test_gellmann_case_matches_conventional_numbering():
    basis = generalized_gellmann(3)
    assert len(basis.generators) == 8
    for got, ref in zip(basis.generators, GELLMANN_REF):
        assert matrices_close(got, np.array(ref, dtype=np.complex128), BASIS_TOL)


def test_basis_invariants_through_n6():
    for n in range(2, 7):
        basis = generalized_gellmann(n)
        assert len(basis.generators) == n * n - 1
        assert matrices_close(basis.lambda0, np.eye(n, dtype=np.complex128), 0.0)
        for g in basis.generators:
            assert matrices_close(g, g.conj().T, BASIS_TOL)
            assert abs(np.trace(g)) <= BASIS_TOL


def test_trace_orthogonality_n4_all_pairs():
    basis = generalized_gellmann(4)
    gens = basis.generators
    assert len(gens) == 15
    for a, ga in enumerate(gens):
        for b, gb in enumerate(gens):
            want = 2.0 if a == b else 0.0
            assert abs(np.trace(ga @ gb) - want) <= BASIS_TOL


def test_trace_orthogonality_through_n6():
    for n in range(2, 7):
        gens = generalized_gellmann(n).generators
        for a, ga in enumerate(gens):
            for b, gb in enumerate(gens):
                want = 2.0 if a == b else 0.0
                assert abs(np.trace(ga @ gb) - want) <= BASIS_TOL


def test_basis_matches_the_per_generator_oracle_bytewise():
    # .tobytes(), so signed zeros and the last bit of each scale count
    for n in range(2, 13):
        basis = generalized_gellmann(n)
        lambda0, generators = per_generator_gellmann(n)
        assert basis.lambda0.tobytes() == lambda0.tobytes()
        assert len(basis.generators) == len(generators)
        for got, want in zip(basis.generators, generators):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_generalized_gellmann_rejects_small_n():
    with pytest.raises(ValueError, match="at least 2"):
        generalized_gellmann(1)


def test_sum_lambda_kron_n3_reference():
    total = sum_lambda_kron(3)
    expected = -(2.0 / 3.0) * np.eye(9) + 2.0 * np.array(P9_REF)
    assert matrices_close(total, expected.astype(np.complex128), RECON_TOL)


def test_sum_lambda_kron_n2_and_n4():
    u4 = build_delta(tcm_spec(2, 2))
    assert matrices_close(sum_lambda_kron(2), (2 * u4 - np.eye(4)).astype(np.complex128), RECON_TOL)
    u16 = build_delta(tcm_spec(4, 4))
    assert matrices_close(
        sum_lambda_kron(4), (2 * u16 - 0.5 * np.eye(16)).astype(np.complex128), RECON_TOL
    )


def test_decompose_swap_n2():
    dec = decompose_swap(2)
    assert abs(dec.c00 - 0.5) <= BASIS_TOL
    for i in (1, 2, 3):
        assert abs(dec.coefficient(i, i) - 0.5) <= BASIS_TOL
    for a in range(4):
        for b in range(4):
            if a != b:
                assert abs(dec.coefficient(a, b)) < BASIS_TOL


def test_decompose_swap_n3():
    dec = decompose_swap(3)
    assert abs(dec.c00 - 1.0 / 3.0) <= BASIS_TOL
    for i in range(1, 9):
        assert abs(dec.coefficient(i, i) - 0.5) <= BASIS_TOL
    for a in range(9):
        for b in range(9):
            if a != b:
                assert abs(dec.coefficient(a, b)) < BASIS_TOL


def test_decompose_swap_n5():
    dec = decompose_swap(5)
    assert abs(dec.c00 - 0.2) <= BASIS_TOL
    for i in range(1, 25):
        assert abs(dec.coefficient(i, i) - 0.5) <= BASIS_TOL


def test_decompose_reconstructs_swap_through_n6():
    for n in range(2, 7):
        dec = decompose_swap(n)
        swap = build_delta(tcm_spec(n, n))
        assert matrices_close(dec.reconstruct(), swap, RECON_TOL)


def test_closed_form_identity_through_n6():
    # U[n(x)n] = (1/n) I (x) I + (1/2) sum_i g_i (x) g_i
    for n in range(2, 7):
        swap = build_delta(tcm_spec(n, n))
        closed = np.eye(n * n, dtype=np.complex128) / n + 0.5 * sum_lambda_kron(n)
        assert matrices_close(closed, swap, RECON_TOL)


def test_mixed_coefficients_vanish():
    for n in (2, 3, 4):
        dec = decompose_swap(n)
        for a in range(1, n * n):
            assert abs(dec.coefficient(a, 0)) < BASIS_TOL
            assert abs(dec.coefficient(0, a)) < BASIS_TOL


def test_decompose_swap_peak_memory():
    # One copy is the n^2 x n^2 complex128 table (n^4 * 16 bytes). The
    # flattened basis, its gather through the swap and the Gram product are
    # needed; the Gram product becomes the table in place, and the basis is
    # built flat, with no list of n^2 matrices or stacked copy of it.
    n = 16
    tracemalloc.start()
    try:
        decompose_swap(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * n**4 * 16


def test_decompose_swap_rejects_small_n():
    with pytest.raises(ValueError, match="at least 2"):
        decompose_swap(1)
