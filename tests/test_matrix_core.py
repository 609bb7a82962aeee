import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorperm import (
    CapacityError,
    complex_matrix,
    domain_of,
    elementary,
    elementary_kron_index,
    int_matrix,
    kron,
    kron_basis_rank,
    matmul,
    matrices_close,
    matrices_equal,
    rank_over_rationals,
)

from oracles import naive_kron, naive_matmul
from references import (
    KRON_EXAMPLE_A,
    KRON_EXAMPLE_B,
    KRON_EXAMPLE_RESULT,
    U23_REF,
    U32_REF,
)

rng = np.random.default_rng(97)


def _rand_int(rows, cols):
    return rng.integers(-9, 10, (rows, cols)).astype(np.int64)


def test_kron_reference_example():
    got = kron(int_matrix(KRON_EXAMPLE_A), int_matrix(KRON_EXAMPLE_B))
    assert got.tolist() == KRON_EXAMPLE_RESULT
    assert naive_kron(KRON_EXAMPLE_A, KRON_EXAMPLE_B) == KRON_EXAMPLE_RESULT


def test_kron_matches_block_oracle_random():
    for _ in range(20):
        a = _rand_int(rng.integers(1, 4), rng.integers(1, 4))
        b = _rand_int(rng.integers(1, 4), rng.integers(1, 4))
        assert kron(a, b).tolist() == naive_kron(a.tolist(), b.tolist())


def _rand_complex(rows, cols):
    return _rand_int(rows, cols) + 1j * _rand_int(rows, cols)


def _assert_kron_matches_block_oracle(a, b):
    got = kron(a, b)
    assert got.dtype == a.dtype
    expected = np.array(naive_kron(a.tolist(), b.tolist()), dtype=a.dtype)
    assert got.shape == expected.shape == (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("rand", [_rand_int, _rand_complex], ids=["int64", "complex128"])
@pytest.mark.parametrize("side_a, side_b", [
    (512, 2), (256, 4), (128, 8),  # b narrower: output rows as one inner loop
    (2, 64), (4, 32), (2, 512),    # b wider
    (3, 3), (16, 16),              # equal widths
])
def test_kron_matches_block_oracle_square(rand, side_a, side_b):
    _assert_kron_matches_block_oracle(rand(side_a, side_a), rand(side_b, side_b))


@pytest.mark.parametrize("rand", [_rand_int, _rand_complex], ids=["int64", "complex128"])
@pytest.mark.parametrize("shape_a, shape_b", [
    ((3, 7), (5, 2)),  # cb < ca
    ((1, 9), (6, 1)),
    ((4, 2), (3, 5)),  # cb > ca
    ((2, 3), (4, 3)),  # cb == ca
    ((3, 4), (2, 0)),  # zero-column b
    ((3, 0), (2, 2)),  # zero-column a
])
def test_kron_matches_block_oracle_rectangular(rand, shape_a, shape_b):
    _assert_kron_matches_block_oracle(rand(*shape_a), rand(*shape_b))


def _eye(n):
    return np.eye(n, dtype=np.int64)


def test_kron_of_identities():
    for n, m in [(1, 1), (2, 3), (4, 2)]:
        assert matrices_equal(kron(_eye(n), _eye(m)), _eye(n * m))


def test_kron_associative():
    for _ in range(10):
        a, b, c = (_rand_int(2, 2) for _ in range(3))
        assert matrices_equal(kron(a, kron(b, c)), kron(kron(a, b), c))


def test_kron_domain_mismatch():
    with pytest.raises(ValueError, match="domain mismatch"):
        kron(int_matrix([[1]]), complex_matrix([[1]]))


def test_kron_capacity():
    with pytest.raises(CapacityError):
        kron(_eye(3), _eye(3), dense_bound=8)


def test_matmul_identity():
    m = _rand_int(3, 5)
    assert matrices_equal(matmul(_eye(3), m), m)


def test_matmul_swap_inverses():
    assert matrices_equal(matmul(int_matrix(U32_REF), int_matrix(U23_REF)), _eye(6))


def test_matmul_elementary_product():
    e12, e21 = elementary(2, 1, 2), elementary(2, 2, 1)
    assert naive_matmul(e12.tolist(), e21.tolist()) == elementary(2, 1, 1).tolist()
    assert matrices_equal(matmul(e12, e21), elementary(2, 1, 1))


def test_matmul_shape_error():
    with pytest.raises(ValueError, match="cannot multiply"):
        matmul(_rand_int(2, 3), _rand_int(2, 3))


def test_transpose():
    assert matrices_equal(int_matrix(U32_REF).T, int_matrix(U23_REF))
    assert matrices_equal(elementary(5, 2, 4).T, elementary(5, 4, 2))


def test_elementary_basic():
    assert elementary(1, 1, 1).tolist() == [[1]]
    e = elementary(6, 2, 3)
    assert e.shape == (6, 6) and e.sum() == 1 and e[1, 2] == 1


def test_elementary_rectangular():
    e = elementary((2, 3), 2, 3)
    assert e.shape == (2, 3) and e[1, 2] == 1 and e.sum() == 1


def test_elementary_sum_reproduces_swap():
    terms = [(1, 1), (2, 3), (3, 5), (4, 2), (5, 4), (6, 6)]
    total = sum(elementary(6, i, j) for i, j in terms)
    assert total.tolist() == U32_REF


def test_elementary_range_errors():
    with pytest.raises(ValueError, match="row index"):
        elementary(3, 4, 1)
    with pytest.raises(ValueError, match="column index"):
        elementary((2, 3), 1, 4)
    with pytest.raises(ValueError, match="shape"):
        elementary(0, 1, 1)


def test_elementary_kron_index_examples():
    assert elementary_kron_index(2, 3, 1, 1, 1, 1) == (1, 1)
    assert elementary_kron_index(3, 2, 1, 2, 2, 1) == (2, 3)
    assert elementary_kron_index(2, 3, 2, 2, 1, 2) == (4, 5)


def test_elementary_kron_index_against_kron_oracle():
    # Exhaustive over every quadruple up to size 4: the product of the two
    # elementary matrices has its single 1 exactly where the formula says.
    for n in range(1, 5):
        for p in range(1, 5):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, p + 1):
                        for l in range(1, p + 1):
                            product = naive_kron(
                                elementary(n, i, j).tolist(), elementary(p, k, l).tolist()
                            )
                            ones = [
                                (r + 1, c + 1)
                                for r, row in enumerate(product)
                                for c, v in enumerate(row)
                                if v
                            ]
                            assert ones == [elementary_kron_index(n, p, i, j, k, l)]


def test_elementary_kron_index_refutes_column_variant():
    # The off-by-one variant column p*(j-i)+l looks plausible (it agrees
    # whenever i = 1) but the product oracle rejects it.
    witnesses = []
    for n in range(1, 5):
        for p in range(1, 5):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, p + 1):
                        for l in range(1, p + 1):
                            _, col = elementary_kron_index(n, p, i, j, k, l)
                            if p * (j - i) + l != col:
                                witnesses.append((n, p, i, j, k, l))
    assert witnesses
    n, p, i, j, k, l = witnesses[0]
    product = naive_kron(elementary(n, i, j).tolist(), elementary(p, k, l).tolist())
    ones = [(r + 1, c + 1) for r, row in enumerate(product) for c, v in enumerate(row) if v]
    assert ones[0][1] != p * (j - i) + l


def test_elementary_kron_index_range_errors():
    with pytest.raises(ValueError, match="out of range"):
        elementary_kron_index(2, 3, 3, 1, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        elementary_kron_index(2, 3, 1, 1, 1, 4)


def test_rank_over_rationals_known_cases():
    assert rank_over_rationals([[1, 2], [2, 4]]) == 1
    assert rank_over_rationals([[1, 0], [0, 1]]) == 2
    assert rank_over_rationals([[2, 4, 6], [1, 2, 3], [0, 0, 1]]) == 2
    assert rank_over_rationals([[0, 0], [0, 0]]) == 0


def test_kron_basis_rank_is_full():
    assert kron_basis_rank(1, 1, 1, 1) == 1
    assert kron_basis_rank(2, 2, 2, 2) == 16
    assert kron_basis_rank(2, 2, 3, 3) == 36
    assert kron_basis_rank(2, 3, 2, 1) == 12


def test_kron_basis_rank_capacity():
    with pytest.raises(CapacityError):
        kron_basis_rank(8, 8, 8, 8, dense_bound=64)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_mixed_product_law(m, n, q, p, r, s, seed):
    gen = np.random.default_rng(seed)
    b1 = gen.integers(-9, 10, (m, n)).astype(np.int64)
    a1 = gen.integers(-9, 10, (n, q)).astype(np.int64)
    b2 = gen.integers(-9, 10, (p, r)).astype(np.int64)
    a2 = gen.integers(-9, 10, (r, s)).astype(np.int64)
    left = kron(matmul(b1, a1), matmul(b2, a2))
    right = matmul(kron(b1, b2), kron(a1, a2))
    assert matrices_equal(left, right)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**31 - 1))
def test_transpose_distributes_over_kron(m, n, p, r, seed):
    gen = np.random.default_rng(seed)
    a = gen.integers(-9, 10, (m, n)).astype(np.int64)
    b = gen.integers(-9, 10, (p, r)).astype(np.int64)
    assert matrices_equal(kron(a, b).T, kron(a.T, b.T))


def test_matrices_equal_is_exact_integer_only():
    assert matrices_equal(int_matrix([[1, 2]]), int_matrix([[1, 2]]))
    assert not matrices_equal(int_matrix([[1, 2]]), int_matrix([[1, 3]]))
    assert not matrices_equal(int_matrix([[1, 2]]), int_matrix([[1], [2]]))
    with pytest.raises(ValueError, match="tolerance"):
        matrices_equal(complex_matrix([[1]]), complex_matrix([[1]]))


def test_matrices_close_requires_tolerance_argument():
    a = complex_matrix([[1 + 1e-12j]])
    b = complex_matrix([[1]])
    with pytest.raises(TypeError):
        matrices_close(a, b)  # tolerance is mandatory
    assert matrices_close(a, b, 1e-10)
    assert not matrices_close(a, b, 1e-14)
    assert not matrices_close(a, complex_matrix([[1, 0]]), 1e-10)


def test_float_matrices_are_rejected():
    with pytest.raises(ValueError, match="domain"):
        domain_of(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="domain"):
        kron(np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("call", [
    int_matrix,
    lambda m: kron(m, _eye(1)),
    lambda m: matrices_equal(m, int_matrix([[-2**63]])),
], ids=["int_matrix", "kron", "matrices_equal"])
def test_unsigned_entries_past_int64_are_refused_not_wrapped(call):
    with pytest.raises(ValueError, match="int64"):
        call(np.array([[2**63]], dtype=np.uint64))
    assert int_matrix(np.array([[2**63 - 1]], dtype=np.uint64)).tolist() == [[2**63 - 1]]


def test_integer_products_that_could_leave_int64_are_refused():
    # numpy wraps both of these to [[0]]
    with pytest.raises(ValueError, match="int64"):
        kron([[2**62]], [[4]])
    with pytest.raises(ValueError, match="int64"):
        matmul([[2**31, 2**31]], [[2**31], [2**31]])
    # the bound is max|a| * max|b| (times the inner size), so the edge passes
    assert kron([[2**62 - 1]], [[-2]]).tolist() == [[-(2**63 - 2)]]
    assert matmul([[2**30, 2**30]], [[2**31], [2**31]]).tolist() == [[2**62]]


def test_domain_tags():
    assert domain_of(int_matrix([[1]])) == "int"
    assert domain_of(complex_matrix([[1]])) == "complex"
