"""The mutation table: each row breaks one piece of the library on purpose,
and ``verify`` on five specs, with four checker probes beside it, must
report exactly the failures that row lists.

A row whose patch the table does not catch, or catches in a check it does
not list, fails here; so does a check that starts to pass for a wrong U.
"""

import numpy as np
import pytest

from tensorperm import (
    ClosureReport,
    IndexPerm,
    Sigma,
    TcmLabel,
    TensorPermSpec,
    cli,
    gellmann,
    index_algebra,
    induced_index_perm,
    perm_matrix,
)
from tensorperm.cli import main

from oracles import perm_dense

# the five specs of every row, as --dims and --sigma; the last three sigmas
# are involutions, so a patch that reads sigma^-1 for sigma moves nothing there
SPECS = [("3,4,2", "2,3,1"), ("2,3,4", "3,1,2"), ("3,2", "2,1"), ("4,4", "2,1"),
         ("2,2,2", "3,2,1")]
THREE_FACTOR = {("3,4,2", "2,3,1"), ("2,3,4", "3,1,2"), ("2,2,2", "3,2,1")}
INVOLUTIONS = {("3,2", "2,1"), ("4,4", "2,1"), ("2,2,2", "3,2,1")}
SQUARE_INVOLUTIONS = {("4,4", "2,1"), ("2,2,2", "3,2,1")}  # U itself is an involution

AGREEMENT = "constructor-agreement"
RELOCATION = "vector-relocation"
CONJUGATION = "matrix-conjugation"
DUALITY = "transpose-duality"
SHAPE = "permutation-shape"
CHECKS = [AGREEMENT, RELOCATION, CONJUGATION, DUALITY, SHAPE]  # verify's line order

# U[3(x)2] and U[n(x)n] for n = 2, 3, written out from their index
# permutations, so no probe input comes from the code under a patch
SWAP_3x2 = np.array(perm_dense((1, 3, 5, 2, 4, 6)))
SWAPS = {2: np.array(perm_dense((1, 3, 2, 4))),
         3: np.array(perm_dense((1, 4, 7, 2, 5, 8, 3, 6, 9)))}
MOVED = SWAP_3x2.copy()
MOVED[0] = np.roll(MOVED[0], 1)  # six nonzero entries, but column 2 holds two 1s


def checker_failures():
    """Names of the checkers that give a wrong answer on fixed inputs."""
    # each checker is looked up in its module at call time, so a patch shows
    probes = {
        "classify": lambda: (perm_matrix.classify_tcm(SWAP_3x2) == [TcmLabel(3, 2)]
                             and perm_matrix.classify_tcm(MOVED) == []),
        "permutation": lambda: (perm_matrix.is_permutation_matrix(SWAP_3x2)
                                and not perm_matrix.is_permutation_matrix(MOVED)),
        "closure": lambda: (perm_matrix.closure_check(3, 2)
                            == ClosureReport(closed=False, witness="U[3x2] * U[3x2]")
                            and perm_matrix.closure_check(2, 4).closed
                            and perm_matrix.closure_check(3, 3).closed),
        "decomposition": lambda: all(
            np.allclose(gellmann.decompose_swap(n).reconstruct(), swap, rtol=0, atol=1e-12)
            for n, swap in SWAPS.items()),
    }
    return {name for name, probe in probes.items() if not probe()}


def _wrap_induced_index(monkeypatch, change):
    right = index_algebra._induced_index
    monkeypatch.setattr(index_algebra, "_induced_index",
                        lambda dims, mapping: change(right(dims, mapping)))


def _inverted(index):
    inverse = np.empty_like(index)
    inverse[index] = np.arange(index.size)
    return inverse


def _last_entry_repeated(index):
    index[-1] = index[0]
    return index


def _walk_restarting_on_the_same_row(n, p):
    # the stride walk with its restart one row too high
    size, rows, row = n * p, [], 1
    for _ in range(size):
        rows.append(row)
        row += n
        if row > size:
            row -= size
    return rows


def _permute_factors_by_the_inverse(monkeypatch):
    right = index_algebra._permute_factors

    def by_inverse(a, dims, mapping):
        return right(a, dims, Sigma(mapping).inverse().mapping)

    monkeypatch.setattr(index_algebra, "_permute_factors", by_inverse)
    monkeypatch.setattr(perm_matrix, "_permute_factors", by_inverse)


def _elementary_sum_by_the_inverse(monkeypatch):
    right = perm_matrix.build_elementary_sum
    monkeypatch.setattr(cli, "build_elementary_sum", lambda spec, dense_bound: right(
        TensorPermSpec(spec.dims, spec.sigma.inverse()), dense_bound=dense_bound))


def _nonzero_count_only(monkeypatch):
    # is_permutation_matrix stopping after its count of nonzero entries
    def count_only(m):
        m = np.asarray(m)
        return m.ndim == 2 and m.shape[0] == m.shape[1] and np.count_nonzero(m) == m.shape[0]

    monkeypatch.setattr(perm_matrix, "is_permutation_matrix", count_only)
    monkeypatch.setattr(cli, "is_permutation_matrix", count_only)


def _classify_transposed(monkeypatch):
    right = perm_matrix.classify_tcm
    monkeypatch.setattr(perm_matrix, "classify_tcm", lambda m: right(np.asarray(m).T))


def _identity_for_the_swap(monkeypatch):
    # decompose_swap reading the identity's index in place of U[n(x)n]'s
    monkeypatch.setattr(gellmann, "induced_index_perm",
                        lambda dims, sigma: induced_index_perm(dims, Sigma.identity(len(dims))))


# id, patch, verify's FAIL set, the specs where verify passes whole, and the
# checkers that fail; every other spec exits 1 with exactly that FAIL set
ROWS = [
    ("induced-index-rolled", lambda mp: _wrap_induced_index(mp, lambda i: np.roll(i, 1)),
     {AGREEMENT, CONJUGATION, DUALITY}, set(), {"classify", "closure", "decomposition"}),
    ("induced-index-inverted", lambda mp: _wrap_induced_index(mp, _inverted),
     {AGREEMENT, CONJUGATION, DUALITY}, SQUARE_INVOLUTIONS, {"classify"}),
    ("induced-index-identity", lambda mp: _wrap_induced_index(mp, lambda i: np.arange(i.size)),
     {AGREEMENT, CONJUGATION, DUALITY}, set(), {"classify", "closure", "decomposition"}),
    ("induced-index-entry-repeated", lambda mp: _wrap_induced_index(mp, _last_entry_repeated),
     {AGREEMENT, CONJUGATION, DUALITY, SHAPE}, set(), {"classify", "decomposition"}),
    ("apply-returns-its-input", lambda mp: mp.setattr(cli, "apply_perm", lambda spec, v: v),
     {RELOCATION}, set(), set()),
    ("elementary-sum-reads-the-inverse", _elementary_sum_by_the_inverse,
     {AGREEMENT, DUALITY}, INVOLUTIONS, set()),
    ("stride-walk-restarts-on-the-same-row",
     lambda mp: mp.setattr(perm_matrix, "_stride_positions_walk",
                           _walk_restarting_on_the_same_row),
     {AGREEMENT}, THREE_FACTOR, set()),
    ("permute-factors-reads-the-inverse", _permute_factors_by_the_inverse,
     {AGREEMENT, RELOCATION, CONJUGATION, DUALITY}, INVOLUTIONS, set()),
    ("classify-reads-the-transpose", _classify_transposed, set(), set(SPECS), {"classify"}),
    ("permutation-check-counts-only", _nonzero_count_only, set(), set(SPECS), {"permutation"}),
    ("compose-returns-its-left-factor",
     lambda mp: mp.setattr(IndexPerm, "compose", lambda self, other: self),
     set(), set(SPECS), {"closure"}),
    ("decompose-reads-the-identity", _identity_for_the_swap, set(), set(SPECS),
     {"decomposition"}),
]


@pytest.fixture
def patch(monkeypatch):
    # monkeypatch leaves the lru cache alone, so no index built under a
    # patch may outlive it, and none built before may hide it
    index_algebra._cached_perm.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    index_algebra._cached_perm.cache_clear()


def verify_outcome(dims, sigma, capsys):
    """verify's exit code and FAIL set; its stdout must be one PASS or FAIL
    line per check, in order, and its stderr empty."""
    code = main(["verify", "--dims", dims, "--sigma", sigma])
    out, err = capsys.readouterr()
    fails = {name for name in CHECKS if f"FAIL {name}\n" in out}
    lines = "".join(f"{'FAIL' if name in fails else 'PASS'} {name}\n" for name in CHECKS)
    assert (out, err) == (lines, "")
    return code, fails


def test_no_row_is_caught_without_its_patch(capsys):
    assert checker_failures() == set()
    for dims, sigma in SPECS:
        assert verify_outcome(dims, sigma, capsys) == (0, set())


# a wrong swap index can give decompose_swap a basis product of norm 0
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_a_mutation_shows_exactly_in_its_checks(row, patch, capsys):
    _, apply_patch, fails, passing, checker_fails = row
    apply_patch(patch)
    got = {spec: verify_outcome(*spec, capsys) for spec in SPECS}
    want = {spec: (0, set()) if spec in passing else (1, fails) for spec in SPECS}
    assert got == want
    assert checker_failures() == checker_fails
