import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorperm import (
    DEFAULT_DENSE_BOUND,
    CapacityError,
    DimList,
    IndexPerm,
    Sigma,
    TensorPermSpec,
    build_delta,
    decompose_swap,
    induced_index_perm,
    tcm_spec,
)
from tensorperm import formats
from tensorperm.formats import (
    MM_HEADER,
    parse_matrix_market,
    parse_perm,
    write_blocks,
    write_decomposition,
    write_dense,
    write_matrix_market,
    write_perm,
)

from oracles import all_specs, nested_write_decomposition


def test_matrix_market_exact_text():
    text = write_matrix_market(build_delta(tcm_spec(3, 2)))
    assert text == (
        "%%MatrixMarket matrix coordinate integer general\n"
        "6 6 6\n"
        "1 1 1\n"
        "2 3 1\n"
        "3 5 1\n"
        "4 2 1\n"
        "5 4 1\n"
        "6 6 1\n"
    )


def test_matrix_market_round_trip_sweep():
    for dims, mapping in all_specs(36):
        m = build_delta(TensorPermSpec(dims, mapping))
        assert np.array_equal(parse_matrix_market(write_matrix_market(m)), m)


def test_matrix_market_round_trip_general_integers():
    m = np.array([[0, -3, 0], [7, 0, 2]], dtype=np.int64)
    assert np.array_equal(parse_matrix_market(write_matrix_market(m)), m)


def test_matrix_market_parser_tolerates_comments():
    text = (
        "%%MatrixMarket matrix coordinate integer general\n"
        "% a comment line\n"
        "2 2 1\n"
        "2 1 1\n"
    )
    assert parse_matrix_market(text).tolist() == [[0, 0], [1, 0]]


def test_matrix_market_parser_errors():
    with pytest.raises(ValueError, match="header"):
        parse_matrix_market("2 2 1\n2 1 1\n")
    with pytest.raises(ValueError, match="flavor"):
        parse_matrix_market("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.5\n")
    with pytest.raises(ValueError, match="coordinate lines"):
        parse_matrix_market("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 1\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_matrix_market("%%MatrixMarket matrix coordinate integer general\n2 2 1\n3 1 1\n")
    for size in ("-1 2 0", "2 -1 0", "2 2", "2 x 0"):
        with pytest.raises(ValueError, match="bad size line"):
            parse_matrix_market(f"%%MatrixMarket matrix coordinate integer general\n{size}\n")


def test_perm_format_round_trip():
    perm = induced_index_perm(DimList((3, 2)), Sigma((2, 1)))
    text = write_perm(perm)
    assert text == "6\n1 3 5 2 4 6\n"
    assert parse_perm(text) == perm


def test_perm_text_is_one_line_across_chunks():
    n = 2 * formats._PERM_CHUNK + 3
    perm = induced_index_perm(DimList((n,)), Sigma((1,)))
    text = write_perm(perm)
    assert text == f"{n}\n" + " ".join(str(c) for c in range(1, n + 1)) + "\n"
    assert "".join(formats._perm_chunks(IndexPerm([]))) == "0\n\n"


def test_perm_parser_errors():
    with pytest.raises(ValueError, match="expected 3 entries"):
        parse_perm("3\n1 2\n")
    with pytest.raises(ValueError, match="empty"):
        parse_perm("")
    # the size is integer text like every entry, checked before the count
    with pytest.raises(ValueError, match="invalid integer text '1_0'"):
        parse_perm("1_0\n1 2")
    with pytest.raises(ValueError, match="invalid integer text 'abc'"):
        parse_perm("abc\n1")


def test_dense_format():
    text = write_dense(build_delta(tcm_spec(2, 2)))
    assert text == "1 0 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 1\n"


def test_blocks_format_structure():
    text = write_blocks(build_delta(tcm_spec(3, 2)), block=2)
    groups = text.split("\n\n")
    assert len(groups) == 3
    assert groups[0].splitlines() == ["1 0  0 0  0 0", "0 0  1 0  0 0"]


def test_blocks_format_divisibility():
    with pytest.raises(ValueError, match="divide"):
        write_blocks(build_delta(tcm_spec(3, 2)), block=4)


def test_blocks_format_refuses_float_matrices():
    with pytest.raises(ValueError, match="domain"):
        write_blocks(np.array([[1.5, 0], [0, 1]]), 1)


def test_decomposition_format_n2():
    text = write_decomposition(decompose_swap(2), tol=1e-10)
    assert text == "n 2\nc00 0.5\n1 1 0.5 0\n2 2 0.5 0\n3 3 0.5 0\n"


def test_decomposition_format_n3_values():
    lines = write_decomposition(decompose_swap(3), tol=1e-10).splitlines()
    assert lines[0] == "n 3"
    assert lines[1] == "c00 0.3333333333"
    assert lines[2:] == [f"{i} {i} 0.5 0" for i in range(1, 9)]


def test_decomposition_format_matches_the_nested_walk():
    for n in range(2, 9):
        dec = decompose_swap(n)
        for tol in (0, 1e-10, 0.3):
            assert write_decomposition(dec, tol) == nested_write_decomposition(dec, tol)


def test_writers_are_deterministic():
    m = build_delta(tcm_spec(4, 3))
    assert write_matrix_market(m) == write_matrix_market(m)
    assert write_dense(m) == write_dense(m)
    dec = decompose_swap(3)
    assert write_decomposition(dec, 1e-10) == write_decomposition(dec, 1e-10)


def test_perm_round_trip_via_index_perm():
    perm = IndexPerm((2, 3, 1))
    assert parse_perm(write_perm(perm)) == perm


@pytest.mark.parametrize("text", ["-2\n"])
def test_perm_parser_rejects_nonpositive_size(text):
    with pytest.raises(ValueError, match="^permutation size must not be negative, got -2$"):
        parse_perm(text)


@pytest.mark.parametrize("text", ["0", "0\n", "0\n\n"])
def test_perm_parser_accepts_size_zero(text):
    # "0\n\n" is what write_perm emits for the order-0 permutation
    perm = parse_perm(text)
    assert perm == IndexPerm([])
    assert write_perm(perm) == "0\n\n"


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)], ids=["0x0", "0x3", "2x0"])
def test_matrix_market_round_trips_an_empty_shape(shape):
    text = write_matrix_market(np.zeros(shape, dtype=np.int64))
    assert text == f"{MM_HEADER}\n{shape[0]} {shape[1]} 0\n"
    m = parse_matrix_market(text)
    assert m.shape == shape and m.dtype == np.int64
    assert write_matrix_market(m) == text


@pytest.mark.parametrize("text", ["3\n0 1 2\n", "3\n1 2 4\n", "3\n1 1 2\n",
                                  "2\n1 99999999999999999999\n", "2\n1 x\n",
                                  "2\n+2 1\n", "10\n1_0 1 2 3 4 5 6 7 8 9\n",
                                  "2\n\u0662 1\n", "2\n2\u00a01\n", "1_0\n1 2", "abc\n1"])
def test_perm_parser_rejects_bad_entries(text):
    with pytest.raises(ValueError) as info:
        parse_perm(text)
    assert "\n" not in str(info.value)


def test_perm_parser_builds_array_backed_perm():
    perm = parse_perm("4\n2 4 1 3\n")
    assert perm.index.tolist() == [1, 3, 0, 2]
    assert not perm.index.flags.writeable
    assert perm == IndexPerm((2, 4, 1, 3))


def test_matrix_market_parser_rejects_duplicate_coordinates():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 1\n1 1 1\n"
    with pytest.raises(ValueError, match="duplicate coordinate"):
        parse_matrix_market(text)


@pytest.mark.parametrize("shape", ["4097 1", "1 4097", "100000 100000", "10000000000 10000000000"])
def test_matrix_market_parser_bounds_the_header_shape(shape):
    text = f"%%MatrixMarket matrix coordinate integer general\n{shape} 0\n"
    with pytest.raises(CapacityError, match="dense bound") as info:
        parse_matrix_market(text)
    assert "\n" not in str(info.value)


def test_matrix_market_parser_accepts_the_bound():
    text = f"%%MatrixMarket matrix coordinate integer general\n{DEFAULT_DENSE_BOUND} 1 1\n2 1 5\n"
    m = parse_matrix_market(text)
    assert m.shape == (DEFAULT_DENSE_BOUND, 1)
    assert m[1, 0] == 5 and int(m.sum()) == 5


def test_matrix_market_writer_refuses_unsigned_values_past_int64():
    # the parser stores int64, so the writer may emit only what fits
    with pytest.raises(ValueError, match="int64"):
        write_matrix_market(np.array([[2**64 - 1]], dtype=np.uint64))
    small = np.array([[0, 7]], dtype=np.uint64)
    assert parse_matrix_market(write_matrix_market(small)).tolist() == [[0, 7]]


def test_matrix_market_parser_rejects_values_past_int64():
    text = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 99999999999999999999\n"
    with pytest.raises(ValueError, match="int64"):
        parse_matrix_market(text)


@pytest.mark.parametrize("entry", ["2 2 1\n+2 1 5", "10 10 1\n1_0 1 5",
                                   "2 2 1\n\u0662 1 5", "2 2 1\n2\u00a01 5"])
def test_matrix_market_parser_rejects_integer_text_the_writer_never_emits(entry):
    with pytest.raises(ValueError) as info:
        parse_matrix_market(f"%%MatrixMarket matrix coordinate integer general\n{entry}\n")
    assert "\n" not in str(info.value)


# characters the parsers must refuse or handle beside the writers' own
_EDIT_CHARS = "0123456789 \n\t-+_%x.\u0662\u00a0"


@st.composite
def _edited(draw, text):
    """The writer's text with up to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        if op == "insert" or at == len(chars):
            chars.insert(at, draw(st.sampled_from(_EDIT_CHARS)))
        elif op == "delete":
            del chars[at]
        else:
            chars[at] = draw(st.sampled_from(_EDIT_CHARS))
    return "".join(chars)


_perm_texts = st.one_of(
    st.integers(0, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda cols: write_perm(IndexPerm(cols))).flatmap(_edited),
    st.lists(st.integers(-1, 2**70), min_size=1, max_size=4).map(
        lambda cols: f"{len(cols)}\n" + " ".join(map(str, cols)) + "\n"
    ),
    st.text(alphabet=_EDIT_CHARS, max_size=30),
    st.text(max_size=30),
)

_matrices = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32 - 1)).map(
    lambda args: np.random.default_rng(args[2]).choice(
        np.array([0, 0, 1, -1, 7, -(2**63), 2**63 - 1], dtype=np.int64), size=args[:2]
    )
)
_mm_texts = st.one_of(
    _matrices.map(write_matrix_market).flatmap(_edited),
    st.text(alphabet=_EDIT_CHARS, max_size=30).map(
        lambda body: "%%MatrixMarket matrix coordinate integer general\n" + body
    ),
    st.text(max_size=30),
)


@settings(max_examples=400, deadline=None)
@given(_perm_texts)
def test_fuzz_perm_text(text):
    try:
        perm = parse_perm(text)
    except (ValueError, CapacityError) as exc:
        assert "\n" not in str(exc)
        return
    assert parse_perm(write_perm(perm)) == perm


@settings(max_examples=400, deadline=None)
@given(_mm_texts)
def test_fuzz_matrix_market_text(text):
    try:
        m = parse_matrix_market(text)
    except (ValueError, CapacityError) as exc:
        assert "\n" not in str(exc)
        return
    assert m.dtype == np.int64
    assert np.array_equal(parse_matrix_market(write_matrix_market(m)), m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.permutations(range(1, n + 1))), _matrices)
def test_writer_text_round_trips(cols, m):
    text = write_perm(IndexPerm(cols))
    assert write_perm(parse_perm(text)) == text
    text = write_matrix_market(m)
    assert np.array_equal(parse_matrix_market(text), m)
    assert write_matrix_market(parse_matrix_market(text)) == text
