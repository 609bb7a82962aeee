"""Deterministic text formats for permutation matrices and decompositions.

Every writer produces byte-identical output for identical input. Floats are
printed with 10 significant digits.
"""

from __future__ import annotations

import re

import numpy as np

from .index_algebra import IndexPerm
from .gellmann import SwapDecomposition
from .matrix_core import DEFAULT_DENSE_BOUND, _check_capacity, int_matrix

__all__ = [
    "MM_HEADER",
    "write_matrix_market",
    "parse_matrix_market",
    "write_perm",
    "parse_perm",
    "write_dense",
    "write_blocks",
    "write_decomposition",
    "parse_int",
    "parse_scalar",
    "format_scalar",
]

MM_HEADER = "%%MatrixMarket matrix coordinate integer general"

# The number text the writers emit: ASCII digits, a leading minus only where
# a value may be negative, and ASCII whitespace between tokens. Python's
# int() and float() would also take "+2", "1_0" and non-ASCII digits.
_DIGITS = "[0-9]+"
_INT = f"-?{_DIGITS}"
_INT_TEXT = re.compile(_INT)
_SCALAR_TEXT = re.compile(rf"-?(?:{_DIGITS}\.?[0-9]*|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?|nan|-?inf")
_MM_SIZE = re.compile(rf"({_DIGITS})\s+({_DIGITS})\s+({_DIGITS})", re.ASCII)
_MM_ENTRY = re.compile(rf"({_DIGITS})\s+({_DIGITS})\s+({_INT})", re.ASCII)
# split() has already cut the perm tokens, so a text of only these
# characters holds only digit tokens
_PERM_TEXT = re.compile(r"[0-9\s]*", re.ASCII)


def _fmt_float(x: float) -> str:
    return f"{x:.10g}"


def parse_int(text: str) -> int:
    """An integer token as the writers emit it: ASCII digits after an optional minus."""
    if _INT_TEXT.fullmatch(text) is None:
        raise ValueError(f"invalid integer text {text!r}")
    return int(text)


def parse_scalar(text: str) -> int | float:
    """A vector entry: an integer token, else an ASCII decimal float with an
    optional exponent, or ``nan``, ``inf`` or ``-inf`` as
    :func:`format_scalar` writes them."""
    if _SCALAR_TEXT.fullmatch(text) is None:
        raise ValueError(f"cannot parse vector entry {text!r}")
    # int() refuses an integer past Python's digit limit with a ValueError
    return int(text) if _INT_TEXT.fullmatch(text) else float(text)


def format_scalar(x) -> str:
    """Integers in full, floats with 10 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(float(x))


def write_matrix_market(m) -> str:
    """Coordinate Matrix Market text: header, size line, then 1-based
    ``row col value`` lines sorted by row then column."""
    m = int_matrix(m)
    rows, cols = m.shape
    entries = np.argwhere(m != 0)
    lines = [MM_HEADER, f"{rows} {cols} {len(entries)}"]
    lines += [f"{r + 1} {c + 1} {m[r, c]}" for r, c in entries]
    return "\n".join(lines) + "\n"


def parse_matrix_market(text: str) -> np.ndarray:
    """Inverse of :func:`write_matrix_market`; tolerates % comment lines.

    Rejects a shape past the dense bound (:class:`CapacityError`) before
    allocating, and non-ASCII text, integer tokens the writer never emits and
    a coordinate given twice (``ValueError``)."""
    if not text.isascii():
        raise ValueError("Matrix Market text must be ASCII")
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError("missing MatrixMarket header line")
    header = lines[0].split()
    if header[1:] != ["matrix", "coordinate", "integer", "general"]:
        raise ValueError(f"unsupported MatrixMarket flavor: {lines[0]}")
    body = [ln for ln in lines[1:] if ln and not ln.startswith("%")]
    if not body:
        raise ValueError("missing size line")
    size = _MM_SIZE.fullmatch(body[0])
    if size is None:
        raise ValueError(f"bad size line: {body[0]!r}")
    rows, cols, nnz = map(int, size.groups())
    _check_capacity(max(rows, cols), DEFAULT_DENSE_BOUND)
    if len(body) - 1 != nnz:
        raise ValueError(f"expected {nnz} coordinate lines, found {len(body) - 1}")
    m = np.zeros((rows, cols), dtype=np.int64)
    seen = set()
    for ln in body[1:]:
        entry = _MM_ENTRY.fullmatch(ln)
        if entry is None:
            raise ValueError(f"bad coordinate line: {ln!r}")
        r, c, v = map(int, entry.groups())
        if not 1 <= r <= rows or not 1 <= c <= cols:
            raise ValueError(f"coordinate out of range: {ln!r}")
        if (r, c) in seen:
            raise ValueError(f"duplicate coordinate: {ln!r}")
        seen.add((r, c))
        try:
            m[r - 1, c - 1] = v
        except OverflowError:
            raise ValueError(f"value out of int64 range: {ln!r}") from None
    return m


# Entries per piece of perm text: 2**16 columns take well under 1 MB of text.
_PERM_CHUNK = 2**16


def _perm_chunks(perm: IndexPerm):
    """The text of :func:`write_perm` in pieces: the size line, then the
    columns :data:`_PERM_CHUNK` at a time, then the final newline, so a writer
    holds one piece's text at a time."""
    yield f"{perm.n_rows}\n"
    for start in range(0, perm.n_rows, _PERM_CHUNK):
        cols = perm.index[start:start + _PERM_CHUNK] + 1
        # repr of an int is its decimal text, and map(repr) skips the type
        # call that map(str) makes per entry
        yield (" " if start else "") + " ".join(map(repr, cols.tolist()))
    yield "\n"


def write_perm(perm: IndexPerm) -> str:
    """Two lines: the size, then the 1-based column of each row's 1."""
    return "".join(_perm_chunks(perm))


def parse_perm(text: str) -> IndexPerm:
    """Inverse of :func:`write_perm`: a size N >= 0, then N columns that
    form a permutation of 1..N, all ASCII decimal digits separated by ASCII
    whitespace."""
    toks = text.split()
    if not toks:
        raise ValueError("empty permutation text")
    n = parse_int(toks[0])
    if n < 0:
        raise ValueError(f"permutation size must not be negative, got {n}")
    if len(toks) - 1 != n:
        raise ValueError(f"expected {n} entries, found {len(toks) - 1}")
    if not _PERM_TEXT.fullmatch(text):
        raise ValueError("permutation text must be ASCII digits separated by ASCII whitespace")
    try:  # numpy reads digit strings straight into integers
        cols = np.asarray(toks[1:], dtype=np.intp)
    except OverflowError:
        raise ValueError("col_of_row is not a permutation: entry out of range") from None
    return IndexPerm(cols)


def write_dense(m) -> str:
    m = int_matrix(m)
    return "\n".join(" ".join(str(v) for v in row) for row in m.tolist()) + "\n"


def write_blocks(m, block: int) -> str:
    """Nested display: row-blocks of ``block`` x ``block`` sub-blocks, with a
    blank line between row-blocks. Display only, not meant to be re-parsed."""
    m = int_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("block writer needs a square matrix")
    size = m.shape[0]
    if block < 1 or size % block:
        raise ValueError(f"block size {block} does not divide order {size}")
    # each row as its sub-blocks of ``block`` entries
    rows = ["  ".join(" ".join(map(str, cells)) for cells in row)
            for row in m.reshape(size, size // block, block).tolist()]
    return "\n\n".join("\n".join(rows[top:top + block]) for top in range(0, size, block)) + "\n"


def write_decomposition(dec: SwapDecomposition, tol: float) -> str:
    """Header fields ``n`` and ``c00``, then one ``a b real imag`` line per
    coefficient of magnitude above ``tol``, ordered by (a, b)."""
    lines = [f"n {dec.n}", f"c00 {_fmt_float(dec.c00)}"]
    for a, b in np.argwhere(np.abs(dec.table) > tol):
        if a or b:
            c = dec.table[a, b]
            lines.append(f"{a} {b} {_fmt_float(c.real)} {_fmt_float(c.imag)}")
    return "\n".join(lines) + "\n"
