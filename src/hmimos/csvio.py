"""CSV output with a self-describing comment header and round-trip floats.

Every file starts with a ``#`` line recording the resolved configuration, so
re-running a preset reproduces the file byte for byte.  Floats are written
with 17 significant digits.

Rows arrive either as a sequence of tuples or as a :class:`BlockTable`, whose
blocks hold each column as a scalar shared by the block or coded as
``(values, codes)`` over int or float values.  Tuples are written row by
row, one ``fmt`` call per value, ``CHUNK_ROWS`` lines per write.

A block is written in one text pass.  Each column first becomes its texts:
a scalar one text, a coded column one text per value.  Each run of scalar
columns is then folded into the texts of the next column (a trailing run
into the column before it), and adjacent coded columns that share one
``codes`` array are joined once per value.  Every ``CHUNK_ROWS`` rows of
the block are gathered into a rows x pieces grid of texts and written with
one join.  The text is exactly what ``fmt`` gives per value.  The writer
holds one block's arrays and texts at a time, never the whole table or file.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

CHUNK_ROWS = 4096
_FLOAT_SPEC = ".17g"


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, _FLOAT_SPEC)
    if isinstance(value, complex):
        raise TypeError("split complex values into re/im columns")
    return str(value)


@dataclass(frozen=True)
class BlockTable:
    """A sized table of rows, built one block at a time.

    ``blocks()`` yields each block as a tuple of columns.  A column is a
    scalar shared by every row of the block or a coded column
    ``(values, codes)`` of two 1-D arrays whose row i holds
    ``values[codes[i]]``; its values are ints or floats, and any other
    column raises ``TypeError``.  Each block has at least one coded column,
    and its codes have equal lengths.  ``n_rows`` is the sum of those
    lengths.
    """

    n_rows: int
    blocks: Callable[[], Iterable[tuple]]

    def __len__(self) -> int:
        return self.n_rows


def _block_length(columns) -> int:
    if any(isinstance(c, np.ndarray) for c in columns):
        raise TypeError("a block column is a scalar or a coded (values, codes) pair, not an array")
    lengths = {len(c[1]) for c in columns if isinstance(c, tuple)}
    if len(lengths) != 1:
        raise ValueError(f"a block needs coded columns of one length, got {sorted(lengths)}")
    return lengths.pop()


def _texts(values: np.ndarray, sep: str) -> np.ndarray:
    """``fmt(v) + sep`` of each int or float value, as an object array."""
    kind = values.dtype.kind
    if kind not in "iuf" or values.dtype.itemsize > 8:  # not Python ints or floats
        raise TypeError(f"coded column values must be ints or floats, got {values.dtype}")
    items = values.tolist()
    # "%.17g" % v runs the same routine as format(v, ".17g"), and "%d" % v
    # the same as str(v); sep holds no "%".
    spec = _FLOAT_SPEC if kind == "f" else "d"
    return np.fromiter(map(f"%{spec}{sep}".__mod__, items), dtype=object, count=len(items))


def _column_texts(column, sep: str):
    """One column as its text (a scalar) or as ``(texts, codes)``.

    Row i of ``(texts, codes)`` reads ``texts[codes[i]]``.
    """
    if isinstance(column, tuple):
        values, codes = column
        return _texts(values, sep), codes
    return fmt(column) + sep


def _block_chunks(columns) -> Iterable[str]:
    """The text of one block, ``CHUNK_ROWS`` lines per string.

    Each run of scalar columns is folded into the texts of the next column
    (the last run into the column before it), and adjacent coded columns
    that share one ``codes`` array are joined once per value: a line is then
    a few pieces, gathered by codes into a rows x pieces grid and joined in
    one call.
    """
    n = _block_length(columns)
    last = len(columns) - 1
    pieces = []  # [texts, codes] per piece of a line, in column order
    run = ""  # scalar texts not yet folded into a piece
    for j, column in enumerate(columns):
        col = _column_texts(column, "," if j < last else "\n")
        if isinstance(col, str):
            run += col
            continue
        texts, codes = col
        if run:
            texts, run = run + texts, ""
        if pieces and pieces[-1][1] is codes:
            head = pieces[-1][0]
            size = min(len(head), len(texts))
            pieces[-1][0] = head[:size] + texts[:size]
        else:
            pieces.append([texts, codes])
    if run:
        pieces[-1][0] = pieces[-1][0] + run
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        grid = np.empty((stop - start, len(pieces)), dtype=object)
        for j, (texts, codes) in enumerate(pieces):
            grid[:, j] = texts[codes[start:stop]]
        yield "".join(grid.ravel().tolist())


def _write_rows(out, rows) -> None:
    if isinstance(rows, BlockTable):
        for columns in rows.blocks():
            for text in _block_chunks(columns):
                out.write(text)
        return
    lines = (",".join(map(fmt, row)) + "\n" for row in rows)
    while text := "".join(islice(lines, CHUNK_ROWS)):
        out.write(text)


def write_csv(path, config: str, columns, rows) -> Path:
    """Write ``rows`` (tuples, or a :class:`BlockTable`) under a ``#`` line and a header.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` only once every row is written: a failed write leaves no file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # A fresh name opened with "x" rather than tempfile, whose 0600 mode would
    # replace the umask-derived mode the file always had.
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open("x") as out:
            out.write(f"# {config}\n{','.join(columns)}\n")
            _write_rows(out, rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path

