"""CSV output with a self-describing comment header and round-trip floats.

Every file starts with a ``#`` line recording the resolved configuration, so
re-running a preset reproduces the file byte for byte.  Floats are written
with 17 significant digits.

Rows arrive either as a sequence of tuples or as a :class:`BlockTable`, whose
blocks hold each column as a scalar shared by the block or as a 1-D numpy
array.  Tuples are transposed ``CHUNK_ROWS`` rows at a time into blocks of
value columns, so both reach one line builder.  Each column of a block is
formatted once per distinct value (``np.unique`` for an array), through a
memo that lives for the whole file, so the repeated offsets and symmetric
entries of a correlation export cost one ``format`` call each.  An array
column without a repeated value in its block (a channel block) is formatted
value by value and adds nothing to the memo.  The text is exactly what
``fmt`` gives per value.

A block's lines are joined and written ``CHUNK_ROWS`` at a time.  Besides
the memo, the writer holds one block's arrays and their texts at a time,
never the whole table or file.
"""

from __future__ import annotations

import os
from collections import defaultdict
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

THREADS_ENV = "HMIMOS_THREADS"
CHUNK_ROWS = 4096
_FLOAT_SPEC = ".17g"
# Columns of exactly one of these types use a memo; equal values of one such
# type always print the same, except float zeros and NaN (see _values_text).
_MEMO_TYPES = frozenset((str, int, float, bool))


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, _FLOAT_SPEC)
    if isinstance(value, complex):
        raise TypeError("split complex values into re/im columns")
    return str(value)


@dataclass(frozen=True)
class BlockTable:
    """A sized, re-iterable table of rows, built one block at a time.

    ``blocks()`` yields each block as a tuple of columns.  A column is
    either a scalar shared by every row of the block or a 1-D numpy array
    with one value per row; each block has at least one array column, and
    its arrays have equal lengths.  ``n_rows`` is the sum of those lengths.
    Iterating yields the rows as tuples of Python values.
    """

    n_rows: int
    blocks: Callable[[], Iterable[tuple]]

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self):
        for columns in self.blocks():
            n = _block_length(columns)
            yield from zip(*(
                c.tolist() if isinstance(c, np.ndarray) else repeat(c, n) for c in columns
            ))


def _block_length(columns) -> int:
    lengths = {len(c) for c in columns if isinstance(c, np.ndarray)}
    if len(lengths) != 1:
        raise ValueError(f"a block needs array columns of one length, got {sorted(lengths)}")
    return lengths.pop()


def _values_text(values, memos: dict, sep: str) -> list[str]:
    """``fmt(v) + sep`` of each value, formatting each distinct value once.

    ``memos`` maps a value type to the memo of one column.  Only a column
    chunk of a single exact type uses a memo, so values that compare equal
    but print differently (``1``, ``1.0`` and ``True``; ``10**17`` and
    ``1e17``) never share an entry.  Float zeros (``0.0 == -0.0``) and NaN
    (equal to nothing) are never stored; every other type goes through
    ``fmt`` directly.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1 or not kinds <= _MEMO_TYPES:
        return [fmt(v) + sep for v in values]
    kind = kinds.pop()
    memo = memos.setdefault(kind, {})
    unstored = False
    for v in set(values).difference(memo):
        if kind is float and (v == 0.0 or v != v):
            unstored = True
        else:
            memo[v] = fmt(v) + sep
    if unstored:
        return [memo[v] if v in memo else fmt(v) + sep for v in values]
    return list(map(memo.__getitem__, values))


def _texts(values: list, sep: str) -> list[str]:
    """``fmt(v) + sep`` of each value of a list of one type."""
    if values and type(values[0]) is float:
        return [format(v, _FLOAT_SPEC) + sep for v in values]  # fmt without its type checks
    return [fmt(v) + sep for v in values]


def _array_text(arr: np.ndarray, memos: dict, sep: str) -> list[str]:
    """``fmt(v) + sep`` of each array value, formatting each distinct value once.

    ``np.unique`` merges ``0.0`` with ``-0.0`` and every NaN with the
    others, so float zeros and NaN are never stored in the memo: they are
    formatted one at a time instead.
    """
    distinct, inverse = np.unique(arr, return_inverse=True)
    if distinct.size == arr.size:
        # No value repeats in the block (a channel block): a memo would only grow.
        return _texts(arr.tolist(), sep)
    values = distinct.tolist()
    memo = memos.setdefault(type(values[0]), {})
    special = arr.dtype.kind == "f" and bool(np.any((distinct == 0) | np.isnan(distinct)))
    missing = [v for v in values if v not in memo]
    if special:
        missing = [v for v in missing if v != 0.0 and v == v]
    memo.update(zip(missing, _texts(missing, sep)))
    # memo.get gives None for a float zero or NaN, filled in below.
    out = np.array(list(map(memo.get, values)), dtype=object)[inverse].tolist()
    if special:
        where = np.flatnonzero((arr == 0) | np.isnan(arr))
        for i, v in zip(where.tolist(), arr[where].tolist()):
            out[i] = fmt(v) + sep
    return out


def _block_lines(n: int, columns, memos) -> Iterable[str]:
    """The ``n`` text lines of one block, each ending in a newline.

    A column is a scalar, a numpy array or a tuple of values; ``memos`` maps
    a column's (block width, index) to that column's memo.
    """
    width = len(columns)
    pieces = []
    for j, col in enumerate(columns):
        sep = "," if j < width - 1 else "\n"
        if isinstance(col, np.ndarray):
            pieces.append(_array_text(col, memos[width, j], sep))
        elif isinstance(col, tuple):
            pieces.append(_values_text(col, memos[width, j], sep))
        else:
            pieces.append(repeat(fmt(col) + sep, n))
    return map("".join, zip(*pieces))


def _row_blocks(rows):
    """``(n, columns)`` per ``CHUNK_ROWS`` rows, the columns as tuples of values.

    A ragged chunk, or one with empty rows, has no columns to share and comes
    as one block per row.
    """
    it = iter(rows)
    while chunk := list(islice(it, CHUNK_ROWS)):
        widths = set(map(len, chunk))
        if len(widths) != 1 or 0 in widths:
            for row in chunk:
                yield 1, tuple((v,) for v in row)
        else:
            yield len(chunk), tuple(zip(*chunk))


def _write_rows(out, rows) -> None:
    if isinstance(rows, BlockTable):
        blocks = ((_block_length(columns), columns) for columns in rows.blocks())
    else:
        blocks = _row_blocks(rows)
    memos = defaultdict(dict)  # (block width, column index) -> value type -> text
    for n, columns in blocks:
        if not columns:  # an empty row
            out.write("\n")
        elif n:
            lines = _block_lines(n, columns, memos)
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


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn, items):
    """Map preserving input order; worker count capped by HMIMOS_THREADS.

    Each item must be computed independently of the others, so the output is
    identical whatever the level of parallelism.
    """
    items = list(items)
    workers = min(thread_count(), max(1, len(items)))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
