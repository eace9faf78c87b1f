"""CSV output with a self-describing comment header and round-trip floats.

Every file starts with a ``#`` line recording the resolved configuration, so
re-running a preset reproduces the file byte for byte.  Floats are written
with 17 significant digits.

Rows arrive either as a sequence of tuples or as a :class:`BlockTable`, whose
blocks hold each column as a scalar shared by the block or as a 1-D numpy
array.  Tuples are written row by row, one ``fmt`` call per value.  An array
column formats each distinct value of its block once (``np.unique``), floats
told apart by their bits, so the repeated offsets and symmetric entries of a
correlation block cost one ``format`` call each.  The text is exactly what
``fmt`` gives per value.

Lines are joined and written ``CHUNK_ROWS`` at a time.  The writer holds one
block's arrays and their texts at a time, never the whole table or file.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

THREADS_ENV = "HMIMOS_THREADS"
CHUNK_ROWS = 4096
_FLOAT_SPEC = ".17g"


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


def _texts(values: list, sep: str) -> list[str]:
    """``fmt(v) + sep`` of each value of a list of one type."""
    if values and type(values[0]) is float:
        return [format(v, _FLOAT_SPEC) + sep for v in values]  # fmt without its type checks
    return [fmt(v) + sep for v in values]


def _array_text(arr: np.ndarray, sep: str) -> list[str]:
    """``fmt(v) + sep`` of each array value, formatting each distinct value once.

    A float column is keyed by its bits, so ``0.0``, ``-0.0`` and NaNs of
    different bits stay apart; each key prints one way.
    """
    keys = arr.view(f"u{arr.itemsize}") if arr.dtype.kind == "f" else arr
    distinct, inverse = np.unique(keys, return_inverse=True)
    if distinct.size == arr.size:
        # No value repeats in the block (a channel block): gathering gains nothing.
        return _texts(arr.tolist(), sep)
    texts = _texts(distinct.view(arr.dtype).tolist(), sep)
    return np.array(texts, dtype=object)[inverse].tolist()


def _block_lines(columns) -> Iterable[str]:
    """The text lines of one block, each ending in a newline."""
    n = _block_length(columns)
    width = len(columns)
    pieces = []
    for j, col in enumerate(columns):
        sep = "," if j < width - 1 else "\n"
        if isinstance(col, np.ndarray):
            pieces.append(_array_text(col, sep))
        else:
            pieces.append(repeat(fmt(col) + sep, n))
    return map("".join, zip(*pieces))


def _write_rows(out, rows) -> None:
    if isinstance(rows, BlockTable):
        lines = chain.from_iterable(map(_block_lines, rows.blocks()))
    else:
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
