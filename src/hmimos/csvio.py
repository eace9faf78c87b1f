"""CSV output with a self-describing comment header and round-trip floats.

Every file starts with a ``#`` line recording the resolved configuration, so
re-running a preset reproduces the file byte for byte.  Floats are written
with 17 significant digits.

Rows are written in chunks of ``CHUNK_ROWS``.  Within a chunk each column is
formatted on its own, and each distinct value of a column is formatted once,
so the repeated offsets and symmetric entries of a correlation export cost
one ``format`` call each.  A column's memo lives for the whole file, so it
holds at most one text per distinct value.  The text is exactly what ``fmt``
gives per value.
"""

from __future__ import annotations

import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

THREADS_ENV = "HMIMOS_THREADS"
CHUNK_ROWS = 4096
# Columns of exactly one of these types use a memo; equal values of one such
# type always print the same, except float zeros and NaN (see _column_text).
_MEMO_TYPES = frozenset((str, int, float, bool))


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, complex):
        raise TypeError("split complex values into re/im columns")
    return str(value)


def _column_text(values, memos: dict) -> list[str]:
    """``fmt`` of each value, formatting each distinct value once.

    ``memos`` maps a value type to the memo of one column.  Only a column
    chunk of a single exact type uses a memo, so values that compare equal
    but print differently (``1``, ``1.0`` and ``True``; ``10**17`` and
    ``1e17``) never share an entry.  Float zeros (``0.0 == -0.0``) and NaN
    (equal to nothing) are never stored; every other type goes through
    ``fmt`` directly.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1 or not kinds <= _MEMO_TYPES:
        return list(map(fmt, values))
    kind = kinds.pop()
    memo = memos.setdefault(kind, {})
    unstored = False
    for v in set(values).difference(memo):
        if kind is float and (v == 0.0 or v != v):
            unstored = True
        else:
            memo[v] = fmt(v)
    if unstored:
        return [memo[v] if v in memo else fmt(v) for v in values]
    return list(map(memo.__getitem__, values))


def _write_rows(out, rows) -> None:
    it = iter(rows)
    memos = defaultdict(dict)  # column index -> value type -> memo
    while chunk := list(islice(it, CHUNK_ROWS)):
        widths = set(map(len, chunk))
        if len(widths) != 1 or 0 in widths:
            # Ragged or empty rows have no columns to share: format row by row.
            lines = [",".join(map(fmt, row)) for row in chunk]
        else:
            texts = [_column_text(col, memos[j]) for j, col in enumerate(zip(*chunk))]
            lines = map(",".join, zip(*texts))
        out.write("\n".join(lines))
        out.write("\n")


def write_csv(path, config: str, columns, rows) -> Path:
    """Write ``rows`` (a sequence of tuples) under a ``#`` line and a header.

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
