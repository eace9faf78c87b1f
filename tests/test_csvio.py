"""The CSV writer, for tuple rows and block tables, against a row-by-row writer."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import block_rows, oracle_write
from hmimos import csvio
from hmimos.csvio import CHUNK_ROWS, BlockTable, fmt, write_csv


def assert_same_bytes(tmp_path, rows, columns=None):
    columns = columns or [f"c{j}" for j in range(len(rows[0]) if rows else 2)]
    got = write_csv(tmp_path / "got" / "t.csv", "cfg a=1", columns, rows)
    want = oracle_write(tmp_path / "want.csv", "cfg a=1", columns, rows)
    assert got.read_bytes() == want.read_bytes()
    assert sorted(p.name for p in got.parent.iterdir()) == ["t.csv"]


# Floats that compare equal but print differently (0.0 == -0.0), NaNs of
# both signs (equal to nothing), infinities, subnormals and whole numbers.
FLOAT_EDGES = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
     1e17, 1.0]
)
EQUAL_ACROSS_TYPES = st.sampled_from(
    [10**17, 1e17, 1, 1.0, True, 0, 0.0, -0.0, False, np.float64(-0.0), np.float64(1e17)]
)
# Column pools of values that compare equal, or equal to nothing, while fmt
# prints each its own way: every value must keep its own text.
CLASHING_POOLS = st.sampled_from(
    [[0.0, -0.0], [-0.0, 1.5, 0.0], [10**17, 1e17], [2**60, float(2**60)],
     [-(2**70), float(-(2**70))], [10**22, 1e22], [math.nan, 0.25]]
)
VALUE_KINDS = [
    st.floats(allow_subnormal=True),
    st.integers(),
    st.booleans(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
    st.floats().map(np.float64),
    FLOAT_EDGES,
    EQUAL_ACROSS_TYPES,
]


@st.composite
def tables(draw):
    """Rows whose columns each draw from a small pool, so values repeat."""
    width = draw(st.integers(1, 4))
    pool_strategy = st.one_of(
        [st.lists(kind, min_size=1, max_size=6) for kind in VALUE_KINDS + [st.one_of(VALUE_KINDS)]]
        + [CLASHING_POOLS]
    )
    pools = [draw(pool_strategy) for _ in range(width)]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        # Runs of one row give chunks whose columns hold a single type.
        row = tuple(draw(st.sampled_from(pool)) for pool in pools)
        rows += [row] * draw(st.integers(1, 4))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=tables(), chunk=st.integers(1, 8))
def test_bytes_match_the_row_by_row_writer(tmp_path_factory, rows, chunk):
    tmp_path = tmp_path_factory.mktemp("csv")
    with patch.object(csvio, "CHUNK_ROWS", chunk):
        assert_same_bytes(tmp_path, rows)


# Array dtype of each Python value type a coded column may hold.
DTYPES = {float: np.float64, int: np.int64}
# Text that a "%"-template, a field separator or a line end could mistake
# for its own.
AWKWARD_TEXT = st.lists(
    st.sampled_from(["%", "%d", "%.17g", ",", "\n", "x"]), max_size=3
).map("".join)
# Pools of the coded columns' values; a scalar column may also be text.
COLUMN_POOLS = {
    float: st.lists(st.one_of(FLOAT_EDGES, st.floats(allow_subnormal=True)), min_size=1, max_size=6),
    int: st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6),
}
SCALAR_TEXT = st.lists(st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
                                 AWKWARD_TEXT),
                       min_size=1, max_size=6)
# Column forms: a scalar, a coded column, and a coded column that shares the
# codes array of the block's first coded column.
FORMS = ["scalar", "coded", "shared"]


@st.composite
def block_tables(draw):
    """Block tables whose columns draw from one small pool per value type.

    Each block picks, per column, a type and one of ``FORMS``, so values
    repeat within and across blocks, scalars come in runs before, between
    and after the other columns, coded columns share codes side by side or
    apart, and a column changes type from one block to the next.
    """
    width = draw(st.integers(1, 6))
    pools = [{kind: draw(pool) for kind, pool in COLUMN_POOLS.items()} for _ in range(width)]
    texts = [draw(SCALAR_TEXT) for _ in range(width)]
    blocks = []
    n_rows = 0
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 7))
        n_rows += n
        forms = draw(st.lists(st.sampled_from(FORMS), min_size=width, max_size=width))
        forms[draw(st.integers(0, width - 1))] = draw(st.sampled_from(FORMS[1:]))
        columns = []
        shared = None  # (number of values, codes) of the block's first coded column
        for pool, text, form in zip(pools, texts, forms):
            kind = draw(st.sampled_from(list(pool)))
            if form == "shared" and shared is not None:
                size, codes = shared
                values = [draw(st.sampled_from(pool[kind])) for _ in range(size)]
                columns.append((np.array(values, dtype=DTYPES[kind]), codes))
            elif form in ("coded", "shared"):
                codes = np.array([draw(st.integers(0, len(pool[kind]) - 1)) for _ in range(n)],
                                 dtype=np.intp)
                shared = shared or (len(pool[kind]), codes)
                columns.append((np.array(pool[kind], dtype=DTYPES[kind]), codes))
            else:
                columns.append(draw(st.sampled_from(pool[kind] + text)))
        blocks.append(tuple(columns))
    return BlockTable(n_rows, lambda: iter(blocks))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=block_tables(), chunk=st.integers(1, 8))
def test_block_table_bytes_match_the_row_by_row_writer(tmp_path_factory, table, chunk):
    tmp_path = tmp_path_factory.mktemp("csv")
    rows = list(block_rows(table))
    assert len(table) == len(rows)
    assert all(type(v) in (float, int, str) for row in rows for v in row)
    columns = [f"c{j}" for j in range(len(rows[0]) if rows else 2)]
    with patch.object(csvio, "CHUNK_ROWS", chunk):
        got = write_csv(tmp_path / "got" / "t.csv", "cfg a=1", columns, table)
    want = oracle_write(tmp_path / "want.csv", "cfg a=1", columns, rows)
    assert got.read_bytes() == want.read_bytes()


def _coded(values, n):
    """A coded column over ``values`` whose ``n`` rows all read the first value."""
    return np.array(values), np.zeros(n, dtype=np.intp)


@pytest.mark.parametrize(
    "block",
    [(1.5, "x", 2), (_coded([0.5], 2), _coded([1], 3), "x"),
     # two columns that share one codes array, then a longer one
     (*[_coded([0.5], 2)] * 2, _coded([1], 3))],
    ids=["scalars", "ragged", "ragged-coded"],
)
def test_block_needs_array_columns_of_one_length(tmp_path, block):
    table = BlockTable(2, lambda: iter([block]))
    with pytest.raises(ValueError, match="coded columns of one length"):
        write_csv(tmp_path / "t.csv", "cfg", ["a", "b", "c"], table)
    with pytest.raises(ValueError, match="coded columns of one length"):
        list(block_rows(table))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "column",
    [np.array([0.5, 1.5]), _coded(["x", "y"], 2), _coded([True, False], 2), _coded([0.5, 1j], 2)],
    ids=["array", "str", "bool", "complex"],
)
def test_block_refuses_columns_other_than_scalars_and_int_or_float_codes(tmp_path, column):
    # The bad column comes in the second block, after a whole chunk of good rows.
    table = BlockTable(CHUNK_ROWS + 2, lambda: iter([
        (_coded([0.5], CHUNK_ROWS), 1), (_coded([0.5], 2), column),
    ]))
    with pytest.raises(TypeError):
        write_csv(tmp_path / "new.csv", "cfg", ["a", "b"], table)
    assert list(tmp_path.iterdir()) == []

    old = oracle_write(tmp_path / "out.csv", "old", ["a"], [(1,)])
    before = old.read_bytes()
    with pytest.raises(TypeError):
        write_csv(old, "cfg", ["a", "b"], table)
    assert old.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_equal_values_of_different_types_keep_their_own_text(tmp_path):
    # One chunk of ints, then one of floats: 1e17 prints as a float although it
    # equals 10**17, and -0.0 keeps its sign although it equals 0.0.
    rows = ([(10**17, 1, 0.0)] * CHUNK_ROWS + [(1e17, 1.0, -0.0)] * CHUNK_ROWS
            + [(10**17, True, 0.0), (1e17, 1, -0.0)])
    assert_same_bytes(tmp_path, rows)
    text = (tmp_path / "got" / "t.csv").read_text().splitlines()
    assert text[2] == "100000000000000000,1,0"
    assert text[2 + CHUNK_ROWS] == "1e+17,1,-0"

    # The same, as blocks of int and then float coded columns.
    table = BlockTable(4, lambda: iter([
        (_coded([10**17], 2), "a", _coded([0.0], 2)),
        (_coded([1e17], 2), "a", (np.array([-0.0, 0.0]), np.arange(2))),
    ]))
    got = write_csv(tmp_path / "table.csv", "cfg", ["a", "b", "c"], table)
    assert got.read_text().splitlines()[2:] == [
        "100000000000000000,a,0", "100000000000000000,a,0", "1e+17,a,-0", "1e+17,a,0"]


@pytest.mark.parametrize("n_rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
def test_chunk_boundaries(tmp_path, n_rows):
    rows = [
        (i % 3 + 1, "xx" if i % 2 else "zz", i // 7, math.cos(i % 50) * 1e-3, -0.0 if i % 11 else 0.0)
        for i in range(n_rows)
    ]
    assert_same_bytes(tmp_path, rows, columns=["user", "pol", "n", "raw", "zero"])


def test_ragged_rows(tmp_path):
    # Rows of widths 2, 1, 0 and 3, with 1.5 first in column a and last in
    # column b: each line holds exactly its own row's values.
    rows = [(1.5, 2), (3,), (), ("a", 0.25, -0.0), (1.5,), (2, 1.5)]
    assert_same_bytes(tmp_path, rows, columns=["a", "b"])


def test_failed_write_leaves_no_file(tmp_path):
    rows = [(0.5, 1)] * CHUNK_ROWS + [(0.5, 1), (1j, 2)]
    with pytest.raises(TypeError, match="complex"):
        write_csv(tmp_path / "out.csv", "cfg", ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []

    # An earlier file at the same path is left as it was.
    old = oracle_write(tmp_path / "out.csv", "old", ["a"], [(1,)])
    before = old.read_bytes()
    with pytest.raises(TypeError):
        write_csv(old, "cfg", ["a", "b"], rows)
    assert old.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    # The same for a block table whose second block has a complex coded column.
    table = BlockTable(CHUNK_ROWS + 2, lambda: iter([
        (_coded([0.5], CHUNK_ROWS), 1), ((np.array([0.5, 1j]), np.arange(2)), 2),
    ]))
    with pytest.raises(TypeError, match="complex"):
        write_csv(tmp_path / "table.csv", "cfg", ["a", "b"], table)
    with pytest.raises(TypeError, match="complex"):
        write_csv(old, "cfg", ["a", "b"], table)
    assert old.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
