from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES
from loganon import (
    DimensionMismatch,
    EncodedEntry,
    OccurrenceGrid,
    RawLogEntry,
    build_grid,
    difference_grid,
    emit_grid,
    similarity_grid,
)
from loganon.grids import day_index

EPOCH = 1_000_000


def _entry(day: int, minute: int, node: str = "nodeA", second: int = 0) -> RawLogEntry:
    return RawLogEntry(EPOCH + day * 86400 + minute * 60 + second, node, "m")


def test_empty_corpus_all_zero():
    g = build_grid([], "nodeA", (0, 3), (0, 10), EPOCH)
    assert g.cells.shape == (4, 10)
    assert not g.occupied.any()


def test_single_entry_at_origin():
    g = build_grid([_entry(0, 0)], "nodeA", (0, 1), (0, 240), EPOCH)
    assert g.cells[0, 0] == 1
    assert g.cells.sum() == 1


def test_full_first_row_with_counting_oracle():
    entries = [_entry(0, m, second=7) for m in range(240)] + [_entry(1, 5)]
    g = build_grid(entries, "nodeA", (0, 1), (0, 240), EPOCH)
    assert g.occupied[0].all()
    # independent per-row count straight from timestamp arithmetic
    expected_rows = [0, 0]
    for e in entries:
        rel = e.timestamp - EPOCH
        expected_rows[rel // 86400] += 1
    assert list(g.cells.sum(axis=1)) == expected_rows


def test_build_grid_order_insensitive():
    entries = [_entry(d, m) for d in range(3) for m in (0, 7, 9)]
    a = build_grid(entries, "nodeA", (0, 2), (0, 10), EPOCH)
    b = build_grid(list(reversed(entries)), "nodeA", (0, 2), (0, 10), EPOCH)
    assert np.array_equal(a.cells, b.cells)


def test_build_grid_filters_node_day_and_minute():
    entries = [
        _entry(0, 3),
        _entry(0, 3, node="other"),
        _entry(5, 3),        # outside day range
        _entry(0, 200),      # outside minute window
        RawLogEntry(EPOCH - 1, "nodeA", "m"),  # before day 0
    ]
    g = build_grid(entries, "nodeA", (0, 1), (0, 100), EPOCH)
    assert g.cells.sum() == 1
    assert g.cells[0, 3] == 1


def test_build_grid_counts_accumulate():
    g = build_grid([_entry(0, 1, second=10), _entry(0, 1, second=50)], "nodeA", (0, 0), (0, 5), EPOCH)
    assert g.cells[0, 1] == 2


def test_build_grid_bad_window():
    with pytest.raises(ValueError):
        build_grid([], "n", (0, 0), (10, 5), EPOCH)
    with pytest.raises(ValueError):
        build_grid([], "n", (0, 0), (0, 2000), EPOCH)


def test_raw_and_encoded_corpora_give_same_grid():
    raw = [_entry(d, m) for d in range(2) for m in (1, 4)]
    encoded = [EncodedEntry(e.timestamp, e.source, "aa" * 4, "bb" * 4) for e in raw]
    g_raw = build_grid(raw, "nodeA", (0, 1), (0, 10), EPOCH)
    g_enc = build_grid(encoded, "nodeA", (0, 1), (0, 10), EPOCH)
    assert np.array_equal(g_raw.cells, g_enc.cells)


def test_day_index_floors_around_epoch():
    seconds = (-86401, -1, 0, 86399, 86400)
    assert [day_index(EPOCH + s, EPOCH) for s in seconds] == [-2, -1, 0, 0, 1]


# --- similarity / difference --------------------------------------------------

def _grid_from(cells: list[list[int]], node: str = "g") -> OccurrenceGrid:
    arr = np.array(cells, dtype=np.int64)
    return OccurrenceGrid(node, (0, arr.shape[0] - 1), (0, arr.shape[1]), arr)


def test_similarity_idempotent_and_annihilating():
    g = _grid_from([[1, 0], [0, 2]])
    empty = _grid_from([[0, 0], [0, 0]])
    assert np.array_equal(similarity_grid(g, g).cells, g.occupied.astype(int))
    assert not similarity_grid(g, empty).occupied.any()


def test_difference_identity_and_self():
    g = _grid_from([[1, 0], [0, 2]])
    empty = _grid_from([[0, 0], [0, 0]])
    assert np.array_equal(difference_grid(g, empty).occupied, g.occupied)
    assert not difference_grid(g, g).occupied.any()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        similarity_grid(_grid_from([[1]]), _grid_from([[1, 0]]))
    with pytest.raises(DimensionMismatch):
        difference_grid(_grid_from([[1]]), _grid_from([[1], [0]]))


grids_pair = st.tuples(
    st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
             min_size=4, max_size=4),
    st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
             min_size=4, max_size=4),
)


@given(grids_pair)
def test_similarity_commutative_and_partition(pair):
    a, b = (_grid_from(c) for c in pair)
    sim = similarity_grid(a, b)
    diff = difference_grid(a, b)
    assert np.array_equal(sim.cells, similarity_grid(b, a).cells)
    assert np.array_equal(diff.cells, difference_grid(b, a).cells)
    union = a.occupied | b.occupied
    assert np.array_equal(sim.occupied | diff.occupied, union)
    assert not (sim.occupied & diff.occupied).any()


# --- emission -----------------------------------------------------------------

def _emitted(grid: OccurrenceGrid, fmt: str) -> str:
    out = io.StringIO()
    emit_grid(grid, fmt, out)
    return out.getvalue()


def test_emit_empty_pgm():
    g = _grid_from([[0, 0, 0], [0, 0, 0]])
    lines = _emitted(g, "pgm").splitlines()
    assert lines[:3] == ["P2", "3 2", "255"]
    assert all(v == "255" for line in lines[3:] for v in line.split())


def test_emit_single_cell_pgm():
    g = _grid_from([[1, 0], [0, 0]])
    body = _emitted(g, "pgm").splitlines()[3:]
    assert body[0].split() == ["0", "255"]
    assert body[1].split() == ["255", "255"]


def test_emit_pgm_wraps_long_rows():
    g = _grid_from([[0] * 100])
    lines = _emitted(g, "pgm").splitlines()
    assert lines[1] == "100 1"
    assert all(len(line) <= 70 for line in lines)
    assert sum(len(line.split()) for line in lines[3:]) == 100


def test_emit_csv_lists_set_cells():
    g = build_grid([_entry(2, 7)], "nodeA", (1, 3), (5, 10), EPOCH)
    assert _emitted(g, "csv").splitlines() == ["day,minute", "2,7"]


def test_emit_unknown_format():
    out = io.StringIO()
    with pytest.raises(ValueError):
        emit_grid(_grid_from([[1]]), "bmp", out)
    assert out.getvalue() == ""


def test_golden_grid_files():
    entries = [
        _entry(0, 0, second=5),
        _entry(0, 3),
        _entry(1, 1, second=59),
        _entry(2, 4),
        _entry(2, 4, second=30),
        RawLogEntry(EPOCH, "nodeB", "m"),
    ]
    g = build_grid(entries, "nodeA", (0, 2), (0, 5), EPOCH)
    pgm = _emitted(g, "pgm").encode("ascii")
    csv = _emitted(g, "csv").encode("ascii")
    assert pgm == (FIXTURES / "grid_small.pgm").read_bytes()
    assert csv == (FIXTURES / "grid_small.csv").read_bytes()
