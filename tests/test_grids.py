from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from loganon import (
    DimensionMismatch,
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
    assert (g.day_range, g.minute_window) == ((0, 3), (0, 10))
    assert g.cells == frozenset()


def test_single_entry_at_origin():
    g = build_grid([_entry(0, 0)], "nodeA", (0, 1), (0, 240), EPOCH)
    assert g.cells == {(0, 0)}


def test_full_first_row_with_counting_oracle():
    entries = [_entry(0, m, second=7) for m in range(240)] + [_entry(1, 5)]
    g = build_grid(entries, "nodeA", (0, 1), (0, 240), EPOCH)
    assert all((0, m) in g.cells for m in range(240))
    # independent per-row count of occupied cells straight from timestamp arithmetic
    expected_rows: list[set[int]] = [set(), set()]
    for e in entries:
        rel = e.timestamp - EPOCH
        expected_rows[rel // 86400].add(rel % 86400 // 60)
    assert [sum(1 for d, _ in g.cells if d == row) for row in (0, 1)] == [
        len(minutes) for minutes in expected_rows
    ]


def test_build_grid_order_insensitive():
    entries = [_entry(d, m) for d in range(3) for m in (0, 7, 9)]
    a = build_grid(entries, "nodeA", (0, 2), (0, 10), EPOCH)
    b = build_grid(list(reversed(entries)), "nodeA", (0, 2), (0, 10), EPOCH)
    assert a.cells == b.cells


def test_build_grid_filters_node_day_and_minute():
    entries = [
        _entry(0, 3),
        _entry(0, 3, node="other"),
        _entry(5, 3),        # outside day range
        _entry(0, 200),      # outside minute window
        RawLogEntry(EPOCH - 1, "nodeA", "m"),  # before day 0
    ]
    g = build_grid(entries, "nodeA", (0, 1), (0, 100), EPOCH)
    assert g.cells == {(0, 3)}


def test_build_grid_same_minute_is_one_cell():
    g = build_grid([_entry(0, 1, second=10), _entry(0, 1, second=50)], "nodeA", (0, 0), (0, 5), EPOCH)
    assert g.cells == {(0, 1)}


def test_build_grid_bad_window():
    with pytest.raises(ValueError):
        build_grid([], "n", (0, 0), (10, 5), EPOCH)
    with pytest.raises(ValueError):
        build_grid([], "n", (0, 0), (0, 2000), EPOCH)


def test_day_index_floors_around_epoch():
    seconds = (-86401, -1, 0, 86399, 86400)
    assert [day_index(EPOCH + s, EPOCH) for s in seconds] == [-2, -1, 0, 0, 1]


# --- similarity / difference --------------------------------------------------

def _grid_from(cells: set[tuple[int, int]], days: int, minutes: int, node: str = "g") -> OccurrenceGrid:
    return OccurrenceGrid(node, (0, days - 1), (0, minutes), frozenset(cells))


def test_similarity_idempotent_and_annihilating():
    g = _grid_from({(0, 0), (1, 1)}, 2, 2)
    empty = _grid_from(set(), 2, 2)
    assert similarity_grid(g, g).cells == g.cells
    assert not similarity_grid(g, empty).cells


def test_difference_identity_and_self():
    g = _grid_from({(0, 0), (1, 1)}, 2, 2)
    empty = _grid_from(set(), 2, 2)
    assert difference_grid(g, empty).cells == g.cells
    assert not difference_grid(g, g).cells


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        similarity_grid(_grid_from({(0, 0)}, 1, 1), _grid_from({(0, 0)}, 1, 2))
    with pytest.raises(DimensionMismatch):
        difference_grid(_grid_from({(0, 0)}, 1, 1), _grid_from({(0, 0)}, 2, 1))


@pytest.mark.parametrize(
    "day_range,window,cells",
    [
        ((1, 0), (0, 5), set()),         # empty day range
        ((0, 1), (5, 5), set()),         # empty minute window
        ((0, 1), (0, 5), {(2, 0)}),      # day past the range
        ((0, 1), (0, 5), {(-1, 0)}),     # day before the range
        ((0, 1), (2, 5), {(0, 5)}),      # window end is exclusive
        ((0, 1), (2, 5), {(0, 1)}),      # minute before the window
    ],
)
def test_grid_rejects_cells_outside_its_frame(day_range, window, cells):
    with pytest.raises(ValueError):
        OccurrenceGrid("g", day_range, window, frozenset(cells))


cell_sets = st.sets(st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=5)))


@given(cell_sets, cell_sets)
def test_similarity_commutative_and_partition(cells_a, cells_b):
    a, b = _grid_from(cells_a, 4, 6), _grid_from(cells_b, 4, 6)
    sim = similarity_grid(a, b)
    diff = difference_grid(a, b)
    assert sim.cells == similarity_grid(b, a).cells
    assert diff.cells == difference_grid(b, a).cells
    assert sim.cells | diff.cells == a.cells | b.cells
    assert not sim.cells & diff.cells


# --- emission -----------------------------------------------------------------

def _emitted(grid: OccurrenceGrid, fmt: str) -> str:
    out = io.StringIO()
    emit_grid(grid, fmt, out)
    return out.getvalue()


def test_emit_empty_pgm():
    g = _grid_from(set(), 2, 3)
    lines = _emitted(g, "pgm").splitlines()
    assert lines[:3] == ["P2", "3 2", "255"]
    assert all(v == "255" for line in lines[3:] for v in line.split())


def test_emit_single_cell_pgm():
    g = _grid_from({(0, 0)}, 2, 2)
    body = _emitted(g, "pgm").splitlines()[3:]
    assert body[0].split() == ["0", "255"]
    assert body[1].split() == ["255", "255"]


def test_emit_pgm_wraps_long_rows():
    g = _grid_from(set(), 1, 100)
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
        emit_grid(_grid_from({(0, 0)}, 1, 1), "bmp", out)
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


# --- independent oracle ---------------------------------------------------------

def _oracle_text(
    entries: list[RawLogEntry],
    node: str,
    day_range: tuple[int, int],
    window: tuple[int, int],
    epoch: int,
    fmt: str,
) -> str:
    """The expected CSV or PGM text, from divmod on each timestamp alone."""
    occupied = set()
    for e in entries:
        day, second_of_day = divmod(e.timestamp - epoch, 86400)
        minute = second_of_day // 60
        if e.source == node and day_range[0] <= day <= day_range[1] and window[0] <= minute < window[1]:
            occupied.add((day, minute))
    if fmt == "csv":
        return "day,minute\n" + "".join(f"{d},{m}\n" for d, m in sorted(occupied))
    width, height = window[1] - window[0], day_range[1] - day_range[0] + 1
    text = f"P2\n{width} {height}\n255\n"
    for day in range(day_range[0], day_range[1] + 1):
        row = ["255"] * width
        for d, m in occupied:
            if d == day:
                row[m - window[0]] = "0"
        text += "".join(" ".join(row[i : i + 17]) + "\n" for i in range(0, width, 17))
    return text


@st.composite
def _grid_case(draw):
    """A frame, and entries of several nodes around it: before the epoch,
    outside the day range, and on or next to either edge of the window."""
    epoch = draw(st.integers(min_value=3 * 86400, max_value=10**7))
    first_day = draw(st.integers(min_value=-2, max_value=3))
    day_range = (first_day, first_day + draw(st.integers(min_value=0, max_value=2)))
    start = draw(st.integers(min_value=0, max_value=1400))
    window = (start, draw(st.integers(min_value=start + 1, max_value=min(start + 30, 1440))))
    edges = [m for m in (start - 1, start, window[1] - 1, window[1]) if 0 <= m < 1440]
    nodes = st.sampled_from(["n1", "n2", "n3"])
    near = st.builds(
        lambda day, minute, second: day * 86400 + minute * 60 + second,
        st.integers(min_value=day_range[0] - 1, max_value=day_range[1] + 1),
        st.one_of(st.sampled_from(edges), st.integers(min_value=0, max_value=1439)),
        st.integers(min_value=0, max_value=59),
    )
    anywhere = st.integers(min_value=-3 * 86400, max_value=7 * 86400)
    offsets = draw(st.lists(st.tuples(nodes, near), max_size=20))
    offsets += draw(st.lists(st.tuples(nodes, anywhere), max_size=20))
    entries = [RawLogEntry(epoch + off, node, "m") for node, off in offsets]
    return entries, day_range, window, epoch


@settings(max_examples=300)
@given(_grid_case())
def test_emitted_grid_matches_independent_oracle(case):
    entries, day_range, window, epoch = case
    grid = build_grid(entries, "n1", day_range, window, epoch)
    for fmt in ("csv", "pgm"):
        assert _emitted(grid, fmt) == _oracle_text(entries, "n1", day_range, window, epoch, fmt)
