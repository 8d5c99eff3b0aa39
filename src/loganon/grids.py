"""Per-node (day x minute) event-occurrence grids and their comparison maps.

A grid is the set of (day, minute) cells in which one node logged at least
one entry. Comparing two nodes cell-wise gives a similarity map (both
active: set intersection) and a difference map (exactly one active:
symmetric difference); persistent horizontal or vertical structure in the
difference map is the visual cue analysts look for. Grids can be emitted as
CSV cell lists or as plain PGM rasters (black dot = occupied, white = empty).

Day indices come from ``day_index`` for an explicit epoch_day0, so no
timezone interpretation ever happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

SECONDS_PER_DAY = 86400
DEFAULT_MINUTE_WINDOW = (0, 240)


def day_index(timestamp: int, epoch_day0: int = 0) -> int:
    """floor((timestamp - epoch_day0) / 86400): the day a timestamp falls on."""
    return (timestamp - epoch_day0) // SECONDS_PER_DAY


class DimensionMismatch(ValueError):
    """Grids with different day ranges or minute windows cannot be combined."""


@dataclass
class OccurrenceGrid:
    """The occupied cells of one node within a frame of days and minutes.

    ``day_range`` is inclusive on both ends; ``minute_window`` is
    [start, end). ``cells`` holds the absolute ``(day, minute)`` pairs that
    saw at least one entry; every other cell of the frame is empty. Every
    cell must lie in the frame: build_grid, similarity_grid and
    difference_grid make only such cells.
    """

    node: str
    day_range: tuple[int, int]
    minute_window: tuple[int, int]
    cells: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        first_day, last_day = self.day_range
        start, end = self.minute_window
        if first_day > last_day or start >= end:
            raise ValueError("day range and minute window must be non-empty")

    def check_same_frame(self, other: "OccurrenceGrid") -> None:
        if self.day_range != other.day_range or self.minute_window != other.minute_window:
            raise DimensionMismatch(
                f"frames differ: {self.day_range}/{self.minute_window} "
                f"vs {other.day_range}/{other.minute_window}"
            )


def build_grid(
    entries: Iterable[tuple],
    node: str,
    day_range: tuple[int, int],
    minute_window: tuple[int, int] = DEFAULT_MINUTE_WINDOW,
    epoch_day0: int = 0,
) -> OccurrenceGrid:
    """Mark each (day, minute) cell in which ``node`` has an entry.

    Each entry is a tuple that starts with the timestamp and the source,
    such as parse_line's triple or a ScannedLine; nothing after them is
    read, so raw and encoded lines work alike. Entries outside the node,
    day range, or minute window are ignored.
    """
    if not 0 <= minute_window[0] < minute_window[1] <= 1440:
        raise ValueError(f"minute window must lie within [0, 1440): {minute_window}")
    first_day, last_day = day_range
    start, end = minute_window
    cells = set()
    for entry in entries:
        if entry[1] != node:
            continue
        timestamp = entry[0]
        day = day_index(timestamp, epoch_day0)
        minute = (timestamp - epoch_day0) % SECONDS_PER_DAY // 60
        if first_day <= day <= last_day and start <= minute < end:
            cells.add((day, minute))
    return OccurrenceGrid(node, tuple(day_range), tuple(minute_window), frozenset(cells))


def similarity_grid(a: OccurrenceGrid, b: OccurrenceGrid) -> OccurrenceGrid:
    """Cells active in both grids."""
    a.check_same_frame(b)
    return OccurrenceGrid(f"{a.node}&{b.node}", a.day_range, a.minute_window, a.cells & b.cells)


def difference_grid(a: OccurrenceGrid, b: OccurrenceGrid) -> OccurrenceGrid:
    """Cells active in exactly one of the grids."""
    a.check_same_frame(b)
    return OccurrenceGrid(f"{a.node}^{b.node}", a.day_range, a.minute_window, a.cells ^ b.cells)


def _pgm_lines(grid: OccurrenceGrid) -> list[str]:
    first_day, last_day = grid.day_range
    start, end = grid.minute_window
    lines = ["P2", f"{end - start} {last_day - first_day + 1}", "255"]
    for day in range(first_day, last_day + 1):
        row = ["0" if (day, minute) in grid.cells else "255" for minute in range(start, end)]
        # Keep plain-PGM lines short (70-char convention): 17 values per line.
        for i in range(0, len(row), 17):
            lines.append(" ".join(row[i : i + 17]))
    return lines


def _csv_lines(grid: OccurrenceGrid) -> list[str]:
    return ["day,minute"] + [f"{day},{minute}" for day, minute in sorted(grid.cells)]


def emit_grid(grid: OccurrenceGrid, fmt: str, out: TextIO) -> None:
    """Write a grid to ``out`` as 'csv' (day,minute rows of occupied cells) or 'pgm' (P2 raster)."""
    fmt = fmt.lower()
    if fmt == "pgm":
        lines = _pgm_lines(grid)
    elif fmt == "csv":
        lines = _csv_lines(grid)
    else:
        raise ValueError(f"unknown grid format {fmt!r} (expected csv or pgm)")
    out.write("\n".join(lines) + "\n")
