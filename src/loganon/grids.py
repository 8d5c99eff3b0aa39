"""Per-node (day x minute) event-occurrence grids and their comparison maps.

A grid marks, for one node, which (day, minute) cells saw at least one log
entry. Comparing two nodes cell-wise gives a similarity map (both active)
and a difference map (exactly one active); persistent horizontal or vertical
structure in the difference map is the visual cue analysts look for. Grids
can be emitted as CSV cell lists or as plain PGM rasters (black dot =
occupied, white = empty).

Day indices come from ``day_index`` for an explicit epoch_day0, so no
timezone interpretation ever happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, TextIO

import numpy as np

SECONDS_PER_DAY = 86400
DEFAULT_MINUTE_WINDOW = (0, 240)


def day_index(timestamp: int, epoch_day0: int = 0) -> int:
    """floor((timestamp - epoch_day0) / 86400): the day a timestamp falls on."""
    return (timestamp - epoch_day0) // SECONDS_PER_DAY


class DimensionMismatch(ValueError):
    """Grids with different day ranges or minute windows cannot be combined."""


class _HasTimeAndSource(Protocol):
    timestamp: int
    source: str


@dataclass
class OccurrenceGrid:
    """Dense per-cell counts for one node over a day range and minute window.

    ``day_range`` is inclusive on both ends; ``minute_window`` is
    [start, end). ``cells[d][m]`` counts entries on day ``day_range[0] + d``
    at minute ``minute_window[0] + m``.
    """

    node: str
    day_range: tuple[int, int]
    minute_window: tuple[int, int]
    cells: np.ndarray

    def __post_init__(self) -> None:
        days = self.day_range[1] - self.day_range[0] + 1
        minutes = self.minute_window[1] - self.minute_window[0]
        if days < 1 or minutes < 1:
            raise ValueError("day range and minute window must be non-empty")
        if self.cells.shape != (days, minutes):
            raise ValueError(f"cells shape {self.cells.shape} != ({days}, {minutes})")

    @property
    def occupied(self) -> np.ndarray:
        return self.cells > 0

    def check_same_frame(self, other: "OccurrenceGrid") -> None:
        if self.day_range != other.day_range or self.minute_window != other.minute_window:
            raise DimensionMismatch(
                f"frames differ: {self.day_range}/{self.minute_window} "
                f"vs {other.day_range}/{other.minute_window}"
            )


def build_grid(
    entries: Iterable[_HasTimeAndSource],
    node: str,
    day_range: tuple[int, int],
    minute_window: tuple[int, int] = DEFAULT_MINUTE_WINDOW,
    epoch_day0: int = 0,
) -> OccurrenceGrid:
    """Count, per (day, minute) cell, the entries of ``node`` in the window.

    Entries outside the node, day range, or minute window are ignored. Works
    on raw and encoded entries alike since only timestamp and source matter.
    """
    if not 0 <= minute_window[0] < minute_window[1] <= 1440:
        raise ValueError(f"minute window must lie within [0, 1440): {minute_window}")
    days = day_range[1] - day_range[0] + 1
    minutes = minute_window[1] - minute_window[0]
    cells = np.zeros((days, minutes), dtype=np.int64)
    for entry in entries:
        if entry.source != node:
            continue
        day = day_index(entry.timestamp, epoch_day0)
        if not day_range[0] <= day <= day_range[1]:
            continue
        minute = (entry.timestamp - epoch_day0) % SECONDS_PER_DAY // 60
        if not minute_window[0] <= minute < minute_window[1]:
            continue
        cells[int(day - day_range[0]), int(minute - minute_window[0])] += 1
    return OccurrenceGrid(node, tuple(day_range), tuple(minute_window), cells)


def similarity_grid(a: OccurrenceGrid, b: OccurrenceGrid) -> OccurrenceGrid:
    """Cells active in both grids (logical AND on occupancy)."""
    a.check_same_frame(b)
    cells = (a.occupied & b.occupied).astype(np.int64)
    return OccurrenceGrid(f"{a.node}&{b.node}", a.day_range, a.minute_window, cells)


def difference_grid(a: OccurrenceGrid, b: OccurrenceGrid) -> OccurrenceGrid:
    """Cells active in exactly one of the grids (logical XOR on occupancy)."""
    a.check_same_frame(b)
    cells = (a.occupied ^ b.occupied).astype(np.int64)
    return OccurrenceGrid(f"{a.node}^{b.node}", a.day_range, a.minute_window, cells)


def _pgm_lines(grid: OccurrenceGrid) -> list[str]:
    days, minutes = grid.cells.shape
    lines = ["P2", f"{minutes} {days}", "255"]
    values = np.where(grid.occupied, 0, 255)
    for row in values:
        # Keep plain-PGM lines short (70-char convention): 17 values per line.
        tokens = [str(v) for v in row]
        for i in range(0, len(tokens), 17):
            lines.append(" ".join(tokens[i : i + 17]))
    return lines


def _csv_lines(grid: OccurrenceGrid) -> list[str]:
    lines = ["day,minute"]
    for d, m in zip(*np.nonzero(grid.occupied)):
        lines.append(f"{grid.day_range[0] + int(d)},{grid.minute_window[0] + int(m)}")
    return lines


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
