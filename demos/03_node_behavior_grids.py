"""
Per-node occurrence grids and their comparison maps
===================================================

Builds (day x minute) occurrence grids for two nodes of a synthetic
corpus and derives the similarity map (cells active on both nodes) and the
difference map (cells active on exactly one). A node that deviates from its
neighbor shows up as structure in the difference map. Outputs land in
demo_output/ as CSV cell lists and PGM rasters you can open in any image
viewer.
"""

from pathlib import Path

from loganon import (
    CorpusSpec,
    build_grid,
    difference_grid,
    emit_grid,
    generate_lines,
    parse_line,
    similarity_grid,
)

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)

# Two weeks of synthetic logs on 4 nodes; node n001 and n002 mostly behave
# alike because both draw from the same Zipf-distributed event mix.
spec = CorpusSpec(entries=40_000, patterns=200, seed=21, nodes=4, days=14, epoch_day0=0)
entries = [parse_line(line) for line in generate_lines(spec)]

window = (0, 240)  # first four hours of each day
day_range = (0, 13)

grid_a = build_grid(entries, "n001", day_range, window, epoch_day0=0)
grid_b = build_grid(entries, "n002", day_range, window, epoch_day0=0)
similar = similarity_grid(grid_a, grid_b)
different = difference_grid(grid_a, grid_b)

for grid, stem in (
    (grid_a, "n001_occurrence"),
    (grid_b, "n002_occurrence"),
    (similar, "n001-n002_similarity"),
    (different, "n001-n002_difference"),
):
    print(f"{stem:24s} {len(grid.cells):5d} occupied cells")
    for fmt in ("csv", "pgm"):
        with open(OUT / f"{stem}.{fmt}", "w", encoding="ascii") as f:
            emit_grid(grid, fmt, f)

# The partition law in action: similarity and difference tile the union.
assert similar.cells | different.cells == grid_a.cells | grid_b.cells
assert not similar.cells & different.cells
print(f"\nwrote 8 files to {OUT}/")
