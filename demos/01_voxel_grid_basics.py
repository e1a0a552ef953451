# Voxel grid basics: binning points into cells and querying the vertical stack.

import numpy as np

from gridseg import CellSize, build_grid, cell_index, occupied_below

# The cell index is a true floor of coordinate / cell size, so negative
# coordinates (half of every sensor-centered scan) land in the right cell.
cs = CellSize(1.5, 1.0, 0.2)
print("index of (3.2, -1.7, 0.5):", cell_index((3.2, -1.7, 0.5), cs))
print("index of (-0.1, -0.1, -0.1) with 1m cells:", cell_index((-0.1, -0.1, -0.1), CellSize(1, 1, 1)))

# Build a grid over a small random cloud.
rng = np.random.default_rng(0)
pts = np.column_stack([rng.uniform(-6, 6, (4000, 2)), rng.uniform(-2, 0, 4000)])
grid = build_grid(pts, cs)
print(f"\n{len(pts)} points -> {len(grid.cells)} occupied cells")

# Every point is in exactly one cell: the cells hold runs of one point order.
print("sum of per-cell counts:", grid.counts.sum())

# Cells are rows of sorted arrays; the row below a cell answers
# "what is beneath this cell?"
print("\nfirst cell:", tuple(grid.cells[0].tolist()), "centroid:", np.round(grid.centroids[0], 3))
top = int(np.argmax(grid.cells[:, 2]))
below = occupied_below(grid)[top]
print(
    "nearest occupied cell below",
    tuple(grid.cells[top].tolist()),
    "->",
    None if below < 0 else tuple(grid.cells[below].tolist()),
)
