"""Sparse voxel grid over a point cloud.

Points are binned by true floor division of their coordinates by the cell
size (floor toward -inf, so negative coordinates land in the right cell).
Only occupied cells are materialized.  A per-(ix, iy) column index supports
vertical-stack queries.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ContractViolationError

CellIndex = tuple[int, int, int]


class CellKind(Enum):
    UNCLASSIFIED = "unclassified"
    LINE = "line"
    PLANAR = "planar"
    NON_PLANAR = "non_planar"


class GroundState(Enum):
    NONE = "none"
    TENTATIVE = "tentative"
    OBSTACLE = "obstacle"
    GROUND = "ground"
    NON_GROUND = "non_ground"


@dataclass(frozen=True)
class CellSize:
    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        if self.sx <= 0 or self.sy <= 0 or self.sz <= 0:
            raise ContractViolationError("cell sizes must be strictly positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])


@dataclass(slots=True)
class GridCell:
    """One occupied cell: member point ids plus classification state.

    ``point_ids`` is sorted by id; ``canon_ids`` lists the same ids in
    coordinate-lexicographic order, which keeps every downstream reduction
    (centroid, covariance, plane fit) byte-stable under permutations of the
    input cloud.
    """

    index: CellIndex
    point_ids: np.ndarray
    canon_ids: np.ndarray
    centroid: np.ndarray
    kind: CellKind = CellKind.UNCLASSIFIED
    ground_state: GroundState = GroundState.NONE
    plane: object | None = None
    inlier_ids: np.ndarray | None = None
    outlier_ids: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.point_ids)


@dataclass
class VoxelGrid:
    cellsize: CellSize
    cells: dict[CellIndex, GridCell] = field(default_factory=dict)
    columns: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    n_points: int = 0


def cell_index(point, cellsize: CellSize) -> CellIndex:
    """Grid index of a point: component-wise floor of coordinate / cell size."""
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    return (
        int(math.floor(x / cellsize.sx)),
        int(math.floor(y / cellsize.sy)),
        int(math.floor(z / cellsize.sz)),
    )


def build_grid(points: np.ndarray, cellsize: CellSize) -> VoxelGrid:
    """Partition points into cells; every point lands in exactly one cell.

    The grid content is independent of input point order: cells are keyed by
    geometric indices, per-cell id lists are normalized, and centroid sums run
    in canonical coordinate order.  ``grid.cells`` holds the cells in
    ascending index order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    grid = VoxelGrid(cellsize=cellsize, n_points=len(pts))
    if len(pts) == 0:
        return grid

    keys = np.floor(pts / cellsize.as_array()).astype(np.int64)
    # two global sorts sharing the same cell grouping: one breaks ties by
    # coordinates (canonical within-cell order), one by point id
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], keys[:, 2], keys[:, 1], keys[:, 0]))
    order_by_id = np.lexsort((np.arange(len(pts)), keys[:, 2], keys[:, 1], keys[:, 0]))
    skeys = keys[order]
    spts = pts[order]
    boundary = np.flatnonzero(np.any(skeys[1:] != skeys[:-1], axis=1)) + 1
    starts = np.concatenate([[0], boundary])
    ends = np.concatenate([boundary, [len(pts)]])
    sums = np.add.reduceat(spts, starts, axis=0)
    key_list = skeys[starts].tolist()

    for idx, a, b, total in zip(key_list, starts.tolist(), ends.tolist(), sums):
        idx = tuple(idx)
        grid.cells[idx] = GridCell(
            index=idx,
            point_ids=order_by_id[a:b],
            canon_ids=order[a:b],
            centroid=total / (b - a),
        )

    cols: dict[tuple[int, int], list[int]] = {}
    for ix, iy, iz in grid.cells:
        cols.setdefault((ix, iy), []).append(iz)
    grid.columns = {k: np.array(sorted(v)) for k, v in cols.items()}
    return grid


def occupied_below(grid: VoxelGrid, index: CellIndex) -> GridCell | None:
    """Occupied cell with the largest iz' < iz in the same (ix, iy) column."""
    ix, iy, iz = index
    col = grid.columns.get((ix, iy))
    if col is None:
        return None
    pos = bisect_left(col, iz)
    if pos == 0:
        return None
    return grid.cells[(ix, iy, int(col[pos - 1]))]
