"""Sparse voxel grid over a point cloud, held as flat arrays.

Points are binned by true floor division of their coordinates by the cell
size (floor toward -inf, so negative coordinates land in the right cell).
Only occupied cells exist.  The grid is a compressed sparse row layout: the
occupied cell indices in ascending order, and per cell a run of one
canonical point order.  Per-cell classification state sits in arrays beside
them, one row per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ContractViolationError

CellIndex = tuple[int, int, int]


class CellKind(IntEnum):
    UNCLASSIFIED = 0
    LINE = 1
    PLANAR = 2
    NON_PLANAR = 3


class GroundState(IntEnum):
    NONE = 0
    TENTATIVE = 1
    OBSTACLE = 2
    GROUND = 3
    NON_GROUND = 4


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


@dataclass(eq=False)
class VoxelGrid:
    """Occupied cells of a point cloud and their classification state.

    Cell ``c`` is row ``c`` of every per-cell array.  Its index is
    ``cells[c]`` (rows ascending), and it holds the point ids
    ``order[offsets[c]:offsets[c + 1]]``.  Within a cell the ids are in
    coordinate-lexicographic (x, y, z) order, exact duplicates by input
    position, which keeps every reduction over a cell (centroid,
    covariance, plane fit) byte-stable under permutations of the input
    cloud.  ``points`` holds the coordinates in that order (row i is point
    ``order[i]``).  ``centroids`` holds each cell's mean point, summed in
    that order; covariances and plane fits are centred on it.

    A cell without a plane fit has NaN in ``normals``, ``plane_offsets``
    and ``slopes``.  ``inliers`` runs parallel to ``order`` and flags the
    points within the inlier threshold of their cell's plane.
    """

    cellsize: CellSize
    cells: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    points: np.ndarray
    centroids: np.ndarray
    kind: np.ndarray
    state: np.ndarray
    normals: np.ndarray
    plane_offsets: np.ndarray
    slopes: np.ndarray
    inliers: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Points per cell."""
        return np.diff(self.offsets)

    @property
    def fitted(self) -> np.ndarray:
        """Whether each cell holds a plane fit, hence an inlier/outlier split."""
        return ~np.isnan(self.slopes)

    def find(self, index: CellIndex) -> int:
        """Row of the cell with this index, -1 when it is not occupied."""
        hit = np.flatnonzero((self.cells == np.asarray(index)).all(axis=1))
        return int(hit[0]) if len(hit) else -1

    def span(self, c: int) -> slice:
        """Positions of cell ``c``'s points in ``order`` and ``inliers``."""
        return slice(self.offsets[c], self.offsets[c + 1])


def cell_index(point, cellsize: CellSize) -> CellIndex:
    """Grid index of a point: component-wise floor of coordinate / cell size."""
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    return (
        int(math.floor(x / cellsize.sx)),
        int(math.floor(y / cellsize.sy)),
        int(math.floor(z / cellsize.sz)),
    )


# The packed sort key cell code * n + x rank must stay below this; a cloud
# whose cell-index ranges do not fit is sorted by the six-column lexsort.
_KEY_LIMIT = 1 << 62


def _canonical_order(pts: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point ids sorted by (cell index, x, y, z, input position), and per
    sorted position whether it starts a new cell.

    The cell index packs into one code, lexicographic in (ix, iy, iz), and
    the code times n plus the point's rank in an x argsort is a unique
    int64 key; one argsort of it orders points by (cell, x).  Points tied
    on (cell, x) sit in runs, which are then sorted by (y, z, input
    position).
    """
    n = len(pts)
    first = np.ones(n, dtype=bool)
    if n == 0:
        return np.empty(0, dtype=np.int64), first
    ix, iy, iz = keys.T
    low = [int(c.min()) for c in (ix, iy, iz)]
    span = [int(c.max()) - lo + 1 for c, lo in zip((ix, iy, iz), low)]
    if math.prod(span) * n >= _KEY_LIMIT:
        order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], iz, iy, ix))
        skeys = np.take(keys, order, axis=0)
        first[1:] = np.any(skeys[1:] != skeys[:-1], axis=1)
        return order, first
    code = ((ix - low[0]) * span[1] + (iy - low[1])) * span[2] + (iz - low[2])
    x_rank = np.empty(n, dtype=np.int64)
    x_rank[np.argsort(pts[:, 0])] = np.arange(n)
    order = np.argsort(code * n + x_rank)
    scode = code[order]
    first[1:] = scode[1:] != scode[:-1]
    sx = np.take(pts[:, 0], order)
    tie = ~first[1:] & (sx[1:] == sx[:-1])
    if tie.any():
        run = np.cumsum(np.concatenate(([True], ~tie)))
        at = np.flatnonzero(np.concatenate((tie, [False])) | np.concatenate(([False], tie)))
        ids = order[at]
        order[at] = ids[np.lexsort((ids, pts[ids, 2], pts[ids, 1], run[at]))]
    return order, first


def build_grid(points: np.ndarray, cellsize: CellSize) -> VoxelGrid:
    """Partition points into cells; every point lands in exactly one cell.

    The grid content is independent of input point order: cells are keyed by
    geometric indices and each cell's points, hence its centroid sum, run in
    canonical (x, y, z, input position) order, built by one packed-key
    argsort (see ``_canonical_order``).  Cells start unclassified.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    keys = np.floor(pts / cellsize.as_array()).astype(np.int64)
    order, first = _canonical_order(pts, keys)
    starts = np.flatnonzero(first)
    offsets = np.append(starts, len(pts))
    k = len(starts)
    ordered = np.take(pts, order, axis=0)
    centroids = np.zeros((k, 3))
    if k:
        centroids = np.add.reduceat(ordered, starts, axis=0) / np.diff(offsets)[:, None]
    return VoxelGrid(
        cellsize=cellsize,
        cells=np.take(keys, order[starts], axis=0),
        offsets=offsets,
        order=order,
        points=ordered,
        centroids=centroids,
        kind=np.full(k, CellKind.UNCLASSIFIED, dtype=np.int8),
        state=np.full(k, GroundState.NONE, dtype=np.int8),
        normals=np.full((k, 3), np.nan),
        plane_offsets=np.full(k, np.nan),
        slopes=np.full(k, np.nan),
        inliers=np.zeros(len(pts), dtype=bool),
    )


def occupied_below(grid: VoxelGrid) -> np.ndarray:
    """Per cell, the row of the occupied cell with the largest iz' < iz in
    its (ix, iy) column, or -1.  Cells are sorted, so that is the previous
    row when it shares the column."""
    below = np.arange(-1, len(grid.cells) - 1)
    same = np.zeros(len(grid.cells), dtype=bool)
    same[1:] = (grid.cells[1:, :2] == grid.cells[:-1, :2]).all(axis=1)
    below[~same] = -1
    return below
