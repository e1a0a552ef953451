"""Sparse voxel grid over a point cloud, held as flat arrays.

Points are binned by true floor division of their coordinates by the cell
size (floor toward -inf, so negative coordinates land in the right cell).
Only occupied cells exist.  The grid is a compressed sparse row layout: the
occupied cell indices in ascending order, and per cell a run of one
canonical point order.  Per-cell classification state sits in arrays beside
them, one row per cell.  ``build_grid`` bins a point cloud; ``rebin`` bins
some of a grid's points at another cell height, keeping the grid's point
ids, and its point order wherever a cell carries over whole.
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

    ``slopes`` holds each cell's plane slope in degrees, NaN for a cell
    without a plane fit (``fitted``); the plane's normal and offset are not
    kept, as no stage reads them after the inlier split.  ``inliers`` runs
    parallel to ``order`` and flags the points within the inlier threshold
    of their cell's plane.
    """

    cellsize: CellSize
    cells: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    points: np.ndarray
    centroids: np.ndarray
    kind: np.ndarray
    state: np.ndarray
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


# The packed sort key holds, high to low, a point's cell code, its x offset
# within the cell in bx-bit fixed point and its input position in bn bits:
# bn is the bit length of n - 1, bc that of the cell-code range less one,
# and bx = min(52, 62 - bn - bc), so every key is below this limit.  A
# cloud with bn + bc > 62 is sorted by the six-column lexsort instead.  The
# offset x / sx - ix lies in [0, 1] and reaches 1 only by rounding (x / sx
# = -5e-324 gives -5e-324 + 1 = 1.0), so it is capped at 2^bx - 1; bx stops
# at 52 so that this cap is exact in float64 and never carries into the
# cell code.
_KEY_LIMIT = 1 << 62


def _canonical_order(
    pts: np.ndarray, keys: np.ndarray, fx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Point ids sorted by (cell index, x, y, z, input position), and per
    sorted position whether it starts a new cell.  ``keys`` holds the cell
    indices and ``fx`` each x / sx, which the sort overwrites.

    The cell index packs into one code, lexicographic in (ix, iy, iz), and
    each point gets one int64 key (see ``_KEY_LIMIT``): the code, then
    min(floor((x / sx - ix) 2^bx), 2^bx - 1), then the input position.
    That fixed-point offset never falls as x grows within a cell, so one
    value sort of the keys orders the points by (cell, x) except within
    runs tied on (cell, offset).  A sorted key's low bn bits are its
    point's position and its bits above bn + bx its cell code.  The tied
    runs, each in input position order, are then stably sorted exactly by
    (x, y, z), so the order does not depend on bx.
    """
    n = len(pts)
    first = np.ones(n, dtype=bool)
    if n == 0:
        return np.empty(0, dtype=np.int64), first
    ix, iy, iz = keys.T
    low = [int(c.min()) for c in (ix, iy, iz)]
    span = [int(c.max()) - lo + 1 for c, lo in zip((ix, iy, iz), low)]
    bn = (n - 1).bit_length()
    bx = _KEY_LIMIT.bit_length() - 1 - bn - (math.prod(span) - 1).bit_length()
    if bx < 0:
        order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], iz, iy, ix))
        skeys = np.take(keys, order, axis=0)
        first[1:] = np.any(skeys[1:] != skeys[:-1], axis=1)
        return order, first
    bx = min(bx, 52)
    fx -= ix  # the offset within the cell
    fx *= 2.0**bx
    np.minimum(fx, 2.0**bx - 1, out=fx)
    key = ((ix - low[0]) * span[1] + (iy - low[1])) * span[2] + (iz - low[2])
    key <<= bx
    np.bitwise_or(key, fx, out=key, casting="unsafe", dtype=np.int64)  # truncates: floors
    key <<= bn
    key |= np.arange(n)
    key.sort()
    order = key & ((1 << bn) - 1)
    key >>= bn  # (cell code, offset)
    tie = key[1:] == key[:-1]
    key >>= bx  # cell code
    first[1:] = key[1:] != key[:-1]
    if tie.any():
        # the positions in a tie run, each run labelled by a count of the
        # run starts among them
        after = np.concatenate(([False], tie))  # ties with the position before
        at = np.flatnonzero(after | np.concatenate((tie, [False])))
        run = np.cumsum(~after[at])
        ids = order[at]
        order[at] = ids[np.lexsort((pts[ids, 2], pts[ids, 1], pts[ids, 0], run))]
    return order, first


def _cell_floor(q: np.ndarray) -> np.ndarray:
    """``floor(q)`` as int64.  A NaN, an infinity or a value of 2**63 or
    more in magnitude has no cell index: its cast raises the invalid flag,
    made a ``ContractViolationError`` here rather than a cell at -2**63."""
    try:
        with np.errstate(invalid="raise"):
            return np.floor(q, out=np.empty(q.shape, np.int64), casting="unsafe")
    except FloatingPointError:
        raise ContractViolationError("a coordinate is non-finite or 2**63 cells out") from None


def build_grid(points: np.ndarray, cellsize: CellSize) -> VoxelGrid:
    """Partition points into cells; every point lands in exactly one cell.

    The grid content is independent of input point order: cells are keyed by
    geometric indices and each cell's points, hence its centroid sum, run in
    canonical (x, y, z, input position) order, built by one value sort of
    packed keys and an exact sort of the few runs they tie (see
    ``_canonical_order``).  Cells start unclassified.  A point without a
    cell index (see ``_cell_floor``) raises ``ContractViolationError``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    # coordinates over cell sizes a column at a time, about 2x faster than
    # broadcasting a row of 3 over the points; the floor casts straight
    # into the integer cell indices, with no temporary
    scaled = np.empty(pts.shape)
    for c, size in enumerate((cellsize.sx, cellsize.sy, cellsize.sz)):
        np.divide(pts[:, c], size, out=scaled[:, c])
    keys = _cell_floor(scaled)
    order, first = _canonical_order(pts, keys, scaled[:, 0])
    offsets = np.append(np.flatnonzero(first), len(pts))
    # the quotients are spent, so the canonical points take their buffer
    # (mode "clip" writes it directly; the ids are all in range)
    ordered = np.take(pts, order, axis=0, out=scaled, mode="clip")
    cells = np.take(keys, order[offsets[:-1]], axis=0)
    return _unclassified(cellsize, cells, offsets, order, ordered)


def _unclassified(
    cellsize: CellSize, cells: np.ndarray, offsets: np.ndarray, order: np.ndarray, points: np.ndarray
) -> VoxelGrid:
    """The grid of these cells and canonically ordered points: centroids
    summed in that order, every cell unclassified."""
    k = len(cells)
    return VoxelGrid(
        cellsize=cellsize,
        cells=cells,
        offsets=offsets,
        order=order,
        points=points,
        centroids=np.add.reduceat(points, offsets[:-1], axis=0) / np.diff(offsets)[:, None],
        kind=np.full(k, CellKind.UNCLASSIFIED, dtype=np.int8),
        state=np.full(k, GroundState.NONE, dtype=np.int8),
        slopes=np.full(k, np.nan),
        inliers=np.zeros(len(points), dtype=bool),
    )


def rebin(parent: VoxelGrid, kept: np.ndarray, cellsize: CellSize) -> tuple[VoxelGrid, np.ndarray]:
    """The grid ``build_grid`` makes of the parent's points flagged ``kept``
    (one flag per position of ``parent.order``) at a cell size of the
    parent's footprint, its ``order`` holding the parent's point ids, and
    per cell the parent row holding exactly its points, or -1.

    Up a column, cells and slabs both ascend with z, so a parent cell whose
    kept points lie in one slab that no other parent cell of its column
    reaches is one cell here, in the parent's order.  The points of the
    other parent cells, spread over several slabs or sharing one, form
    contiguous runs of that order, and one ``_canonical_order`` sorts every
    run onto itself.  Cells start unclassified.  A point without a slab
    index at the new height raises ``ContractViolationError``.
    """
    if (parent.cellsize.sx, parent.cellsize.sy) != (cellsize.sx, cellsize.sy):
        raise ContractViolationError("re-binning keeps the cell footprint")
    src = np.flatnonzero(kept)  # per point here, its position in the parent's order
    # per parent row its kept points, a run of src; rows keeping none drop out
    kc = np.add.reduceat(kept, parent.offsets[:-1], dtype=np.int64)
    held = np.flatnonzero(kc)
    hc = np.take(kc, held)
    kstart = np.cumsum(hc) - hc
    slab = _cell_floor(np.take(parent.points[:, 2], src) / cellsize.sz)
    lo = np.minimum.reduceat(slab, kstart)
    hi = np.maximum.reduceat(slab, kstart)
    column = np.take(parent.cells[:, :2], held, axis=0)
    shared = np.append((column[1:] == column[:-1]).all(axis=1) & (hi[:-1] == lo[1:]), False)
    moved = (lo != hi) | shared | np.roll(shared, 1)
    # a cell starts at the kept run of each parent cell not moved, and
    # wherever the re-sort of the moved ones starts one
    first = np.zeros(len(src), dtype=bool)
    first[np.compress(~moved, kstart)] = True
    at = np.flatnonzero(np.repeat(moved, hc))  # the points to re-sort
    mpts = np.take(parent.points, np.take(src, at), axis=0)
    mcol = np.repeat(np.compress(moved, column, axis=0), np.compress(moved, hc), axis=0)
    keys = np.column_stack([mcol, np.take(slab, at)])
    sub, begins = _canonical_order(mpts, keys, mpts[:, 0] / cellsize.sx)
    src[at] = np.take(src, np.take(at, sub))
    slab[at] = np.take(keys[:, 2], sub)
    first[np.compress(begins, at)] = True
    starts = np.flatnonzero(first)
    row = np.searchsorted(kstart, starts, side="right") - 1  # index into held
    cells = np.column_stack([np.take(column, row, axis=0), np.take(slab, starts)])
    ordered = np.take(parent.points, src, axis=0)
    # the slabs are spent, so the point ids take their buffer
    order = np.take(parent.order, src, out=slab, mode="clip")
    grid = _unclassified(cellsize, cells, np.append(starts, len(src)), order, ordered)
    whole = ~moved & (hc == np.take(parent.counts, held))
    return grid, np.where(np.take(whole, row), np.take(held, row), -1)


def occupied_below(grid: VoxelGrid) -> np.ndarray:
    """Per cell, the row of the occupied cell with the largest iz' < iz in
    its (ix, iy) column, or -1.  Cells are sorted, so that is the previous
    row when it shares the column."""
    below = np.arange(-1, len(grid.cells) - 1)
    same = np.zeros(len(grid.cells), dtype=bool)
    same[1:] = (grid.cells[1:, :2] == grid.cells[:-1, :2]).all(axis=1)
    below[~same] = -1
    return below
