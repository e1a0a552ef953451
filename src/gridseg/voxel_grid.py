"""Sparse voxel grid over a point cloud, held as flat arrays.

Points are binned by true floor division of their coordinates by the cell
size (floor toward -inf, so negative coordinates land in the right cell).
Only occupied cells exist.  The grid is a compressed sparse row layout: the
occupied cell indices in ascending order, and per cell a run of one
canonical point order, rising in z.  Per-cell arrays sit beside them, one
row per cell; a cell's classification is one ``Outcome`` code, from which
its ``CellKind`` and ``GroundState`` are read (``KINDS``, ``STATES``).
``build_grid`` bins a point cloud with one sort; ``rebin`` bins some of a
grid's points at another cell height by cutting the grid's point order
into slabs, keeping its point ids.
"""

from __future__ import annotations

import bisect
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


# Refinement outcomes in rule order; a reached cell's route reason is one of these.
REASONS = (
    "no plane fit",
    "no ground inliers",
    "no outliers",
    "sparsity unambiguous",
    "ambiguous with no ground neighbors",
    "ambiguous and elevated above lowest neighbor",
    "ambiguous with non-ground cell below",
    "ambiguous checks passed",
)


class Outcome(IntEnum):
    """What became of a cell: unclassified; rejected by classification; or
    tentative ground, by kind, and then, once expansion reaches it,
    ``ROUTED + i`` for ``REASONS[i]``.  The codes from ``LINE_TENTATIVE``
    on are the cells that classification gated tentative."""

    UNCLASSIFIED = 0
    LINE_OBSTACLE = 1  # a line steeper than the slope threshold
    NON_PLANAR = 2
    FIT_FAILED = 3  # planar, but its points determine no plane
    TOO_STEEP = 4  # a plane steeper than the slope threshold
    LINE_TENTATIVE = 5
    PLANAR_TENTATIVE = 6
    ROUTED = 7


_L, _P, _X = CellKind.LINE, CellKind.PLANAR, CellKind.NON_PLANAR
_T, _G, _N = GroundState.TENTATIVE, GroundState.GROUND, GroundState.NON_GROUND
# Each code's CellKind and GroundState, in Outcome's order up to ROUTED, then
# per reason: a routed cell is a line exactly when it holds no plane fit (all
# other tentative cells are fitted planes), and it is ground after "no
# outliers", "sparsity unambiguous" and "ambiguous checks passed".
_ROUTED = [_N, _N, _G, _G, _N, _N, _N, _G]  # the state of each reason's cells
KINDS = np.array([CellKind.UNCLASSIFIED, _L, _X, _X, _P, _L, _P, _L] + [_P] * 7, np.int8)
STATES = np.array([GroundState.NONE, GroundState.OBSTACLE, _N, _N, _N, _T, _T] + _ROUTED, np.int8)


@dataclass(frozen=True)
class CellSize:
    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        if self.sx <= 0 or self.sy <= 0 or self.sz <= 0:
            raise ContractViolationError("cell sizes must be strictly positive")


@dataclass(eq=False)
class VoxelGrid:
    """Occupied cells of a point cloud and their classification.

    Cell ``c`` is row ``c`` of every per-cell array.  Its index is
    ``cells[c]`` (rows ascending), and it holds the point ids
    ``order[offsets[c]:offsets[c + 1]]``.  Within a cell the ids are in
    coordinate-lexicographic (z, x, y) order, exact duplicates by input
    position, which keeps every reduction over a cell (centroid,
    covariance, plane fit) byte-stable under permutations of the input
    cloud; z first makes every z slab of a column a run of it.  ``points``
    holds the coordinates in that order (row i is point ``order[i]``).
    ``centroids`` holds each cell's mean point, summed in that order;
    covariances and plane fits are centred on it.

    ``outcome`` holds each cell's ``Outcome`` code, the one record of its
    classification and route; ``state`` and ``fitted`` are read from it.
    No plane is kept, as no stage reads one after the inlier split.
    ``inliers`` runs parallel to ``order`` and flags the points within the
    inlier threshold of their cell's plane.
    """

    cellsize: CellSize
    cells: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    points: np.ndarray
    centroids: np.ndarray
    outcome: np.ndarray
    inliers: np.ndarray

    @property
    def state(self) -> np.ndarray:
        """Each cell's ``GroundState`` by its outcome (``STATES``), read-only:
        a write raises rather than go unseen."""
        state = np.take(STATES, self.outcome)
        state.flags.writeable = False
        return state

    @property
    def counts(self) -> np.ndarray:
        """Points per cell."""
        return np.diff(self.offsets)

    @property
    def fitted(self) -> np.ndarray:
        """Whether each cell holds a plane fit, hence an inlier/outlier split:
        whether its outcome is of a plane (``KINDS``)."""
        return np.take(KINDS, self.outcome) == CellKind.PLANAR

    def find(self, index: CellIndex) -> int:
        """Row of the cell with this index, -1 when it is not occupied: a
        binary search, as the rows ascend."""
        key, cells = tuple(index), self.cells
        c = bisect.bisect_left(range(len(cells)), key, key=lambda r: tuple(cells[r].tolist()))
        return c if c < len(cells) and tuple(cells[c].tolist()) == key else -1

    def span(self, c: int) -> slice:
        """Positions of cell ``c``'s points in ``order`` and ``inliers``."""
        return slice(self.offsets[c], self.offsets[c + 1])


def cell_index(point, cellsize: CellSize) -> CellIndex:
    """Grid index of a point: floor of coordinate / cell size by the rule of
    ``build_grid``, so a coordinate without one raises ``ContractViolationError``."""
    q = np.divide(point, (cellsize.sx, cellsize.sy, cellsize.sz))
    return tuple(int(v) for v in _cell_floor(q))


# The packed sort key holds, high to low, a point's cell code, its z offset
# within the cell in bz-bit fixed point and its input position in bn bits:
# bn is the bit length of n - 1, bc that of the cell-code range less one,
# and bz = min(52, 62 - bn - bc), so every key is below this limit.  A
# cloud with bn + bc > 62 is sorted by the six-column lexsort instead.  The
# offset z / sz - iz lies in [0, 1] and reaches 1 only by rounding (z / sz
# = -5e-324 gives -5e-324 + 1 = 1.0), so it is capped at 2^bz - 1; bz stops
# at 52 so that this cap is exact in float64 and never carries into the
# cell code.
_KEY_LIMIT = 1 << 62


def _canonical_order(
    pts: np.ndarray, keys: np.ndarray, fz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Point ids sorted by (cell index, z, x, y, input position), and per
    sorted position whether it starts a new cell.  ``keys`` holds the cell
    indices as three rows (ix, iy, iz) and ``fz`` each z / sz, which the
    sort overwrites.

    The cell index packs into one code, lexicographic in (ix, iy, iz), and
    each point gets one int64 key (see ``_KEY_LIMIT``): the code, then
    min(floor((z / sz - iz) 2^bz), 2^bz - 1), then the input position.
    That fixed-point offset never falls as z grows within a cell, so one
    value sort of the keys orders the points by (cell, z) except within
    runs tied on (cell, offset).  A sorted key's low bn bits are its
    point's position and its bits above bn + bz its cell code.  The tied
    runs, each in input position order, are then stably sorted exactly by
    (z, x, y), so the order does not depend on bz.  The index ranges come
    from the index rows and the key is packed over them in place.
    """
    n = len(pts)
    first = np.ones(n, dtype=bool)
    if n == 0:
        return np.empty(0, dtype=np.int64), first
    low = [int(c.min()) for c in keys]
    span = [int(c.max()) - lo + 1 for c, lo in zip(keys, low)]
    bn = (n - 1).bit_length()
    bz = _KEY_LIMIT.bit_length() - 1 - bn - (math.prod(span) - 1).bit_length()
    if bz < 0:
        order = np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2], *keys[::-1]))
        skeys = np.take(keys, order, axis=1)
        first[1:] = np.any(skeys[:, 1:] != skeys[:, :-1], axis=0)
        return order, first
    bz = min(bz, 52)
    fz -= keys[2]  # the offset within the cell
    fz *= 2.0**bz
    np.minimum(fz, 2.0**bz - 1, out=fz)
    # the cell code, in place; a sum may wrap on the way, but the code
    # itself is below 2^62, so it comes out exact
    key = keys[0] - low[0]
    for c, lo, s in zip(keys[1:], low[1:], span[1:]):
        key *= s
        key += c
        key -= lo
    key <<= bz
    np.bitwise_or(key, fz, out=key, casting="unsafe", dtype=np.int64)  # truncates: floors
    key <<= bn
    key |= np.arange(n)
    key.sort()
    order = key & ((1 << bn) - 1)
    key >>= bn  # (cell code, offset)
    tie = key[1:] == key[:-1]
    key >>= bz  # cell code
    first[1:] = key[1:] != key[:-1]
    if tie.any():
        # the positions in a tie run, each run labelled by a count of the
        # run starts among them
        after = np.concatenate(([False], tie))  # ties with the position before
        at = np.flatnonzero(after | np.concatenate((tie, [False])))
        run = np.cumsum(~after[at])
        ids = order[at]
        order[at] = ids[np.lexsort((pts[ids, 1], pts[ids, 0], pts[ids, 2], run))]
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
    canonical (z, x, y, input position) order, built by one value sort of
    packed keys and an exact sort of the few runs they tie (see
    ``_canonical_order``).  Up an (ix, iy) column the points then rise in
    z, so a slab of any other height is a run of this order (``rebin``).
    The quotients and cell indices are held as (3, n) rows while the key
    is built, so its passes read contiguous memory; the canonical points
    then fill the quotients' buffer as (n, 3), and ``cells`` is taken
    from the index rows at the cell starts.  Cells start unclassified.  A
    point without a cell index (see ``_cell_floor``) raises
    ``ContractViolationError``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    # the floor casts straight into the indices, with no temporary
    scaled = np.empty((3, len(pts)))
    for c, size in enumerate((cellsize.sx, cellsize.sy, cellsize.sz)):
        np.divide(pts[:, c], size, out=scaled[c])
    keys = _cell_floor(scaled)
    order, first = _canonical_order(pts, keys, scaled[2])
    offsets = np.append(np.flatnonzero(first), len(pts))
    # the quotients are spent, so the canonical points take their buffer
    # (mode "clip" writes it directly; the ids are all in range)
    ordered = np.take(pts, order, axis=0, out=scaled.reshape(pts.shape), mode="clip")
    cells = np.column_stack(np.take(keys, order[offsets[:-1]], axis=1))
    return _unclassified(cellsize, cells, offsets, order, ordered, _means(ordered, offsets))


def _means(points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The mean point of each run ``points[offsets[c]:offsets[c + 1]]``,
    summed in that order."""
    return np.add.reduceat(points, offsets[:-1], axis=0) / np.diff(offsets)[:, None]


def _unclassified(
    cellsize: CellSize, cells: np.ndarray, offsets: np.ndarray, order: np.ndarray,
    points: np.ndarray, centroids: np.ndarray,
) -> VoxelGrid:
    """The grid of these cells, canonically ordered points and centroids,
    every cell unclassified."""
    return VoxelGrid(
        cellsize=cellsize,
        cells=cells,
        offsets=offsets,
        order=order,
        points=points,
        centroids=centroids,
        outcome=np.full(len(cells), Outcome.UNCLASSIFIED, dtype=np.int8),
        inliers=np.zeros(len(points), dtype=bool),
    )


def rebin(parent: VoxelGrid, kept: np.ndarray, cellsize: CellSize) -> tuple[VoxelGrid, np.ndarray]:
    """The grid ``build_grid`` makes of the parent's points flagged ``kept``
    (one flag per position of ``parent.order``) at a cell size of the
    parent's footprint, its ``order`` holding the parent's point ids, and
    per cell the parent row holding exactly its points, or -1.

    Up a column the parent's order rises in z, and slabs ``floor(z / sz)``
    ascend with z, so the kept positions are already in canonical order:
    a cell starts wherever the column or the slab changes, with no sort,
    at any height, finer or coarser.  A cell holding a whole parent row
    has that row's points in its order, hence its centroid to the bit, so
    it is copied; only the other cells' points are summed.  Cells start
    unclassified.  A point without a slab index at the new height raises
    ``ContractViolationError``.
    """
    if (parent.cellsize.sx, parent.cellsize.sy) != (cellsize.sx, cellsize.sy):
        raise ContractViolationError("re-binning keeps the cell footprint")
    src = np.flatnonzero(kept)  # per point here, its position in the parent's order
    slab = _cell_floor(np.take(parent.points[:, 2], src) / cellsize.sz)
    # per point the number of its column: a row with no row below it in
    # its column starts the next one
    column = np.cumsum(occupied_below(parent) < 0)
    column = np.take(np.repeat(column, parent.counts), src)
    first = np.ones(len(src), dtype=bool)
    first[1:] = (column[1:] != column[:-1]) | (slab[1:] != slab[:-1])
    starts = np.flatnonzero(first)
    offsets = np.append(starts, len(src))
    row = np.searchsorted(parent.offsets, np.take(src, starts), side="right") - 1
    cells = np.column_stack([np.take(parent.cells[:, :2], row, axis=0), np.take(slab, starts)])
    # a cell that ends at the last position of the parent row it starts in
    # lies within that row, and holds all of it when it is as large
    counts = np.diff(offsets)
    last = np.take(src, offsets[1:] - 1)
    whole = (last + 1 == np.take(parent.offsets, row + 1)) & (counts == np.take(parent.counts, row))
    # a whole cell's centroid is its parent row's, to the bit; only the
    # other cells' points are summed, gathered before the kept points are,
    # so that they add nothing to the peak memory
    centroids = np.take(parent.centroids, row, axis=0)
    summed = np.take(parent.points, np.compress(np.repeat(~whole, counts), src), axis=0)
    centroids[~whole] = _means(summed, np.append(0, np.cumsum(counts[~whole])))
    del summed
    ordered = np.take(parent.points, src, axis=0)
    # the slabs are spent, so the point ids take their buffer
    order = np.take(parent.order, src, out=slab, mode="clip")
    grid = _unclassified(cellsize, cells, offsets, order, ordered, centroids)
    return grid, np.where(whole, row, -1)


def occupied_below(grid: VoxelGrid, rows: np.ndarray | None = None) -> np.ndarray:
    """Per cell (per grid row of ``rows``, default every row), the row of
    the occupied cell with the largest iz' < iz in its (ix, iy) column, or
    -1.  Cells are sorted, so that is the previous row when it shares the
    column; only the given rows and the rows before them are read."""
    rows = np.arange(len(grid.cells)) if rows is None else np.asarray(rows, dtype=np.int64)
    below = rows - 1
    prev = np.maximum(below, 0)
    cells = grid.cells
    same = (rows > 0) & (cells[prev, 0] == cells[rows, 0]) & (cells[prev, 1] == cells[rows, 1])
    return np.where(same, below, -1)
