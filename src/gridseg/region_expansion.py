"""Ground region expansion over tentative-ground cell centroids.

Tentative-ground cells are linked when their centroids lie within the search
radius (one KD-tree pair query), and a breadth-first search over that graph
expands the ground region from the seed cell under the robot.  Radius links
(rather than grid adjacency) let the region bridge scan-line gaps at fine
grid resolutions.  Each dequeued cell then runs a five-step refinement that
routes its points to the ground or non-ground output:

1. split the cell's points into plane inliers and outliers (stored fit);
2. reject when there are no inliers;
3. score bounding-box sparsity of both subsets; equal classes = ambiguous;
4. for ambiguous cells, reject when elevated above the lowest neighboring
   ground cell or when an occupied non-ground cell sits below in the column;
5. otherwise route inliers to ground, outliers to non-ground.

In the fine phase (phase 2) neighbor admission additionally requires the
centroid height difference to stay within the height gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .cell_geometry import GeometryParams, Sparsity, segment_sparsity
from .cloud_io import SyntheticSeedInfo
from .errors import ConfigError, ContractViolationError
from .voxel_grid import CellIndex, GroundState, VoxelGrid, cell_index, occupied_below

# Refinement outcomes in rule order; a cell's route reason is one of these.
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
_AMBIGUOUS = 4  # reasons from this position on are those of ambiguous cells
_ROUTES_GROUND = np.array([False, False, True, True, False, False, False, True])
# states that make the occupied cell below an ambiguous cell reject it
_NON_GROUND_STATES = (GroundState.NON_GROUND, GroundState.OBSTACLE)


@dataclass(frozen=True)
class ExpansionParams:
    search_radius: float = 5.0
    height_gate: float = 0.25
    ambiguity_elevation_threshold: float = 0.3
    phase: int = 1

    def __post_init__(self):
        if self.search_radius <= 0 or self.height_gate <= 0:
            raise ConfigError("search_radius and height_gate must be positive")
        if self.ambiguity_elevation_threshold <= 0:
            raise ConfigError("ambiguity_elevation_threshold must be positive")
        if self.phase not in (1, 2):
            raise ConfigError("phase must be 1 or 2")


class CentroidIndex:
    """Exact fixed-radius neighbor queries over cell centroids.

    A centroid is numbered by its position in ``cell_ids``.  Expansion
    expects the ids to be grid rows in ascending order; ``query`` takes
    any ids.
    """

    def __init__(self, cell_ids, centroids: np.ndarray):
        self.cell_ids = cell_ids
        self.centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
        self._tree = cKDTree(self.centroids) if len(self.cell_ids) else None

    def __len__(self) -> int:
        return len(self.cell_ids)

    def query(self, center, radius: float) -> list:
        """Cell ids within Euclidean distance radius (inclusive), sorted."""
        if self._tree is None:
            return []
        hits = self._tree.query_ball_point(np.asarray(center, dtype=np.float64), radius)
        return sorted(self.cell_ids[k] for k in hits)

    def pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions (i, j), i < j, of every two centroids within radius (inclusive)."""
        if self._tree is None:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        ij = self._tree.query_pairs(radius, output_type="ndarray")
        return ij[:, 0], ij[:, 1]


@dataclass
class ExpansionLog:
    """Optional debug trace: admission edges and per-cell routing decisions."""

    edges: list[tuple[CellIndex, CellIndex, float]] = field(default_factory=list)
    routes: list[tuple[CellIndex, str, str]] = field(default_factory=list)

    def to_text(self) -> str:
        lines = []
        for i, j, dz in self.edges:
            lines.append(f"EDGE {i[0]},{i[1]},{i[2]} -> {j[0]},{j[1]},{j[2]} dz={dz:.6f}")
        for idx, route, reason in self.routes:
            lines.append(f"ROUTE {idx[0]},{idx[1]},{idx[2]} {route} {reason}")
        return "\n".join(lines)


def build_centroid_index(grid: VoxelGrid, cells: np.ndarray) -> CentroidIndex:
    """Index the centroids of the given grid rows (the tentative ground
    cells, ascending, for expansion)."""
    cells = np.asarray(cells, dtype=np.int64)
    return CentroidIndex(cells, np.take(grid.centroids, cells, axis=0))


def select_seed(grid: VoxelGrid, seed_info: SyntheticSeedInfo | None) -> CellIndex:
    """Cell containing the synthetic point directly below the robot."""
    if seed_info is None or seed_info.count < 1:
        raise ConfigError("seed selection requires injected synthetic points")
    idx = cell_index((0.0, 0.0, -seed_info.depth), grid.cellsize)
    if grid.find(idx) < 0:
        raise ConfigError(f"seed cell {idx} is not occupied; was injection skipped?")
    return idx


def cell_heights(grid: VoxelGrid, rows: np.ndarray) -> np.ndarray:
    """Height of each grid row in ``rows``: the mean z of its ground
    inliers, else (no inliers, or no plane fit) its centroid z.

    Each mean is summed as ``ndarray.mean`` sums the row's inlier z in
    canonical order, so it is the same to the bit: all rows are one
    ``reduceat`` over their inlier z with a 0 ahead of each row, and a
    ``reduceat`` segment adds the pairwise sum of the rest of its values to
    its first one, as ``mean`` adds the pairwise sum of its values to 0.
    """
    rows = np.asarray(rows, dtype=np.int64)
    heights = grid.centroids[rows, 2]
    counts = grid.counts[rows]
    at = _ranges(grid.offsets[rows], counts)
    inl = np.take(grid.inliers, at)
    n_in = np.add.reduceat(inl, np.cumsum(counts) - counts, dtype=np.int64)
    z = np.compress(inl, np.take(grid.points[:, 2], at))
    lead = np.cumsum(n_in) - n_in  # where each row's inliers start in z
    sums = np.add.reduceat(np.insert(z, lead, 0.0), lead + np.arange(len(rows)))
    return np.divide(sums, n_in, out=heights, where=n_in > 0)


def refine_reasons(
    fitted: np.ndarray,
    n_inliers: np.ndarray,
    n_outliers: np.ndarray,
    sparsity_in: np.ndarray,
    sparsity_out: np.ndarray,
    rise: np.ndarray,
    below_non_ground: np.ndarray,
    expansion: ExpansionParams,
) -> np.ndarray:
    """Reason of the five-step refinement per cell, as a position in ``REASONS``.

    ``fitted`` tells whether a cell holds a plane partition (line cells and
    fit failures do not).  Ambiguous cells, whose inlier and outlier
    sparsity classes agree, get the reasons from ``_AMBIGUOUS`` on; only they
    read ``rise``, the height of their inliers above their lowest ground
    neighbor (NaN without one), and ``below_non_ground``, whether the
    occupied cell below them in the column is non-ground.  Inputs that an
    earlier step makes irrelevant may hold anything.
    """
    steps = [
        ~fitted,
        n_inliers == 0,
        n_outliers == 0,
        sparsity_in != sparsity_out,
        np.isnan(rise),
        rise > expansion.ambiguity_elevation_threshold,
        below_non_ground,
    ]
    return np.select(steps, range(len(steps)), len(steps))


def refine_cell(
    cell: int,
    grid: VoxelGrid,
    neighbor_ground_cells: list[int],
    geometry: GeometryParams,
    expansion: ExpansionParams,
) -> tuple[bool, str]:
    """Decide whether the inliers of grid row ``cell`` are routed to ground.

    ``neighbor_ground_cells`` are the grid rows of its ground neighbors.
    Returns (is_ground, reason); see ``refine_reasons``.  The cell below
    counts as non-ground by its current state.
    """
    fitted = bool(grid.fitted[cell])
    span = grid.span(cell)
    pts, inl = grid.points[span], grid.inliers[span]
    n_in = int(inl.sum()) if fitted else 0
    n_out = len(pts) - n_in if fitted else 0
    s_in = s_out = Sparsity.LOW
    rise = math.nan
    if n_in and n_out:
        split = np.concatenate([pts[inl], pts[~inl]])
        s_in, s_out = segment_sparsity(split, [n_in, n_out], geometry)
        if len(neighbor_ground_cells):
            heights = cell_heights(grid, np.array([cell, *neighbor_ground_cells]))
            rise = heights[0] - heights[1:].min()
    below = occupied_below(grid)[cell]
    below_non_ground = below >= 0 and grid.state[below] in _NON_GROUND_STATES
    reason = int(
        refine_reasons(
            np.array(fitted), n_in, n_out, s_in, s_out, rise, below_non_ground, expansion
        )
    )
    return bool(_ROUTES_GROUND[reason]), REASONS[reason]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``starts[r]:starts[r] + lengths[r]``, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _neighbor_graph(index: CentroidIndex, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric graph of every two centroids within radius, as CSR
    (indptr, indices) with each row's indices ascending."""
    n = len(index.cell_ids)
    i, j = index.pairs(radius)
    rows, cols = np.divmod(np.sort(np.concatenate([i * n + j, j * n + i])), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


def _breadth_first(indptr: np.ndarray, indices: np.ndarray, source: int):
    """Breadth-first order from ``source`` over a CSR graph, and each
    reached node's predecessor (-1 elsewhere).

    The order is that of a FIFO queue to which each dequeued node appends
    its unvisited neighbors in row order.  It is built one level at a time:
    the next level is the current level's rows, concatenated in queue
    order, with visited nodes dropped and each node kept at its first
    occurrence, whose row's node is its predecessor.
    """
    n = len(indptr) - 1
    pred = np.full(n, -1)
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    first = np.empty(n, dtype=np.int64)
    levels = [np.array([source])]
    while True:
        level = levels[-1]
        lengths = indptr[level + 1] - indptr[level]
        nb = indices[_ranges(indptr[level], lengths)]
        new = np.flatnonzero(~seen[nb])
        first[nb[new]] = len(nb)
        np.minimum.at(first, nb[new], new)
        at = new[first[nb[new]] == new]  # first occurrences, in queue order
        if not len(at):
            return np.concatenate(levels), pred
        nb = nb[at]
        seen[nb] = True
        pred[nb] = level[np.searchsorted(np.cumsum(lengths), at, side="right")]
        levels.append(nb)


def expand(
    grid: VoxelGrid,
    index: CentroidIndex,
    seed: CellIndex,
    geometry: GeometryParams,
    expansion: ExpansionParams,
    log: ExpansionLog | None = None,
    route_counts: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first ground expansion from the seed cell.

    The index must hold the grid rows of tentative cells in ascending order;
    the neighbor graph is built from one pair query over it.  A
    breadth-first search over that graph with each row's neighbors
    ascending admits each cell's neighbors in ascending cell-index order
    (reproducible runs).  Admitted cells are GROUND until they are dequeued
    and refined.  Every refinement step but the ambiguous-cell checks is
    independent of that order and runs on all dequeued cells at once;
    ambiguous cells are refined one at a time in dequeue order, seeing each
    neighbor as ground when it was admitted by then and is either still
    queued or was routed ground.  Final states land in ``grid.state``:
    GROUND or NON_GROUND for dequeued cells, unreached ones stay TENTATIVE.

    Returns sorted id arrays (ground, non-ground) of positions in the cloud
    the grid was built from, covering exactly the cells that were dequeued;
    points of unreached cells belong to neither.  A given ``log`` receives
    the admission edges and routes in dequeue order, a given
    ``route_counts`` the number of cells per reason in ``REASONS``.
    """
    seed_row = grid.find(seed)
    if seed_row < 0 or grid.state[seed_row] != GroundState.TENTATIVE:
        raise ContractViolationError(f"seed cell {seed} is not tentative ground")
    ids = np.asarray(index.cell_ids, dtype=np.int64)
    n = len(ids)
    if np.any(ids[1:] <= ids[:-1]):
        raise ContractViolationError("centroid index cells must be in ascending index order")
    if n and (
        ids[0] < 0
        or ids[-1] >= len(grid.cells)
        or np.any(grid.state[ids] != GroundState.TENTATIVE)
    ):
        raise ContractViolationError("centroid index cells must be tentative ground cells")
    s = int(np.searchsorted(ids, seed_row))
    if s == n or ids[s] != seed_row:
        raise ContractViolationError(f"seed cell {seed} is not in the centroid index")

    z = index.centroids[:, 2]
    indptr, indices = _neighbor_graph(index, expansion.search_radius)
    admit_ptr, admit = indptr, indices
    if expansion.phase == 2:
        # drop the edges over the height gate; the remaining indices stay sorted
        rows = np.repeat(np.arange(n), np.diff(indptr))
        keep = np.abs(z[rows] - z[indices]) <= expansion.height_gate
        admit = indices[keep]
        admit_ptr = np.append(0, np.cumsum(keep))[indptr]
    order, pred = _breadth_first(admit_ptr, admit, s)

    # rank = dequeue position; unreached cells get m, past every position
    m = len(order)
    rank = np.full(n, m)
    rank[order] = np.arange(m)
    admitted_at = np.full(n, m)  # dequeue position of the cell that admitted it
    admitted_at[order[1:]] = rank[pred[order[1:]]]
    admitted_at[s] = -1
    cells = ids[order]  # grid rows in dequeue order

    # refinement inputs per grid row, read in the grid's canonical point order
    k, counts, inliers = len(grid.cells), grid.counts, grid.inliers
    reached = np.zeros(k, dtype=bool)
    reached[cells] = True
    fitted = grid.fitted
    n_in = np.where(fitted, np.add.reduceat(inliers, grid.offsets[:-1], dtype=np.int64), 0)
    n_out = np.where(fitted, counts - n_in, 0)
    s_in, s_out = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    split = reached & (n_in > 0) & (n_out > 0)
    if split.any():
        in_split = np.repeat(split, counts)
        pts_in = np.compress(in_split & inliers, grid.points, axis=0)
        pts_out = np.compress(in_split & ~inliers, grid.points, axis=0)
        s_in[split] = segment_sparsity(pts_in, n_in[split], geometry)
        s_out[split] = segment_sparsity(pts_out, n_out[split], geometry)
    inputs = [x[cells] for x in (fitted, n_in, n_out, s_in, s_out)]  # in dequeue order
    reasons = refine_reasons(*inputs, np.full(m, np.nan), np.zeros(m, bool), expansion)
    ground = np.append(_ROUTES_GROUND[reasons], False)  # one slot for unreached cells

    # ambiguous cells, one at a time in dequeue order: a neighbor is ground
    # at step t when it was admitted by then and is either still queued or
    # was routed ground; the cell below is non-ground when classified so or
    # when it was dequeued earlier and routed non-ground
    ambiguous = np.flatnonzero(reasons >= _AMBIGUOUS)
    if len(ambiguous):
        below = occupied_below(grid)[cells[ambiguous]]
        below_fixed = (below >= 0) & np.isin(grid.state[below], _NON_GROUND_STATES)
        row_rank = np.full(k + 1, m)  # row -1 (no cell below) is unreached
        row_rank[cells] = np.arange(m)
        below_rank = row_rank[below]
        # heights, by index position, of the ambiguous cells and their neighbors
        amb = order[ambiguous]
        need = np.union1d(amb, indices[_ranges(indptr[amb], indptr[amb + 1] - indptr[amb])])
        height = np.zeros(n)
        height[need] = cell_heights(grid, ids[need])
    for a, t in enumerate(ambiguous.tolist()):
        i = order[t]
        nb = indices[indptr[i] : indptr[i + 1]]
        r = rank[nb]
        seen = nb[(admitted_at[nb] <= t) & ((r > t) | ground[r])]
        rise = height[i] - height[seen].min() if len(seen) else math.nan
        b = below_rank[a]
        below_non_ground = below_fixed[a] or (b < t and not ground[b])
        reasons[t] = refine_reasons(*(x[t] for x in inputs), rise, below_non_ground, expansion)
        ground[t] = _ROUTES_GROUND[reasons[t]]
    ground = ground[:m]

    grid.state[cells] = np.where(ground, GroundState.GROUND, GroundState.NON_GROUND)
    if log is not None:
        child, parent = order[1:], pred[order[1:]]
        log.edges.extend(
            zip(
                _cell_indices(grid, ids[parent]),
                _cell_indices(grid, ids[child]),
                np.abs(z[parent] - z[child]).tolist(),
            )
        )
        routes = ("non_ground", "ground")
        log.routes.extend(
            zip(
                _cell_indices(grid, cells),
                [routes[g] for g in ground.tolist()],
                [REASONS[r] for r in reasons.tolist()],
            )
        )
    if route_counts is not None:
        route_counts.update(zip(REASONS, np.bincount(reasons, minlength=len(REASONS)).tolist()))

    to_ground = np.zeros(k, dtype=bool)
    to_ground[cells] = ground
    to_ground = np.repeat(to_ground, counts) & inliers
    rest = np.repeat(reached, counts) & ~to_ground
    n_ids = len(grid.order)
    ground_ids = np.flatnonzero(id_mask(np.compress(to_ground, grid.order), n_ids))
    return ground_ids, np.flatnonzero(id_mask(np.compress(rest, grid.order), n_ids))


def _cell_indices(grid: VoxelGrid, rows: np.ndarray) -> list[CellIndex]:
    return list(zip(*np.take(grid.cells, rows, axis=0).T.tolist()))


def id_mask(ids: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask over ``n`` ids, True at ``ids``; its ``flatnonzero`` is
    ``ids`` sorted and deduplicated."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask
