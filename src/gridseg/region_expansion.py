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
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.spatial import cKDTree

from .cell_geometry import GeometryParams, Sparsity, bbox_sparsity, segment_sparsity
from .cloud_io import SyntheticSeedInfo
from .errors import ConfigError, ContractViolationError
from .voxel_grid import CellIndex, GridCell, GroundState, VoxelGrid, cell_index, occupied_below

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

    A cell is numbered by its position in ``cell_ids``; expansion expects
    the ids in ascending order.
    """

    def __init__(self, cell_ids: list[CellIndex], centroids: np.ndarray):
        self.cell_ids = list(cell_ids)
        self.centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
        self._tree = cKDTree(self.centroids) if len(self.cell_ids) else None

    def __len__(self) -> int:
        return len(self.cell_ids)

    def query(self, center, radius: float) -> list[CellIndex]:
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


def build_centroid_index(cells) -> CentroidIndex:
    """Index the centroids of the given (tentative ground) cells.

    The cells must come in ascending index order, the order of ``grid.cells``.
    """
    cells = list(cells)
    if not cells:
        return CentroidIndex([], np.empty((0, 3)))
    return CentroidIndex([c.index for c in cells], np.array([c.centroid for c in cells]))


def select_seed(grid: VoxelGrid, seed_info: SyntheticSeedInfo | None) -> CellIndex:
    """Cell containing the synthetic point directly below the robot."""
    if seed_info is None or seed_info.count < 1:
        raise ConfigError("seed selection requires injected synthetic points")
    idx = cell_index((0.0, 0.0, -seed_info.depth), grid.cellsize)
    if idx not in grid.cells:
        raise ConfigError(f"seed cell {idx} is not occupied; was injection skipped?")
    return idx


def _has_partition(cell: GridCell) -> bool:
    """Whether a cell holds a plane fit with its inlier/outlier split."""
    return cell.plane is not None and cell.inlier_ids is not None and cell.outlier_ids is not None


def _cell_height(cell: GridCell, points: np.ndarray) -> float:
    """Height of a cell: mean z of its ground inliers, else centroid z."""
    if cell.inlier_ids is not None and len(cell.inlier_ids) > 0:
        return float(points[cell.inlier_ids, 2].mean())
    return float(cell.centroid[2])


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
    cell: GridCell,
    grid: VoxelGrid,
    points: np.ndarray,
    neighbor_ground_cells: list[GridCell],
    geometry: GeometryParams,
    expansion: ExpansionParams,
) -> tuple[bool, str]:
    """Decide whether a dequeued cell's inliers are routed to ground.

    Returns (is_ground, reason); see ``refine_reasons``.  The cell below
    counts as non-ground by its current ``ground_state``.
    """
    fitted = _has_partition(cell)
    n_in = len(cell.inlier_ids) if fitted else 0
    n_out = len(cell.outlier_ids) if fitted else 0
    s_in = s_out = Sparsity.LOW
    rise = math.nan
    if n_in and n_out:
        s_in = bbox_sparsity(points[cell.inlier_ids], geometry)
        s_out = bbox_sparsity(points[cell.outlier_ids], geometry)
        heights = [_cell_height(c, points) for c in neighbor_ground_cells]
        if heights:
            rise = _cell_height(cell, points) - min(heights)
    below = occupied_below(grid, cell.index)
    below_non_ground = below is not None and below.ground_state in _NON_GROUND_STATES
    reason = int(
        refine_reasons(
            np.array(fitted), n_in, n_out, s_in, s_out, rise, below_non_ground, expansion
        )
    )
    return bool(_ROUTES_GROUND[reason]), REASONS[reason]


def _below_non_ground(grid, cell_ids, rank, ground, cell, t) -> bool:
    """Whether the occupied cell below ``cell`` is non-ground at dequeue step t."""
    below = occupied_below(grid, cell.index)
    if below is None:
        return False
    if below.ground_state in _NON_GROUND_STATES:
        return True
    k = bisect_left(cell_ids, below.index)
    return k < len(cell_ids) and cell_ids[k] == below.index and rank[k] < t and not ground[rank[k]]


def _neighbor_graph(index: CentroidIndex, radius: float) -> csr_matrix:
    """Symmetric graph of every two centroids within radius, indices sorted per row."""
    n = len(index.cell_ids)
    i, j = index.pairs(radius)
    # edges come in sorted row-major, so scipy need not sort each row
    key = np.sort(np.concatenate([i * n + j, j * n + i]))
    return csr_matrix((np.ones(len(key)), np.divmod(key, n)), shape=(n, n))


def _mask(parts: list[np.ndarray], n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    if parts:
        mask[np.concatenate(parts)] = True
    return mask


def expand(
    grid: VoxelGrid,
    points: np.ndarray,
    index: CentroidIndex,
    seed: CellIndex,
    geometry: GeometryParams,
    expansion: ExpansionParams,
    log: ExpansionLog | None = None,
    route_counts: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first ground expansion from the seed cell.

    The index must hold the tentative cells in ascending index order; the
    neighbor graph is built from one pair query over it.  A breadth-first
    search over that graph in CSR form with sorted column indices admits
    each cell's neighbors in ascending cell-index order (reproducible
    runs).  Admitted cells are GROUND until they are dequeued and refined.
    Every refinement step but the ambiguous-cell checks is independent of
    that order and runs on all dequeued cells at once; ambiguous cells are
    refined one at a time in dequeue order, seeing each neighbor as ground
    when it was admitted by then and is either still queued or was routed
    ground.  Final states land on the grid's cells: GROUND or NON_GROUND
    for dequeued cells, unreached ones stay TENTATIVE.

    Returns sorted id arrays (ground, non-ground) covering exactly the cells
    that were dequeued; points of unreached cells belong to neither.  A
    given ``log`` receives the admission edges and routes in dequeue order,
    a given ``route_counts`` the number of cells per reason in ``REASONS``.
    """
    seed_cell = grid.cells.get(seed)
    if seed_cell is None or seed_cell.ground_state is not GroundState.TENTATIVE:
        raise ContractViolationError(f"seed cell {seed} is not tentative ground")
    ids = index.cell_ids
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ContractViolationError("centroid index cells must be in ascending index order")
    tentative = GroundState.TENTATIVE
    if any(k not in grid.cells or grid.cells[k].ground_state is not tentative for k in ids):
        raise ContractViolationError("centroid index cells must be tentative ground cells")
    n = len(ids)
    s = bisect_left(ids, seed)
    if s == n or ids[s] != seed:
        raise ContractViolationError(f"seed cell {seed} is not in the centroid index")

    z = index.centroids[:, 2]
    graph = _neighbor_graph(index, expansion.search_radius)
    admit = graph
    if expansion.phase == 2:
        # drop the edges over the height gate; the remaining indices stay sorted
        admit = graph.copy()
        rows = np.repeat(np.arange(n), np.diff(graph.indptr))
        admit.data = (np.abs(z[rows] - z[graph.indices]) <= expansion.height_gate) * 1.0
        admit.eliminate_zeros()
    order, pred = breadth_first_order(admit, s, directed=True, return_predecessors=True)

    # rank = dequeue position; unreached cells get m, past every position
    m = len(order)
    rank = np.full(n, m)
    rank[order] = np.arange(m)
    admitted_at = np.full(n, m)  # dequeue position of the cell that admitted it
    admitted_at[order[1:]] = rank[pred[order[1:]]]
    admitted_at[s] = -1
    cells = [grid.cells[ids[k]] for k in order.tolist()]

    fits = [_has_partition(c) for c in cells]
    fitted = np.array(fits, dtype=bool)
    n_in = np.fromiter((len(c.inlier_ids) if f else 0 for c, f in zip(cells, fits)), np.int64, m)
    n_out = np.fromiter((len(c.outlier_ids) if f else 0 for c, f in zip(cells, fits)), np.int64, m)
    s_in, s_out = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    both = np.flatnonzero((n_in > 0) & (n_out > 0))
    if len(both):
        split = [cells[k] for k in both.tolist()]
        inl = np.concatenate([c.inlier_ids for c in split])
        out = np.concatenate([c.outlier_ids for c in split])
        s_in[both] = segment_sparsity(points[inl], n_in[both], geometry)
        s_out[both] = segment_sparsity(points[out], n_out[both], geometry)
    reasons = refine_reasons(
        fitted, n_in, n_out, s_in, s_out, np.full(m, np.nan), np.zeros(m, bool), expansion
    )
    ground = np.append(_ROUTES_GROUND[reasons], False)  # one slot for unreached cells

    # ambiguous cells, one at a time in dequeue order: a neighbor is ground
    # at step t when it was admitted by then and is either still queued or
    # was routed ground; the cell below is non-ground when classified so or
    # when it was dequeued earlier and routed non-ground
    heights: dict[int, float] = {}
    for t in np.flatnonzero(reasons >= _AMBIGUOUS).tolist():
        nb = graph.indices[graph.indptr[order[t]] : graph.indptr[order[t] + 1]]
        r = rank[nb]
        seen = r[(admitted_at[nb] <= t) & ((r > t) | ground[r])].tolist()
        for k in seen:
            if k not in heights:
                heights[k] = _cell_height(cells[k], points)
        rise = _cell_height(cells[t], points) - min(heights[k] for k in seen) if seen else math.nan
        below = _below_non_ground(grid, ids, rank, ground, cells[t], t)
        reasons[t] = refine_reasons(
            fitted[t], n_in[t], n_out[t], s_in[t], s_out[t], rise, below, expansion
        )
        ground[t] = _ROUTES_GROUND[reasons[t]]
    ground = ground[:m]

    routed = ground.tolist()
    states = (GroundState.NON_GROUND, GroundState.GROUND)
    for cell, is_ground in zip(cells, routed):
        cell.ground_state = states[is_ground]
    if log is not None:
        child, parent = order[1:], pred[order[1:]]
        log.edges.extend(
            zip(
                [ids[k] for k in parent.tolist()],
                [ids[k] for k in child.tolist()],
                np.abs(z[parent] - z[child]).tolist(),
            )
        )
        log.routes.extend(
            (ids[k], "ground" if g else "non_ground", REASONS[r])
            for k, g, r in zip(order.tolist(), routed, reasons.tolist())
        )
    if route_counts is not None:
        route_counts.update(zip(REASONS, np.bincount(reasons, minlength=len(REASONS)).tolist()))

    ground_mask = _mask([c.inlier_ids for c, g in zip(cells, routed) if g], len(points))
    nonground_mask = _mask(
        [c.outlier_ids if g else c.point_ids for c, g in zip(cells, routed)], len(points)
    )
    return np.flatnonzero(ground_mask), np.flatnonzero(nonground_mask)
