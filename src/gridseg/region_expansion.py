"""Ground region expansion over tentative-ground cell centroids.

Tentative-ground cells are linked when their centroids lie within the search
radius (one exact pair search over 2-D columns of centroids, run when the
centroid index is built, whose pairs one sort of packed row-column keys turns
into a CSR graph), and a level-at-a-time FIFO breadth-first search over that
graph expands the ground region from the seed cell under the robot.  Both run
on numpy alone.  An index built over cells that a parent index holds with the
same centroids takes their pairs from it and searches only the pairs with
one of its other cells; so Phase II searches only around the cells it does
not take over from Phase I.  Radius links (rather than grid adjacency) let
the region bridge scan-line gaps at fine grid resolutions.  Each dequeued
cell then runs a five-step refinement that decides whether it is ground; the
output is the inliers of the ground cells:

1. split the cell's points into plane inliers and outliers (stored fit);
2. reject when there are no inliers;
3. score bounding-box sparsity of both subsets; equal classes = ambiguous;
4. for ambiguous cells, reject when elevated above the lowest neighboring
   ground cell or when an occupied non-ground cell sits below in the column;
5. otherwise route inliers to ground, outliers to non-ground.

In the fine phase (phase 2) neighbor admission additionally requires the
centroid height difference to stay within the height gate.  The gate drops
pairs before the sort, so the search reads a graph of admissible links
only; step 4 sees every radius neighbor, over the gate too, from a second
graph of all pairs that is built only when the phase has ambiguous cells.

Steps 1-3 and 5 do not depend on the dequeue order and run on all dequeued
cells at once.  Step 4 does: an ambiguous cell sees a neighbor as ground
only when it was admitted by then and has not been routed non-ground, and
the cell below counts when it was routed non-ground earlier.  So a decision
reads only decisions taken before it, and the ambiguous cells' routes are
the one fixed point of that triangular system, found by evaluating all of
them at once in rounds until no route changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell_geometry import GeometryParams, segment_sparsity
from .cloud_io import SyntheticSeedInfo
from .errors import ConfigError, ContractViolationError, check_fields
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
# rounding margin of the pair search, in column widths: below 2**30, a
# centroid's column position is rounded by at most 2**-23 of a width
_MARGIN = 2.0**-20
# candidate pairs whose distances the pair search takes at once
_CANDIDATES = 2**16


@dataclass(frozen=True)
class ExpansionParams:
    search_radius: float = 5.0
    height_gate: float = 0.25
    ambiguity_elevation_threshold: float = 0.3

    def __post_init__(self):
        check_fields(self, ("search_radius", "height_gate", "ambiguity_elevation_threshold"))


class CentroidIndex:
    """Exact fixed-radius pairs over the centroids of some grid rows.

    ``cell_ids`` are the grid rows, in ascending order, and ``centroids``
    their centroids; a centroid is numbered by its position in ``cell_ids``.

    ``pairs`` runs on numpy alone.  It buckets the centroids by 2-D column,
    half a radius wide, and sorts them by a packed (x column, y column)
    code, so that the centroids of one x column and a span of y columns
    lie in one run of the sorted order.  Each centroid is compared with a
    half window of columns: those after it in that order within its own x
    column, and in each of the next x columns in reach the span of y
    columns that its least distance to that x column leaves in reach,
    widened by a rounding margin.  So every two centroids within the radius
    meet once, and a pair is kept under the rule of a brute-force scan.
    Asked only for the pairs with an end in a set of fresh centroids, only
    the fresh centroids search: that half window over all centroids, and
    its mirror image, the columns before their own, over the others.  So
    a pair of two fresh centroids is met once, by the first, and a pair of
    a fresh and another centroid once, by the fresh one.

    ``found`` holds the pairs that ``build_centroid_index`` found, as
    (radius, i, j), and ``inherited`` how many of them it took from a
    parent index; ``pairs`` returns them again at that radius.
    """

    def __init__(self, cell_ids: np.ndarray, centroids: np.ndarray):
        self.cell_ids = cell_ids
        self.centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
        self.found: tuple[float, np.ndarray, np.ndarray] | None = None
        self.inherited = 0

    def pairs(
        self, radius: float, fresh: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions (i, j), i < j, of every two centroids within radius
        (inclusive): those whose ``(dx**2 + dy**2) + dz**2`` is at most
        ``radius**2``; with ``fresh``, one flag per centroid, only those of
        which at least one is flagged.  Positions are int32 while they fit."""
        if fresh is None and self.found is not None and self.found[0] == radius:
            return self.found[1:]
        c = self.centroids
        n = len(c)
        # columns half a radius wide, but wide enough that no column number
        # passes 2**30: the margin covers their rounding, and a packed code
        # of two column numbers stays below 2**63 however far apart they are
        width = max(radius / 2, np.abs(c[:, :2]).max(initial=0.0) * 2.0**-30) or 1.0
        uv = c[:, :2] / width
        col = np.floor(uv)
        reach = math.ceil(radius / width) + 1  # column offsets a pair can span, at most 3
        # column numbers moved into [0, 2**31] and packed in one code, in
        # which y columns up to reach columns out stay in their x column
        cx, cy = (col + 2.0**30).astype(np.int64).T
        stride = 2**31 + 2 * reach + 1
        code = cx * stride + cy + reach
        order = np.argsort(code).astype(np.int32 if n < 2**31 else np.int64)
        code = np.take(code, order)
        base = np.take(cx, order) * stride + (2**30 + reach)  # code less the y column
        fx = np.take(uv[:, 0] - col[:, 0], order)  # place within the own x column
        v = np.take(uv[:, 1], order)
        coords = [np.take(c[:, a], order) for a in range(3)]
        rho2 = (radius / width) ** 2
        # the queries, the targets (None: all) and the direction of the
        # half window, by sorted position: the fresh centroids search ahead
        # over all centroids, and back over the others
        queries = np.arange(n)
        searches = [(None, 1)]
        if fresh is not None:
            flag = np.take(np.asarray(fresh, dtype=bool), order)
            queries = np.flatnonzero(flag)
            searches.append((np.flatnonzero(~flag), -1))
        m = len(queries)
        fq, vq, bq = (np.take(a, queries) for a in (fx, v, base))
        found_i, found_j = [], []
        for targets, step in searches:
            tcode = code if targets is None else np.take(code, targets)
            # the least x distance from each query to the x column dx on
            # from its own (dx - f ahead, f - dx - 1 behind), one row per
            # offset, and the y span it leaves in reach; offsets with none
            # left drop out, and the own column (dx = 0, at distance 0)
            # stays first, as all m queries
            dx = np.arange(0, step * (reach + 1), step)
            ahead = np.subtract.outer(dx, fq)
            gx = np.maximum((ahead if step > 0 else -ahead - 1) - _MARGIN, 0.0).ravel()
            rest = rho2 - gx * gx
            k = np.flatnonzero(rest >= 0)
            offset, q = np.divmod(k, m)
            p = np.take(queries, q)
            h, vp = np.sqrt(np.take(rest, k)) + _MARGIN, np.take(vq, q)
            row = np.take(bq, q) + np.take(dx * stride, offset)
            # the y span's ends: the far one in the window's direction, and
            # the near one, which in the own x column (the first m rows) is
            # the query itself: only the targets after it, or before it
            sides = ("right", "left")[::step]
            far = np.searchsorted(tcode, row + np.floor(vp + step * h).astype(np.int64), sides[0])
            own = p[:m] + 1 if targets is None else np.searchsorted(targets, p[:m], "right")
            edge = row[m:] + np.floor(vp[m:] - step * h[m:]).astype(np.int64)
            near = np.concatenate([own, np.searchsorted(tcode, edge, sides[1])])
            lo, hi = (near, far)[::step]
            lengths = np.maximum(hi - lo, 0)
            # the candidates' distances in runs of about _CANDIDATES, which
            # bounds the memory they take
            cut = np.searchsorted(
                np.cumsum(lengths), np.arange(_CANDIDATES, lengths.sum(), _CANDIDATES)
            ).tolist()
            for s, e in zip([0, *cut], [*cut, len(p)]):
                ps, ls = p[s:e], lengths[s:e]
                other = _ranges(lo[s:e], ls)
                if targets is not None:
                    other = np.take(targets, other)
                d2 = np.zeros(len(other))
                for a in coords:
                    d = np.take(a, other) - np.repeat(np.take(a, ps), ls)
                    d2 += d * d
                near = d2 <= radius * radius
                found_i.append(np.compress(near, np.repeat(ps, ls)))
                found_j.append(np.compress(near, other))
        i = np.take(order, np.concatenate(found_i))
        j = np.take(order, np.concatenate(found_j))
        return np.minimum(i, j), np.maximum(i, j)


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


def build_centroid_index(
    grid: VoxelGrid,
    cells: np.ndarray,
    radius: float | None = None,
    parent: CentroidIndex | None = None,
    parent_rows: np.ndarray | None = None,
) -> CentroidIndex:
    """Index the centroids of the given grid rows (the tentative ground
    cells, ascending, for expansion).

    With a ``radius``, the pairs within it are found now and kept in the
    index's ``found``.  A ``parent`` index over another grid's rows, whose
    pairs were found at the same radius, lends its pairs between cells
    that it holds too: ``parent_rows`` gives per grid row the parent grid
    row holding exactly its points, or -1, and a cell whose parent row is
    in ``parent`` with the same centroid to the bit had each of its pairs
    with another such cell decided there by the same test.  Only the pairs
    with an end in one of the other cells are searched.  Parent rows
    ascend with the rows, so each lent pair keeps i < j.
    """
    cells = np.asarray(cells, dtype=np.int64)
    index = CentroidIndex(cells, np.take(grid.centroids, cells, axis=0))
    if radius is None:
        return index
    if parent is None or not len(parent.cell_ids):
        index.found = (radius, *index.pairs(radius))
        return index
    if parent.found is None or parent.found[0] != radius:
        raise ContractViolationError("a parent index lends only pairs found at the same radius")
    pids = parent.cell_ids
    prow = np.take(parent_rows, cells)
    at = np.minimum(np.searchsorted(pids, prow), len(pids) - 1)
    same = np.take(pids, at) == prow
    same &= (np.take(parent.centroids, at, axis=0) == index.centroids).all(axis=1)
    fi, fj = index.pairs(radius, ~same)
    to = np.full(len(pids), -1, dtype=fi.dtype)  # parent position -> position
    to[np.compress(same, at)] = np.flatnonzero(same)
    i, j = (np.take(to, a) for a in parent.found[1:])
    both = (i >= 0) & (j >= 0)
    i, j = np.compress(both, i), np.compress(both, j)
    index.found = (radius, np.concatenate([i, fi]), np.concatenate([j, fj]))
    index.inherited = len(i)
    return index


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
    inputs = [x[cell] for x in _refine_inputs(grid, np.array([cell]), geometry)]
    heights = cell_heights(grid, np.array([cell, *neighbor_ground_cells]))
    rise = heights[0] - heights[1:].min() if len(neighbor_ground_cells) else math.nan
    below = occupied_below(grid)[cell]
    below_non_ground = below >= 0 and grid.state[below] in _NON_GROUND_STATES
    reason = int(refine_reasons(*inputs, rise, below_non_ground, expansion))
    return bool(_ROUTES_GROUND[reason]), REASONS[reason]


def _refine_inputs(grid: VoxelGrid, rows: np.ndarray, geometry: GeometryParams):
    """Per grid row: whether it holds a plane fit, its inlier and outlier
    counts (0 without a fit), and the sparsity classes of its inliers and
    outliers, scored only at those of the grid rows ``rows`` that hold both
    (0 elsewhere).  Points are read in the grid's canonical order.
    """
    counts, inliers, fitted = grid.counts, grid.inliers, grid.fitted
    n_in = np.where(fitted, np.add.reduceat(inliers, grid.offsets[:-1], dtype=np.int64), 0)
    n_out = np.where(fitted, counts - n_in, 0)
    s_in, s_out = np.zeros((2, len(counts)), dtype=np.int64)
    split = id_mask(rows, len(counts)) & (n_in > 0) & (n_out > 0)
    if split.any():
        in_split = np.repeat(split, counts)
        pts_in = np.compress(in_split & inliers, grid.points, axis=0)
        pts_out = np.compress(in_split & ~inliers, grid.points, axis=0)
        s_in[split] = segment_sparsity(pts_in, n_in[split], geometry)
        s_out[split] = segment_sparsity(pts_out, n_out[split], geometry)
    return fitted, n_in, n_out, s_in, s_out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``starts[r]:starts[r] + lengths[r]``, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())


def _neighbor_graph(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric graph over ``n`` nodes with an edge per pair ``(i[k], j[k])``,
    as CSR (indptr, indices) with each row's indices ascending.

    Both entries of each pair, keyed ``row * n + column``, are put in row
    order by one sort, of int32 keys while ``n * n`` fits in them.  A
    binary search for each row's first key gives ``indptr``, and each
    key less its row's ``row * n`` is its column.
    """
    dtype = np.int32 if n * n < 2**31 else np.int64
    i, j = i.astype(dtype, copy=False), j.astype(dtype, copy=False)
    keys = np.concatenate([i * n + j, j * n + i])
    keys.sort()
    starts = np.arange(n + 1, dtype=dtype) * n  # the key of (row, 0), and n * n
    indptr = np.searchsorted(keys, starts)
    return indptr, keys - np.repeat(starts[:-1], np.diff(indptr))


def _breadth_first(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first order from ``source`` over a CSR graph, and the
    predecessor of each node (-1 for the source and unreached nodes): the
    order in which a FIFO queue dequeues the nodes when each dequeued node
    appends its unseen neighbors in row order.

    The queue holds one level after the other, so the search runs a level
    at a time: the next level is the unseen nodes of the frontier's rows,
    concatenated in queue order, in the order of their first occurrence
    there: ``np.minimum.at`` takes each unseen node's least position, and
    the positions that are their node's least are the level, already in
    order.  The frontier row holding that occurrence is the node's
    predecessor.
    """
    n = len(indptr) - 1
    pred = np.full(n, -1)
    unseen = ~id_mask(source, n)
    degrees = np.diff(indptr)
    # per node, the position of its first entry in the level that sees it;
    # past every position until then, as a node is seen in one level only
    first_at = np.full(n, len(indices))
    levels = [np.array([source])]
    while len(frontier := levels[-1]):
        degree = np.take(degrees, frontier)
        nb = np.take(indices, _ranges(np.take(indptr, frontier), degree))
        at = np.flatnonzero(np.take(unseen, nb))  # positions of unseen entries, ascending
        node = np.take(nb, at)
        np.minimum.at(first_at, node, at)
        first = np.compress(np.take(first_at, node) == at, at)  # first per node, ascending
        level = np.take(nb, first)
        unseen[level] = False
        pred[level] = np.take(frontier, np.searchsorted(np.cumsum(degree), first, "right"))
        levels.append(level)
    return np.concatenate(levels), pred


def _refine_ambiguous(
    grid, ids, order, rank, admitted_at, indptr, indices, ambiguous, ground, inputs, expansion
) -> np.ndarray:
    """Reasons of the ambiguous cells at dequeue positions ``ambiguous``, as
    refining them one at a time in dequeue order gives them; their routes
    are written into ``ground``.

    At dequeue step t a radius neighbor (rows ``indptr``/``indices`` over
    index positions) counts as ground when it was admitted by then and is
    either still queued (rank > t) or was routed ground (rank < t); the
    occupied cell below is non-ground when classified so, or when it was
    dequeued earlier and routed non-ground.  ``ground`` holds the routes by
    dequeue position (final for the unambiguous cells, False in its last
    slot, that of unreached cells), ``inputs`` the ambiguous cells' other
    refinement inputs.

    A decision at step t reads only decisions taken before t, so the
    ambiguous routes are the one solution of a triangular system.  Rounds
    evaluate every ambiguous cell at once from the routes of the round
    before, starting from all passed, and stop when no route changes: a
    cell whose decision reads a chain of d earlier ambiguous decisions
    holds its final route from round d + 1 on, so a phase whose longest
    such chain is D takes at most D + 2 rounds.
    """
    m = len(order)
    amb = order[ambiguous]
    # (ambiguous cell, radius neighbor admitted by its step) pairs, flat
    degree = indptr[amb + 1] - indptr[amb]
    nb = indices[_ranges(indptr[amb], degree)]
    owner = np.repeat(np.arange(len(amb)), degree)
    admitted = admitted_at[nb] <= ambiguous[owner]
    nb, owner = nb[admitted], owner[admitted]
    r = rank[nb]
    queued = r > ambiguous[owner]
    height = np.zeros(len(ids))
    need = np.union1d(amb, nb)
    height[need] = cell_heights(grid, ids[need])
    nb_height = height[nb]
    # the cells without such a neighbor are empty segments, which reduceat
    # would give the next segment's first value: they keep inf (no rise)
    has = np.bincount(owner, minlength=len(amb)) > 0
    starts = np.flatnonzero(np.diff(owner, prepend=-1))

    below = occupied_below(grid)[ids[amb]]
    below_fixed = (below >= 0) & np.isin(grid.state[below], _NON_GROUND_STATES)
    row_rank = np.full(len(grid.cells) + 1, m)  # row -1 (no cell below) is unreached
    row_rank[ids[order]] = np.arange(m)
    below_rank = row_rank[below]
    below_earlier = below_rank < ambiguous

    ground[ambiguous] = True
    while True:
        low = np.full(len(amb), np.inf)
        seen = queued | ground[r]
        low[has] = np.minimum.reduceat(np.where(seen, nb_height, np.inf), starts)
        rise = np.where(low < np.inf, height[amb] - low, np.nan)
        below_non_ground = below_fixed | (below_earlier & ~ground[below_rank])
        reasons = refine_reasons(*inputs, rise, below_non_ground, expansion)
        routes = _ROUTES_GROUND[reasons]
        if np.array_equal(routes, ground[ambiguous]):
            return reasons
        ground[ambiguous] = routes


def expand(
    grid: VoxelGrid,
    index: CentroidIndex,
    seed: CellIndex,
    geometry: GeometryParams,
    expansion: ExpansionParams,
    phase: int,
    log: ExpansionLog | None = None,
    route_counts: dict[str, int] | None = None,
) -> np.ndarray:
    """Breadth-first ground expansion from the seed cell, in phase 1 or 2.

    The index must hold the grid rows of tentative cells in ascending order;
    the neighbor graph is built from its pairs within the search radius
    (those ``build_centroid_index`` found, or one search), in phase 2
    from only the pairs within the height gate, which is applied to the
    pairs before they are sorted into rows.  The breadth-first search
    over that graph with each row's neighbors ascending admits each cell's
    neighbors in ascending cell-index order (reproducible runs).  Admitted
    cells are GROUND until they are dequeued and refined.  Every refinement
    step but the ambiguous-cell checks is independent of that order and
    runs on all dequeued cells at once.  An ambiguous cell sees each
    neighbor as ground when it was admitted by its dequeue step and is
    either still queued or was routed ground, so its decision reads the
    decisions of ambiguous cells dequeued before it; all of them are
    found at once, as the fixed point of array rounds that gives the
    sequential result (``_refine_ambiguous``).  They read every radius
    neighbor, so in phase 2 the rows of all pairs are built too, but only
    when some reached cell is ambiguous.  Final states land in
    ``grid.state``: GROUND or NON_GROUND for dequeued cells, unreached ones
    stay TENTATIVE.

    Returns the sorted ground ids, as values of ``grid.order``: the
    inliers of the cells whose final state is GROUND, sorted by a mask over
    the ids.  A given ``log`` receives the admission edges and routes in
    dequeue order, a given ``route_counts`` the number of cells per reason
    in ``REASONS``.
    """
    if phase not in (1, 2):
        raise ContractViolationError(f"phase must be 1 or 2, got {phase}")
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
    i, j = index.pairs(expansion.search_radius)
    if phase == 2:
        # the height gate drops pairs before they are sorted into rows
        keep = np.abs(np.take(z, i) - np.take(z, j)) <= expansion.height_gate
        indptr, indices = _neighbor_graph(n, np.compress(keep, i), np.compress(keep, j))
    else:
        indptr, indices = _neighbor_graph(n, i, j)
    order, pred = _breadth_first(indptr, indices, s)

    # rank = dequeue position; unreached cells get m, past every position
    m = len(order)
    rank = np.full(n, m)
    rank[order] = np.arange(m)
    admitted_at = np.full(n, m)  # dequeue position of the cell that admitted it
    admitted_at[order[1:]] = rank[pred[order[1:]]]
    admitted_at[s] = -1
    cells = ids[order]  # grid rows in dequeue order

    inputs = [x[cells] for x in _refine_inputs(grid, cells, geometry)]  # in dequeue order
    reasons = refine_reasons(*inputs, np.full(m, np.nan), np.zeros(m, bool), expansion)
    ground = np.append(_ROUTES_GROUND[reasons], False)  # one slot for unreached cells
    ambiguous = np.flatnonzero(reasons >= _AMBIGUOUS)
    if len(ambiguous):
        if phase == 2:  # ambiguous cells see all their radius neighbors, over the gate too
            indptr, indices = _neighbor_graph(n, i, j)
        reasons[ambiguous] = _refine_ambiguous(
            grid, ids, order, rank, admitted_at, indptr, indices, ambiguous, ground,
            [x[ambiguous] for x in inputs], expansion,
        )
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

    to_ground = np.repeat(grid.state == GroundState.GROUND, grid.counts) & grid.inliers
    return np.flatnonzero(id_mask(np.compress(to_ground, grid.order), grid.order.max() + 1))


def _cell_indices(grid: VoxelGrid, rows: np.ndarray) -> list[CellIndex]:
    return list(zip(*np.take(grid.cells, rows, axis=0).T.tolist()))


def id_mask(ids: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask over ``n`` ids, True at ``ids``; its ``flatnonzero`` is
    ``ids`` sorted and deduplicated."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask
