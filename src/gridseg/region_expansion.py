"""Ground region expansion over tentative-ground cell centroids.

Tentative-ground cells are linked when their centroids lie within the search
radius, and the ground region is the seed cell's connected component over
those links, found on link lists by hooking roots and jumping pointers
(``_roots``), with no neighbor graph and no sort.  Expansion does not
list every link.  Each cell tries two row links in grid order, to the next
cell and to the first cell of the next x column at its y or beyond, and
keeps those within the radius (``_row_links``).  Only the cells outside the
seed's component over the row links, and the ambiguous cells (step 3
below), search the full radius, in one exact pair search over 2-D columns
of centroids (``CentroidIndex.pairs``).  A link that neither lists joins
two cells of the seed's row-link component, which is connected already,
so the seed's component over the listed links is its component over all
links.  Radius links (rather than grid adjacency) let the region bridge
scan-line gaps at fine grid resolutions.  Each reached cell then runs a
five-step refinement that decides whether it is ground; the output is the
inliers of the ground cells:

1. split the cell's points into plane inliers and outliers (stored fit);
2. reject when there are no inliers;
3. score bounding-box sparsity of both subsets; equal classes = ambiguous;
4. for ambiguous cells, reject when elevated above the lowest neighboring
   ground cell or when an occupied non-ground cell sits below in the column;
5. otherwise route inliers to ground, outliers to non-ground.

In the fine phase (phase 2) a link additionally requires the centroid
height difference to stay within the height gate.  The gate drops row
links and pairs before the component search, which reads admissible links
only; step 4 sees every radius neighbor, over the gate too, from the same
search, ungated.

Steps 1-3 read only the cell itself and run on every tentative cell at
once, before reach, so reach knows the ambiguous cells.  Step 4 runs after
reach, on the reached ambiguous cells at once, and reads only the
decisions steps 1-3 settled: a neighbor is ground when it is reached,
unambiguous and routed ground, and the cell below is non-ground when it was
classified so or is reached, unambiguous and routed non-ground.  So no
decision depends on the order in which cells are reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell_geometry import GeometryParams, segment_sparsity
from .cloud_io import SyntheticSeedInfo
from .errors import ConfigError, ContractViolationError, check_fields
from .voxel_grid import REASONS, STATES, Outcome
from .voxel_grid import CellIndex, GroundState, VoxelGrid, cell_index, occupied_below

_AMBIGUOUS = 4  # reasons from this position on are those of ambiguous cells
# per outcome code, whether a cell is settled non-ground: an obstacle, or
# classified or routed non-ground; such a cell below an ambiguous one rejects it
_SETTLED_NON_GROUND = (STATES == GroundState.NON_GROUND) | (STATES == GroundState.OBSTACLE)
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
    lie in one run of the sorted order.  Each flagged centroid is compared
    with the centroids of a window of columns: in each x column in reach,
    its own among them, the span of y columns that its least distance to
    that x column leaves in reach, widened by a rounding margin.  So every
    centroid within the radius of a flagged one is met, and a pair is kept
    under the rule of a brute-force scan.  A pair of two flagged centroids
    is met by both and kept once, by its lower position.
    """

    def __init__(self, cell_ids: np.ndarray, centroids: np.ndarray):
        self.cell_ids = cell_ids
        self.centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)

    def pairs(
        self, radius: float, fresh: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions (i, j), i < j, of every two centroids within radius
        (inclusive) by ``_within`` of which at least one is flagged in
        ``fresh``, one flag per centroid (None: all).  Positions are int32
        while they fit."""
        c = self.centroids
        n = len(c)
        # columns half a radius wide, but wide enough that no column number
        # passes 2**30: the margin covers their rounding, and a packed code
        # of two column numbers stays below 2**63 however far apart they are
        width = max(radius / 2, np.abs(c[:, :2]).max(initial=0.0) * 2.0**-30) or 1.0
        uv = c[:, :2] / width
        reach = math.ceil(radius / width) + 1  # column offsets a pair can span, at most 3
        # column numbers moved into [0, 2**31] and packed in one code, in
        # which y columns up to reach columns out stay in their x column
        cx, cy = (np.floor(uv) + 2.0**30).astype(np.int64).T
        stride = 2**31 + 2 * reach + 1
        code = cx * stride + cy + reach
        # the codes come in grid order, in few ascending runs, which the
        # stable (run-adaptive) sort takes in about linear time
        order = np.argsort(code, kind="stable").astype(np.int32 if n < 2**31 else np.int64)
        code = np.take(code, order)
        flag = np.ones(n, bool) if fresh is None else np.asarray(fresh, dtype=bool)
        queries = np.flatnonzero(flag).astype(order.dtype)
        m = len(queries)
        uq = np.take(uv, queries, axis=0)
        fq = uq[:, 0] - np.floor(uq[:, 0])  # place within the own x column
        base = np.take(cx, queries) * stride + (2**30 + reach)  # code less the y column
        # the least x distance from each query to the x column dx on from
        # its own, one row per offset, and the y span it leaves in reach;
        # offsets with none left drop out
        dx = np.arange(-reach, reach + 1)
        gx = np.abs(np.subtract.outer(dx + 0.5, fq)) - 0.5
        gx = np.maximum(gx - _MARGIN, 0.0).ravel()
        rest = (radius / width) ** 2 - gx * gx
        k = np.flatnonzero(rest >= 0)
        offset, q = np.divmod(k, m)
        p = np.take(queries, q)
        h, vp = np.sqrt(np.take(rest, k)) + _MARGIN, np.take(uq[:, 1], q)
        row = np.take(base, q) + np.take(dx * stride, offset)
        lo = np.searchsorted(code, row + np.floor(vp - h).astype(np.int64), "left")
        hi = np.searchsorted(code, row + np.floor(vp + h).astype(np.int64), "right")
        lengths = hi - lo
        # the candidates' distances in runs of about _CANDIDATES, which
        # bounds the memory they take
        cut = np.searchsorted(
            np.cumsum(lengths), np.arange(_CANDIDATES, lengths.sum(), _CANDIDATES)
        ).tolist()
        found_i, found_j = [], []
        for s, e in zip([0, *cut], [*cut, len(p)]):
            ps = np.repeat(p[s:e], lengths[s:e])
            other = np.take(order, _ranges(lo[s:e], lengths[s:e]))
            keep = (ps < other) | ~np.take(flag, other)
            keep &= _within(c.T, ps, other, radius)
            found_i.append(np.compress(keep, ps))
            found_j.append(np.compress(keep, other))
        i, j = np.concatenate(found_i), np.concatenate(found_j)
        return np.minimum(i, j), np.maximum(i, j)


@dataclass
class ExpansionLog:
    """Optional trace: the routing decision of every reached cell, read
    from the outcomes (``record``)."""

    routes: list[tuple[CellIndex, str, str]] = field(default_factory=list)

    def record(self, grid: VoxelGrid) -> None:
        """Append the route and reason of every cell ``expand`` reached in
        ``grid`` (outcome ``Outcome.ROUTED`` or more), in ascending row order."""
        rows = np.flatnonzero(grid.outcome >= Outcome.ROUTED)
        codes = np.take(grid.outcome, rows)
        cells = zip(*np.take(grid.cells, rows, axis=0).T.tolist())
        ground = (np.take(STATES, codes) == GroundState.GROUND).tolist()
        reasons = [REASONS[r] for r in (codes - Outcome.ROUTED).tolist()]
        self.routes.extend(zip(cells, [("non_ground", "ground")[g] for g in ground], reasons))

    def to_text(self) -> str:
        return "\n".join(
            f"ROUTE {i[0]},{i[1]},{i[2]} {route} {reason}" for i, route, reason in self.routes
        )


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
    counts as non-ground by its current outcome.
    """
    inputs = [x[cell] for x in _refine_inputs(grid, np.array([cell]), geometry)]
    heights = cell_heights(grid, np.array([cell, *neighbor_ground_cells]))
    rise = heights[0] - heights[1:].min() if len(neighbor_ground_cells) else math.nan
    below = occupied_below(grid, [cell])[0]
    below_non_ground = below >= 0 and bool(_SETTLED_NON_GROUND[grid.outcome[below]])
    reason = int(refine_reasons(*inputs, rise, below_non_ground, expansion))
    return bool(STATES[Outcome.ROUTED + reason] == GroundState.GROUND), REASONS[reason]


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
        # only the split cells' points, in canonical order
        at = _ranges(grid.offsets[:-1][split], counts[split])
        pts, inl = np.take(grid.points, at, axis=0), np.take(inliers, at)
        s_in[split] = segment_sparsity(np.compress(inl, pts, axis=0), n_in[split], geometry)
        s_out[split] = segment_sparsity(np.compress(~inl, pts, axis=0), n_out[split], geometry)
    return fitted, n_in, n_out, s_in, s_out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``starts[r]:starts[r] + lengths[r]``, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())


def _within(coords, i: np.ndarray, j: np.ndarray, radius: float) -> np.ndarray:
    """Whether each two points ``i[k]`` and ``j[k]`` (positions in the x,
    y and z arrays ``coords``) lie within ``radius``, inclusive: whether
    ``(dx**2 + dy**2) + dz**2`` is at most ``radius**2``.  The one pair
    test of the searches and the row links."""
    d2 = np.zeros(len(i))
    for a in coords:
        d = np.take(a, j) - np.take(a, i)
        d2 += d * d
    return d2 <= radius * radius


def _row_links(cells: np.ndarray, centroids: np.ndarray, radius: float):
    """Positions (i, j), i < j, of the links within ``radius`` (``_within``)
    that the grid cells ``cells``, ascending by (ix, iy, iz), form in grid
    order: each cell's to the next cell, and to the first cell of the next
    x column at its y or beyond.  The second is one binary search over a
    code packed, below ``n**2``, from the first position of the cell's x
    column and the rank of its y.  Positions are int32 while they fit, as
    the pairs'."""
    n = len(cells)
    own = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    x, y = cells[:, 0], cells[:, 1]
    # each cell's x run, from where x changes in one pass
    starts = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    lengths = np.diff(np.append(starts, n))
    first, after = np.repeat(starts, lengths), np.repeat(starts + lengths, lengths)
    y_rank = np.searchsorted(np.sort(y), y)
    ahead = np.searchsorted(first * n + y_rank, after * n + y_rank).astype(own.dtype)
    far = (ahead > own + 1) & (ahead < n)  # not the next cell, nor past the last
    i = np.concatenate([own[:-1], np.compress(far, own)])
    j = np.concatenate([own[1:], np.compress(far, ahead)])
    near = _within(centroids.T, i, j, radius)
    return np.compress(near, i), np.compress(near, j)


def _gated(z: np.ndarray, i: np.ndarray, j: np.ndarray, gate: float | None):
    """The pairs ``(i[k], j[k])`` whose heights ``z`` differ by at most
    ``gate``, or all of them without a gate: the pairs that are links."""
    if gate is None:
        return i, j
    keep = np.abs(np.take(z, i) - np.take(z, j)) <= gate
    return np.compress(keep, i), np.compress(keep, j)


def _roots(root: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The root of every node once the pairs ``(i[k], j[k])``, either way
    round, link the nodes that ``root`` points to roots: nodes of one
    connected component share a root.  ``root`` must point every node to a
    root no larger than it, as ``np.arange(n)`` (no links yet) or an earlier
    result does, so a search resumes from the roots it left; it is written
    over.

    A round hooks the higher root of each pair to the lowest root paired
    with it, so a root only ever points to a smaller label and no cycle can
    form; jumps pointers until every node points to a root; and keeps, as
    pairs of roots, the pairs whose roots still differ (Shiloach and
    Vishkin, J. Algorithms 1982).  Hooking to the lowest root, not the last
    one written, keeps the rounds few: a star whose centre holds the
    largest label takes two.
    """
    i, j = np.take(root, i), np.take(root, j)
    while len(i):
        np.minimum.at(root, np.maximum(i, j), np.minimum(i, j))
        jumped = np.take(root, root)
        while not np.array_equal(jumped, root):
            root, jumped = jumped, np.take(jumped, jumped)
        i, j = np.take(root, i), np.take(root, j)
        differ = i != j
        i, j = np.compress(differ, i), np.compress(differ, j)
    return root


def _reach(
    cells: np.ndarray,
    index: CentroidIndex,
    source: int,
    radius: float,
    gate: float | None,
    flags: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of the index positions in the connected component of position
    ``source`` over the links: the pairs of the index within ``radius``
    whose heights differ by at most ``gate`` (``_gated``).  ``cells`` are
    the grid indices of the index's cells, ascending.  Returns the mask and
    the pairs ``(i, j)`` of its one neighbor search, ungated: every pair
    with an end flagged in ``flags`` or outside the source's component over
    the row links (none when no cell is either).

    The component is found over the row links (``_row_links``) and the
    links of that search, resumed from the row links' roots (``_roots``).
    That is exact: a link left out has both ends in the source's component
    over the row links, which is connected already.
    """
    z = index.centroids[:, 2]
    ri, rj = _gated(z, *_row_links(cells, index.centroids, radius), gate)
    root = _roots(np.arange(len(cells), dtype=ri.dtype), ri, rj)
    in_reach = root == root[source]
    fresh = flags | ~in_reach
    if not fresh.any():
        return in_reach, ri[:0], rj[:0]
    i, j = index.pairs(radius, fresh)
    if not in_reach.all():
        root = _roots(root, *_gated(z, i, j, gate))
        in_reach = root == root[source]
    return in_reach, i, j


def _ambiguous_reasons(grid, ids, amb, i, j, inputs, expansion) -> np.ndarray:
    """Reasons of the ambiguous cells at index positions ``amb``, whose
    other refinement inputs are ``inputs``, once ``grid.outcome`` holds the
    routes of the other reached cells.

    A radius neighbor (the other end of a pair ``(i[k], j[k])`` of index
    positions with an end in ``amb``; the pairs hold every such pair, and
    may hold others) counts as ground when its state is GROUND, and the
    occupied cell below as non-ground when it is settled so
    (``_SETTLED_NON_GROUND``): ambiguous and unreached cells are still
    TENTATIVE, so only settled decisions count.
    """
    slot = np.full(len(ids), -1)  # index position -> position in amb
    slot[amb] = np.arange(len(amb))
    owner, nb = np.concatenate([slot[i], slot[j]]), np.concatenate([j, i])
    mine = owner >= 0
    owner, nb = owner[mine], nb[mine]
    ground = grid.state[ids[nb]] == GroundState.GROUND
    nb, owner = nb[ground], owner[ground]
    height = np.zeros(len(ids))
    need = np.flatnonzero(id_mask(np.concatenate([amb, nb]), len(ids)))
    height[need] = cell_heights(grid, ids[need])
    low = np.full(len(amb), np.inf)
    np.minimum.at(low, owner, height[nb])
    rise = np.where(low < np.inf, height[amb] - low, np.nan)
    below = occupied_below(grid, ids[amb])
    below_non_ground = (below >= 0) & _SETTLED_NON_GROUND[grid.outcome[below]]
    return refine_reasons(*inputs, rise, below_non_ground, expansion)


def expand(
    grid: VoxelGrid,
    index: CentroidIndex,
    seed: CellIndex,
    geometry: GeometryParams,
    expansion: ExpansionParams,
    phase: int,
) -> int:
    """Ground expansion from the seed cell, in phase 1 or 2.

    The index must hold the grid rows of tentative cells in ascending order.
    Its pairs within the search radius are the links, in phase 2 only those
    within the height gate, and the reached cells are the seed's connected
    component over them (``_reach``).  Refinement steps 1-3 read only the
    cell and run on every tentative cell at once, before reach, so that one
    neighbor search (``index.pairs``, run only when some cell is ambiguous
    or outside the seed's component over the row links) serves both reach
    and the ambiguous cells.  The reached ambiguous ones are then refined
    once more, at once, from the routes of the others
    (``_ambiguous_reasons``), over every radius pair with an ambiguous end,
    in phase 2 over the gate too.  Each reached cell's outcome becomes
    ``Outcome.ROUTED`` plus its reason, which makes its state GROUND or
    NON_GROUND (``STATES``); unreached ones stay tentative.  While the
    ambiguous ones are refined, they hold ``PLANAR_TENTATIVE``, as they
    all have a plane fit.

    Returns the number of ground points: the inliers of the cells it
    routed to GROUND, summed from their inlier counts, so no per-point
    array is built; ``ground_mask`` flags those points, and
    ``ExpansionLog.record`` lists the routes.
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
    outside = n > 0 and (ids[0] < 0 or ids[-1] >= len(grid.cells))
    if outside or np.any(grid.state[ids] != GroundState.TENTATIVE):
        raise ContractViolationError("centroid index cells must be tentative ground cells")
    s = int(np.searchsorted(ids, seed_row))
    if s == n or ids[s] != seed_row:
        raise ContractViolationError(f"seed cell {seed} is not in the centroid index")

    # steps 1-3 on every tentative cell, so reach's one search can serve the
    # ambiguous ones too
    inputs = [x[ids] for x in _refine_inputs(grid, ids, geometry)]
    reasons = refine_reasons(*inputs, np.full(n, np.nan), np.zeros(n, bool), expansion)
    gate = expansion.height_gate if phase == 2 else None
    in_reach, i, j = _reach(
        grid.cells[ids], index, s, expansion.search_radius, gate, reasons >= _AMBIGUOUS
    )
    reached = np.flatnonzero(in_reach)  # index positions, ascending
    cells, reasons = ids[reached], reasons[reached]
    inputs = [x[reached] for x in inputs]
    ambiguous = reasons >= _AMBIGUOUS
    if ambiguous.any():
        # the other cells' routes first; the ambiguous ones stay tentative
        grid.outcome[cells] = np.where(ambiguous, Outcome.PLANAR_TENTATIVE, Outcome.ROUTED + reasons)
        # ambiguous cells see all their radius neighbors, over the gate too
        reasons[ambiguous] = _ambiguous_reasons(
            grid, ids, reached[ambiguous], i, j, [x[ambiguous] for x in inputs], expansion
        )
    grid.outcome[cells] = Outcome.ROUTED + reasons
    ground = STATES[grid.outcome[cells]] == GroundState.GROUND
    return int(np.compress(ground, inputs[1]).sum())


def ground_mask(grid: VoxelGrid, n: int) -> np.ndarray:
    """Boolean mask over ``n`` point ids (values of ``grid.order``), True at
    the inliers of the GROUND cells: after ``expand``, the points it routed
    to ground, as many as it returned."""
    mask = np.zeros(n, dtype=bool)
    mask[grid.order] = np.repeat(grid.state == GroundState.GROUND, grid.counts) & grid.inliers
    return mask


def id_mask(ids: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask over ``n`` ids, True at ``ids``; its ``flatnonzero`` is
    ``ids`` sorted and deduplicated."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask
