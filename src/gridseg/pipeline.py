"""Dual-phase segmentation pipeline.

Phase I bins the full scan into tall cells so vertical structures are caught
early; Phase II re-grids the points of cells Phase I routed to ground
(inliers and outliers alike) at a much finer cell height and repeats the
classification and expansion with the additional per-neighbor height gate.
The final ground set is Phase II's output, mapped back to the original point
order with the synthetic seed points stripped.

Phase II inherits what Phase I already computed.  A Phase-I ground cell
whose points all fall in one fine slab, shared with no other Phase-I cell
of its column, and whose plane fit finished on the eigenplane, is the
Phase-II cell of that slab: the same points in the same canonical order,
so the same centroid, kind, plane and inliers to the bit.  Phase II takes
those cells over and grids and classifies only the other points; the two
parts merge into one canonical grid, equal to a grid built from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cell_geometry import (
    MIN_POINTS_FOR_EIGEN,
    GeometryParams,
    cell_keys,
    eigen_kinds,
    eigenplane_normals,
    line_tentative,
    plane_tentative,
    ransac_cells,
    segment_covariance,
    sorted_eigen,
)

# Not called here any more; the benchmark's layer tracer (perfbench/layertrace.py)
# still hooks the name gridseg.pipeline.ransac_plane, and its tests expect every
# hook target to resolve.
from .cell_geometry import ransac_plane  # noqa: F401
from .cloud_io import PointCloud, SyntheticSeedInfo, inject_synthetic_seed, strip_synthetic
from .errors import ConfigError
from .region_expansion import (
    REASONS,
    ExpansionLog,
    ExpansionParams,
    build_centroid_index,
    expand,
    id_mask,
    select_seed,
)
from .voxel_grid import CellKind, CellSize, GroundState, VoxelGrid, build_grid, merge_grids


@dataclass(frozen=True)
class PhaseConfig:
    cellsize: CellSize
    geometry: GeometryParams
    expansion: ExpansionParams


@dataclass(frozen=True)
class PipelineConfig:
    phase1: PhaseConfig
    phase2: PhaseConfig
    dist_to_ground: float = 1.723
    robot_radius: float = 2.7
    seed_spacing: float = 0.3
    global_seed: int = 0

    def __post_init__(self):
        if self.phase1.cellsize.sz <= self.phase2.cellsize.sz:
            raise ConfigError("Phase I cell height must exceed Phase II cell height")
        if self.dist_to_ground <= 0 or self.robot_radius < 0 or self.seed_spacing <= 0:
            raise ConfigError("invalid robot geometry parameters")


def make_default_config() -> PipelineConfig:
    """Defaults: 1.5 x 1.0 m cell footprint, 1.5 / 0.2 m cell heights,
    30 deg slope threshold, 0.125 m inlier threshold, 5.0 m search radius,
    robot at 1.723 m above ground with a 2.7 m radius."""
    geometry = GeometryParams()
    return PipelineConfig(
        phase1=PhaseConfig(
            cellsize=CellSize(1.5, 1.0, 1.5),
            geometry=geometry,
            expansion=ExpansionParams(phase=1),
        ),
        phase2=PhaseConfig(
            cellsize=CellSize(1.5, 1.0, 0.2),
            geometry=geometry,
            expansion=ExpansionParams(phase=2),
        ),
    )


STAGES = ("grid", "eigen", "plane_fit", "index", "expand")


@dataclass
class PhaseStats:
    n_points: int = 0
    n_cells: int = 0
    # cells taken over unchanged from the previous phase's grid (always 0
    # in Phase I); they are counted in n_cells and the counts below
    cells_inherited: int = 0
    cells_line: int = 0
    cells_planar: int = 0
    cells_non_planar: int = 0
    cells_tentative: int = 0
    cells_obstacle: int = 0
    cells_expanded: int = 0
    cells_routed_ground: int = 0
    points_ground: int = 0
    points_non_ground: int = 0
    # False when the seed cell under the robot was not tentative ground; the
    # phase then routes all its points to non-ground
    seed_ok: bool = True
    # cells per refinement reason (region_expansion.REASONS); they add up
    # to cells_expanded
    routes: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REASONS, 0))
    # eigen-planar cells by how their plane fit ended: finished by the
    # eigenplane (candidate 0), by sampled RANSAC candidates, or without a
    # plane (the cell is then non-planar); they add up to the eigen-planar cells
    plane_fits: dict[str, int] = field(
        default_factory=lambda: {"eigenplane": 0, "ransac": 0, "failed": 0}
    )
    # wall milliseconds per stage of the phase: grid build (with the
    # inherited cells and the merge), eigen classification and plane fits
    # (with the tentative gating) of the cells not inherited, centroid
    # index, expansion; they add up to at most runtime_ms
    stages_ms: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    runtime_ms: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SegmentationStats:
    n_points: int = 0
    n_nonfinite: int = 0  # input rows with a NaN or infinite coordinate, left non-ground
    n_synthetic: int = 0
    phase1: PhaseStats = field(default_factory=PhaseStats)
    phase2: PhaseStats = field(default_factory=PhaseStats)
    runtime_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "n_nonfinite": self.n_nonfinite,
            "n_synthetic": self.n_synthetic,
            "phase1": self.phase1.as_dict(),
            "phase2": self.phase2.as_dict(),
            "runtime_ms": self.runtime_ms,
        }


@dataclass
class SegmentationResult:
    """Per-point ground mask aligned with the input cloud, plus run stats."""

    mask: np.ndarray
    stats: SegmentationStats


@dataclass
class PhaseResult:
    ground_ids: np.ndarray
    nonground_ids: np.ndarray
    ground_cell_point_ids: np.ndarray
    stats: PhaseStats
    # the phase's grid after expansion, its point ids as positions in
    # ``ids`` and its geometry, for the next phase to inherit cells from;
    # the next phase drops ``grid`` once merged
    grid: VoxelGrid | None = None
    ids: np.ndarray | None = None
    geometry: GeometryParams | None = None


def classify_cells(
    grid: VoxelGrid,
    geometry: GeometryParams,
    phase: int,
    global_seed: int,
    stats: PhaseStats | None = None,
) -> None:
    """Eigen-classify every cell and gate it into a tentative ground state.

    Covariances, eigen decompositions and RANSAC plane fits are batched
    across cells, with every per-cell sum taken in canonical within-cell
    order, so the result is independent of input point order.  A planar
    cell's first plane candidate is its eigenplane (through
    ``grid.centroids``, normal to the smallest eigenvector); its sampled
    candidates come from a RANSAC stream keyed by the global seed, phase,
    and cell index, so runs are reproducible and independent of which other
    cells exist.  Cells too small for a covariance rank test are
    non-planar, hence non-ground candidates; so are planar cells whose fit
    fails.  ``grid.sampled`` records which plane fits drew sampled
    candidates.  With ``stats``, the time of the eigen step (covariance,
    eigen decomposition, kinds) and of the plane-fit step lands in its
    ``stages_ms``.
    """
    k = len(grid.cells)
    t0 = time.perf_counter()
    counts = grid.counts
    pts = grid.points

    eligible = counts >= MIN_POINTS_FOR_EIGEN
    lam = np.zeros((k, 3))
    vec = np.zeros((k, 3, 3))
    if eligible.any():
        # every cell's covariance costs less than gathering the points of
        # the eligible ones, which hold nearly all points
        C = segment_covariance(pts, counts, grid.centroids)
        lam[eligible], vec[eligible] = sorted_eigen(np.compress(eligible, C, axis=0))
    kinds = eigen_kinds(lam, geometry)
    t1 = time.perf_counter()
    line = kinds == CellKind.LINE
    is_planar = kinds == CellKind.PLANAR
    planar = np.flatnonzero(is_planar)
    in_planar = np.repeat(is_planar, counts)
    fit = ransac_cells(
        np.compress(in_planar, pts, axis=0),
        counts[planar],
        cell_keys(global_seed, phase, np.take(grid.cells, planar, axis=0)),
        np.take(grid.centroids, planar, axis=0),
        eigenplane_normals(np.take(lam, planar, axis=0), np.take(vec, planar, axis=0)),
        geometry.inlier_threshold,
        geometry.ransac_iterations,
    )
    kinds[planar[~fit.fitted]] = CellKind.NON_PLANAR

    tentative = np.zeros(k, dtype=bool)
    tentative[line] = line_tentative(
        np.compress(line, vec[:, :, 0], axis=0), geometry.slope_threshold_deg
    )
    tentative[planar] = fit.fitted & plane_tentative(fit.slopes, geometry.slope_threshold_deg)
    obstacle = line & ~tentative
    grid.kind[:] = kinds
    grid.state[:] = np.select(
        [tentative, obstacle], [GroundState.TENTATIVE, GroundState.OBSTACLE], GroundState.NON_GROUND
    )
    grid.normals[:] = np.nan
    grid.plane_offsets[:] = np.nan
    grid.slopes[:] = np.nan
    grid.normals[planar] = fit.normals
    grid.plane_offsets[planar] = fit.offsets
    grid.slopes[planar] = fit.slopes
    grid.sampled[:] = False
    grid.sampled[planar] = fit.sampled
    grid.inliers[:] = False
    grid.inliers[in_planar] = fit.inliers

    if stats is not None:
        stats.stages_ms["eigen"] = (t1 - t0) * 1000.0
        stats.stages_ms["plane_fit"] = (time.perf_counter() - t1) * 1000.0


def _count_cells(grid: VoxelGrid, stats: PhaseStats) -> None:
    """Cell counts of a classified grid, before expansion."""
    fitted = grid.fitted
    stats.n_cells = len(grid.cells)
    stats.cells_line = int(np.count_nonzero(grid.kind == CellKind.LINE))
    stats.cells_planar = int(fitted.sum())
    stats.cells_non_planar = stats.n_cells - stats.cells_line - stats.cells_planar
    stats.cells_tentative = int(np.count_nonzero(grid.state == GroundState.TENTATIVE))
    stats.cells_obstacle = int(np.count_nonzero(grid.state == GroundState.OBSTACLE))
    # an eigen-planar cell holds 3 or more points, so a failed fit drew samples
    stats.plane_fits = {
        "eigenplane": int((fitted & ~grid.sampled).sum()),
        "ransac": int((fitted & grid.sampled).sum()),
        "failed": int((grid.sampled & ~fitted).sum()),
    }


def _inheritable(
    parent: PhaseResult | None, cfg: PhaseConfig, ids: np.ndarray, n_all: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of the previous phase's grid that this phase's grid holds unchanged.

    A parent cell qualifies when the parent routed it ground (it was a
    fitted, tentative cell), all its points are in ``ids``, they fall in
    one slab of this phase's cell height that no other parent cell of the
    column reaches with a point in ``ids``, and its plane fit finished on
    the eigenplane (sampled candidates are keyed by phase).  Its points
    then form exactly one cell here, in the same canonical order, since
    both id arrays ascend.  Only grids of the same footprint and geometry
    qualify.  Returns the parent rows, their cell indices in this phase,
    and parallel to the parent's ``order`` each point's position in ``ids``
    (-1 when absent).
    """
    none = np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64), np.empty(0, np.int64)
    grid = None if parent is None else parent.grid
    if (
        grid is None
        or parent.geometry != cfg.geometry
        or (grid.cellsize.sx, grid.cellsize.sy) != (cfg.cellsize.sx, cfg.cellsize.sy)
        or not (grid.state == GroundState.GROUND).any()
    ):
        return none
    local = np.full(n_all, -1, dtype=np.int64)
    local[ids] = np.arange(len(ids))
    pos = np.take(local, np.take(parent.ids, grid.order))
    here = pos >= 0
    # the slab of every parent point, as build_grid bins it; per cell the
    # lowest and highest slab of its points in this phase
    slab = np.floor(grid.points[:, 2] / cfg.cellsize.sz)
    starts = grid.offsets[:-1]
    lo = np.minimum.reduceat(np.where(here, slab, np.inf), starts)
    hi = np.maximum.reduceat(np.where(here, slab, -np.inf), starts)
    # up a column both cell and slab ascend with z, so a cell can share a
    # slab only with the nearest cells below and above that have points here
    held = np.flatnonzero(lo <= hi)
    column = np.take(grid.cells[:, :2], held, axis=0)
    touch = (column[1:] == column[:-1]).all(axis=1) & (hi[held[:-1]] >= lo[held[1:]])
    shared = np.zeros(len(grid.cells), dtype=bool)
    shared[held[:-1][touch]] = shared[held[1:][touch]] = True
    rows = np.flatnonzero(
        (grid.state == GroundState.GROUND)
        & ~grid.sampled
        & (lo == hi)
        & ~shared
        & (np.add.reduceat(here, starts, dtype=np.int64) == grid.counts)
    )
    cells = np.take(grid.cells, rows, axis=0)
    cells[:, 2] = np.take(lo, rows)
    return rows, cells, pos


def run_phase(
    ids: np.ndarray,
    all_points: np.ndarray,
    cfg: PhaseConfig,
    phase: int,
    global_seed: int,
    seed_info: SyntheticSeedInfo,
    log: ExpansionLog | None = None,
    parent: PhaseResult | None = None,
) -> PhaseResult:
    """Run grid build, classification, and expansion on a subset of points.

    ``ids`` index into ``all_points``; the returned id sets are global,
    disjoint, and together cover the subset.

    ``parent`` is the previous phase's result; both phases take ascending
    ids, as ``segment`` passes them.  The phase then takes over the parent
    cells it would rebuild unchanged (``_inheritable``), with their state
    reset to tentative.  It grids and classifies only its other points,
    in ascending id order so exact duplicates tie as in a fresh grid, and
    merges both parts into one canonical grid (``merge_grids``).  That
    grid equals ``build_grid`` plus ``classify_cells`` on all the phase's
    points, to the bit.  The parent's grid is dropped once merged.
    """
    t0 = time.perf_counter()
    stats = PhaseStats(n_points=len(ids))
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) == 0:
        return PhaseResult(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), stats
        )

    t = time.perf_counter()
    rows, cells, pos = _inheritable(parent, cfg, ids, len(all_points))
    fresh_ids = ids
    if len(rows):
        inherited = np.repeat(id_mask(rows, len(parent.grid.cells)), parent.grid.counts)
        taken = id_mask(np.compress(inherited, pos), len(ids))
        others = np.flatnonzero(~taken)  # positions in ids of the points not inherited
        fresh_ids = np.take(ids, others)
    grid = build_grid(np.take(all_points, fresh_ids, axis=0), cfg.cellsize)
    grid_ms = (time.perf_counter() - t) * 1000.0
    classify_cells(grid, cfg.geometry, phase, global_seed, stats)
    t = time.perf_counter()
    if len(rows):
        fresh = (grid, np.arange(len(grid.cells)), grid.cells, np.take(others, grid.order))
        grid = merge_grids(cfg.cellsize, [(parent.grid, rows, cells, pos), fresh])
        # inherited cells were routed ground, fresh ones are not yet
        grid.state[grid.state == GroundState.GROUND] = GroundState.TENTATIVE
    if parent is not None:
        parent.grid = None
    stats.stages_ms["grid"] = grid_ms + (time.perf_counter() - t) * 1000.0
    stats.cells_inherited = len(rows)
    _count_cells(grid, stats)

    seed = select_seed(grid, seed_info)
    stats.seed_ok = bool(grid.state[grid.find(seed)] == GroundState.TENTATIVE)
    ground_local = np.empty(0, dtype=np.int64)
    if stats.seed_ok:
        t = time.perf_counter()
        index = build_centroid_index(grid, np.flatnonzero(grid.state == GroundState.TENTATIVE))
        t1 = time.perf_counter()
        expansion = replace(cfg.expansion, phase=phase)
        ground_local, _ = expand(
            grid, index, seed, cfg.geometry, expansion, log=log, route_counts=stats.routes
        )
        stats.stages_ms["index"] = (t1 - t) * 1000.0
        stats.stages_ms["expand"] = (time.perf_counter() - t1) * 1000.0
        stats.cells_expanded = sum(stats.routes.values())
    routed_ground = grid.state == GroundState.GROUND
    stats.cells_routed_ground = int(routed_ground.sum())
    cell_local = grid.order[np.repeat(routed_ground, grid.counts)]

    # id sets as boolean masks over the global ids: sorted and disjoint by construction
    ground = id_mask(ids[ground_local], len(all_points))
    rest = id_mask(ids, len(all_points)) & ~ground
    fwd = id_mask(ids[cell_local], len(all_points))

    stats.points_ground = int(ground.sum())
    stats.points_non_ground = int(rest.sum())
    stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return PhaseResult(
        np.flatnonzero(ground),
        np.flatnonzero(rest),
        np.flatnonzero(fwd),
        stats,
        grid,
        ids,
        cfg.geometry,
    )


def segment(
    cloud: PointCloud,
    cfg: PipelineConfig | None = None,
    log1: ExpansionLog | None = None,
    log2: ExpansionLog | None = None,
) -> SegmentationResult:
    """Segment a cloud into ground / non-ground points.

    Deterministic for a fixed configuration (including the global seed), and
    equivariant under permutations of the input point order.  Rows with a
    non-finite coordinate are left out, as ``read_kitti_bin`` does, and
    get False in the mask.
    """
    if cfg is None:
        cfg = make_default_config()
    t0 = time.perf_counter()
    n = len(cloud)
    stats = SegmentationStats(n_points=n)
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return SegmentationResult(mask=mask, stats=stats)
    finite = np.isfinite(cloud.points).all(axis=1)
    stats.n_nonfinite = int(n - finite.sum())
    if stats.n_nonfinite == n:
        return SegmentationResult(mask=mask, stats=stats)
    if stats.n_nonfinite:
        cloud = PointCloud(points=np.compress(finite, cloud.points, axis=0))

    seeded, seed_info = inject_synthetic_seed(
        cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
    )
    stats.n_synthetic = seed_info.count
    pts = seeded.points
    all_ids = np.arange(len(pts), dtype=np.int64)

    r1 = run_phase(all_ids, pts, cfg.phase1, 1, cfg.global_seed, seed_info, log=log1)
    stats.phase1 = r1.stats

    # Phase II sees every point of a Phase-I ground cell (inliers and
    # outliers) so over-segmentation can be corrected; the synthetic lattice
    # is always carried along so the fine grid keeps its seed cell.
    p2 = id_mask(r1.ground_cell_point_ids, len(pts))
    p2[len(cloud) :] = True
    p2_ids = np.flatnonzero(p2)
    r2 = run_phase(p2_ids, pts, cfg.phase2, 2, cfg.global_seed, seed_info, log=log2, parent=r1)
    stats.phase2 = r2.stats

    mask_full = np.zeros(len(pts), dtype=bool)
    mask_full[r2.ground_ids] = True
    mask[finite] = strip_synthetic(mask_full, seed_info)
    stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return SegmentationResult(mask=mask, stats=stats)
