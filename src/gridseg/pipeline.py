"""Dual-phase segmentation pipeline.

Phase I bins the full scan into tall cells so vertical structures are caught
early; Phase II re-bins the points of cells Phase I routed to ground
(inliers and outliers alike) at a much finer cell height and repeats the
classification and expansion with the additional per-neighbor height gate.
Both phases name a point by its row in the seeded cloud (the scan with the
synthetic seed lattice appended), so the final mask is Phase II's ground
mask (``ground_mask``) with the lattice stripped.  Neither phase builds a
per-point ground array of its own: expansion counts its ground points
per cell, and Phase II's ground cells are scattered into the output mask
once.

Phase II inherits what Phase I already computed.  Both phases share the
cell footprint, so Phase II re-bins Phase I's grid (``voxel_grid.rebin``)
by one flag per Phase-I point rather than building its own: most Phase-I
cells become one fine cell each, with the same points in the same
canonical order, and only the points of cells spread over several fine
slabs or sharing one are re-sorted.  A fine cell equal to a Phase-I ground
cell has the same centroid, kind, plane and inliers to the bit, as a plane
fit depends only on the cell's points, so Phase II copies them and
classifies only the other cells.
The grid equals one built and classified from scratch.

Phase II inherits Phase I's neighbor pairs too.  A cell it takes over
from a Phase-I ground cell was a tentative cell of Phase I's centroid
index with the same centroid to the bit, so Phase I's radius test already
decided each pair of two such cells; Phase II's index remaps those pairs
and searches only the pairs with a cell of its own
(``build_centroid_index``).  The pairs equal a search of every cell.
"""

from __future__ import annotations

import ctypes
import functools
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .cell_geometry import (
    MIN_POINTS_FOR_EIGEN,
    GeometryParams,
    centre_segments,
    centred_covariance,
    eigen_kinds,
    eigenplane_fits,
    line_tentative,
    plane_tentative,
    sorted_eigen,
)

# Not called here any more; the benchmark's layer tracer (perfbench/layertrace.py)
# still hooks the name gridseg.pipeline.ransac_plane, and its tests expect every
# hook target to resolve.
from .cell_geometry import ransac_plane  # noqa: F401
from .cloud_io import PointCloud, SyntheticSeedInfo, inject_synthetic_seed, strip_synthetic
from .errors import ConfigError, check_fields
from .region_expansion import (
    REASONS,
    CentroidIndex,
    ExpansionLog,
    ExpansionParams,
    build_centroid_index,
    expand,
    ground_mask,
    id_mask,
    select_seed,
)
from .voxel_grid import CellKind, CellSize, GroundState, VoxelGrid, build_grid, rebin


@dataclass(frozen=True)
class PhaseConfig:
    cellsize: CellSize
    geometry: GeometryParams
    expansion: ExpansionParams


@dataclass(frozen=True)
class PipelineConfig:
    """One rule set for both phases, which differ only in their cell height
    and their number; ``phase1`` and ``phase2`` are read-only views of it,
    one per phase."""

    geometry: GeometryParams = field(default_factory=GeometryParams)
    expansion: ExpansionParams = field(default_factory=ExpansionParams)
    cell_sx: float = 1.5
    cell_sy: float = 1.0
    cell_sz1: float = 1.5  # Phase I cell height
    cell_sz2: float = 0.2  # Phase II cell height
    dist_to_ground: float = 1.723
    robot_radius: float = 2.7
    seed_spacing: float = 0.3

    def __post_init__(self):
        check_fields(self)
        if min(self.cell_sx, self.cell_sy, self.cell_sz2) <= 0:
            raise ConfigError("cell sizes must be positive")
        if self.cell_sz1 <= self.cell_sz2:
            raise ConfigError("Phase I cell height must exceed Phase II cell height")
        if self.dist_to_ground <= 0 or self.robot_radius < 0 or self.seed_spacing <= 0:
            raise ConfigError("invalid robot geometry parameters")

    @property
    def phase1(self) -> PhaseConfig:
        return self._phase(self.cell_sz1)

    @property
    def phase2(self) -> PhaseConfig:
        return self._phase(self.cell_sz2)

    def _phase(self, sz: float) -> PhaseConfig:
        return PhaseConfig(CellSize(self.cell_sx, self.cell_sy, sz), self.geometry, self.expansion)


def make_default_config() -> PipelineConfig:
    """The built-in defaults, as listed in the README's Configuration."""
    return PipelineConfig()


STAGES = ("grid", "eigen", "plane_fit", "index", "expand")


@dataclass
class PhaseStats:
    n_points: int = 0
    n_cells: int = 0
    # cells taken over unchanged from the previous phase's grid (always 0
    # in Phase I); they are counted in n_cells and the counts below
    cells_inherited: int = 0
    # pairs of tentative cells within the search radius, and how many of
    # them were taken from the previous phase's pairs (always 0 in Phase I)
    pairs: int = 0
    pairs_inherited: int = 0
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
    # eigen-planar cells by how their plane fit ended: with the eigenplane,
    # or without a plane (the cell is then non-planar); they add up to the
    # eigen-planar cells
    plane_fits: dict[str, int] = field(default_factory=lambda: {"eigenplane": 0, "failed": 0})
    # wall milliseconds per stage of the phase: grid build (in Phase II
    # the re-bin and the copy of the inherited cells), eigen classification
    # and plane fits (with the tentative gating) of the cells not
    # inherited, centroid index and pair search, expansion; they add up to
    # at most runtime_ms
    stages_ms: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    runtime_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SegmentationStats:
    n_points: int = 0
    n_nonfinite: int = 0  # input rows with a NaN, infinite or unbinnable coordinate
    n_synthetic: int = 0
    phase1: PhaseStats = field(default_factory=PhaseStats)
    phase2: PhaseStats = field(default_factory=PhaseStats)
    runtime_ms: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SegmentationResult:
    """Per-point ground mask aligned with the input cloud, plus run stats."""

    mask: np.ndarray
    stats: SegmentationStats


@dataclass
class PhaseResult:
    """The phase's stats, its grid after expansion (None for a phase without
    points), whose GROUND cells' inliers are the phase's ground points
    (``ground_mask``), and its centroid index with its pairs (None when the
    seed cell was not tentative), for Phase II to re-bin and inherit cells
    and pairs from; Phase II drops ``grid`` once re-binned and ``index``
    once its own index is built."""

    stats: PhaseStats
    grid: VoxelGrid | None = None
    index: CentroidIndex | None = None


def classify_cells(
    grid: VoxelGrid,
    geometry: GeometryParams,
    stats: PhaseStats | None = None,
) -> None:
    """Eigen-classify every ``UNCLASSIFIED`` cell and gate it into a tentative ground state.

    Covariances, eigen decompositions and plane fits are batched across
    cells, with every per-cell sum taken in canonical within-cell order, so
    the result is independent of input point order.  A planar cell's plane
    is its eigenplane (through ``grid.centroids``, normal to the smallest
    eigenvector; ``eigenplane_fits``), a function of the cell's points alone,
    so it does not depend on the phase or on which other cells exist.
    Cells too small for a covariance rank test are non-planar, hence
    non-ground candidates; so are planar cells whose fit fails.  Cells of
    another kind (Phase II's inherited ones) are left as they are, and the
    others classified from one compress of their points.  With ``stats``,
    the time of the eigen step (gather, covariance, eigen decomposition,
    kinds) and of the plane-fit step lands in its ``stages_ms``, and the
    count of failed fits in its ``plane_fits``.
    """
    t0 = time.perf_counter()
    counts, points, centroids = grid.counts, grid.points, grid.centroids
    todo = grid.kind == CellKind.UNCLASSIFIED
    rows = at = slice(None)  # the classified cells and their points
    if not todo.all():
        rows = np.flatnonzero(todo)
        at = np.repeat(todo, counts)
        points = np.compress(at, points, axis=0)
        counts, centroids = (np.take(a, rows, axis=0) for a in (counts, centroids))
    m = len(counts)

    eligible = counts >= MIN_POINTS_FOR_EIGEN
    lam = np.zeros((m, 3))
    vec = np.zeros((m, 3, 3))
    # every point less its cell's centroid, for the covariances and the plane fits
    centred = centre_segments(points, centroids, counts)
    # every cell's covariance costs less than gathering the points of the
    # eligible ones, which hold nearly all points
    C = centred_covariance(centred, counts)
    lam[eligible], vec[eligible] = sorted_eigen(np.compress(eligible, C, axis=0))
    kinds = eigen_kinds(lam, geometry)
    t1 = time.perf_counter()
    line = kinds == CellKind.LINE
    planar = kinds == CellKind.PLANAR
    # every cell goes to the fit, as gathering the planar cells' points costs
    # more than scoring the others; only the planar ones are fitted
    slopes, inliers = eigenplane_fits(centred, counts, lam, vec, planar, geometry.inlier_threshold)
    fitted = ~np.isnan(slopes)
    kinds[planar & ~fitted] = CellKind.NON_PLANAR

    # a NaN slope (no fit) is not tentative
    tentative = plane_tentative(slopes, geometry.slope_threshold_deg)
    tentative[line] = line_tentative(
        np.compress(line, vec[:, :, 0], axis=0), geometry.slope_threshold_deg
    )
    obstacle = line & ~tentative
    grid.kind[rows] = kinds
    grid.state[rows] = np.select(
        [tentative, obstacle], [GroundState.TENTATIVE, GroundState.OBSTACLE], GroundState.NON_GROUND
    )
    grid.slopes[rows] = slopes
    grid.inliers[at] = inliers

    if stats is not None:
        stats.plane_fits["failed"] = int(np.count_nonzero(planar) - fitted.sum())
        stats.stages_ms["eigen"] = (t1 - t0) * 1000.0
        stats.stages_ms["plane_fit"] = (time.perf_counter() - t1) * 1000.0


def _count_cells(grid: VoxelGrid, stats: PhaseStats) -> None:
    """Cell counts of a classified grid, before expansion."""
    stats.n_cells = len(grid.cells)
    stats.cells_line = int(np.count_nonzero(grid.kind == CellKind.LINE))
    stats.cells_planar = int(grid.fitted.sum())
    stats.cells_non_planar = stats.n_cells - stats.cells_line - stats.cells_planar
    stats.cells_tentative = int(np.count_nonzero(grid.state == GroundState.TENTATIVE))
    stats.cells_obstacle = int(np.count_nonzero(grid.state == GroundState.OBSTACLE))
    stats.plane_fits["eigenplane"] = stats.cells_planar


def _phase_grid(
    points: np.ndarray,
    cellsize: CellSize,
    seed_info: SyntheticSeedInfo,
    parent: PhaseResult | None,
) -> tuple[VoxelGrid, np.ndarray | None]:
    """``run_phase``'s grid, and with a parent, per cell the parent's row
    holding exactly its points, or -1 (``rebin``).  With a parent, whose
    grid it drops, every cell holding exactly the points of a parent
    ground cell inherits that cell's classification, and the others are
    left unclassified."""
    if parent is None:
        return build_grid(points, cellsize), None
    pgrid, parent.grid = parent.grid, None
    # every point of a Phase-I ground cell, and the synthetic lattice
    kept = np.repeat(pgrid.state == GroundState.GROUND, pgrid.counts)
    kept |= pgrid.order >= len(points) - seed_info.count
    grid, rows = rebin(pgrid, kept, cellsize)
    # a cell equal to a parent ground cell classifies the same, as a plane
    # fit depends only on the cell's points
    inherited = (rows >= 0) & (np.take(pgrid.state, rows) == GroundState.GROUND)
    taken = np.compress(inherited, rows)
    grid.kind[inherited] = np.take(pgrid.kind, taken)
    grid.state[inherited] = GroundState.TENTATIVE  # routed ground there, not yet here
    grid.slopes[inherited] = np.take(pgrid.slopes, taken)
    in_taken = np.repeat(id_mask(taken, len(pgrid.cells)), pgrid.counts)
    grid.inliers[np.repeat(inherited, grid.counts)] = np.compress(in_taken, pgrid.inliers)
    return grid, rows


def run_phase(
    points: np.ndarray,
    cfg: PipelineConfig,
    seed_info: SyntheticSeedInfo,
    log: ExpansionLog | None = None,
    parent: PhaseResult | None = None,
) -> PhaseResult:
    """Run grid build, classification and expansion of one phase on the
    seeded cloud ``points``, whose last ``seed_info.count`` rows are the
    synthetic seed lattice.

    Without ``parent`` this is Phase I, on every point.  With ``parent``,
    Phase I's result on the same points and configuration, it is Phase II,
    on every point of Phase I's ground cells (inliers and outliers) and
    the lattice: Phase I's grid is re-binned (``rebin``), not rebuilt, and
    dropped.  Each cell equal to a Phase-I ground cell takes over its kind,
    slope and inliers, in state tentative; ``classify_cells`` classifies the other cells.  The
    grid equals ``build_grid`` plus ``classify_cells`` on the phase's
    points, to the bit.  The centroid index of the tentative cells finds
    their pairs within the search radius (timed as ``index``), in Phase II
    from Phase I's pairs between cells it holds unchanged plus a search of
    the others, and drops Phase I's index.

    The phase's ground points are the inliers of the result grid's GROUND
    cells, rows of ``points`` that ``ground_mask`` flags; every other point
    of the phase is non-ground.  Only their number is taken here, from
    ``expand``, into ``stats.points_ground``.
    """
    t0 = time.perf_counter()
    phase, pcfg = (1, cfg.phase1) if parent is None else (2, cfg.phase2)
    stats = PhaseStats()
    if len(points) == 0:
        return PhaseResult(stats)

    t = time.perf_counter()
    grid, parent_rows = _phase_grid(points, pcfg.cellsize, seed_info, parent)
    stats.stages_ms["grid"] = (time.perf_counter() - t) * 1000.0
    stats.n_points = len(grid.order)
    stats.cells_inherited = int(np.count_nonzero(grid.kind != CellKind.UNCLASSIFIED))
    classify_cells(grid, cfg.geometry, stats)
    _count_cells(grid, stats)

    seed = select_seed(grid, seed_info)
    stats.seed_ok = bool(grid.state[grid.find(seed)] == GroundState.TENTATIVE)
    ground = 0
    index = None
    if stats.seed_ok:
        t = time.perf_counter()
        index = build_centroid_index(
            grid,
            np.flatnonzero(grid.state == GroundState.TENTATIVE),
            cfg.expansion.search_radius,
            parent and parent.index,
            parent_rows,
        )
        if parent is not None:
            parent.index = None  # its pairs are spent
        stats.pairs, stats.pairs_inherited = len(index.found[1]), index.inherited
        t1 = time.perf_counter()
        ground = expand(
            grid, index, seed, cfg.geometry, cfg.expansion, phase,
            log=log, route_counts=stats.routes,
        )
        stats.stages_ms["index"] = (t1 - t) * 1000.0
        stats.stages_ms["expand"] = (time.perf_counter() - t1) * 1000.0
        stats.cells_expanded = sum(stats.routes.values())
    stats.cells_routed_ground = int(np.count_nonzero(grid.state == GroundState.GROUND))
    stats.points_ground = ground
    stats.points_non_ground = stats.n_points - ground
    stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return PhaseResult(stats, grid, index)


# glibc's mallopt parameter codes (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_heap() -> None:
    """Keep freed scan temporaries in the heap for the next scan.

    glibc maps an allocation above its mmap threshold afresh and returns
    the heap's free top to the system above its trim threshold.  Both start
    low (128 KiB) and rise only when a mapped block is freed, so a scan's
    arrays were mapped, page-faulted in and unmapped again scan after scan,
    hundreds to thousands of faults per call depending on the process's
    allocation history.  Fixed at 32 MiB and 64 MiB, where glibc's own rule
    ends after freeing one 32 MiB mapping, the temporaries stay in the heap;
    arrays above 32 MiB (clouds above about 1.4M points) are still mapped,
    as under glibc's own cap.  Both are set, as setting either stops glibc's
    adjustment of both.  Called on the first ``segment``, not at import, so
    a process that never segments keeps glibc's defaults; nothing happens
    where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def segment(
    cloud: PointCloud,
    cfg: PipelineConfig | None = None,
    log1: ExpansionLog | None = None,
    log2: ExpansionLog | None = None,
) -> SegmentationResult:
    """Segment a cloud into ground / non-ground points.

    Deterministic for a fixed configuration, which holds no random seed, and
    equivariant under permutations of the input point order.  The mask has
    one entry per input row.  Rows with a NaN or infinite coordinate, or
    one too large to bin (2**62 cells of the smallest size away or more),
    are left out of both phases, get False in the mask and are counted in
    ``stats.n_nonfinite``; this is the one place such rows are handled.
    The first call in a process sets the C library's heap thresholds (see
    ``_keep_heap``).  The mask is Phase II's ground mask over the seeded
    cloud, written once, with the lattice cut off; when every row was
    binnable it is that mask's head.
    """
    _keep_heap()
    cfg = cfg or make_default_config()
    t0 = time.perf_counter()
    n = len(cloud)
    stats = SegmentationStats(n_points=n)
    limit = 2.0**62 * min(cfg.cell_sx, cfg.cell_sy, cfg.cell_sz2)
    points = np.asarray(cloud.points)
    finite = None  # per row whether it is binnable, built only when some row is not
    # a row is binnable when every coordinate has |x| < limit; the cloud's
    # extremes prove it for every row at once (NaN fails both compares)
    if n == 0 or not (-limit < points.min() and points.max() < limit):
        # False at NaN too; and-ing the three columns is far cheaper than all(axis=1)
        binnable = np.abs(points) < limit
        finite = binnable[:, 0] & binnable[:, 1] & binnable[:, 2]
        stats.n_nonfinite = int(n - finite.sum())
        if stats.n_nonfinite == n:
            return SegmentationResult(mask=np.zeros(n, dtype=bool), stats=stats)
        cloud = PointCloud(points=np.compress(finite, points, axis=0))

    seeded, seed_info = inject_synthetic_seed(
        cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
    )
    stats.n_synthetic = seed_info.count
    r1 = run_phase(seeded.points, cfg, seed_info, log=log1)
    r2 = run_phase(seeded.points, cfg, seed_info, log=log2, parent=r1)
    stats.phase1, stats.phase2 = r1.stats, r2.stats
    ground = strip_synthetic(ground_mask(r2.grid, len(seeded.points)), seed_info)
    if finite is None:
        mask = ground
    else:
        mask = np.zeros(n, dtype=bool)
        mask[finite] = ground
    stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return SegmentationResult(mask=mask, stats=stats)
