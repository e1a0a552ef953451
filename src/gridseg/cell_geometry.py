"""Per-cell geometric characterization.

Each occupied cell is classified from the eigen structure of its point
covariance (line / planar / non-planar), planar cells get a RANSAC plane fit
whose slope against the horizontal gates them as tentative ground, and point
subsets get a bounding-box sparsity class used later to flag ambiguous cells.

Classification, line gating and plane fitting run on all cells of a phase at
once; the one-cell functions (``covariance``, ``eigen_classify``,
``classify_line_cell``, ``ransac_plane``, ``make_plane``, ``bbox_sparsity``)
wrap the batched ones, so each rule is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, ContractViolationError, FitFailureError
from .voxel_grid import CellKind, GroundState

_DEGENERATE_CROSS = 1e-12


class Sparsity(IntEnum):
    LOW = 0
    MEDIUM = 1
    HIGH = 2


@dataclass(frozen=True)
class EigenSummary:
    """Sorted eigen decomposition of a cell covariance.

    ``eigenvalues`` are descending and clamped at zero; ``eigenvectors``
    holds unit vectors as columns, matching the eigenvalue order.  ``ratio``
    is the dominant-eigenvalue share, NaN for a degenerate zero matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ratio: float

    @property
    def e1(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    @property
    def e2(self) -> np.ndarray:
        return self.eigenvectors[:, 1]

    @property
    def e3(self) -> np.ndarray:
        return self.eigenvectors[:, 2]


@dataclass(frozen=True)
class PlaneModel:
    """Plane n . p + offset = 0 with the normal oriented so normal[2] >= 0.

    ``slope_deg`` is the angle between the normal and the vertical axis,
    i.e. the surface inclination from horizontal, in [0, 90].
    """

    normal: np.ndarray
    offset: float
    slope_deg: float


def make_planes(normals: np.ndarray, offsets: np.ndarray):
    """Normalize, orient (z >= 0), and annotate planes row by row.

    Returns (unit normals, offsets, slopes in degrees) of the planes
    ``normals[i] . p + offsets[i] = 0``.
    """
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    norm = np.sqrt(np.einsum("ij,ij->i", n, n))
    if np.any(norm < _DEGENERATE_CROSS):
        raise ContractViolationError("degenerate plane normal")
    n = n / norm[:, None]
    offsets = np.asarray(offsets, dtype=np.float64) / norm
    down = n[:, 2] < 0
    n[down] = -n[down]
    offsets = np.where(down, -offsets, offsets)
    slopes = np.degrees(np.arccos(np.clip(n[:, 2], -1.0, 1.0)))
    return n, offsets, slopes


def make_plane(normal: np.ndarray, offset: float) -> PlaneModel:
    """Normalize, orient (z >= 0), and annotate a plane with its slope."""
    n, offsets, slopes = make_planes(normal, [offset])
    return PlaneModel(normal=n[0], offset=float(offsets[0]), slope_deg=float(slopes[0]))


@dataclass(frozen=True)
class GeometryParams:
    """Thresholds for per-cell classification and plane fitting."""

    line_ratio_min: float = 0.9
    line_cross_ratio_max: float = 8.0
    planar_flatness_max: float = 0.05
    slope_threshold_deg: float = 30.0
    inlier_threshold: float = 0.125
    ransac_iterations: int = 50
    min_points_for_eigen: int = 3
    sparsity_low_max: float = 0.01
    sparsity_medium_max: float = 0.1

    def __post_init__(self):
        if self.line_ratio_min <= 2.0 / 3.0:
            raise ConfigError("line_ratio_min must exceed 2/3 so Line and Planar stay exclusive")
        if self.line_cross_ratio_max < 1.0:
            raise ConfigError("line_cross_ratio_max must be >= 1")
        for name in (
            "planar_flatness_max",
            "slope_threshold_deg",
            "inlier_threshold",
            "ransac_iterations",
            "min_points_for_eigen",
            "sparsity_low_max",
            "sparsity_medium_max",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.sparsity_medium_max < self.sparsity_low_max:
            raise ConfigError("sparsity_medium_max must be >= sparsity_low_max")


def segment_covariance(points: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Population covariance (divisor N) of consecutive point segments.

    ``points`` holds the segments back to back, ``counts[i]`` points for
    segment i; the result is one 3x3 matrix per segment.  Two passes
    (center, then average outer products), with every sum taken in the
    given point order.
    """
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    means = np.add.reduceat(points, starts, axis=0) / counts[:, None]
    centered = points - np.repeat(means, counts, axis=0)
    prods = centered[:, [0, 0, 0, 1, 1, 2]] * centered[:, [0, 1, 2, 1, 2, 2]]
    m6 = np.add.reduceat(prods, starts, axis=0) / counts[:, None]
    return m6[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)


def covariance(points: np.ndarray) -> np.ndarray:
    """Population covariance (divisor N) of 3D coordinates."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise ContractViolationError("covariance of an empty point set")
    return segment_covariance(pts, np.array([len(pts)]))[0]


def sorted_eigen(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen decomposition of a stack of symmetric 3x3 matrices.

    Eigenvalues come out descending and clamped at zero against round-off;
    eigenvectors are unit columns in the same order.
    """
    w, v = np.linalg.eigh(C)
    return np.maximum(w[..., ::-1], 0.0), v[..., ::-1]


def eigen_kinds(w: np.ndarray, params: GeometryParams) -> np.ndarray:
    """Line / Planar / Non-Planar ``CellKind`` code per row of sorted eigenvalues.

    Line demands one dominant axis and no meaningful second one: the
    eigenvalue ratio must reach ``line_ratio_min`` and the residual
    cross-section must stay near-isotropic (lambda2 within
    ``line_cross_ratio_max`` times lambda3).  The second condition keeps
    thin-but-flat strips out of the Line class: a sloped surface sliced by
    short grid cells produces strips whose dominant-axis share is line-like
    even though they have a clear surface normal.  Otherwise the cell is
    Planar when the smallest share stays at or below
    ``planar_flatness_max``, else Non-Planar.  A zero row (single point, or
    coincident points) is Non-Planar.
    """
    total = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        share = w / total[:, None]
    spread = total > 0
    line = (
        spread
        & (share[:, 0] >= params.line_ratio_min)
        & (w[:, 1] <= params.line_cross_ratio_max * w[:, 2])
    )
    planar = spread & ~line & (share[:, 2] <= params.planar_flatness_max)
    return np.select([line, planar], [CellKind.LINE, CellKind.PLANAR], CellKind.NON_PLANAR)


def eigen_classify(C: np.ndarray, params: GeometryParams):
    """Classify one cell covariance as Line / Planar / Non-Planar (see ``eigen_kinds``)."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (3, 3) or float(np.abs(C - C.T).max()) > 1e-8:
        raise ContractViolationError("covariance must be a symmetric 3x3 matrix")
    w, v = sorted_eigen(C[None])
    total = float(w[0].sum())
    ratio = float(w[0, 0] / total) if total > 0.0 else float("nan")
    summary = EigenSummary(eigenvalues=w[0], eigenvectors=v[0], ratio=ratio)
    return summary, CellKind(eigen_kinds(w, params)[0])


def line_tentative(e1: np.ndarray, slope_threshold_deg: float) -> np.ndarray:
    """Whether each line direction (one per row) is a ground candidate.

    The angle is measured between the direction (sign-normalized to point
    upward) and the vertical axis; a line within the slope threshold of
    horizontal is tentative ground, anything steeper is an obstacle.
    """
    v = np.asarray(e1, dtype=np.float64).reshape(-1, 3)
    up = np.abs(v[:, 2]) / np.linalg.norm(v, axis=1)
    angle = np.degrees(np.arccos(np.minimum(up, 1.0)))
    return angle >= 90.0 - slope_threshold_deg


def classify_line_cell(e1: np.ndarray, slope_threshold_deg: float) -> GroundState:
    """Gate one line cell by its direction (see ``line_tentative``)."""
    if float(np.linalg.norm(e1)) < _DEGENERATE_CROSS:
        raise ContractViolationError("zero line direction")
    if line_tentative(e1, slope_threshold_deg)[0]:
        return GroundState.TENTATIVE
    return GroundState.OBSTACLE


# RANSAC candidates are drawn and scored per cell in blocks of this many after
# a first round of one, so the 99% early exit saves work on clean cells.
_BLOCK = 8
# Cells are fitted in runs of consecutive cells holding about this many
# points, which bounds the per-block scoring arrays (_BLOCK values per point)
# to a few MB.  A larger cell forms a run of its own.
_CHUNK_POINTS = 1 << 14


# Each cell's RANSAC draws come from the SplitMix64 stream (Steele, Lea &
# Flood, OOPSLA 2014) seeded with the cell's 64-bit key: draw p (0-based) is
# _mix64(key + (p + 1) * _GAMMA), a pure function of (key, p), so a round of
# draws for every cell is one array expression.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_KEY_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, elementwise over a uint64 array (in place)."""
    z ^= z >> np.uint64(30)
    z *= _MIX[0]
    z ^= z >> np.uint64(27)
    z *= _MIX[1]
    z ^= z >> np.uint64(31)
    return z


def splitmix_uniforms(keys: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Draw ``positions[i]`` of the SplitMix64 stream seeded with ``keys[i]``,
    as a double in [0, 1) from its top 53 bits (1-D arrays, broadcast)."""
    z = np.asarray(positions, dtype=np.uint64) + np.uint64(1)
    z *= _GAMMA
    z += np.asarray(keys, dtype=np.uint64)
    return (_mix64(z) >> np.uint64(11)) * 2.0**-53


def cell_keys(global_seed: int, phase: int, indices: np.ndarray) -> np.ndarray:
    """64-bit RANSAC stream keys from (global seed, phase, cell index), one
    per row of ``indices``.

    Each input is folded into the key with ``_mix64``: the key depends only
    on these values, never on scheduling or on which other cells exist, so
    per-cell fits are reproducible across runs, subsets, and point orders.
    """
    h = np.full(len(indices), _GAMMA)
    columns = [np.uint64(global_seed & _KEY_MASK), np.uint64(phase)]
    columns += [indices[:, k].astype(np.int64).view(np.uint64) for k in range(3)]
    for value in columns:
        h = _mix64(h ^ value)
    return h


@dataclass(frozen=True)
class CellPlanes:
    """RANSAC plane fits of consecutive point segments (cells).

    Row i of ``normals``, ``offsets`` and ``slopes`` is cell i's plane,
    normalized and oriented as by ``make_plane``; NaN where ``fitted[i]`` is
    False (fewer than 3 points, or every sampled triple collinear).
    ``inliers`` flags, per point in input order, whether it lies within the
    inlier threshold of its cell's plane.
    """

    normals: np.ndarray
    offsets: np.ndarray
    slopes: np.ndarray
    fitted: np.ndarray
    inliers: np.ndarray


def ransac_cells(
    points: np.ndarray,
    counts: np.ndarray,
    keys: np.ndarray,
    inlier_threshold: float,
    iterations: int,
) -> CellPlanes:
    """Seeded RANSAC plane fit of every cell, cell by cell as ``ransac_plane``.

    ``points`` holds the cells back to back, ``counts[i]`` points for cell
    i.  Cell i reads its own uniform stream in order: the SplitMix64 stream
    seeded with ``keys[i]`` (see ``splitmix_uniforms``).

    Each round draws, from each unfinished cell's stream, one uniform key
    per point for each of its candidates (as one (m, n) block: one
    candidate in the first round, up to 8 in later ones), takes
    the points of the 3 smallest keys as a candidate triple and scores the
    candidate planes by the count of points within ``inlier_threshold``.  A cell finishes after
    the first candidate reaching 99% inliers or after ``iterations``
    candidates; the best candidate seen up to then (the first of equal
    counts) wins.  Collinear triples score nothing, and a cell with no
    other candidate is not fitted.  The winner is refit by least squares on
    its inliers (smallest eigenvector of their covariance), and the refit
    is kept only when it does not lose inliers, so a cell's final count
    never falls below any sampled candidate's.  Deterministic for fixed
    (points, counts, keys, iterations, threshold).
    """
    if inlier_threshold <= 0 or iterations <= 0:
        raise ContractViolationError("inlier_threshold and iterations must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    counts = np.asarray(counts, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64)
    ends = np.cumsum(counts)
    if len(counts) and (counts.min() < 1 or ends[-1] != len(pts)):
        raise ContractViolationError("cell counts must be positive and cover the points")
    if len(keys) != len(counts):
        raise ContractViolationError("one stream key per cell")
    k = len(counts)
    normals = np.full((k, 3), np.nan)
    offsets = np.full(k, np.nan)
    fitted = np.zeros(k, dtype=bool)
    inliers = np.zeros(len(pts), dtype=bool)
    first = 0
    while first < k:
        lo = ends[first] - counts[first]
        last = max(first + 1, int(np.searchsorted(ends, lo + _CHUNK_POINTS, side="right")))
        cells, hi = slice(first, last), ends[last - 1]
        normals[cells], offsets[cells], fitted[cells], inliers[lo:hi] = _fit_run(
            pts[lo:hi], counts[cells], keys[cells], inlier_threshold, iterations
        )
        first = last
    slopes = np.full(k, np.nan)
    if fitted.any():
        normals[fitted], offsets[fitted], slopes[fitted] = make_planes(
            normals[fitted], offsets[fitted]
        )
    return CellPlanes(normals, offsets, slopes, fitted, inliers)


def _segment_sum(values: np.ndarray, segment: np.ndarray, k: int) -> np.ndarray:
    """Per-segment column sums, accumulated in row order as ``ndarray.sum(axis=0)``."""
    return np.column_stack(
        [np.bincount(segment, weights=values[:, j], minlength=k) for j in range(3)]
    )


def _plane_distance(q: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.abs(np.einsum("ij,ij->i", q, normals) + offsets)


def _three_smallest(keys: np.ndarray, lengths: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Positions of each row's three smallest keys, ascending; rows are the
    consecutive runs ``keys[starts[r]:starts[r] + lengths[r]]``.

    Equal to ``np.argpartition(row, 2)[:3]``, which selects a kth below 3 by
    repeated minimum search.  A tie within a row (a chance of about n^2 in
    2^53) resolves to the lower position.  Overwrites ``keys``.
    """
    out = np.empty((len(lengths), 3), dtype=np.int64)
    for t in range(3):
        low = np.minimum.reduceat(keys, starts)
        at = np.flatnonzero(keys == np.repeat(low, lengths))
        if len(at) > len(lengths):
            row = np.searchsorted(starts, at, side="right") - 1
            at = at[np.r_[True, row[1:] != row[:-1]]]
        out[:, t] = at - starts
        keys[at] = np.inf
    return out


def _fit_run(pts, counts, keys, threshold, iterations):
    """``ransac_cells`` on one run of cells; planes not yet normalized."""
    k = len(counts)
    cell = np.repeat(np.arange(k), counts)
    starts = np.cumsum(counts) - counts
    center = _segment_sum(pts, cell, k) / counts[:, None]
    q = pts - center[cell]

    best_count = np.full(k, -1)
    best_n = np.zeros((k, 3))
    best_off = np.zeros(k)
    active = np.flatnonzero(counts >= 3)
    done = 0
    while done < iterations and len(active):
        m = min(_BLOCK if done else 1, iterations - done)
        n = counts[active]
        lengths = np.repeat(n, m)
        row_start = np.cumsum(lengths) - lengths
        row_base = np.repeat(starts[active], m)
        # row r = (cell active[r // m], candidate r % m); its draws are the
        # cell's next n uniforms, i.e. one row of the cell's (m, n) block at
        # stream positions done * n on
        block = m * n
        shift = np.repeat(row_start[::m] - done * n, block)
        draws = splitmix_uniforms(np.repeat(keys[active], block), np.arange(len(shift)) - shift)
        done += m
        trip = _three_smallest(draws, lengths, row_start) + row_base[:, None]
        a, b, c = q[trip[:, 0]], q[trip[:, 1]], q[trip[:, 2]]
        d1 = b - a
        d2 = c - a
        normals = np.empty_like(d1)
        normals[:, 0] = d1[:, 1] * d2[:, 2] - d1[:, 2] * d2[:, 1]
        normals[:, 1] = d1[:, 2] * d2[:, 0] - d1[:, 0] * d2[:, 2]
        normals[:, 2] = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
        valid = norms > _DEGENERATE_CROSS
        normals[valid] /= norms[valid, None]
        offsets = -np.einsum("ij,ij->i", normals, a)

        row = np.repeat(np.arange(len(lengths)), lengths)
        at = np.arange(len(draws)) - np.repeat(row_start - row_base, lengths)
        near = _plane_distance(q[at], normals[row], offsets[row]) <= threshold
        score = np.add.reduceat(near, row_start, dtype=np.int64).reshape(-1, m)
        score[~valid.reshape(-1, m)] = -1

        # a cell stops at its first candidate reaching 99% inliers; the best
        # candidate up to that one (inclusive) is its winner of the round
        hit = score >= 0.99 * n[:, None]
        stop = hit.any(axis=1)
        cut = np.where(stop, hit.argmax(axis=1) + 1, m)
        score[np.arange(m) >= cut[:, None]] = -2
        win = score.argmax(axis=1)
        win_score = score[np.arange(len(active)), win]
        better = win_score > best_count[active]
        cells = active[better]
        rows = np.flatnonzero(better) * m + win[better]
        best_count[cells] = win_score[better]
        best_n[cells] = normals[rows]
        best_off[cells] = offsets[rows]
        active = active[~stop]

    fitted = best_count >= 0
    inliers = fitted[cell] & (_plane_distance(q, best_n[cell], best_off[cell]) <= threshold)
    counts_in = np.add.reduceat(inliers, starts, dtype=np.int64)
    refit = counts_in >= 3
    if refit.any():
        counts_in = counts_in[refit]
        q_in = q[inliers & refit[cell]]
        refit_cell = np.repeat(np.arange(len(counts_in)), counts_in)
        mean = _segment_sum(q_in, refit_cell, len(counts_in)) / counts_in[:, None]
        _, v = np.linalg.eigh(segment_covariance(q_in, counts_in))
        refit_n = np.zeros((k, 3))
        refit_off = np.zeros(k)
        refit_n[refit] = v[:, :, 0]
        refit_off[refit] = -np.einsum("ij,ij->i", v[:, :, 0], mean)
        refit_in = _plane_distance(q, refit_n[cell], refit_off[cell]) <= threshold
        keep = refit & (np.bincount(cell, weights=refit_in, minlength=k) >= best_count)
        best_n[keep] = refit_n[keep]
        best_off[keep] = refit_off[keep]
        inliers = np.where(keep[cell], refit_in, inliers)

    # shift offsets back out of the centered frame: n.(p - center) + o = 0
    offsets = best_off - np.einsum("ij,ij->i", best_n, center)
    return best_n, offsets, fitted, inliers


def ransac_plane(
    points: np.ndarray,
    inlier_threshold: float,
    iterations: int,
    seed: int,
) -> tuple[PlaneModel, np.ndarray, np.ndarray]:
    """Seeded RANSAC plane fit of one point set (see ``ransac_cells``); the
    cell's stream key is ``seed`` modulo 2^64.

    Returns the plane and the inlier / outlier indices; raises
    ``FitFailureError`` for fewer than 3 points or when every sampled
    triple was collinear.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 3:
        raise FitFailureError(f"plane fit needs at least 3 points, got {n}")
    key = np.array([seed & _KEY_MASK], dtype=np.uint64)
    fit = ransac_cells(pts, np.array([n]), key, inlier_threshold, iterations)
    if not fit.fitted[0]:
        raise FitFailureError("all sampled triples were collinear")
    plane = PlaneModel(
        normal=fit.normals[0], offset=float(fit.offsets[0]), slope_deg=float(fit.slopes[0])
    )
    return plane, np.flatnonzero(fit.inliers), np.flatnonzero(~fit.inliers)


def plane_tentative(slopes: np.ndarray, slope_threshold_deg: float) -> np.ndarray:
    """Tentative ground iff the plane slope does not exceed the threshold (inclusive)."""
    return np.asarray(slopes) <= slope_threshold_deg


def classify_planar_cell(plane: PlaneModel, slope_threshold_deg: float) -> GroundState:
    """Gate one planar cell by its plane's slope (see ``plane_tentative``)."""
    if plane_tentative(plane.slope_deg, slope_threshold_deg):
        return GroundState.TENTATIVE
    return GroundState.NON_GROUND


def segment_sparsity(points: np.ndarray, counts: np.ndarray, params: GeometryParams) -> np.ndarray:
    """Bin bounding-box volume per point into Low / Medium / High, per segment.

    ``points`` holds the segments back to back, ``counts[i]`` (at least one)
    points for segment i.  Extents are floored at 0.01 m so degenerate (flat
    or single-point) sets keep a nonzero volume.
    """
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    highs = np.maximum.reduceat(points, starts, axis=0)
    lows = np.minimum.reduceat(points, starts, axis=0)
    score = np.prod(np.maximum(highs - lows, 0.01), axis=1) / counts
    return np.select(
        [score <= params.sparsity_low_max, score <= params.sparsity_medium_max],
        [Sparsity.LOW, Sparsity.MEDIUM],
        Sparsity.HIGH,
    )


def bbox_sparsity(points: np.ndarray, params: GeometryParams) -> Sparsity:
    """Sparsity class of one point set (see ``segment_sparsity``)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise ContractViolationError("sparsity of an empty point set")
    return Sparsity(segment_sparsity(pts, np.array([len(pts)]), params)[0])
