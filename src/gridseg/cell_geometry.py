"""Per-cell geometric characterization.

Each occupied cell is classified from the eigen structure of its point
covariance (line / planar / non-planar), planar cells get a plane fit whose
slope against the horizontal gates them as tentative ground, and point
subsets get a bounding-box sparsity class used later to flag ambiguous cells.
The plane fit is RANSAC whose first candidate is the cell's eigenplane (its
least-squares plane), which alone finishes nearly every planar cell.

Covariances are summed one product column at a time over the points
centred on the cell means, and eigen decompositions use a closed-form 3x3
solver (``sorted_eigen``) instead of LAPACK: both are elementwise over
cells, so a cell's result never depends on which other cells share the call.
Classification, line gating, plane fitting and sparsity run on all cells of a
phase at once, so each rule is written once.  The one remaining one-cell
wrapper, ``ransac_plane``, stays for the acceptance suite's RANSAC criterion
and for the benchmark's layer tracer, which hooks it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, ContractViolationError, FitFailureError
from .voxel_grid import CellKind

# Cells with fewer points are Non-Planar: two points would pass as a Line,
# and a plane fit needs three.
MIN_POINTS_FOR_EIGEN = 3
_DEGENERATE_CROSS = 1e-12
# An eigenvalue share up to this is round-off: a cell's covariance sums carry
# relative errors of about n * 2^-53, and a backward-stable eigen solver adds
# a few 2^-53 of the trace, so this covers cells of up to a few thousand points.
_ROUNDOFF = 2.0**-40
# the six distinct entries of a symmetric 3x3 matrix, row by row
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class Sparsity(IntEnum):
    LOW = 0
    MEDIUM = 1
    HIGH = 2


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
    n = np.where(down[:, None], -n, n)
    offsets = np.where(down, -offsets, offsets)
    slopes = np.degrees(np.arccos(np.clip(n[:, 2], -1.0, 1.0)))
    return n, offsets, slopes


@dataclass(frozen=True)
class GeometryParams:
    """Thresholds for per-cell classification and plane fitting."""

    line_ratio_min: float = 0.9
    line_cross_ratio_max: float = 8.0
    planar_flatness_max: float = 0.05
    slope_threshold_deg: float = 30.0
    inlier_threshold: float = 0.125
    ransac_iterations: int = 50
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
            "sparsity_low_max",
            "sparsity_medium_max",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.sparsity_medium_max < self.sparsity_low_max:
            raise ConfigError("sparsity_medium_max must be >= sparsity_low_max")


def segment_covariance(
    points: np.ndarray, counts: np.ndarray, means: np.ndarray | None = None
) -> np.ndarray:
    """Population covariance (divisor N) of consecutive point segments.

    ``points`` holds the segments back to back, ``counts[i]`` points for
    segment i; the result is one 3x3 matrix per segment.  Two passes
    (center on the segment means, then average the six distinct products),
    with every sum taken in the given point order.  ``means`` may pass in
    the segment means when the caller already summed them that way (as
    ``VoxelGrid.centroids``); the result is the same to the bit.
    """
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    if means is None:
        means = np.add.reduceat(points, starts, axis=0) / counts[:, None]
    x, y, z = (points[:, j] - np.repeat(means[:, j], counts) for j in range(3))
    C = np.empty((len(counts), 3, 3))
    for (i, j), (a, b) in zip(_UPPER, ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))):
        C[:, i, j] = C[:, j, i] = np.add.reduceat(a * b, starts) / counts
    return C


def _cross(r, s):
    return (r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2], r[0] * s[1] - r[1] * s[0])


def _bilinear(b, x, y):
    """x^T B y per row, for B given by its six distinct entries ``b``."""
    b00, b01, b02, b11, b12, b22 = b
    return (
        x[0] * (b00 * y[0] + b01 * y[1] + b02 * y[2])
        + x[1] * (b01 * y[0] + b11 * y[1] + b12 * y[2])
        + x[2] * (b02 * y[0] + b12 * y[1] + b22 * y[2])
    )


def sorted_eigen(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen decomposition of a (k, 3, 3) stack of symmetric matrices, in
    closed form.

    Eigenvalues come out descending, (k, 3), clamped at zero against
    round-off; eigenvectors are unit columns in the same order, (k, 3, 3).

    Each matrix A is shifted and scaled to B = (A - q I) / p, with q the
    mean eigenvalue and p chosen so B's eigenvalues b1 >= b2 >= b3 sum to
    0 with squares summing to 6, hence b1 - b3 >= 3.  The trigonometric
    (Cardano) formulas b1 = 2 cos(phi), b3 = 2 cos(phi + 2 pi / 3) with
    phi = acos(det(B) / 2) / 3 hold working precision only at the
    better-separated end of the spectrum: near a double eigenvalue, acos
    loses half the digits of the pair (Kopp, Int. J. Mod. Phys. C 19,
    2008).  So only that end's eigenpair comes from it: its vector is the
    largest cross product of two rows of B - b I, whose other eigenvalues
    are at least 1.5 away from zero, so that cross product never
    degenerates and no matrix needs an iterative fallback; its value is
    the Rayleigh quotient.  The other
    two eigenpairs diagonalise the 2x2 block of B on the orthogonal
    complement of that vector (basis of Duff et al., JCGT 6(1), 2017).  A
    compare-and-swap at the seam keeps the order descending under
    round-off.  Matrices with p below the smallest normal double are
    treated as scalar (B = 0).

    Every step is elementwise arithmetic on one row, so a matrix gets the
    same bits batched or alone.
    """
    C = np.asarray(C, dtype=np.float64).reshape(-1, 3, 3)
    a = [C[:, i, j] for i, j in _UPPER]
    q = (a[0] + a[3] + a[5]) / 3.0
    for i in (0, 3, 5):
        a[i] = a[i] - q
    off_diagonal = a[1] ** 2 + a[2] ** 2 + a[4] ** 2
    p = np.sqrt((a[0] ** 2 + a[3] ** 2 + a[5] ** 2 + 2.0 * off_diagonal) / 6.0)
    tiny = np.finfo(np.float64).tiny
    inv = np.where(p >= tiny, 1.0 / np.maximum(p, tiny), 0.0)
    b = [x * inv for x in a]
    b00, b01, b02, b11, b12, b22 = b
    det = b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
    det += b02 * (b01 * b12 - b11 * b02)
    phi = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
    beta1 = 2.0 * np.cos(phi)
    beta3 = 2.0 * np.cos(phi + 2.0 * np.pi / 3.0)
    beta2 = -(beta1 + beta3)
    top = beta1 - beta2 >= beta2 - beta3
    beta = np.where(top, beta1, beta3)

    # the end eigenvector: the longest cross product of two rows of B - beta I
    r0, r1, r2 = (b00 - beta, b01, b02), (b01, b11 - beta, b12), (b02, b12, b22 - beta)
    cross = np.array([_cross(r0, r1), _cross(r0, r2), _cross(r1, r2)])
    norm2 = cross[:, 0] ** 2 + cross[:, 1] ** 2 + cross[:, 2] ** 2
    pick = norm2.argmax(axis=0)
    at = np.arange(len(q))
    v = cross[pick, :, at].T / np.sqrt(norm2[pick, at])

    # an orthonormal basis (u, w) of its complement, and B's 2x2 block there
    sign = np.copysign(1.0, v[2])
    h = -1.0 / (sign + v[2])
    m = v[0] * v[1] * h
    u = np.array([1.0 + sign * v[0] * v[0] * h, sign * m, -sign * v[0]])
    w = np.array([m, sign + v[1] * v[1] * h, -v[1]])
    g_uu, g_ww, g_uw = _bilinear(b, u, u), _bilinear(b, w, w), _bilinear(b, u, w)
    half_diff = 0.5 * (g_uu - g_ww)
    mean = 0.5 * (g_uu + g_ww)
    radius = np.hypot(half_diff, g_uw)
    # (e0, e1): the block's leading eigenvector, summed without cancellation
    right = half_diff >= 0.0
    e0 = np.where(right, half_diff + radius, g_uw)
    e1 = np.where(right, g_uw, radius - half_diff)
    length = np.hypot(e0, e1)
    flat = length == 0.0  # the block is scalar: any basis diagonalises it
    length[flat] = 1.0
    e0, e1 = e0 / length, e1 / length
    e0[flat] = 1.0

    values = np.array([_bilinear(b, v, v), mean + radius, mean - radius])
    vectors = np.array([v, e0 * u + e1 * w, e0 * w - e1 * u])
    # top: (end, block high, block low), else (block high, block low, end)
    swap = np.where(top, values[1] > values[0], values[0] > values[2])
    perm = np.array(
        [
            np.where(top & ~swap, 0, 1),
            np.where(swap, 0, np.where(top, 1, 2)),
            np.where(top | swap, 2, 0),
        ]
    )
    lam = np.maximum(q + p * np.take_along_axis(values, perm, axis=0), 0.0)
    vec = np.take_along_axis(vectors, perm[:, None, :], axis=0)
    # contiguous, so a column view such as vec[:, :, 2] has the same strides
    # for one matrix as for many, and einsum over it sums in the same order
    return np.ascontiguousarray(lam.T), np.ascontiguousarray(vec.transpose(2, 1, 0))


def eigen_kinds(w: np.ndarray, params: GeometryParams) -> np.ndarray:
    """Line / Planar / Non-Planar ``CellKind`` code per row of sorted eigenvalues.

    Line demands one dominant axis and no meaningful second one: the
    eigenvalue ratio must reach ``line_ratio_min`` and the residual
    cross-section must stay near-isotropic (lambda2 within
    ``line_cross_ratio_max`` times lambda3).  The second condition keeps
    thin-but-flat strips out of the Line class: a sloped surface sliced by
    short grid cells produces strips whose dominant-axis share is line-like
    even though they have a clear surface normal.  A lambda2 share at
    rounding level (``_ROUNDOFF``) passes the second condition: on exactly
    collinear points lambda2 and lambda3 are round-off of the covariance
    sums and of the eigen solver, so their ratio means nothing.  Otherwise
    the cell is Planar when the smallest share stays at or below
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
        & ((w[:, 1] <= params.line_cross_ratio_max * w[:, 2]) | (share[:, 1] <= _ROUNDOFF))
    )
    planar = spread & ~line & (share[:, 2] <= params.planar_flatness_max)
    return np.select([line, planar], [CellKind.LINE, CellKind.PLANAR], CellKind.NON_PLANAR)


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


# Sampled RANSAC candidates are drawn and scored per cell in blocks of this
# many, so the 99% early exit saves work without a round per candidate.
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
    normalized and oriented as by ``make_planes``; NaN where ``fitted[i]`` is
    False (fewer than 3 points, or no candidate plane: a degenerate
    eigenplane and every sampled triple collinear).  ``sampled[i]`` is True
    when cell i drew sampled candidates, i.e. its eigenplane held under 99%
    of its points.  ``inliers`` flags, per point in input order, whether it
    lies within the inlier threshold of its cell's plane.
    """

    normals: np.ndarray
    offsets: np.ndarray
    slopes: np.ndarray
    fitted: np.ndarray
    sampled: np.ndarray
    inliers: np.ndarray


def eigenplane_normals(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Per cell, the normal of its eigenplane: the eigenvector of the
    smallest eigenvalue (sorted as by ``sorted_eigen``).  Zero where the
    middle eigenvalue vanishes, i.e. the points lie on a line or a point
    and no plane is determined, just as a collinear triple gives none."""
    spans = eigenvalues[:, 1] > _DEGENERATE_CROSS
    return np.where(spans[:, None], eigenvectors[:, :, 2], 0.0)


def ransac_cells(
    points: np.ndarray,
    counts: np.ndarray,
    keys: np.ndarray,
    centroids: np.ndarray,
    eigen_normals: np.ndarray,
    inlier_threshold: float,
    iterations: int,
) -> CellPlanes:
    """Seeded RANSAC plane fit of every cell, cell by cell as ``ransac_plane``.

    ``points`` holds the cells back to back, ``counts[i]`` points for cell
    i, whose mean point is ``centroids[i]`` and whose eigenplane normal
    (see ``eigenplane_normals``) is ``eigen_normals[i]``.

    Candidate 0 of a cell is its eigenplane, the plane through the centroid
    normal to the smallest covariance eigenvector: the least-squares plane
    of all its points.  Sampled candidates follow, as many as
    ``iterations``, with cell i reading its own uniform stream in order:
    the SplitMix64 stream seeded with ``keys[i]`` (see
    ``splitmix_uniforms``).  Sampled candidate j takes one uniform key per
    point from stream positions j * n on and the points of the 3 smallest
    keys as its triple; blocks of up to 8 candidates are drawn and scored
    at once.

    A candidate scores the count of points within ``inlier_threshold``.
    A cell finishes at the first candidate reaching 99% inliers, or after
    the last; the best candidate seen up to then (the first of equal
    counts, so the eigenplane wins ties) wins.  A degenerate eigenplane (zero
    normal) and collinear triples score nothing, and a cell with no other
    candidate is not fitted.  The winner is refit by least squares on its
    inliers (smallest eigenvector of their covariance), and the refit is
    kept only when it does not lose inliers, so a cell's final count never
    falls below any examined candidate's.  A cell whose eigenplane holds
    every point is final at once: its refit would be the eigenplane itself.
    Deterministic for fixed inputs.
    """
    if inlier_threshold <= 0 or iterations <= 0:
        raise ContractViolationError("inlier_threshold and iterations must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    counts = np.asarray(counts, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64)
    centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    eigen_normals = np.asarray(eigen_normals, dtype=np.float64).reshape(-1, 3)
    ends = np.cumsum(counts)
    if len(counts) and (counts.min() < 1 or ends[-1] != len(pts)):
        raise ContractViolationError("cell counts must be positive and cover the points")
    if not len(keys) == len(centroids) == len(eigen_normals) == len(counts):
        raise ContractViolationError("one stream key, centroid and eigenplane normal per cell")
    k = len(counts)
    q = pts - np.repeat(centroids, counts, axis=0)
    inliers = _plane_distance(q, np.repeat(eigen_normals, counts, axis=0), 0.0) <= inlier_threshold
    score0 = np.add.reduceat(inliers, ends - counts, dtype=np.int64)
    score0[(counts < 3) | ~eigen_normals.any(axis=1)] = -1
    whole = score0 == counts
    sampled = (counts >= 3) & (score0 < 0.99 * counts)
    normals = np.where(whole[:, None], eigen_normals, np.nan)
    offsets = np.where(whole, 0.0, np.nan)
    inliers &= np.repeat(whole, counts)

    # every other cell of 3 or more points: sampled candidates and a refit
    is_rest = (counts >= 3) & ~whole
    rest = np.flatnonzero(is_rest)
    in_rest = np.repeat(is_rest, counts)
    q_rest, counts_rest = np.compress(in_rest, q, axis=0), counts[rest]
    ends_rest = np.cumsum(counts_rest)
    fit_in = np.zeros(len(q_rest), dtype=bool)
    first = 0
    while first < len(rest):
        lo = ends_rest[first] - counts_rest[first]
        last = max(first + 1, int(np.searchsorted(ends_rest, lo + _CHUNK_POINTS, side="right")))
        run, hi = rest[first:last], ends_rest[last - 1]
        normals[run], offsets[run], fit_in[lo:hi] = _fit_run(
            q_rest[lo:hi],
            counts[run],
            keys[run],
            score0[run],
            np.take(eigen_normals, run, axis=0),
            inlier_threshold,
            iterations,
        )
        first = last
    inliers[in_rest] = fit_in

    fitted = ~np.isnan(offsets)
    slopes = np.full(k, np.nan)
    if fitted.any():
        # shift offsets out of the centred frame: n.(p - centroid) + o = 0
        normals_fit = np.compress(fitted, normals, axis=0)
        centroids_fit = np.compress(fitted, centroids, axis=0)
        offsets[fitted] -= np.einsum("ij,ij->i", normals_fit, centroids_fit)
        normals[fitted], offsets[fitted], slopes[fitted] = make_planes(
            normals_fit, offsets[fitted]
        )
    return CellPlanes(normals, offsets, slopes, fitted, sampled, inliers)


def _plane_distance(q: np.ndarray, normals: np.ndarray, offsets) -> np.ndarray:
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


def _fit_run(q, counts, keys, score0, eigen_normals, threshold, iterations):
    """``ransac_cells`` after candidate 0, on one run of cells of 3 or more
    points whose eigenplane did not hold every point: sampled candidates
    where it held under 99%, then the refit.

    ``q`` holds the cells' points centred on their centroids and ``score0``
    the eigenplane's inlier counts (-1 when degenerate).  Returns per cell
    the plane in the centred frame (normal, offset; NaN when not fitted)
    and per point the inlier flags.
    """
    k = len(counts)
    cell = np.repeat(np.arange(k), counts)
    starts = np.cumsum(counts) - counts

    best_count = score0.copy()
    best_n = eigen_normals.copy()
    best_off = np.zeros(k)
    active = np.flatnonzero(score0 < 0.99 * counts)
    done = 0
    while done < iterations and len(active):
        m = min(_BLOCK, iterations - done)
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
        a, b, c = (np.take(q, trip[:, t], axis=0) for t in range(3))
        d1 = b - a
        d2 = c - a
        normals = np.empty_like(d1)
        normals[:, 0] = d1[:, 1] * d2[:, 2] - d1[:, 2] * d2[:, 1]
        normals[:, 1] = d1[:, 2] * d2[:, 0] - d1[:, 0] * d2[:, 2]
        normals[:, 2] = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))
        valid = norms > _DEGENERATE_CROSS
        np.divide(normals, norms[:, None], out=normals, where=valid[:, None])
        offsets = -np.einsum("ij,ij->i", normals, a)

        row = np.repeat(np.arange(len(lengths)), lengths)
        at = np.arange(len(draws)) - np.repeat(row_start - row_base, lengths)
        dist = _plane_distance(np.take(q, at, axis=0), np.take(normals, row, axis=0), offsets[row])
        near = dist <= threshold
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
        best_n[cells] = np.take(normals, rows, axis=0)
        best_off[cells] = offsets[rows]
        active = active[~stop]

    fitted = best_count >= 0
    near = _plane_distance(q, np.take(best_n, cell, axis=0), best_off[cell]) <= threshold
    inliers = fitted[cell] & near
    counts_in = np.add.reduceat(inliers, starts, dtype=np.int64)
    refit = counts_in >= 3
    if refit.any():
        counts_in = counts_in[refit]
        q_in = np.compress(inliers & refit[cell], q, axis=0)
        starts_in = np.cumsum(counts_in) - counts_in
        mean = np.add.reduceat(q_in, starts_in, axis=0) / counts_in[:, None]
        smallest = sorted_eigen(segment_covariance(q_in, counts_in, mean))[1][:, :, 2]
        refit_n = np.zeros((k, 3))
        refit_off = np.zeros(k)
        refit_n[refit] = smallest
        refit_off[refit] = -np.einsum("ij,ij->i", smallest, mean)
        refit_in = _plane_distance(q, np.take(refit_n, cell, axis=0), refit_off[cell]) <= threshold
        keep = refit & (np.bincount(cell, weights=refit_in, minlength=k) >= best_count)
        np.copyto(best_n, refit_n, where=keep[:, None])
        best_off[keep] = refit_off[keep]
        inliers = np.where(keep[cell], refit_in, inliers)
    best_n[~fitted] = np.nan
    best_off[~fitted] = np.nan
    return best_n, best_off, inliers


def ransac_plane(
    points: np.ndarray,
    inlier_threshold: float,
    iterations: int,
    seed: int,
) -> tuple[PlaneModel, np.ndarray, np.ndarray]:
    """Seeded RANSAC plane fit of one point set (see ``ransac_cells``); the
    cell's stream key is ``seed`` modulo 2^64, and its centroid and
    eigenplane come from its covariance as in the pipeline.

    Returns the plane and the inlier / outlier indices; raises
    ``FitFailureError`` for fewer than 3 points or when no candidate plane
    exists (the points are collinear or every sampled triple was).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 3:
        raise FitFailureError(f"plane fit needs at least 3 points, got {n}")
    counts = np.array([n])
    key = np.array([seed & _KEY_MASK], dtype=np.uint64)
    centroid = np.add.reduceat(pts, [0], axis=0) / n
    normal = eigenplane_normals(*sorted_eigen(segment_covariance(pts, counts, centroid)))
    fit = ransac_cells(pts, counts, key, centroid, normal, inlier_threshold, iterations)
    if not fit.fitted[0]:
        raise FitFailureError("no candidate plane: the points or every sampled triple collinear")
    plane = PlaneModel(
        normal=fit.normals[0], offset=float(fit.offsets[0]), slope_deg=float(fit.slopes[0])
    )
    return plane, np.flatnonzero(fit.inliers), np.flatnonzero(~fit.inliers)


def plane_tentative(slopes: np.ndarray, slope_threshold_deg: float) -> np.ndarray:
    """Tentative ground iff the plane slope does not exceed the threshold (inclusive)."""
    return np.asarray(slopes) <= slope_threshold_deg


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
