"""Per-cell geometric characterization.

Each occupied cell is classified from the eigen structure of its point
covariance (line / planar / non-planar), planar cells get a plane fit whose
slope against the horizontal gates them as tentative ground, and point
subsets get a bounding-box sparsity class used later to flag ambiguous cells.
The plane fit is the cell's eigenplane (its least-squares plane) and its
inliers the points near it; no candidate is sampled, so a fit depends only
on the cell's points.

Covariances are summed one product column at a time over the points
centred on the cell means (centred once per phase, and the plane fits read
the same centred points), and eigen decompositions use a closed-form 3x3
solver (``sorted_eigen``) instead of LAPACK: both are elementwise over
cells, so a cell's result never depends on which other cells share the call.
Classification, line gating, plane fitting and sparsity run on all cells of a
phase at once, so each rule is written once.  The one remaining one-cell
wrapper, ``ransac_plane``, stays for the acceptance suite's plane-fit
criterion and for the benchmark's layer tracer, which hooks it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, ContractViolationError, FitFailureError, check_fields
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
    sparsity_low_max: float = 0.01
    sparsity_medium_max: float = 0.1

    def __post_init__(self):
        positive = ("planar_flatness_max", "slope_threshold_deg", "inlier_threshold")
        positive += ("sparsity_low_max", "sparsity_medium_max")
        check_fields(self, positive)
        if self.line_ratio_min <= 2.0 / 3.0:
            raise ConfigError("line_ratio_min must exceed 2/3 so Line and Planar stay exclusive")
        if self.line_cross_ratio_max < 1.0:
            raise ConfigError("line_cross_ratio_max must be >= 1")
        if self.sparsity_medium_max < self.sparsity_low_max:
            raise ConfigError("sparsity_medium_max must be >= sparsity_low_max")


def segment_covariance(points: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Population covariance (divisor N) of consecutive point segments.

    ``points`` holds the segments back to back, ``counts[i]`` points for
    segment i; the result is one 3x3 matrix per segment.  Two passes
    (center on the segment means, then ``centred_covariance``), with every
    sum taken in the given point order.  A caller holding means summed that
    way (as ``VoxelGrid.centroids``) centres the points on them and calls
    ``centred_covariance``, which gives the same bits.
    """
    counts = np.asarray(counts)
    means = np.add.reduceat(points, np.cumsum(counts) - counts, axis=0) / counts[:, None]
    return centred_covariance(centre_segments(points, means, counts), counts)


def centre_segments(points: np.ndarray, means: np.ndarray, counts: np.ndarray):
    """Each point less its segment's mean: ``means[i]`` off each of the
    ``counts[i]`` points of segment i, which lie back to back in ``points``.

    One column at a time, so no per-point copy of the means' rows is made;
    the differences are those of ``points - np.repeat(means, counts,
    axis=0)`` to the bit.
    """
    points = np.asarray(points)
    out = np.empty(points.shape)
    for c in range(3):
        np.subtract(points[:, c], np.repeat(means[:, c], counts), out=out[:, c])
    return out


def centred_covariance(q: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Population covariance of consecutive segments of points ``q`` that
    are already centred on their segment means (see ``segment_covariance``):
    the mean of each of the six distinct products, summed in point order."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    x, y, z = q[:, 0], q[:, 1], q[:, 2]
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


@dataclass(frozen=True)
class CellPlanes:
    """Plane fits of consecutive point segments (cells).

    Row i of ``normals``, ``offsets`` and ``slopes`` is cell i's plane,
    normalized and oriented as by ``make_planes``; NaN where ``fitted[i]`` is
    False (fewer than 3 points, or a degenerate eigenplane: the points lie
    on a line or a point).  ``inliers`` flags, per point in input order,
    whether it lies within the inlier threshold of its cell's plane.
    """

    normals: np.ndarray
    offsets: np.ndarray
    slopes: np.ndarray
    fitted: np.ndarray
    inliers: np.ndarray


def eigenplane_normals(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Per cell, the normal of its eigenplane: the eigenvector of the
    smallest eigenvalue (sorted as by ``sorted_eigen``).  Zero where the
    middle eigenvalue vanishes, i.e. the points lie on a line or a point
    and no plane is determined."""
    spans = eigenvalues[:, 1] > _DEGENERATE_CROSS
    return np.where(spans[:, None], eigenvectors[:, :, 2], 0.0)


def ransac_cells(
    centred: np.ndarray,
    counts: np.ndarray,
    centroids: np.ndarray,
    eigen_normals: np.ndarray,
    inlier_threshold: float,
) -> CellPlanes:
    """Plane fit of every cell, cell by cell as ``ransac_plane``.

    ``centred`` holds the cells' points back to back, ``counts[i]`` points
    for cell i, each less its cell's mean point ``centroids[i]`` (as
    ``segment_covariance`` centres them); cell i's eigenplane normal (see
    ``eigenplane_normals``) is ``eigen_normals[i]``.

    A cell's plane is its eigenplane, the plane through the centroid normal
    to the smallest covariance eigenvector: the least-squares plane of all
    its points.  Its inliers are the points within ``inlier_threshold``.  A
    cell of fewer than 3 points, or with a degenerate eigenplane (zero
    normal), is not fitted.  Deterministic, and a cell's fit depends on its
    own points only: the same bits batched or alone.
    """
    if inlier_threshold <= 0:
        raise ContractViolationError("inlier_threshold must be positive")
    q = np.asarray(centred, dtype=np.float64).reshape(-1, 3)
    counts = np.asarray(counts, dtype=np.int64)
    centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    eigen_normals = np.asarray(eigen_normals, dtype=np.float64).reshape(-1, 3)
    if (counts < 1).any() or counts.sum() != len(q):
        raise ContractViolationError("cell counts must be positive and cover the points")
    if not len(centroids) == len(eigen_normals) == len(counts):
        raise ContractViolationError("one centroid and eigenplane normal per cell")
    fitted = (counts >= 3) & eigen_normals.any(axis=1)
    normals = np.where(fitted[:, None], eigen_normals, np.nan)
    # an unfitted cell's NaN normal puts its points at NaN distance, no inliers
    inliers = _plane_distance(q, normals, counts) <= inlier_threshold
    offsets = np.full(len(counts), np.nan)
    slopes = np.full(len(counts), np.nan)
    # the plane through the centroid: n.(p - centroid) = 0
    normals_fit = np.compress(fitted, eigen_normals, axis=0)
    offsets_fit = -np.einsum("ij,ij->i", normals_fit, np.compress(fitted, centroids, axis=0))
    normals[fitted], offsets[fitted], slopes[fitted] = make_planes(normals_fit, offsets_fit)
    return CellPlanes(normals, offsets, slopes, fitted, inliers)


def _plane_distance(q: np.ndarray, normals: np.ndarray, counts: np.ndarray):
    """|n . p| for each point p of ``q``, whose rows run in segments of
    ``counts[i]`` points on the plane through the origin normal to
    ``normals[i]``.

    Each coordinate's products come from a repeat of one normal column, so
    no per-point normal array is built.  They are summed as (x + z) + y, the
    order in which ``np.einsum("ij,ij->i")`` sums three products, so the
    distances equal that dot product's to the bit.
    """
    d = np.repeat(normals[:, 0], counts) * q[:, 0]
    d += np.repeat(normals[:, 2], counts) * q[:, 2]
    d += np.repeat(normals[:, 1], counts) * q[:, 1]
    return np.abs(d, out=d)


def ransac_plane(
    points: np.ndarray, inlier_threshold: float
) -> tuple[PlaneModel, np.ndarray, np.ndarray]:
    """Plane fit of one point set (see ``ransac_cells``), its centroid and
    eigenplane taken from its covariance as in the pipeline.

    Returns the plane and the inlier / outlier indices; raises
    ``FitFailureError`` for fewer than 3 points or when the points lie on
    a line or a point, so that no plane is determined.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 3:
        raise FitFailureError(f"plane fit needs at least 3 points, got {n}")
    counts = np.array([n])
    centroid = np.add.reduceat(pts, [0], axis=0) / n
    q = pts - centroid
    normal = eigenplane_normals(*sorted_eigen(centred_covariance(q, counts)))
    fit = ransac_cells(q, counts, centroid, normal, inlier_threshold)
    if not fit.fitted[0]:
        raise FitFailureError("no plane: the points are collinear")
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
