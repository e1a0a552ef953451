"""Reading and writing KITTI-style scans, label files, and segmentation masks.

Scans are ``.bin`` files of consecutive little-endian float32 quadruples
``(x, y, z, intensity)``, of which only ``x, y, z`` are kept.  Label files
hold one little-endian uint32 per point; the semantic class id is the low
16 bits (the high 16 bits carry an instance id and are discarded).  Masks are written one byte per point,
1 = ground, in input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, MalformedFileError

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4


@dataclass
class PointCloud:
    """Sensor-frame points, an (N, 3) array (``ContractViolationError``
    naming the shape otherwise)."""

    points: np.ndarray  # (N, 3) float64

    def __post_init__(self):
        shape = np.shape(self.points)
        if len(shape) != 2 or shape[1] != 3:
            raise ContractViolationError(f"points must be an (N, 3) array, got shape {shape}")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SyntheticSeedInfo:
    """Bookkeeping for the lattice of seed points injected below the robot."""

    count: int
    depth: float


def _read_records(path: str | Path, size: int, dtype: str) -> np.ndarray:
    """A file's bytes as ``dtype`` values; ``MalformedFileError`` unless
    they are whole records of ``size`` bytes."""
    data = Path(path).read_bytes()
    if len(data) % size != 0:
        raise MalformedFileError(f"{path}: {len(data)} bytes is not a multiple of {size}")
    return np.frombuffer(data, dtype=dtype)


def read_kitti_bin(path: str | Path) -> PointCloud:
    """Parse a KITTI ``.bin`` scan, one point per record, in file order.

    Every record is kept, non-finite ones too (LiDAR returns can be
    invalid), so points, label files and masks stay aligned record for
    record; ``segment`` leaves rows with a non-finite coordinate
    non-ground and counts them.
    """
    records = _read_records(path, POINT_RECORD_BYTES, "<f4").reshape(-1, 4)
    return PointCloud(points=np.ascontiguousarray(records[:, :3], dtype=np.float64))


def read_semantic_labels(path: str | Path) -> np.ndarray:
    """Parse a SemanticKITTI ``.label`` file into uint16 class ids."""
    return (_read_records(path, LABEL_RECORD_BYTES, "<u4") & 0xFFFF).astype(np.uint16)


def inject_synthetic_seed(
    cloud: PointCloud, radius: float, depth: float, spacing: float = 0.3
) -> tuple[PointCloud, SyntheticSeedInfo]:
    """Append a square lattice of seed points below the sensor.

    The lattice has pitch ``spacing``, is clipped to the disk of the given
    radius (boundary inclusive, measured in lattice steps so an exact-radius
    ring survives float division), and sits at z = -depth exactly.  Points
    are appended at the tail so stripping is a truncation.
    """
    if radius < 0:
        raise ContractViolationError("radius must be >= 0")
    if depth <= 0 or spacing <= 0:
        raise ContractViolationError("depth and spacing must be > 0")
    steps = int(math.floor(radius / spacing))
    ii, jj = np.mgrid[-steps : steps + 1, -steps : steps + 1]
    keep = (ii * ii + jj * jj) <= (radius / spacing) ** 2
    xs = ii[keep].ravel() * spacing
    ys = jj[keep].ravel() * spacing
    lattice = np.column_stack([xs, ys, np.full(xs.shape, -depth)])
    info = SyntheticSeedInfo(count=len(lattice), depth=depth)
    return PointCloud(points=np.vstack([cloud.points, lattice])), info


def strip_synthetic(mask: np.ndarray, info: SyntheticSeedInfo) -> np.ndarray:
    """Drop the tail entries covering injected seed points from a mask."""
    if info.count > len(mask):
        raise ContractViolationError(
            f"cannot strip {info.count} synthetic entries from a mask of length {len(mask)}"
        )
    return mask[: len(mask) - info.count]


def write_mask(path: str | Path, mask: np.ndarray) -> None:
    """Write a per-point ground mask, one byte per point (1 = ground)."""
    data = np.asarray(mask).astype(np.uint8)
    Path(path).write_bytes(data.tobytes())


def read_mask(path: str | Path) -> np.ndarray:
    raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    return raw != 0


_XYZ_CHUNK = 1 << 16  # rows per formatted write in write_xyz


def write_xyz(path: str | Path, cloud: PointCloud, mask: np.ndarray) -> None:
    """Write an ASCII ``x y z label`` file for inspection in point-cloud viewers."""
    if len(cloud) != len(mask):
        raise ContractViolationError("cloud and mask lengths differ")
    ground = np.asarray(mask, dtype=bool)
    with open(path, "w") as fh:
        # one formatted write per chunk of rows keeps memory bounded
        for start in range(0, len(ground), _XYZ_CHUNK):
            stop = start + _XYZ_CHUNK
            rows = np.column_stack([cloud.points[start:stop], ground[start:stop]])
            fh.write("%.6f %.6f %.6f %d\n" * len(rows) % tuple(rows.ravel().tolist()))
