"""Dual-phase grid-based LiDAR ground segmentation.

A scan is voxelized twice: first with tall cells to strip vertical
structures, then the coarse ground output is re-examined with short cells.
Within each phase, cells are classified from the eigen structure of their
point covariance, planar cells are gated by the slope of their eigenplane
(normal to the least-variance eigenvector), and the ground region is the
cells that centroid links within a search radius connect to a synthetic
seed under the robot, each refined by a multi-step per-cell check.  A distance-bucketed
precision/recall/F1 harness scores results against SemanticKITTI-style
labels.
"""

from .cell_geometry import GeometryParams, PlaneModel, Sparsity, ransac_plane
from .cloud_io import (
    PointCloud,
    SyntheticSeedInfo,
    inject_synthetic_seed,
    read_kitti_bin,
    read_mask,
    read_semantic_labels,
    strip_synthetic,
    write_mask,
    write_xyz,
)
from .config import apply_settings, dump_config, load_config_file, resolve_config
from .errors import (
    ConfigError,
    ContractViolationError,
    FitFailureError,
    MalformedFileError,
)
from .evaluation import (
    ConfusionCounts,
    GroundTruthPolicy,
    MetricRow,
    SequenceReport,
    emit_report,
    evaluate_scan,
    evaluate_sequence,
    f1,
    format_summary,
    harmonic_f1,
    precision,
    recall,
)
from .pipeline import (
    PhaseConfig,
    PipelineConfig,
    SegmentationResult,
    SegmentationStats,
    make_default_config,
    run_phase,
    segment,
)
from .region_expansion import (
    CentroidIndex,
    ExpansionLog,
    ExpansionParams,
    build_centroid_index,
    expand,
    ground_mask,
    refine_cell,
    select_seed,
)
from .synth import BoxSpec, Scene, SceneSpec, make_scene, scene_cloud, write_scene
from .voxel_grid import (
    CellIndex,
    CellKind,
    CellSize,
    GroundState,
    VoxelGrid,
    build_grid,
    cell_index,
    occupied_below,
)

__version__ = "0.1.0"
