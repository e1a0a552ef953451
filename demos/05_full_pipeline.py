# The dual-phase pipeline end to end on a synthetic scene with obstacles:
# coarse tall-cell pass, fine short-cell refinement, per-point mask out.

from gridseg import BoxSpec, SceneSpec, make_default_config, make_scene, scene_cloud, segment
from gridseg.synth import GROUND_LABEL

scene = make_scene(
    SceneSpec(
        extent=30.0,
        n_ground=20000,
        noise_sigma=0.02,
        boxes=(
            BoxSpec(6.0, 4.0, 1.5, 1.0, 0.6),
            BoxSpec(-8.0, -5.0, 2.0, 1.5, 1.8),
            BoxSpec(3.0, -9.0, 1.0, 1.0, 1.2),
        ),
        seed=42,
    )
)
cloud = scene_cloud(scene)
cfg = make_default_config()
result = segment(cloud, cfg)

truth = scene.labels == GROUND_LABEL
ntp = int((result.mask & truth).sum())
nfp = int((result.mask & ~truth).sum())
nfn = int((~result.mask & truth).sum())
print(f"points: {len(cloud)}  predicted ground: {int(result.mask.sum())}")
print(f"precision: {ntp / (ntp + nfp):.4f}  recall: {ntp / (ntp + nfn):.4f}")

s = result.stats
print(f"\nphase 1: {s.phase1.n_cells} cells "
      f"({s.phase1.cells_planar} planar / {s.phase1.cells_line} line / "
      f"{s.phase1.cells_non_planar} non-planar), "
      f"{s.phase1.cells_routed_ground} routed ground, {s.phase1.runtime_ms:.0f} ms")
print(f"phase 2: {s.phase2.n_cells} cells, "
      f"{s.phase2.cells_routed_ground} routed ground, {s.phase2.runtime_ms:.0f} ms")
print(f"total: {s.runtime_ms:.0f} ms")

# Optional: scatter plot of the segmentation, written next to this script.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 7))
    g = result.mask
    ax.scatter(cloud.points[g, 0], cloud.points[g, 1], s=1, c="m", label="ground")
    ax.scatter(cloud.points[~g, 0], cloud.points[~g, 1], s=1, c="k", label="non-ground")
    ax.set_aspect("equal")
    ax.legend(markerscale=8)
    fig.savefig("segmentation_topdown.png", dpi=120)
    print("\nwrote segmentation_topdown.png")
except ImportError:
    pass
