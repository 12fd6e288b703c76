"""The occ-pipeline workload: the paper's 2D->3D view transform, the
encoder-decoder and the metrics, called through occgeom's public functions
on a persisted scene bundle with seeded fixed weights.

Every call goes through a module attribute (`view_transform.lift`, not a
name imported from it), so the tracer's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from occgeom import camera, metrics, occ_encdec, view_transform
from occgeom.occ_encdec import SemanticOccupancy, SemanticQuerySet, WindowedAttentionParams
from occgeom.synthscene import SceneBundle

# Widths follow the repository's own pipeline shape test (test_10 in
# tests/test_acceptance.py), which mirrors the full-scale pattern: 64 image
# feature channels, 96 fused / encoder channels and 2 idm_sample offsets.
FEAT_CHANNELS = 64  # image feature channels C_f
OUT_CHANNELS = 96  # fused / encoder channels
SAMPLING_POINTS = 2  # idm_sample offsets per camera
# uniform_depth_bins' default bin count, spread over the near/far range that
# the acceptance-06 render config uses on the same boxes scene
DEPTH_BINS = 8  # depth bins C_d of the lift distributions
DEPTH_RANGE = (1.0, 16.0)  # camera-frame z covered by the bins (m)
# the window of the encoder tests in tests/test_occ_encdec.py
WINDOW = (2, 2, 2)  # windowed-attention extents


@dataclass
class PipelineInputs:
    bundle: SceneBundle
    t_ref: int
    intrinsics: list
    poses: list
    dists: list  # DepthDistribution per camera
    half: view_transform.VoxelGridSpec
    idm_queries: np.ndarray
    offsets: np.ndarray
    attn_weights: np.ndarray
    w_fuse: np.ndarray
    w_down: np.ndarray
    attn: WindowedAttentionParams
    queries: SemanticQuerySet


def _soft_depths(bundle: SceneBundle, ci: int, t: int, bins: np.ndarray):
    """Gaussian depth distributions around the ground-truth camera-frame z;
    pixels with no ground-truth hit get a uniform distribution."""
    dm = bundle.gt_depths[(ci, t)]
    intr = bundle.rig.cameras[ci].intrinsics
    h, w = dm.depth.shape
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    # ground truth is distance along the unit ray; lift bins are camera z
    norm = np.sqrt(((us - intr.cx) / intr.fx) ** 2 + ((vs - intr.cy) / intr.fy) ** 2 + 1.0)
    z = dm.depth / norm
    width = bins[1] - bins[0]
    logits = -0.5 * ((bins[None, None, :] - z[:, :, None]) / width) ** 2
    probs = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs /= probs.sum(axis=2, keepdims=True)
    probs[~dm.valid] = 1.0 / bins.size
    return view_transform.DepthDistribution(bins, probs)


def make_inputs(bundle: SceneBundle, seed: int) -> PipelineInputs:
    """Depth distributions from the bundle plus weights drawn from `seed`."""
    rng = np.random.default_rng([seed, 0x0CC])
    rig = bundle.rig
    t_ref = rig.timestamps()[-1]
    n_cam = len(rig.cameras)
    bins = view_transform.uniform_depth_bins(DEPTH_BINS, *DEPTH_RANGE)
    cf, c = FEAT_CHANNELS, OUT_CHANNELS
    half = bundle.spec.halved()
    n_win = int(np.prod(WINDOW))
    k = bundle.grid.num_classes
    scale = 1.0 / np.sqrt(c)
    return PipelineInputs(
        bundle=bundle,
        t_ref=t_ref,
        intrinsics=[rig.cameras[i].intrinsics for i in range(n_cam)],
        poses=[camera.camera_pose_at(rig, i, t_ref) for i in range(n_cam)],
        dists=[_soft_depths(bundle, i, t_ref, bins) for i in range(n_cam)],
        half=half,
        idm_queries=rng.normal(size=(cf, *half.dims)),
        offsets=rng.uniform(-1.5, 1.5, size=(SAMPLING_POINTS, 2)),
        attn_weights=rng.normal(size=SAMPLING_POINTS),
        w_fuse=rng.normal(size=(c, 2 * cf, 3, 3, 3)) * 0.05,
        w_down=rng.normal(size=(c, c, 3, 3, 3)) * 0.05,
        attn=WindowedAttentionParams(
            WINDOW,
            rng.normal(size=(c, c)) * scale,
            rng.normal(size=(c, c)) * scale,
            rng.normal(size=(c, c)) * scale,
            rng.normal(size=(n_win, n_win)) * 0.1,
        ),
        queries=SemanticQuerySet(
            rng.normal(size=(k, c)),  # one query per class, the fewest allowed
            rng.normal(size=(c, c)) * scale,
            rng.normal(size=(c, c)) * scale,
            rng.normal(size=(c, c)) * scale,
            rng.normal(size=(c, k + 1)),
            rng.normal(size=(c, c)) * scale,
            rng.normal(size=(c, 2 * c)) * scale,
            rng.normal(size=(2 * c, c)) * scale,
        ),
    )


def op_features(inp: PipelineInputs, seed: int, op: int, warm_up: bool = False) -> list[np.ndarray]:
    """Fresh image feature maps for one operation, so nothing carries over.
    Warm-up operations draw from their own stream."""
    rng = np.random.default_rng([seed, 0xFEA7, int(warm_up), op])
    return [
        rng.normal(size=(intr.height, intr.width, FEAT_CHANNELS)) for intr in inp.intrinsics
    ]


@dataclass
class PipelineResult:
    labels: np.ndarray  # assembled labels on the compressed grid
    finite: bool


def run_chain(inp: PipelineInputs, feats: list[np.ndarray]) -> PipelineResult:
    """lift + voxel_pool, idm_sample + upsample, fuse, encode, decode,
    assemble, then evaluate against the bundle's ground truth."""
    bundle = inp.bundle
    points, lifted = [], []
    for feat, dist, intr, pose in zip(feats, inp.dists, inp.intrinsics, inp.poses):
        pos_cam, vals = view_transform.lift(feat, dist, intr)
        points.append(pose.apply(pos_cam))
        lifted.append(vals)
    explicit = view_transform.voxel_pool(np.concatenate(points), np.concatenate(lifted), bundle.spec)
    implicit_half = view_transform.idm_sample(
        inp.half, inp.idm_queries, feats, bundle.rig, inp.offsets, inp.attn_weights,
        timestamp=inp.t_ref,
    )
    implicit = view_transform.upsample_trilinear(implicit_half, bundle.spec)
    fused = view_transform.fuse_and_compress(explicit, implicit, inp.w_fuse)
    levels = occ_encdec.encode(fused, inp.attn, [inp.w_down])
    class_logits, mask_logits = occ_encdec.decode(levels, inp.queries)
    occ = occ_encdec.assemble_semantics(class_logits, mask_logits, fused.spec)
    # nearest-upsample the compressed labels back onto the ground-truth grid
    full = occ.labels
    for axis in range(3):
        full = np.repeat(full, 2, axis=axis)
    k = bundle.grid.num_classes
    metrics.evaluate(SemanticOccupancy.from_labels(full, k), bundle.grid, bundle.visible)
    finite = all(
        np.all(np.isfinite(a))
        for a in (explicit.data, implicit.data, fused.data, class_logits, mask_logits)
    ) and all(np.all(np.isfinite(g.data)) for g in levels)
    return PipelineResult(occ.labels, bool(finite))


def work_counts(inp: PipelineInputs) -> dict[str, float]:
    """Per-operation work counts computed from the inputs alone."""
    spec = inp.bundle.spec
    dims = np.array(spec.dims)
    bins = inp.dists[0].bins
    lift_points = 0
    kept = 0
    for intr, pose in zip(inp.intrinsics, inp.poses):
        us, vs = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
        dirs = np.stack(
            [(us - intr.cx) / intr.fx, (vs - intr.cy) / intr.fy, np.ones(us.shape)], axis=-1
        ).reshape(-1, 1, 3)
        cam_pts = (dirs * bins[None, :, None]).reshape(-1, 3)
        world = cam_pts @ pose.rotation.T + pose.translation
        idx = np.floor((world - spec.origin) / spec.voxel_size)
        kept += int(np.sum(np.all((idx >= 0) & (idx < dims), axis=1)))
        lift_points += cam_pts.shape[0]
    centers = inp.half.voxel_centers()
    visible = 0
    for intr, pose in zip(inp.intrinsics, inp.poses):
        visible += int(camera.project_points(intr, pose, centers)[2].sum())
    fused_dims = inp.half.dims
    down_dims = inp.half.halved().dims
    c, cf = OUT_CHANNELS, FEAT_CHANNELS
    macs = (
        c * int(np.prod(fused_dims)) * 2 * cf * 27  # fuse_and_compress, stride 2
        + c * int(np.prod(down_dims)) * c * 27  # encoder downsampling, stride 2
    )
    windows = sum(
        int(np.prod([-(-d // w) for d, w in zip(level, WINDOW)]))
        for level in (fused_dims, down_dims)
    )
    return {
        "view_transform.lift.points": lift_points,
        "view_transform.voxel_pool.points": lift_points,
        "view_transform.voxel_pool.kept_frac": kept / lift_points,
        "view_transform.idm_sample.visible_frac": visible / (centers.shape[0] * len(inp.poses)),
        "tensor.conv3d.macs": macs,
        "occ_encdec.windowed_attention.windows": windows,
    }
