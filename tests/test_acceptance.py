"""Acceptance criteria, one test per criterion.

Each test exercises its criterion at the stated tolerance and prints a
PASS line with the measured numbers (run pytest with -s to see them).
"""

import numpy as np
import pytest

from occgeom import cli
from occgeom.camera import Camera, CameraRig, Intrinsics, Pose, camera_pose_at, relative_pose
from occgeom.cast import ContextPlan, PhotometricConfig, cast_loss, photometric_loss, warp_image
from occgeom.occ_encdec import SemanticOccupancy, SemanticQuerySet, WindowedAttentionParams, masked_decode, windowed_attention
from occgeom.renderer import DensityField, RenderConfig, render_view
from occgeom.synthscene import SceneConfig, build_scene, raymarch_depth_oracle
from occgeom.tensor import softmax
from occgeom.metrics import evaluate
from occgeom.view_transform import (
    DepthDistribution,
    OccupancyFeature,
    VoxelGridSpec,
    fuse_and_compress,
    idm_sample,
    lift,
    uniform_depth_bins,
    upsample_trilinear,
    voxel_pool,
)
from helpers import grad_check, level_camera_mount, render_ray


def report(num, name, detail):
    print(f"\nACCEPTANCE {num:2d} ({name}): PASS - {detail}")


@pytest.fixture(scope="module")
def corridor():
    return build_scene(SceneConfig(seed=0, preset="corridor", num_cameras=2, image_size=(48, 80)))


def test_01_rendering_correctness(corridor):
    """Corridor scene, sigma_occ=50, S=152: rendered depth within delta."""
    b = corridor
    cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 1))
    oracle = raymarch_depth_oracle(b.grid, b.spec, cam, (180, 320))
    rendered = render_view(b.density_gt, cam, RenderConfig(resolution=(180, 320)))
    both = rendered.valid & oracle.valid
    assert both.sum() > 10000
    err = np.abs(rendered.depth - oracle.depth)[both]
    delta = 44.0 / 152
    mean, p95 = err.mean(), np.percentile(err, 95)
    assert p95 <= delta
    assert mean <= delta / 2
    report(1, "rendering correctness",
           f"mean {mean:.4f} <= {delta / 2:.4f}, p95 {p95:.4f} <= {delta:.4f}")


def test_02_gradient_fidelity():
    """Analytic depth gradient vs central differences on 100 random rays."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        sig = rng.uniform(0.05, 1.0, 16)
        g = render_ray(sig, 1.0, 5.0)[3]
        err = grad_check(lambda s: render_ray(s, 1.0, 5.0)[0], sig, g, eps=1e-5)
        worst = max(worst, err)
    assert worst < 1e-4
    report(2, "gradient fidelity", f"max relative error {worst:.3g} < 1e-4")


def _tilted_wall_scene():
    """Flat wall tilted in two axes: depth phases cover the sample grid
    without occlusion boundaries or grazing incidence."""
    vs = 0.2
    spec = VoxelGridSpec((64, 64, 16), np.zeros(3), vs)
    ix, iy, iz = np.meshgrid(
        np.arange(64), np.arange(64), np.arange(16), indexing="ij"
    )
    labels = np.full((64, 64, 16), 4, dtype=np.int64)
    labels[ix >= 20 + 0.268 * iy + 0.171 * iz] = 0
    grid = SemanticOccupancy(labels, 4)
    field = DensityField(50.0 * (labels != 4), spec)
    intr = Intrinsics(fx=210.0, fy=210.0, cx=79.5, cy=31.5, width=160, height=64)
    pos = np.array([1.53, 32.07, 8.53]) * vs
    cam = Camera(intr, level_camera_mount(0.0, pos))
    return grid, spec, field, cam


def test_03_convergence_order():
    """Doubling S from 76 to 152 shrinks the mean error by 1.5x-2.5x."""
    grid, spec, field, cam = _tilted_wall_scene()
    oracle = raymarch_depth_oracle(grid, spec, cam, (64, 160))
    means = []
    for s in (76, 152):
        cfg = RenderConfig(samples=s, t_near=1.0, t_far=32.0, resolution=(64, 160))
        rendered = render_view(field, cam, cfg)
        both = rendered.valid & oracle.valid
        means.append(np.abs(rendered.depth - oracle.depth)[both].mean())
    ratio = means[0] / means[1]
    assert 1.5 <= ratio <= 2.5
    report(3, "convergence order",
           f"mean error {means[0]:.4f} -> {means[1]:.4f}, factor {ratio:.3f} in [1.5, 2.5]")


def test_04_photometric_identity():
    """Identity-context warps reproduce every synthesized image exactly."""
    cfg = PhotometricConfig()
    spec = VoxelGridSpec((24, 24, 8), np.zeros(3), 0.4)
    worst = 0.0
    checked = 0
    for preset in ("boxes", "corridor", "random_blobs"):
        b = build_scene(
            SceneConfig(seed=2, preset=preset, dims=spec.dims, num_cameras=2, image_size=(24, 40))
        )
        for (ci, t), img in b.images.items():
            pose = relative_pose("temporal", b.rig, ci, ci, t, t)
            intr = b.rig.cameras[ci].intrinsics
            recon, valid, _ = warp_image(img, b.gt_depths[(ci, t)], pose, intr, intr)
            if not valid.any():
                continue
            worst = max(worst, abs(photometric_loss(img, recon, valid, cfg)[0]))
            checked += 1
    assert checked >= 8
    assert worst <= 1e-6
    report(4, "photometric identity",
           f"{checked} images, worst |loss| {worst:.2e} <= 1e-6")


def test_05_self_supervision_discriminates():
    """Ground-truth density beats 100 seeded 10% perturbations."""
    b = build_scene(SceneConfig(seed=10, preset="boxes", num_cameras=2, image_size=(36, 64)))
    spec = b.spec
    cfg = PhotometricConfig()
    views = [
        Camera(b.rig.cameras[i].intrinsics, camera_pose_at(b.rig, i, 1))
        for i in range(2)
    ]
    plan = ContextPlan(b.rig)
    render = RenderConfig(samples=64, t_near=1.0, t_far=16.0, resolution=(36, 64))

    def loss_of(sigma):
        fld = DensityField(sigma, spec)
        depths = [render_view(fld, v, render) for v in views]
        return cast_loss(plan, b.images, depths, cfg)[0]

    base = loss_of(b.density_gt.sigma)
    rng = np.random.default_rng(1010)
    margin = np.inf
    for _ in range(100):
        noise = rng.uniform(-0.1 * b.scene.sigma_occ, 0.1 * b.scene.sigma_occ, spec.dims)
        perturbed = loss_of(np.clip(b.density_gt.sigma + noise, 0.0, None))
        assert perturbed > base
        margin = min(margin, perturbed / base)
    report(5, "self-supervision discriminates",
           f"100/100 perturbations worse; min ratio {margin:.2f}")


def test_06_selftraining_improves_geometry(tmp_path):
    """cmd_selftrain from perturbed init: >=50% loss and >=30% depth error
    reduction within 200 steps."""
    raw = {
        "scene": {
            "seed": 11, "preset": "boxes", "dims": [32, 32, 8],
            "voxel_size": 0.4, "num_cameras": 2, "image_size": [36, 64],
        },
        "render": {"S": 64, "t_near": 1.0, "t_far": 16.0, "resolution": [36, 64]},
        "optimize": {
            "steps": 200, "step_size": 100.0, "init": "perturbed_gt",
            "perturbation": 0.1, "lidar_samples": 300,
        },
        "output_dir": str(tmp_path / "scene"),
    }
    cfg = cli.ExperimentConfig.from_dict(raw)
    scene = cli.cmd_gen(cfg)
    cfg.output_dir = str(tmp_path / "train")
    rep = cli.cmd_selftrain(cfg, scene)
    loss_drop = 1.0 - rep["final_total"] / rep["initial_total"]
    err_drop = 1.0 - rep["final_depth_err"] / rep["initial_depth_err"]
    assert loss_drop >= 0.5
    assert err_drop >= 0.3
    report(6, "self-training improves geometry",
           f"objective -{loss_drop * 100:.1f}% (>=50%), depth error "
           f"-{err_drop * 100:.1f}% (>=30%) in {rep['steps']} steps")


def test_07_pooling_oracle():
    """voxel_pool equals the brute-force scatter mean on 200 random cases."""
    rng = np.random.default_rng(7)
    for case in range(200):
        dims = tuple(int(d) for d in rng.integers(2, 17, size=3))
        origin = rng.uniform(-3, 3, size=3)
        vs = float(rng.uniform(0.2, 1.5))
        spec = VoxelGridSpec(dims, origin, vs)
        n = int(rng.integers(1, 10001))
        c = int(rng.integers(1, 5))
        span = np.array(dims) * vs
        pts = rng.uniform(origin - 0.2 * span, origin + 1.2 * span, size=(n, 3))
        feats = rng.normal(size=(n, c))
        got = voxel_pool(pts, feats, spec)
        acc = np.zeros((*dims, c))
        cnt = np.zeros(dims)
        for p, f in zip(pts, feats):
            idx = np.floor((p - origin) / vs).astype(int)
            if np.all(idx >= 0) and np.all(idx < dims):
                acc[tuple(idx)] += f
                cnt[tuple(idx)] += 1
        expect = np.divide(
            acc, cnt[..., None], out=np.zeros_like(acc), where=cnt[..., None] > 0
        )
        assert np.array_equal(got.data, np.moveaxis(expect, 3, 0)), case
    report(7, "pooling oracle", "200/200 randomized instances bit-identical")


def test_08_attention_algebra():
    """Encoder and decoder attention match straight-line math to 1e-12."""
    rng = np.random.default_rng(8)
    worst_attn = worst_dec = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        wx = int(rng.integers(1, 4))
        n = wx * 2
        data = rng.normal(size=(d, wx * 2, 2, 1))
        wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
        bias = rng.normal(size=(n, n))
        spec = VoxelGridSpec(data.shape[1:], np.zeros(3), 1.0)
        out = windowed_attention(
            OccupancyFeature(data, spec),
            WindowedAttentionParams((wx, 2, 1), wq, wk, wv, bias),
        )
        nx = data.shape[1] // wx
        for bx in range(nx):
            tokens = []
            for ix in range(wx):
                for iy in range(2):
                    tokens.append(data[:, bx * wx + ix, iy, 0])
            tokens = np.array(tokens)
            logits = (tokens @ wq) @ (tokens @ wk).T / np.sqrt(d) + bias
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            assert np.all(np.abs(attn.sum(axis=1) - 1.0) <= 1e-6)
            res = attn @ (tokens @ wv)
            t = 0
            for ix in range(wx):
                for iy in range(2):
                    diff = np.abs(out.data[:, bx * wx + ix, iy, 0] - res[t]).max()
                    worst_attn = max(worst_attn, diff)
                    t += 1
        assert worst_attn <= 1e-12

        c, nq, v = 3, 3, 8
        g = OccupancyFeature(
            rng.normal(size=(c, 2, 2, 2)), VoxelGridSpec((2, 2, 2), np.zeros(3), 1.0)
        )
        qs = SemanticQuerySet(
            x=rng.normal(size=(nq, c)),
            fq=rng.normal(size=(c, c)), fk=rng.normal(size=(c, c)),
            fv=rng.normal(size=(c, c)),
            class_head=rng.normal(size=(c, 4)), mask_head=rng.normal(size=(c, c)),
        )
        mask = rng.uniform(size=(nq, v)) > 0.4
        x2, _, _, _ = masked_decode(g, qs, mask)
        tokens = g.data.reshape(c, -1).T
        for q in range(nq):
            allowed = np.where(mask[q])[0]
            if allowed.size == 0:
                expect = qs.x[q]
            else:
                logits = (qs.x[q] @ qs.fq) @ (tokens[allowed] @ qs.fk).T
                e = np.exp(logits - logits.max())
                expect = qs.x[q] + (e / e.sum()) @ (tokens[allowed] @ qs.fv)
            worst_dec = max(worst_dec, np.abs(x2[q] - expect).max())
        assert worst_dec <= 1e-12
    # -inf mask entries carry exactly zero weight
    w = softmax(np.array([0.3, -np.inf, 1.2]))
    assert w[1] == 0.0
    report(8, "attention algebra",
           f"50 instances, worst |diff| encoder {worst_attn:.2e}, "
           f"decoder {worst_dec:.2e} <= 1e-12")


def test_09_metrics_oracle():
    """evaluate equals the triple-loop oracle; fixture IoU_1 = 0.4 exact."""
    from test_metrics import occ_of, oracle_eval

    rng = np.random.default_rng(9)
    for _ in range(100):
        pred = occ_of(rng.integers(0, 5, size=(8, 8, 8)))
        gt = occ_of(rng.integers(0, 5, size=(8, 8, 8)))
        r = evaluate(pred, gt)
        iou, per, miou = oracle_eval(pred, gt)
        assert r.iou == pytest.approx(iou, abs=1e-12)
        assert r.miou == pytest.approx(miou, abs=1e-12)
        assert set(r.per_class_iou) == set(per)
    pred = np.full((4, 4, 4), 4)
    gt = np.full((4, 4, 4), 4)
    pred.ravel()[:8] = 1
    gt.ravel()[4:10] = 1
    r = evaluate(occ_of(pred), occ_of(gt))
    assert r.per_class_iou[1] == 0.4
    report(9, "metrics oracle", "100 random grids match; fixture IoU_1 = 0.4 exact")


def test_10_pipeline_shape_contract():
    """64-channel toy: explicit + implicit fuse to 128 channels and
    compress (16,16,8) -> (8,8,4), mirroring the full-scale pattern."""
    rng = np.random.default_rng(10)
    cf = 64
    full = VoxelGridSpec((16, 16, 8), np.zeros(3), 0.5)
    half = full.halved()
    h, w, cd = 10, 16, 4
    intr = Intrinsics(fx=12.0, fy=12.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    feats = rng.uniform(size=(h, w, cf))
    probs = rng.uniform(size=(h, w, cd))
    probs /= probs.sum(axis=2, keepdims=True)
    dist = DepthDistribution(uniform_depth_bins(cd, 1.0, 7.0), probs)
    pos_cam, lifted = lift(feats, dist, intr)
    pose = level_camera_mount(0.0, [-0.1, 4.03, 2.01])
    explicit = voxel_pool(pose.apply(pos_cam), lifted, full)
    assert explicit.data.shape == (cf, 16, 16, 8)

    rig = CameraRig((Camera(intr, pose),), {0: Pose.identity()})
    queries = rng.normal(size=(cf, *half.dims))
    implicit_half = idm_sample(
        half, queries, [feats], rig, offsets=np.zeros((2, 2)), weights=np.zeros(2)
    )
    assert implicit_half.data.shape == (cf, 8, 8, 4)
    implicit = upsample_trilinear(implicit_half, full)
    assert implicit.data.shape == (cf, 16, 16, 8)

    c_out = 96
    wgt = rng.normal(size=(c_out, 2 * cf, 3, 3, 3)) * 0.05
    fused = fuse_and_compress(explicit, implicit, wgt)
    assert fused.data.shape == (c_out, 8, 8, 4)
    assert fused.spec.dims == (8, 8, 4)
    report(10, "pipeline shape contract",
           f"64+64 -> 128 channels fused, (16,16,8) -> {fused.data.shape[1:]}")


def test_11_cli_determinism(tmp_path):
    """Every command repeated with the same config produces identical bytes."""
    from test_cli import make_cfg, tree_bytes

    scene_cfg = make_cfg(tmp_path, "scene")
    scene = cli.cmd_gen(scene_cfg)
    pairs = {}
    for run in ("x", "y"):
        cfg = make_cfg(tmp_path, f"gen_{run}")
        cli.cmd_gen(cfg)
        cfg = make_cfg(tmp_path, f"render_{run}")
        cli.cmd_render(cfg, scene)
        cfg = make_cfg(tmp_path, f"train_{run}")
        cli.cmd_selftrain(cfg, scene)
        cfg = make_cfg(tmp_path, f"eval_{run}")
        cli.cmd_eval(cfg, f"{scene}/grid.raw", scene, visible=True)
    for stage in ("gen", "render", "train", "eval"):
        a = tree_bytes(tmp_path / f"{stage}_x")
        b = tree_bytes(tmp_path / f"{stage}_y")
        assert a.keys() == b.keys(), stage
        for k in a:
            assert a[k] == b[k], (stage, k)
        pairs[stage] = len(a)
    report(11, "determinism",
           "byte-identical artifacts: " +
           ", ".join(f"{s} ({n} files)" for s, n in pairs.items()))
