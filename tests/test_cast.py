"""Tests for the context-aware photometric self-training losses."""

import warnings

import numpy as np
import pytest
from helpers import grad_check, level_camera_mount

from occgeom import cast
from occgeom.camera import (
    Camera,
    CameraRig,
    Intrinsics,
    Pose,
    camera_pose_at,
    pixel_grid,
    relative_pose,
    unit_camera_rays,
)
from occgeom.cast import (
    ContextPlan,
    PhotometricConfig,
    cast_loss,
    depth_bin_cross_entropy,
    depth_l1_loss,
    photometric_loss,
    pretrain_loss,
    ssim,
    warp_image,
)
from occgeom.renderer import DensityField, DepthMap, RayPlan, render_view
from occgeom.synthscene import SceneConfig, build_scene, sparse_lidar
from occgeom.tensor import bilinear_sample, bilinear_sample_grad
from occgeom.view_transform import DepthDistribution, VoxelGridSpec, uniform_depth_bins

CFG = PhotometricConfig()


def smooth_image(h, w, shift=0.0):
    us, vs = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    r = 0.5 + 0.25 * np.sin(0.09 * us + shift) + 0.2 * np.cos(0.07 * vs)
    g = 0.5 + 0.2 * np.sin(0.05 * (us + vs))
    b = 0.5 + 0.15 * np.cos(0.08 * us - 0.06 * vs)
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0)


def boxes_bundle(seed=11, n_cams=2, image_size=(36, 64)):
    return build_scene(
        SceneConfig(seed=seed, preset="boxes", num_cameras=n_cams, image_size=image_size)
    )


class TestConfig:
    def test_defaults_match_training_recipe(self):
        assert CFG.alpha == 0.85
        assert CFG.lambda_t == 1.0
        assert CFG.lambda_sp == 0.1
        assert CFG.lambda_spt == 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            PhotometricConfig(alpha=1.5)
        with pytest.raises(ValueError):
            PhotometricConfig(ssim_window=4)
        with pytest.raises(ValueError):
            PhotometricConfig(lambda_sp=-0.1)


class TestWarpImage:
    def test_identity_context_reproduces_image(self):
        b = boxes_bundle()
        img = b.images[(0, 1)]
        dm = b.gt_depths[(0, 1)]
        pose = relative_pose("temporal", b.rig, 0, 0, 1, 1)
        intr = b.rig.cameras[0].intrinsics
        recon, valid, _ = warp_image(img, dm, pose, intr, intr)
        assert valid.sum() > 100
        assert np.array_equal(valid, dm.valid)
        np.testing.assert_allclose(recon[valid], img[valid], atol=1e-12)

    def test_all_invalid_depth(self):
        b = boxes_bundle()
        img = b.images[(0, 1)]
        dm = b.gt_depths[(0, 1)]
        empty = DepthMap(depth=np.zeros_like(dm.depth), valid=np.zeros_like(dm.valid))
        pose = relative_pose("temporal", b.rig, 0, 0, 0, 1)
        intr = b.rig.cameras[0].intrinsics
        recon, valid, drecon = warp_image(img, empty, pose, intr, intr)
        assert not valid.any()
        assert np.all(recon == 0.0) and np.all(drecon == 0.0)

    def test_axial_translation_matches_plane_rescale(self):
        # camera slides toward a fronto-parallel textured plane: the warp
        # must equal the analytic center-scaling of the source image
        h, w = 40, 60
        intr = Intrinsics(fx=50.0, fy=50.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                          width=w, height=h)
        d_plane, advance = 8.0, 2.0
        mount = level_camera_mount(0.0, [0.0, 0.0, 0.0])
        rig = CameraRig(
            (Camera(intr, mount),),
            {0: Pose.identity(), 1: Pose(np.eye(3), np.array([advance, 0.0, 0.0]))},
        )
        src = smooth_image(h, w)
        us, vs = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        hx = (us - intr.cx) / intr.fx
        hy = (vs - intr.cy) / intr.fy
        norm = np.sqrt(hx**2 + hy**2 + 1.0)
        depth = DepthMap(
            depth=(d_plane - advance) * norm,  # ray distance to the plane
            valid=np.ones((h, w), dtype=bool),
        )
        pose = relative_pose("temporal", rig, 0, 0, 0, 1)
        recon, valid, _ = warp_image(src, depth, pose, intr, intr)
        scale = (d_plane - advance) / d_plane
        u_src = (us - intr.cx) * scale + intr.cx
        v_src = (vs - intr.cy) * scale + intr.cy
        expect = smooth_image_at(u_src, v_src)
        np.testing.assert_allclose(recon[valid], expect[valid], atol=1e-3)

    def test_depth_gradient(self):
        # small frozen scene: the loss is only piecewise smooth (bilinear
        # cells, L1 sign), so the check runs where no coordinate straddles
        # a kink
        spec = VoxelGridSpec((24, 24, 8), np.zeros(3), 0.4)
        b = build_scene(
            SceneConfig(seed=5, preset="boxes", dims=spec.dims, num_cameras=2, image_size=(16, 24))
        )
        src, ref = b.images[(0, 0)], b.images[(0, 1)]
        dm = b.gt_depths[(0, 1)]
        pose = relative_pose("temporal", b.rig, 0, 0, 0, 1)
        intr = b.rig.cameras[0].intrinsics
        recon, valid, drecon = warp_image(src, dm, pose, intr, intr)
        _, gl = photometric_loss(ref, recon, valid, CFG)
        gdepth = np.sum(gl * drecon, axis=2)

        def f(dvec):
            dm2 = DepthMap(depth=dvec.reshape(dm.depth.shape), valid=dm.valid)
            r2, v2, _ = warp_image(src, dm2, pose, intr, intr)
            return photometric_loss(ref, r2, v2, CFG)[0]

        assert grad_check(f, dm.depth.ravel(), gdepth.ravel(), eps=1e-6) < 1e-4


def smooth_image_at(u, v):
    r = 0.5 + 0.25 * np.sin(0.09 * u) + 0.2 * np.cos(0.07 * v)
    g = 0.5 + 0.2 * np.sin(0.05 * (u + v))
    b = 0.5 + 0.15 * np.cos(0.08 * u - 0.06 * v)
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0)


class TestSsim:
    def test_identical_images(self):
        img = smooth_image(9, 11)
        np.testing.assert_allclose(ssim(img, img), 1.0, atol=1e-12)

    def test_constant_images_formula(self):
        a = np.zeros((8, 8, 1))
        b = np.ones((8, 8, 1))
        c1, c2 = 0.01**2, 0.03**2
        # interior windows see mu_a=0, mu_b=1, all (co)variances 0
        expect = (c1 * c2) / ((1.0 + c1) * c2)
        got = ssim(a, b)[3, 3, 0]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_tiny_noise_stays_high(self):
        rng = np.random.default_rng(0)
        a = smooth_image(12, 14)
        b = np.clip(a + rng.uniform(-1e-4, 1e-4, a.shape), 0, 1)
        assert ssim(a, b).min() > 0.999

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(7, 9, 3))
        b = rng.uniform(size=(7, 9, 3))
        np.testing.assert_allclose(ssim(a, b), ssim(b, a), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((3, 3, 1)), np.zeros((3, 4, 1)))

    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    def test_box_mean_self_adjoint(self, window):
        # <B x, y> == <x, B y>: the SSIM gradient applies B as its own adjoint
        rng = np.random.default_rng(window)
        for shape in ((9, 11), (6, 13, 3)):
            x, y = rng.normal(size=shape), rng.normal(size=shape)
            lhs = float(np.sum(cast._box_mean(x, window) * y))
            rhs = float(np.sum(x * cast._box_mean(y, window)))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


class TestPhotometricLoss:
    def test_identical_zero(self):
        img = smooth_image(10, 12)
        valid = np.ones((10, 12), dtype=bool)
        assert photometric_loss(img, img, valid, CFG)[0] == pytest.approx(0.0, abs=1e-15)

    def test_pure_l1(self):
        cfg = PhotometricConfig(alpha=0.0)
        a = np.full((6, 6, 3), 0.25)
        b = np.full((6, 6, 3), 0.75)
        valid = np.ones((6, 6), dtype=bool)
        assert photometric_loss(a, b, valid, cfg)[0] == pytest.approx(0.5)

    def test_pure_ssim_matches_direct_formula(self):
        cfg = PhotometricConfig(alpha=1.0)
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(8, 10, 3))
        b = rng.uniform(size=(8, 10, 3))
        valid = np.ones((8, 10), dtype=bool)
        assert photometric_loss(a, a, valid, cfg)[0] == pytest.approx(0.0, abs=1e-15)
        got, _ = photometric_loss(a, b, valid, cfg)
        expect = np.mean(0.5 * (1.0 - ssim(a, b, cfg.ssim_window)))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(size=(6, 7, 3))
            b = rng.uniform(size=(6, 7, 3))
            valid = rng.uniform(size=(6, 7)) > 0.3
            assert photometric_loss(a, b, valid, CFG)[0] >= 0.0

    def test_empty_valid_warns_and_returns_zero(self):
        a = smooth_image(5, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # counted by cast_loss, not warned
            out, grad = photometric_loss(a, a, np.zeros((5, 5), dtype=bool), CFG)
        assert out == 0.0
        assert grad.shape == a.shape and np.all(grad == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(size=(7, 8, 3))
        recon = rng.uniform(size=(7, 8, 3))
        valid = rng.uniform(size=(7, 8)) > 0.25
        _, g = photometric_loss(ref, recon, valid, CFG)

        def f(x):
            return photometric_loss(ref, x.reshape(7, 8, 3), valid, CFG)[0]

        assert grad_check(f, recon.ravel(), g.ravel(), eps=1e-6) < 1e-4

    @pytest.mark.parametrize(
        "image, mask, shapes",
        [
            ((4, 5, 3), (1, 5), r"\(1, 5\) vs images \(4, 5, 3\)"),  # would broadcast
            ((4, 5, 3), (5, 4), r"\(5, 4\) vs images \(4, 5, 3\)"),
            ((4, 5, 3), (4, 5, 3), r"\(4, 5, 3\) vs images \(4, 5, 3\)"),
            ((4, 5), (4, 5), r"\(4, 5\) vs images \(4, 5\)"),
        ],
        ids=["one-row-mask", "transposed-mask", "3-D-mask", "2-D-images"],
    )
    def test_rejects_mask_not_of_the_images(self, image, mask, shapes):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(size=image), rng.uniform(size=image)
        with pytest.raises(ValueError, match=shapes):
            photometric_loss(a, b, np.ones(mask, dtype=bool), CFG)


class TestCastLoss:
    def _static_bundle(self):
        # two cameras with IDENTICAL pose and no ego motion: every context
        # warp is the identity, so all terms must vanish
        spec = VoxelGridSpec((24, 24, 8), np.zeros(3), 0.4)
        b = build_scene(
            SceneConfig(seed=4, preset="boxes", dims=spec.dims, num_cameras=2, image_size=(24, 40))
        )
        intr = b.rig.cameras[0].intrinsics
        mount = b.rig.cameras[0].pose
        rig = CameraRig(
            (Camera(intr, mount), Camera(intr, mount)),
            {0: Pose.identity(), 1: Pose.identity()},
        )
        cam = Camera(intr, camera_pose_at(rig, 0, 1))
        from occgeom.synthscene import raymarch_depth_oracle, synthesize_image
        dm = raymarch_depth_oracle(b.grid, spec, cam, (24, 40))
        img = synthesize_image(b.grid, spec, cam, (24, 40))
        images = {(c, t): img for c in range(2) for t in (0, 1)}
        return rig, images, [dm, dm]

    def test_static_scene_all_terms_zero(self):
        rig, images, depths = self._static_bundle()
        total, bd, _ = cast_loss(ContextPlan(rig, (24, 40)), images, depths, CFG)
        assert bd["L_t"] == pytest.approx(0.0, abs=1e-6)
        assert bd["L_sp"] == pytest.approx(0.0, abs=1e-6)
        assert bd["L_spt"] == pytest.approx(0.0, abs=1e-6)
        assert total == pytest.approx(0.0, abs=1e-6)

    def test_lambda_zeroing(self):
        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        cfg = PhotometricConfig(lambda_sp=0.0, lambda_spt=0.0)
        total, bd, _ = cast_loss(ContextPlan(b.rig, (36, 64)), b.images, depths, cfg)
        assert total == pytest.approx(cfg.lambda_t * bd["L_t"], abs=1e-15)

    def test_breakdown_is_json_ready(self):
        import json

        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        _, bd, _ = cast_loss(ContextPlan(b.rig, (36, 64)), b.images, depths, CFG)
        parsed = json.loads(json.dumps(bd))
        assert set(parsed) == {
            "L_t", "L_sp", "L_spt", "total", "active_pairs", "empty_pairs",
            "valid_px_t", "valid_px_sp", "valid_px_spt",
        }

    def test_perturbed_density_increases_loss(self):
        b = boxes_bundle(seed=10)
        spec = b.spec
        views = [
            Camera(b.rig.cameras[i].intrinsics, camera_pose_at(b.rig, i, 1))
            for i in range(2)
        ]
        plan = ContextPlan(b.rig, (36, 64))

        def loss_of(sig):
            fld = DensityField(sig, spec)
            depths = [render_view(fld, v, (36, 64), 1.0, 16.0, 64) for v in views]
            return cast_loss(plan, b.images, depths, CFG)[0]

        base = loss_of(b.density_gt.sigma)
        rng = np.random.default_rng(99)
        for _ in range(10):
            noise = rng.uniform(-0.1 * b.scene.sigma_occ, 0.1 * b.scene.sigma_occ, spec.dims)
            assert loss_of(np.clip(b.density_gt.sigma + noise, 0, None)) > base

    def test_gauge_invariance(self):
        # a global rigid transform of the world moves every ego pose but
        # leaves all relative geometry, hence the loss, unchanged
        b = boxes_bundle(seed=13)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        base = cast_loss(ContextPlan(b.rig, (36, 64)), b.images, depths, CFG)[0]
        from helpers import rotation_from_angles

        g = Pose(rotation_from_angles(0.7, 0.2, -0.4), np.array([5.0, -3.0, 2.0]))
        moved = CameraRig(
            b.rig.cameras,
            {t: g.compose(p) for t, p in b.rig.ego_poses.items()},
        )
        after = cast_loss(ContextPlan(moved, (36, 64)), b.images, depths, CFG)[0]
        assert after == pytest.approx(base, abs=1e-9)

    def test_single_camera_spatial_terms_inactive(self):
        b = boxes_bundle(seed=6)
        intr = b.rig.cameras[0].intrinsics
        rig1 = CameraRig((b.rig.cameras[0],), dict(b.rig.ego_poses))
        images = {(0, t): b.images[(0, t)] for t in (0, 1)}
        plan = ContextPlan(rig1, (36, 64))
        total, bd, _ = cast_loss(plan, images, [b.gt_depths[(0, 1)]], CFG)
        assert bd["L_sp"] == 0.0 and bd["L_spt"] == 0.0
        assert total == pytest.approx(bd["L_t"] * CFG.lambda_t)

    def test_pretrain_without_samples_is_cast_loss(self):
        # with no sparse samples the depth L1 adds nothing: the pretraining
        # total, context terms and depth gradients are cast_loss's, bit for bit
        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        plan = ContextPlan(b.rig, (36, 64))
        t1, bd1, g1 = cast_loss(plan, b.images, depths, CFG)
        t2, bd2, g2 = pretrain_loss(plan, b.images, depths, [None, None], CFG)
        assert t1 == t2 == bd2["L_cast"] and bd2["L_rd"] == 0.0
        assert {k: bd2[k] for k in bd1} == bd1
        assert len(g1) == len(g2) == 2 and g1[0].shape == depths[0].depth.shape
        assert all(np.array_equal(a, c) for a, c in zip(g1, g2))


class TestPretrainLoss:
    def test_perfect_predictions_near_zero(self):
        rig, images, depths = TestCastLoss()._static_bundle()
        dm = depths[0]
        pts = sparse_lidar(dm, 50, seed=0)
        bins = uniform_depth_bins(16, 1.0, 16.0)
        h, w = dm.depth.shape
        probs = np.zeros((h, w, 16))
        # one-hot at each pixel's nearest bin: the cross entropy minimum
        nearest = np.argmin(np.abs(dm.depth[..., None] - bins), axis=-1)
        np.put_along_axis(probs, nearest[..., None], 1.0, axis=-1)
        dists = [DepthDistribution(bins, probs), None]
        total, bd, _ = pretrain_loss(ContextPlan(rig, (h, w)), images, depths, [pts, None], CFG)
        assert depth_bin_cross_entropy(dists, [pts, None]) == pytest.approx(0.0, abs=1e-12)
        assert bd["L_rd"] == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(0.0, abs=1e-6)

    def test_one_meter_offset_gives_unit_l1(self):
        b = boxes_bundle(seed=6)
        dm = b.gt_depths[(0, 1)]
        pts = sparse_lidar(dm, 100, seed=1)
        shifted = DepthMap(depth=dm.depth + 1.0, valid=dm.valid)
        plan = ContextPlan(b.rig, (36, 64))
        total, bd, _ = pretrain_loss(
            plan, b.images, [shifted, b.gt_depths[(1, 1)]], [pts, None], CFG
        )
        assert bd["L_rd"] == pytest.approx(1.0, abs=1e-9)

    def test_empty_sparse_set(self):
        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        plan = ContextPlan(b.rig, (36, 64))
        _, bd, _ = pretrain_loss(plan, b.images, depths, [None, None], CFG)
        assert bd["L_rd"] == 0.0
        assert depth_bin_cross_entropy([None, None], [None, None]) == 0.0

    def test_cross_entropy_prefers_correct_bin(self):
        bins = uniform_depth_bins(4, 1.0, 9.0)
        probs = np.zeros((1, 1, 4))
        probs[0, 0, 2] = 1.0
        dist = DepthDistribution(bins, probs)
        right = depth_bin_cross_entropy([dist], [np.array([[0, 0, bins[2]]])])
        wrong = depth_bin_cross_entropy([dist], [np.array([[0, 0, bins[0]]])])
        assert right == pytest.approx(0.0, abs=1e-12)
        assert wrong > 10.0

    @pytest.mark.parametrize(
        "u, v", [(-1, 3), (5, 30), (2.5, 3)], ids=["negative", "out-of-range", "fractional"]
    )
    def test_bad_sparse_pixel_rejected(self, u, v):
        h, w = 30, 40
        dm = DepthMap(depth=np.ones((h, w)), valid=np.ones((h, w), bool))
        bins = uniform_depth_bins(4, 1.0, 9.0)
        dist = DepthDistribution(bins, np.full((h, w, 4), 0.25))
        pts = np.array([[1.0, 1.0, 2.0], [u, v, 2.0]])
        with pytest.raises(ValueError, match=r"camera 1: sparse depth sample 1 at pixel"):
            depth_l1_loss([dm, dm], [None, pts])
        with pytest.raises(ValueError, match=r"camera 1: sparse depth sample 1 at pixel"):
            depth_bin_cross_entropy([None, dist], [None, pts])

    @pytest.mark.parametrize(
        "pts, shape",
        [([[1.0, 1.0, 2.0, 2.0, 1.0, 3.0]], r"\(1, 6\)"), ([1.0, 1.0, 2.0], r"\(3,\)"),
         ([[[1.0, 1.0, 2.0]]], r"\(1, 1, 3\)")],
        ids=["1x6", "flat", "3-D"],
    )
    def test_sparse_not_n_by_3_rejected(self, pts, shape):
        # a [1 x 6] entry is not two (u, v, depth) samples
        h, w = 4, 6
        dm = DepthMap(depth=np.ones((h, w)), valid=np.ones((h, w), bool))
        dist = DepthDistribution(uniform_depth_bins(4, 1.0, 9.0), np.full((h, w, 4), 0.25))
        error = rf"camera 1: sparse depth is {shape}, not \[N x 3\]"
        with pytest.raises(ValueError, match=error):
            depth_l1_loss([dm, dm], [None, np.array(pts)])
        with pytest.raises(ValueError, match=error):
            depth_bin_cross_entropy([None, dist], [None, np.array(pts)])

    def test_sparse_count_must_match_cameras(self):
        # three sparse entries for two cameras: the third must not be
        # counted, unpaired, into the mean, nor be dropped silently
        h, w = 4, 6
        dm = DepthMap(depth=np.ones((h, w)), valid=np.ones((h, w), bool))
        pts = np.array([[1.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match=r"3 sparse depth entries for 2 cameras"):
            depth_l1_loss([dm, dm], [pts, pts, pts])
        with pytest.raises(ValueError, match=r"1 sparse depth entries for 2 cameras"):
            depth_l1_loss([dm, dm], [pts])

    def test_cross_entropy_sparse_count_must_match_cameras(self):
        h, w = 4, 6
        dist = DepthDistribution(uniform_depth_bins(4, 1.0, 9.0), np.full((h, w, 4), 0.25))
        pts = np.array([[1.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match=r"3 sparse depth entries for 2 cameras"):
            depth_bin_cross_entropy([dist, None], [pts, pts, pts])
        with pytest.raises(ValueError, match=r"1 sparse depth entries for 2 cameras"):
            depth_bin_cross_entropy([dist, dist], [pts])

    def test_gradient_descent_reduces_loss(self):
        # small optimization through the full chain with a tiny step size:
        # the objective must decrease monotonically over the first steps
        b = boxes_bundle(seed=11, image_size=(24, 40))
        spec = b.spec
        views = [
            Camera(b.rig.cameras[i].intrinsics, camera_pose_at(b.rig, i, 1))
            for i in range(2)
        ]
        sparse = [sparse_lidar(b.gt_depths[(i, 1)], 150, seed=i) for i in range(2)]
        rng = np.random.default_rng(8)
        sigma = np.clip(
            b.density_gt.sigma + rng.uniform(-5, 5, spec.dims), 0.0, None
        )
        plans = [RayPlan(spec, v, (24, 40), 1.0, 16.0, 32) for v in views]
        ctx_plan = ContextPlan(b.rig, (24, 40))
        losses = []
        for step in range(21):
            fld = DensityField(sigma, spec)
            depths = [render_view(fld, v, (24, 40), 1.0, 16.0, 32) for v in views]
            total, _, grads = pretrain_loss(ctx_plan, b.images, depths, sparse, CFG)
            losses.append(total)
            g = np.zeros_like(sigma)
            for i, plan in enumerate(plans):
                plan.render(fld)
                g += plan.grad_sigma(grads[i])
            sigma = np.clip(sigma - 1e-2 * g, 0.0, None)
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]


# -- context plan: equivalence with the full-image warp ----------------------


def reference_warp(src_img, dm, pose, k_src, k_tgt):
    """Warp every target pixel, sample and differentiate the whole image,
    then mask with np.where: the arithmetic the context plan must reproduce
    bit for bit."""
    h, w = dm.depth.shape
    units = unit_camera_rays(k_tgt, pixel_grid(h, w))[0]
    inv = pose.inverse()
    p_src = inv.apply(dm.depth.ravel()[:, None] * units)
    z = p_src[:, 2]
    front = z > 1e-9
    zsafe = np.where(front, z, 1.0)
    u = k_src.fx * p_src[:, 0] / zsafe + k_src.cx
    v = k_src.fy * p_src[:, 1] / zsafe + k_src.cy
    uv = np.stack([u, v], axis=1)
    samples, in_bounds = bilinear_sample(src_img, uv)
    valid = dm.valid.ravel() & front & in_bounds
    recon = np.where(valid[:, None], samples, 0.0).reshape(h, w, -1)
    dp_dd = units @ inv.rotation.T
    du_dd = k_src.fx * (dp_dd[:, 0] * zsafe - p_src[:, 0] * dp_dd[:, 2]) / zsafe**2
    dv_dd = k_src.fy * (dp_dd[:, 1] * zsafe - p_src[:, 1] * dp_dd[:, 2]) / zsafe**2
    _, gu, gv = bilinear_sample_grad(src_img, uv)
    drecon = gu * du_dd[:, None] + gv * dv_dd[:, None]
    drecon = np.where(valid[:, None], drecon, 0.0).reshape(h, w, -1)
    return recon, valid.reshape(h, w), drecon


def full_photometric_loss(ref, recon, valid, cfg):
    """photometric_loss on the whole image: the SSIM statistics and their
    adjoint over every pixel, masked afterwards; the bits the valid-box
    crop must reproduce."""
    m = np.asarray(valid, dtype=bool)[:, :, None]
    n = int(m.sum()) * ref.shape[2]
    if n == 0:
        return 0.0, np.zeros_like(recon)
    x, y = ref * m, recon * m
    stats = cast._ssim_stats(x, y, cfg.ssim_window)
    _, _, a1, a2, b1, b2 = stats
    smap = (a1 * a2) / (b1 * b2)
    per = 0.5 * cfg.alpha * (1.0 - smap) + (1.0 - cfg.alpha) * np.abs(x - y)
    grad_smap = np.where(m, -0.5 * cfg.alpha / n, 0.0)
    g = cast._ssim_backward(x, y, grad_smap, cfg.ssim_window, stats, smap)
    g += np.where(m, (1.0 - cfg.alpha) / n * np.sign(y - x), 0.0)
    return float(np.sum(per * m) / n), g * m


def same_bits(a, b):
    """Equal shapes and bytes: signed zeros must match too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPhotometricCrop:
    """photometric_loss runs the SSIM on the valid box widened by the
    window radius; loss and gradient must be the whole image's bit for
    bit."""

    H, W = 11, 14

    def check(self, valid, window):
        rng = np.random.default_rng(int(valid.sum()) + window)
        ref = rng.uniform(size=(self.H, self.W, 3))
        recon = np.clip(ref + rng.normal(0, 0.1, ref.shape), 0.0, 1.0)
        cfg = PhotometricConfig(ssim_window=window)
        loss, grad = photometric_loss(ref, recon, valid, cfg)
        want_loss, want_grad = full_photometric_loss(ref, recon, valid, cfg)
        assert same_bits(loss, want_loss) and loss > 0.0
        assert same_bits(grad, want_grad)

    @staticmethod
    def blob(mask, rows, cols):
        mask[rows, cols] = True
        mask[rows.start + 1, cols.start] = False  # not a full rectangle
        return mask

    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize(
        "rows, cols",
        [
            (slice(0, 3), slice(4, 8)),  # top border
            (slice(8, 11), slice(5, 9)),  # bottom border
            (slice(3, 7), slice(0, 2)),  # left border
            (slice(4, 8), slice(11, 14)),  # right border
            (slice(0, 4), slice(0, 3)),  # the four corners
            (slice(0, 2), slice(10, 14)),
            (slice(7, 11), slice(0, 5)),
            (slice(9, 11), slice(12, 14)),
            (slice(1, 10), slice(1, 13)),  # one pixel from every border
            (slice(4, 7), slice(5, 9)),  # interior
        ],
    )
    def test_masks_at_borders_and_corners(self, rows, cols, window):
        self.check(self.blob(np.zeros((self.H, self.W), bool), rows, cols), window)

    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize("pixel", [(0, 0), (5, 7), (10, 13), (0, 13)])
    def test_single_pixel(self, pixel, window):
        valid = np.zeros((self.H, self.W), bool)
        valid[pixel] = True
        self.check(valid, window)

    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_full_and_scattered_masks(self, window):
        self.check(np.ones((self.H, self.W), bool), window)
        rng = np.random.default_rng(window)
        self.check(rng.uniform(size=(self.H, self.W)) < 0.2, window)
        two = np.zeros((self.H, self.W), bool)
        two[2, 3] = two[8, 11] = True  # two pixels far apart
        self.check(two, window)


def reference_cast(rig, images, depths, cfg):
    """Every pair warped in full and scored on the whole image by
    full_photometric_loss, empty pairs included."""
    pairs = cast.context_pairs(rig)
    lam = {"temporal": cfg.lambda_t, "spatial": cfg.lambda_sp,
           "spatial_temporal": cfg.lambda_spt}
    sums = dict.fromkeys(cast.KINDS, 0.0)
    valid_px = dict.fromkeys(cast.KINDS, 0)
    n_pairs = {k: sum(1 for p in pairs if p[0] == k) for k in cast.KINDS}
    grads = [np.zeros_like(dm.depth) for dm in depths]
    active = 0
    for kind, src, tgt in pairs:
        pose = relative_pose(kind, rig, src[0], tgt[0], src[1], tgt[1])
        k_src = rig.cameras[src[0]].intrinsics
        k_tgt = rig.cameras[tgt[0]].intrinsics
        recon, valid, drecon = reference_warp(images[src], depths[tgt[0]], pose, k_src, k_tgt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty pair warns no more
            pair_loss, gl = full_photometric_loss(images[tgt], recon, valid, cfg)
        sums[kind] += pair_loss
        valid_px[kind] += int(valid.sum())
        if valid.any():
            active += 1
            grads[tgt[0]] += (lam[kind] / n_pairs[kind]) * np.sum(gl * drecon, axis=2)
    terms = {k: (sums[k] / n_pairs[k] if n_pairs[k] else 0.0) for k in cast.KINDS}
    total = sum(lam[k] * terms[k] for k in cast.KINDS)
    breakdown = {
        "L_t": terms["temporal"], "L_sp": terms["spatial"],
        "L_spt": terms["spatial_temporal"], "total": total,
        "active_pairs": active, "empty_pairs": len(pairs) - active,
        "valid_px_t": valid_px["temporal"], "valid_px_sp": valid_px["spatial"],
        "valid_px_spt": valid_px["spatial_temporal"],
    }
    return total, breakdown, grads


def rendered_depths(b, seed, n_cams):
    """Depths rendered from a seeded perturbation of the true density."""
    rng = np.random.default_rng(seed)
    sigma = np.clip(b.density_gt.sigma + rng.uniform(-5, 5, b.spec.dims), 0.0, None)
    fld = DensityField(sigma, b.spec)
    views = [Camera(b.rig.cameras[i].intrinsics, camera_pose_at(b.rig, i, 1))
             for i in range(n_cams)]
    return [render_view(fld, v, (36, 64), 1.0, 16.0, 64) for v in views]


def assert_same_part(got, want, part):
    """Compare one part of a loss result with the reference: "loss" the
    total and breakdown, "grad" the depth gradients, signed zeros
    included."""
    if part == "loss":
        assert got[0] == want[0]
        assert got[1] == want[1]
    else:
        assert len(got[2]) == len(want[2])
        for g, r in zip(got[2], want[2]):
            assert same_bits(g, r)


def no_depth(dm):
    return DepthMap(depth=np.zeros_like(dm.depth), valid=np.zeros_like(dm.valid))


PARTS = pytest.mark.parametrize("part", ["loss", "grad"])


class TestContextPlan:
    @PARTS
    @pytest.mark.parametrize(
        "n_cams, active", [(2, 2), (4, 17)], ids=["2-camera", "4-camera"]
    )
    def test_matches_full_warp_reference_bitwise(self, n_cams, active, part):
        # 2-camera ring: the spatial pairs never overlap (4 of 6 empty);
        # 4-camera ring: 17 of 20 pairs overlap and the spatial terms count
        b = boxes_bundle(seed=11, n_cams=n_cams)
        depths = [b.gt_depths[(i, 1)] for i in range(n_cams)]
        plan = ContextPlan(b.rig, (36, 64))
        want = reference_cast(b.rig, b.images, depths, CFG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty pair is counted, not warned
            got = cast_loss(plan, b.images, depths, CFG)
        assert_same_part(got, want, part)
        assert got[1]["active_pairs"] == active
        assert got[1]["empty_pairs"] == len(plan.pairs) - active
        if n_cams == 4:
            assert got[1]["L_sp"] > 0.0 and got[1]["L_spt"] > 0.0

    @PARTS
    def test_one_plan_reused_on_three_depth_sets(self, part):
        b = boxes_bundle(seed=11, n_cams=4)
        plan = ContextPlan(b.rig, (36, 64))
        sparse = [sparse_lidar(b.gt_depths[(i, 1)], 100, seed=i) for i in range(4)]
        for seed in (1, 2, 3):
            depths = rendered_depths(b, seed, 4)
            cast_ref = reference_cast(b.rig, b.images, depths, CFG)
            l_rd, rd_grads = depth_l1_loss(depths, sparse)
            got = pretrain_loss(plan, b.images, depths, sparse, CFG)
            if part == "loss":
                assert got[1]["L_rd"] == l_rd
                assert got[1]["L_cast"] == cast_ref[0]
                assert got[0] == l_rd + cast_ref[0]
                assert {k: got[1][k] for k in cast_ref[1] if k != "total"} == {
                    k: v for k, v in cast_ref[1].items() if k != "total"
                }
            else:
                for g, rd, cg in zip(got[2], rd_grads, cast_ref[2]):
                    assert same_bits(g, rd + cg)

    @PARTS
    def test_all_invalid_depths(self, part):
        b = boxes_bundle(seed=11)
        depths = [no_depth(b.gt_depths[(i, 1)]) for i in range(2)]
        plan = ContextPlan(b.rig, (36, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cast_loss(plan, b.images, depths, CFG)
        assert_same_part(got, reference_cast(b.rig, b.images, depths, CFG), part)
        assert got[0] == 0.0
        assert got[1]["active_pairs"] == 0 and got[1]["empty_pairs"] == 6
        assert got[1]["valid_px_t"] == 0

    def test_photometric_grad_matches_two_pass_formula(self):
        # the shared statistics must give what recomputing them gives
        b = boxes_bundle(seed=11)
        ref, recon = b.images[(0, 1)], b.images[(0, 0)]
        valid = b.gt_depths[(0, 1)].valid
        m = valid[:, :, None]
        x, y = ref * m, recon * m
        n = int(valid.sum()) * 3
        grad_smap = np.where(m, -0.5 * CFG.alpha / n, 0.0)
        mu_a, mu_b, a1, a2, b1, b2 = cast._ssim_stats(x, y, CFG.ssim_window)
        d = b1 * b2
        s = (a1 * a2) / d
        t_const = (mu_a * (a2 - a1) - s * mu_b * (b2 - b1)) / d
        bm = lambda t: cast._box_mean(t, CFG.ssim_window)  # noqa: E731
        want = 2.0 * (bm(grad_smap * t_const) + x * bm(grad_smap * (a1 / d))
                      + y * bm(grad_smap * (-s * b1 / d)))
        want += np.where(m, (1.0 - CFG.alpha) / n * np.sign(y - x), 0.0)
        loss, grad = photometric_loss(ref, recon, valid, CFG)
        assert np.array_equal(grad, want * m)
        assert loss == float(
            np.sum((0.5 * CFG.alpha * (1.0 - ssim(x, y)) + (1 - CFG.alpha) * np.abs(x - y))
                   * m) / n
        )

    def test_rejects_wrong_resolution(self):
        b = boxes_bundle(seed=11)
        plan = ContextPlan(b.rig, (36, 64))
        small = DepthMap(depth=np.ones((24, 40)), valid=np.ones((24, 40), bool))
        depths = [b.gt_depths[(0, 1)], small]
        both_sides = r"camera 1: depth map is 40x24, the context plan is 64x36$"
        with pytest.raises(ValueError, match=both_sides):
            cast_loss(plan, b.images, depths, CFG)
        with pytest.raises(ValueError, match=r"camera 1: depth map is 40x24"):
            pretrain_loss(plan, b.images, depths, [None, None], CFG)

    def test_rejects_wrong_depth_count(self):
        b = boxes_bundle(seed=11)
        plan = ContextPlan(b.rig, (36, 64))
        three = [b.gt_depths[(i % 2, 1)] for i in range(3)]
        for depths, n in ((three, 3), (three[:1], 1)):
            with pytest.raises(ValueError, match=rf"^{n} depth maps for 2 cameras$"):
                cast_loss(plan, b.images, depths, CFG)


class TestSubsetWarp:
    """The plan's warp samples only valid pixels; on the pixels a full warp
    would mask away it must still agree with that warp bit for bit."""

    H, W = 9, 11
    INTR = Intrinsics(fx=8.0, fy=8.0, cx=5.0, cy=4.0, width=11, height=9)

    def check(self, src, dm, pose, k_src):
        want = reference_warp(src, dm, pose, k_src, self.INTR)
        got = warp_image(src, dm, pose, k_src, self.INTR)
        for g, r in zip(got, want):
            assert np.array_equal(g, r)
        return want[1]

    def depth(self, value=6.0, valid=None):
        shape = (self.H, self.W)
        return DepthMap(
            depth=np.full(shape, value) + np.linspace(0.0, 1.0, self.H * self.W).reshape(shape),
            valid=np.ones(shape, bool) if valid is None else valid,
        )

    @pytest.mark.parametrize(
        "yaw, offset", [(np.pi, [0.5, 0.0, 1.0]), (0.5 * np.pi, [0.0, 0.0, 6.3])],
        ids=["turned-away", "sideways-in-the-scene"],
    )
    def test_pixels_behind_the_source_camera(self, yaw, offset):
        # a source camera behind every target point, or in the middle of
        # them looking sideways; with z clamped to 1 some of the points
        # behind it would land inside the image
        from helpers import rotation_from_angles

        rot = rotation_from_angles(0.0, yaw)  # about the camera's y axis
        pose = Pose(rot, np.array(offset))
        src = smooth_image(self.H, self.W)
        dm = self.depth()
        p_src = pose.inverse().apply(
            dm.depth.ravel()[:, None] * unit_camera_rays(self.INTR, pixel_grid(self.H, self.W))[0]
        )
        behind = p_src[:, 2] <= 1e-9
        assert behind.any()
        u = self.INTR.fx * p_src[:, 0] + self.INTR.cx
        v = self.INTR.fy * p_src[:, 1] + self.INTR.cy
        assert np.any(behind & (u >= 0) & (u <= self.W - 1) & (v >= 0) & (v <= self.H - 1))
        valid = self.check(src, dm, pose, self.INTR)
        assert not np.any(valid.ravel() & behind)

    @pytest.mark.parametrize("cx, cy", [(10.0, 8.0), (0.0, 0.0), (10.0, 0.0)])
    def test_projections_exactly_on_the_image_border(self, cx, cy):
        # identity context: the target's center column and row have zero
        # ray offset, so they project exactly onto the source principal
        # point, put on u = W-1 / v = H-1 (or 0)
        k_src = Intrinsics(fx=8.0, fy=8.0, cx=cx, cy=cy, width=self.W, height=self.H)
        valid = self.check(smooth_image(self.H, self.W), self.depth(), Pose.identity(), k_src)
        col, row = int(self.INTR.cx), int(self.INTR.cy)
        assert valid[:, col].any() and valid[row, :].any()
        assert valid[row, col]  # exactly on the corner (cx, cy)
        # one pixel further out the projection leaves the image
        assert not valid[:, col + (1 if cx > 0 else -1)].any()
        assert not valid[row + (1 if cy > 0 else -1), :].any()

    def test_invalid_target_pixels(self):
        # holes in the target depth whose depths would otherwise warp fine
        rng = np.random.default_rng(3)
        holes = rng.uniform(size=(self.H, self.W)) < 0.4
        dm = self.depth(valid=~holes)
        pose = Pose(np.eye(3), np.array([0.3, -0.2, 0.1]))
        valid = self.check(smooth_image(self.H, self.W), dm, pose, self.INTR)
        assert valid.any()
        assert not np.any(valid & holes)
        full = self.depth()
        assert np.any(self.check(smooth_image(self.H, self.W), full, pose, self.INTR) & holes)
