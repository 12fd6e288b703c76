"""Tests for the context-aware photometric self-training losses."""

import dataclasses

import numpy as np
import pytest
from helpers import level_camera_mount, simple_rig

from occgeom import cast
from occgeom.camera import Camera, CameraRig, Intrinsics, Pose, camera_pose_at
from occgeom.cast import (
    PhotometricConfig,
    WarpContext,
    cast_loss,
    cast_loss_with_depth_grad,
    depth_bin_cross_entropy,
    depth_l1_loss,
    make_warp_context,
    photometric_loss,
    photometric_loss_grad,
    pretrain_loss,
    pretrain_loss_with_depth_grad,
    ssim,
    warp_image,
    warp_image_with_grad,
)
from occgeom.renderer import DensityField, DepthMap, render_view, render_view_grad_sigma
from occgeom.synthscene import build_scene, sparse_lidar
from occgeom.tensor import grad_check
from occgeom.view_transform import DepthDistribution, VoxelGridSpec, uniform_depth_bins

CFG = PhotometricConfig()


def smooth_image(h, w, shift=0.0):
    us, vs = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    r = 0.5 + 0.25 * np.sin(0.09 * us + shift) + 0.2 * np.cos(0.07 * vs)
    g = 0.5 + 0.2 * np.sin(0.05 * (us + vs))
    b = 0.5 + 0.15 * np.cos(0.08 * us - 0.06 * vs)
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0)


def boxes_bundle(seed=11, n_cams=2, image_size=(36, 64)):
    spec = VoxelGridSpec((32, 32, 8), np.zeros(3), 0.4)
    return build_scene(seed, spec, "boxes", num_cameras=n_cams, image_size=image_size)


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
        ctx = make_warp_context(b.rig, "temporal", (0, 1), (0, 1))
        intr = b.rig.cameras[0].intrinsics
        recon, valid = warp_image(img, dm, ctx, intr, intr)
        assert valid.sum() > 100
        assert np.array_equal(valid, dm.valid)
        np.testing.assert_allclose(recon[valid], img[valid], atol=1e-12)

    def test_all_invalid_depth(self):
        b = boxes_bundle()
        img = b.images[(0, 1)]
        dm = b.gt_depths[(0, 1)]
        empty = DepthMap(
            depth=np.zeros_like(dm.depth),
            valid=np.zeros_like(dm.valid),
            opacity=np.zeros_like(dm.opacity),
        )
        ctx = make_warp_context(b.rig, "temporal", (0, 0), (0, 1))
        intr = b.rig.cameras[0].intrinsics
        recon, valid = warp_image(img, empty, ctx, intr, intr)
        assert not valid.any()
        assert np.all(recon == 0.0)

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
            opacity=np.ones((h, w)),
        )
        ctx = make_warp_context(rig, "temporal", (0, 0), (0, 1))
        recon, valid = warp_image(src, depth, ctx, intr, intr)
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
        b = build_scene(5, spec, "boxes", num_cameras=2, image_size=(16, 24))
        src, ref = b.images[(0, 0)], b.images[(0, 1)]
        dm = b.gt_depths[(0, 1)]
        ctx = make_warp_context(b.rig, "temporal", (0, 0), (0, 1))
        intr = b.rig.cameras[0].intrinsics
        recon, valid, drecon = warp_image_with_grad(src, dm, ctx, intr, intr)
        gl = photometric_loss_grad(ref, recon, valid, CFG)
        gdepth = np.sum(gl * drecon, axis=2)

        def f(dvec):
            dm2 = DepthMap(depth=dvec.reshape(dm.depth.shape), valid=dm.valid,
                           opacity=dm.opacity)
            r2, v2 = warp_image(src, dm2, ctx, intr, intr)
            return photometric_loss(ref, r2, v2, CFG)

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
        assert photometric_loss(img, img, valid, CFG) == pytest.approx(0.0, abs=1e-15)

    def test_pure_l1(self):
        cfg = PhotometricConfig(alpha=0.0)
        a = np.full((6, 6, 3), 0.25)
        b = np.full((6, 6, 3), 0.75)
        valid = np.ones((6, 6), dtype=bool)
        assert photometric_loss(a, b, valid, cfg) == pytest.approx(0.5)

    def test_pure_ssim_matches_direct_formula(self):
        cfg = PhotometricConfig(alpha=1.0)
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(8, 10, 3))
        b = rng.uniform(size=(8, 10, 3))
        valid = np.ones((8, 10), dtype=bool)
        assert photometric_loss(a, a, valid, cfg) == pytest.approx(0.0, abs=1e-15)
        got = photometric_loss(a, b, valid, cfg)
        expect = np.mean(0.5 * (1.0 - ssim(a, b, cfg.ssim_window)))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(size=(6, 7, 3))
            b = rng.uniform(size=(6, 7, 3))
            valid = rng.uniform(size=(6, 7)) > 0.3
            assert photometric_loss(a, b, valid, CFG) >= 0.0

    def test_empty_valid_warns_and_returns_zero(self):
        a = smooth_image(5, 5)
        with pytest.warns(RuntimeWarning):
            out = photometric_loss(a, a, np.zeros((5, 5), dtype=bool), CFG)
        assert out == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(size=(7, 8, 3))
        recon = rng.uniform(size=(7, 8, 3))
        valid = rng.uniform(size=(7, 8)) > 0.25
        g = photometric_loss_grad(ref, recon, valid, CFG)

        def f(x):
            return photometric_loss(ref, x.reshape(7, 8, 3), valid, CFG)

        assert grad_check(f, recon.ravel(), g.ravel(), eps=1e-6) < 1e-4


class TestWarpContext:
    def test_kind_consistency(self):
        with pytest.raises(ValueError):
            WarpContext("temporal", (0, 0), (1, 1), Pose.identity())
        with pytest.raises(ValueError):
            WarpContext("spatial", (0, 0), (1, 1), Pose.identity())
        with pytest.raises(ValueError):
            WarpContext("nearby", (0, 0), (0, 1), Pose.identity())


class TestCastLoss:
    def _static_bundle(self):
        # two cameras with IDENTICAL pose and no ego motion: every context
        # warp is the identity, so all terms must vanish
        spec = VoxelGridSpec((24, 24, 8), np.zeros(3), 0.4)
        b = build_scene(4, spec, "boxes", num_cameras=2, image_size=(24, 40))
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
        total, bd = cast_loss(rig, images, depths, CFG)
        assert bd["L_t"] == pytest.approx(0.0, abs=1e-6)
        assert bd["L_sp"] == pytest.approx(0.0, abs=1e-6)
        assert bd["L_spt"] == pytest.approx(0.0, abs=1e-6)
        assert total == pytest.approx(0.0, abs=1e-6)

    def test_lambda_zeroing(self):
        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        cfg = PhotometricConfig(lambda_sp=0.0, lambda_spt=0.0)
        total, bd = cast_loss(b.rig, b.images, depths, cfg)
        assert total == pytest.approx(cfg.lambda_t * bd["L_t"], abs=1e-15)

    def test_breakdown_is_json_ready(self):
        import json

        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        _, bd = cast_loss(b.rig, b.images, depths, CFG)
        parsed = json.loads(json.dumps(bd))
        assert set(parsed) == {"L_t", "L_sp", "L_spt", "total", "active_pairs"}

    def test_perturbed_density_increases_loss(self):
        b = boxes_bundle(seed=10)
        spec = b.spec
        views = [
            Camera(b.rig.cameras[i].intrinsics, camera_pose_at(b.rig, i, 1))
            for i in range(2)
        ]

        def loss_of(sig):
            fld = DensityField(sig, spec)
            depths = [render_view(fld, v, (36, 64), 1.0, 16.0, 64) for v in views]
            return cast_loss(b.rig, b.images, depths, CFG)[0]

        base = loss_of(b.density_gt.sigma)
        rng = np.random.default_rng(99)
        for _ in range(10):
            noise = rng.uniform(-0.1 * b.sigma_occ, 0.1 * b.sigma_occ, spec.dims)
            assert loss_of(np.clip(b.density_gt.sigma + noise, 0, None)) > base

    def test_gauge_invariance(self):
        # a global rigid transform of the world moves every ego pose but
        # leaves all relative geometry, hence the loss, unchanged
        b = boxes_bundle(seed=13)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        base, _ = cast_loss(b.rig, b.images, depths, CFG)
        from helpers import rotation_from_angles

        g = Pose(rotation_from_angles(0.7, 0.2, -0.4), np.array([5.0, -3.0, 2.0]))
        moved = CameraRig(
            b.rig.cameras,
            {t: g.compose(p) for t, p in b.rig.ego_poses.items()},
        )
        after, _ = cast_loss(moved, b.images, depths, CFG)
        assert after == pytest.approx(base, abs=1e-9)

    def test_single_camera_spatial_terms_inactive(self):
        b = boxes_bundle(seed=6)
        intr = b.rig.cameras[0].intrinsics
        rig1 = CameraRig((b.rig.cameras[0],), dict(b.rig.ego_poses))
        images = {(0, t): b.images[(0, t)] for t in (0, 1)}
        total, bd = cast_loss(rig1, images, [b.gt_depths[(0, 1)]], CFG)
        assert bd["L_sp"] == 0.0 and bd["L_spt"] == 0.0
        assert total == pytest.approx(bd["L_t"] * CFG.lambda_t)

    def test_grad_variant_matches_value(self):
        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        t1, bd1 = cast_loss(b.rig, b.images, depths, CFG)
        t2, bd2, grads = cast_loss_with_depth_grad(b.rig, b.images, depths, CFG)
        assert t1 == t2 and bd1 == bd2
        assert len(grads) == 2 and grads[0].shape == depths[0].depth.shape


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
        total, bd = pretrain_loss(rig, images, depths, [pts, None], CFG, dists)
        assert bd["L_ed"] == pytest.approx(0.0, abs=1e-12)
        assert bd["L_rd"] == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(0.0, abs=1e-6)

    def test_one_meter_offset_gives_unit_l1(self):
        b = boxes_bundle(seed=6)
        dm = b.gt_depths[(0, 1)]
        pts = sparse_lidar(dm, 100, seed=1)
        shifted = DepthMap(depth=dm.depth + 1.0, valid=dm.valid, opacity=dm.opacity)
        total, bd = pretrain_loss(
            b.rig, b.images, [shifted, b.gt_depths[(1, 1)]], [pts, None], CFG
        )
        assert bd["L_rd"] == pytest.approx(1.0, abs=1e-9)

    def test_empty_sparse_set(self):
        b = boxes_bundle(seed=6)
        depths = [b.gt_depths[(i, 1)] for i in range(2)]
        _, bd = pretrain_loss(b.rig, b.images, depths, [None, None], CFG)
        assert bd["L_ed"] == 0.0 and bd["L_rd"] == 0.0

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
        dm = DepthMap(depth=np.ones((h, w)), valid=np.ones((h, w), bool), opacity=np.ones((h, w)))
        bins = uniform_depth_bins(4, 1.0, 9.0)
        dist = DepthDistribution(bins, np.full((h, w, 4), 0.25))
        pts = np.array([[1.0, 1.0, 2.0], [u, v, 2.0]])
        with pytest.raises(ValueError, match=r"camera 1: sparse depth sample 1 at pixel"):
            depth_l1_loss([dm, dm], [None, pts])
        with pytest.raises(ValueError, match=r"camera 1: sparse depth sample 1 at pixel"):
            depth_bin_cross_entropy([None, dist], [None, pts])

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
        losses = []
        for step in range(21):
            fld = DensityField(sigma, spec)
            depths = [render_view(fld, v, (24, 40), 1.0, 16.0, 32) for v in views]
            total, _, grads = pretrain_loss_with_depth_grad(
                b.rig, b.images, depths, sparse, CFG
            )
            losses.append(total)
            g = np.zeros_like(sigma)
            for i, v in enumerate(views):
                g += render_view_grad_sigma(fld, v, grads[i], (24, 40), 1.0, 16.0, 32)
            sigma = np.clip(sigma - 1e-2 * g, 0.0, None)
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]
