"""Tests for the explicit/implicit 2D-to-3D view transformation."""

import numpy as np
import pytest
from helpers import level_camera_mount, simple_rig

from occgeom.camera import Camera, CameraRig, Intrinsics, Pose, camera_pose_at, project_points
from occgeom.tensor import bilinear_sample, conv3d, softmax
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


def small_intr(h, w, fx=20.0):
    return Intrinsics(fx=fx, fy=fx, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)


def scatter_oracle(pts, feats, spec):
    """Per-point loop scatter-mean: the pooled [C x X x Y x Z] features and
    the per-voxel point counts."""
    acc = np.zeros((*spec.dims, feats.shape[1]))
    cnt = np.zeros(spec.dims)
    for p, f in zip(pts, feats):
        idx = np.floor((p - spec.origin) / spec.voxel_size).astype(int)
        if np.all(idx >= 0) and np.all(idx < spec.dims):
            acc[tuple(idx)] += f
            cnt[tuple(idx)] += 1
    mean = np.divide(acc, cnt[..., None], out=np.zeros_like(acc), where=cnt[..., None] > 0)
    return np.moveaxis(mean, 3, 0), cnt


class TestSpec:
    def test_full_scale_default(self):
        spec = VoxelGridSpec.default_full_scale()
        assert spec.dims == (200, 200, 16)
        assert spec.voxel_size == 0.4
        np.testing.assert_allclose(spec.origin, [-40.0, -40.0, -1.0])
        top = spec.origin + np.array(spec.dims) * spec.voxel_size
        np.testing.assert_allclose(top, [40.0, 40.0, 5.4])

    def test_validation(self):
        with pytest.raises(ValueError):
            VoxelGridSpec((0, 2, 2), np.zeros(3), 0.4)
        with pytest.raises(ValueError):
            VoxelGridSpec((2, 2, 2), np.zeros(3), -1.0)

    @pytest.mark.parametrize("dims", [(16.7, 16, True), (16, 16, 8.0), (2, True, 2), ("4", 2, 2)])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(ValueError, match=r"dims must be integers, got \(" + repr(dims[0])):
            VoxelGridSpec(dims, np.zeros(3), 0.4)

    def test_numpy_integer_dims_accepted(self):
        spec = VoxelGridSpec(tuple(np.array([4, 3, 2])), np.zeros(3), 0.4)
        assert spec.dims == (4, 3, 2) and all(type(d) is int for d in spec.dims)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_geometry_rejected(self, bad):
        with pytest.raises(ValueError, match="voxel_size must be finite"):
            VoxelGridSpec((2, 2, 2), np.zeros(3), bad)
        with pytest.raises(ValueError, match="origin must be finite"):
            VoxelGridSpec((2, 2, 2), np.array([0.0, bad, 0.0]), 0.4)

    def test_value_equality_and_hash(self):
        # specs compare by dims, voxel size and origin, never by identity
        spec = VoxelGridSpec((4, 3, 2), np.array([0.0, -1.0, 2.0]), 0.4)
        same = VoxelGridSpec((4, 3, 2), [0, -1, 2], 0.4)
        assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
        for other in (VoxelGridSpec((4, 3, 4), spec.origin, 0.4),
                      VoxelGridSpec((4, 3, 2), spec.origin, 0.5),
                      VoxelGridSpec((4, 3, 2), spec.origin + [5.0, 0.0, 0.0], 0.4)):
            assert spec != other
        assert spec != (spec.dims, spec.voxel_size, tuple(spec.origin))


class TestDepthDistribution:
    def test_probs_must_normalize(self):
        bins = uniform_depth_bins(4)
        probs = np.full((2, 2, 4), 0.2)
        with pytest.raises(ValueError):
            DepthDistribution(bins, probs)

    def test_bins_must_increase(self):
        with pytest.raises(ValueError):
            DepthDistribution([3.0, 2.0], np.full((1, 1, 2), 0.5))

    def test_non_finite_rejected(self):
        # every comparison with NaN is False, so the order, sign and sum
        # checks alone would let these through
        bins = uniform_depth_bins(4)
        with pytest.raises(ValueError, match="probabilities must be finite"):
            DepthDistribution(bins, np.full((2, 2, 4), np.nan))
        probs = np.full((2, 2, 4), 0.25)
        probs[1, 0, 2] = np.inf
        with pytest.raises(ValueError, match="probabilities must be finite"):
            DepthDistribution(bins, probs)
        with pytest.raises(ValueError, match="bins must be finite"):
            DepthDistribution([1.0, np.nan, 3.0, 4.0], np.full((2, 2, 4), 0.25))


class TestLift:
    def _setup(self, h=2, w=2, cd=2, cf=3, seed=0):
        rng = np.random.default_rng(seed)
        feats = rng.uniform(size=(h, w, cf))
        probs = rng.uniform(size=(h, w, cd))
        probs /= probs.sum(axis=2, keepdims=True)
        dist = DepthDistribution(uniform_depth_bins(cd, 2.0, 10.0), probs)
        return feats, dist, small_intr(h, w)

    def test_one_hot_copies_features(self):
        h, w, cd, cf = 2, 3, 4, 2
        rng = np.random.default_rng(1)
        feats = rng.uniform(size=(h, w, cf))
        probs = np.zeros((h, w, cd))
        probs[:, :, 1] = 1.0
        dist = DepthDistribution(uniform_depth_bins(cd), probs)
        _, lifted = lift(feats, dist, small_intr(h, w))
        lifted = lifted.reshape(h, w, cd, cf)
        np.testing.assert_allclose(lifted[:, :, 1], feats)
        assert np.all(lifted[:, :, [0, 2, 3]] == 0.0)

    def test_uniform_quarters(self):
        h, w, cd, cf = 2, 2, 4, 3
        feats = np.random.default_rng(2).uniform(size=(h, w, cf))
        dist = DepthDistribution(uniform_depth_bins(cd), np.full((h, w, cd), 0.25))
        _, lifted = lift(feats, dist, small_intr(h, w))
        lifted = lifted.reshape(h, w, cd, cf)
        for b in range(cd):
            np.testing.assert_allclose(lifted[:, :, b], feats / 4)

    def test_against_double_loop_oracle(self):
        feats, dist, intr = self._setup(seed=3)
        pos, lifted = lift(feats, dist, intr)
        h, w, cf = feats.shape
        cd = dist.bins.size
        row = 0
        for v in range(h):
            for u in range(w):
                for b in range(cd):
                    direction = np.array(
                        [(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0]
                    )
                    np.testing.assert_allclose(pos[row], direction * dist.bins[b])
                    np.testing.assert_allclose(
                        lifted[row], dist.probs[v, u, b] * feats[v, u]
                    )
                    row += 1

    def test_mass_conservation(self):
        feats, dist, intr = self._setup(h=3, w=4, cd=5, seed=4)
        _, lifted = lift(feats, dist, intr)
        h, w, cf = feats.shape
        per_pixel = np.abs(lifted).reshape(h, w, -1, cf).sum(axis=2)
        np.testing.assert_allclose(per_pixel, np.abs(feats), atol=1e-12)

    def test_shape_mismatch(self):
        feats, dist, intr = self._setup()
        with pytest.raises(ValueError):
            lift(feats[:1], dist, intr)


class TestVoxelPool:
    SPEC = VoxelGridSpec((4, 4, 2), np.array([0.0, 0.0, 0.0]), 1.0)

    def test_single_point_at_center(self):
        f = np.array([[2.0, -1.0]])
        out = voxel_pool(np.array([[1.5, 2.5, 0.5]]), f, self.SPEC)
        np.testing.assert_allclose(out.data[:, 1, 2, 0], f[0])
        assert np.sum(out.data != 0) == 2

    def test_two_points_mean(self):
        pts = np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
        f = np.array([[1.0], [3.0]])
        out = voxel_pool(pts, f, self.SPEC)
        assert out.data[0, 0, 0, 0] == pytest.approx(2.0)

    def test_outside_points_dropped(self):
        out = voxel_pool(np.array([[-1.0, 0.0, 0.0]]), np.array([[5.0]]), self.SPEC)
        assert np.all(out.data == 0)

    def test_boundary_point_lower_voxel(self):
        out = voxel_pool(np.array([[1.0, 0.5, 0.5]]), np.array([[1.0]]), self.SPEC)
        assert out.data[0, 1, 0, 0] == 1.0

    def test_matches_scatter_oracle_bitwise(self):
        rng = np.random.default_rng(5)
        spec = VoxelGridSpec((6, 5, 4), np.array([-1.0, 0.0, 2.0]), 0.7)
        pts = rng.uniform([-2, -1, 1], [4, 4, 6], size=(1000, 3))
        feats = rng.normal(size=(1000, 3))
        out = voxel_pool(pts, feats, spec)
        expect, _ = scatter_oracle(pts, feats, spec)
        assert np.array_equal(out.data, expect)

    def test_chunked_scatter_matches_oracle_bitwise(self):
        # more than three scatter chunks of kept points; 600 of them pile
        # into one voxel across every chunk, some features are -0.0, some
        # points sit exactly on voxel faces and some lie outside the grid
        rng = np.random.default_rng(11)
        spec = VoxelGridSpec((5, 4, 3), np.array([-1.0, 0.0, 2.0]), 0.5)
        n = 24000
        pts = rng.uniform([-1.2, -0.2, 1.8], [1.7, 2.2, 3.7], size=(n, 3))
        pile = rng.choice(n, 600, replace=False)
        pile_cells = np.array([2, 1, 1]) + rng.uniform(size=(600, 3))
        pts[pile] = spec.origin + spec.voxel_size * pile_cells
        faces = rng.choice(n, 2000, replace=False)
        cells = rng.integers(0, np.array(spec.dims) + 1, size=(2000, 3))
        pts[faces] = spec.origin + spec.voxel_size * cells  # upper outer faces drop out
        feats = rng.normal(size=(n, 4))
        feats[rng.random(feats.shape) < 0.05] = -0.0
        feats[pile[:50]] = -0.0
        out = voxel_pool(pts, feats, spec)
        expect, cnt = scatter_oracle(pts, feats, spec)
        assert 3 * 4096 < cnt.sum() < n and cnt[2, 1, 1] >= 600
        assert np.array_equal(out.data, expect)
        assert np.array_equal(np.signbit(out.data), np.signbit(expect))

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 4, size=(200, 3))
        feats = rng.normal(size=(200, 2))
        shift = np.array([10.3, -4.7, 2.9])
        spec2 = VoxelGridSpec(self.SPEC.dims, self.SPEC.origin + shift, 1.0)
        a = voxel_pool(pts, feats, self.SPEC)
        b = voxel_pool(pts + shift, feats, spec2)
        assert np.array_equal(a.data, b.data)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            voxel_pool(np.array([[np.nan, 0, 0]]), np.array([[1.0]]), self.SPEC)


class TestIdmSample:
    def _single_voxel_setup(self):
        # one query voxel whose center projects exactly onto an integer pixel
        # of camera 0; camera 1 looks the other way
        spec = VoxelGridSpec((1, 1, 1), np.array([2.0, -0.5, -0.5]), 1.0)
        intr = Intrinsics(fx=10.0, fy=10.0, cx=4.0, cy=3.0, width=9, height=7)
        cams = (
            Camera(intr, level_camera_mount(0.0, [0.0, 0.0, 0.0])),
            Camera(intr, level_camera_mount(np.pi, [0.0, 0.0, 0.0])),
        )
        rig = CameraRig(cams, {0: Pose.identity()})
        rng = np.random.default_rng(7)
        feats = [rng.uniform(size=(7, 9, 5)) for _ in range(2)]
        queries = np.zeros((5, 1, 1, 1))
        return spec, rig, feats, queries

    def test_single_exact_pixel(self):
        spec, rig, feats, queries = self._single_voxel_setup()
        out = idm_sample(spec, queries, feats, rig, np.zeros((1, 2)), np.zeros(1))
        np.testing.assert_allclose(out.data[:, 0, 0, 0], feats[0][3, 4], atol=1e-12)

    def test_masked_weight_equals_single_offset(self):
        spec, rig, feats, queries = self._single_voxel_setup()
        offsets = np.array([[0.7, -0.4], [5.0, 5.0]])
        a = idm_sample(spec, queries, feats, rig, offsets, np.array([0.0, -np.inf]))
        b = idm_sample(spec, queries, feats, rig, offsets[:1], np.zeros(1))
        np.testing.assert_allclose(a.data, b.data, atol=1e-15)

    def test_weight_validation(self):
        spec, rig, feats, queries = self._single_voxel_setup()
        with pytest.raises(ValueError):
            idm_sample(spec, queries, feats, rig, np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            idm_sample(spec, queries, feats, rig, np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            idm_sample(
                spec, queries, feats, rig, np.zeros((1, 2)), np.array([np.nan])
            )

    def test_voxel_behind_all_cameras_zero(self):
        spec = VoxelGridSpec((1, 1, 1), np.array([-3.0, -0.5, -0.5]), 1.0)
        intr = Intrinsics(fx=10.0, fy=10.0, cx=4.0, cy=3.0, width=9, height=7)
        cams = (Camera(intr, level_camera_mount(0.0, [0.0, 0.0, 0.0])),)
        rig = CameraRig(cams, {0: Pose.identity()})
        feats = [np.ones((7, 9, 2))]
        out = idm_sample(spec, np.zeros((2, 1, 1, 1)), feats, rig, np.zeros((1, 2)), np.zeros(1))
        assert np.all(out.data == 0.0)

    def test_zero_exactly_on_invisible_set(self):
        rig = simple_rig(2)
        h, w = rig.cameras[0].intrinsics.height, rig.cameras[0].intrinsics.width
        rng = np.random.default_rng(8)
        feats = [rng.uniform(0.5, 1.0, size=(h, w, 3)) for _ in range(2)]
        spec = VoxelGridSpec((6, 6, 2), np.array([-2.0, -2.0, -0.5]), 0.7)
        out = idm_sample(spec, np.zeros((3, 6, 6, 2)), feats, rig,
                         np.zeros((1, 2)), np.zeros(1))
        centers = spec.voxel_centers()
        seen = np.zeros(len(centers), dtype=bool)
        for ci in range(2):
            _, _, vis = project_points(
                rig.cameras[ci].intrinsics, camera_pose_at(rig, ci, 0), centers
            )
            seen |= vis
        flat = out.data.reshape(3, -1)
        zero_rows = np.all(flat == 0.0, axis=0)
        # invisible voxels are exactly zero; visible ones sampled > 0 features
        assert np.array_equal(zero_rows, ~seen)

    def test_unseen_camera_nonfinite_does_not_leak(self):
        # camera 0 looks along +x and camera 1 along -x; the voxels in front
        # of camera 0 lie behind camera 1, whose placeholder uv (0, 0) would
        # sample its NaN pixel; only camera 0's samples may reach them
        spec = VoxelGridSpec((6, 2, 2), np.array([-3.0, -0.4, -0.4]), 1.0)
        intr = Intrinsics(fx=10.0, fy=10.0, cx=4.0, cy=3.0, width=9, height=7)
        cams = (
            Camera(intr, level_camera_mount(0.0, [0.0, 0.0, 0.0])),
            Camera(intr, level_camera_mount(np.pi, [0.0, 0.0, 0.0])),
        )
        rig = CameraRig(cams, {0: Pose.identity()})
        rng = np.random.default_rng(12)
        feats = [rng.normal(size=(7, 9, 3)) for _ in range(2)]
        feats[1][0, 0] = np.nan
        out = idm_sample(spec, np.zeros((3, *spec.dims)), feats, rig, np.zeros((1, 2)), np.zeros(1))
        centers = spec.voxel_centers()
        uv, _, vis_a = project_points(intr, camera_pose_at(rig, 0, 0), centers)
        _, z_b, vis_b = project_points(intr, camera_pose_at(rig, 1, 0), centers)
        a_only = vis_a & ~vis_b
        assert a_only.any() and vis_b.any() and np.all(z_b[a_only] < 0)
        expect, _ = bilinear_sample(feats[0], uv[a_only])
        got = out.data.reshape(3, -1).T[a_only]
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, expect)

    def test_matches_dense_sampling_bitwise(self):
        # reference: sample every voxel in every camera, then mask with
        # `visible`; each camera sees part of the grid, their views overlap,
        # the offsets push some visible projections out of the image and one
        # weight is -inf
        intr = Intrinsics(fx=30.0, fy=30.0, cx=19.5, cy=14.5, width=40, height=30)
        cams = tuple(
            Camera(intr, level_camera_mount(yaw, [0.0, 0.2 * k, 0.0]))
            for k, yaw in enumerate((0.0, 0.5, -0.6))
        )
        ego = {0: Pose.identity(), 1: Pose(np.eye(3), np.array([0.3, 0.1, 0.0]))}
        rig = CameraRig(cams, ego)
        rng = np.random.default_rng(13)
        feats = [rng.normal(size=(intr.height, intr.width, 4)) for _ in range(3)]
        for f in feats:
            f[rng.random(f.shape) < 0.05] = -0.0
        spec = VoxelGridSpec((8, 8, 2), np.array([-1.0, -3.0, -0.5]), 0.75)
        offsets = np.array([[2.5, -1.25], [-3.0, 0.5], [0.4, 4.0]])
        weights = np.array([0.3, -np.inf, -0.8])
        ts = 1
        queries = np.zeros((4, *spec.dims))
        out = idm_sample(spec, queries, feats, rig, offsets, weights, timestamp=ts)

        attn = softmax(weights, axis=0)
        centers = spec.voxel_centers()
        n = centers.shape[0]
        total = np.zeros((n, 4))
        seen = np.zeros(n)
        pushed_out = 0
        for ci, feat in enumerate(feats):
            uv, _, visible = project_points(intr, camera_pose_at(rig, ci, ts), centers)
            assert 0 < visible.sum() < n
            gathered = np.zeros((n, 4))
            for p in range(offsets.shape[0]):
                if attn[p] == 0.0:
                    continue
                samples, valid = bilinear_sample(feat, uv + offsets[p])
                pushed_out += np.sum(visible & ~valid)
                gathered += attn[p] * samples
            total += gathered * visible[:, None]
            seen += visible
        assert pushed_out > 0 and np.any(seen > 1)
        dense = np.divide(total, seen[:, None], out=np.zeros_like(total), where=seen[:, None] > 0)
        expect = dense.T.reshape(4, *spec.dims)
        assert out.data.tobytes() == expect.tobytes()


class TestFuseAndCompress:
    def _pair(self, c=2, dims=(4, 4, 2), seed=9):
        rng = np.random.default_rng(seed)
        spec = VoxelGridSpec(dims, np.zeros(3), 0.5)
        oe = OccupancyFeature(rng.normal(size=(c, *dims)), spec)
        oi = OccupancyFeature(rng.normal(size=(c, *dims)), spec)
        return oe, oi, spec

    def test_identity_channel_select_subsamples(self):
        oe, oi, spec = self._pair()
        oi = OccupancyFeature(np.zeros_like(oi.data), spec)
        c = 2
        w = np.zeros((c, 2 * c, 1, 1, 1))
        for i in range(c):
            w[i, i, 0, 0, 0] = 1.0
        out = fuse_and_compress(oe, oi, w)
        np.testing.assert_allclose(out.data, oe.data[:, ::2, ::2, ::2])

    def test_dims_halved(self):
        oe, oi, _ = self._pair(dims=(8, 8, 4))
        w = np.random.default_rng(10).normal(size=(3, 4, 3, 3, 3))
        out = fuse_and_compress(oe, oi, w)
        assert out.data.shape == (3, 4, 4, 2)
        assert out.spec.dims == (4, 4, 2)
        assert out.spec.voxel_size == pytest.approx(1.0)

    def test_matches_concat_then_conv_oracle(self):
        oe, oi, _ = self._pair(c=3, dims=(4, 6, 2), seed=11)
        w = np.random.default_rng(12).normal(size=(2, 6, 3, 3, 3))
        out = fuse_and_compress(oe, oi, w)
        fused = np.concatenate([oe.data, oi.data], axis=0)
        np.testing.assert_allclose(out.data, conv3d(fused, w, 2), atol=1e-12)

    def test_spec_mismatch(self):
        oe, oi, _ = self._pair()
        other = VoxelGridSpec((4, 4, 4), np.zeros(3), 0.5)
        bad = OccupancyFeature(np.zeros((2, 4, 4, 4)), other)
        with pytest.raises(ValueError):
            fuse_and_compress(oe, bad, np.zeros((1, 4, 1, 1, 1)))

    def test_shifted_origin_rejected(self):
        # same dims and voxel size on a grid 5 m along x: the features do
        # not describe the same voxels
        oe, oi, spec = self._pair()
        shifted = VoxelGridSpec(spec.dims, np.array([5.0, 0.0, 0.0]), spec.voxel_size)
        with pytest.raises(ValueError, match="grid specs differ"):
            fuse_and_compress(oe, OccupancyFeature(oi.data, shifted), np.zeros((1, 4, 1, 1, 1)))

    def test_odd_dims_rejected(self):
        spec = VoxelGridSpec((3, 4, 2), np.zeros(3), 0.5)
        oe = OccupancyFeature(np.zeros((1, 3, 4, 2)), spec)
        oi = OccupancyFeature(np.zeros((1, 3, 4, 2)), spec)
        with pytest.raises(ValueError):
            fuse_and_compress(oe, oi, np.zeros((1, 2, 1, 1, 1)))


class TestOccupancyFeature:
    def test_shape_checked(self):
        spec = VoxelGridSpec((2, 2, 2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            OccupancyFeature(np.zeros((1, 2, 2, 3)), spec)


class TestUpsample:
    def test_constant_preserved(self):
        half = VoxelGridSpec((2, 2, 1), np.zeros(3), 1.0)
        full = VoxelGridSpec((4, 4, 2), np.zeros(3), 0.5)
        feat = OccupancyFeature(np.full((3, 2, 2, 1), 2.5), half)
        up = upsample_trilinear(feat, full)
        assert up.data.shape == (3, 4, 4, 2)
        np.testing.assert_allclose(up.data, 2.5)

    def test_linear_ramp_interpolated(self):
        half = VoxelGridSpec((4, 1, 1), np.zeros(3), 1.0)
        full = VoxelGridSpec((8, 1, 1), np.zeros(3), 0.5)
        data = np.arange(4.0).reshape(1, 4, 1, 1)
        up = upsample_trilinear(OccupancyFeature(data, half), full)
        # interior full-res centers sit a quarter/three-quarter of the way
        # between coarse centers
        np.testing.assert_allclose(
            up.data[0, :, 0, 0],
            [0.0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.0],
        )
