"""Tests for depth volume rendering and its density gradient."""

import numpy as np
import pytest
from helpers import level_camera_mount, rotation_from_angles

from occgeom.camera import Camera, Intrinsics, Pose, ray
from occgeom.renderer import (
    _BLOCK_SAMPLES,
    _box_sample_ranges,
    DensityField,
    DepthMap,
    RayPlan,
    RaySamples,
    _depth_grad_batch,
    _render_batch,
    _view_rays,
    depth_grad_sigma,
    render_depth,
    render_view,
    render_view_grad_sigma,
    sample_density,
    sample_ray,
)
from occgeom.tensor import (
    _trilinear_corners,
    _trilinear_in_box,
    _trilinear_parts,
    grad_check,
    trilinear_sample,
)
from occgeom.view_transform import VoxelGridSpec

STRAIGHT = (np.zeros(3), np.array([0.0, 0.0, 1.0]))


def render_oracle(sigma, t, delta):
    """Straight-line per-sample implementation of the rendering equations."""
    s = len(sigma)
    depth = 0.0
    opacity = 0.0
    weights = []
    accum = 0.0
    for i in range(s):
        transmittance = np.exp(-accum)
        w = transmittance * (1.0 - np.exp(-sigma[i] * delta[i]))
        weights.append(w)
        depth += w * t[i]
        opacity += w
        accum += sigma[i] * delta[i]
    return depth, opacity, np.array(weights)


class TestSampleRay:
    def test_midpoint_two_samples(self):
        rs = sample_ray(STRAIGHT, 0.0 + 1e-12, 2.0, 2)
        np.testing.assert_allclose(rs.t_values, [0.5, 1.5], atol=1e-9)
        np.testing.assert_allclose(rs.deltas, [1.0, 1.0], atol=1e-9)

    def test_positions_collinear(self):
        origin = np.array([1.0, -2.0, 0.5])
        d = np.array([0.6, 0.8, 0.0])
        rs = sample_ray((origin, d), 1.0, 9.0, 16)
        chord = rs.positions - origin
        for i, t in enumerate(rs.t_values):
            np.testing.assert_allclose(chord[i], t * d, atol=1e-12)

    def test_paper_sample_count_spacing(self):
        rs = sample_ray(STRAIGHT, 1.0, 45.0, 152)
        assert rs.t_values.size == 152
        np.testing.assert_allclose(rs.deltas, 44.0 / 152)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sample_ray(STRAIGHT, 3.0, 2.0, 8)
        with pytest.raises(ValueError):
            sample_ray(STRAIGHT, 1.0, 2.0, 1)


class TestSampleDensity:
    SPEC = VoxelGridSpec((3, 3, 3), np.zeros(3), 1.0)

    def test_voxel_center_exact(self):
        rng = np.random.default_rng(0)
        sigma = rng.uniform(size=(3, 3, 3))
        field = DensityField(sigma, self.SPEC)
        out = sample_density(field, np.array([[1.5, 0.5, 2.5]]))
        assert out[0] == sigma[1, 0, 2]

    def test_outside_zero(self):
        field = DensityField(np.ones((3, 3, 3)), self.SPEC)
        assert sample_density(field, np.array([[9.0, 0.5, 0.5]]))[0] == 0.0

    def test_midpoint_average(self):
        sigma = np.zeros((3, 3, 3))
        sigma[0, 0, 0] = 2.0
        sigma[1, 0, 0] = 6.0
        field = DensityField(sigma, self.SPEC)
        out = sample_density(field, np.array([[1.0, 0.5, 0.5]]))
        assert out[0] == pytest.approx(4.0)


class TestRenderDepth:
    def test_empty_space(self):
        rs = sample_ray(STRAIGHT, 1.0, 5.0, 8)
        depth, opacity, w = render_depth(np.zeros(8), rs)
        assert depth == 0.0 and opacity == 0.0
        assert np.all(w == 0.0)

    def test_opaque_first_sample(self):
        rs = sample_ray(STRAIGHT, 1.0, 5.0, 8)
        sig = np.zeros(8)
        sig[0] = 1e6
        depth, opacity, _ = render_depth(sig, rs)
        assert depth == pytest.approx(rs.t_values[0], abs=1e-9)
        assert opacity == pytest.approx(1.0, abs=1e-9)

    def test_constant_density_geometric_weights(self):
        rs = sample_ray(STRAIGHT, 1.0, 9.0, 16)
        c = 0.37
        depth, opacity, w = render_depth(np.full(16, c), rs)
        step = rs.deltas[0]
        expect_w = np.exp(-c * step * np.arange(16)) * (1 - np.exp(-c * step))
        np.testing.assert_allclose(w, expect_w, atol=1e-12)
        d2, o2, w2 = render_oracle(np.full(16, c), rs.t_values, rs.deltas)
        assert depth == pytest.approx(d2, abs=1e-12)
        assert opacity == pytest.approx(o2, abs=1e-12)
        np.testing.assert_allclose(w, w2, atol=1e-12)

    def test_weight_invariants_random(self):
        rng = np.random.default_rng(1)
        rs = sample_ray(STRAIGHT, 1.0, 9.0, 32)
        for _ in range(25):
            sig = rng.uniform(0, 3.0, 32)
            depth, opacity, w = render_depth(sig, rs)
            assert np.all(w >= 0)
            assert opacity <= 1.0 + 1e-12
            if opacity > 0:
                assert rs.t_values[0] <= depth / opacity <= rs.t_values[-1]

    def test_negative_density_rejected(self):
        rs = sample_ray(STRAIGHT, 1.0, 5.0, 4)
        with pytest.raises(ValueError):
            render_depth(np.array([0.0, -1.0, 0.0, 0.0]), rs)


class TestDepthGradSigma:
    def test_zero_density_first_order(self):
        rs = sample_ray(STRAIGHT, 1.0, 5.0, 8)
        g = depth_grad_sigma(np.zeros(8), rs)
        np.testing.assert_allclose(g, rs.deltas * rs.t_values, atol=1e-12)

    def test_occluded_samples_zero_gradient(self):
        rs = sample_ray(STRAIGHT, 1.0, 5.0, 8)
        sig = np.zeros(8)
        sig[0] = 1e6
        g = depth_grad_sigma(sig, rs)
        assert np.all(np.abs(g[1:]) < 1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        rs = sample_ray(STRAIGHT, 1.0, 5.0, 16)
        worst = 0.0
        for _ in range(100):
            sig = rng.uniform(0.05, 1.0, 16)
            g = depth_grad_sigma(sig, rs)
            err = grad_check(lambda s: render_depth(s, rs)[0], sig, g, eps=1e-5)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_monotone_under_saturated_tail(self):
        # with an opaque ray, more density at the first sample moves the
        # expected depth nearer, never farther
        rng = np.random.default_rng(2)
        rs = sample_ray(STRAIGHT, 1.0, 9.0, 16)
        for _ in range(20):
            sig = rng.uniform(0.0, 1.0, 16)
            sig[-1] = 1e4  # saturate
            base, _, _ = render_depth(sig, rs)
            bumped = sig.copy()
            bumped[0] += rng.uniform(0.1, 2.0)
            after, _, _ = render_depth(bumped, rs)
            assert after <= base + 1e-12


def wall_field(dist_vox=12, dims=(24, 12, 12), vs=0.2, sigma=50.0):
    """Solid wall slab at x >= dist_vox, camera on the -x side looking +x.

    Returns (field, camera, wall face x, resolution). At 0.2 m voxels the
    trilinear boundary smear nearly cancels, so rendered depth sits within a
    sample spacing of the true plane for moderate spacings.
    """
    sig = np.zeros(dims)
    sig[dist_vox:] = sigma
    spec = VoxelGridSpec(dims, np.zeros(3), vs)
    field = DensityField(sig, spec)
    h, w = 16, 20
    intr = Intrinsics(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    pos = np.array([0.31, dims[1] * vs / 2 + 0.03, dims[2] * vs / 2 + 0.01])
    cam = Camera(intr, level_camera_mount(0.0, pos))
    return field, cam, dist_vox * vs, (h, w)


def wall_errors(field, cam, wall_x, res, t_near, t_far, s):
    dm = render_view(field, cam, res, t_near, t_far, s)
    errs = []
    for r in range(res[0]):
        for c in range(res[1]):
            if not dm.valid[r, c]:
                continue
            origin, d = ray(cam, [c, r])
            t_plane = (wall_x - origin[0]) / d[0]
            errs.append(abs(dm.depth[r, c] - t_plane))
    return np.array(errs)


class TestRenderView:
    def test_empty_field_all_invalid(self):
        spec = VoxelGridSpec((4, 4, 4), np.zeros(3), 0.5)
        field = DensityField(np.zeros((4, 4, 4)), spec)
        intr = Intrinsics(fx=10.0, fy=10.0, cx=4.5, cy=3.5, width=10, height=8)
        dm = render_view(field, Camera(intr, Pose.identity()), (8, 10), 0.5, 5.0, 16)
        assert not dm.valid.any()
        assert np.all(dm.depth == 0.0)

    def test_wall_depth_within_sample_spacing(self):
        field, cam, wall_x, res = wall_field()
        s = 32
        errs = wall_errors(field, cam, wall_x, res, 0.5, 6.0, s)
        assert errs.size > 200
        assert np.percentile(errs, 95) <= 5.5 / s

    def test_matches_per_ray_rendering(self):
        rng = np.random.default_rng(3)
        spec = VoxelGridSpec((6, 6, 4), np.zeros(3), 0.5)
        field = DensityField(rng.uniform(0, 3, (6, 6, 4)), spec)
        intr = Intrinsics(fx=8.0, fy=8.0, cx=2.5, cy=1.5, width=6, height=4)
        cam = Camera(intr, level_camera_mount(0.3, [-0.4, 1.5, 1.0]))
        dm = render_view(field, cam, (4, 6), 0.5, 5.0, 24)
        for r in range(4):
            for c in range(6):
                rs = sample_ray(ray(cam, [c, r]), 0.5, 5.0, 24)
                sig = sample_density(field, rs.positions)
                depth, opacity, _ = render_depth(sig, rs)
                assert abs(depth - dm.depth[r, c]) < 1e-12
                assert abs(opacity - dm.opacity[r, c]) < 1e-12

    def test_doubling_samples_shrinks_error(self):
        field, cam, wall_x, res = wall_field()
        means = [
            wall_errors(field, cam, wall_x, res, 0.5, 6.0, s).mean()
            for s in (16, 32)
        ]
        assert means[0] / means[1] > 1.2

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(4)
        spec = VoxelGridSpec((5, 5, 3), np.zeros(3), 0.6)
        field = DensityField(rng.uniform(0, 2, (5, 5, 3)), spec)
        intr = Intrinsics(fx=10.0, fy=10.0, cx=3.5, cy=2.5, width=8, height=6)
        cam = Camera(intr, level_camera_mount(0.2, [-0.3, 1.4, 0.9]))
        grad_map = rng.normal(size=(6, 8))
        g = render_view_grad_sigma(field, cam, grad_map, (6, 8), 0.4, 4.0, 20)

        def objective(sig):
            f = DensityField(sig.reshape(5, 5, 3), spec)
            dm = render_view(f, cam, (6, 8), 0.4, 4.0, 20)
            return float(np.sum(dm.depth * grad_map))

        err = grad_check(objective, field.sigma.ravel(), g.ravel(), eps=1e-6)
        assert err < 1e-4


def dense_render(field, cam, res, t_near, t_far, s, grad_map):
    """Reference: trilinear-sample all S samples of every ray, render, and
    scatter the adjoint over every corner with np.add.at in sample order.

    Returns (depth, opacity, dL/dsigma) for the depth cotangent grad_map.
    """
    origin, dirs = _view_rays(cam, res)
    step = (t_far - t_near) / s
    t = t_near + (np.arange(s) + 0.5) * step
    deltas = np.full(s, step)
    pos = origin + t[None, :, None] * dirs[:, None, :]
    coords = field.spec.world_to_grid(pos.reshape(-1, 3))
    sig, _ = trilinear_sample(field.sigma, coords)
    sig = sig.reshape(-1, s)
    depth, opacity, _ = _render_batch(sig, t[None, :], deltas[None, :])
    _, _, idx, wgt = _trilinear_parts(field.sigma, coords)
    dsig = _depth_grad_batch(sig, t[None, :], deltas[None, :])
    per_sample = (dsig * grad_map.reshape(-1)[:, None]).reshape(-1)
    grad = np.zeros(field.sigma.size)
    np.add.at(grad, idx.ravel(), (per_sample[:, None] * wgt).ravel())
    return depth.reshape(res), opacity.reshape(res), grad.reshape(field.sigma.shape)


class TestRayPlan:
    SPEC = VoxelGridSpec((6, 6, 4), np.zeros(3), 0.5)
    # 4608 rays at S=24: four blocks of 1365 rays, the last partial
    RES = (48, 96)

    def camera(self, yaw=0.3, offset=(-0.4, 1.5, 1.0)):
        h, w = self.RES
        intr = Intrinsics(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
        return Camera(intr, level_camera_mount(yaw, offset))

    def test_matches_dense_reference_bitwise(self):
        block, rays = _BLOCK_SAMPLES // 24, self.RES[0] * self.RES[1]
        assert rays > block
        rng = np.random.default_rng(5)
        cam = self.camera()
        plan = RayPlan(self.SPEC, cam, self.RES, 0.5, 5.0, 24)
        assert len(plan.chunks) == (rays + block - 1) // block
        for _ in range(2):  # one plan, two different density fields
            field = DensityField(rng.uniform(0, 3, self.SPEC.dims), self.SPEC)
            grad_map = rng.normal(size=self.RES)
            depth, opacity, grad = dense_render(field, cam, self.RES, 0.5, 5.0, 24, grad_map)
            assert np.count_nonzero(opacity) > 100
            dm = render_view(field, cam, self.RES, 0.5, 5.0, 24)
            g = render_view_grad_sigma(field, cam, grad_map, self.RES, 0.5, 5.0, 24)
            pdm, rows = plan.render(field)
            pg = plan.grad_sigma(rows, grad_map)
            for got in (dm, pdm):
                assert np.array_equal(got.depth, depth)
                assert np.array_equal(got.opacity, opacity)
                assert np.array_equal(got.valid, opacity > 0.5)
            assert np.array_equal(g, grad)
            assert np.array_equal(pg, grad)

    def test_keeps_samples_on_the_box_faces(self):
        # the center ray runs along +x through cell centers in y and z, and
        # its samples land exactly on grid x = -0.5 and x = dim - 0.5
        spec = VoxelGridSpec((4, 3, 3), np.zeros(3), 1.0)
        intr = Intrinsics(fx=4.0, fy=4.0, cx=2.0, cy=1.0, width=5, height=3)
        cam = Camera(intr, level_camera_mount(0.0, [-2.0, 1.5, 1.5]))
        sigma = np.random.default_rng(6).uniform(1, 2, spec.dims)
        field = DensityField(sigma, spec)
        t_near, s = 1.5, 6  # unit spacing: t = 2, 3, ..., 7
        plan = RayPlan(spec, cam, (3, 5), t_near, t_near + s, s)
        center = 1 * 5 + 2
        origin, dirs = _view_rays(cam, (3, 5))
        coords = spec.world_to_grid(origin + plan.t[:, None] * dirs[center])
        assert coords[0, 0] == -0.5 and coords[4, 0] == 3.5
        assert np.all(coords[:, 1:] == 1.0)
        dm, rows = plan.render(field)
        assert rows[0][center, 0] == 0.5 * sigma[0, 1, 1]
        assert rows[0][center, 4] == 0.5 * sigma[3, 1, 1]
        assert rows[0][center, 5] == 0.0
        grad_map = np.random.default_rng(7).normal(size=(3, 5))
        depth, opacity, grad = dense_render(field, cam, (3, 5), t_near, t_near + s, s, grad_map)
        assert np.array_equal(dm.depth, depth) and np.array_equal(dm.opacity, opacity)
        assert np.array_equal(plan.grad_sigma(rows, grad_map), grad)

    def test_camera_missing_the_grid(self):
        # looking away from the grid: no sample is ever inside the box
        cam = self.camera(yaw=np.pi, offset=(-1.0, 1.5, 1.0))
        field = DensityField(np.full(self.SPEC.dims, 5.0), self.SPEC)
        plan = RayPlan(self.SPEC, cam, self.RES, 0.5, 5.0, 24)
        assert all(c.cols.size == 0 for c in plan.chunks)
        grad_map = np.random.default_rng(8).normal(size=self.RES)
        for dm, g in (
            (render_view(field, cam, self.RES, 0.5, 5.0, 24),
             render_view_grad_sigma(field, cam, grad_map, self.RES, 0.5, 5.0, 24)),
            (plan.render(field)[0], plan.grad_sigma(plan.render(field)[1], grad_map)),
        ):
            assert np.all(dm.depth == 0.0) and np.all(dm.opacity == 0.0)
            assert not dm.valid.any()
            assert np.all(g == 0.0)

    def test_corner_operator_adjoint_identity(self):
        # <gather(v), y> == <v, scatter(y)> for every chunk of the plan
        rng = np.random.default_rng(9)
        plan = RayPlan(self.SPEC, self.camera(), self.RES, 0.5, 5.0, 24)
        for chunk in plan.chunks:
            v = rng.normal(size=self.SPEC.dims).ravel()
            y = rng.normal(size=(chunk.stop - chunk.start, 24))
            scattered = np.zeros(v.size)
            chunk.scatter(scattered, y)
            lhs = float(np.sum(chunk.gather(v) * y))
            rhs = float(np.dot(v, scattered))
            assert chunk.cols.size > 0
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_directional_derivative_matches_adjoint(self):
        # central difference of sum(g * depth(sigma + eps v)) along v against
        # <render_view_grad_sigma(g), v>, over every block of the view
        rng = np.random.default_rng(10)
        cam = self.camera()
        sigma = rng.uniform(0.5, 3.0, self.SPEC.dims)
        v = rng.normal(size=self.SPEC.dims)
        grad_map = rng.normal(size=self.RES)

        def objective(eps):
            field = DensityField(sigma + eps * v, self.SPEC)
            return float(np.sum(render_view(field, cam, self.RES, 0.5, 5.0, 24).depth * grad_map))

        eps = 1e-5
        fd = (objective(eps) - objective(-eps)) / (2 * eps)
        g = render_view_grad_sigma(
            DensityField(sigma, self.SPEC), cam, grad_map, self.RES, 0.5, 5.0, 24
        )
        jvp = float(np.sum(g * v))
        assert abs(jvp) > 1.0
        assert abs(fd - jvp) <= 1e-8 * abs(jvp)

    def test_rejects_mismatched_inputs(self):
        plan = RayPlan(self.SPEC, self.camera(), self.RES, 0.5, 5.0, 24)
        other = VoxelGridSpec(self.SPEC.dims, np.ones(3), 0.5)
        with pytest.raises(ValueError, match="grid"):
            plan.render(DensityField(np.zeros(self.SPEC.dims), other))
        _, rows = plan.render(DensityField(np.zeros(self.SPEC.dims), self.SPEC))
        with pytest.raises(ValueError):
            plan.grad_sigma(rows[:1], np.zeros(self.RES))
        with pytest.raises(ValueError):
            plan.grad_sigma(rows, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RayPlan(self.SPEC, self.camera(), self.RES, 5.0, 0.5, 24)


def unclipped_plan(spec, cam, res, t):
    """Reference: the kept sample positions, corners and weights found by
    testing every sample of the view against the trilinear box."""
    origin, dirs = _view_rays(cam, res)
    pos = origin + t[None, :, None] * dirs[:, None, :]
    coords = spec.world_to_grid(pos.reshape(-1, 3))
    cols = np.flatnonzero(_trilinear_in_box(spec.dims, coords))
    idx, wgt = _trilinear_corners(spec.dims, coords[cols])
    return cols, idx, wgt


class TestRayClipping:
    """Each ray is clipped to the grid box before sampling; the plan and
    every render must equal those built from all samples of the view."""

    SPEC = VoxelGridSpec((6, 5, 4), np.array([0.3, -0.2, 0.1]), 0.5)
    RES = (12, 16)

    def camera(self, yaw, offset, res=RES, pitch=0.0):
        h, w = res
        intr = Intrinsics(fx=12.0, fy=12.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
        mount = level_camera_mount(yaw, offset)
        tilt = rotation_from_angles(0.0, pitch)
        return Camera(intr, Pose(tilt @ mount.rotation, mount.translation))

    def check(self, spec, cam, res, t_near, t_far, s, seed):
        """Assert the plan and both render paths equal the unclipped
        reference bitwise; returns the number of kept samples."""
        rng = np.random.default_rng(seed)
        plan = RayPlan(spec, cam, res, t_near, t_far, s)
        cols, idx, wgt = unclipped_plan(spec, cam, res, plan.t)
        got_cols = np.concatenate([c.start * s + c.cols for c in plan.chunks])
        assert np.array_equal(got_cols, cols)
        assert np.array_equal(np.concatenate([c.idx for c in plan.chunks]), idx)
        assert np.array_equal(np.concatenate([c.wgt for c in plan.chunks]), wgt)
        field = DensityField(rng.uniform(0.2, 3.0, spec.dims), spec)
        grad_map = rng.normal(size=res)
        depth, opacity, grad = dense_render(field, cam, res, t_near, t_far, s, grad_map)
        dm = render_view(field, cam, res, t_near, t_far, s)
        g = render_view_grad_sigma(field, cam, grad_map, res, t_near, t_far, s)
        pdm, rows = plan.render(field)
        for got in (dm, pdm):
            assert np.array_equal(got.depth, depth)
            assert np.array_equal(got.opacity, opacity)
        assert np.array_equal(g, grad)
        assert np.array_equal(plan.grad_sigma(rows, grad_map), grad)
        origin, dirs = _view_rays(cam, res)
        first, stop = _box_sample_ranges(spec, origin, dirs, plan.t)
        # only the one-sample margin on each side is generated in vain
        assert cols.size <= np.sum(stop - first) <= cols.size + 2 * dirs.shape[0]
        return cols.size

    def test_seeded_random_cameras(self):
        # cameras around and inside the grid, aimed roughly at its center
        rng = np.random.default_rng(11)
        center = self.SPEC.origin + 0.5 * np.asarray(self.SPEC.dims) * self.SPEC.voxel_size
        for trial in range(8):
            offset = rng.uniform([-2.0, -2.0, -1.0], [5.0, 4.5, 3.0])
            to_center = center - offset
            yaw = np.arctan2(to_center[1], to_center[0]) + rng.uniform(-0.5, 0.5)
            cam = self.camera(yaw, offset, pitch=rng.uniform(-0.4, 0.4))
            assert self.check(self.SPEC, cam, self.RES, 0.3, 8.0, 40, trial) > 0

    def test_camera_inside_the_grid(self):
        cam = self.camera(0.7, [1.8, 1.1, 1.2])
        assert self.check(self.SPEC, cam, self.RES, 0.05, 4.0, 32, 12) > 0

    @pytest.mark.parametrize("z", [0.1, np.nextafter(0.1, -1.0), 0.1 - 1e-6, 2.1])
    def test_axis_aligned_rays(self, z):
        # level mount at yaw 0: the middle image row has a zero z direction
        # component and the middle column a zero y component. With the
        # origin on the z = 0.1 face, one ulp below it (the exact test still
        # keeps that row) and clearly outside, the row must match the
        # unclipped reference.
        res = (9, 11)
        cam = self.camera(0.0, [-1.0, 0.9, z], res)
        _, dirs = _view_rays(cam, res)
        assert np.all(dirs[4 * 11 : 5 * 11, 2] == 0.0) and np.all(dirs[5::11, 1] == 0.0)
        self.check(self.SPEC, cam, res, 0.5, 6.0, 30, 13)

    def test_origin_one_ulp_outside_keeps_the_face_samples(self):
        res = (9, 11)
        cam = self.camera(0.0, [-1.0, 0.9, np.nextafter(0.1, -1.0)], res)
        dm = render_view(
            DensityField(np.ones(self.SPEC.dims), self.SPEC), cam, res, 0.5, 6.0, 30
        )
        assert np.all(dm.opacity[4] > 0)

    def test_camera_facing_away(self):
        cam = self.camera(np.pi, [-1.0, 1.0, 1.0])
        assert self.check(self.SPEC, cam, self.RES, 0.3, 8.0, 40, 14) == 0

    @pytest.mark.parametrize("t_near, kept_any", [(2.0, True), (5.0, False)])
    def test_t_near_beyond_the_box(self, t_near, kept_any):
        # the grid spans 1.3 to 4.3 m ahead: t_near = 2 starts inside it,
        # t_near = 5 beyond it
        cam = self.camera(0.0, [-1.0, 1.0, 1.1])
        kept = self.check(self.SPEC, cam, self.RES, t_near, t_near + 6.0, 30, 15)
        assert (kept > 0) == kept_any


class TestExports:
    def test_depth_map_files(self, tmp_path):
        from occgeom.formats import read_pfm, read_pgm
        from occgeom.renderer import save_depth_pfm, save_depth_pgm, save_valid_pgm

        depth = np.array([[1.25, 0.4], [45.0, 2.0]])
        valid = np.array([[True, False], [True, True]])
        dm = DepthMap(depth=depth, valid=valid, opacity=valid.astype(float))
        save_depth_pfm(dm, tmp_path / "d.pfm")
        back = read_pfm(tmp_path / "d.pfm")
        assert back[0, 1] == 0.0  # invalid pixels zeroed on export
        assert back[1, 0] == pytest.approx(45.0)
        save_depth_pgm(dm, tmp_path / "d.pgm")
        mm = read_pgm(tmp_path / "d.pgm")
        assert mm[0, 0] == 1250 and mm[0, 1] == 0 and mm[1, 0] == 45000
        save_valid_pgm(dm, tmp_path / "v.pgm")
        assert np.array_equal(read_pgm(tmp_path / "v.pgm") > 0, valid)


class TestTypes:
    def test_density_field_validation(self):
        spec = VoxelGridSpec((2, 2, 2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            DensityField(-np.ones((2, 2, 2)), spec)
        with pytest.raises(ValueError):
            DensityField(np.zeros((3, 2, 2)), spec)

    def test_ray_samples_validation(self):
        with pytest.raises(ValueError):
            RaySamples(np.array([1.0]), np.zeros((1, 3)), np.array([1.0]))
        with pytest.raises(ValueError):
            RaySamples(np.array([2.0, 1.0]), np.zeros((2, 3)), np.ones(2))
