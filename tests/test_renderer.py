"""Tests for depth volume rendering and its density gradient."""

import numpy as np
import pytest
from helpers import grad_check, level_camera_mount, ray, render_ray, rotation_from_angles

from occgeom.camera import Camera, Intrinsics, Pose, camera_pose_at, view_rays
from occgeom.renderer import (
    _BLOCK_RAYS,
    _TILE_RAYS,
    _box_sample_ranges,
    _live_cells,
    _plan_chunks,
    DensityField,
    DepthMap,
    RayPlan,
    _midpoint_samples,
    _render_batch,
    _row_sums,
    render_view,
)
from occgeom.tensor import (
    _corner_offsets,
    _corner_sum,
    _padded_cells,
    _trilinear_corners,
    _trilinear_in_box,
    trilinear_sample,
)
from occgeom.synthscene import SceneConfig, build_scene
from occgeom.view_transform import VoxelGridSpec


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
        t, deltas = _midpoint_samples(0.0 + 1e-12, 2.0, 2)
        np.testing.assert_allclose(t, [0.5, 1.5], atol=1e-9)
        np.testing.assert_allclose(deltas, [1.0, 1.0], atol=1e-9)

    def test_paper_sample_count_spacing(self):
        t, deltas = _midpoint_samples(1.0, 45.0, 152)
        assert t.size == 152
        np.testing.assert_allclose(deltas, 44.0 / 152)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            _midpoint_samples(3.0, 2.0, 8)
        with pytest.raises(ValueError):
            _midpoint_samples(1.0, 2.0, 1)


class TestSampleDensity:
    """Trilinear density reads at world points, through world_to_grid."""

    SPEC = VoxelGridSpec((3, 3, 3), np.zeros(3), 1.0)

    def sample(self, sigma, points):
        return trilinear_sample(sigma, self.SPEC.world_to_grid(np.array(points)))[0]

    def test_voxel_center_exact(self):
        rng = np.random.default_rng(0)
        sigma = rng.uniform(size=(3, 3, 3))
        out = self.sample(sigma, [[1.5, 0.5, 2.5]])
        assert out[0] == sigma[1, 0, 2]

    def test_outside_zero(self):
        assert self.sample(np.ones((3, 3, 3)), [[9.0, 0.5, 0.5]])[0] == 0.0

    def test_midpoint_average(self):
        sigma = np.zeros((3, 3, 3))
        sigma[0, 0, 0] = 2.0
        sigma[1, 0, 0] = 6.0
        out = self.sample(sigma, [[1.0, 0.5, 0.5]])
        assert out[0] == pytest.approx(4.0)


class TestRenderDepth:
    def test_empty_space(self):
        depth, opacity, w, _ = render_ray(np.zeros(8), 1.0, 5.0)
        assert depth == 0.0 and opacity == 0.0
        assert np.all(w == 0.0)

    def test_opaque_first_sample(self):
        t, _ = _midpoint_samples(1.0, 5.0, 8)
        sig = np.zeros(8)
        sig[0] = 1e6
        depth, opacity, _, _ = render_ray(sig, 1.0, 5.0)
        assert depth == pytest.approx(t[0], abs=1e-9)
        assert opacity == pytest.approx(1.0, abs=1e-9)

    def test_constant_density_geometric_weights(self):
        t, deltas = _midpoint_samples(1.0, 9.0, 16)
        c = 0.37
        depth, opacity, w, _ = render_ray(np.full(16, c), 1.0, 9.0)
        step = deltas[0]
        expect_w = np.exp(-c * step * np.arange(16)) * (1 - np.exp(-c * step))
        np.testing.assert_allclose(w, expect_w, atol=1e-12)
        d2, o2, w2 = render_oracle(np.full(16, c), t, deltas)
        assert depth == pytest.approx(d2, abs=1e-12)
        assert opacity == pytest.approx(o2, abs=1e-12)
        np.testing.assert_allclose(w, w2, atol=1e-12)

    def test_weight_invariants_random(self):
        rng = np.random.default_rng(1)
        t, _ = _midpoint_samples(1.0, 9.0, 32)
        for _ in range(25):
            sig = rng.uniform(0, 3.0, 32)
            depth, opacity, w, _ = render_ray(sig, 1.0, 9.0)
            assert np.all(w >= 0)
            assert opacity <= 1.0 + 1e-12
            if opacity > 0:
                assert t[0] <= depth / opacity <= t[-1]


class TestDepthGradSigma:
    def test_zero_density_first_order(self):
        t, deltas = _midpoint_samples(1.0, 5.0, 8)
        g = render_ray(np.zeros(8), 1.0, 5.0)[3]
        np.testing.assert_allclose(g, deltas * t, atol=1e-12)

    def test_occluded_samples_zero_gradient(self):
        sig = np.zeros(8)
        sig[0] = 1e6
        g = render_ray(sig, 1.0, 5.0)[3]
        assert np.all(np.abs(g[1:]) < 1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            sig = rng.uniform(0.05, 1.0, 16)
            g = render_ray(sig, 1.0, 5.0)[3]
            err = grad_check(lambda s: render_ray(s, 1.0, 5.0)[0], sig, g, eps=1e-5)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_monotone_under_saturated_tail(self):
        # with an opaque ray, more density at the first sample moves the
        # expected depth nearer, never farther
        rng = np.random.default_rng(2)
        for _ in range(20):
            sig = rng.uniform(0.0, 1.0, 16)
            sig[-1] = 1e4  # saturate
            base = render_ray(sig, 1.0, 9.0)[0]
            bumped = sig.copy()
            bumped[0] += rng.uniform(0.1, 2.0)
            after = render_ray(bumped, 1.0, 9.0)[0]
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
        t, _ = _midpoint_samples(0.5, 5.0, 24)
        for r in range(4):
            for c in range(6):
                origin, d = ray(cam, [c, r])
                sig, _ = trilinear_sample(field.sigma, spec.world_to_grid(origin + t[:, None] * d))
                depth, opacity, _, _ = render_ray(sig, 0.5, 5.0)
                assert abs(depth - dm.depth[r, c]) < 1e-12
                assert dm.valid[r, c] == (opacity > 0.5)

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
        plan = RayPlan(spec, cam, (6, 8), 0.4, 4.0, 20)
        plan.render(field)
        g = plan.grad_sigma(grad_map)

        def objective(sig):
            f = DensityField(sig.reshape(5, 5, 3), spec)
            dm = render_view(f, cam, (6, 8), 0.4, 4.0, 20)
            return float(np.sum(dm.depth * grad_map))

        err = grad_check(objective, field.sigma.ravel(), g.ravel(), eps=1e-6)
        assert err < 1e-4


def depth_grad_reference(sigma, t, deltas):
    """d(depth)/d(sigma_k) [R x W] for [R x W] density rows, the first W of
    the S samples in t and deltas, recomputing the weights from sigma.

    From the chain rule through the weights:
        d depth / d sigma_k = delta_k * (T_k e^{-sigma_k delta_k} t_k
                                         - sum_{i>k} w_i t_i).
    Samples past W have zero weight, so the tail sum over the first W
    samples is exact.
    """
    t, deltas = t[..., : sigma.shape[-1]], deltas[..., : sigma.shape[-1]]
    a = sigma * deltas
    prefix = np.cumsum(a, axis=-1)
    transmittance = np.exp(-(prefix - a))
    weights = transmittance * (1.0 - np.exp(-a))
    wt = weights * t
    tail = np.cumsum(wt[..., ::-1], axis=-1)[..., ::-1] - wt  # sum over i > k
    return deltas * (transmittance * np.exp(-a) * t - tail)


def dense_render(field, cam, res, t_near, t_far, s, grad_map, blocks):
    """Reference: trilinear-sample all S samples of every ray, render with
    np.sum over the full [N x S] rows, and scatter the adjoint over the
    corners of every in-box sample into a zero-padded grid that is then
    cropped. The scatter runs per block of rays (the (start, stop) of each
    of `blocks`, in order): one np.bincount over the block's samples in
    sample order, corner-major (corner 0 of every sample, then corner 1,
    ...), added into the grid. It also checks that this stays within
    1e-13 of np.add.at in sample order, relative to the largest entry.

    Returns (depth, opacity, dL/dsigma) for the depth cotangent grad_map.
    """
    origin, dirs = view_rays(cam, res)
    step = (t_far - t_near) / s
    t = t_near + (np.arange(s) + 0.5) * step
    deltas = np.full(s, step)
    pos = origin + t[None, :, None] * dirs[:, None, :]
    coords = field.spec.world_to_grid(pos.reshape(-1, 3))
    sig, _ = trilinear_sample(field.sigma, coords)
    sig = sig.reshape(-1, s)
    a = sig * deltas
    weights = np.exp(-(np.cumsum(a, axis=-1) - a)) * (1.0 - np.exp(-a))
    depth, opacity = np.sum(weights * t, axis=-1), np.sum(weights, axis=-1)
    cols = np.flatnonzero(_trilinear_in_box(field.spec.dims, coords))
    base, wgt = _trilinear_corners(field.spec.dims, coords[cols].T)
    idx = base + _corner_offsets(field.spec.dims)[:, None]  # [8 x M], corner-major
    dsig = depth_grad_reference(sig, t[None, :], deltas[None, :])
    per_sample = (dsig * grad_map.reshape(-1)[:, None]).reshape(-1)[cols]
    grad = np.zeros(np.add(field.spec.dims, 2)).reshape(-1)
    bounds = [(b.start, b.stop) for b in blocks]
    assert bounds[0][0] == 0 and bounds[-1][1] == len(dirs)
    for start, stop in bounds:
        lo, hi = np.searchsorted(cols, (start * s, stop * s))
        products = wgt[:, lo:hi] * per_sample[lo:hi]
        grad += np.bincount(idx[:, lo:hi].ravel(), products.ravel(), minlength=grad.size)
    sample_order = np.zeros(grad.size)
    np.add.at(sample_order, idx.T.ravel(), (per_sample[:, None] * wgt.T).ravel())
    assert np.max(np.abs(grad - sample_order)) <= 1e-13 * np.max(np.abs(sample_order))
    grad = grad.reshape(np.add(field.spec.dims, 2))
    return depth.reshape(res), opacity.reshape(res), grad[1:-1, 1:-1, 1:-1]


class TestRayPlan:
    SPEC = VoxelGridSpec((6, 6, 4), np.zeros(3), 0.5)
    # 4608 rays, more than one block holds
    RES = (48, 96)

    def camera(self, yaw=0.3, offset=(-0.4, 1.5, 1.0)):
        h, w = self.RES
        intr = Intrinsics(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
        return Camera(intr, level_camera_mount(yaw, offset))

    def test_matches_dense_reference_bitwise(self):
        rays = self.RES[0] * self.RES[1]
        assert rays > _BLOCK_RAYS
        rng = np.random.default_rng(5)
        cam = self.camera()
        plan = RayPlan(self.SPEC, cam, self.RES, 0.5, 5.0, 24)
        assert len(plan.chunks) > 1 and check_blocks(plan.chunks, rays)
        for _ in range(2):  # one plan, two different density fields
            field = DensityField(rng.uniform(0, 3, self.SPEC.dims), self.SPEC)
            grad_map = rng.normal(size=self.RES)
            depth, opacity, grad = dense_render(
                field, cam, self.RES, 0.5, 5.0, 24, grad_map, plan.chunks
            )
            assert np.count_nonzero(opacity) > 100
            dm = render_view(field, cam, self.RES, 0.5, 5.0, 24)
            pdm = plan.render(field)
            pg = plan.grad_sigma(grad_map)
            for got in (dm, pdm):
                assert np.array_equal(got.depth, depth)
                assert np.array_equal(got.valid, opacity > 0.5)
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
        origin, dirs = view_rays(cam, (3, 5))
        coords = spec.world_to_grid(origin + plan.t[:, None] * dirs[center])
        assert coords[0, 0] == -0.5 and coords[4, 0] == 3.5
        assert np.all(coords[:, 1:] == 1.0)
        chunk = plan.chunks[0]
        rows = chunk.gather(np.pad(sigma, 1).ravel())
        assert rows[center, 0] == 0.5 * sigma[0, 1, 1]
        assert rows[center, 4] == 0.5 * sigma[3, 1, 1]
        # t = 7 lies past the box for every ray: no block keeps sample 5,
        # and the window, rounded up to 8 samples, stops at S
        assert chunk.lo == 0 and rows.shape == (15, 6)
        assert not np.any(chunk.cols % 6 == 5)
        dm = plan.render(field)
        assert plan._jac[0].shape == (15, 6)
        grad_map = np.random.default_rng(7).normal(size=(3, 5))
        depth, opacity, grad = dense_render(
            field, cam, (3, 5), t_near, t_near + s, s, grad_map, plan.chunks
        )
        assert np.array_equal(dm.depth, depth) and np.array_equal(dm.valid, opacity > 0.5)
        assert np.array_equal(plan.grad_sigma(grad_map), grad)

    def test_camera_missing_the_grid(self):
        # looking away from the grid: no sample is ever inside the box
        cam = self.camera(yaw=np.pi, offset=(-1.0, 1.5, 1.0))
        field = DensityField(np.full(self.SPEC.dims, 5.0), self.SPEC)
        plan = RayPlan(self.SPEC, cam, self.RES, 0.5, 5.0, 24)
        assert all(c.cols.size == 0 for c in plan.chunks)
        grad_map = np.random.default_rng(8).normal(size=self.RES)
        pdm = plan.render(field)
        for dm in (render_view(field, cam, self.RES, 0.5, 5.0, 24), pdm):
            assert np.all(dm.depth == 0.0)
            assert not dm.valid.any()
        assert np.all(plan.grad_sigma(grad_map) == 0.0)

    def test_corner_operator_adjoint_identity(self):
        # <gather(v), y> == <v, scatter(y)> for every chunk of the plan, with
        # v on the whole padded grid, its zero shell included
        rng = np.random.default_rng(9)
        plan = RayPlan(self.SPEC, self.camera(), self.RES, 0.5, 5.0, 24)
        padded = int(np.prod([d + 2 for d in self.SPEC.dims]))
        for chunk in plan.chunks:
            v = rng.normal(size=padded)
            y = rng.normal(size=(chunk.stop - chunk.start, chunk.width))
            scattered = np.zeros(v.size)
            chunk.scatter(scattered, y)
            lhs = float(np.sum(chunk.gather(v) * y))
            rhs = float(np.dot(v, scattered))
            assert chunk.cols.size > 0
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_jacobian_adjoint_identity(self):
        # per block, <grad_sigma(g), v> == sum_r g_r sum_k J[r, k] gather(v)[r, k]
        # with g zero off the block, where J are the rows the render kept,
        # and J equals the recomputing reference
        rng = np.random.default_rng(22)
        plan = RayPlan(self.SPEC, self.camera(), self.RES, 0.5, 5.0, 24)
        field = DensityField(rng.uniform(0, 3, self.SPEC.dims), self.SPEC)
        plan.render(field)
        jac = plan._jac
        sigma_pad = np.pad(field.sigma, 1).ravel()
        t, deltas = plan.t[None, :], plan.deltas[None, :]
        assert len(jac) == len(plan.chunks) > 1
        for chunk, rows in zip(plan.chunks, jac):
            assert same_bits(rows, depth_grad_reference(chunk.gather(sigma_pad), t, deltas))
            v = rng.normal(size=self.SPEC.dims)
            g = np.zeros(self.RES)
            g.reshape(-1)[chunk.start : chunk.stop] = rng.normal(size=chunk.stop - chunk.start)
            lhs = float(np.sum(plan.grad_sigma(g) * v))
            gv = chunk.gather(np.pad(v, 1).ravel())
            rhs = float(np.sum(g.reshape(-1)[chunk.start : chunk.stop] * np.sum(rows * gv, axis=1)))
            assert chunk.width > 0
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_directional_derivative_matches_adjoint(self):
        # central difference of sum(g * depth(sigma + eps v)) along v against
        # <grad_sigma(g), v>, over every block of the view
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
        plan = RayPlan(self.SPEC, cam, self.RES, 0.5, 5.0, 24)
        plan.render(DensityField(sigma, self.SPEC))
        jvp = float(np.sum(plan.grad_sigma(grad_map) * v))
        assert abs(jvp) > 1.0
        assert abs(fd - jvp) <= 1e-8 * abs(jvp)

    def test_rejects_mismatched_inputs(self):
        plan = RayPlan(self.SPEC, self.camera(), self.RES, 0.5, 5.0, 24)
        other = VoxelGridSpec(self.SPEC.dims, np.ones(3), 0.5)
        with pytest.raises(ValueError, match="grid"):
            plan.render(DensityField(np.zeros(self.SPEC.dims), other))
        plan.render(DensityField(np.zeros(self.SPEC.dims), self.SPEC))
        with pytest.raises(ValueError, match=r"grad_depth \(2, 2\) vs resolution"):
            plan.grad_sigma(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RayPlan(self.SPEC, self.camera(), self.RES, 5.0, 0.5, 24)

    def test_grad_sigma_needs_a_render(self):
        # no Jacobian rows before the first render, nor after a render that
        # raised: the plan never scatters rows of an earlier field
        plan = RayPlan(self.SPEC, self.camera(), self.RES, 0.5, 5.0, 24)
        with pytest.raises(ValueError, match="needs a render"):
            plan.grad_sigma(np.zeros(self.RES))
        plan.render(DensityField(np.ones(self.SPEC.dims), self.SPEC))
        assert np.any(plan.grad_sigma(np.ones(self.RES)) != 0.0)
        other = VoxelGridSpec(self.SPEC.dims, np.ones(3), 0.5)
        with pytest.raises(ValueError, match="grid"):
            plan.render(DensityField(np.ones(self.SPEC.dims), other))
        with pytest.raises(ValueError, match="needs a render"):
            plan.grad_sigma(np.ones(self.RES))

    def test_grad_sigma_reads_the_last_render(self):
        # rendering field a and then field b leaves b's rows: the adjoint
        # equals a fresh plan's after rendering b alone, bit for bit
        rng = np.random.default_rng(23)
        cam = self.camera()
        a, b = (DensityField(rng.uniform(0, 3, self.SPEC.dims), self.SPEC) for _ in range(2))
        grad_map = rng.normal(size=self.RES)
        plan = RayPlan(self.SPEC, cam, self.RES, 0.5, 5.0, 24)
        plan.render(a)
        grad_a = plan.grad_sigma(grad_map)
        plan.render(b)
        fresh = RayPlan(self.SPEC, cam, self.RES, 0.5, 5.0, 24)
        fresh.render(b)
        want = fresh.grad_sigma(grad_map)
        assert same_bits(plan.grad_sigma(grad_map), want)
        assert not np.array_equal(grad_a, want)


def unclipped_plan(spec, cam, res, t, live=None):
    """Reference: the kept sample positions, low-corner cells and weights
    found by testing every sample of the view against the trilinear box
    and, given a flat mask over the padded grid, its low cell against
    `live`."""
    origin, dirs = view_rays(cam, res)
    pos = origin + t[None, :, None] * dirs[:, None, :]
    coords = spec.world_to_grid(pos.reshape(-1, 3))
    cols = np.flatnonzero(_trilinear_in_box(spec.dims, coords))
    if live is not None:
        cols = cols[live[_padded_cells(spec.dims, *np.floor(coords[cols]).T)]]
    base, wgt = _trilinear_corners(spec.dims, coords[cols].T)
    return cols, base, wgt


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
        cols, base, wgt = unclipped_plan(spec, cam, res, plan.t)
        # kept samples sit in each block's [R x width] window: back to [N x S]
        got_cols = np.concatenate(
            [(c.start + c.cols // c.width) * s + c.lo + c.cols % c.width if c.width else c.cols
             for c in plan.chunks]
        )
        assert np.array_equal(got_cols, cols)
        assert check_blocks(plan.chunks, res[0] * res[1])
        for c in plan.chunks:  # the window spans the kept samples, 8-aligned
            check_window(c, s)
        assert np.array_equal(np.concatenate([c.base for c in plan.chunks]), base)
        assert np.array_equal(np.concatenate([c.wgt for c in plan.chunks], axis=1), wgt)
        field = DensityField(rng.uniform(0.2, 3.0, spec.dims), spec)
        grad_map = rng.normal(size=res)
        depth, opacity, grad = dense_render(
            field, cam, res, t_near, t_far, s, grad_map, plan.chunks
        )
        dm = render_view(field, cam, res, t_near, t_far, s)
        pdm = plan.render(field)
        for got in (dm, pdm):
            assert np.array_equal(got.depth, depth)
            assert np.array_equal(got.valid, opacity > 0.5)
        assert np.array_equal(plan.grad_sigma(grad_map), grad)
        origin, dirs = view_rays(cam, res)
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
        _, dirs = view_rays(cam, res)
        assert np.all(dirs[4 * 11 : 5 * 11, 2] == 0.0) and np.all(dirs[5::11, 1] == 0.0)
        self.check(self.SPEC, cam, res, 0.5, 6.0, 30, 13)

    def test_origin_one_ulp_outside_keeps_the_face_samples(self):
        res = (9, 11)
        cam = self.camera(0.0, [-1.0, 0.9, np.nextafter(0.1, -1.0)], res)
        dm = render_view(
            DensityField(np.ones(self.SPEC.dims), self.SPEC), cam, res, 0.5, 6.0, 30
        )
        assert np.all(dm.depth[4] > 0)  # t > 0: some sample of each ray has weight

    def test_live_window_of_rays_that_exit_early(self):
        # inside the grid, just under its top face and pitched up: every ray
        # leaves the box within its first 21 of S = 60 samples
        spec = VoxelGridSpec((6, 6, 4), np.zeros(3), 0.5)
        res, s = (36, 40), 60
        intr = Intrinsics(fx=30.0, fy=30.0, cx=19.5, cy=17.5, width=40, height=36)
        mount = level_camera_mount(0.3, [1.4, 1.5, 1.9])
        tilt = rotation_from_angles(0.0, -0.6)
        cam = Camera(intr, Pose(tilt @ mount.rotation, mount.translation))
        plan = RayPlan(spec, cam, res, 0.2, 6.0, s)
        assert [(c.lo, c.width) for c in plan.chunks] == [(0, 24)]
        assert self.check(spec, cam, res, 0.2, 6.0, s, 16) > 0

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


def check_blocks(chunks, rays):
    """Whether the chunks' blocks are whole tiles of consecutive pixels
    that cover the view in order."""
    starts = [c.start for c in chunks]
    stops = [c.stop for c in chunks]
    return (starts[0] == 0 and stops[:-1] == starts[1:] and stops[-1] == rays
            and all(start % _TILE_RAYS == 0 for start in starts))


def check_window(chunk, s):
    """Assert a chunk's window is its kept samples' span, rounded out to
    multiples of 8 and capped at S; empty when it keeps none."""
    if not chunk.cols.size:
        assert chunk.lo == chunk.width == 0
        return
    k = chunk.lo + chunk.cols % chunk.width
    assert chunk.lo == k.min() // 8 * 8
    assert chunk.lo + chunk.width == min(-(-(k.max() + 1) // 8) * 8, s)


def same_bits(a, b):
    """np.array_equal, and equal bytes too: signed zeros must match."""
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOneShotRender:
    """render_view gathers each block's live samples through a chunk of
    _plan_chunks that it drops after the block; depth and validity must
    equal RayPlan.render's and the all-sample dense reference's bit for
    bit."""

    SPEC, RES, camera = TestRayClipping.SPEC, TestRayClipping.RES, TestRayClipping.camera

    def check(self, sigma, cam, res=RES, t_near=0.3, t_far=8.0, s=40, spec=SPEC):
        """Assert render_view == RayPlan.render == dense reference, and
        that each block's rows hold the reference densities up to its
        window, with zero density past it; returns the block widths."""
        field = DensityField(sigma, spec)
        plan = RayPlan(spec, cam, res, t_near, t_far, s)
        depth, opacity, _ = dense_render(
            field, cam, res, t_near, t_far, s, np.zeros(res), plan.chunks
        )
        for dm in (render_view(field, cam, res, t_near, t_far, s), plan.render(field)):
            assert same_bits(dm.depth, depth)
            assert np.array_equal(dm.valid, opacity > 0.5)
        origin, dirs = view_rays(cam, res)
        coords = spec.world_to_grid(origin + plan.t[None, :, None] * dirs[:, None, :])
        dense = trilinear_sample(field.sigma, coords.reshape(-1, 3))[0].reshape(-1, s)
        sigma_pad = np.pad(field.sigma, 1)
        live = _live_cells(sigma_pad)
        widths = []
        for chunk in _plan_chunks(spec, cam, res, plan.t, live):
            rows = chunk.gather(sigma_pad.ravel())
            start, stop, lo, w = chunk.start, chunk.stop, chunk.lo, chunk.width
            assert rows.shape == (stop - start, w)
            check_window(chunk, s)
            assert np.array_equal(rows, dense[start:stop, lo : lo + w])
            assert not dense[start:stop, :lo].any() and not dense[start:stop, lo + w :].any()
            widths.append(w)
        return widths

    def test_random_field_with_negative_zeros(self):
        # -0.0 passes DensityField's sigma >= 0 and is no live density; the
        # 3 x 3 x 2 block of -0.0 voxels holds cells with eight -0.0 corners
        rng = np.random.default_rng(19)
        sigma = rng.uniform(0.2, 3.0, self.SPEC.dims)
        sigma[rng.random(self.SPEC.dims) < 0.4] = -0.0
        sigma[1:4, 1:4, 1:3] = -0.0
        sigma[4:, 3:] = 0.0
        assert not _live_cells(np.pad(sigma, 1)).reshape(8, 7, 6)[2:4, 2:4, 2].any()
        for cam in (self.camera(0.4, [-1.5, 0.2, 1.2], pitch=0.1), self.camera(0.3, [-1.0, 0.9, 1.1])):
            assert max(self.check(sigma, cam)) > 0
        # from inside the grid, the first sample of every ray is in the box
        assert max(self.check(sigma, self.camera(0.7, [1.0, 0.0, 0.5]), t_near=0.05)) > 0

    def test_all_negative_zero_field(self):
        sigma = np.full(self.SPEC.dims, -0.0)
        assert self.check(sigma, self.camera(0.4, [-1.5, 0.2, 1.2])) == [0]

    def test_all_zero_field_has_empty_windows(self):
        cam = self.camera(0.4, [-1.5, 0.2, 1.2])
        widths = self.check(np.zeros(self.SPEC.dims), cam, res=(48, 96), s=24)
        assert len(widths) > 1 and set(widths) == {0}

    @pytest.mark.parametrize("voxel", [(0, 2, 1), (5, 4, 3), (3, 0, 0)])
    def test_one_voxel_on_a_grid_face(self, voxel):
        # its cell's corners reach into the zero shell; every live sample
        # lies in the eight cells around one voxel
        sigma = np.zeros(self.SPEC.dims)
        sigma[voxel] = 7.0
        center = self.SPEC.origin + (np.array(voxel) + 0.5) * self.SPEC.voxel_size
        live = _live_cells(np.pad(sigma, 1))
        assert live.sum() == 8
        for yaw, offset in ((0.0, [-1.5, center[1], center[2]]),
                            (np.pi, [5.0, center[1], center[2]]),
                            (np.pi / 2, [center[0], -1.8, center[2]])):
            cam = self.camera(yaw, offset, pitch=0.05)
            dm = render_view(DensityField(sigma, self.SPEC), cam, self.RES, 0.3, 8.0, 40)
            assert dm.valid.any()
            self.check(sigma, cam)

    def test_boxes_scene(self):
        # cameras outside the grid at different distances and heights, whose
        # rays enter the box at different depths, and the rig's own cameras
        # inside it, whose first sample is already in the box; most samples
        # read free space
        scene = build_scene(SceneConfig(seed=3, preset="boxes", image_size=(24, 40)))
        spec = scene.spec
        cams = [self.camera(yaw, offset, (24, 40), pitch) for yaw, offset, pitch in (
            (0.2, [-2.0, 5.0, 4.0], 0.35), (-0.1, [-9.0, 7.0, 1.5], 0.0),
            (2.5, [16.0, -4.0, 6.0], 0.5))]
        cams += [Camera(c.intrinsics, camera_pose_at(scene.rig, i, 1))
                 for i, c in enumerate(scene.rig.cameras)]
        for cam in cams:
            widths = self.check(scene.density_gt.sigma, cam, (24, 40), 1.0, 30.0, 64, spec)
            assert max(widths) > 0

    def test_partial_last_block(self):
        # 4608 rays: three blocks, the last one holding what is left
        res, s = (48, 96), 24
        assert res[0] * res[1] > _BLOCK_RAYS
        rng = np.random.default_rng(20)
        sigma = np.where(rng.random(self.SPEC.dims) < 0.3, rng.uniform(0.5, 4.0, self.SPEC.dims), 0.0)
        cam = self.camera(0.3, [-0.4, 1.0, 1.0], res)
        widths = self.check(sigma, cam, res, 0.5, 5.0, s)
        assert len(widths) == 3 and min(widths) > 0

    def test_tree_sum_is_numpy_row_sum(self):
        # tensor._corner_sum adds its eight corner products in numpy's
        # pairwise order for a row of 8, onto +0.0; a numpy that sums rows
        # otherwise fails here. Rows of eight -0.0 (numpy gives +0.0, a bare
        # tree -0.0) occur through trilinear_sample on signed volumes.
        rng = np.random.default_rng(21)
        n = 100_000
        for scale in (1.0, 1e-300, 1e300):
            m = rng.uniform(-1.0, 1.0, (n, 8)) * 10.0 ** rng.integers(-8, 9, (n, 8))
            m *= scale
            m[rng.random(m.shape) < 0.05] = 0.0
            m[rng.random(m.shape) < 0.05] = -0.0
            m[:1000] = -0.0  # signed zeros with a single +0.0 or positive entry
            m[np.arange(1000), rng.integers(0, 8, 1000)] = np.where(np.arange(1000) % 2, 0.0, 1.5)
            m[1000:1100] = -0.0  # rows of eight -0.0
            # a unit weight leaves every product, -0.0 included, as it is
            with np.errstate(over="ignore"):
                got = _corner_sum(m.ravel(), np.arange(0, 8 * n, 8), np.arange(8), np.ones((8, n)))
                assert same_bits(got, np.sum(m, axis=1))
            assert np.all(got[1000:1100] == 0.0) and not np.signbit(got[1000:1100]).any()


class TestRowSums:
    """_render_batch sums a window's weights with _row_sums, which must give
    np.sum over the whole S-wide rows, zeros outside the window included,
    bit for bit."""

    def test_matches_numpy_over_full_rows(self):
        rng = np.random.default_rng(24)
        for s in range(2, 421):
            for trial in range(3):
                lo = 8 * int(rng.integers(0, (s - 1) // 8 + 1))
                hi = int(rng.choice(np.append(np.arange(lo + 8, s, 8), s)))
                if trial == 0:
                    lo, hi = 0, s
                full = np.zeros((5, s))
                win = rng.uniform(0, 1, (5, hi - lo)) * 10.0 ** rng.integers(-6, 7, (5, hi - lo))
                win[rng.random(win.shape) < 0.2] = 0.0
                win[0] = 0.0  # an all-zero row
                full[:, lo:hi] = win
                got = _row_sums(win, lo, s)
                assert same_bits(got, np.sum(full, axis=-1)), (s, lo, hi)
                assert got[0] == 0.0 and not np.signbit(got[0])

    def test_jacobian_free_render_matches(self):
        rng = np.random.default_rng(25)
        t, deltas = _midpoint_samples(0.5, 9.0, 150)
        sigma = rng.uniform(0.0, 2.0, (7, 40))
        with_jac = _render_batch(sigma, t[None, :], deltas[None, :], 104)
        without = _render_batch(sigma, t[None, :], deltas[None, :], 104, with_jac=False)
        assert without[3] is None and with_jac[3].shape == sigma.shape
        for a, b in zip(with_jac[:3], without[:3]):
            assert same_bits(a, b)


class TestTileCulling:
    """_plan_chunks tests only the samples of tiles of rays whose cell box
    holds a live cell; the (ray, k) pairs it keeps must be those of an
    exact test of every sample of every ray."""

    SPEC, camera = TestRayClipping.SPEC, TestRayClipping.camera
    # 481 rays: tiles of 32 rays wrap from one image row to the next
    RES = (13, 37)

    def check(self, live, cam, res=RES, t_near=0.3, t_far=8.0, s=40):
        """Assert the kept (ray, k) pairs, their cells and weights equal
        those of a test of every sample; returns the chunks."""
        t, _ = _midpoint_samples(t_near, t_far, s)
        chunks = list(_plan_chunks(self.SPEC, cam, res, t, live))
        ray = np.concatenate([c.start + c.cols // max(c.width, 1) for c in chunks])
        k = np.concatenate([c.lo + c.cols % max(c.width, 1) for c in chunks])
        cols, base, wgt = unclipped_plan(self.SPEC, cam, res, t, live)
        assert np.array_equal(ray * s + k, cols)
        assert np.array_equal(np.concatenate([c.base for c in chunks]), base)
        assert np.array_equal(np.concatenate([c.wgt for c in chunks], axis=1), wgt)
        assert check_blocks(chunks, res[0] * res[1])
        for c in chunks:
            check_window(c, s)
        return chunks

    def cameras(self, seed, n=6):
        rng = np.random.default_rng(seed)
        center = self.SPEC.origin + 0.5 * np.asarray(self.SPEC.dims) * self.SPEC.voxel_size
        for _ in range(n):
            offset = rng.uniform([-2.0, -2.0, -1.0], [5.0, 4.5, 3.0])
            to_center = center - offset
            yaw = np.arctan2(to_center[1], to_center[0]) + rng.uniform(-0.5, 0.5)
            yield self.camera(yaw, offset, self.RES, pitch=rng.uniform(-0.4, 0.4))

    def live(self, sigma):
        return _live_cells(np.pad(sigma, 1))

    def test_sparse_field(self):
        rng = np.random.default_rng(26)
        sigma = np.where(rng.random(self.SPEC.dims) < 0.08, 1.0, 0.0)
        live = self.live(sigma)
        assert 0 < live.sum() < live.size // 2
        kept = sum(c.cols.size for cam in self.cameras(27) for c in self.check(live, cam))
        assert kept > 0

    def test_all_live_field(self):
        live = np.ones(np.prod([d + 2 for d in self.SPEC.dims]), dtype=bool)
        for cam in self.cameras(28):
            self.check(live, cam)
        # more rays than one block holds
        cam = self.camera(0.3, [-1.0, 0.9, 1.1], (60, 90))
        chunks = self.check(live, cam, (60, 90))
        assert len(chunks) > 1 and chunks[0].width > 0

    @pytest.mark.parametrize("corner", [(0, 0, 0), (6, 5, 4), (0, 5, 4), (6, 0, 0)])
    def test_single_live_cell_at_a_grid_corner(self, corner):
        # a corner of the padded cells that in-box samples reach: index 0 is
        # cell -1, index dim is cell dim - 1; only samples in that one cell
        # are kept
        live = np.zeros((8, 7, 6), dtype=bool)
        live[corner] = True
        # the middle of the cell's in-box part, grid [-0.5, 0) or [dim - 1, dim - 0.5]
        g = np.where(np.array(corner) == 0, -0.25, np.array(self.SPEC.dims) - 0.75)
        cell = self.SPEC.origin + (g + 0.5) * self.SPEC.voxel_size
        kept = 0
        for yaw, offset in ((0.0, [-1.5, cell[1], cell[2]]), (np.pi, [5.0, cell[1], cell[2]]),
                            (np.pi / 2, [cell[0], -1.8, cell[2]])):
            cam = self.camera(yaw, offset, self.RES)
            kept += sum(c.cols.size for c in self.check(live.ravel(), cam))
        assert kept > 0

    @pytest.mark.parametrize("z", [0.1, np.nextafter(0.1, -1.0), 2.1, np.nextafter(2.1, 3.0)])
    def test_rays_that_graze_a_face(self, z):
        # level mount at yaw 0: the middle image row runs in the plane of
        # the grid's bottom (z = 0.1) or top (z = 2.1) face, or one ulp
        # outside it
        res = (9, 11)
        cam = self.camera(0.0, [-1.0, 0.9, z], res)
        _, dirs = view_rays(cam, res)
        assert np.all(dirs[4 * 11 : 5 * 11, 2] == 0.0)
        rng = np.random.default_rng(29)
        for live in (np.ones(8 * 7 * 6, dtype=bool), self.live(rng.random(self.SPEC.dims) < 0.1)):
            self.check(live, cam, res, 0.5, 6.0, 30)

    def test_view_without_live_cells(self):
        # a narrow lens along the grid's far top edge, looking back through
        # the box; the one live voxel sits at the opposite corner
        res = (12, 16)
        intr = Intrinsics(fx=60.0, fy=60.0, cx=7.5, cy=5.5, width=16, height=12)
        cam = Camera(intr, level_camera_mount(np.pi, [5.0, 2.05, 1.85]))
        sigma = np.zeros(self.SPEC.dims)
        sigma[0, 0, 0] = 3.0
        ones = render_view(DensityField(np.ones(self.SPEC.dims), self.SPEC), cam, res, 0.3, 8.0, 40)
        assert ones.depth.min() > 0  # every ray crosses the box
        chunks = self.check(self.live(sigma), cam, res)
        assert all(c.lo == c.width == 0 and c.cols.size == 0 for c in chunks)
        dm = render_view(DensityField(sigma, self.SPEC), cam, res, 0.3, 8.0, 40)
        assert same_bits(dm.depth, np.zeros(res))
        assert not dm.valid.any()


class TestExports:
    def test_depth_map_files(self, tmp_path):
        from occgeom.formats import read_pfm, read_pgm
        from occgeom.renderer import save_depth_pfm, save_valid_pgm

        depth = np.array([[1.25, 0.4], [45.0, 2.0]])
        valid = np.array([[True, False], [True, True]])
        dm = DepthMap(depth=depth, valid=valid)
        save_depth_pfm(dm, tmp_path / "d.pfm")
        back = read_pfm(tmp_path / "d.pfm")
        assert back[0, 1] == 0.0  # invalid pixels zeroed on export
        assert back[1, 0] == pytest.approx(45.0)
        save_valid_pgm(dm, tmp_path / "v.pgm")
        assert np.array_equal(read_pgm(tmp_path / "v.pgm") > 0, valid)


class TestTypes:
    def test_density_field_validation(self):
        spec = VoxelGridSpec((2, 2, 2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            DensityField(-np.ones((2, 2, 2)), spec)
        with pytest.raises(ValueError):
            DensityField(np.zeros((3, 2, 2)), spec)
