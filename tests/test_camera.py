"""Tests for the pinhole camera rig."""

import json

import numpy as np
import pytest
from helpers import identity_pose, project, random_pose, ray, simple_rig, unproject

from occgeom.camera import (
    Camera,
    CameraRig,
    Intrinsics,
    Pose,
    camera_pose_at,
    camera_rays,
    pinhole,
    pixel_directions,
    pixel_grid,
    relative_pose,
    rig_from_json,
    rig_to_json,
    view_rays,
)

INTR = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=101, height=101)


def _matrix(pose: Pose) -> np.ndarray:
    """The 4 x 4 homogeneous matrix of a pose."""
    return np.vstack([np.c_[pose.rotation, pose.translation], [0.0, 0.0, 0.0, 1.0]])


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(r, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_translation(self, bad):
        with pytest.raises(ValueError, match="translation must be finite"):
            Pose(np.eye(3), [bad, 0.0, 0.0])

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        pts = rng.normal(size=(5, 3))
        np.testing.assert_allclose(p.inverse().apply(p.apply(pts)), pts, atol=1e-12)

    def test_composition_associative(self):
        rng = np.random.default_rng(1)
        a, b, c = (random_pose(rng) for _ in range(3))
        m1 = _matrix(a.compose(b).compose(c))
        m2 = _matrix(a.compose(b.compose(c)))
        np.testing.assert_allclose(m1, m2, atol=1e-12)


class TestProjectUnproject:
    def test_optical_axis(self):
        cam = Camera(INTR, identity_pose())
        uv, depth, vis = project(cam, [0.0, 0.0, 7.0])
        assert vis
        assert depth == pytest.approx(7.0)
        np.testing.assert_allclose(uv, [50.0, 50.0])

    def test_point_behind(self):
        cam = Camera(INTR, identity_pose())
        _, _, vis = project(cam, [0.0, 0.0, -3.0])
        assert not vis

    def test_hand_projection(self):
        cam = Camera(INTR, identity_pose())
        uv, depth, vis = project(cam, [1.0, 0.0, 2.0])
        assert vis and depth == pytest.approx(2.0)
        np.testing.assert_allclose(uv, [100.0, 50.0])

    def test_unproject_axis(self):
        cam = Camera(INTR, identity_pose())
        np.testing.assert_allclose(unproject(cam, [50.0, 50.0], 5.0), [0, 0, 5.0])

    def test_unproject_hand(self):
        cam = Camera(INTR, identity_pose())
        np.testing.assert_allclose(unproject(cam, [100.0, 50.0], 2.0), [1.0, 0, 2.0])

    def test_roundtrip_random_poses(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            cam = Camera(INTR, random_pose(rng))
            uv = rng.uniform([0, 0], [100, 100])
            d = rng.uniform(0.5, 20.0)
            p = unproject(cam, uv, d)
            uv2, d2, vis = project(cam, p)
            assert vis
            np.testing.assert_allclose(uv2, uv, atol=1e-9)
            assert d2 == pytest.approx(d, abs=1e-9)

    @pytest.mark.parametrize("z", [0.5, 3.0, 20.0])
    def test_pinhole_inverts_camera_rays(self, z):
        rng = np.random.default_rng(6)
        uv = rng.uniform([0, 0], [100, 100], size=(50, 2))
        u, v, front = pinhole(INTR, camera_rays(INTR, uv) * z)
        assert front.all()
        np.testing.assert_allclose(np.stack([u, v], axis=1), uv, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("z", [1e-9, 0.0, -1.0])
    def test_pinhole_behind_is_finite(self, z):
        rng = np.random.default_rng(7)
        uv = rng.uniform([0, 0], [100, 100], size=(50, 2))
        u, v, front = pinhole(INTR, camera_rays(INTR, uv) * z)
        assert not front.any()
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))

    def test_unproject_nonpositive_depth(self):
        cam = Camera(INTR, identity_pose())
        with pytest.raises(ValueError):
            unproject(cam, [50.0, 50.0], 0.0)


class TestRay:
    def test_center_pixel_is_forward(self):
        rng = np.random.default_rng(3)
        pose = random_pose(rng)
        origin, d = ray(Camera(INTR, pose), [50.0, 50.0])
        np.testing.assert_allclose(origin, pose.translation)
        np.testing.assert_allclose(d, pose.rotation @ [0, 0, 1.0], atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(4)
        cam = Camera(INTR, random_pose(rng))
        for _ in range(100):
            _, d = ray(cam, rng.uniform([0, 0], [100, 100]))
            assert abs(np.linalg.norm(d) - 1.0) <= 1e-12

    def test_unprojected_point_on_ray(self):
        rng = np.random.default_rng(5)
        cam = Camera(INTR, random_pose(rng))
        uv = rng.uniform([10, 10], [90, 90])
        p = unproject(cam, uv, 3.0)
        origin, d = ray(cam, uv)
        t = np.dot(p - origin, d)
        np.testing.assert_allclose(origin + t * d, p, atol=1e-9)

    @pytest.mark.parametrize("resolution", [(101, 101), (24, 40), (7, 130)])
    def test_view_rays_cover_pixels_in_row_major_order(self, resolution):
        h, w = resolution
        grid = pixel_grid(h, w)
        assert np.array_equal(grid, np.stack([np.tile(np.arange(w), h), np.repeat(np.arange(h), w)], 1))
        pose = random_pose(np.random.default_rng(8))
        origin, dirs = view_rays(Camera(INTR, pose), resolution)
        intr = INTR if resolution == (INTR.height, INTR.width) else INTR.scaled(w, h)
        assert np.array_equal(dirs, pixel_directions(intr, pose, grid)[0])
        assert np.array_equal(origin, pose.translation)

    @pytest.mark.parametrize("resolution", [(101, 101), (7, 130)])
    def test_view_ray_ranges_concatenate_to_the_view(self, resolution):
        # a 1-pixel block, blocks that end mid-row and at a row's end, and a
        # partial last block: bit for bit the whole view's rays, in order
        h, w = resolution
        n = h * w
        cam = Camera(INTR, random_pose(np.random.default_rng(9)))
        origin, dirs = view_rays(cam, resolution)
        cuts = [0, 1, w // 2, w, 3 * w + 5, n // 2 + 1, n]
        parts = [view_rays(cam, resolution, a, b) for a, b in zip(cuts, cuts[1:])]
        assert all(o.tobytes() == origin.tobytes() for o, _ in parts)
        assert np.concatenate([d for _, d in parts]).tobytes() == dirs.tobytes()
        grids = [pixel_grid(h, w, a, b) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(grids).tobytes() == pixel_grid(h, w).tobytes()
        assert view_rays(cam, resolution, n - 1)[1].tobytes() == dirs[n - 1 :].tobytes()

    def test_lone_pixel_direction_is_its_row_of_the_view(self):
        # a single pixel's direction, as a sparse-depth or test ray asks for
        # it, is bit for bit its row of the whole view's rays
        h, w = 36, 64
        intr = INTR.scaled(w, h)
        rng = np.random.default_rng(10)
        for _ in range(20):
            pose = random_pose(rng)
            _, dirs = view_rays(Camera(INTR, pose), (h, w))
            for i in range(0, h * w, 7):
                one, _ = pixel_directions(intr, pose, pixel_grid(h, w, i, i + 1))
                assert one.tobytes() == dirs[i].tobytes(), i


class TestRelativePose:
    def test_temporal_same_time_identity(self):
        rig = simple_rig()
        p = relative_pose(rig, 0, 0, 1, 1)
        np.testing.assert_allclose(_matrix(p), np.eye(4), atol=1e-12)

    def test_spatial_same_camera_identity(self):
        rig = simple_rig()
        p = relative_pose(rig, 1, 1, 0, 0)
        np.testing.assert_allclose(_matrix(p), np.eye(4), atol=1e-12)

    def test_spatial_temporal_composition(self):
        rig = simple_rig()
        spt = relative_pose(rig, 0, 1, 0, 1)
        sp = relative_pose(rig, 0, 1, 1, 1)
        t = relative_pose(rig, 0, 0, 0, 1)
        np.testing.assert_allclose(
            _matrix(spt), _matrix(sp) @ _matrix(t), atol=1e-12
        )

    def test_matches_hand_composed_matrices(self):
        rig = simple_rig()
        spt = relative_pose(rig, 0, 1, 0, 1)
        m0 = _matrix(rig.cameras[0].pose)
        m1 = _matrix(rig.cameras[1].pose)
        e0 = _matrix(rig.ego_poses[0])
        e1 = _matrix(rig.ego_poses[1])
        expect = np.linalg.inv(m1) @ np.linalg.inv(e1) @ e0 @ m0
        np.testing.assert_allclose(_matrix(spt), expect, atol=1e-12)

    def test_maps_points_between_camera_frames(self):
        # the composite must agree with going through world coordinates
        rig = simple_rig()
        rel = relative_pose(rig, 0, 1, 0, 1)
        w0 = camera_pose_at(rig, 0, 0)
        w1 = camera_pose_at(rig, 1, 1)
        pts = np.random.default_rng(6).normal(size=(4, 3)) + [0, 0, 3.0]
        expect = w1.inverse().apply(w0.apply(pts))
        np.testing.assert_allclose(rel.apply(pts), expect, atol=1e-12)

    def test_unknown_indices(self):
        rig = simple_rig()
        with pytest.raises(IndexError):
            relative_pose(rig, 0, 5, 0, 0)
        with pytest.raises(KeyError):
            relative_pose(rig, 0, 0, 0, 9)


class TestIntrinsics:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("fx", np.inf, "focal lengths must be finite and positive"),
            ("fx", np.nan, "focal lengths must be finite and positive"),
            ("fy", 0.0, "focal lengths must be finite and positive"),
            ("width", 101.5, "width and height must be integers"),
            ("height", 101.0, "width and height must be integers"),
            ("width", True, "width and height must be integers"),
        ],
    )
    def test_rejects_bad_values(self, field, value, message):
        args = dict(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=101, height=101)
        args[field] = value
        with pytest.raises(ValueError, match=message):
            Intrinsics(**args)


class TestRigValidation:
    def test_needs_cameras(self):
        with pytest.raises(ValueError):
            CameraRig((), {0: identity_pose()})

    def test_timestamps_increasing(self):
        intr = INTR
        cams = (Camera(intr, identity_pose()),)
        with pytest.raises(ValueError):
            CameraRig(cams, {1: identity_pose(), 0: identity_pose()})


class TestSerialization:
    def test_json_roundtrip_exact(self):
        rig = simple_rig(3)
        data = json.loads(json.dumps(rig_to_json(rig)))
        back = rig_from_json(data)
        assert len(back.cameras) == 3
        for a, b in zip(rig.cameras, back.cameras):
            assert a.intrinsics == b.intrinsics
            assert np.array_equal(a.pose.rotation, b.pose.rotation)
            assert np.array_equal(a.pose.translation, b.pose.translation)
        assert back.timestamps() == rig.timestamps()
        for t in rig.timestamps():
            assert np.array_equal(
                _matrix(back.ego_poses[t]), _matrix(rig.ego_poses[t])
            )

    def test_scaled_intrinsics_keep_centers(self):
        intr = Intrinsics(fx=100.0, fy=80.0, cx=31.5, cy=23.5, width=64, height=48)
        s = intr.scaled(32, 24)
        assert (s.width, s.height) == (32, 24)
        # the image center maps onto itself under the half-pixel-aware scale
        assert s.cx == pytest.approx((31.5 + 0.5) / 2 - 0.5)
        assert s.cy == pytest.approx((23.5 + 0.5) / 2 - 0.5)
