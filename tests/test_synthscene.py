"""Tests for the synthetic worlds and first-hit oracles."""

import json
import re

import numpy as np
import pytest
from helpers import _erode, covisibility_mask

from occgeom import formats, synthscene
from occgeom.camera import Camera, _box_span, camera_pose_at, relative_pose, view_rays
from occgeom.cast import PhotometricConfig, photometric_loss, warp_image
from occgeom.renderer import render_view
from occgeom.synthscene import (
    SceneConfig,
    _traverse,
    build_scene,
    load_scene,
    raymarch_depth_oracle,
    save_scene,
    sparse_lidar,
    synthesize_image,
)
from occgeom.occ_encdec import SemanticOccupancy
from occgeom.view_transform import VoxelGridSpec

SPEC = VoxelGridSpec((32, 32, 8), np.zeros(3), 0.4)


def bundle(**scene):
    """A scene at this file's image size; `scene` overrides other SceneConfig fields."""
    return build_scene(SceneConfig(**{"image_size": (24, 40), **scene}))


class TestBuildScene:
    def test_deterministic_from_seed(self):
        a = bundle(seed=3, preset="boxes")
        b = bundle(seed=3, preset="boxes")
        assert np.array_equal(a.grid.labels, b.grid.labels)
        assert np.array_equal(a.visible, b.visible)
        for key in a.images:
            assert np.array_equal(a.images[key], b.images[key])
            assert np.array_equal(a.gt_depths[key].depth, b.gt_depths[key].depth)
        for t in a.rig.timestamps():
            assert np.array_equal(
                a.rig.ego_poses[t].matrix(), b.rig.ego_poses[t].matrix()
            )

    def test_seeds_differ(self):
        a = bundle(seed=1, preset="boxes")
        b = bundle(seed=2, preset="boxes")
        assert not np.array_equal(a.grid.labels, b.grid.labels)

    def test_boxes_occupancy_fraction(self):
        for seed in range(6):
            b = bundle(seed=seed, preset="boxes")
            frac = np.mean(b.grid.occupied)
            assert 0.01 <= frac <= 0.30, (seed, frac)

    def test_all_presets_have_two_classes_and_motion(self):
        for preset in ("boxes", "corridor", "random_blobs"):
            b = bundle(seed=4, preset=preset)
            present = np.unique(b.grid.labels)
            assert len(present[present != b.grid.num_classes]) >= 2
            move = (
                b.rig.ego_poses[1].translation - b.rig.ego_poses[0].translation
            )
            assert 0.5 <= np.linalg.norm(move) <= 2.0

    def test_density_positive_exactly_on_occupied(self):
        b = bundle(seed=5, preset="random_blobs")
        occ = b.grid.labels != b.grid.num_classes
        assert np.all((b.density_gt.sigma > 0) == occ)
        assert np.all(b.density_gt.sigma[occ] == b.scene.sigma_occ)

    def test_corridor_center_pixel_hits_end_wall(self):
        b = bundle(seed=6)
        h, w = b.scene.image_size
        for t in (0, 1):
            dm = b.gt_depths[(0, t)]
            cam_pose = camera_pose_at(b.rig, 0, t)
            # end wall face sits one voxel in from the +x boundary
            wall_x = SPEC.origin[0] + (SPEC.dims[0] - 1) * SPEC.voxel_size
            expect = wall_x - cam_pose.translation[0]
            assert dm.valid[h // 2, w // 2]
            assert abs(dm.depth[h // 2, w // 2] - expect) <= SPEC.voxel_size

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_scene(SceneConfig(preset="city"))

    def test_desk_scale_enforced(self):
        with pytest.raises(ValueError):
            build_scene(SceneConfig(preset="boxes", dims=(128, 32, 8)))

    @pytest.mark.parametrize(
        "preset, dims", [("boxes", (2, 2, 3)), ("corridor", (1, 1, 1)), ("random_blobs", (6, 6, 1))]
    )
    def test_smallest_grid_of_each_preset_builds(self, preset, dims):
        for seed in range(4):
            b = bundle(seed=seed, preset=preset, dims=dims)
            assert b.grid.labels.shape == dims

    @pytest.mark.parametrize(
        "preset, dims",
        [
            ("boxes", (1, 64, 64)),
            ("boxes", (64, 1, 64)),
            ("boxes", (64, 64, 2)),
            ("random_blobs", (5, 64, 64)),
            ("random_blobs", (64, 5, 64)),
        ],
    )
    def test_grid_too_small_for_preset_rejected(self, preset, dims):
        message = f"preset '{preset}' needs dims >= {synthscene._MIN_DIMS[preset]}, got {dims}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_scene(SceneConfig(preset=preset, dims=dims))


class TestRaymarchOracle:
    def test_empty_grid_all_invalid(self):
        grid = SemanticOccupancy(np.full(SPEC.dims, 4), 4)
        b = bundle()
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 0))
        dm = raymarch_depth_oracle(grid, SPEC, cam, (24, 40))
        assert not dm.valid.any()

    def test_single_voxel_on_axis_exact_face_distance(self):
        labels = np.full((9, 9, 9), 4)
        labels[7, 4, 4] = 0
        grid = SemanticOccupancy(labels, 4)
        spec = VoxelGridSpec((9, 9, 9), np.zeros(3), 0.5)
        from helpers import level_camera_mount
        from occgeom.camera import Intrinsics

        # integer principal point so pixel (12, 20) lies exactly on the axis
        intr = Intrinsics(fx=60.0, fy=60.0, cx=20.0, cy=12.0, width=40, height=24)
        cam = Camera(intr, level_camera_mount(0.0, [0.26, 2.25, 2.25]))
        dm = raymarch_depth_oracle(grid, spec, cam, (24, 40))
        assert dm.valid[12, 20]
        # entry face of voxel x=7 lies at 3.5; camera at x=0.26
        assert dm.depth[12, 20] == pytest.approx(3.5 - 0.26, abs=1e-9)

    def test_agrees_with_renderer_on_corridor(self):
        b = bundle(seed=0)
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 1))
        oracle = raymarch_depth_oracle(b.grid, SPEC, cam, (60, 100))
        rendered = render_view(b.density_gt, cam, (60, 100), 1.0, 45.0, 152)
        both = oracle.valid & rendered.valid
        assert both.mean() > 0.9
        err = np.abs(oracle.depth - rendered.depth)[both]
        delta = 44.0 / 152
        assert np.mean(err <= delta) >= 0.99

    def test_gt_depths_are_oracle_outputs(self):
        b = bundle(seed=1, preset="boxes")
        cam = Camera(b.rig.cameras[1].intrinsics, camera_pose_at(b.rig, 1, 0))
        dm = raymarch_depth_oracle(b.grid, SPEC, cam, b.scene.image_size)
        assert np.array_equal(dm.depth, b.gt_depths[(1, 0)].depth)
        assert np.array_equal(dm.valid, b.gt_depths[(1, 0)].valid)

    @pytest.mark.parametrize("preset", ["corridor", "boxes", "random_blobs"])
    def test_shared_origin_traverses_like_per_ray_origins(self, preset):
        b = bundle(seed=4, preset=preset)
        occ = b.grid.occupied
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 1))
        origin, dirs = view_rays(cam, (30, 50))
        runs = []
        for origins in (origin, np.broadcast_to(origin, dirs.shape).copy()):
            visible = np.zeros(SPEC.dims, dtype=bool)
            runs.append((*_traverse(occ, SPEC, origins, dirs, visible), visible))
        for shared, per_ray in zip(*runs):
            assert np.array_equal(shared, per_ray)
        assert runs[0][1].any() and runs[0][3].any()


def reference_traverse(occupied, spec, origins, dirs, visible=None):
    """The DDA before its active-ray compaction: every pass fancy-indexes
    the full-length state through np.flatnonzero(active)."""
    dims = np.array(spec.dims)
    vs = spec.voxel_size
    lo = spec.origin
    hi = lo + dims * vs
    n = dirs.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origins) / dirs
        t2 = (hi - origins) / dirs
    t_enter = np.nanmax(np.fmin(t1, t2), axis=1)
    t_exit = np.nanmin(np.fmax(t1, t2), axis=1)
    t0 = np.maximum(t_enter, 0.0)
    active = t_exit > t0
    start = origins + (t0 + 1e-9)[:, None] * dirs
    cell = np.clip(np.floor((start - lo) / vs).astype(np.int64), 0, dims - 1)
    step = np.sign(dirs).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = lo + (cell + (step > 0)) * vs
        t_max = np.where(dirs != 0, (boundary - origins) / dirs, np.inf)
        t_delta = np.where(dirs != 0, vs / np.abs(dirs), np.inf)
    t_entry = t0.copy()
    depth = np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    hit_idx = np.zeros((n, 3), dtype=np.int64)
    for _ in range(int(dims.sum()) + 4):
        if not np.any(active):
            break
        ai = np.flatnonzero(active)
        cx, cy, cz = cell[ai, 0], cell[ai, 1], cell[ai, 2]
        if visible is not None:
            visible[cx, cy, cz] = True
        occ = occupied[cx, cy, cz]
        hits = ai[occ]
        if hits.size:
            hit[hits] = True
            depth[hits] = t_entry[hits]
            hit_idx[hits] = cell[hits]
            active[hits] = False
            ai = ai[~occ]
        if ai.size == 0:
            continue
        axis = np.argmin(t_max[ai], axis=1)
        rows = (ai, axis)
        t_entry[ai] = t_max[rows]
        cell[rows] += step[rows]
        t_max[rows] += t_delta[rows]
        moved = cell[rows]
        out = (moved < 0) | (moved >= dims[axis]) | (t_entry[ai] > t_exit[ai])
        active[ai[out]] = False
    return depth, hit, hit_idx


class TestCompactedTraversal:
    """_traverse keeps only the active rays' state; depth, hit, hit_idx and
    the visible marks must equal the uncompacted loop's bit for bit."""

    def check(self, occ, spec, origins, dirs):
        runs = []
        for traverse in (_traverse, reference_traverse):
            visible = np.zeros(spec.dims, dtype=bool)
            runs.append((*traverse(occ, spec, origins, dirs, visible), visible))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return runs[0]

    @pytest.mark.parametrize("preset", ["corridor", "boxes", "random_blobs"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_rig_cameras(self, preset, shared):
        b = bundle(seed=5, preset=preset, num_cameras=3)
        occ = b.grid.occupied
        hits = 0
        for ci in range(3):
            cam = Camera(b.rig.cameras[ci].intrinsics, camera_pose_at(b.rig, ci, 1))
            origin, dirs = view_rays(cam, (30, 50))
            origins = origin if shared else np.broadcast_to(origin, dirs.shape).copy()
            _, hit, _, visible = self.check(occ, SPEC, origins, dirs)
            assert visible.any()
            hits += hit.sum()
        assert hits > 0

    def test_rays_that_never_enter_the_grid(self):
        # from outside the grid: half the rays point away from it, and rays
        # parallel to a face run beside it
        b = bundle(seed=6, preset="boxes")
        occ = b.grid.occupied
        rng = np.random.default_rng(17)
        dirs = rng.normal(size=(400, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs[:50] = [[1.0, 0.0, 0.0]] * 50
        origins = np.tile([-1.0, 5.0, 1.5], (400, 1))
        origins[:50, 2] = 3.3 + 0.1 * np.arange(50)  # above the grid top (3.2 m)
        depth, hit, _, _ = self.check(occ, SPEC, origins, dirs)
        assert not hit[:50].any() and not hit[dirs[:, 0] < 0].any()
        assert hit.any()

    def test_rays_starting_inside_an_occupied_voxel(self):
        # origins inside occupied voxels hit at depth 0; others start in
        # free space inside the grid
        b = bundle(seed=7, preset="random_blobs")
        occ = b.grid.occupied
        rng = np.random.default_rng(18)
        cells = np.argwhere(occ)[rng.choice(int(occ.sum()), 60, replace=False)]
        free = np.argwhere(~occ)[rng.choice(int((~occ).sum()), 60, replace=False)]
        origins = (np.concatenate([cells, free]) + rng.uniform(0.1, 0.9, (120, 3))) * 0.4
        dirs = rng.normal(size=(120, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        depth, hit, hit_idx, _ = self.check(occ, SPEC, origins, dirs)
        assert hit[:60].all() and np.all(depth[:60] == 0.0)
        assert np.array_equal(hit_idx[:60], cells)

    def test_axis_parallel_rays_and_exact_ties(self):
        # axis-parallel rays hold +inf in two t_max entries; diagonal rays
        # whose start coordinates agree on x and y (or on all three axes)
        # tie exactly at every step, where the lowest axis must step
        b = bundle(seed=8, preset="random_blobs")
        occ = b.grid.occupied
        rng = np.random.default_rng(19)
        s2, s3 = 1 / np.sqrt(2), 1 / np.sqrt(3)
        dirs = np.repeat(
            np.array([
                [1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1],
                [s2, s2, 0], [-s2, -s2, 0], [s3, s3, s3], [-s3, -s3, -s3], [s3, s3, -s3],
            ]),
            20,
            axis=0,
        )
        origins = rng.uniform(0.0, 3.2, size=(dirs.shape[0], 3))
        origins[120:, 1] = origins[120:, 0]
        origins[160:200, 2] = origins[160:200, 0]
        origins[150:160, :2] += 11.0  # outside the grid's 12.8 m in x and y
        depth, hit, _, _ = self.check(occ, SPEC, origins, dirs)
        assert hit.any() and not hit.all()
        assert np.all(depth[150:160][hit[150:160]] > 0)  # entered from outside

    def test_batched_views_traverse_like_per_view_calls(self):
        # several views with different origins, rays starting inside
        # occupied voxels and axis-parallel rays, all in one call, must give
        # each group what its own call gives
        b = bundle(seed=9, preset="random_blobs", num_cameras=3)
        occ = b.grid.occupied
        groups = []
        for t in b.rig.timestamps():
            for ci in range(3):
                cam = Camera(b.rig.cameras[ci].intrinsics, camera_pose_at(b.rig, ci, t))
                origin, dirs = view_rays(cam, (20, 30))
                groups.append((np.broadcast_to(origin, dirs.shape), dirs))
        rng = np.random.default_rng(20)
        cells = np.argwhere(occ)[rng.choice(int(occ.sum()), 5, replace=False)]
        dirs = rng.normal(size=(5, 3))
        groups.append((
            (cells + 0.5) * 0.4,
            dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
        ))
        dirs = np.repeat(np.concatenate([np.eye(3), -np.eye(3)]), 3, axis=0)
        groups.append((rng.uniform(0.0, 3.2, size=(dirs.shape[0], 3)), dirs))
        origins = np.concatenate([o for o, _ in groups])
        dirs = np.concatenate([d for _, d in groups])
        *batched, visible = self.check(occ, SPEC, origins, dirs)
        union = np.zeros(SPEC.dims, dtype=bool)
        per_view = []
        for o, d in groups:
            per_view.append(_traverse(occ, SPEC, o, d, union))
        for got, parts in zip(batched, zip(*per_view)):
            assert got.tobytes() == np.concatenate(parts).tobytes()
        assert np.array_equal(visible, union)
        depth, hit, _ = batched
        inside = slice(6 * 20 * 30, 6 * 20 * 30 + 5)
        assert hit[inside].all() and np.all(depth[inside] == 0.0)
        assert hit.any() and not hit.all()

    # a small grid off the world origin, a quarter occupied, with rays that
    # start on its faces, edges and corners or aim at its boundary
    SMALL = VoxelGridSpec((6, 5, 4), np.array([-1.0, 0.5, 0.2]), 0.4)

    @staticmethod
    def random_occupancy(dims, seed, frac=0.25):
        return np.random.default_rng(seed).random(dims) < frac

    @staticmethod
    def unit(v):
        v = np.asarray(v, dtype=float)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    @classmethod
    def boundary_rays(cls, spec):
        """Rays from every boundary point class (each coordinate on the min
        face, the max face or inside, not all inside) along every direction
        in {-1, 0, 1}^3."""
        lo = spec.origin
        hi = lo + np.array(spec.dims) * spec.voxel_size
        rng = np.random.default_rng(22)
        signs = np.array([s for s in np.ndindex(3, 3, 3) if s != (1, 1, 1)]) - 1
        points = []
        for where in signs:
            inside = lo + rng.uniform(0.05, 0.95, 3) * (hi - lo)
            points.append(np.select([where < 0, where > 0], [lo, hi], inside))
        origins = np.repeat(points, len(signs), axis=0)
        return origins, cls.unit(np.tile(signs, (len(points), 1)))

    def test_box_span_is_the_nan_skipping_slab_test(self):
        # rays on the faces meet slabs at +0 and -0; the entry must keep
        # np.nanmax's sign of zero, since it becomes the depth of a ray
        # that starts in an occupied voxel
        spec = self.SMALL
        origins, dirs = self.boundary_rays(spec)
        lo = spec.origin
        hi = lo + np.array(spec.dims) * spec.voxel_size
        with np.errstate(divide="ignore", invalid="ignore"):
            t1, t2 = (lo - origins) / dirs, (hi - origins) / dirs
            want_enter = np.nanmax(np.fmin(t1, t2), axis=1)
            want_exit = np.nanmin(np.fmax(t1, t2), axis=1)
        t_enter, t_exit = _box_span(lo, hi, origins, dirs)
        assert t_enter.tobytes() == want_enter.tobytes()
        assert np.array_equal(t_exit, want_exit, equal_nan=True)
        assert np.any((want_enter == 0.0) & np.signbit(want_enter))

    # the reference computes a start point for rays that start on a face
    # plane and run along it, which never enter the grid (t_enter = inf)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rays_starting_on_faces_edges_and_corners(self):
        # inward, outward and along the face; rays that start on an
        # occupied boundary voxel hit at a depth of zero
        spec = self.SMALL
        occ = self.random_occupancy(spec.dims, 21)
        depth, hit, _, _ = self.check(occ, spec, *self.boundary_rays(spec))
        assert np.any(hit & (depth == 0.0)) and np.any(hit & (depth > 0.0))
        assert not hit.all()

    def test_rays_whose_first_step_leaves_the_grid(self):
        # from inside a free boundary voxel straight out through its face,
        # and tilted so that some cross a side into a neighbour first
        spec = self.SMALL
        occ = self.random_occupancy(spec.dims, 23)
        rng = np.random.default_rng(24)
        dims = np.array(spec.dims)
        axes = rng.integers(0, 3, 300)
        sides = rng.integers(0, 2, 300)
        cells = rng.integers(0, dims, (300, 3))
        cells[np.arange(300), axes] = sides * (dims[axes] - 1)
        origins = spec.origin + (cells + rng.uniform(0.1, 0.9, (300, 3))) * spec.voxel_size
        normals = np.zeros((300, 3))
        normals[np.arange(300), axes] = 2 * sides - 1
        tilt = np.where(np.arange(300)[:, None] < 150, 0.0, rng.normal(0, 0.4, (300, 3)))
        dirs = self.unit(normals + tilt)
        free = ~occ[tuple(cells.T)]
        _, hit, _, _ = self.check(occ, spec, origins, dirs)
        assert not hit[:150][free[:150]].any()
        assert hit[~free].all()

    def test_rays_that_end_past_their_exit_inside_the_grid(self):
        # rays aimed at a voxel edge on a face of the grid cross the next
        # voxel boundary and the face at once in exact arithmetic. Rounding
        # can put that boundary after t_exit, so the step lands inside the
        # grid but past the exit. The first 200 rays come from outside and
        # graze the face. The grid is sparse, so most rays reach the face.
        occ = self.random_occupancy(SPEC.dims, 30, 0.02)
        rng = np.random.default_rng(25)
        m = 2000
        ext = np.array(SPEC.dims) * SPEC.voxel_size
        origins = rng.uniform(0.05, 0.95, (m, 3)) * ext
        target = rng.uniform(0.0, 1.0, (m, 3)) * ext
        face = rng.integers(0, 3, m)
        line = (face + rng.integers(1, 3, m)) % 3
        rows = np.arange(m)
        target[rows, face] = rng.integers(0, 2, m) * ext[face]
        target[rows, line] = rng.integers(1, 8, m) * SPEC.voxel_size
        origins[:200] = target[:200] - 5.0 * self.unit(
            rng.normal(0, 1, (200, 3)) * [1.0, 1.0, 1e-4]
        )
        dirs = self.unit(target - origins)
        self.check(occ, SPEC, origins, dirs)

    @pytest.mark.parametrize("dims", [(1, 5, 3), (4, 1, 1), (1, 1, 1)])
    def test_grid_with_an_extent_of_one(self, dims):
        # the shell lies on both sides of every voxel along a unit extent
        spec = VoxelGridSpec(dims, np.array([0.3, -0.2, 0.1]), 0.4)
        occ = self.random_occupancy(dims, 26, 0.3)
        occ.reshape(-1)[0] = True
        rng = np.random.default_rng(27)
        lo = spec.origin
        ext = np.array(dims) * spec.voxel_size
        inside = lo + rng.uniform(0.0, 1.0, (300, 3)) * ext
        outside = lo + rng.uniform(-1.0, 2.0, (300, 3)) * ext
        origins = np.concatenate([inside, outside, inside[:6]])
        dirs = self.unit(np.concatenate([
            rng.normal(size=(300, 3)),
            lo + 0.5 * ext - outside,  # toward the middle of the grid
            np.concatenate([np.eye(3), -np.eye(3)]),
        ]))
        _, hit, _, visible = self.check(occ, spec, origins, dirs)
        assert hit.any() and visible.any()


class TestTraverseVisible:
    """_traverse ORs its marks into the caller's `visible` and leaves
    `occupied` as it was."""

    def rays(self):
        b = bundle(seed=11, preset="boxes")
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 1))
        origin, dirs = view_rays(cam, (20, 30))
        return b.grid.occupied, origin, dirs

    def test_marks_are_or_ed_into_visible(self):
        occ, origin, dirs = self.rays()
        before = occ.copy()
        fresh = np.zeros(SPEC.dims, dtype=bool)
        _traverse(occ, SPEC, origin, dirs, fresh)
        assert np.array_equal(occ, before)
        prior = np.random.default_rng(28).random(SPEC.dims) < 0.1
        assert (prior & ~fresh).any() and (fresh & ~prior).any()
        visible = prior.copy()
        _traverse(occ, SPEC, origin, dirs, visible)
        assert np.array_equal(visible, prior | fresh)
        assert np.array_equal(occ, before)

    def test_rays_that_miss_the_grid_leave_visible_unchanged(self):
        occ, _, dirs = self.rays()
        before = occ.copy()
        prior = np.random.default_rng(29).random(SPEC.dims) < 0.1
        visible = prior.copy()
        # from beside the grid, pointing away from it
        origins = np.tile([-1.0, 5.0, 1.5], (dirs.shape[0], 1))
        away = dirs * np.where(dirs[:, :1] > 0, -1.0, 1.0)
        depth, hit, _ = _traverse(occ, SPEC, origins, away, visible)
        assert not hit.any() and not depth.any()
        assert np.array_equal(visible, prior)
        assert np.array_equal(occ, before)


class TestSynthesizeImage:
    def test_empty_grid_pure_sky(self):
        labels = np.full(SPEC.dims, 4)
        grid = SemanticOccupancy(labels, 4)
        b = bundle()
        intr = b.rig.cameras[0].intrinsics
        pose = camera_pose_at(b.rig, 0, 0)
        img = synthesize_image(grid, SPEC, Camera(intr, pose), (24, 40))
        # pure gradient in the ray elevation, reproduced exactly
        from occgeom.camera import pixel_directions

        us, vs = np.meshgrid(np.arange(40, dtype=float), np.arange(24, dtype=float))
        dirs, _ = pixel_directions(intr, pose, np.stack([us.ravel(), vs.ravel()], 1))
        tt = np.clip((dirs[:, 2] + 1.0) * 0.5, 0.0, 1.0)[:, None]
        horizon = np.array([0.82, 0.86, 0.92])
        zenith = np.array([0.45, 0.62, 0.92])
        expect = ((1 - tt) * horizon + tt * zenith).reshape(24, 40, 3)
        np.testing.assert_allclose(img, expect, atol=1e-12)

    def test_deterministic(self):
        b = bundle(seed=2, preset="boxes")
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 0))
        a = synthesize_image(b.grid, SPEC, cam, (24, 40))
        c = synthesize_image(b.grid, SPEC, cam, (24, 40))
        assert np.array_equal(a, c)

    def test_identical_poses_identical_images(self):
        b = bundle(seed=2, preset="boxes")
        pose = camera_pose_at(b.rig, 0, 0)
        intr = b.rig.cameras[0].intrinsics
        a = synthesize_image(b.grid, SPEC, Camera(intr, pose), (24, 40))
        c = synthesize_image(b.grid, SPEC, Camera(intr, pose), (24, 40))
        assert np.array_equal(a, c)

    def test_range_and_shape(self):
        b = bundle(seed=2, preset="random_blobs")
        img = b.images[(0, 1)]
        assert img.shape == (24, 40, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestVisibility:
    def test_visible_matches_traversed_voxels(self):
        b = bundle(seed=3, preset="boxes")
        occ = b.grid.occupied
        # crossed free space and struck surfaces are both visible
        assert (b.visible & ~occ).sum() > 0
        assert (b.visible & occ).sum() > 0
        # interior of solid structure is never traversed
        assert (~b.visible & occ).sum() > 0
        # recomputing the traversal marks a subset of the stored mask
        fresh = np.zeros(SPEC.dims, dtype=bool)
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 1))
        raymarch_depth_oracle(b.grid, SPEC, cam, b.scene.image_size, fresh)
        assert np.all(~fresh | b.visible)



class TestBatchedBuildScene:
    """build_scene traverses all its views at once; every output must equal
    the per-view oracle and image bit for bit."""

    @pytest.mark.parametrize(
        "preset, n",
        [("corridor", 2), ("boxes", 2), ("boxes", 6), ("random_blobs", 3)],
    )
    def test_equals_per_view_oracle_and_image(self, preset, n):
        b = bundle(seed=2, preset=preset, num_cameras=n, image_size=(20, 36))
        union = np.zeros(SPEC.dims, dtype=bool)
        for t in b.rig.timestamps():
            for ci in range(n):
                cam = Camera(b.rig.cameras[ci].intrinsics, camera_pose_at(b.rig, ci, t))
                dm = raymarch_depth_oracle(b.grid, SPEC, cam, b.scene.image_size, union)
                img = synthesize_image(b.grid, SPEC, cam, b.scene.image_size)
                got = b.gt_depths[(ci, t)]
                for want, have in (
                    (img, b.images[(ci, t)]),
                    (dm.depth, got.depth),
                    (dm.valid, got.valid),
                ):
                    assert have.dtype == want.dtype and have.shape == want.shape
                    assert have.tobytes() == want.tobytes()
        assert np.array_equal(b.visible, union)

    def test_one_traversal_per_scene(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3].shape[0])
            return _traverse(*args, **kwargs)

        monkeypatch.setattr(synthscene, "_traverse", counted)
        bundle(seed=3, preset="boxes", num_cameras=6, image_size=(12, 20))
        assert calls == [2 * 6 * 12 * 20]


class TestErode:
    def test_all_true_mask_loses_its_border(self):
        out = _erode(np.ones((5, 7), dtype=bool))
        expect = np.zeros((5, 7), dtype=bool)
        expect[1:-1, 1:-1] = True
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("left", [1, 2])
    def test_opposite_edges_do_not_support_each_other(self, left):
        # with two left columns, a wrap-around erosion would keep column 0
        # on the strength of the right column
        mask = np.zeros((6, 8), dtype=bool)
        mask[:, :left] = mask[:, -1] = True
        assert not _erode(mask).any()

    def test_interior_block_shrinks_by_one_pixel(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 1:6] = True
        expect = np.zeros((9, 9), dtype=bool)
        expect[3:6, 2:5] = True
        assert np.array_equal(_erode(mask), expect)


class TestSparseLidar:
    def test_full_set(self):
        b = bundle(seed=4, preset="boxes")
        dm = b.gt_depths[(0, 1)]
        n = int(dm.valid.sum())
        pts = sparse_lidar(dm, n, seed=0)
        assert pts.shape == (n, 3)
        got = {(int(u), int(v)) for u, v, _ in pts}
        vs, us = np.nonzero(dm.valid)
        assert got == set(zip(us.tolist(), vs.tolist()))

    def test_samples_match_depth(self):
        b = bundle(seed=4, preset="boxes")
        dm = b.gt_depths[(1, 1)]
        pts = sparse_lidar(dm, 50, seed=3)
        for u, v, d in pts:
            assert dm.depth[int(v), int(u)] == d

    def test_seeds_differ(self):
        b = bundle(seed=4, preset="boxes")
        dm = b.gt_depths[(0, 1)]
        a = sparse_lidar(dm, 100, seed=1)
        c = sparse_lidar(dm, 100, seed=2)
        assert not np.array_equal(a, c)

    def test_too_many_requested(self):
        b = bundle(seed=4, preset="boxes")
        dm = b.gt_depths[(0, 1)]
        with pytest.raises(ValueError):
            sparse_lidar(dm, int(dm.valid.sum()) + 1, seed=0)


class TestCrossModuleConsistency:
    def test_spatial_warp_reproduces_neighbor_view(self):
        # wide-lens ring: warping camera j's image into camera i at the same
        # timestamp with ground-truth depth must photometrically match on
        # the pixels both cameras actually see
        cfg = PhotometricConfig()
        for preset in ("boxes", "random_blobs"):
            b = bundle(seed=8, preset=preset, num_cameras=6, image_size=(64, 112))
            worst = 0.0
            checked = 0
            for i in range(6):
                j = (i + 1) % 6
                pose = relative_pose("spatial", b.rig, j, i, 1, 1)
                recon, valid, _ = warp_image(
                    b.images[(j, 1)],
                    b.gt_depths[(i, 1)],
                    pose,
                    b.rig.cameras[j].intrinsics,
                    b.rig.cameras[i].intrinsics,
                )
                covis = covisibility_mask(b, (j, 1), (i, 1), pose, valid)
                if covis.sum() < 50:
                    continue
                checked += 1
                worst = max(
                    worst, photometric_loss(b.images[(i, 1)], recon, covis, cfg)[0]
                )
            assert checked >= 4
            assert worst < 0.02, (preset, worst)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        b = bundle(seed=9, preset="boxes", num_cameras=3)
        save_scene(b, tmp_path / "scene")
        back = load_scene(tmp_path / "scene")
        assert np.array_equal(back.grid.labels, b.grid.labels)
        assert np.array_equal(back.visible, b.visible)
        assert back.spec.dims == b.spec.dims
        assert back.spec.voxel_size == b.spec.voxel_size
        assert back.scene == b.scene
        assert len(back.rig.cameras) == 3
        for t in b.rig.timestamps():
            np.testing.assert_allclose(
                back.rig.ego_poses[t].matrix(), b.rig.ego_poses[t].matrix()
            )
        for key in b.images:
            assert np.max(np.abs(back.images[key] - b.images[key])) <= 0.5 / 255
            dm0, dm1 = b.gt_depths[key], back.gt_depths[key]
            assert np.array_equal(dm0.valid, dm1.valid)
            np.testing.assert_allclose(
                dm1.depth[dm1.valid], dm0.depth[dm0.valid], rtol=1e-6
            )

    @pytest.fixture
    def saved(self, tmp_path):
        save_scene(bundle(seed=9, preset="boxes"), tmp_path / "scene")
        return tmp_path / "scene"

    @pytest.mark.parametrize("name", ["grid.raw", "visible.raw"])
    def test_raw_grid_size_mismatch_rejected(self, saved, name):
        raw = (saved / name).read_bytes()
        (saved / name).write_bytes(raw[:-1])
        with pytest.raises(ValueError, match=f"{name}: {len(raw) - 1} bytes, expected {len(raw)}"):
            load_scene(saved)

    @pytest.mark.parametrize(
        "rel, write",
        [
            ("images/cam1_t0.ppm", lambda p: formats.write_ppm(p, np.zeros((24, 39, 3)))),
            ("depths/cam0_t1.pfm", lambda p: formats.write_pfm(p, np.zeros((23, 40)))),
            ("depths/cam0_t0_valid.pgm", lambda p: formats.write_pgm8(p, np.zeros((40, 24), "u1"))),
        ],
        ids=["ppm", "pfm", "pgm"],
    )
    def test_image_shape_mismatch_rejected(self, saved, rel, write):
        write(saved / rel)
        with pytest.raises(ValueError, match=f"{rel.split('/')[-1]}: image shape .* image_size"):
            load_scene(saved)

    @pytest.mark.parametrize(
        "rel, pixel_bytes",
        [("images/cam1_t0.ppm", 3), ("depths/cam0_t1.pfm", 4), ("depths/cam1_t1_valid.pgm", 1)],
    )
    def test_truncated_image_rejected(self, saved, rel, pixel_bytes):
        raw = (saved / rel).read_bytes()
        (saved / rel).write_bytes(raw[:-3])
        h, w = json.loads((saved / "scene.json").read_text())["image_size"]
        n = h * w * pixel_bytes
        name = rel.split("/")[-1]
        with pytest.raises(ValueError, match=f"{name}: payload is {n - 3} bytes, expected {n}"):
            load_scene(saved)

    def test_label_above_num_classes_rejected(self, saved):
        labels = np.frombuffer((saved / "grid.raw").read_bytes(), np.uint8).copy()
        labels[5] = 7
        (saved / "grid.raw").write_bytes(labels.tobytes())
        with pytest.raises(ValueError, match="grid.raw: label 7 above num_classes 4"):
            load_scene(saved)

    @pytest.mark.parametrize("num_classes", [5, 300])
    def test_num_classes_other_than_synthetic_rejected(self, saved, num_classes):
        # either would read the free label 4 as a semantic class, and 300
        # would add 295 classes no voxel holds; build_scene writes only
        # NUM_CLASSES
        meta = json.loads((saved / "scene.json").read_text())
        meta["num_classes"] = num_classes
        (saved / "scene.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"scene\.json: num_classes: {num_classes}, expected 4"):
            load_scene(saved)

    @pytest.mark.parametrize(
        "key, value", [("voxel_size", float("nan")), ("voxel_size", float("inf")),
                       ("origin", [0.0, float("nan"), 0.0])],
    )
    def test_non_finite_geometry_rejected(self, saved, key, value):
        meta = json.loads((saved / "scene.json").read_text())
        meta["spec"][key] = value
        (saved / "scene.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"scene\.json: spec\.{key}: .* is not a valid "):
            load_scene(saved)

    @pytest.mark.parametrize("dims", [[32.9, 32, 8], [32, 32, 8.0], [32, True, 8]])
    def test_non_integer_dims_rejected(self, saved, dims):
        # a truncating spec would load [32.9, 32, 8] as the saved 32 x 32 x 8
        meta = json.loads((saved / "scene.json").read_text())
        assert meta["spec"]["dims"] == [32, 32, 8]
        meta["spec"]["dims"] = dims
        (saved / "scene.json").write_text(json.dumps(meta))
        with pytest.raises(
            ValueError, match=r"scene\.json: spec\.dims: \[32.* is not a valid tuple\[int, int, int\]"
        ):
            load_scene(saved)

    @pytest.mark.parametrize(
        "key, value, kind",
        [("fx", float("inf"), "float"), ("width", 24.5, "int"),
         ("translation", [float("nan"), 0.0, 0.0], "tuple")],
    )
    def test_bad_camera_rejected(self, saved, key, value, kind):
        meta = json.loads((saved / "scene.json").read_text())
        meta["rig"]["cameras"][0][key] = value
        (saved / "scene.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"scene\.json: rig\.cameras\[0\]\.{key}: .* is not a valid {kind}"):
            load_scene(saved)

    def test_saved_bytes_deterministic(self, tmp_path):
        b = bundle(seed=10, preset="corridor")
        save_scene(b, tmp_path / "a")
        save_scene(b, tmp_path / "b")
        for name in ("scene.json", "grid.raw", "visible.raw"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


# Every value of the edit fuzz below goes into every field of a saved
# two-camera, two-timestamp scene.json, one edit at a time.
FUZZ_VALUES = [None, "x", -1, 0, 1e308, float("nan"), True, [], {}, 2.5, -0.0]
_POSE_FIELDS = {"rotation": (float, 9), "translation": (float, 3)}
_CAMERA_FIELDS = {
    "fx": float, "fy": float, "cx": float, "cy": float, "width": int, "height": int,
    **_POSE_FIELDS,
}
# edits of the right type that a range check must reject, by key path; the
# fuzz scene's images are 12 x 8 pixels with the principal point at (5.5, 3.5)
OUT_OF_RANGE = {
    "spec": [{}],  # an empty object lacks every key
    "rig": [{}],
    "rig.cameras[1]": [{}],
    "preset": ["x"],
    "num_classes": [-1, 0],  # the grid holds labels 0..4
    "sigma_occ": [-1, 0, -0.0],
    "spec.voxel_size": [-1, 0, -0.0],
    "rig.cameras": [[]],
    "rig.ego_poses": [[]],
    "rig.ego_poses[0].timestamp": [-1],
    "rig.ego_poses[1].timestamp": [-1, 0],
    **{
        f"rig.cameras[{i}].{k}": values
        for i in range(2)
        for k, values in {
            "fx": [-1, 0, -0.0], "fy": [-1, 0, -0.0], "cx": [-1, 1e308], "cy": [-1, 1e308],
            "width": [-1, 0], "height": [-1, 0],
        }.items()
    },
}


def scene_json_fields() -> list[tuple[tuple, object]]:
    """(key path, type) of every field and container of the fuzz scene.json.
    A type (T, n) is a list of n values of type T."""
    fields = [
        (("seed",), int), (("preset",), str), (("num_classes",), int), (("sigma_occ",), float),
        (("image_size",), (int, 2)), (("spec",), dict), (("spec", "dims"), (int, 3)),
        (("spec", "origin"), (float, 3)), (("spec", "voxel_size"), float), (("rig",), dict),
        (("rig", "cameras"), list), (("rig", "ego_poses"), list), (("rig", "cameras", 1), dict),
    ]
    for i in range(2):
        fields += [(("rig", "cameras", i, k), t) for k, t in _CAMERA_FIELDS.items()]
        fields += [
            (("rig", "ego_poses", i, k), t)
            for k, t in {"timestamp": int, **_POSE_FIELDS}.items()
        ]
    return fields


def key_path(path: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def has_type(kind, value) -> bool:
    if isinstance(kind, tuple):
        elem, n = kind
        return isinstance(value, list) and len(value) == n and all(has_type(elem, v) for v in value)
    if kind is float:
        return type(value) in (int, float) and np.isfinite(value)
    return type(value) is kind


class TestSceneJsonFuzz:
    def test_every_edit_loads_in_range_or_names_the_key(self, tmp_path):
        # an edit loads only if its value has the field's type and passes
        # the range checks; any other edit raises a ValueError naming
        # scene.json and the key path (a type error), or the key's name or
        # an object holding it (a range error); never a TypeError, an
        # OSError, a bool taken for a number or a truncated non-integer
        scene = tmp_path / "scene"
        save_scene(bundle(seed=5, preset="boxes", image_size=(8, 12), dims=(8, 8, 4)), scene)
        saved = json.loads((scene / "scene.json").read_text())
        assert len(saved["rig"]["cameras"]) == len(saved["rig"]["ego_poses"]) == 2
        problems, loaded = [], set()
        for path, kind in scene_json_fields():
            for value in FUZZ_VALUES:
                meta = json.loads(json.dumps(saved))
                node = meta
                for k in path[:-1]:
                    node = node[k]
                node[path[-1]] = value
                (scene / "scene.json").write_text(json.dumps(meta))
                where, fits = key_path(path), has_type(kind, value)
                edit = f"{where} = {value!r}"
                try:
                    load_scene(scene)
                except Exception as exc:
                    msg = str(exc)
                    # the key's own name, or the path of an object holding it
                    named = isinstance(path[-1], str) and path[-1] in msg or any(
                        key_path(path[:k]) in msg for k in range(1, len(path))
                    )
                    if not isinstance(exc, ValueError):
                        problems.append(f"{edit}: {type(exc).__name__}: {msg}")
                    elif "scene.json" not in msg:
                        problems.append(f"{edit}: message names no file: {msg}")
                    elif not fits and f"{where}: " not in msg and f"{where} must be" not in msg:
                        problems.append(f"{edit}: type error names no key: {msg}")
                    elif fits and not named:
                        problems.append(f"{edit}: range error names no key: {msg}")
                    elif fits and value not in OUT_OF_RANGE.get(where, []):
                        problems.append(f"{edit}: in-range edit rejected: {msg}")
                else:
                    loaded.add(edit)
                    if not fits or value in OUT_OF_RANGE.get(where, []):
                        problems.append(f"{edit}: loaded")
        assert not problems, "\n".join(problems)
        # sanity: the fuzz does load in-range edits of the right type
        assert {"seed = 0", "rig.cameras[1].cx = 2.5", "sigma_occ = 1e+308"} <= loaded
