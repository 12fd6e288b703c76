"""Tests for the synthetic worlds and first-hit oracles."""

import numpy as np
import pytest

from occgeom import formats
from occgeom.camera import Camera, camera_pose_at
from occgeom.cast import PhotometricConfig, make_warp_context, photometric_loss, warp_image
from occgeom.renderer import render_view
from occgeom.synthscene import (
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


def bundle(seed=0, preset="corridor", n=2, size=(24, 40), spec=SPEC):
    return build_scene(seed, spec, preset, num_cameras=n, image_size=size)


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
            frac = np.mean(b.grid.labels != b.grid.num_classes)
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
        assert np.all(b.density_gt.sigma[occ] == b.sigma_occ)

    def test_corridor_center_pixel_hits_end_wall(self):
        b = bundle(seed=6)
        h, w = b.image_size
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
            build_scene(0, SPEC, "city")

    def test_desk_scale_enforced(self):
        big = VoxelGridSpec((128, 32, 8), np.zeros(3), 0.4)
        with pytest.raises(ValueError):
            build_scene(0, big, "boxes")


class TestRaymarchOracle:
    def test_empty_grid_all_invalid(self):
        grid = SemanticOccupancy.from_labels(np.full(SPEC.dims, 4), 4)
        b = bundle()
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 0))
        dm = raymarch_depth_oracle(grid, SPEC, cam, (24, 40))
        assert not dm.valid.any()

    def test_single_voxel_on_axis_exact_face_distance(self):
        labels = np.full((9, 9, 9), 4)
        labels[7, 4, 4] = 0
        grid = SemanticOccupancy.from_labels(labels, 4)
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
        dm = raymarch_depth_oracle(b.grid, SPEC, cam, b.image_size)
        assert np.array_equal(dm.depth, b.gt_depths[(1, 0)].depth)
        assert np.array_equal(dm.valid, b.gt_depths[(1, 0)].valid)


class TestSynthesizeImage:
    def test_empty_grid_pure_sky(self):
        labels = np.full(SPEC.dims, 4)
        grid = SemanticOccupancy.from_labels(labels, 4)
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
        occ = b.grid.labels != b.grid.num_classes
        # crossed free space and struck surfaces are both visible
        assert (b.visible & ~occ).sum() > 0
        assert (b.visible & occ).sum() > 0
        # interior of solid structure is never traversed
        assert (~b.visible & occ).sum() > 0
        # recomputing the traversal marks a subset of the stored mask
        fresh = np.zeros(SPEC.dims, dtype=bool)
        cam = Camera(b.rig.cameras[0].intrinsics, camera_pose_at(b.rig, 0, 1))
        raymarch_depth_oracle(b.grid, SPEC, cam, b.image_size, fresh)
        assert np.all(~fresh | b.visible)


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
        from occgeom.synthscene import covisibility_mask

        cfg = PhotometricConfig()
        for preset in ("boxes", "random_blobs"):
            b = bundle(seed=8, preset=preset, n=6, size=(64, 112))
            worst = 0.0
            checked = 0
            for i in range(6):
                j = (i + 1) % 6
                ctx = make_warp_context(b.rig, "spatial", (j, 1), (i, 1))
                recon, valid = warp_image(
                    b.images[(j, 1)],
                    b.gt_depths[(i, 1)],
                    ctx,
                    b.rig.cameras[j].intrinsics,
                    b.rig.cameras[i].intrinsics,
                )
                covis = covisibility_mask(b, (j, 1), (i, 1), ctx.pose, valid)
                if covis.sum() < 50:
                    continue
                checked += 1
                worst = max(
                    worst, photometric_loss(b.images[(i, 1)], recon, covis, cfg)
                )
            assert checked >= 4
            assert worst < 0.02, (preset, worst)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        b = bundle(seed=9, preset="boxes", n=3)
        save_scene(b, tmp_path / "scene")
        back = load_scene(tmp_path / "scene")
        assert np.array_equal(back.grid.labels, b.grid.labels)
        assert np.array_equal(back.visible, b.visible)
        assert back.spec.dims == b.spec.dims
        assert back.spec.voxel_size == b.spec.voxel_size
        assert back.preset == b.preset and back.seed == b.seed
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

    def test_label_above_num_classes_rejected(self, saved):
        labels = np.frombuffer((saved / "grid.raw").read_bytes(), np.uint8).copy()
        labels[5] = 7
        (saved / "grid.raw").write_bytes(labels.tobytes())
        with pytest.raises(ValueError, match="grid.raw: label 7 above num_classes 4"):
            load_scene(saved)

    def test_saved_bytes_deterministic(self, tmp_path):
        b = bundle(seed=10, preset="corridor")
        save_scene(b, tmp_path / "a")
        save_scene(b, tmp_path / "b")
        for name in ("scene.json", "grid.raw", "visible.raw"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
