"""End-to-end tests for the command line harness."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from occgeom import cli
from occgeom.cli import ExperimentConfig, cmd_eval, cmd_gen, cmd_render, cmd_selftrain, main
from occgeom.synthscene import load_scene

SMALL = {
    "scene": {
        "seed": 3,
        "preset": "boxes",
        "dims": [16, 16, 8],
        "voxel_size": 0.4,
        "num_cameras": 2,
        "image_size": [24, 40],
    },
    "render": {"S": 32, "t_near": 1.0, "t_far": 10.0, "resolution": [24, 40]},
    "optimize": {
        "steps": 5,
        "step_size": 50.0,
        "init": "perturbed_gt",
        "perturbation": 0.1,
        "lidar_samples": 120,
    },
}


def make_cfg(tmp_path, out="out", **extra):
    raw = json.loads(json.dumps(SMALL))
    for k, v in extra.items():
        section, key = k.split(".")
        raw.setdefault(section, {})[key] = v
    raw["output_dir"] = str(tmp_path / out)
    return ExperimentConfig.from_dict(raw)


def tree_bytes(root):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestConfig:
    def test_defaults_carry_training_constants(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.render.samples == 152
        assert cfg.render.resolution == (180, 320)
        assert cfg.cast.alpha == 0.85
        assert (cfg.cast.lambda_t, cfg.cast.lambda_sp, cfg.cast.lambda_spt) == (
            1.0, 0.1, 0.03,
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"scenes": {}})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"render": {"Q": 5}})

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"render": {"S": 1}})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"scene": {"preset": "city"}})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"optimize": {"init": "magic"}})

    @pytest.mark.parametrize("section", ["scene", "render", "cast", "optimize"])
    def test_section_must_be_an_object(self, section):
        with pytest.raises(ValueError, match=rf"^config\.{section} must be an object, got 5$"):
            ExperimentConfig.from_dict({section: 5})

    @pytest.mark.parametrize("value", [5, None, ["out"]])
    def test_output_dir_must_be_a_string(self, value):
        with pytest.raises(ValueError, match=r"^output_dir: .* is not a valid str$"):
            ExperimentConfig.from_dict({"output_dir": value})

    @pytest.mark.parametrize(
        "override",
        [
            "optimize.steps=2.5",
            "cast.ssim_window=3.5",
            "optimize.step_size=NaN",
            "cast.lambda_t=NaN",
            "cast.alpha=true",
            "render.S=64.0",
            "scene.dims=[16, 16.5, 8]",
            "scene.origin=[0, 0]",
            "scene.image_size=[8, 8, 8]",
            "render.resolution=[180]",
        ],
    )
    def test_value_must_fit_field_type(self, override):
        key = override.split("=")[0]
        with pytest.raises(ValueError, match=rf"^{re.escape(key)}: .* is not a valid "):
            cli.load_config(None, [override], None, None)

    def test_dotted_overrides(self):
        overrides = [
            "render.S=304", "scene.preset=\"corridor\"",
            "scene.voxel_size=1", "render.resolution=[24, 40]",
        ]
        cfg = cli.load_config(None, overrides, None, 9)
        assert cfg.render.samples == 304
        assert cfg.scene.preset == "corridor"
        assert cfg.scene.seed == 9
        # an integer fits a float field; a list becomes the field's tuple
        assert cfg.scene.voxel_size == 1 and cfg.render.resolution == (24, 40)

    def test_round9_formatting(self):
        assert cli._round9(0.12345678949) == pytest.approx(0.123456789)
        assert cli._round9({"a": [1.0000000001]})["a"][0] == 1.0


class TestGen:
    def test_gen_writes_scene(self, tmp_path, capsys):
        cfg = make_cfg(tmp_path, "scene")
        out = cmd_gen(cfg)
        captured = capsys.readouterr().out
        assert "occupied voxels" in captured
        b = load_scene(out)
        assert b.scene.preset == "boxes"
        stats = int(np.sum(b.grid.occupied))
        assert f"occupied voxels: {stats}" in captured

    def test_gen_deterministic_bytes(self, tmp_path):
        cmd_gen(make_cfg(tmp_path, "a"))
        cmd_gen(make_cfg(tmp_path, "b"))
        a = tree_bytes(tmp_path / "a")
        b = tree_bytes(tmp_path / "b")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)

    def test_integer_valued_floats_write_the_same_scene(self, tmp_path):
        # read_fields passes a JSON integer through for a float field; the
        # scene must still come out as it does from the float spelling
        ints = {"scene.sigma_occ": 50, "scene.voxel_size": 1, "scene.origin": [0, -1, 0]}
        floats = {"scene.sigma_occ": 50.0, "scene.voxel_size": 1.0,
                  "scene.origin": [0.0, -1.0, 0.0]}
        cmd_gen(make_cfg(tmp_path, "ints", **ints))
        cmd_gen(make_cfg(tmp_path, "floats", **floats))
        a, b = tree_bytes(tmp_path / "ints"), tree_bytes(tmp_path / "floats")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)

    def test_corridor_reports_classes(self, tmp_path, capsys):
        cfg = make_cfg(tmp_path, "scene", **{"scene.preset": "corridor"})
        cmd_gen(cfg)
        out = capsys.readouterr().out
        assert "class 0" in out and "class 1" in out and "class 2" in out


class TestRender:
    def test_report_and_artifacts(self, tmp_path):
        cfg = make_cfg(tmp_path, "scene", **{"scene.preset": "corridor"})
        scene = cmd_gen(cfg)
        cfg.output_dir = str(tmp_path / "render")
        rep = cmd_render(cfg, scene)
        delta = (cfg.render.t_far - cfg.render.t_near) / cfg.render.samples
        assert rep["p95_err"] <= delta
        # the forward camera sees the corridor; the backward one faces the
        # open end, so roughly half of all pixels are valid
        assert 0.4 < rep["valid_fraction"] <= 1.0
        assert (tmp_path / "render" / "depth_cam0.pfm").exists()
        assert (tmp_path / "render" / "report.json").exists()

    def test_empty_scene_valid_fraction_zero(self, tmp_path):
        import dataclasses

        from occgeom.occ_encdec import SemanticOccupancy
        from occgeom.synthscene import build_scene, save_scene

        cfg = make_cfg(tmp_path, "render")
        b = build_scene(dataclasses.replace(cfg.scene, seed=0))
        free = np.full(b.spec.dims, b.grid.num_classes)
        # the ground-truth density follows the grid: all free, all zero
        empty = dataclasses.replace(
            b, grid=SemanticOccupancy(free, b.grid.num_classes)
        )
        assert not empty.density_gt.sigma.any()
        save_scene(empty, tmp_path / "scene")
        rep = cmd_render(cfg, str(tmp_path / "scene"))
        assert rep["valid_fraction"] == 0.0
        assert rep["mean_abs_err"] == 0.0

    def test_doubling_samples_reduces_error(self, tmp_path):
        # persisted two-axis tilted wall (depth phases spread across the
        # sample grid, no occlusion edges): doubling S reduces the reported
        # mean error by at least 1.5x
        from helpers import identity_pose, level_camera_mount
        from occgeom.camera import Camera, CameraRig, Intrinsics, camera_pose_at, view_rays
        from occgeom.occ_encdec import SemanticOccupancy
        from occgeom.synthscene import (
            SceneBundle,
            SceneConfig,
            _traverse,
            raymarch_depth_oracle,
            save_scene,
            synthesize_image,
        )
        from occgeom.view_transform import VoxelGridSpec

        vs = 0.2
        spec = VoxelGridSpec((64, 64, 16), np.zeros(3), vs)
        ix, iy, iz = np.meshgrid(
            np.arange(64), np.arange(64), np.arange(16), indexing="ij"
        )
        labels = np.full((64, 64, 16), 4, dtype=np.int64)
        labels[ix >= 20 + 0.268 * iy + 0.171 * iz] = 0
        grid = SemanticOccupancy(labels, 4)
        intr = Intrinsics(fx=210.0, fy=210.0, cx=79.5, cy=31.5, width=160, height=64)
        pos = np.array([1.53, 32.07, 8.53]) * vs
        mount = level_camera_mount(0.0, pos)
        rig = CameraRig(
            (Camera(intr, mount), Camera(intr, mount)),
            {0: identity_pose(), 1: identity_pose()},
        )
        images, depths = {}, {}
        visible = np.zeros(spec.dims, dtype=bool)
        for ci in range(2):
            for t in (0, 1):
                cam = Camera(intr, camera_pose_at(rig, ci, t))
                depths[(ci, t)] = raymarch_depth_oracle(grid, spec, cam, (64, 160))
                _traverse(grid.occupied, spec, *view_rays(cam, (64, 160)), visible)
                images[(ci, t)] = synthesize_image(grid, spec, cam, (64, 160))
        scene = SceneConfig(
            seed=0, preset="boxes", dims=spec.dims, voxel_size=vs, num_cameras=2,
            image_size=(64, 160), sigma_occ=50.0,
        )
        bundle = SceneBundle(scene, grid, rig, images, depths, visible)
        save_scene(bundle, tmp_path / "wall")
        errs = {}
        for s in (76, 152):
            cfg = make_cfg(
                tmp_path, f"r{s}",
                **{"render.S": s, "render.t_far": 32.0,
                   "render.resolution": [64, 160]},
            )
            errs[s] = cmd_render(cfg, str(tmp_path / "wall"))["mean_abs_err"]
        assert errs[76] / errs[152] >= 1.5


class TestSelftrain:
    def test_zero_steps_trace_has_initial_row(self, tmp_path):
        cfg = make_cfg(tmp_path, "scene", **{"optimize.steps": 0})
        scene = cmd_gen(cfg)
        cfg.output_dir = str(tmp_path / "train")
        cmd_selftrain(cfg, scene)
        with open(tmp_path / "train" / "trace.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == cli._TRACE_COLUMNS
        assert len(rows) == 2
        assert rows[1][0] == "0"

    def test_loss_decreases(self, tmp_path):
        cfg = make_cfg(tmp_path, "scene", **{"optimize.steps": 8})
        scene = cmd_gen(cfg)
        cfg.output_dir = str(tmp_path / "train")
        rep = cmd_selftrain(cfg, scene)
        assert rep["final_total"] < rep["initial_total"]
        assert (tmp_path / "train" / "final_cam0.pfm").exists()
        assert (tmp_path / "train" / "sigma_final.raw").exists()

    def test_non_finite_gradient_is_divergence(self, tmp_path, monkeypatch):
        # a NaN depth cotangent at step 1 stops the run there, instead of
        # surfacing one step later as an invalid density
        cfg = make_cfg(tmp_path, "scene", **{"optimize.steps": 3})
        scene = cmd_gen(cfg)
        cfg.output_dir = str(tmp_path / "train")
        real = cli.cast_mod.pretrain_loss
        calls = []

        def poisoned(*args, **kwargs):
            total, parts, grads = real(*args, **kwargs)
            calls.append(total)
            if len(calls) == 2:
                grads[0][...] = np.nan
            return total, parts, grads

        monkeypatch.setattr(cli.cast_mod, "pretrain_loss", poisoned)
        with pytest.raises(RuntimeError, match="diverged at step 1: non-finite gradient"):
            cmd_selftrain(cfg, scene)

    def test_resolution_must_match_scene(self, tmp_path):
        cfg = make_cfg(tmp_path, "scene")
        scene = cmd_gen(cfg)
        cfg2 = make_cfg(tmp_path, "train", **{"render.resolution": [12, 20]})
        with pytest.raises(ValueError, match="image size"):
            cmd_selftrain(cfg2, scene)

    def test_zeros_init_dense_lidar_halves_depth_error(self, tmp_path):
        # purely depth-supervised run from an empty field: the rendered
        # depth L1 against the (dense) sparse set must drop by >= 50%
        raw = json.loads(json.dumps(SMALL))
        raw["cast"] = {"lambda_t": 0.0, "lambda_sp": 0.0, "lambda_spt": 0.0}
        raw["optimize"] = {
            "steps": 80, "step_size": 100.0, "init": "zeros",
            "lidar_samples": 10**6,
        }
        raw["output_dir"] = str(tmp_path / "scene")
        cfg = ExperimentConfig.from_dict(raw)
        scene = cmd_gen(cfg)
        cfg.output_dir = str(tmp_path / "train")
        rep = cmd_selftrain(cfg, scene)
        assert rep["initial_depth_err"] is None  # nothing valid at start
        with open(tmp_path / "train" / "trace.csv", newline="") as f:
            rows = list(csv.reader(f))
        header = rows[0]
        l_rd = [float(r[header.index("L_rd")]) for r in rows[1:]]
        assert l_rd[-1] <= 0.5 * l_rd[0]

    def test_seeds_come_from_the_scene(self, tmp_path, capsys):
        # `--seed` changes only `gen`: selftrain draws its sparse LiDAR and
        # its initial density from the loaded scene's seed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL, "optimize": {**SMALL["optimize"], "steps": 3}}))
        scene_dir = str(tmp_path / "scene")
        assert main(["--config", str(cfg_path), "--out", scene_dir, "gen"]) == 0
        for name, extra in (("t1", []), ("t2", ["--seed", "7"])):
            args = ["--config", str(cfg_path), "--out", str(tmp_path / name), *extra]
            assert main(args + ["selftrain", "--scene-dir", scene_dir]) == 0
        a, b = tree_bytes(tmp_path / "t1"), tree_bytes(tmp_path / "t2")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)

    @pytest.mark.parametrize("init", cli._INITS)
    def test_init_sigma(self, tmp_path, capsys, init):
        cfg = make_cfg(tmp_path, "scene", **{"optimize.init": init})
        bundle = load_scene(cmd_gen(cfg))
        sigma = cli._init_sigma(cfg, bundle)
        # the same bits again, and under a config naming another scene seed
        other = make_cfg(tmp_path, "scene", **{"optimize.init": init, "scene.seed": 8})
        for again in (cli._init_sigma(cfg, bundle), cli._init_sigma(other, bundle)):
            assert again.tobytes() == sigma.tobytes()
        assert sigma.shape == bundle.spec.dims
        sigma_occ = bundle.scene.sigma_occ
        if init == "zeros":
            assert np.all(sigma == 0.0) and not np.any(np.signbit(sigma))
        elif init == "random":
            assert sigma.min() >= 0.0 and sigma.max() < 0.25 * sigma_occ
        else:
            assert sigma.min() >= 0.0
            bound = cfg.optimize.perturbation * sigma_occ
            assert np.abs(sigma - bundle.density_gt.sigma).max() <= bound


class TestEval:
    def _scene(self, tmp_path):
        cfg = make_cfg(tmp_path, "scene")
        return cfg, cmd_gen(cfg)

    def test_gt_copy_scores_one(self, tmp_path, capsys):
        cfg, scene = self._scene(tmp_path)
        cfg.output_dir = str(tmp_path / "eval")
        r = cmd_eval(cfg, os.path.join(scene, "grid.raw"), scene, visible=False)
        assert r.iou == 1.0 and r.miou == 1.0
        out = capsys.readouterr().out
        assert "IoU: 1" in out and "mIoU: 1" in out
        with open(tmp_path / "eval" / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[-1][0] == "mIoU"

    def test_all_free_scores_zero(self, tmp_path):
        cfg, scene = self._scene(tmp_path)
        cfg.output_dir = str(tmp_path / "eval")
        pred = tmp_path / "pred.raw"
        pred.write_bytes(bytes([4]) * (16 * 16 * 8))
        r = cmd_eval(cfg, str(pred), scene, visible=False)
        assert r.iou == 0.0

    def test_visible_flag_changes_counts(self, tmp_path):
        cfg, scene = self._scene(tmp_path)
        cfg.output_dir = str(tmp_path / "eval")
        pred = tmp_path / "pred.raw"
        pred.write_bytes(bytes([4]) * (16 * 16 * 8))
        full = cmd_eval(cfg, str(pred), scene, visible=False)
        masked = cmd_eval(cfg, str(pred), scene, visible=True)
        assert masked.binary_counts[2] <= full.binary_counts[2]

    def test_shape_mismatch_names_both(self, tmp_path):
        cfg, scene = self._scene(tmp_path)
        pred = tmp_path / "pred.raw"
        pred.write_bytes(bytes([4]) * 100)
        with pytest.raises(ValueError, match="100 voxels.*16x16x8"):
            cmd_eval(cfg, str(pred), scene, visible=False)

    def test_label_above_free_names_file_voxel_and_label(self, tmp_path):
        cfg, scene = self._scene(tmp_path)
        pred = tmp_path / "pred.raw"
        raw = bytearray([4]) * (16 * 16 * 8)
        raw[37], raw[90] = 9, 5
        pred.write_bytes(bytes(raw))
        message = f"prediction {pred}: voxel 37 has label 9, above the scene's free label 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            cmd_eval(cfg, str(pred), scene, visible=False)


class TestMain:
    def test_gen_render_eval_pipeline(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        raw = json.loads(json.dumps(SMALL))
        cfg_path.write_text(json.dumps(raw))
        scene_dir = str(tmp_path / "scene")
        assert main(["--config", str(cfg_path), "--out", scene_dir, "gen"]) == 0
        assert (
            main(
                ["--config", str(cfg_path), "--out", str(tmp_path / "r"),
                 "render", "--scene-dir", scene_dir]
            )
            == 0
        )
        assert (
            main(
                ["--config", str(cfg_path), "--out", str(tmp_path / "e"), "eval",
                 "--scene-dir", scene_dir, "--pred",
                 os.path.join(scene_dir, "grid.raw"), "--visible"]
            )
            == 0
        )

    def test_override_applies(self, tmp_path, capsys):
        scene_dir = str(tmp_path / "scene")
        code = main(
            ["--out", scene_dir, "--seed", "5", "gen",
             "scene.dims=[16,16,8]", "scene.image_size=[16,24]",
             "scene.preset=\"boxes\""]
        )
        assert code == 0
        b = load_scene(scene_dir)
        assert b.scene.seed == 5 and b.spec.dims == (16, 16, 8)

    def test_failure_emits_structured_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "x"), "render", "--scene-dir",
                     str(tmp_path / "missing")])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert "error" in payload and "message" in payload

    @pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
    @pytest.mark.parametrize("extra", [[], ["scene.seed=3"]], ids=["bare", "override"])
    def test_config_top_level_must_be_an_object(self, tmp_path, monkeypatch, capsys, out, extra):
        # the file is checked before an override or --out is applied to it
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[]")
        flags = ["--out", str(tmp_path / "x")] if out else []
        assert main(["--config", str(cfg_path), *flags, "gen", *extra]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {
            "error": "ValueError",
            "message": f"{cfg_path}: the top level must be an object, got []",
        }
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda m: m["spec"].update(voxel_size=float("nan")), "spec.voxel_size"),
            (lambda m: m["rig"]["cameras"][1].update(fx=None), "rig.cameras[1].fx"),
            (lambda m: m["rig"]["ego_poses"][1].update(timestamp=2.5),
             "rig.ego_poses[1].timestamp"),
        ],
        ids=["voxel_size-nan", "fx-null", "timestamp-2.5"],
    )
    def test_non_finite_scene_geometry_is_a_structured_error(self, tmp_path, capsys, edit, key):
        scene_dir = tmp_path / "scene"
        assert main(["--out", str(scene_dir), "gen", "scene.dims=[16,16,8]",
                     "scene.image_size=[16,24]"]) == 0
        meta = json.loads((scene_dir / "scene.json").read_text())
        edit(meta)
        (scene_dir / "scene.json").write_text(json.dumps(meta))
        capsys.readouterr()
        code = main(["--out", str(tmp_path / "r"), "render", "--scene-dir", str(scene_dir),
                     "render.resolution=[16,24]", "render.S=16"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert f"scene.json: {key}: " in payload["message"]
        assert not (tmp_path / "r").exists()


class TestDeterminism:
    def test_render_and_selftrain_byte_identical(self, tmp_path):
        scene_cfg = make_cfg(tmp_path, "scene")
        scene = cmd_gen(scene_cfg)
        for name in ("r1", "r2"):
            cfg = make_cfg(tmp_path, name)
            cmd_render(cfg, scene)
        a, b = tree_bytes(tmp_path / "r1"), tree_bytes(tmp_path / "r2")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)
        for name in ("t1", "t2"):
            cfg = make_cfg(tmp_path, name, **{"optimize.steps": 3})
            cmd_selftrain(cfg, scene)
        a, b = tree_bytes(tmp_path / "t1"), tree_bytes(tmp_path / "t2")
        assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)
