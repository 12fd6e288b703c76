"""Config-driven command line: generate scenes, render and score depth,
run density self-training, and evaluate occupancy grids.

Every command is deterministic given its config and seed; outputs carry no
timestamps. Floats in traces and reports are printed with 9 significant
digits. OCCGEOM_THREADS caps the per-camera worker pool (default 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import cast as cast_mod
from . import metrics as metrics_mod
from . import renderer, synthscene
from .camera import Camera, camera_pose_at
from .cast import PhotometricConfig
from .occ_encdec import SemanticOccupancy
from .renderer import DensityField
from .view_transform import VoxelGridSpec


@dataclass
class SceneConfig:
    seed: int = 0
    preset: str = "corridor"
    dims: tuple[int, int, int] = (32, 32, 8)
    voxel_size: float = 0.4
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    num_cameras: int = 2
    image_size: tuple[int, int] = (48, 80)
    sigma_occ: float = 50.0

    def validate(self):
        if self.preset not in synthscene.PRESETS:
            raise ValueError(f"scene.preset must be one of {synthscene.PRESETS}")
        if len(self.dims) != 3 or any(not 1 <= d <= 64 for d in self.dims):
            raise ValueError(f"scene.dims must be three extents in 1..64, got {self.dims}")
        if self.voxel_size <= 0:
            raise ValueError("scene.voxel_size must be positive")
        if not 2 <= self.num_cameras <= 6:
            raise ValueError("scene.num_cameras must be in 2..6")
        if len(self.image_size) != 2 or any(s < 8 for s in self.image_size):
            raise ValueError(f"scene.image_size too small: {self.image_size}")
        if self.sigma_occ <= 0:
            raise ValueError("scene.sigma_occ must be positive")

    def spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(tuple(self.dims), np.array(self.origin), self.voxel_size)


@dataclass
class RenderConfig:
    samples: int = 152  # config key "S"
    t_near: float = 1.0
    t_far: float = 45.0
    resolution: tuple[int, int] = (180, 320)

    def validate(self):
        if self.samples < 2:
            raise ValueError("render.S must be at least 2")
        if not 0 < self.t_near < self.t_far:
            raise ValueError(
                f"render range invalid: [{self.t_near}, {self.t_far}]"
            )
        if len(self.resolution) != 2 or any(r < 1 for r in self.resolution):
            raise ValueError(f"render.resolution invalid: {self.resolution}")


_INITS = ("zeros", "random", "perturbed_gt")


@dataclass
class OptimizeConfig:
    steps: int = 200
    step_size: float = 100.0
    init: str = "perturbed_gt"
    perturbation: float = 0.1  # fraction of sigma_occ, for perturbed_gt
    lidar_samples: int = 200  # sparse depth samples per camera (0 disables)

    def validate(self):
        if self.steps < 0:
            raise ValueError("optimize.steps must be nonnegative")
        if self.step_size <= 0:
            raise ValueError("optimize.step_size must be positive")
        if self.init not in _INITS:
            raise ValueError(f"optimize.init must be one of {_INITS}")
        if self.perturbation < 0:
            raise ValueError("optimize.perturbation must be nonnegative")
        if self.lidar_samples < 0:
            raise ValueError("optimize.lidar_samples must be nonnegative")


@dataclass
class ExperimentConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    render: RenderConfig = field(default_factory=RenderConfig)
    cast: PhotometricConfig = field(default_factory=PhotometricConfig)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)
    output_dir: str = "occgeom_out"

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        known = {"scene", "render", "cast", "optimize", "output_dir"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")

        def build(cls, section, rename=None):
            data = dict(raw.get(section, {}))
            rename = rename or {}
            for src, dst in rename.items():
                if src in data:
                    data[dst] = data.pop(src)
            names = set(cls.__dataclass_fields__)
            bad = set(data) - names
            if bad:
                raise ValueError(f"unknown keys in config.{section}: {sorted(bad)}")
            for k in ("dims", "image_size", "resolution", "origin"):
                if k in data and isinstance(data[k], list):
                    data[k] = tuple(data[k])
            return cls(**data)

        cfg = ExperimentConfig(
            scene=build(SceneConfig, "scene"),
            render=build(RenderConfig, "render", rename={"S": "samples"}),
            cast=build(PhotometricConfig, "cast"),
            optimize=build(OptimizeConfig, "optimize"),
            output_dir=str(raw.get("output_dir", "occgeom_out")),
        )
        cfg.scene.validate()
        cfg.render.validate()
        cfg.optimize.validate()
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        d["render"]["S"] = d["render"].pop("samples")
        return d


def worker_count() -> int:
    """The per-camera worker cap from OCCGEOM_THREADS (1 when unset)."""
    raw = os.environ.get("OCCGEOM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"OCCGEOM_THREADS must be a positive integer, got {raw!r}")
    return workers


def _camera_map(fn, items):
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _round9(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _write_report(path, report: dict):
    with open(path, "w") as f:
        json.dump(_round9(report), f, indent=2, sort_keys=True)


def cmd_gen(cfg: ExperimentConfig) -> str:
    """Build a scene bundle, persist it, and print occupancy statistics."""
    bundle = synthscene.build_scene(
        cfg.scene.seed,
        cfg.scene.spec(),
        cfg.scene.preset,
        num_cameras=cfg.scene.num_cameras,
        image_size=tuple(cfg.scene.image_size),
        sigma_occ=cfg.scene.sigma_occ,
    )
    out = cfg.output_dir
    synthscene.save_scene(bundle, out)
    labels = bundle.grid.labels
    total = labels.size
    occupied = int(np.sum(labels != bundle.grid.num_classes))
    print(f"scene: preset={bundle.preset} seed={bundle.seed} dims={bundle.spec.dims}")
    print(f"occupied voxels: {occupied} / {total} ({occupied / total:.9g})")
    for c in range(bundle.grid.num_classes):
        n = int(np.sum(labels == c))
        if n:
            print(f"class {c}: {n} voxels")
    print(f"visible voxels: {int(bundle.visible.sum())}")
    print(f"wrote {out}")
    return out


def _latest_views(bundle: synthscene.SceneBundle) -> list[Camera]:
    t = bundle.rig.timestamps()[-1]
    return [
        Camera(bundle.rig.cameras[i].intrinsics, camera_pose_at(bundle.rig, i, t))
        for i in range(len(bundle.rig.cameras))
    ]


def _depth_error_stats(rendered, oracles):
    errs = []
    valid_px = 0
    total_px = 0
    for rd, oc in zip(rendered, oracles):
        both = rd.valid & oc.valid
        errs.append(np.abs(rd.depth - oc.depth)[both])
        valid_px += int(rd.valid.sum())
        total_px += rd.valid.size
    errs = np.concatenate(errs) if errs else np.array([])
    return {
        "mean_abs_err": float(errs.mean()) if errs.size else 0.0,
        "p95_err": float(np.percentile(errs, 95)) if errs.size else 0.0,
        "valid_fraction": valid_px / total_px if total_px else 0.0,
    }


def cmd_render(cfg: ExperimentConfig, scene_dir: str) -> dict:
    """Render every camera at the latest timestamp and score it against the
    first-hit traversal oracle. Writes depth PFMs and report.json."""
    bundle = synthscene.load_scene(scene_dir)
    res = tuple(cfg.render.resolution)
    views = _latest_views(bundle)
    rendered = _camera_map(
        lambda cam: renderer.render_view(
            bundle.density_gt, cam, res, cfg.render.t_near, cfg.render.t_far,
            cfg.render.samples,
        ),
        views,
    )
    oracles = _camera_map(
        lambda cam: synthscene.raymarch_depth_oracle(bundle.grid, bundle.spec, cam, res),
        views,
    )
    os.makedirs(cfg.output_dir, exist_ok=True)
    for i, (rd, oc) in enumerate(zip(rendered, oracles)):
        renderer.save_depth_pfm(rd, os.path.join(cfg.output_dir, f"depth_cam{i}.pfm"))
        renderer.save_valid_pgm(rd, os.path.join(cfg.output_dir, f"valid_cam{i}.pgm"))
        renderer.save_depth_pfm(oc, os.path.join(cfg.output_dir, f"oracle_cam{i}.pfm"))
    report = _depth_error_stats(rendered, oracles)
    report["S"] = cfg.render.samples
    report["delta"] = (cfg.render.t_far - cfg.render.t_near) / cfg.render.samples
    _write_report(os.path.join(cfg.output_dir, "report.json"), report)
    print(
        f"render: mean_abs_err={report['mean_abs_err']:.9g} "
        f"p95_err={report['p95_err']:.9g} valid_fraction={report['valid_fraction']:.9g}"
    )
    return report


def _init_sigma(cfg: ExperimentConfig, bundle: synthscene.SceneBundle) -> np.ndarray:
    gt = bundle.density_gt.sigma
    rng = np.random.default_rng(cfg.scene.seed + 7919)
    if cfg.optimize.init == "zeros":
        return np.zeros_like(gt)
    if cfg.optimize.init == "random":
        return rng.uniform(0.0, 0.25 * bundle.sigma_occ, size=gt.shape)
    noise = rng.uniform(
        -cfg.optimize.perturbation * bundle.sigma_occ,
        cfg.optimize.perturbation * bundle.sigma_occ,
        size=gt.shape,
    )
    return np.clip(gt + noise, 0.0, None)


_TRACE_COLUMNS = ["step", "L_ed", "L_rd", "L_t", "L_sp", "L_spt", "L_cast", "total"]


def cmd_selftrain(cfg: ExperimentConfig, scene_dir: str) -> dict:
    """Gradient-descend the density field on the pretraining objective.

    Plain fixed-step descent; sigma is clamped nonnegative after each step.
    Aborts on divergence (non-finite loss) or if the 10-step moving average
    of the total ever increases after warmup. Writes trace.csv, final depth
    maps, the final density grid, and report.json.
    """
    bundle = synthscene.load_scene(scene_dir)
    res = tuple(cfg.render.resolution)
    if res != tuple(bundle.image_size):
        raise ValueError(
            f"selftrain needs render.resolution == scene image size; "
            f"got {res} vs {tuple(bundle.image_size)}"
        )
    rig = bundle.rig
    t_ref = rig.timestamps()[-1]
    views = _latest_views(bundle)
    n_cam = len(views)
    sparse = []
    for i in range(n_cam):
        gt_dm = bundle.gt_depths[(i, t_ref)]
        n = min(cfg.optimize.lidar_samples, int(gt_dm.valid.sum()))
        if n > 0:
            sparse.append(synthscene.sparse_lidar(gt_dm, n, cfg.scene.seed * 100 + i))
        else:
            sparse.append(None)
    sigma = _init_sigma(cfg, bundle)
    spec = bundle.spec
    # sample positions never depend on sigma: one plan per view serves
    # every forward render and adjoint of the run
    plans = _camera_map(
        lambda cam: renderer.RayPlan(
            spec, cam, res, cfg.render.t_near, cfg.render.t_far, cfg.render.samples
        ),
        views,
    )

    def forward(sig):
        fld = DensityField(sig, spec)
        rendered = _camera_map(lambda plan: plan.render(fld), plans)
        return [dm for dm, _ in rendered], [rows for _, rows in rendered]

    def gt_depth_error(depths):
        errs = []
        for i in range(n_cam):
            gt_dm = bundle.gt_depths[(i, t_ref)]
            both = depths[i].valid & gt_dm.valid
            if np.any(both):
                errs.append(np.abs(depths[i].depth - gt_dm.depth)[both])
        # None when no pixel is valid in both (e.g. a from-zeros init)
        return float(np.concatenate(errs).mean()) if errs else None

    rows = []
    moving: list[float] = []
    prev_avg = None
    initial_err = None

    for step in range(cfg.optimize.steps + 1):
        depths, rows_per_view = forward(sigma)
        if step == 0:
            initial_err = gt_depth_error(depths)
        last = step == cfg.optimize.steps
        if last:
            total, parts = cast_mod.pretrain_loss(
                rig, bundle.images, depths, sparse, cfg.cast
            )
            grads = None
        else:
            total, parts, grads = cast_mod.pretrain_loss_with_depth_grad(
                rig, bundle.images, depths, sparse, cfg.cast
            )
        if not np.isfinite(total):
            raise RuntimeError(
                f"selftrain diverged at step {step}: total loss is {total}"
            )
        rows.append(
            [step, parts["L_ed"], parts["L_rd"], parts["L_t"], parts["L_sp"],
             parts["L_spt"], parts["L_cast"], total]
        )
        moving.append(total)
        if len(moving) > 10:
            moving.pop(0)
        avg = sum(moving) / len(moving)
        if step >= 20 and prev_avg is not None and avg > prev_avg * (1 + 1e-9) + 1e-12:
            raise RuntimeError(
                f"selftrain loss not decreasing at step {step}: "
                f"moving average {avg:.9g} > {prev_avg:.9g}"
            )
        prev_avg = avg
        if last:
            break
        sig_grad = np.zeros_like(sigma)
        grad_views = _camera_map(
            lambda iv: plans[iv].grad_sigma(rows_per_view[iv], grads[iv]),
            list(range(n_cam)),
        )
        for g in grad_views:
            sig_grad += g
        if not np.all(np.isfinite(sig_grad)):
            raise RuntimeError(f"selftrain diverged at step {step}: non-finite gradient")
        sigma = np.clip(sigma - cfg.optimize.step_size * sig_grad, 0.0, None)

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "trace.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_TRACE_COLUMNS)
        for row in rows:
            w.writerow([row[0]] + [f"{v:.9g}" for v in row[1:]])
    # the last step rendered the final sigma and made no update after it
    for i, dm in enumerate(depths):
        renderer.save_depth_pfm(dm, os.path.join(cfg.output_dir, f"final_cam{i}.pfm"))
    sigma.astype(np.float32).tofile(os.path.join(cfg.output_dir, "sigma_final.raw"))
    final_err = gt_depth_error(depths)
    report = {
        "initial_total": rows[0][-1],
        "final_total": rows[-1][-1],
        "initial_depth_err": initial_err,
        "final_depth_err": final_err,
        "steps": cfg.optimize.steps,
    }
    _write_report(os.path.join(cfg.output_dir, "report.json"), report)
    fmt = lambda v: "n/a" if v is None else f"{v:.9g}"
    print(
        f"selftrain: total {report['initial_total']:.9g} -> {report['final_total']:.9g}, "
        f"depth err {fmt(initial_err)} -> {fmt(final_err)}"
    )
    return report


def cmd_eval(cfg: ExperimentConfig, pred_path: str, scene_dir: str, visible: bool) -> metrics_mod.EvalResult:
    """Score a raw predicted label grid against a persisted scene."""
    bundle = synthscene.load_scene(scene_dir)
    dims = bundle.spec.dims
    raw = np.fromfile(pred_path, dtype=np.uint8)
    expected = int(np.prod(dims))
    if raw.size != expected:
        raise ValueError(
            f"prediction {pred_path} holds {raw.size} voxels but the scene grid "
            f"is {dims[0]}x{dims[1]}x{dims[2]} = {expected}"
        )
    pred = SemanticOccupancy.from_labels(
        raw.reshape(dims).astype(np.int64), bundle.grid.num_classes
    )
    mask = bundle.visible if visible else None
    result = metrics_mod.evaluate(pred, bundle.grid, mask)
    os.makedirs(cfg.output_dir, exist_ok=True)
    metrics_mod.write_csv(result, os.path.join(cfg.output_dir, "metrics.csv"))
    print(f"IoU: {result.iou:.9g}")
    print(f"mIoU: {result.miou:.9g}")
    return result


def _apply_override(raw: dict, key: str, value: str):
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    parts = key.split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot override through non-section key {p!r}")
    node[parts[-1]] = parsed


def load_config(path: str | None, overrides: list[str], out: str | None, seed: int | None) -> ExperimentConfig:
    raw: dict = {}
    if path:
        with open(path) as f:
            raw = json.load(f)
    for ov in overrides:
        if "=" not in ov:
            raise ValueError(f"override {ov!r} is not key=value")
        key, value = ov.split("=", 1)
        _apply_override(raw, key, value)
    if seed is not None:
        raw.setdefault("scene", {})["seed"] = seed
    if out is not None:
        raw["output_dir"] = out
    return ExperimentConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    # shared flags are accepted before or after the subcommand; SUPPRESS
    # defaults keep a sub-level absence from clobbering a top-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file", default=argparse.SUPPRESS)
    common.add_argument(
        "--out", help="output directory (overrides config)", default=argparse.SUPPRESS
    )
    common.add_argument(
        "--seed", type=int, help="scene seed (overrides config)",
        default=argparse.SUPPRESS,
    )
    parser = argparse.ArgumentParser(
        prog="occgeom",
        parents=[common],
        description="Synthetic occupancy-geometry experiments: scene generation, "
        "depth rendering, density self-training, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("gen", parents=[common], help="generate and persist a scene")
    p_render = sub.add_parser(
        "render", parents=[common], help="render depth and score vs the oracle"
    )
    p_render.add_argument("--scene-dir", required=True)
    p_train = sub.add_parser(
        "selftrain", parents=[common], help="optimize a density field"
    )
    p_train.add_argument("--scene-dir", required=True)
    p_eval = sub.add_parser("eval", parents=[common], help="score a predicted label grid")
    p_eval.add_argument("--scene-dir", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--visible", action="store_true")
    for p in (p_gen, p_render, p_train, p_eval):
        p.add_argument("overrides", nargs="*", help="dotted key=value config overrides")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            getattr(args, "config", None),
            args.overrides,
            getattr(args, "out", None),
            getattr(args, "seed", None),
        )
        if args.command == "gen":
            cmd_gen(cfg)
        elif args.command == "render":
            cmd_render(cfg, args.scene_dir)
        elif args.command == "selftrain":
            cmd_selftrain(cfg, args.scene_dir)
        elif args.command == "eval":
            cmd_eval(cfg, args.pred, args.scene_dir, args.visible)
    except Exception as exc:  # structured failure for scripting
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
