"""Config-driven command line: generate scenes, render and score depth,
run density self-training, and evaluate occupancy grids.

Every command is deterministic given its config and seed; outputs carry no
timestamps. Floats in traces and reports are printed with 9 significant
digits. Each command runs its views serially, in camera order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from . import cast as cast_mod
from . import metrics as metrics_mod
from . import renderer, synthscene
from .camera import Camera, camera_pose_at
from .cast import PhotometricConfig
from .formats import naming, read_fields
from .occ_encdec import SemanticOccupancy
from .renderer import DensityField


@dataclass
class RenderConfig:
    samples: int = 152  # config key "S"
    t_near: float = 1.0
    t_far: float = 45.0
    resolution: tuple[int, int] = (180, 320)

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("render.S must be at least 2")
        if not 0 < self.t_near < self.t_far:
            raise ValueError(
                f"render range invalid: [{self.t_near}, {self.t_far}]"
            )
        if any(r < 1 for r in self.resolution):
            raise ValueError(f"render.resolution invalid: {self.resolution}")


_INITS = ("zeros", "random", "perturbed_gt")


@dataclass
class OptimizeConfig:
    steps: int = 200
    step_size: float = 100.0
    init: str = "perturbed_gt"
    perturbation: float = 0.1  # fraction of sigma_occ, for perturbed_gt
    lidar_samples: int = 200  # sparse depth samples per camera (0 disables)

    def __post_init__(self):
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
    scene: synthscene.SceneConfig = field(default_factory=synthscene.SceneConfig)
    render: RenderConfig = field(default_factory=RenderConfig)
    cast: PhotometricConfig = field(default_factory=PhotometricConfig)
    optimize: OptimizeConfig = field(default_factory=OptimizeConfig)
    output_dir: str = "occgeom_out"

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        sections = typing.get_type_hints(ExperimentConfig)
        del sections["output_dir"]  # each other field is a section, which its own read checks
        top = read_fields(
            raw, {**dict.fromkeys(sections, object), "output_dir": str}, "", "config",
            required=False,
        )
        for section, cls in sections.items():
            fields = typing.get_type_hints(cls)
            keys = {"S" if f == "samples" else f: f for f in fields}  # config key -> field
            data = read_fields(
                top.get(section, {}), {k: fields[f] for k, f in keys.items()}, section,
                f"config.{section}", required=False,
            )
            top[section] = cls(**{keys[k]: v for k, v in data.items()})
        return ExperimentConfig(**top)


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
    bundle = synthscene.build_scene(cfg.scene)
    out = cfg.output_dir
    synthscene.save_scene(bundle, out)
    labels = bundle.grid.labels
    total = labels.size
    occupied = int(np.sum(bundle.grid.occupied))
    print(f"scene: preset={cfg.scene.preset} seed={cfg.scene.seed} dims={bundle.spec.dims}")
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


def _depth_errors(depths, references) -> np.ndarray:
    """|depth - reference| over the pixels valid in both, all views concatenated."""
    errs = [np.abs(d.depth - r.depth)[d.valid & r.valid] for d, r in zip(depths, references)]
    return np.concatenate(errs + [np.array([])])


def _depth_error_stats(rendered, oracles):
    errs = _depth_errors(rendered, oracles)
    valid_px = sum(int(rd.valid.sum()) for rd in rendered)
    total_px = sum(rd.valid.size for rd in rendered)
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
    density = bundle.density_gt
    rendered = [
        renderer.render_view(
            density, cam, res, cfg.render.t_near, cfg.render.t_far,
            cfg.render.samples,
        )
        for cam in views
    ]
    oracles = [
        synthscene.raymarch_depth_oracle(bundle.grid, bundle.spec, cam, res)
        for cam in views
    ]
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
    sigma_occ = bundle.scene.sigma_occ
    rng = np.random.default_rng(bundle.scene.seed + 7919)
    if cfg.optimize.init == "zeros":
        return np.zeros_like(gt)
    if cfg.optimize.init == "random":
        return rng.uniform(0.0, 0.25 * sigma_occ, size=gt.shape)
    noise = rng.uniform(
        -cfg.optimize.perturbation * sigma_occ,
        cfg.optimize.perturbation * sigma_occ,
        size=gt.shape,
    )
    return np.clip(gt + noise, 0.0, None)


_TRACE_COLUMNS = ["step", "L_rd", "L_t", "L_sp", "L_spt", "L_cast", "total"]


def cmd_selftrain(cfg: ExperimentConfig, scene_dir: str) -> dict:
    """Gradient-descend the density field on the pretraining objective.

    Plain fixed-step descent; sigma is clamped nonnegative after each step.
    Aborts on divergence (non-finite loss) or if the 10-step moving average
    of the total ever increases after warmup. Writes trace.csv, final depth
    maps, the final density grid, and report.json.
    """
    bundle = synthscene.load_scene(scene_dir)
    res = tuple(cfg.render.resolution)
    if res != bundle.scene.image_size:
        raise ValueError(
            f"selftrain needs render.resolution == scene image size; "
            f"got {res} vs {bundle.scene.image_size}"
        )
    rig = bundle.rig
    t_ref = rig.timestamps()[-1]
    views = _latest_views(bundle)
    gt_views = [bundle.gt_depths[(i, t_ref)] for i in range(len(views))]
    sparse = []
    for i, gt_dm in enumerate(gt_views):
        n = min(cfg.optimize.lidar_samples, int(gt_dm.valid.sum()))
        if n > 0:
            sparse.append(synthscene.sparse_lidar(gt_dm, n, bundle.scene.seed * 100 + i))
        else:
            sparse.append(None)
    sigma = _init_sigma(cfg, bundle)
    spec = bundle.spec
    # sample positions never depend on sigma: one plan per view serves
    # every forward render and adjoint of the run
    plans = [
        renderer.RayPlan(
            spec, cam, res, cfg.render.t_near, cfg.render.t_far, cfg.render.samples
        )
        for cam in views
    ]
    # likewise the context pairs' warp geometry never depends on depth
    ctx_plan = cast_mod.ContextPlan(rig, res)

    def gt_depth_error(depths):
        errs = _depth_errors(depths, gt_views)
        # None when no pixel is valid in both (e.g. a from-zeros init)
        return float(errs.mean()) if errs.size else None

    rows = []
    moving: list[float] = []
    prev_avg = None
    initial_err = None

    for step in range(cfg.optimize.steps + 1):
        fld = DensityField(sigma, spec)
        depths = [plan.render(fld) for plan in plans]
        if step == 0:
            initial_err = gt_depth_error(depths)
        total, parts, grads = cast_mod.pretrain_loss(
            ctx_plan, bundle.images, depths, sparse, cfg.cast
        )
        if not np.isfinite(total):
            raise RuntimeError(
                f"selftrain diverged at step {step}: total loss is {total}"
            )
        rows.append(
            [step, parts["L_rd"], parts["L_t"], parts["L_sp"], parts["L_spt"],
             parts["L_cast"], total]
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
        if step == cfg.optimize.steps:  # the final sigma gets no update
            break
        sig_grad = np.zeros_like(sigma)
        for plan, g in zip(plans, grads):
            sig_grad += plan.grad_sigma(g)
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
    bad = np.flatnonzero(raw > bundle.grid.num_classes)
    if bad.size:
        raise ValueError(
            f"prediction {pred_path}: voxel {bad[0]} has label {raw[bad[0]]}, above the "
            f"scene's free label {bundle.grid.num_classes}"
        )
    pred = SemanticOccupancy(raw.reshape(dims), bundle.grid.num_classes)
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
        with open(path) as f, naming(path):
            raw = json.load(f)
            if not isinstance(raw, dict):
                raise ValueError(f"the top level must be an object, got {raw!r}")
    for ov in overrides:
        if "=" not in ov:
            raise ValueError(f"override {ov!r} is not key=value")
        key, value = ov.split("=", 1)
        _apply_override(raw, key, value)
    if seed is not None:
        _apply_override(raw, "scene.seed", str(seed))
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
