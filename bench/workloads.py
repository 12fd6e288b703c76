"""The three workloads: how each sets up, runs one operation and checks it.

Each workload is a closed loop with a single client: the next operation
starts only after the previous one has finished and been checked.

* selftrain-boxes: one `occgeom selftrain` command per operation, in a
  fresh interpreter, at the acceptance-06 config with a fixed step count.
  Render forward and its adjoint run repeatedly on the same views, plus the
  cast warp and SSIM losses.
* render-corridor: one `occgeom render` command per operation, in a fresh
  interpreter, at the default config. Forward only, one shot per view; most
  ray samples fall outside the grid. Also runs the DDA oracle and the PFM
  and PGM writers.
* occ-pipeline: the view-transform -> encoder-decoder -> metrics chain,
  in-process, with new feature maps on every operation. Never touches the
  renderer or cast.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pipeline
from occgeom import camera, cli, formats, synthscene

OP_TIMEOUT_S = 100.0
SELFTRAIN_STEPS = 20
# render-corridor valid-area floors: acceptance 01's pixel count, and the
# share of oracle-valid pixels the render also marks valid (1.0 at seeds 0-5)
MIN_VALID_PX = 10000
MIN_VALID_SHARE = 0.99


@dataclass
class Operation:
    """Outcome of one operation: wall time, failed checks, and the spans a
    traced child wrote (None when untraced or in-process)."""

    wall: float
    problems: list[str]
    trace: dict | None = None


def _structured_errors(stderr: str) -> list[str]:
    """The CLI reports a failure as one JSON object on stderr."""
    found = []
    for line in stderr.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and "error" in obj:
                found.append(f"CLI error {obj['error']}: {obj.get('message', '')}")
    return found


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# The two helpers below use only occgeom's public camera functions. The
# program's own private equivalents (cli._latest_views, renderer._view_rays)
# are due to be merged or removed when the duplicate pixel-ray code is
# collapsed, and the benchmark must keep running across that change.
def _latest_cameras(bundle) -> list:
    """Every camera at the rig's last timestamp, as the CLI renders them."""
    t = bundle.rig.timestamps()[-1]
    return [
        camera.Camera(bundle.rig.cameras[i].intrinsics, camera.camera_pose_at(bundle.rig, i, t))
        for i in range(len(bundle.rig.cameras))
    ]


def samples_in_grid_frac(bundle, cam, resolution, t_near, t_far, samples) -> float:
    """Share of a view's midpoint ray samples that lie where trilinear
    sampling can be nonzero, [-0.5, dim - 0.5] in grid coordinates."""
    intr, pose = cam
    h, w = resolution
    if (intr.height, intr.width) != (h, w):
        intr = intr.scaled(w, h)
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dirs, _ = camera.pixel_directions(intr, pose, np.stack([us.ravel(), vs.ravel()], axis=1))
    step = (t_far - t_near) / samples
    t = t_near + (np.arange(samples) + 0.5) * step
    hi = np.array(bundle.spec.dims) - 0.5
    inside = 0
    for start in range(0, dirs.shape[0], 2048):
        pos = pose.translation + t[None, :, None] * dirs[start : start + 2048, None, :]
        g = bundle.spec.world_to_grid(pos.reshape(-1, 3))
        inside += int(np.sum(np.all((g >= -0.5) & (g <= hi), axis=1)))
    return inside / (dirs.shape[0] * samples)


class Workload:
    name = ""
    base_seed = 0
    scene: dict = {}
    checks_on_finish = False  # whether finish() re-runs operations
    # the report's name for op_ms on this workload: (name, unit, scale from ms)
    op_metric = ("op_ms", "ms", 1.0)
    p90_metric = None

    def __init__(self, seed: int, work: Path, env: dict):
        self.seed = seed
        self.scene_seed = self.base_seed + seed
        self.work = work
        self.env = env

    def _config(self) -> dict:
        return {"scene": dict(self.scene, seed=self.scene_seed)}

    def setup(self, directory: Path) -> None:
        """Scene gen, save and load, as `occgeom gen` does; timed by the runner."""
        cfg = cli.ExperimentConfig.from_dict(dict(self._config(), output_dir=str(directory)))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_gen(cfg)
        self.bundle = synthscene.load_scene(str(directory))
        self.scene_dir = directory

    def prepare(self) -> None:
        """Untimed work after set-up and before the first operation."""
        self.quality: dict[str, float] = {}  # deterministic figures for the report

    def warm_up(self) -> list[Operation]:
        return []

    def run_op(self, i: int, traced: bool, tracer) -> Operation:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks made once after the last operation; returns problems."""
        return []

    def op_ms(self, wall_s: float) -> float:
        """The end-to-end time of one operation, in ms."""
        return wall_s * 1000.0

    def computed_counts(self) -> dict[str, float]:
        return {}


class CliWorkload(Workload):
    """One `occgeom <command>` per operation, each in a fresh interpreter."""

    command = ""
    render: dict = {}

    def _config(self) -> dict:
        return dict(super()._config(), render=self.render)

    def prepare(self) -> None:
        super().prepare()
        self.cfg_path = self.work / "config.json"
        self.cfg_path.write_text(json.dumps(self._config()))
        self.digest = None

    def warm_up(self) -> list[Operation]:
        # compile bytecode and load the libraries once, outside the timed loop
        subprocess.run(
            [sys.executable, "-c", "import occgeom.cli"], env=self.env, check=True,
            timeout=OP_TIMEOUT_S,
        )
        return []

    def run_op(self, i: int, traced: bool, tracer) -> Operation:
        out = self.work / f"op{i}{'t' if traced else 'u'}"
        argv = [self.command, "--config", str(self.cfg_path), "--scene-dir", str(self.scene_dir),
                "--out", str(out)]
        spans = self.work / f"spans{i}.json"
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans), "--", *argv]
        else:
            # what the `occgeom` console script runs
            cmd = [sys.executable, "-c", "import sys; from occgeom.cli import main; sys.exit(main())",
                   *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Operation(time.perf_counter() - start, [f"timed out after {OP_TIMEOUT_S} s"])
        wall = time.perf_counter() - start
        problems = _structured_errors(proc.stderr)
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            problems += self.check_output(out)
            digest = _tree_digest(out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("artifacts differ from the first operation's")
        trace = None
        if traced and spans.exists():
            trace = json.loads(spans.read_text())
            spans.unlink()
        shutil.rmtree(out, ignore_errors=True)
        return Operation(wall, problems, trace)

    def check_output(self, out: Path) -> list[str]:
        raise NotImplementedError

    def computed_counts(self) -> dict[str, float]:
        res = tuple(self.render["resolution"])
        counts = {"renderer.samples": res[0] * res[1] * self.render["S"]}
        for i, cam in enumerate(_latest_cameras(self.bundle)):
            counts[f"renderer.samples_in_grid_frac.cam{i}"] = samples_in_grid_frac(
                self.bundle, cam, res, self.render["t_near"], self.render["t_far"],
                self.render["S"],
            )
        return counts


class SelftrainBoxes(CliWorkload):
    name = "selftrain-boxes"
    command = "selftrain"
    op_metric = ("selftrain_step_ms", "ms", 1.0)
    base_seed = 11
    scene = {"preset": "boxes", "dims": [32, 32, 8], "voxel_size": 0.4,
             "num_cameras": 2, "image_size": [36, 64]}
    render = {"S": 64, "t_near": 1.0, "t_far": 16.0, "resolution": [36, 64]}
    optimize = {"steps": SELFTRAIN_STEPS, "step_size": 100.0, "init": "perturbed_gt",
                "perturbation": 0.1, "lidar_samples": 300}

    def _config(self) -> dict:
        return dict(super()._config(), optimize=self.optimize)

    def check_output(self, out: Path) -> list[str]:
        problems = []
        rep = json.loads((out / "report.json").read_text())
        rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
        if len(rows) != SELFTRAIN_STEPS + 1:
            problems.append(f"trace.csv has {len(rows)} steps, expected {SELFTRAIN_STEPS + 1}")
        loss = rep["final_total"] / rep["initial_total"]
        if not np.isfinite(loss) or not loss < 1.0:
            problems.append(f"loss ratio {loss} is not below 1")
        if rep["initial_depth_err"] is None or rep["final_depth_err"] is None:
            problems.append("depth error undefined (no valid pixels)")
            depth = float("nan")
        else:
            depth = rep["final_depth_err"] / rep["initial_depth_err"]
        self.quality.setdefault("selftrain_loss_ratio", loss)
        self.quality.setdefault("selftrain_depth_err_ratio", depth)
        return problems

    def op_ms(self, wall_s: float) -> float:
        return wall_s * 1000.0 / SELFTRAIN_STEPS


class RenderCorridor(CliWorkload):
    name = "render-corridor"
    command = "render"
    op_metric = ("render_s", "s", 1e-3)
    base_seed = 0
    scene = {"preset": "corridor", "dims": [32, 32, 8], "voxel_size": 0.4,
             "num_cameras": 2, "image_size": [48, 80]}
    render = {"S": 152, "t_near": 1.0, "t_far": 45.0, "resolution": [180, 320]}

    def prepare(self) -> None:
        super().prepare()
        res = tuple(self.render["resolution"])
        # the exact DDA first-hit depth, computed once by the benchmark itself
        self.oracles = [
            synthscene.raymarch_depth_oracle(self.bundle.grid, self.bundle.spec, cam, res)
            for cam in _latest_cameras(self.bundle)
        ]
        self.delta = (self.render["t_far"] - self.render["t_near"]) / self.render["S"]

    def check_output(self, out: Path) -> list[str]:
        errs = []
        for i, oracle in enumerate(self.oracles):
            depth = formats.read_pfm(str(out / f"depth_cam{i}.pfm"))
            valid = formats.read_pgm(str(out / f"valid_cam{i}.pgm")) > 0
            both = valid & oracle.valid
            errs.append(np.abs(depth - oracle.depth)[both])
        errs = np.concatenate(errs)
        problems = []
        # the error is only measured where both are valid, so the valid area
        # is checked too: acceptance 01's floor, and the render must keep
        # (nearly) every pixel the oracle hits
        oracle_px = sum(int(o.valid.sum()) for o in self.oracles)
        if errs.size < MIN_VALID_PX:
            problems.append(f"{errs.size} pixels valid in both render and oracle < {MIN_VALID_PX}")
        if errs.size < MIN_VALID_SHARE * oracle_px:
            problems.append(f"render valid on {errs.size} of the oracle's {oracle_px} pixels"
                            f" < {MIN_VALID_SHARE}")
        if errs.size == 0:
            return problems
        mean, p95 = float(errs.mean()), float(np.percentile(errs, 95))
        if p95 > self.delta:
            problems.append(f"p95 error {p95:.4f} > delta {self.delta:.4f}")
        if mean > self.delta / 2:
            problems.append(f"mean error {mean:.4f} > delta/2 {self.delta / 2:.4f}")
        rep = json.loads((out / "report.json").read_text())
        # PFMs hold float32 depths, so allow their rounding
        if abs(rep["mean_abs_err"] - mean) > 1e-4:
            problems.append(f"report mean_abs_err {rep['mean_abs_err']} != measured {mean}")
        self.quality.setdefault("render_mean_abs_err_m", rep["mean_abs_err"])
        return problems


class OccPipeline(Workload):
    name = "occ-pipeline"
    base_seed = 11
    op_metric = ("pipeline_ms_p50", "ms", 1.0)
    p90_metric = "pipeline_ms_p90"
    scene = {"preset": "boxes", "dims": [32, 32, 8], "voxel_size": 0.4,
             "num_cameras": 6, "image_size": [48, 80]}
    WARM_UP = 2
    checks_on_finish = True

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        self.inputs = pipeline.make_inputs(self.bundle, self.seed)

    def prepare(self) -> None:
        super().prepare()
        self.labels: dict[int, np.ndarray] = {}

    def _op(self, i: int, warm_up: bool = False) -> tuple[float, pipeline.PipelineResult]:
        feats = pipeline.op_features(self.inputs, self.seed, i, warm_up)
        start = time.perf_counter()
        result = pipeline.run_chain(self.inputs, feats)
        return time.perf_counter() - start, result

    def _check(self, result: pipeline.PipelineResult) -> list[str]:
        problems = []
        if not result.finite:
            problems.append("non-finite features or logits")
        shape = self.inputs.half.dims  # fuse_and_compress halves the grid
        if result.labels.shape != shape:
            problems.append(f"label grid {result.labels.shape}, expected {shape}")
        return problems

    def warm_up(self) -> list[Operation]:
        ops = []
        for i in range(self.WARM_UP):
            wall, result = self._op(i, warm_up=True)
            ops.append(Operation(wall, self._check(result)))
        return ops

    def run_op(self, i: int, traced: bool, tracer) -> Operation:
        if traced:
            tracer.op = i
            tracer.install()
        try:
            wall, result = self._op(i)
        finally:
            if traced:
                tracer.uninstall()
                tracer.op = None
        problems = self._check(result)
        if i in self.labels and not np.array_equal(self.labels[i], result.labels):
            problems.append(f"operation {i}: labels differ for identical inputs")
        self.labels.setdefault(i, result.labels)
        self.last = i
        return Operation(wall, problems)

    def finish(self) -> list[str]:
        # identical inputs must give identical labels: repeat the first and
        # the last operation outside the timed loop
        problems = []
        for i in sorted({0, self.last}):
            _, result = self._op(i)
            if not np.array_equal(result.labels, self.labels[i]):
                problems.append(f"operation {i}: labels differ when repeated")
        return problems

    def computed_counts(self) -> dict[str, float]:
        return pipeline.work_counts(self.inputs)


WORKLOADS = {w.name: w for w in (SelftrainBoxes, RenderCorridor, OccPipeline)}
