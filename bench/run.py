"""occgeom benchmark: one workload, one run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.
Workloads: selftrain-boxes, render-corridor, occ-pipeline (see README.md).

The run sets up its scene several times (timed, the median is `setup_s`),
then runs operations in a closed loop for about `--seconds` seconds,
checking every operation's output. With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
runs of the same operations and reports per-layer self times, work counts
and the tracing overhead. A human-readable report comes first; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything runs single-threaded: BLAS pools are pinned to one thread and
OCCGEOM_THREADS is removed from the environment. Working files go to
`.bench_work/` in the checkout; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracer import self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up is timed again between operations until it has taken this share
# of the run, and at least SETUP_MIN times in all
SETUP_SHARE = 0.05
SETUP_MIN = 5
WORKLOAD_NAMES = ("selftrain-boxes", "render-corridor", "occ-pipeline")

# labels of the work counts the benchmark computes from its own inputs
COMPUTED = {
    "renderer.samples", "renderer.samples_in_grid_frac.cam0",
    "renderer.samples_in_grid_frac.cam1", "tensor.conv3d.macs", "view_transform.lift.points",
    "view_transform.voxel_pool.points", "view_transform.voxel_pool.kept_frac",
    "view_transform.idm_sample.visible_frac", "occ_encdec.windowed_attention.windows",
}


def bench_spec() -> dict:
    """BENCHMARK.json: the run length and the per-layer metric names."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="occgeom benchmark (one workload, one run)")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 gives the acceptance configs")
    p.add_argument("--seconds", type=float, default=float(bench_spec()["run_seconds"]),
                   help="measuring time of the run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine_block() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {**THREAD_ENV, "OCCGEOM_THREADS": "unset"},
    }


def span_layer(metric: str) -> str | None:
    """The traced layer a metric is measured on, or None for counts the
    benchmark computes and for whole-operation figures."""
    name = metric.removeprefix("setup.")
    layer, _, suffix = name.rpartition(".")
    if suffix in ("ms", "self_ms", "calls", "rays", "bytes") and layer != "outside_layers":
        return layer
    return None


def layer_metrics(spans: list[list], n_ops: int, traced_walls: list[float], counts) -> dict:
    """Per-layer self time per operation (set-up spans per set-up) plus the
    counts the wrappers recorded."""
    out: dict[str, float] = defaultdict(float)
    top_level = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, op = span
        if op == "setup":
            out[f"setup.{name}.ms"] += own * 1000.0
            continue
        out[f"{name}.ms"] += own * 1000.0 / n_ops
        out[f"{name}.calls"] += 1.0 / n_ops
        if parent is None:
            top_level += end - start
    for cli_cmd in ("cli.cmd_selftrain", "cli.cmd_render"):
        out[f"{cli_cmd}.self_ms"] = out.pop(f"{cli_cmd}.ms", 0.0)
    out["outside_layers.ms"] = (sum(traced_walls) - top_level) * 1000.0 / n_ops
    total = defaultdict(float)
    for (op, key), value in counts.items():
        if op != "setup":
            total[key] += value
    for key in ("synthscene.raymarch_depth_oracle.rays", "formats.write_pfm.bytes"):
        out[key] = total[key] / n_ops
    evals = total["cast.loss_evals"]
    out["cast.active_pairs"] = total["cast.active_pairs"] / evals if evals else 0.0
    out["cast.empty_pairs"] = total["cast.empty_pairs"] / evals if evals else 0.0
    for kind in ("temporal", "spatial", "spatial_temporal"):
        px = total[f"cast.px.{kind}"]
        out[f"cast.valid_px_frac.{kind}"] = total[f"cast.valid_px.{kind}"] / px if px else 0.0
    return out


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, workload_cls, env: dict, machine: dict):
        self.args = args
        self.machine = machine
        self.work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.workload_cls = workload_cls
        self.env = env
        self.wl = workload_cls(args.seed, self.work, env)
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def set_up(self, tracer=None) -> None:
        """The workload's set-up (the first set-up sample), then its untimed
        preparation and warm-up."""
        if tracer is not None:
            tracer.op = "setup"
            tracer.install()
        start = time.perf_counter()
        try:
            self.wl.setup(self.work / "scene")
        finally:
            self.setup_times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
                tracer.op = None
        self.wl.prepare()
        for op in self.wl.warm_up():
            self.record("warm-up", op.problems)

    def extra_set_up(self) -> None:
        """One more timed set-up, on a throwaway workload object. The
        machine's speed drifts over seconds, so set-up samples are spread
        over the whole run rather than taken in one window."""
        directory = self.work / "scene-extra"
        wl = self.workload_cls(self.args.seed, self.work, self.env)
        start = time.perf_counter()
        wl.setup(directory)
        self.setup_times.append(time.perf_counter() - start)
        shutil.rmtree(directory)

    def run_op(self, i: int, traced: bool, tracer=None):
        from workloads import Operation

        label = f"operation {i}" + (" (traced)" if traced else "")
        start = time.perf_counter()
        try:
            op = self.wl.run_op(i, traced, tracer)
        except Exception as exc:  # a crash is a failed operation; keep measuring
            op = Operation(time.perf_counter() - start,
                           ["".join(traceback.format_exception_only(exc)).strip()])
        self.record(label, op.problems)
        return op

    def loop(self, body, set_ups: bool = False) -> int:
        """Call body(i) while the next call is expected to end within
        --seconds, and at least once; returns the number of calls. With
        `set_ups`, time extra set-ups between calls."""
        start = time.perf_counter()
        i = 0
        while True:
            body(i)
            i += 1
            elapsed = time.perf_counter() - start
            while set_ups and sum(self.setup_times) < SETUP_SHARE * elapsed:
                self.extra_set_up()
                elapsed = time.perf_counter() - start
            if elapsed + elapsed / i > self.args.seconds:
                return i

    def finish(self) -> None:
        try:
            problems = self.wl.finish()
        except Exception as exc:
            problems = ["".join(traceback.format_exception_only(exc)).strip()]
        if problems or self.wl.checks_on_finish:
            self.record("repeat check", problems)

    def end_to_end(self) -> tuple[dict, list]:
        self.set_up()
        walls: list[float] = []
        n = self.loop(lambda i: walls.append(self.run_op(i, traced=False).wall), set_ups=True)
        self.finish()
        while len(self.setup_times) < SETUP_MIN:
            self.extra_set_up()
        setup_times = self.setup_times
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        per_op = sorted(self.wl.op_ms(w) for w in walls)
        metrics = {
            "op_ms": (statistics.median(per_op), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        rows = [("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup_times)} set-ups")]
        name, unit, scale = self.wl.op_metric
        rows.append((name, metrics["op_ms"][0] * scale, unit, f"median of {n} operations"))
        if self.wl.p90_metric:
            if n >= 100:  # at least ten samples beyond p90
                p90 = statistics.quantiles(per_op, n=10)[-1]
                rows.append((self.wl.p90_metric, p90 * scale, unit, f"{n} operations"))
            else:
                rows.append((self.wl.p90_metric, None, unit, f"not reported: {n} < 100 operations"))
        for key, value in self.wl.quality.items():
            rows.append((key, value, "m" if key.endswith("_m") else "ratio", "deterministic"))
        rows.append(("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "process and children"))
        rows.append(("failed_frac", self.failed / self.attempted, "ratio",
                      f"{self.failed} of {self.attempted} operations"))
        return metrics, rows

    def traced(self) -> tuple[dict, list]:
        from tracer import Tracer

        tracer = Tracer()
        self.set_up(tracer)
        pairs: list[tuple[float, float]] = []
        children: list[tuple[int, dict]] = []

        def body(i):
            walls = {}
            # alternate which run goes first, so drift does not bias the ratio
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                op = self.run_op(i, traced, tracer)
                walls[traced] = op.wall
                if op.trace is not None:
                    children.append((i, op.trace))
            pairs.append((walls[False], walls[True]))

        n = self.loop(body)
        self.finish()
        spans = list(tracer.spans)
        counts = defaultdict(float, tracer.counts)
        layers = set(tracer.layers)
        absent = set(tracer.absent)
        for i, child in children:
            offset = len(spans)
            for name, start, end, parent, _ in child["spans"]:
                spans.append([name, start, end, None if parent is None else parent + offset, i])
            for _, key, value in child["counts"]:
                counts[(i, key)] += value
            layers.update(child["layers"])
            absent.update(child["absent"])
        values = layer_metrics(spans, n, [t for _, t in pairs], counts)
        values.update(self.wl.computed_counts())
        values["trace_overhead"] = sum(t for _, t in pairs) / sum(u for u, _ in pairs)
        metrics, rows = {}, []
        for m in bench_spec()["per_layer"]:
            name, unit = m["name"], m["unit"]
            layer = span_layer(name)
            missing = layer is not None and layer not in layers
            value = 0.0 if missing else float(values.get(name, 0.0))
            metrics[name] = (value, unit)
            rows.append((name, value, unit, "absent" if missing else self.note(name, n)))
        trace_path = WORK_ROOT / f"trace-{self.args.workload}-s{self.args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": self.args.workload,
            "seed": self.args.seed,
            "machine": self.machine,
            "operations": n,
            "pairs_untraced_traced_s": pairs,
            "absent_targets": sorted(absent),
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": spans,
        }))
        rows.append(("spans", None, "", f"{len(spans)} written to {trace_path.relative_to(ROOT)}"))
        return metrics, rows

    @staticmethod
    def note(name: str, n: int) -> str:
        if name in COMPUTED:
            return "computed"
        if name.startswith("setup."):
            return "per set-up"
        if name in ("cast.active_pairs", "cast.empty_pairs"):
            return "per loss evaluation"
        if name.startswith("cast.valid_px_frac."):
            return "over all warps"
        if name == "trace_overhead":
            return f"traced / untraced wall, {n} operation pairs"
        return f"per operation, {n} traced"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:.0f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "occgeom" / "__init__.py").is_file():
        print(f"bench: no occgeom sources at {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    # pin every thread pool before numpy loads; children inherit this
    os.environ.update(THREAD_ENV)
    os.environ.pop("OCCGEOM_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import occgeom

    if Path(occgeom.__file__).resolve().parent != (SRC / "occgeom").resolve():
        print(f"bench: imported occgeom from {occgeom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    machine = machine_block()
    run = Run(args, WORKLOADS[args.workload], dict(os.environ), machine)
    try:
        metrics, rows = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"occgeom benchmark: workload={args.workload} seed={args.seed} "
          f"scene_seed={run.wl.scene_seed} trace={args.trace} seconds={args.seconds:g}")
    print("machine: " + json.dumps(machine))
    for name, value, unit, note in rows:
        print(f"  {name:44s} {_fmt(value):>14s} {unit:6s} {note}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
