"""Timing wrappers installed on occgeom's public functions from outside.

A function is wrapped under the name its caller looks it up by: the
renderer calls `trilinear_sample` through its own module globals, so the
attribute `occgeom.renderer.trilinear_sample` is replaced, not the one in
`occgeom.tensor`. Several attributes may report under one layer name (the
cast and view_transform call sites of `bilinear_sample` both report as
`tensor.bilinear_sample`).

Spans (name, start, end, parent, operation id) stay in memory until the
run writes them out. A target that no longer exists is recorded as absent
and skipped, so the trace keeps working after functions are merged or
deleted.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _warp_probe(tracer, args, kwargs, result):
    # warp_image[_with_grad](src_img, target_depth, ctx, k_src, k_tgt) -> (recon, valid, ...)
    ctx = args[2] if len(args) > 2 else kwargs["ctx"]
    valid = result[1]
    n_valid = int(valid.sum())
    tracer.count(f"cast.valid_px.{ctx.kind}", n_valid)
    tracer.count(f"cast.px.{ctx.kind}", valid.size)
    tracer.count("cast.empty_pairs", n_valid == 0)


def _loss_probe(tracer, args, kwargs, result):
    # pretrain_loss[_with_depth_grad](...) -> (total, breakdown, ...)
    tracer.count("cast.loss_evals", 1)
    tracer.count("cast.active_pairs", result[1]["active_pairs"])


def _oracle_probe(tracer, args, kwargs, result):
    # raymarch_depth_oracle(grid, spec, cam, resolution, ...) -> DepthMap
    tracer.count("synthscene.raymarch_depth_oracle.rays", result.depth.size)


def _pfm_probe(tracer, args, kwargs, result):
    # write_pfm(path, data)
    path = args[0] if args else kwargs["path"]
    tracer.count("formats.write_pfm.bytes", os.path.getsize(path))


# (module under occgeom, attribute, layer name, probe)
TARGETS = [
    ("renderer", "render_view", "renderer.render_view", None),
    ("renderer", "sample_density", "renderer.sample_density", None),
    ("renderer", "render_view_grad_sigma", "renderer.render_view_grad_sigma", None),
    ("renderer", "trilinear_sample", "renderer.trilinear_sample", None),
    ("renderer", "write_pfm", "formats.write_pfm", _pfm_probe),
    ("formats", "write_pfm", "formats.write_pfm", _pfm_probe),
    ("cast", "bilinear_sample", "tensor.bilinear_sample", None),
    ("view_transform", "bilinear_sample", "tensor.bilinear_sample", None),
    ("view_transform", "conv3d", "tensor.conv3d", None),
    ("occ_encdec", "conv3d", "tensor.conv3d", None),
    ("view_transform", "softmax", "tensor.softmax", None),
    ("occ_encdec", "softmax", "tensor.softmax", None),
    ("cast", "pretrain_loss_with_depth_grad", "cast.pretrain_loss_with_depth_grad", _loss_probe),
    ("cast", "pretrain_loss", "cast.pretrain_loss", _loss_probe),
    ("cast", "warp_image_with_grad", "cast.warp_image_with_grad", _warp_probe),
    ("cast", "warp_image", "cast.warp_image", _warp_probe),
    ("cast", "photometric_loss", "cast.photometric_loss", None),
    ("cast", "photometric_loss_grad", "cast.photometric_loss_grad", None),
    ("synthscene", "build_scene", "synthscene.build_scene", None),
    ("synthscene", "synthesize_image", "synthscene.synthesize_image", None),
    ("synthscene", "raymarch_depth_oracle", "synthscene.raymarch_depth_oracle", _oracle_probe),
    ("synthscene", "save_scene", "synthscene.save_scene", None),
    ("synthscene", "load_scene", "synthscene.load_scene", None),
    ("camera", "project_points", "camera.project_points", None),
    ("view_transform", "lift", "view_transform.lift", None),
    ("view_transform", "voxel_pool", "view_transform.voxel_pool", None),
    ("view_transform", "idm_sample", "view_transform.idm_sample", None),
    ("view_transform", "upsample_trilinear", "view_transform.upsample_trilinear", None),
    ("view_transform", "fuse_and_compress", "view_transform.fuse_and_compress", None),
    ("occ_encdec", "windowed_attention", "occ_encdec.windowed_attention", None),
    ("occ_encdec", "encode", "occ_encdec.encode", None),
    ("occ_encdec", "masked_decode", "occ_encdec.masked_decode", None),
    ("occ_encdec", "decode", "occ_encdec.decode", None),
    ("occ_encdec", "assemble_semantics", "occ_encdec.assemble_semantics", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("cli", "cmd_selftrain", "cli.cmd_selftrain", None),
    ("cli", "cmd_render", "cli.cmd_render", None),
]


class Tracer:
    """Span recorder; `install` wraps every target, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[tuple, float] = defaultdict(float)  # (op, key) -> value
        self.absent: list[str] = []  # wrap targets that no longer exist
        self.layers: set[str] = set()  # layer names with at least one wrapped target
        self.op = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def count(self, key: str, value) -> None:
        self.counts[(self.op, key)] += float(value)

    def install(self) -> None:
        absent = []
        for module, attr, name, probe in TARGETS:
            try:
                owner = importlib.import_module(f"occgeom.{module}")
            except ImportError:
                absent.append(f"occgeom.{module}.{attr}")
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                absent.append(f"occgeom.{module}.{attr}")
                continue
            setattr(owner, attr, self._wrap(fn, name, probe))
            self._installed.append((owner, attr, fn))
            self.layers.add(name)
        self.absent = absent

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, key, v] for (op, key), v in self.counts.items()],
            "absent": self.absent,
            "layers": sorted(self.layers),
        }


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time covered by its direct children.

    A child span lies inside its parent's interval on the same thread, so
    subtracting child durations leaves the parent's own time.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
