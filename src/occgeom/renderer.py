"""Volume rendering of per-pixel depth from a voxel density field.

A ray with samples t_1 < ... < t_S and densities sigma_i accumulates
    T_i = exp(-sum_{j<i} sigma_j * delta_j)
    w_i = T_i * (1 - exp(-sigma_i * delta_i))
    depth = sum_i w_i * t_i,   opacity = sum_i w_i
where delta_i is the sample spacing. Depth here is Euclidean distance along
the (unit-direction) ray. The closed-form derivative of depth with respect
to each density sample backs the self-training optimization loop and the
finite-difference checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .camera import Camera, pixel_directions
from .formats import write_pfm, write_pgm16, write_pgm8
from .tensor import _trilinear_corners, _trilinear_in_box, as_tensor, trilinear_sample
from .view_transform import VoxelGridSpec

DEFAULT_RESOLUTION = (180, 320)
DEFAULT_T_NEAR = 1.0
DEFAULT_T_FAR = 45.0
DEFAULT_SAMPLES = 152
# ray samples (rays x S) per block. The block's dense [rays x S] render and
# adjoint temporaries stay near 256 KiB, which glibc serves from its heap
# and reuses across blocks; much larger ones are mapped and faulted in
# afresh on every block.
_BLOCK_SAMPLES = 32768


@dataclass(frozen=True)
class DensityField:
    """Nonnegative per-voxel extinction density (1/m) on a grid."""

    sigma: np.ndarray
    spec: VoxelGridSpec

    def __post_init__(self):
        sigma = as_tensor(self.sigma)
        if sigma.shape != self.spec.dims:
            raise ValueError(f"sigma shape {sigma.shape} vs grid dims {self.spec.dims}")
        if not np.all(np.isfinite(sigma)):
            raise ValueError("density must be finite")
        if np.any(sigma < 0):
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class RaySamples:
    """Sample distances, world positions and spacings along one ray."""

    t_values: np.ndarray  # [S], strictly increasing
    positions: np.ndarray  # [S x 3]
    deltas: np.ndarray  # [S], positive

    def __post_init__(self):
        t = as_tensor(self.t_values).reshape(-1)
        pos = as_tensor(self.positions)
        d = as_tensor(self.deltas).reshape(-1)
        if t.size < 2:
            raise ValueError("need at least two samples per ray")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample distances must be strictly increasing")
        if pos.shape != (t.size, 3) or d.shape != t.shape:
            raise ValueError("positions/deltas inconsistent with t_values")
        if np.any(d <= 0):
            raise ValueError("sample spacings must be positive")
        object.__setattr__(self, "t_values", t)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "deltas", d)


@dataclass
class DepthMap:
    """Per-pixel rendered ray distance with validity and opacity.

    depth keeps the raw accumulated value even where opacity is low; valid
    marks pixels whose accumulated opacity exceeds 0.5, and consumers mask
    or zero invalid entries as appropriate.
    """

    depth: np.ndarray  # [H x W]
    valid: np.ndarray  # [H x W] bool
    opacity: np.ndarray  # [H x W] in [0, 1]


def sample_ray(
    ray: tuple[np.ndarray, np.ndarray], t_near: float, t_far: float, count: int
) -> RaySamples:
    """Midpoint-rule samples: t_i = t_near + (i - 0.5) * (t_far - t_near) / S."""
    if not 0 < t_near < t_far:
        raise ValueError(f"need 0 < t_near < t_far, got [{t_near}, {t_far}]")
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    origin, direction = as_tensor(ray[0]).reshape(3), as_tensor(ray[1]).reshape(3)
    step = (t_far - t_near) / count
    t = t_near + (np.arange(count) + 0.5) * step
    positions = origin + t[:, None] * direction
    return RaySamples(t, positions, np.full(count, step))


def sample_density(field: DensityField, positions: np.ndarray) -> np.ndarray:
    """Trilinear density lookup at world positions; zero outside the grid."""
    coords = field.spec.world_to_grid(as_tensor(positions).reshape(-1, 3))
    vals, _ = trilinear_sample(field.sigma, coords)
    return vals


def _render_batch(
    sigma: np.ndarray, t: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transmittance-weighted depth for [R x S] density rows.

    Returns (depth [R], opacity [R], weights [R x S]).
    """
    a = sigma * deltas
    prefix = np.cumsum(a, axis=-1)
    transmittance = np.exp(-(prefix - a))  # T_i excludes the i-th interval
    weights = transmittance * (1.0 - np.exp(-a))
    depth = np.sum(weights * t, axis=-1)
    opacity = np.sum(weights, axis=-1)
    return depth, opacity, weights


def render_depth(
    sigma_at: np.ndarray, samples: RaySamples
) -> tuple[float, float, np.ndarray]:
    """Render one ray. Returns (depth, opacity, weights [S])."""
    sig = as_tensor(sigma_at).reshape(-1)
    if sig.shape != samples.t_values.shape:
        raise ValueError(f"{sig.size} densities for {samples.t_values.size} samples")
    if np.any(sig < 0):
        raise ValueError("density must be nonnegative")
    depth, opacity, weights = _render_batch(
        sig[None, :], samples.t_values[None, :], samples.deltas[None, :]
    )
    return float(depth[0]), float(opacity[0]), weights[0]


def _depth_grad_batch(
    sigma: np.ndarray, t: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """d(depth)/d(sigma_k) for [R x S] density rows.

    From the chain rule through the weights:
        d depth / d sigma_k = delta_k * (T_k e^{-sigma_k delta_k} t_k
                                         - sum_{i>k} w_i t_i).
    """
    a = sigma * deltas
    prefix = np.cumsum(a, axis=-1)
    transmittance = np.exp(-(prefix - a))
    weights = transmittance * (1.0 - np.exp(-a))
    wt = weights * t
    tail = np.cumsum(wt[..., ::-1], axis=-1)[..., ::-1] - wt  # sum over i > k
    return deltas * (transmittance * np.exp(-a) * t - tail)


def depth_grad_sigma(sigma_at: np.ndarray, samples: RaySamples) -> np.ndarray:
    """Analytic gradient of render_depth's depth w.r.t. each density sample."""
    sig = as_tensor(sigma_at).reshape(-1)
    if sig.shape != samples.t_values.shape:
        raise ValueError(f"{sig.size} densities for {samples.t_values.size} samples")
    if np.any(sig < 0):
        raise ValueError("density must be nonnegative")
    return _depth_grad_batch(
        sig[None, :], samples.t_values[None, :], samples.deltas[None, :]
    )[0]


def _pixel_grid(resolution: tuple[int, int]) -> np.ndarray:
    h, w = resolution
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    return np.stack([us.ravel(), vs.ravel()], axis=1)


def _view_rays(cam: Camera, resolution: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Unit world directions for every pixel of a view, plus the origin."""
    intr, pose = cam
    h, w = resolution
    if (intr.height, intr.width) != (h, w):
        intr = intr.scaled(w, h)
    dirs, _ = pixel_directions(intr, pose, _pixel_grid(resolution))
    return pose.translation.copy(), dirs


def _midpoint_samples(
    t_near: float, t_far: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shared sample distances [S] and spacings [S] of every ray in a view."""
    if not 0 < t_near < t_far:
        raise ValueError(f"need 0 < t_near < t_far, got [{t_near}, {t_far}]")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    step = (t_far - t_near) / samples
    t = t_near + (np.arange(samples) + 0.5) * step
    return t, np.full(samples, step)


@dataclass(frozen=True)
class PlanChunk:
    """The in-grid ray samples of one block of consecutive pixels.

    Samples sit in the block's dense [R x S] row order; only those inside
    the trilinear sampling box are kept, since every other sample reads
    exactly zero density.
    """

    start: int  # first pixel of the block (row-major)
    stop: int
    samples: int  # S, samples per ray
    cols: np.ndarray  # [M] flat positions of the kept samples in [R x S]
    idx: np.ndarray  # [M x 8] flat corner indices into the density grid
    wgt: np.ndarray  # [M x 8] trilinear weights

    def gather(self, sigma_flat: np.ndarray) -> np.ndarray:
        """Density rows [R x S] of the block; zero outside the grid."""
        rows = np.zeros((self.stop - self.start) * self.samples)
        rows[self.cols] = np.sum(sigma_flat[self.idx] * self.wgt, axis=1)
        return rows.reshape(self.stop - self.start, self.samples)

    def scatter(self, out: np.ndarray, per_sample: np.ndarray) -> None:
        """Adjoint of gather: add per-sample values [R x S] into the flat
        grid `out`, corner by corner in sample order."""
        y = per_sample.reshape(-1)[self.cols]
        np.add.at(out, self.idx.ravel(), (y[:, None] * self.wgt).ravel())


def _box_sample_ranges(
    spec: VoxelGridSpec, origin: np.ndarray, dirs: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the range [first, stop) of sample indices that can fall
    inside the trilinear sampling box, world [origin, origin + dims *
    voxel_size] or grid [-0.5, dim - 0.5]; no other sample can read a
    nonzero density.

    A slab test gives each ray's entry and exit distance. The box is
    widened by a slack far above rounding error and the range by one
    sample on each side, so rounding can add candidates but never drop a
    sample that the exact in-box test would keep. An axis along which the
    ray does not move contributes no bound when the origin lies within that
    slab, and empties the range when it does not.
    """
    extent = np.asarray(spec.dims) * spec.voxel_size
    slack = 1e-9 * (np.abs(spec.origin).max() + extent.max() + np.abs(origin).max() + t[-1])
    lo = spec.origin - slack
    hi = spec.origin + extent + slack
    still = dirs == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - origin) / dirs
        t_hi = (hi - origin) / dirs
    enter = np.where(still, -np.inf, np.minimum(t_lo, t_hi)).max(axis=1)
    exit_ = np.where(still, np.inf, np.maximum(t_lo, t_hi)).min(axis=1)
    exit_[np.any(still & ((origin < lo) | (origin > hi)), axis=1)] = -np.inf
    first = np.maximum(np.searchsorted(t, enter, side="left") - 1, 0)
    stop = np.minimum(np.searchsorted(t, exit_, side="right") + 1, t.size)
    return first, np.maximum(stop, first)


def _plan_chunks(
    spec: VoxelGridSpec, cam: Camera, resolution: tuple[int, int], t: np.ndarray
) -> Iterator[PlanChunk]:
    """Build a view's sampling plan block by block, in pixel order.

    Positions are made only for the samples in each ray's box range, with
    the same arithmetic as for all samples, and the exact in-box test then
    picks the kept ones; the plan equals one built from every sample.
    """
    origin, dirs = _view_rays(cam, resolution)
    first, stop = _box_sample_ranges(spec, origin, dirs, t)
    n, s = dirs.shape[0], t.size
    block = max(1, _BLOCK_SAMPLES // s)
    for start in range(0, n, block):
        end = min(start + block, n)
        count = stop[start:end] - first[start:end]
        ray = np.repeat(np.arange(end - start), count)
        # sample index: position within the ray's run plus the run's start
        k = np.arange(ray.size) - np.repeat(np.cumsum(count) - count - first[start:end], count)
        pos = origin + t[k][:, None] * dirs[start + ray]
        coords = spec.world_to_grid(pos)
        keep = _trilinear_in_box(spec.dims, coords)
        idx, wgt = _trilinear_corners(spec.dims, coords[keep])
        yield PlanChunk(start, end, s, (ray * s + k)[keep], idx, wgt)


def _render_chunks(
    field: DensityField,
    chunks: Iterable[PlanChunk],
    resolution: tuple[int, int],
    t: np.ndarray,
    deltas: np.ndarray,
    rows_out: list | None = None,
) -> DepthMap:
    """Forward render over plan chunks; appends each block's density rows
    to `rows_out` when given."""
    h, w = resolution
    depth = np.empty(h * w)
    opacity = np.empty(h * w)
    sigma_flat = field.sigma.ravel()
    for chunk in chunks:
        rows = chunk.gather(sigma_flat)
        d, o, _ = _render_batch(rows, t[None, :], deltas[None, :])
        depth[chunk.start : chunk.stop] = d
        opacity[chunk.start : chunk.stop] = o
        if rows_out is not None:
            rows_out.append(rows)
    depth = depth.reshape(h, w)
    opacity = opacity.reshape(h, w)
    return DepthMap(depth=depth, valid=opacity > 0.5, opacity=opacity)


def _grad_chunks(
    chunk_rows: Iterable[tuple[PlanChunk, np.ndarray]],
    grad_depth: np.ndarray,
    spec: VoxelGridSpec,
    resolution: tuple[int, int],
    t: np.ndarray,
    deltas: np.ndarray,
) -> np.ndarray:
    """Adjoint over (plan chunk, forward density rows) pairs."""
    grad_depth = as_tensor(grad_depth)
    if grad_depth.shape != tuple(resolution):
        raise ValueError(f"grad_depth {grad_depth.shape} vs resolution {tuple(resolution)}")
    gflat = grad_depth.ravel()
    out = np.zeros(int(np.prod(spec.dims)))
    for chunk, rows in chunk_rows:
        dsig = _depth_grad_batch(rows, t[None, :], deltas[None, :])
        chunk.scatter(out, dsig * gflat[chunk.start : chunk.stop, None])
    return out.reshape(spec.dims)


class RayPlan:
    """Sparse sampling operator of one view, reusable across density fields.

    Sample positions depend on the grid spec, camera, resolution, range and
    sample count, never on sigma, so a plan built once serves every forward
    render and adjoint of that view. It holds the corners and weights of
    every in-grid sample of the view; `render_view` streams the same plan
    block by block instead, to bound memory on one-shot renders.
    """

    def __init__(
        self,
        spec: VoxelGridSpec,
        cam: Camera,
        resolution: tuple[int, int] = DEFAULT_RESOLUTION,
        t_near: float = DEFAULT_T_NEAR,
        t_far: float = DEFAULT_T_FAR,
        samples: int = DEFAULT_SAMPLES,
    ):
        self.spec = spec
        self.resolution = tuple(resolution)
        self.t, self.deltas = _midpoint_samples(t_near, t_far, samples)
        self.chunks = tuple(_plan_chunks(spec, cam, self.resolution, self.t))

    def render(self, field: DensityField) -> tuple[DepthMap, list[np.ndarray]]:
        """render_view through the plan, plus the per-block density rows
        that `grad_sigma` needs."""
        grids = [(s.dims, s.voxel_size, tuple(s.origin)) for s in (field.spec, self.spec)]
        if grids[0] != grids[1]:
            raise ValueError(f"density field grid {grids[0]} differs from the plan's {grids[1]}")
        rows: list[np.ndarray] = []
        dm = _render_chunks(field, self.chunks, self.resolution, self.t, self.deltas, rows)
        return dm, rows

    def grad_sigma(self, rows: list[np.ndarray], grad_depth: np.ndarray) -> np.ndarray:
        """render_view_grad_sigma from the rows of this plan's forward render."""
        if len(rows) != len(self.chunks):
            raise ValueError(f"{len(rows)} density row blocks for {len(self.chunks)} chunks")
        return _grad_chunks(
            zip(self.chunks, rows), grad_depth, self.spec, self.resolution, self.t, self.deltas
        )


def render_view(
    field: DensityField,
    cam: Camera,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    t_near: float = DEFAULT_T_NEAR,
    t_far: float = DEFAULT_T_FAR,
    samples: int = DEFAULT_SAMPLES,
) -> DepthMap:
    """Render a full depth map: one midpoint-sampled ray per pixel.

    Intrinsics are rescaled when `resolution` differs from their native
    size. Pixels are processed in fixed-order chunks, so the result is
    deterministic and identical to per-ray rendering. The sampling plan is
    built and used one chunk at a time and never held whole.
    """
    t, deltas = _midpoint_samples(t_near, t_far, samples)
    chunks = _plan_chunks(field.spec, cam, resolution, t)
    return _render_chunks(field, chunks, resolution, t, deltas)


def render_view_grad_sigma(
    field: DensityField,
    cam: Camera,
    grad_depth: np.ndarray,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    t_near: float = DEFAULT_T_NEAR,
    t_far: float = DEFAULT_T_FAR,
    samples: int = DEFAULT_SAMPLES,
) -> np.ndarray:
    """Adjoint of render_view's depth output.

    Given dL/d(depth) per pixel, accumulates dL/d(sigma) on the density
    grid by chaining the per-sample depth gradient through the trilinear
    interpolation weights. Must be called with the same view parameters as
    the forward render.
    """
    t, deltas = _midpoint_samples(t_near, t_far, samples)
    sigma_flat = field.sigma.ravel()
    chunk_rows = (
        (chunk, chunk.gather(sigma_flat))
        for chunk in _plan_chunks(field.spec, cam, resolution, t)
    )
    return _grad_chunks(chunk_rows, grad_depth, field.spec, resolution, t, deltas)


def save_depth_pfm(dm: DepthMap, path) -> None:
    """Export rendered depth as a PFM; invalid pixels are written as zero."""
    write_pfm(path, np.where(dm.valid, dm.depth, 0.0))


def save_depth_pgm(dm: DepthMap, path) -> None:
    """Export depth as 16-bit PGM in millimeters (invalid pixels zero)."""
    mm = np.where(dm.valid, dm.depth, 0.0) * 1000.0
    write_pgm16(path, np.clip(np.floor(mm + 0.5), 0, 65535).astype(np.uint16))


def save_valid_pgm(dm: DepthMap, path) -> None:
    """Export the validity mask as an 8-bit PGM (255 = valid)."""
    write_pgm8(path, np.where(dm.valid, 255, 0).astype(np.uint8))
