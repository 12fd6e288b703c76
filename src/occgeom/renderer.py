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

from .camera import Camera, _box_span, view_rays
from .formats import write_pfm, write_pgm8
from .tensor import (
    _corner_offsets,
    _corner_sum,
    _padded_cells,
    _trilinear_corners,
    as_tensor,
)
from .view_transform import VoxelGridSpec

DEFAULT_RESOLUTION = (180, 320)
DEFAULT_T_NEAR = 1.0
DEFAULT_T_FAR = 45.0
DEFAULT_SAMPLES = 152
# ray samples (rays x S) per block. The block's dense [rays x S] render
# temporaries stay near 256 KiB, which glibc serves from its heap and reuses
# across blocks; much larger ones are mapped and faulted in afresh on every
# block. The adjoint forms no [rays x S] array: it scales the [rays x width]
# Jacobian rows the forward render returned and scatters them.
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


def _render_batch(
    sigma: np.ndarray, t: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transmittance-weighted depth for [R x W] density rows: the first W of
    the S samples in t and deltas, every later sample of zero density.

    Returns (depth [R], opacity [R], weights [R x S], jac [R x W]), where
    jac is d(depth)/d(sigma_k) from the chain rule through the weights:
        d depth / d sigma_k = delta_k * (T_k e^{-sigma_k delta_k} t_k
                                         - sum_{i>k} w_i t_i).
    Samples past W have zero weight, so the tail sum over the first W
    samples is exact.
    """
    w = sigma.shape[-1]
    # jac outlives the call: a plan's render keeps it for the adjoint.
    # Allocated before the temporaries below, it takes heap space freed by
    # an earlier block rather than pinning the heap top above this block's
    # temporaries, which keeps selftrain's peak RSS lower.
    jac = np.empty(sigma.shape)
    t_w, deltas_w = t[..., :w], deltas[..., :w]
    a = sigma * deltas_w
    prefix = np.cumsum(a, axis=-1)
    transmittance = np.exp(-(prefix - a))  # T_i excludes the i-th interval
    decay = np.exp(-a)
    weights = np.zeros(sigma.shape[:-1] + t.shape[-1:])
    np.multiply(transmittance, 1.0 - decay, out=weights[..., :w])
    # sum whole rows: numpy's pairwise summation groups a row cut to the
    # first W columns differently, and the depth would change in its last bits
    wt = weights * t
    depth = np.sum(wt, axis=-1)
    opacity = np.sum(weights, axis=-1)
    wt = wt[..., :w]
    tail = np.cumsum(wt[..., ::-1], axis=-1)[..., ::-1] - wt  # sum over i > k
    np.multiply(transmittance, decay, out=jac)
    jac *= t_w
    jac -= tail
    jac *= deltas_w
    return depth, opacity, weights, jac


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
    """The live ray samples of one block of consecutive pixels.

    Only samples inside the trilinear sampling box whose low cell is live
    are kept (see _plan_chunks); every other sample reads a zero density.
    The block's live window is its first `width` samples per ray, 1 + the
    largest kept sample index (0 when none is kept); kept samples sit in
    the dense [R x width] row order. Densities are read from, and adjoints
    added into, the flat zero-padded grid of tensor._trilinear_corners:
    sigma inside a zero shell one cell thick.
    """

    start: int  # first pixel of the block (row-major)
    stop: int
    width: int  # live samples per ray
    cols: np.ndarray  # [M] flat positions of the kept samples in [R x width]
    base: np.ndarray  # [M] flat low-corner cells in the padded grid
    wgt: np.ndarray  # [8 x M] trilinear weights
    offsets: np.ndarray  # [8] flat corner offsets from a cell

    def gather(self, sigma_pad: np.ndarray) -> np.ndarray:
        """Density rows [R x width] of the block from the flat padded grid;
        zero outside the grid."""
        rows = np.zeros((self.stop - self.start) * self.width)
        rows[self.cols] = _corner_sum(sigma_pad, self.base, self.offsets, self.wgt)
        return rows.reshape(self.stop - self.start, self.width)

    def scatter(self, out: np.ndarray, per_sample: np.ndarray) -> None:
        """Adjoint of gather: add per-sample values [R x width] into the flat
        padded grid `out`, corner by corner in sample order."""
        y = per_sample.reshape(-1)[self.cols]
        idx = self.base[:, None] + self.offsets
        np.add.at(out, idx.ravel(), (y[:, None] * self.wgt.T).ravel())


def _box_sample_ranges(
    spec: VoxelGridSpec, origin: np.ndarray, dirs: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the range [first, stop) of sample indices that can fall
    inside the trilinear sampling box, world [origin, origin + dims *
    voxel_size] or grid [-0.5, dim - 0.5]; no other sample can read a
    nonzero density.

    The slab test (camera._box_span) gives each ray's entry and exit
    distance. The box is widened by a slack far above rounding error and
    the range by one sample on each side, so rounding can add candidates
    but never drop a sample that the exact in-box test would keep. An axis
    along which the ray does not move bounds nothing when the origin lies
    within that slab, and pushes the entry to +inf (or the exit to -inf)
    when it does not.
    """
    extent = np.asarray(spec.dims) * spec.voxel_size
    slack = 1e-9 * (np.abs(spec.origin).max() + extent.max() + np.abs(origin).max() + t[-1])
    enter, exit_ = _box_span(spec.origin - slack, spec.origin + extent + slack, origin, dirs)
    first = np.maximum(np.searchsorted(t, enter, side="left") - 1, 0)
    stop = np.minimum(np.searchsorted(t, exit_, side="right") + 1, t.size)
    return first, np.maximum(stop, first)


def _plan_chunks(
    spec: VoxelGridSpec,
    cam: Camera,
    resolution: tuple[int, int],
    t: np.ndarray,
    live: np.ndarray,
) -> Iterator[PlanChunk]:
    """A view's sampling plan, block by block in pixel order: the ray
    samples inside the trilinear sampling box whose low cell is marked in
    `live`, a flat bool mask over the padded grid.

    Per block of consecutive pixels, the dense candidate window is samples
    [k0, k1) of every ray, the union of their box ranges
    (_box_sample_ranges); its grid coordinates are made with the same
    arithmetic as spec.world_to_grid(origin + t * dir). A sample outside
    its ray's box range never passes the exact in-box test, so the kept
    set is the one every sample would give. A sample whose low cell is not
    live has eight zero corners and reads +0.0 through any plan (densities
    are >= 0, -0.0 included, and weights >= 0 and finite), and a zero
    density of either sign gets render weight +0.0; so with `live` from
    _live_cells of a field the chunks render that field as a plan of every
    in-box sample does.
    """
    origin, dirs = view_rays(cam, resolution)
    first, stop = _box_sample_ranges(spec, origin, dirs, t)
    n, s = dirs.shape[0], t.size
    block = max(1, _BLOCK_SAMPLES // s)
    hi = np.asarray(spec.dims) - 0.5
    offsets = _corner_offsets(spec.dims)
    for start in range(0, n, block):
        end = min(start + block, n)
        lo, up = first[start:end], stop[start:end]
        some = up > lo
        k0, k1 = (int(lo[some].min()), int(up[some].max())) if some.any() else (0, 0)
        tw = t[None, k0:k1]
        x, y, z = (
            ((origin[a] + tw * dirs[start:end, a, None]) - spec.origin[a]) / spec.voxel_size - 0.5
            for a in range(3)
        )
        keep = (x >= -0.5) & (x <= hi[0])
        keep &= y >= -0.5
        keep &= y <= hi[1]
        keep &= z >= -0.5
        keep &= z <= hi[2]
        sel = np.flatnonzero(keep)
        xyz = [c.ravel()[sel] for c in (x, y, z)]
        on = live[_padded_cells(spec.dims, *(np.floor(v) for v in xyz))]
        sel = sel[on]
        if not sel.size:
            yield PlanChunk(start, end, 0, sel, sel, np.empty((8, 0)), offsets)
            continue
        base, wgt = _trilinear_corners(spec.dims, [v[on] for v in xyz])
        ray, k = np.divmod(sel, keep.shape[1])
        k += k0
        width = int(k.max()) + 1
        yield PlanChunk(start, end, width, ray * width + k, base, wgt, offsets)


def _live_cells(sigma_pad: np.ndarray) -> np.ndarray:
    """Flat bool mask over the padded grid: the cells whose eight corners,
    the cell and its +x/+y/+z neighbours, include a nonzero density."""
    nz = sigma_pad != 0
    live = np.zeros_like(nz)
    inner = live[:-1, :-1, :-1]
    x, y, z = inner.shape
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                inner |= nz[dx : dx + x, dy : dy + y, dz : dz + z]
    return live.ravel()


def _render_rows(
    chunks: Iterable[PlanChunk],
    sigma_pad: np.ndarray,
    resolution: tuple[int, int],
    t: np.ndarray,
    deltas: np.ndarray,
    jac_out: list | None = None,
) -> DepthMap:
    """Forward render of the chunks' density rows, gathered from the flat
    padded grid `sigma_pad`; appends each block's depth Jacobian rows to
    `jac_out` when given."""
    h, w = resolution
    depth = np.empty(h * w)
    opacity = np.empty(h * w)
    for chunk in chunks:
        start, stop = chunk.start, chunk.stop
        if chunk.width:
            d, o, _, jac = _render_batch(chunk.gather(sigma_pad), t[None, :], deltas[None, :])
        else:  # every weight, and so each sum, is +0.0
            d = o = 0.0
            jac = np.empty((stop - start, 0))  # the empty Jacobian
        depth[start:stop] = d
        opacity[start:stop] = o
        if jac_out is not None:
            jac_out.append(jac)
    depth = depth.reshape(h, w)
    opacity = opacity.reshape(h, w)
    return DepthMap(depth=depth, valid=opacity > 0.5, opacity=opacity)


class RayPlan:
    """Sparse sampling operator of one view, reusable across density fields.

    Sample positions depend on the grid spec, camera, resolution, range and
    sample count, never on sigma, so a plan built once serves every forward
    render and adjoint of that view. It holds the corners and weights of
    every in-grid sample of the view; the one-shot `render_view` streams
    the same builder's chunks of its field's live samples only. `render`
    returns, per block, the depth Jacobian over the block's live window,
    and `grad_sigma` scatters it weighted by the depth cotangent: the
    rendering equations are evaluated once per render. Each render copies
    sigma into one padded grid the plan keeps, so one plan must not render
    two fields at the same time.
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
        self._sigma_pad = np.zeros(tuple(d + 2 for d in spec.dims))  # sigma in a zero shell
        every = np.ones(self._sigma_pad.size, dtype=bool)
        self.chunks = tuple(_plan_chunks(spec, cam, self.resolution, self.t, every))

    def render(self, field: DensityField) -> tuple[DepthMap, list[np.ndarray]]:
        """render_view through the plan, plus per block the d(depth)/d(sigma)
        rows [rays x width] that `grad_sigma` needs."""
        grids = [(s.dims, s.voxel_size, tuple(s.origin)) for s in (field.spec, self.spec)]
        if grids[0] != grids[1]:
            raise ValueError(f"density field grid {grids[0]} differs from the plan's {grids[1]}")
        jac: list[np.ndarray] = []
        self._sigma_pad[1:-1, 1:-1, 1:-1] = field.sigma
        sigma_pad = self._sigma_pad.ravel()
        return _render_rows(self.chunks, sigma_pad, self.resolution, self.t, self.deltas, jac), jac

    def grad_sigma(self, jac: list[np.ndarray], grad_depth: np.ndarray) -> np.ndarray:
        """Adjoint of render's depth output: given dL/d(depth) per pixel and
        the Jacobian rows of this plan's forward render, accumulates
        dL/d(sigma) on the density grid through the trilinear weights."""
        if len(jac) != len(self.chunks):
            raise ValueError(f"{len(jac)} Jacobian row blocks for {len(self.chunks)} chunks")
        grad_depth = as_tensor(grad_depth)
        if grad_depth.shape != self.resolution:
            raise ValueError(f"grad_depth {grad_depth.shape} vs resolution {self.resolution}")
        gflat = grad_depth.ravel()
        out = np.zeros_like(self._sigma_pad)
        flat = out.ravel()
        for i, (chunk, rows) in enumerate(zip(self.chunks, jac)):
            shape = (chunk.stop - chunk.start, chunk.width)
            if rows.shape != shape:
                raise ValueError(f"Jacobian row block {i} is {rows.shape}, the plan's {shape}")
            chunk.scatter(flat, rows * gflat[chunk.start : chunk.stop, None])
        return out[1:-1, 1:-1, 1:-1].copy()


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
    size. Pixels are processed in fixed-order blocks, so the result is
    deterministic and identical to per-ray rendering. No plan is stored:
    each block's chunk keeps only the samples whose low cell is live in
    this field, is gathered and dropped, and the result equals
    RayPlan.render's bit for bit.
    """
    t, deltas = _midpoint_samples(t_near, t_far, samples)
    sigma_pad = np.pad(field.sigma, 1)
    chunks = _plan_chunks(field.spec, cam, resolution, t, _live_cells(sigma_pad))
    return _render_rows(chunks, sigma_pad.ravel(), resolution, t, deltas)


def save_depth_pfm(dm: DepthMap, path) -> None:
    """Export rendered depth as a PFM; invalid pixels are written as zero."""
    write_pfm(path, np.where(dm.valid, dm.depth, 0.0))


def save_valid_pgm(dm: DepthMap, path) -> None:
    """Export the validity mask as an 8-bit PGM (255 = valid)."""
    write_pgm8(path, np.where(dm.valid, 255, 0).astype(np.uint8))
