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

from .camera import _RAY_BLOCK, Camera, _box_span, view_rays
from .formats import write_pfm, write_pgm8
from .tensor import (
    _corner_offsets,
    _corner_sum,
    _padded_cells,
    _trilinear_corners,
    as_tensor,
)
from .view_transform import VoxelGridSpec

# candidate (ray, sample) pairs per chunk, and the most rays one may hold.
# A chunk's plan temporaries scale with its pairs, its adjoint's [8 x M]
# corner index and products with its kept samples, and its render
# temporaries with its [rays x width] window. At 12288 pairs `selftrain` and `render` at
# the bench configs peak at 49.3 and 38.7 MB RSS; 16384 pairs or 1024-ray
# chunks raised selftrain's by 1-5 MB, and 8192 pairs render's by 0.5 MB.
# A chunk of all S samples of every ray holds 12288 // S rays; where tiles
# are culled it holds more.
_BLOCK_SAMPLES = 12288
_BLOCK_RAYS = 4096
# consecutive pixels per tile: the unit whose samples _plan_chunks culls
# against the live cells before testing each ray's samples; camera._RAY_BLOCK,
# the rays whose tiles are culled together, is a multiple of it
_TILE_RAYS = 32


@dataclass(frozen=True, eq=False)
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
class RenderConfig:
    """How a view's rays are sampled: `samples` midpoints of equal spacing
    over [t_near, t_far] on each pixel's ray, at `resolution` (H, W)."""

    samples: int = 152  # config key "S"
    t_near: float = 1.0
    t_far: float = 45.0
    resolution: tuple[int, int] = (180, 320)

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("render.S must be at least 2")
        if not 0 < self.t_near < self.t_far:
            raise ValueError(f"render range invalid: [{self.t_near}, {self.t_far}]")
        if len(self.resolution) != 2 or any(r < 1 for r in self.resolution):
            raise ValueError(f"render.resolution invalid: {self.resolution}")
        object.__setattr__(self, "resolution", tuple(self.resolution))

    @property
    def step(self) -> float:
        """The spacing of consecutive samples along a ray."""
        return (self.t_far - self.t_near) / self.samples

    def sample_distances(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample distances [S] and spacings [S], shared by every ray of a view."""
        step = self.step
        return self.t_near + (np.arange(self.samples) + 0.5) * step, np.full(self.samples, step)


@dataclass(eq=False)
class DepthMap:
    """Per-pixel ray distance with validity.

    A rendered depth keeps the raw accumulated value even where opacity is
    low; valid marks pixels whose accumulated opacity exceeds 0.5 (the DDA
    oracle's hits), and consumers mask or zero invalid entries.
    """

    depth: np.ndarray  # [H x W]
    valid: np.ndarray  # [H x W] bool

    def __post_init__(self):
        depth = self.depth = np.asarray(self.depth)
        valid = self.valid = np.asarray(self.valid)
        if depth.ndim != 2 or depth.dtype.kind != "f":
            raise ValueError(f"depth must be a 2-D float array, got {depth.dtype} {depth.shape}")
        if valid.dtype != bool or valid.shape != depth.shape:
            raise ValueError(
                f"valid must be a bool array of depth's shape {depth.shape}, "
                f"got {valid.dtype} {valid.shape}"
            )


def _row_sums(x: np.ndarray, lo: int, s: int, a: int = 0):
    """np.sum over columns [a, s) of the rows of an [R x S] array that is
    +0.0 but for the window x [R x W] at columns [lo, lo + W), bit for bit,
    for x >= +0.0 with lo and lo + W multiples of 8 (or lo + W = S), from
    the window alone. It follows numpy's pairwise split of a row: a leaf of
    at most 128 values is summed by np.sum on its slice of the window, a
    longer row splits at n/2 rounded down to a multiple of 8, and a subtree
    outside the window adds +0.0."""
    hi = lo + x.shape[-1]
    if s <= lo or a >= hi:
        return 0.0
    if s - a <= 128:
        return np.sum(x[:, max(a, lo) - lo : min(s, hi) - lo], axis=-1)
    half = (s - a) // 2
    half -= half % 8
    return _row_sums(x, lo, a + half, a) + _row_sums(x, lo, s, a + half)


def _render_batch(
    sigma: np.ndarray, t: np.ndarray, deltas: np.ndarray, lo: int = 0, with_jac: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Transmittance-weighted depth for [R x W] density rows: the window of
    samples [lo, lo + W) of the S in t and deltas, every other sample of
    zero density, with lo and lo + W multiples of 8 (or lo + W = S).

    Returns (depth [R], opacity [R], weights [R x W], jac [R x W]), where
    jac is d(depth)/d(sigma_k) from the chain rule through the weights:
        d depth / d sigma_k = delta_k * (T_k e^{-sigma_k delta_k} t_k
                                         - sum_{i>k} w_i t_i),
    or None when with_jac is false. Samples before the window add +0.0 to
    the prefix sum and samples past it have zero weight, so the window's
    prefix and tail sums are exact, and depth and opacity are np.sum over
    the whole S-wide rows (_row_sums).
    """
    w = sigma.shape[-1]
    # jac outlives the call: a plan's render keeps it for the adjoint.
    # Allocated before the temporaries below, it takes heap space freed by
    # an earlier block rather than pinning the heap top above this block's
    # temporaries, which keeps selftrain's peak RSS lower.
    jac = np.empty(sigma.shape) if with_jac else None
    t_w, deltas_w = t[..., lo : lo + w], deltas[..., lo : lo + w]
    a = sigma * deltas_w
    prefix = np.cumsum(a, axis=-1)
    transmittance = np.exp(-(prefix - a))  # T_i excludes the i-th interval
    decay = np.exp(-a)
    weights = transmittance * (1.0 - decay)
    wt = weights * t_w
    s = t.shape[-1]
    depth = _row_sums(wt, lo, s)
    opacity = _row_sums(weights, lo, s)
    if jac is not None:
        tail = np.cumsum(wt[..., ::-1], axis=-1)[..., ::-1] - wt  # sum over i > k
        np.multiply(transmittance, decay, out=jac)
        jac *= t_w
        jac -= tail
        jac *= deltas_w
    return depth, opacity, weights, jac


@dataclass(frozen=True, eq=False)
class PlanChunk:
    """The live ray samples of one block of consecutive pixels.

    Only samples inside the trilinear sampling box whose low cell is live
    are kept (see _plan_chunks); every other sample reads a zero density.
    The block's window is samples [lo, lo + width) of every ray: lo is its
    smallest kept sample index rounded down to a multiple of 8, and
    lo + width is 1 + its largest one rounded up to a multiple of 8 and
    capped at S (both 0 when none is kept), so _row_sums can give the sums
    over whole S-wide rows. Kept samples sit in the [R x width] window in
    row order. Densities are read from, and adjoints added into, the flat
    zero-padded grid of tensor._trilinear_corners: sigma inside a zero
    shell one cell thick.
    """

    start: int  # first pixel of the block (row-major)
    stop: int
    lo: int  # first sample of the window
    width: int  # window samples per ray
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
        padded grid `out`. The block's products are summed per cell by one
        np.bincount in corner-major order (corner 0 of every kept sample in
        row order, then corner 1, ...), from +0.0, and that sum is then
        added into `out`; the order is fixed by the plan alone."""
        y = per_sample.reshape(-1)[self.cols]
        idx = self.base + self.offsets[:, None]
        out += np.bincount(idx.ravel(), (self.wgt * y).ravel(), minlength=out.size)


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


def _live_box_table(live: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """int32 summed-area table [(X+3) x (Y+3) x (Z+3)] of `live`, a flat
    bool mask over the padded [(X+2) x (Y+2) x (Z+2)] grid: entry (i, j, k)
    counts the live cells below padded cell (i, j, k) on every axis."""
    counts = live.reshape([d + 2 for d in dims]).astype(np.int32)
    table = np.zeros([d + 3 for d in dims], dtype=np.int32)
    table[1:, 1:, 1:] = counts.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32).cumsum(
        2, dtype=np.int32
    )
    return table


def _grid_axis(spec: VoxelGridSpec, origin: np.ndarray, a: int, t, d) -> np.ndarray:
    """Grid coordinate along axis a of origin + t * d, with the arithmetic
    of spec.world_to_grid."""
    return ((origin[a] + t * d) - spec.origin[a]) / spec.voxel_size - 0.5


def _live_tile_samples(
    spec: VoxelGridSpec,
    origin: np.ndarray,
    dirs: np.ndarray,
    first: np.ndarray,
    stop: np.ndarray,
    t: np.ndarray,
    table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The tile-samples whose rays can hold a live sample: (tile [P], k [P])
    in tile-major order, k ascending, over tiles of _TILE_RAYS consecutive
    rays of dirs [3 x R] (per-axis columns) with box ranges [first, stop),
    and the flat summed-area table of the live mask (_live_box_table).

    A tile's samples are those in the union of its rays' box ranges. The
    grid coordinates of the tile's per-axis least and greatest direction at
    t_k bound those of all its rays, since with t_k > 0 every rounded step
    of _grid_axis is monotone in the direction; so do their floors, the
    cells. Eight lookups in the table count the live cells in the box of
    cells the in-box part of that range spans, and a tile-sample is kept
    when the count is positive."""
    dims = spec.dims
    tiles = np.arange(0, dirs.shape[1], _TILE_RAYS)
    some = stop > first
    lo = np.minimum.reduceat(np.where(some, first, t.size), tiles)
    size = np.maximum(np.maximum.reduceat(np.where(some, stop, 0), tiles) - lo, 0)
    tile = np.repeat(np.arange(tiles.size), size)
    k = np.arange(tile.size) + np.repeat(lo - (np.cumsum(size) - size), size)
    tk = t[k]
    keep = np.ones(tile.size, dtype=bool)
    strides = ((dims[1] + 3) * (dims[2] + 3), dims[2] + 3, 1)
    sides = []  # per axis, table offsets of the cell box's low side and past its high side
    for a in range(3):
        hi = dims[a] - 0.5
        g_lo = _grid_axis(spec, origin, a, tk, np.minimum.reduceat(dirs[a], tiles)[tile])
        g_up = _grid_axis(spec, origin, a, tk, np.maximum.reduceat(dirs[a], tiles)[tile])
        keep &= g_up >= -0.5
        keep &= g_lo <= hi
        # the padded cells floor(g) + 1 of the in-box part of [g_lo, g_up]
        c_lo = np.floor(np.clip(g_lo, -0.5, hi)).astype(np.intp) + 1
        c_up = np.floor(np.clip(g_up, -0.5, hi)).astype(np.intp) + 2
        sides.append((c_lo * strides[a], c_up * strides[a]))
    (x0, x1), (y0, y1), (z0, z1) = sides
    count = table[x1 + y1 + z1] - table[x0 + y1 + z1] - table[x1 + y0 + z1] + table[x0 + y0 + z1]
    count -= table[x1 + y1 + z0] - table[x0 + y1 + z0] - table[x1 + y0 + z0] + table[x0 + y0 + z0]
    keep &= count > 0
    return tile[keep], k[keep]


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

    The view is taken in groups of camera._RAY_BLOCK rays, and each group
    builds only its own rays, box ranges and direction columns. A group's
    tiles of rays are culled first (_live_tile_samples). A block is a run
    of whole tiles with about _BLOCK_SAMPLES candidate (ray, sample) pairs
    and at most _BLOCK_RAYS rays: every ray of a tile takes the tile's kept
    samples, and these pairs, in ray-major order, go on to the exact in-box
    and live tests, with the arithmetic of spec.world_to_grid(origin +
    t * dir). A sample that a tile drops fails one of those tests, so the
    kept set, and its order, are the ones a test of every sample would
    give. A sample whose low cell is not live has eight zero corners and
    reads +0.0 through any plan (densities are >= 0, -0.0 included, and
    weights >= 0 and finite), and a zero density of either sign gets render
    weight +0.0; so with `live` from _live_cells of a field the chunks
    render that field as a plan of every in-box sample does.
    """
    n, s = resolution[0] * resolution[1], t.size
    hi = np.asarray(spec.dims) - 0.5
    offsets = _corner_offsets(spec.dims)
    table = _live_box_table(live, spec.dims).ravel()
    none = np.empty(0, dtype=np.intp)
    empty = (0, 0, none, none, np.empty((8, 0)), offsets)
    for group in range(0, n, _RAY_BLOCK):
        end = min(group + _RAY_BLOCK, n)
        origin, dirs = view_rays(cam, resolution, group, end)
        first, stop = _box_sample_ranges(spec, origin, dirs, t)
        dirs = dirs.T.copy()  # per-axis direction columns
        tiles, ks = _live_tile_samples(spec, origin, dirs, first, stop, t, table)
        # a block is a run of whole tiles: a new one starts where the
        # candidate pairs before a tile pass a multiple of _BLOCK_SAMPLES,
        # and every _BLOCK_RAYS rays
        size = np.minimum(end - group - np.arange(0, end - group, _TILE_RAYS), _TILE_RAYS)
        per_tile = np.bincount(tiles, minlength=size.size)  # kept samples per tile
        pairs = per_tile * size
        index = np.arange(size.size)
        run = (np.cumsum(pairs) - pairs) // _BLOCK_SAMPLES * size.size
        run += index // (_BLOCK_RAYS // _TILE_RAYS)
        heads = np.append(np.flatnonzero(np.diff(run, prepend=-1)), size.size)
        cuts = np.searchsorted(tiles, heads)
        for b in range(heads.size - 1):
            start = group + int(heads[b]) * _TILE_RAYS
            stop_ = min(group + int(heads[b + 1]) * _TILE_RAYS, n)
            tile, k = tiles[cuts[b] : cuts[b + 1]] - heads[b], ks[cuts[b] : cuts[b + 1]]
            if not tile.size:
                yield PlanChunk(start, stop_, *empty)
                continue
            # every ray of a tile takes the tile's samples: ray-major pairs
            counts = per_tile[heads[b] : heads[b + 1]]
            tile_of = np.arange(stop_ - start) // _TILE_RAYS
            per_ray = counts[tile_of]
            shift = (np.cumsum(counts) - counts)[tile_of] - (np.cumsum(per_ray) - per_ray)
            ray = np.repeat(np.arange(stop_ - start), per_ray)
            k = k[np.arange(ray.size) + np.repeat(shift, per_ray)]
            tk = t[k]
            x, y, z = (
                _grid_axis(spec, origin, a, tk, dirs[a, start - group + ray]) for a in range(3)
            )
            keep = (x >= -0.5) & (x <= hi[0])
            keep &= y >= -0.5
            keep &= y <= hi[1]
            keep &= z >= -0.5
            keep &= z <= hi[2]
            sel = np.flatnonzero(keep)
            xyz = [v[sel] for v in (x, y, z)]
            on = live[_padded_cells(spec.dims, *(np.floor(v) for v in xyz))]
            sel = sel[on]
            if not sel.size:
                yield PlanChunk(start, stop_, *empty)
                continue
            base, wgt = _trilinear_corners(spec.dims, [v[on] for v in xyz])
            ray, k = ray[sel], k[sel]
            k_lo = int(k.min()) // 8 * 8
            width = min(-(-(int(k.max()) + 1) // 8) * 8, s) - k_lo
            yield PlanChunk(start, stop_, k_lo, width, ray * width + (k - k_lo), base, wgt, offsets)


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
    padded grid `sigma_pad`, valid where opacity > 0.5; appends each
    block's depth Jacobian rows to `jac_out` when given."""
    h, w = resolution
    depth = np.empty(h * w)
    valid = np.empty(h * w, dtype=bool)
    for chunk in chunks:
        # a zero-width window gathers [R x 0] rows: +0.0 depth and opacity
        d, o, _, jac = _render_batch(
            chunk.gather(sigma_pad), t[None, :], deltas[None, :], chunk.lo,
            with_jac=jac_out is not None,
        )
        depth[chunk.start : chunk.stop] = d
        valid[chunk.start : chunk.stop] = o > 0.5
        if jac_out is not None:
            jac_out.append(jac)
    return DepthMap(depth=depth.reshape(h, w), valid=valid.reshape(h, w))


class RayPlan:
    """Sparse sampling operator of one view, reusable across density fields.

    Sample positions depend on the grid spec, camera and RenderConfig, never
    on sigma, so a plan built once serves every forward render and adjoint
    of that view. It holds the corners and weights of every in-grid sample
    of the view (its builder's live mask is all true); the one-shot
    `render_view` streams the same builder's chunks of its field's live
    samples only. `render` keeps, per block, the depth Jacobian over the
    block's window, and `grad_sigma` scatters the last render's rows
    weighted by the depth cotangent: the rendering equations are evaluated
    once per render. Each render refills one padded sigma grid and the
    rows, so one plan must not render two fields at a time.
    """

    def __init__(self, spec: VoxelGridSpec, cam: Camera, cfg: RenderConfig):
        self.spec = spec
        self.resolution = cfg.resolution
        self.t, self.deltas = cfg.sample_distances()
        self._sigma_pad = np.zeros(tuple(d + 2 for d in spec.dims))  # sigma in a zero shell
        every = np.ones(self._sigma_pad.size, dtype=bool)
        self.chunks = tuple(_plan_chunks(spec, cam, self.resolution, self.t, every))
        # the Jacobian rows of the last render that finished, per block
        self._jac: list[np.ndarray] | None = None

    def render(self, field: DensityField) -> DepthMap:
        """render_view through the plan; keeps per block the d(depth)/d(sigma)
        rows [rays x width] that `grad_sigma` scatters."""
        self._jac = None  # frees the last render's rows for this one's blocks
        if field.spec != self.spec:
            raise ValueError(f"density field grid {field.spec} differs from the plan's {self.spec}")
        jac: list[np.ndarray] = []
        self._sigma_pad[1:-1, 1:-1, 1:-1] = field.sigma
        sigma_pad = self._sigma_pad.ravel()
        dm = _render_rows(self.chunks, sigma_pad, self.resolution, self.t, self.deltas, jac)
        self._jac = jac
        return dm

    def grad_sigma(self, grad_depth: np.ndarray) -> np.ndarray:
        """Adjoint of the last render's depth output: given dL/d(depth) per
        pixel, accumulates dL/d(sigma) on the density grid from that
        render's Jacobian rows through the trilinear weights. Raises
        ValueError before the first render and after one that raised.

        The blocks are added in plan order, each as one corner-major sum
        per cell (PlanChunk.scatter), so the result depends on the plan
        and its inputs only, bit for bit.
        It is not np.add.at's sample-major order, which differs by a few
        ulps."""
        if self._jac is None:
            raise ValueError("grad_sigma needs a render of this plan first")
        grad_depth = as_tensor(grad_depth)
        if grad_depth.shape != self.resolution:
            raise ValueError(f"grad_depth {grad_depth.shape} vs resolution {self.resolution}")
        gflat = grad_depth.ravel()
        out = np.zeros_like(self._sigma_pad)
        flat = out.ravel()
        for chunk, rows in zip(self.chunks, self._jac):
            chunk.scatter(flat, rows * gflat[chunk.start : chunk.stop, None])
        return out[1:-1, 1:-1, 1:-1].copy()


def render_view(field: DensityField, cam: Camera, cfg: RenderConfig) -> DepthMap:
    """Render a full depth map: one midpoint-sampled ray per pixel.

    Intrinsics are rescaled when `cfg.resolution` differs from their native
    size. Pixels are processed in fixed-order blocks, so the result is
    deterministic and identical to per-ray rendering. No plan is stored:
    each block's chunk keeps only the samples whose low cell is live in
    this field (tiles of rays whose samples reach no live cell are culled
    before any per-ray test), is gathered and dropped, and the result
    equals RayPlan.render's bit for bit. The depth Jacobian is not formed.
    """
    t, deltas = cfg.sample_distances()
    sigma_pad = np.pad(field.sigma, 1)
    chunks = _plan_chunks(field.spec, cam, cfg.resolution, t, _live_cells(sigma_pad))
    return _render_rows(chunks, sigma_pad.ravel(), cfg.resolution, t, deltas)


def save_depth_pfm(dm: DepthMap, path) -> None:
    """Export rendered depth as a PFM; invalid pixels are written as zero."""
    write_pfm(path, np.where(dm.valid, dm.depth, 0.0))


def save_valid_pgm(dm: DepthMap, path) -> None:
    """Export the validity mask as an 8-bit PGM (255 = valid)."""
    write_pgm8(path, np.where(dm.valid, 255, 0).astype(np.uint8))
