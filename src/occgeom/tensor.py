"""Dense-tensor substrate shared by every module.

Values are float64 numpy arrays, row-major with the last axis fastest.
Every exported operation is a pure function: inputs are never mutated and
results are deterministic, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

# bytes of gathered corners per tile of trilinear_sample's channelled
# gather: the temporary stays this size whatever the point count, instead
# of one [N x 8 x C] array (33.5 MB for occ-pipeline's upsample)
_GATHER_TILE_BYTES = 2 << 20


def as_tensor(x) -> Array:
    """Coerce to a float64 ndarray, the package-wide value carrier."""
    return np.asarray(x, dtype=np.float64)


def softmax(x: Array, axis: int = -1) -> Array:
    """Numerically stable softmax along `axis` (max-subtraction).

    Entries of exactly -inf receive exactly zero weight, which is the
    masking convention used by the attention modules. Slices that are
    entirely -inf normalize to all zeros rather than NaN.
    """
    x = as_tensor(x)
    if x.ndim == 0:
        raise ValueError("softmax needs at least one axis")
    axis = int(axis)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {x.shape}")
    m = np.max(x, axis=axis, keepdims=True)
    live = np.isfinite(m)
    shifted = np.where(live, x - np.where(live, m, 0.0), -np.inf)
    e = np.exp(shifted)
    s = np.sum(e, axis=axis, keepdims=True)
    return np.divide(e, s, out=np.zeros_like(e), where=s > 0)


def _bilinear_corners(img: Array, uv: Array):
    """The kernel of bilinear_sample and bilinear_sample_grad: validates
    img [H x W x C] and uv [N x 2], and returns (valid [N], fu [N x 1],
    fv [N x 1], corners, values), where corners are the four neighbor
    values (i00, i01, i10, i11) [N x C] at rows v0, v0, v1, v1 and columns
    u0, u1, u0, u1, clipped into the image, and values [N x C] their
    bilinear blend, out-of-bounds samples included."""
    img = as_tensor(img)
    uv = as_tensor(uv)
    if img.ndim != 3:
        raise ValueError(f"bilinear sampling expects an H x W x C image, got {img.shape}")
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise ValueError(f"bilinear sampling expects N x 2 coordinates, got {uv.shape}")
    h, w = img.shape[:2]
    u, v = uv[:, 0], uv[:, 1]
    valid = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    u0 = np.floor(u)
    v0 = np.floor(v)
    u0i = np.clip(u0.astype(np.int64), 0, w - 1)
    v0i = np.clip(v0.astype(np.int64), 0, h - 1)
    u1i = np.minimum(u0i + 1, w - 1)
    v1i = np.minimum(v0i + 1, h - 1)
    i00, i01, i10, i11 = img[v0i, u0i], img[v0i, u1i], img[v1i, u0i], img[v1i, u1i]
    fu, fv = (u - u0)[:, None], (v - v0)[:, None]
    top = i00 * (1.0 - fu) + i01 * fu
    bot = i10 * (1.0 - fu) + i11 * fu
    return valid, fu, fv, (i00, i01, i10, i11), top * (1.0 - fv) + bot * fv


def bilinear_sample(img: Array, uv: Array) -> tuple[Array, Array]:
    """Bilinearly sample img [H x W x C] at continuous pixel coords uv [N x 2].

    uv[:, 0] is the column coordinate u (x), uv[:, 1] the row coordinate v
    (y); pixel centers sit at integer coordinates, so the sampleable region
    is [0, W-1] x [0, H-1]. Out-of-bounds samples return zeros and are
    flagged invalid.

    Returns:
        (values [N x C], valid [N] bool)
    """
    valid, _, _, _, out = _bilinear_corners(img, uv)
    out[~valid] = 0.0
    return out, valid


def bilinear_sample_grad(img: Array, uv: Array) -> tuple[Array, Array, Array]:
    """bilinear_sample's values at uv and their spatial derivative, from one
    fetch of the corners.

    Returns (values [N x C], d/du [N x C], d/dv [N x C]); the values equal
    bilinear_sample's bit for bit, and all three are zero for out-of-bounds
    samples. At the image's outer edge the one-sided kink is resolved
    toward zero.
    """
    valid, fu, fv, (i00, i01, i10, i11), out = _bilinear_corners(img, uv)
    du = (i01 - i00) * (1.0 - fv) + (i11 - i10) * fv
    dv = (i10 - i00) * (1.0 - fu) + (i11 - i01) * fu
    for x in (out, du, dv):
        x[~valid] = 0.0
    return out, du, dv


def trilinear_sample(vol: Array, xyz: Array) -> tuple[Array, Array]:
    """Trilinearly sample a volume at continuous grid coordinates.

    vol is [X x Y x Z] or [C x X x Y x Z]; xyz [N x 3] addresses cell
    centers at integer coordinates. Positions outside [-0.5, dim-0.5] on
    any axis return exactly zero and are flagged invalid; inside that box,
    missing corner neighbors count as zero.

    Returns:
        (values [N] or [N x C], valid [N] bool)
    """
    vol = as_tensor(vol)
    xyz = as_tensor(xyz)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError(f"trilinear_sample expects N x 3 coordinates, got {xyz.shape}")
    channelled = vol.ndim == 4
    if not channelled and vol.ndim != 3:
        raise ValueError(f"trilinear_sample expects 3-D or 4-D volume, got {vol.shape}")
    dims = vol.shape[1:] if channelled else vol.shape
    valid = _trilinear_in_box(dims, xyz)
    base, wgt = _trilinear_corners(dims, xyz[valid].T)
    offsets = _corner_offsets(dims)
    if channelled:
        c = vol.shape[0]
        table = np.pad(vol, ((0, 0), (1, 1), (1, 1), (1, 1))).reshape(c, -1).T
        vals = np.zeros((xyz.shape[0], c))
        rows = np.flatnonzero(valid)
        # einsum over a C-contiguous [M x 8] copy: a transposed view sums
        # in another order
        wgt = np.ascontiguousarray(wgt.T)
        # each point's row is the same einsum in any tile, so tiles of
        # about _GATHER_TILE_BYTES of corners give the untiled bits
        tile = max(_GATHER_TILE_BYTES // (8 * 8 * c), 1)
        for a in range(0, rows.size, tile):
            corners = table[base[a : a + tile, None] + offsets]  # tile x 8 x C
            vals[rows[a : a + tile]] = np.einsum("nkc,nk->nc", corners, wgt[a : a + tile])
    else:
        vals = np.zeros(xyz.shape[0])
        vals[valid] = _corner_sum(np.pad(vol, 1).ravel(), base, offsets, wgt)
    return vals, valid


def _trilinear_in_box(dims, xyz: Array) -> Array:
    """[N] bool: positions inside [-0.5, dim-0.5] on every axis, the only
    places where trilinear sampling can be nonzero."""
    return np.all((xyz >= -0.5) & (xyz <= np.asarray(dims) - 0.5), axis=1)


def _padded_cells(dims: tuple[int, ...], lx: Array, ly: Array, lz: Array) -> Array:
    """Flat indices in the zero-padded [(X+2) x (Y+2) x (Z+2)] grid of the
    cells (lx, ly, lz), floored grid coordinates of points inside
    [-0.5, dim-0.5]; cell (x, y, z) sits at (x+1, y+1, z+1)."""
    sx, sy = (dims[1] + 2) * (dims[2] + 2), dims[2] + 2
    # floor(xyz) >= -1, so the padded cell is floor(xyz) + 1
    return (
        lx.astype(np.int64) * sx + ly.astype(np.int64) * sy + lz.astype(np.int64)
        + (sx + sy + 1)
    )


def _corner_offsets(dims: tuple[int, ...]) -> Array:
    """The flat offsets [8] from a cell to its eight trilinear corners in
    the zero-padded grid of an [X x Y x Z] grid (see _padded_cells), in
    (dx, dy, dz) order with dz fastest."""
    sx, sy = (dims[1] + 2) * (dims[2] + 2), dims[2] + 2
    return np.array([dx * sx + dy * sy + dz for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])


def _trilinear_corners(dims: tuple[int, ...], xyz) -> tuple[Array, Array]:
    """Low-corner cells [N] and trilinear weights [8 x N] of grid
    coordinates given as three per-axis arrays xyz, all inside
    [-0.5, dim-0.5] (see _trilinear_in_box), on an [X x Y x Z] grid of
    extent `dims`.

    The cells are flat indices into the zero-padded [(X+2) x (Y+2) x (Z+2)]
    grid, with cell (x, y, z) at (x+1, y+1, z+1) (see _padded_cells), and
    corner k sits at cell + _corner_offsets(dims)[k]; a corner past the
    grid's edge reads the zero shell, so no clipping or bound masks are
    needed. Corner k is weighted (wx*wy)*wz from the per-axis fractions
    f = xyz - floor(xyz) and 1 - f. trilinear_sample and the renderer's
    ray plans gather through this one kernel and sum with _corner_sum.
    """
    lo = [np.floor(v) for v in xyz]
    f = [v - low for v, low in zip(xyz, lo)]
    g = [1.0 - v for v in f]
    wgt = np.empty((8, len(f[0])))
    for k, wxy in enumerate(wx * wy for wx in (g[0], f[0]) for wy in (g[1], f[1])):
        np.multiply(wxy, g[2], out=wgt[2 * k])
        np.multiply(wxy, f[2], out=wgt[2 * k + 1])
    return _padded_cells(dims, *lo), wgt


def _corner_sum(flat: Array, base: Array, offsets: Array, wgt: Array) -> Array:
    """Trilinear values [N] from the flat zero-padded grid `flat`: the
    products of the eight corners base + offsets[k] with their weights
    wgt[k], summed as numpy sums a row of eight,
    ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)) added onto +0.0, so the result is
    bit for bit np.sum over the [N x 8] products, the sign of a zero sum
    included."""
    c = [flat[base + off] * w for off, w in zip(offsets, wgt)]
    return 0.0 + (((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])))


def conv3d(x: Array, w: Array, stride: int = 1) -> Array:
    """3-D cross-correlation of x [C x X x Y x Z] with w [C' x C x k x k x k].

    k must be odd; spatial zero padding of k//2 keeps stride-1 outputs the
    same size, and stride s maps extent n to ceil(n/s).
    """
    x = as_tensor(x)
    w = as_tensor(w)
    if x.ndim != 4:
        raise ValueError(f"conv3d expects C x X x Y x Z input, got {x.shape}")
    if w.ndim != 5:
        raise ValueError(f"conv3d expects C' x C x k x k x k weights, got {w.shape}")
    k = w.shape[2]
    if w.shape[3] != k or w.shape[4] != k:
        raise ValueError(f"conv3d kernel must be cubic, got {w.shape[2:]}")
    if k % 2 == 0:
        raise ValueError(f"conv3d kernel size must be odd, got {k}")
    if w.shape[1] != x.shape[0]:
        raise ValueError(
            f"conv3d channel mismatch: input has {x.shape[0]}, weights expect {w.shape[1]}"
        )
    if stride < 1:
        raise ValueError(f"conv3d stride must be positive, got {stride}")
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    win = win[:, ::stride, ::stride, ::stride]
    return np.einsum("cxyzijk,ocijk->oxyz", win, w, optimize=True)

