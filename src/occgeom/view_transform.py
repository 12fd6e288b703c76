"""2D-to-3D view transformation.

Two routes populate the voxel grid from image features: an explicit route
that lifts each pixel along its ray with a predicted depth distribution and
scatter-pools the resulting pseudo-points, and an implicit route that
projects voxel centers into the cameras and attention-samples the feature
maps. Their channel concatenation is compressed by a stride-2 convolution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import camera as cam_mod
from .camera import CameraRig, Intrinsics
from .tensor import as_tensor, bilinear_sample, conv3d, softmax, trilinear_sample

# kept points whose rows voxel_pool gathers per scatter, bounding the copy
_POOL_CHUNK = 4096


@dataclass(frozen=True)
class VoxelGridSpec:
    """Geometry of an X x Y x Z voxel lattice.

    origin is the world position of the grid's minimum corner; voxel (i,j,k)
    spans origin + [i,i+1) * voxel_size along x and likewise for y, z. Two
    specs are equal when their dims, voxel size and origin are.
    """

    dims: tuple[int, int, int]
    origin: np.ndarray
    voxel_size: float

    def __post_init__(self):
        dims = tuple(self.dims)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in dims):
            raise ValueError(f"dims must be integers, got {self.dims}")
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must be three positive extents, got {self.dims}")
        voxel_size = float(self.voxel_size)
        if not (np.isfinite(voxel_size) and voxel_size > 0):
            raise ValueError(f"voxel_size must be finite and positive, got {self.voxel_size}")
        origin = as_tensor(self.origin).reshape(3)
        if not np.all(np.isfinite(origin)):
            raise ValueError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "voxel_size", voxel_size)

    def _key(self) -> tuple:
        return self.dims, self.voxel_size, tuple(self.origin)

    def __eq__(self, other) -> bool:
        return isinstance(other, VoxelGridSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def voxel_centers(self) -> np.ndarray:
        """World coordinates of all voxel centers, [X*Y*Z x 3] in C order."""
        x, y, z = self.dims
        ix, iy, iz = np.meshgrid(np.arange(x), np.arange(y), np.arange(z), indexing="ij")
        idx = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3)
        return self.origin + (idx + 0.5) * self.voxel_size

    def voxel_index(self, points: np.ndarray) -> np.ndarray:
        """int64 index [... x 3] of the voxel that holds each point: the
        floor of (p - origin) / voxel_size, so a point on a face between two
        voxels is in the higher-index one. Points off the grid get indices
        outside [0, dims)."""
        return np.floor((as_tensor(points) - self.origin) / self.voxel_size).astype(np.int64)

    def world_to_grid(self, points: np.ndarray) -> np.ndarray:
        """Continuous grid coordinates where integer values are cell centers."""
        return (as_tensor(points) - self.origin) / self.voxel_size - 0.5

    def halved(self) -> "VoxelGridSpec":
        if any(d % 2 for d in self.dims):
            raise ValueError(f"cannot halve odd dims {self.dims}")
        return VoxelGridSpec(
            tuple(d // 2 for d in self.dims), self.origin, self.voxel_size * 2.0
        )


def uniform_depth_bins(count: int = 8, near: float = 1.0, far: float = 45.0) -> np.ndarray:
    """Midpoints of `count` equal depth segments of [near, far]."""
    if count < 1 or not near < far:
        raise ValueError(f"bad bin layout: count={count}, range [{near}, {far}]")
    step = (far - near) / count
    return near + (np.arange(count) + 0.5) * step


@dataclass(frozen=True, eq=False)
class DepthDistribution:
    """Per-pixel categorical distribution over metric depth bins."""

    bins: np.ndarray  # [C_d] strictly increasing bin centers (m)
    probs: np.ndarray  # [H x W x C_d], nonnegative, rows sum to 1

    def __post_init__(self):
        bins = as_tensor(self.bins).reshape(-1)
        probs = as_tensor(self.probs)
        if not np.all(np.isfinite(bins)):
            raise ValueError("depth bins must be finite")
        if np.any(np.diff(bins) <= 0):
            raise ValueError("depth bins must be strictly increasing")
        if probs.ndim != 3 or probs.shape[2] != bins.size:
            raise ValueError(
                f"probs must be H x W x {bins.size}, got {probs.shape}"
            )
        if not np.all(np.isfinite(probs)):
            raise ValueError("depth probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("depth probabilities must be nonnegative")
        sums = probs.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise ValueError("per-pixel depth probabilities must sum to 1 within 1e-6")
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True, eq=False)
class OccupancyFeature:
    """A C x X x Y x Z feature volume tied to its grid geometry."""

    data: np.ndarray
    spec: VoxelGridSpec

    def __post_init__(self):
        data = as_tensor(self.data)
        if data.ndim != 4 or data.shape[1:] != self.spec.dims:
            raise ValueError(
                f"feature shape {data.shape} inconsistent with grid dims {self.spec.dims}"
            )
        object.__setattr__(self, "data", data)


def lift(
    features: np.ndarray, dist: DepthDistribution, intr: Intrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Lift image features into camera-frame pseudo-points.

    For pixel p and depth bin b the point sits on p's unprojection ray at
    camera-frame depth bins[b] and carries probs[p, b] * features[p]; the
    outer product of the depth distribution with the feature map. Output
    rows are ordered pixel-major (row, then column), bins fastest.

    Returns:
        (positions_cam [H*W*C_d x 3], feats [H*W*C_d x C_f])
    """
    features = as_tensor(features)
    if features.ndim != 3:
        raise ValueError(f"features must be H x W x C_f, got {features.shape}")
    h, w, cf = features.shape
    if dist.probs.shape[:2] != (h, w):
        raise ValueError(
            f"depth distribution {dist.probs.shape[:2]} does not match features {(h, w)}"
        )
    if (intr.width, intr.height) != (w, h):
        raise ValueError(
            f"intrinsics are {intr.width}x{intr.height} but features are {w}x{h}"
        )
    rays = cam_mod.camera_rays(intr, cam_mod.pixel_grid(h, w))  # [H*W x 3], unit z
    positions = rays[:, None, :] * dist.bins[None, :, None]
    feats = dist.probs[:, :, :, None] * features[:, :, None, :]
    return positions.reshape(-1, 3), feats.reshape(-1, cf)


def voxel_pool(
    points_world: np.ndarray, feats: np.ndarray, spec: VoxelGridSpec
) -> OccupancyFeature:
    """Scatter-mean point features into the voxel grid.

    Each point's feature accumulates into the voxel containing it
    (spec.voxel_index: a point on a face between two voxels belongs to the
    higher-index one), points outside the grid are dropped, and occupied
    voxels are divided by their point count. Accumulation follows the input
    point order, so results are deterministic and bit-reproducible.
    """
    pts = as_tensor(points_world).reshape(-1, 3)
    feats = as_tensor(feats)
    if feats.ndim != 2 or feats.shape[0] != pts.shape[0]:
        raise ValueError(
            f"features {feats.shape} do not match {pts.shape[0]} points"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    x, y, z = spec.dims
    idx = spec.voxel_index(pts)
    keep = (
        (idx[:, 0] >= 0) & (idx[:, 0] < x)
        & (idx[:, 1] >= 0) & (idx[:, 1] < y)
        & (idx[:, 2] >= 0) & (idx[:, 2] < z)
    )
    rows = np.flatnonzero(keep)
    idx = idx[rows]
    flat = idx[:, 0] * (y * z) + idx[:, 1] * z + idx[:, 2]
    c = feats.shape[1]
    acc = np.zeros((x * y * z, c))
    # a 1-D ufunc.at on the flat accumulator adds each (voxel, channel)'s
    # points in input order, like the 2-D form, on numpy's fast path
    acc_flat = acc.reshape(-1)
    lanes = np.arange(c)
    for lo in range(0, rows.size, _POOL_CHUNK):
        hi = lo + _POOL_CHUNK
        cells = flat[lo:hi, None] * c + lanes
        np.add.at(acc_flat, cells.reshape(-1), feats[rows[lo:hi]].reshape(-1))
    counts = np.bincount(flat, minlength=x * y * z)
    out = np.divide(acc, counts[:, None], out=np.zeros_like(acc), where=counts[:, None] > 0)
    data = out.T.reshape(c, x, y, z)
    return OccupancyFeature(data, spec)


def idm_sample(
    query_spec: VoxelGridSpec,
    queries: np.ndarray,
    image_feats: Sequence[np.ndarray],
    rig: CameraRig,
    offsets: np.ndarray,
    weights: np.ndarray,
    timestamp: int,
) -> OccupancyFeature:
    """Implicit projection-based sampling of image features onto query voxels.

    Every query voxel center is projected into every camera at `timestamp`;
    visible projections are bilinearly sampled at the projection plus each
    learned pixel offset, the samples are combined with softmax(weights),
    and the per-camera results are averaged over the cameras that see the voxel;
    the other cameras' features, finite or not, never reach it. Voxels
    visible in no camera come out zero. -inf weights receive exactly
    zero attention (mask semantics); queries fix the grid shape only, since
    at this scale the sampling pattern is shared rather than query-predicted.
    """
    queries = as_tensor(queries)
    if queries.ndim != 4 or queries.shape[1:] != query_spec.dims:
        raise ValueError(
            f"queries {queries.shape} inconsistent with query grid {query_spec.dims}"
        )
    offsets = as_tensor(offsets).reshape(-1, 2)
    weights = as_tensor(weights).reshape(-1)
    if offsets.shape[0] < 1:
        raise ValueError("need at least one sampling point")
    if offsets.shape[0] != weights.size:
        raise ValueError(f"{offsets.shape[0]} offsets vs {weights.size} weights")
    if np.any(np.isnan(weights)) or np.any(weights == np.inf):
        raise ValueError("weights must be finite or -inf")
    if len(image_feats) != len(rig.cameras):
        raise ValueError(
            f"{len(image_feats)} feature maps for {len(rig.cameras)} cameras"
        )
    attn = softmax(weights, axis=0)
    centers = query_spec.voxel_centers()
    n = centers.shape[0]
    cf = as_tensor(image_feats[0]).shape[2]
    total = np.zeros((n, cf))
    seen = np.zeros(n)
    for ci, feat in enumerate(image_feats):
        feat = as_tensor(feat)
        intr = rig.cameras[ci].intrinsics
        if feat.shape[:2] != (intr.height, intr.width):
            raise ValueError(
                f"camera {ci} features {feat.shape[:2]} vs intrinsics "
                f"{(intr.height, intr.width)}"
            )
        pose = cam_mod.camera_pose_at(rig, ci, timestamp)
        uv, _, visible = cam_mod.project_points(intr, pose, centers)
        rows = np.flatnonzero(visible)
        if rows.size == 0:
            continue
        uv = uv[rows]
        gathered = np.zeros((rows.size, cf))
        for p in range(offsets.shape[0]):
            if attn[p] == 0.0:
                continue
            samples, _ = bilinear_sample(feat, uv + offsets[p])
            gathered += attn[p] * samples
        total[rows] += gathered
        seen += visible
    out = np.divide(total, seen[:, None], out=np.zeros_like(total), where=seen[:, None] > 0)
    data = out.T.reshape(cf, *query_spec.dims)
    return OccupancyFeature(data, query_spec)


def upsample_trilinear(feat: OccupancyFeature, spec: VoxelGridSpec) -> OccupancyFeature:
    """Trilinearly resample a feature volume onto another grid's centers.

    Sampling clamps at the source boundary (edge features extend outward),
    the usual choice for feature upsampling.
    """
    src = feat.spec
    coords = src.world_to_grid(spec.voxel_centers())
    coords = np.clip(coords, 0.0, np.array(src.dims) - 1.0)
    vals, _ = trilinear_sample(feat.data, coords)
    data = vals.T.reshape(feat.data.shape[0], *spec.dims)
    return OccupancyFeature(data, spec)


def fuse_and_compress(
    oe: OccupancyFeature, oi: OccupancyFeature, w: np.ndarray
) -> OccupancyFeature:
    """Concatenate explicit + implicit features and compress 2x.

    Channel concatenation (explicit first) followed by a stride-2
    convolution; output dims are exactly halved and the output grid's
    voxels are twice as large.
    """
    if oe.spec != oi.spec:
        raise ValueError(f"grid specs differ: {oe.spec} vs {oi.spec}")
    if oe.data.shape[0] != oi.data.shape[0]:
        raise ValueError(
            f"channel counts differ: {oe.data.shape[0]} vs {oi.data.shape[0]}"
        )
    if any(d % 2 for d in oe.spec.dims):
        raise ValueError(f"compression needs even dims, got {oe.spec.dims}")
    w = as_tensor(w)
    fused = np.concatenate([oe.data, oi.data], axis=0)
    if w.ndim != 5 or w.shape[1] != fused.shape[0]:
        raise ValueError(
            f"conv weights {w.shape} incompatible with {fused.shape[0]} fused channels"
        )
    out = conv3d(fused, w, stride=2)
    return OccupancyFeature(out, oe.spec.halved())
