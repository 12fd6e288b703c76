"""Procedural voxel worlds and exact first-hit oracles for testing.

Scenes are deterministic functions of a seed: a labeled voxel grid, a
camera ring on a two-timestamp ego trajectory, hash-textured images of the
first-hit voxels, and ground-truth depth from an exact DDA voxel traversal
(no sampling discretization). The traversal also collects the set of voxels
any camera ray crosses, which serves as the evaluation visibility mask.
`build_scene` runs one traversal over the rays of all its views; each
view's depth and image come from its slice, bit-identical to
`raymarch_depth_oracle` and `synthesize_image` on that view alone.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass

import numpy as np

from . import formats
from .camera import (
    Camera,
    CameraRig,
    _box_span,
    Intrinsics,
    Pose,
    camera_pose_at,
    ray_blocks,
    rig_from_json,
    rig_to_json,
    view_rays,
)
from .occ_encdec import SemanticOccupancy
from .renderer import DensityField, DepthMap, save_depth_pfm, save_valid_pgm
from .view_transform import VoxelGridSpec

PRESETS = ("boxes", "corridor", "random_blobs")
# the smallest dims each preset's random draws are defined on: boxes draws
# box heights from [1, z - 1) and corners from [0, x - width), blobs draw
# radii from [1, min(x, y) / 6] and clear the cameras' column over z = 1..z-2
_MIN_DIMS = {"boxes": (2, 2, 3), "corridor": (1, 1, 1), "random_blobs": (6, 6, 3)}
NUM_CLASSES = 4  # semantic classes 0..3; label 4 means free

_CLASS_COLORS = np.array(
    [
        [0.75, 0.30, 0.25],  # 0: walls / crates
        [0.55, 0.55, 0.62],  # 1: structure
        [0.45, 0.42, 0.38],  # 2: ground
        [0.30, 0.60, 0.35],  # 3: vegetation-ish
    ]
)
_SKY_HORIZON = np.array([0.82, 0.86, 0.92])
_SKY_ZENITH = np.array([0.45, 0.62, 0.92])
# mount offsets chosen to never land a camera center on a voxel boundary
_MOUNT_RADIUS = 0.497
_MOUNT_HEIGHT = 0.053


@dataclass(frozen=True)
class SceneConfig:
    """A scene's parameters: the config's `scene` section, and scene.json's."""

    seed: int = 0
    preset: str = "corridor"
    dims: tuple[int, int, int] = (32, 32, 8)
    voxel_size: float = 0.4
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    num_cameras: int = 2
    image_size: tuple[int, int] = (48, 80)
    sigma_occ: float = 50.0

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"scene.preset must be one of {PRESETS}, got {self.preset!r}")
        low = _MIN_DIMS[self.preset]
        if any(not m <= d <= 64 for d, m in zip(self.dims, low)):
            raise ValueError(
                f"scene.dims must be <= 64, and preset {self.preset!r} needs dims >= {low}, "
                f"got {self.dims}"
            )
        if not 2 <= self.num_cameras <= 6:
            raise ValueError(f"scene.num_cameras must be in 2..6, got {self.num_cameras}")
        if any(s < 8 for s in self.image_size):
            raise ValueError(f"scene.image_size too small: {self.image_size}")
        if self.sigma_occ <= 0:
            raise ValueError("scene.sigma_occ must be positive")
        self.spec()  # the grid's own checks

    def spec(self) -> VoxelGridSpec:
        return VoxelGridSpec(tuple(self.dims), np.array(self.origin), self.voxel_size)


@dataclass(frozen=True, eq=False)
class SceneBundle:
    """A synthetic world plus everything the tests need to probe it.

    `scene` is the description the world was built from (or read back from
    scene.json); the grid geometry and the ground-truth density are derived
    from it and the labels, so they cannot disagree with either.
    """

    scene: SceneConfig
    grid: SemanticOccupancy
    rig: CameraRig
    images: dict[tuple[int, int], np.ndarray]
    gt_depths: dict[tuple[int, int], DepthMap]
    visible: np.ndarray

    @property
    def spec(self) -> VoxelGridSpec:
        return self.scene.spec()

    @property
    def density_gt(self) -> DensityField:
        """`scene.sigma_occ` on every occupied voxel, 0 on free ones."""
        return DensityField(self.scene.sigma_occ * self.grid.occupied, self.spec)


def _hash01(ix, iy, iz, salt: int) -> np.ndarray:
    """Deterministic per-voxel pseudo-random value in [0, 1)."""
    mask = (1 << 64) - 1
    h = (
        ix.astype(np.uint64) * np.uint64(73856093)
        ^ iy.astype(np.uint64) * np.uint64(19349669)
        ^ iz.astype(np.uint64) * np.uint64(83492791)
        ^ np.uint64((salt * 0x9E3779B97F4A7C15) & mask)
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h & np.uint64(0xFFFFFF)).astype(np.float64) / float(0x1000000)


def _compact(done: np.ndarray, *arrays: np.ndarray) -> int:
    """Drop the rows where `done` from the first `done.size` rows of every
    array, in place, and return how many rows are kept. The kept rows end
    up first but not in order: rows from the tail fill the dropped rows
    ahead of them, so the work grows with the dropped rows only."""
    kept = done.size - np.count_nonzero(done)
    holes = np.flatnonzero(done[:kept])
    if holes.size:
        fill = kept + np.flatnonzero(~done[kept:])
        for a in arrays:
            a[holes] = a[fill]
    return kept


def _traverse(
    occupied: np.ndarray,
    spec: VoxelGridSpec,
    origins: np.ndarray,
    dirs: np.ndarray,
    visible: np.ndarray | None = None,
):
    """Amanatides-Woo DDA over all rays at once.

    dirs are [N x 3] unit directions and origins either [N x 3] or one
    shared [3] origin; returns
    (depth [N], hit [N] bool, hit_idx [N x 3]). depth is the metric ray
    distance to the entry face of the first occupied voxel (0 when the ray
    starts inside one). When `visible` is given, every traversed voxel up
    to and including the hit is OR-ed into it. Axis ties step the lowest
    axis, so traversal order is deterministic.

    The occupancy is copied into an int8 grid padded by a one-cell shell
    that holds 2, and each ray walks it by a flat index: a step adds the
    ray's stride along the chosen axis, and one gather of the padded grid
    tells whether the new cell is free (0), occupied (1) or outside the
    grid (2), since a one-cell move from inside lands inside or in the
    shell. Each pass touches only the active rays' state.
    """
    dims = np.array(spec.dims)
    vs = spec.voxel_size
    lo = spec.origin
    n = dirs.shape[0]
    t_enter, t_exit = _box_span(lo, lo + dims * vs, origins, dirs)
    t0 = np.maximum(t_enter, 0.0)
    ids = np.flatnonzero(t_exit > t0)
    t_entry = t0
    if ids.size < n:
        t_entry, t_exit, dirs = t0[ids], t_exit[ids], dirs[ids]
        if origins.ndim == 2:
            origins = origins[ids]
    start = origins + (t_entry + 1e-9)[:, None] * dirs
    cell = np.clip(spec.voxel_index(start), 0, dims - 1)
    step = np.sign(dirs).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = lo + (cell + (step > 0)) * vs
        t_max = np.where(dirs != 0, (boundary - origins) / dirs, np.inf)
        t_delta = np.where(dirs != 0, vs / np.abs(dirs), np.inf)
    padded = np.full(dims + 2, 2, dtype=np.int8)
    padded[1:-1, 1:-1, 1:-1] = occupied
    flat = padded.reshape(-1)
    strides = np.array([(dims[1] + 2) * (dims[2] + 2), dims[2] + 2, 1])
    lin = (cell + 1) @ strides
    dlin = step * strides
    del start, cell, step, boundary  # the walk needs only lin and dlin
    state = flat[lin]
    seen = None if visible is None else np.zeros(flat.size, dtype=bool)
    depth = np.zeros(n)
    hit_lin = np.zeros(n, dtype=np.int64)  # 0 is a shell cell: no hit
    # rows [0, act) of the state arrays hold the rays still in the grid,
    # each just entered cell `lin` at `t_entry`
    act = ids.size
    lanes = np.arange(0, 3 * act, 3)  # flat offset of each row of [N x 3] state
    # the state arrays are fresh C-contiguous arrays, so these are views
    flat_t_max, flat_t_delta, flat_dlin = (
        t_max.reshape(-1), t_delta.reshape(-1), dlin.reshape(-1)
    )
    for _ in range(int(dims.sum()) + 4):
        cur, late = state[:act], t_entry[:act] > t_exit[:act]
        if seen is not None:
            # rays that left the grid or their range mark shell cell 0
            seen[lin[:act] * ((cur != 2) & ~late)] = True
        hits = np.flatnonzero((cur == 1) & ~late)
        if hits.size:
            depth[ids[hits]] = t_entry[hits]
            hit_lin[ids[hits]] = lin[hits]
        act = _compact((cur != 0) | late, ids, lin, t_max, t_delta, dlin, t_exit)
        if act == 0:
            break
        # the first axis of least t_max, as argmin picks it, given no NaN:
        # t_max starts finite, or +inf on an axis the ray does not move
        # along, and only grows by t_delta > 0
        a, b, c = t_max[:act].T
        ab = np.minimum(a, b)
        last = c < ab  # axis 2
        axis = ((b < a) > last).view(np.int8)  # axis 1: b < a, and not c
        axis += last.view(np.int8) << 1
        rows = lanes[:act] + axis  # (ray, axis) in the flat state
        np.minimum(ab, c, out=t_entry[:act])  # the least t_max, met first
        lin[:act] += flat_dlin[rows]
        flat_t_max[rows] = t_entry[:act] + flat_t_delta[rows]
        np.take(flat, lin[:act], out=state[:act])
    if seen is not None:
        visible |= seen.reshape(dims + 2)[1:-1, 1:-1, 1:-1]
    hit = hit_lin != 0
    hit_idx = np.zeros((n, 3), dtype=np.int64)
    hit_idx[hit] = np.column_stack(np.unravel_index(hit_lin[hit], padded.shape)) - 1
    return depth, hit, hit_idx


def raymarch_depth_oracle(
    grid: SemanticOccupancy,
    spec: VoxelGridSpec,
    cam: Camera,
    resolution: tuple[int, int],
) -> DepthMap:
    """Exact first-hit depth by DDA voxel traversal (the rendering oracle).

    The view is traversed one block of camera.ray_blocks at a time, so its
    working memory does not grow with the resolution; every ray's result
    depends only on its own origin and direction, so the result is that of
    one traversal of the whole view."""
    h, w = resolution
    occupied = grid.occupied
    depth, hit = np.empty(h * w), np.empty(h * w, dtype=bool)
    for start, stop, origin, dirs in ray_blocks(cam, resolution):
        depth[start:stop], hit[start:stop], _ = _traverse(occupied, spec, origin, dirs)
    return DepthMap(depth=depth.reshape(h, w), valid=hit.reshape(h, w))


def synthesize_image(
    grid: SemanticOccupancy,
    spec: VoxelGridSpec,
    cam: Camera,
    resolution: tuple[int, int],
) -> np.ndarray:
    """Deterministic rendering of the first-hit voxels.

    Pixel color = class base color modulated by a per-voxel hash texture
    and a gentle distance attenuation; rays that leave the grid get a fixed
    sky gradient from the ray elevation. View-independent except for the
    mild attenuation, which keeps cross-camera photometric residuals small.
    """
    origin, dirs = view_rays(cam, resolution)
    traversal = _traverse(grid.occupied, spec, origin, dirs)
    origins = np.broadcast_to(origin, dirs.shape)
    return _shade(grid.labels, origins, dirs, *traversal).reshape(*resolution, 3)


def _shade(
    labels: np.ndarray,
    origins: np.ndarray,
    dirs: np.ndarray,
    depth: np.ndarray,
    hit: np.ndarray,
    hit_idx: np.ndarray,
) -> np.ndarray:
    """Colors [N x 3] of rays from `origins` [N x 3] along `dirs`, given
    their `_traverse` results (see `synthesize_image`)."""
    tt = np.clip((dirs[:, 2] + 1.0) * 0.5, 0.0, 1.0)[:, None]
    img = (1.0 - tt) * _SKY_HORIZON + tt * _SKY_ZENITH
    if np.any(hit):
        idx = hit_idx[hit]
        cls = labels[idx[:, 0], idx[:, 1], idx[:, 2]]
        tex_vox = np.stack(
            [_hash01(idx[:, 0], idx[:, 1], idx[:, 2], s) for s in range(3)], axis=1
        )
        # the smooth component is a function of the struck surface point, so
        # reprojections between cameras stay photometrically consistent
        pts = origins[hit] + depth[hit, None] * dirs[hit]
        tex_smooth = _surface_texture(pts)
        shade = 1.0 / (1.0 + 0.008 * depth[hit])[:, None]
        img[hit] = (
            _CLASS_COLORS[cls] * (0.78 + 0.06 * tex_vox + 0.16 * tex_smooth) * shade
        )
    return np.clip(img, 0.0, 1.0)


_TEX_FREQ = np.array(
    [[0.95, 0.55, 1.15], [0.45, 1.05, 0.65], [0.75, 0.35, 0.85]]
)
_TEX_PHASE = np.array([0.4, 1.9, 3.1])


def _surface_texture(points: np.ndarray) -> np.ndarray:
    """Smooth per-channel texture in [0, 1] over world positions."""
    args = points @ _TEX_FREQ.T + _TEX_PHASE
    return 0.5 + 0.5 * np.sin(args)


def sparse_lidar(gt_depth: DepthMap, n: int, seed: int) -> np.ndarray:
    """Sample n valid pixels uniformly without replacement.

    Returns [(u, v, depth)] rows, deterministic from the seed.
    """
    vs, us = np.nonzero(gt_depth.valid)
    if n > vs.size:
        raise ValueError(f"requested {n} samples but only {vs.size} pixels are valid")
    rng = np.random.default_rng(seed)
    pick = rng.choice(vs.size, size=n, replace=False)
    return np.stack(
        [us[pick].astype(np.float64), vs[pick].astype(np.float64),
         gt_depth.depth[vs[pick], us[pick]]],
        axis=1,
    )


def _yaw_mount(theta: float, center: np.ndarray) -> Pose:
    """Camera->ego mounting: optical axis at yaw theta, level, y down."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[s, 0.0, c], [-c, 0.0, s], [0.0, -1.0, 0.0]])
    offset = center + np.array(
        [_MOUNT_RADIUS * c, _MOUNT_RADIUS * s, _MOUNT_HEIGHT]
    )
    return Pose(rot, offset)


def _make_rig(
    preset: str,
    num_cameras: int,
    image_size: tuple[int, int],
    ego_base: np.ndarray,
    forward: np.ndarray,
    advance: float,
    yaw: float,
) -> CameraRig:
    h, w = image_size
    # corridor uses a narrow lens that keeps the whole frustum on the end
    # wall; the open presets use a wide ring with overlapping neighbors
    focal = 3.8 * w if preset == "corridor" else 0.42 * w
    intr = Intrinsics(
        fx=focal, fy=focal, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0, width=w, height=h
    )
    cams = tuple(
        Camera(intr, _yaw_mount(2.0 * np.pi * k / num_cameras, np.zeros(3)))
        for k in range(num_cameras)
    )
    c, s = np.cos(yaw), np.sin(yaw)
    rot1 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    ego = {
        0: Pose(np.eye(3), ego_base),
        1: Pose(rot1, ego_base + advance * forward),
    }
    return CameraRig(cams, ego)


def _cell_center(spec: VoxelGridSpec, ix: int, iy: int, iz: int) -> np.ndarray:
    return spec.origin + (np.array([ix, iy, iz]) + 0.5) * spec.voxel_size


def _clear_column(labels: np.ndarray, cx: float, cy: float, radius: float, vs: float):
    """Free all interior voxels within a horizontal radius of (cx, cy)."""
    x, y, z = labels.shape
    ix, iy = np.meshgrid(np.arange(x), np.arange(y), indexing="ij")
    d2 = ((ix + 0.5) - cx) ** 2 + ((iy + 0.5) - cy) ** 2
    inside = d2 <= (radius / vs) ** 2
    labels[inside, 1 : z - 1] = NUM_CLASSES


def _build_corridor(rng: np.random.Generator, dims: tuple[int, int, int]) -> np.ndarray:
    x, y, z = dims
    labels = np.full(dims, NUM_CLASSES, dtype=np.int64)
    labels[:, :, 0] = 2  # floor
    labels[:, :, z - 1] = 2  # ceiling
    labels[:, 0, :] = 0  # side walls
    labels[:, y - 1, :] = 0
    labels[x - 1, :, :] = 1  # end wall
    return labels


def _build_boxes(rng: np.random.Generator, dims: tuple[int, int, int]) -> np.ndarray:
    x, y, z = dims
    labels = np.full(dims, NUM_CLASSES, dtype=np.int64)
    labels[:, :, 0] = 2  # ground
    wall_top = 1 + z // 2  # half-height perimeter wall keeps rays busy
    for sl in (np.s_[0, :], np.s_[x - 1, :], np.s_[:, 0], np.s_[:, y - 1]):
        labels[sl + (slice(1, wall_top),)] = 1
    count = int(rng.integers(5, 9))
    for _ in range(count):
        sx = int(rng.integers(1, max(2, x // 6)))
        sy = int(rng.integers(1, max(2, y // 6)))
        sz = int(rng.integers(1, z - 1))
        px = int(rng.integers(0, x - sx))
        py = int(rng.integers(0, y - sy))
        cls = int(rng.choice([0, 1, 3]))
        labels[px : px + sx, py : py + sy, 1 : 1 + sz] = cls
    return labels


def _build_blobs(rng: np.random.Generator, dims: tuple[int, int, int]) -> np.ndarray:
    x, y, z = dims
    labels = np.full(dims, NUM_CLASSES, dtype=np.int64)
    labels[:, :, 0] = 2
    ix, iy, iz = np.meshgrid(np.arange(x), np.arange(y), np.arange(z), indexing="ij")
    for _ in range(int(rng.integers(4, 8))):
        cx = rng.uniform(0.15 * x, 0.85 * x)
        cy = rng.uniform(0.15 * y, 0.85 * y)
        cz = rng.uniform(0.3 * z, 0.8 * z)
        r = rng.uniform(1.0, min(x, y) / 6.0)
        cls = int(rng.choice([0, 1, 3]))
        inside = (ix + 0.5 - cx) ** 2 + (iy + 0.5 - cy) ** 2 + (iz + 0.5 - cz) ** 2 <= r**2
        labels[inside] = cls
    return labels


def build_scene(scene: SceneConfig) -> SceneBundle:
    """Generate the deterministic scene bundle that `scene` describes.

    `scene` has passed its own checks: among others, the grid is desk scale
    (every extent <= 64). The ego sits inside the scene on a free column,
    moves 0.5-2 m with <= 5 degrees of yaw between the two timestamps, and
    carries `scene.num_cameras` cameras in a ring. `scene.sigma_occ` is the
    density on occupied voxels; at the default 50/m and 0.4 m voxels a single
    voxel is effectively opaque, which is the regime where the first-hit
    oracle comparison is meaningful. A camera centre in an occupied voxel,
    at either timestamp, is a ValueError that names the camera and voxel.
    """
    preset, image_size, spec = scene.preset, scene.image_size, scene.spec()
    rng = np.random.default_rng(scene.seed)
    x, y, z = spec.dims
    if preset == "corridor":
        labels = _build_corridor(rng, spec.dims)
        ego_cell = (2, y // 2, z // 2)
        forward = np.array([1.0, 0.0, 0.0])
    elif preset == "boxes":
        labels = _build_boxes(rng, spec.dims)
        ego_cell = (x // 2, y // 2, z // 2)
        forward = None
    else:
        labels = _build_blobs(rng, spec.dims)
        ego_cell = (x // 2, y // 2, z // 2)
        forward = None
    ego_base = _cell_center(spec, *ego_cell)
    advance = rng.uniform(0.5, 2.0)
    yaw = np.deg2rad(rng.uniform(-5.0, 5.0))
    if forward is None:
        angle = rng.uniform(-np.pi / 6.0, np.pi / 6.0)
        forward = np.array([np.cos(angle), np.sin(angle), 0.0])
        # keep the camera ring in free space at both timestamps
        clear_r = _MOUNT_RADIUS + 0.6
        for pos in (ego_base, ego_base + advance * forward):
            gx = (pos[0] - spec.origin[0]) / spec.voxel_size
            gy = (pos[1] - spec.origin[1]) / spec.voxel_size
            _clear_column(labels, gx, gy, clear_r, spec.voxel_size)
    rig = _make_rig(preset, scene.num_cameras, image_size, ego_base, forward, advance, yaw)
    grid = SemanticOccupancy(labels, NUM_CLASSES)
    # every view's rays, timestamp by timestamp, go through one traversal;
    # each ray's result depends only on its own origin and direction
    keys, origins, dirs = [], [], []
    for t in rig.timestamps():
        for ci in range(scene.num_cameras):
            cam = Camera(rig.cameras[ci].intrinsics, camera_pose_at(rig, ci, t))
            # a camera inside a solid would see every pixel at depth 0
            idx = tuple(int(i) for i in spec.voxel_index(cam.pose.translation))
            if all(0 <= i < d for i, d in zip(idx, spec.dims)) and grid.occupied[idx]:
                raise ValueError(
                    f"scene: camera {ci} at timestamp {t} sits in occupied voxel {idx}"
                )
            origin, view_dirs = view_rays(cam, image_size)
            keys.append((ci, t))
            origins.append(np.broadcast_to(origin, view_dirs.shape))
            dirs.append(view_dirs)
    origins, dirs = np.concatenate(origins), np.concatenate(dirs)
    visible = np.zeros(spec.dims, dtype=bool)
    depth, hit, hit_idx = _traverse(grid.occupied, spec, origins, dirs, visible)
    h, w = image_size
    images: dict[tuple[int, int], np.ndarray] = {}
    gt_depths: dict[tuple[int, int], DepthMap] = {}
    # shaded view by view, so `_surface_texture`'s matmul gets the same rows
    # as in `synthesize_image`: BLAS may round differently at another shape
    for k, key in enumerate(keys):
        view = slice(k * h * w, (k + 1) * h * w)
        gt_depths[key] = DepthMap(depth=depth[view].reshape(h, w), valid=hit[view].reshape(h, w))
        images[key] = _shade(
            grid.labels, origins[view], dirs[view], depth[view], hit[view], hit_idx[view]
        ).reshape(h, w, 3)
    return SceneBundle(scene, grid, rig, images, gt_depths, visible)


def save_scene(bundle: SceneBundle, directory) -> None:
    """Persist a bundle: scene.json, raw label/visibility grids, PPM images,
    PFM depths with PGM validity masks. Byte-deterministic: scene.json
    holds `bundle.scene`, its grid geometry under `spec` and cameras under
    `rig`, with floats written as floats even where the config gave `50`."""
    os.makedirs(os.path.join(directory, "images"), exist_ok=True)
    os.makedirs(os.path.join(directory, "depths"), exist_ok=True)
    scene, spec = bundle.scene, bundle.spec
    meta = {
        "seed": scene.seed,
        "preset": scene.preset,
        "num_classes": bundle.grid.num_classes,
        "sigma_occ": float(scene.sigma_occ),
        "image_size": list(scene.image_size),
        "spec": {
            "dims": list(spec.dims),
            "origin": [float(v) for v in spec.origin],
            "voxel_size": spec.voxel_size,
        },
        "rig": rig_to_json(bundle.rig),
    }
    with open(os.path.join(directory, "scene.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    bundle.grid.labels.astype(np.uint8).tofile(os.path.join(directory, "grid.raw"))
    bundle.visible.astype(np.uint8).tofile(os.path.join(directory, "visible.raw"))
    for (ci, t), img in sorted(bundle.images.items()):
        formats.write_ppm(os.path.join(directory, "images", f"cam{ci}_t{t}.ppm"), img)
    for (ci, t), dm in sorted(bundle.gt_depths.items()):
        base = os.path.join(directory, "depths", f"cam{ci}_t{t}")
        save_depth_pfm(dm, base + ".pfm")
        save_valid_pgm(dm, base + "_valid.pgm")


def _read_raw_grid(directory, name: str, dims: tuple[int, int, int]) -> np.ndarray:
    """One byte per voxel, checked against the grid's voxel count."""
    path = os.path.join(directory, name)
    data = np.fromfile(path, dtype=np.uint8)
    if data.size != int(np.prod(dims)):
        raise ValueError(
            f"{path}: {data.size} bytes, expected {int(np.prod(dims))} for grid dims {dims}"
        )
    return data.reshape(dims)


def load_scene(directory) -> SceneBundle:
    """Load a persisted bundle.

    scene.json is read like the config, with `formats.read_fields`, and
    passes the checks of `SceneConfig` and the camera classes; the bundle
    keeps that `SceneConfig`, with `num_cameras` the length of `rig.cameras`.
    Images come back 8-bit quantized and depths float32-rounded. Raises
    ValueError naming the file (in scene.json also the key, e.g.
    `rig.cameras[1].fx`) on a bad value, a `num_classes` other than
    `NUM_CLASSES`, a raw grid whose byte count differs from the voxel count,
    an image or depth map that differs from `image_size`, or a label above
    `num_classes` (the free label).
    """
    path = os.path.join(directory, "scene.json")
    hints = typing.get_type_hints(SceneConfig)
    spec_hints = {k: hints.pop(k) for k in ("dims", "origin", "voxel_size")}
    del hints["num_cameras"]  # the length of rig.cameras
    with open(path) as f, formats.naming(path):
        meta = formats.read_fields(
            json.load(f), {**hints, "num_classes": int, "spec": object, "rig": object}, ""
        )
        spec = formats.read_fields(meta.pop("spec"), spec_hints, "spec")
        rig = rig_from_json(meta.pop("rig"))
        num_classes = meta.pop("num_classes")
        if num_classes != NUM_CLASSES:
            raise ValueError(f"num_classes: {num_classes}, expected {NUM_CLASSES}")
        scene = SceneConfig(**meta, **spec, num_cameras=len(rig.cameras))
    spec = scene.spec()
    labels = _read_raw_grid(directory, "grid.raw", spec.dims)
    if labels.max() > num_classes:
        raise ValueError(
            f"{os.path.join(directory, 'grid.raw')}: label {labels.max()} "
            f"above num_classes {num_classes} of {path}"
        )
    visible = _read_raw_grid(directory, "visible.raw", spec.dims).astype(bool)
    grid = SemanticOccupancy(labels, num_classes)
    images = {}
    gt_depths = {}
    for t in rig.timestamps():
        for ci in range(len(rig.cameras)):
            images[(ci, t)] = formats.read_ppm(
                os.path.join(directory, "images", f"cam{ci}_t{t}.ppm"), scene.image_size
            )
            base = os.path.join(directory, "depths", f"cam{ci}_t{t}")
            depth = formats.read_pfm(base + ".pfm", scene.image_size)
            valid = formats.read_pgm(base + "_valid.pgm", scene.image_size) > 0
            gt_depths[(ci, t)] = DepthMap(depth=depth, valid=valid)
    return SceneBundle(scene, grid, rig, images, gt_depths, visible)
