"""Procedural voxel worlds and exact first-hit oracles for testing.

Scenes are deterministic functions of a seed: a labeled voxel grid, a
camera ring on a two-timestamp ego trajectory, hash-textured images of the
first-hit voxels, and ground-truth depth from an exact DDA voxel traversal
(no sampling discretization). The traversal also collects the set of voxels
any camera ray crosses, which serves as the evaluation visibility mask.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import formats
from .camera import (
    Camera,
    CameraRig,
    Intrinsics,
    Pose,
    camera_pose_at,
    pixel_directions,
    rig_from_json,
    rig_to_json,
)
from .occ_encdec import SemanticOccupancy
from .renderer import DensityField, DepthMap
from .view_transform import VoxelGridSpec

PRESETS = ("boxes", "corridor", "random_blobs")
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
class SceneBundle:
    """A synthetic world plus everything the tests need to probe it."""

    grid: SemanticOccupancy
    density_gt: DensityField
    rig: CameraRig
    images: dict[tuple[int, int], np.ndarray]
    gt_depths: dict[tuple[int, int], DepthMap]
    visible: np.ndarray
    seed: int
    preset: str
    sigma_occ: float
    image_size: tuple[int, int]

    @property
    def spec(self) -> VoxelGridSpec:
        return self.density_gt.spec


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


def _traverse(
    occupied: np.ndarray,
    spec: VoxelGridSpec,
    origins: np.ndarray,
    dirs: np.ndarray,
    visible: np.ndarray | None = None,
):
    """Amanatides-Woo DDA over all rays at once.

    origins and dirs are [N x 3] with unit directions; returns
    (depth [N], hit [N] bool, hit_idx [N x 3]). depth is the metric ray
    distance to the entry face of the first occupied voxel (0 when the ray
    starts inside one). When `visible` is given, every traversed voxel up
    to and including the hit is marked. Axis ties step the lowest axis, so
    traversal order is deterministic.
    """
    dims = np.array(spec.dims)
    vs = spec.voxel_size
    lo = spec.origin
    hi = lo + dims * vs
    n = origins.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origins) / dirs
        t2 = (hi - origins) / dirs
    t_enter = np.nanmax(np.fmin(t1, t2), axis=1)
    t_exit = np.nanmin(np.fmax(t1, t2), axis=1)
    t0 = np.maximum(t_enter, 0.0)
    active = t_exit > t0
    start = origins + (t0 + 1e-9)[:, None] * dirs
    cell = np.clip(np.floor((start - lo) / vs).astype(np.int64), 0, dims - 1)
    step = np.sign(dirs).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = lo + (cell + (step > 0)) * vs
        t_max = np.where(dirs != 0, (boundary - origins) / dirs, np.inf)
        t_delta = np.where(dirs != 0, vs / np.abs(dirs), np.inf)
    t_entry = t0.copy()
    depth = np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    hit_idx = np.zeros((n, 3), dtype=np.int64)
    for _ in range(int(dims.sum()) + 4):
        if not np.any(active):
            break
        ai = np.flatnonzero(active)
        cx, cy, cz = cell[ai, 0], cell[ai, 1], cell[ai, 2]
        if visible is not None:
            visible[cx, cy, cz] = True
        occ = occupied[cx, cy, cz]
        hits = ai[occ]
        if hits.size:
            hit[hits] = True
            depth[hits] = t_entry[hits]
            hit_idx[hits] = cell[hits]
            active[hits] = False
            ai = ai[~occ]
        if ai.size == 0:
            continue
        axis = np.argmin(t_max[ai], axis=1)
        rows = (ai, axis)
        t_entry[ai] = t_max[rows]
        cell[rows] += step[rows]
        t_max[rows] += t_delta[rows]
        moved = cell[rows]
        out = (moved < 0) | (moved >= dims[axis]) | (t_entry[ai] > t_exit[ai])
        active[ai[out]] = False
    return depth, hit, hit_idx


def _view_rays(cam: Camera, resolution: tuple[int, int]):
    intr, pose = cam
    h, w = resolution
    if (intr.height, intr.width) != (h, w):
        intr = intr.scaled(w, h)
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    uvs = np.stack([us.ravel(), vs.ravel()], axis=1)
    dirs, _ = pixel_directions(intr, pose, uvs)
    origins = np.broadcast_to(pose.translation, dirs.shape).copy()
    return origins, dirs


def raymarch_depth_oracle(
    grid: SemanticOccupancy,
    spec: VoxelGridSpec,
    cam: Camera,
    resolution: tuple[int, int],
    visible: np.ndarray | None = None,
) -> DepthMap:
    """Exact first-hit depth by DDA voxel traversal (the rendering oracle)."""
    occ = grid.labels != grid.num_classes
    origins, dirs = _view_rays(cam, resolution)
    depth, hit, _ = _traverse(occ, spec, origins, dirs, visible)
    h, w = resolution
    return DepthMap(
        depth=depth.reshape(h, w),
        valid=hit.reshape(h, w),
        opacity=hit.reshape(h, w).astype(np.float64),
    )


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
    occ = grid.labels != grid.num_classes
    origins, dirs = _view_rays(cam, resolution)
    depth, hit, hit_idx = _traverse(occ, spec, origins, dirs)
    tt = np.clip((dirs[:, 2] + 1.0) * 0.5, 0.0, 1.0)[:, None]
    img = (1.0 - tt) * _SKY_HORIZON + tt * _SKY_ZENITH
    if np.any(hit):
        idx = hit_idx[hit]
        cls = grid.labels[idx[:, 0], idx[:, 1], idx[:, 2]]
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
    h, w = resolution
    return np.clip(img, 0.0, 1.0).reshape(h, w, 3)


_TEX_FREQ = np.array(
    [[0.95, 0.55, 1.15], [0.45, 1.05, 0.65], [0.75, 0.35, 0.85]]
)
_TEX_PHASE = np.array([0.4, 1.9, 3.1])


def _surface_texture(points: np.ndarray) -> np.ndarray:
    """Smooth per-channel texture in [0, 1] over world positions."""
    args = points @ _TEX_FREQ.T + _TEX_PHASE
    return 0.5 + 0.5 * np.sin(args)


def _erode(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out &= np.roll(np.roll(mask, dy, axis=0), dx, axis=1)
    return out


def covisibility_mask(
    bundle: "SceneBundle",
    source: tuple[int, int],
    target: tuple[int, int],
    source_to_target: Pose,
    warp_valid: np.ndarray,
    depth_tol: float = 0.8,
) -> np.ndarray:
    """Target pixels whose surface point is actually seen by both frames.

    A target pixel is co-visible when its ground-truth surface point, mapped
    into the source camera, lands on source pixels (all four bilinear
    corners) whose own ground-truth depth agrees within depth_tol, i.e. the
    source is not looking at an occluder there. The mask is eroded by one
    pixel so windowed photometric statistics stay on co-visible support.
    """
    k_tgt = bundle.rig.cameras[target[0]].intrinsics
    k_src = bundle.rig.cameras[source[0]].intrinsics
    h, w = bundle.image_size
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    hvec = np.stack(
        [(us - k_tgt.cx) / k_tgt.fx, (vs - k_tgt.cy) / k_tgt.fy, np.ones((h, w))],
        axis=-1,
    ).reshape(-1, 3)
    unit = hvec / np.linalg.norm(hvec, axis=1, keepdims=True)
    p_tgt = bundle.gt_depths[target].depth.ravel()[:, None] * unit
    p_src = source_to_target.inverse().apply(p_tgt)
    d_src = np.linalg.norm(p_src, axis=1)
    z = p_src[:, 2]
    front = z > 1e-9
    zs = np.where(front, z, 1.0)
    uf = k_src.fx * p_src[:, 0] / zs + k_src.cx
    vf = k_src.fy * p_src[:, 1] / zs + k_src.cy
    sdm = bundle.gt_depths[source]
    ok = front.copy()
    for cu in (np.floor, np.ceil):
        for cvf in (np.floor, np.ceil):
            u = np.clip(cu(uf).astype(np.int64), 0, w - 1)
            v = np.clip(cvf(vf).astype(np.int64), 0, h - 1)
            ok &= sdm.valid[v, u] & (np.abs(sdm.depth[v, u] - d_src) < depth_tol)
    return _erode(np.asarray(warp_valid, dtype=bool) & ok.reshape(h, w))


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


def build_scene(
    seed: int,
    spec: VoxelGridSpec,
    preset: str,
    num_cameras: int = 4,
    image_size: tuple[int, int] = (48, 80),
    sigma_occ: float = 50.0,
) -> SceneBundle:
    """Generate a deterministic scene bundle.

    The grid must be desk scale (every extent <= 64). The ego sits inside
    the scene on a free column, moves 0.5-2 m with <= 5 degrees of yaw
    between the two timestamps, and carries `num_cameras` cameras in a ring.
    sigma_occ is the density written on occupied voxels; at the default 50/m
    and 0.4 m voxels a single voxel is effectively opaque, which is the
    regime where the first-hit oracle comparison is meaningful.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    if any(d > 64 for d in spec.dims):
        raise ValueError(f"desk-scale grids only (dims <= 64), got {spec.dims}")
    if num_cameras < 2 or num_cameras > 6:
        raise ValueError(f"rig supports 2-6 cameras, got {num_cameras}")
    rng = np.random.default_rng(seed)
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
    rig = _make_rig(preset, num_cameras, image_size, ego_base, forward, advance, yaw)
    grid = SemanticOccupancy.from_labels(labels, NUM_CLASSES)
    density = DensityField(sigma_occ * (labels != NUM_CLASSES), spec)
    visible = np.zeros(spec.dims, dtype=bool)
    images: dict[tuple[int, int], np.ndarray] = {}
    gt_depths: dict[tuple[int, int], DepthMap] = {}
    for t in rig.timestamps():
        for ci in range(num_cameras):
            cam = Camera(rig.cameras[ci].intrinsics, camera_pose_at(rig, ci, t))
            gt_depths[(ci, t)] = raymarch_depth_oracle(
                grid, spec, cam, image_size, visible
            )
            images[(ci, t)] = synthesize_image(grid, spec, cam, image_size)
    return SceneBundle(
        grid=grid,
        density_gt=density,
        rig=rig,
        images=images,
        gt_depths=gt_depths,
        visible=visible,
        seed=int(seed),
        preset=preset,
        sigma_occ=float(sigma_occ),
        image_size=tuple(image_size),
    )


def save_scene(bundle: SceneBundle, directory) -> None:
    """Persist a bundle: scene.json, raw label/visibility grids, PPM images,
    PFM depths with PGM validity masks. Byte-deterministic."""
    os.makedirs(directory, exist_ok=True)
    os.makedirs(os.path.join(directory, "images"), exist_ok=True)
    os.makedirs(os.path.join(directory, "depths"), exist_ok=True)
    spec = bundle.spec
    meta = {
        "seed": bundle.seed,
        "preset": bundle.preset,
        "num_classes": bundle.grid.num_classes,
        "sigma_occ": bundle.sigma_occ,
        "image_size": list(bundle.image_size),
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
        formats.write_pfm(base + ".pfm", np.where(dm.valid, dm.depth, 0.0))
        formats.write_pgm8(base + "_valid.pgm", np.where(dm.valid, 255, 0).astype(np.uint8))


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

    Images come back 8-bit quantized and depths float32-rounded; opacity is
    reconstructed as the validity indicator. Raises ValueError naming the
    file when a raw grid's byte count differs from the voxel count, an
    image or depth map differs from `image_size`, or a label exceeds
    `num_classes` (the free label).
    """
    with open(os.path.join(directory, "scene.json")) as f:
        meta = json.load(f)
    spec = VoxelGridSpec(
        tuple(meta["spec"]["dims"]),
        np.array(meta["spec"]["origin"]),
        meta["spec"]["voxel_size"],
    )
    labels = _read_raw_grid(directory, "grid.raw", spec.dims).astype(np.int64)
    num_classes = meta["num_classes"]
    if labels.max() > num_classes:
        raise ValueError(
            f"{os.path.join(directory, 'grid.raw')}: label {labels.max()} "
            f"above num_classes {num_classes}"
        )
    visible = _read_raw_grid(directory, "visible.raw", spec.dims).astype(bool)
    rig = rig_from_json(meta["rig"])
    grid = SemanticOccupancy.from_labels(labels, num_classes)
    density = DensityField(meta["sigma_occ"] * (labels != num_classes), spec)
    images = {}
    gt_depths = {}
    h, w = meta["image_size"]

    def read(reader, path):
        data = reader(path)
        if data.shape[:2] != (h, w):
            raise ValueError(
                f"{path}: image shape {data.shape[:2]} differs from image_size {(h, w)}"
            )
        return data

    for t in rig.timestamps():
        for ci in range(len(rig.cameras)):
            images[(ci, t)] = read(
                formats.read_ppm, os.path.join(directory, "images", f"cam{ci}_t{t}.ppm")
            )
            base = os.path.join(directory, "depths", f"cam{ci}_t{t}")
            depth = read(formats.read_pfm, base + ".pfm")
            valid = read(formats.read_pgm, base + "_valid.pgm") > 0
            gt_depths[(ci, t)] = DepthMap(
                depth=depth, valid=valid, opacity=valid.astype(np.float64)
            )
    return SceneBundle(
        grid=grid,
        density_gt=density,
        rig=rig,
        images=images,
        gt_depths=gt_depths,
        visible=visible,
        seed=int(meta["seed"]),
        preset=meta["preset"],
        sigma_occ=float(meta["sigma_occ"]),
        image_size=(int(h), int(w)),
    )
