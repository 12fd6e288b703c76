"""Shared construction helpers and reference checks for the test suite."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from occgeom.camera import (
    Camera,
    CameraRig,
    Intrinsics,
    Pose,
    camera_rays,
    pinhole,
    pixel_directions,
    pixel_grid,
    project_points,
    unit_camera_rays,
)
from occgeom.cast import PairGeometry, _warp_core
from occgeom.renderer import DepthMap, RenderConfig, _render_batch
from occgeom.synthscene import SceneBundle
from occgeom.tensor import as_tensor


def rotation_from_angles(yaw: float, pitch: float = 0.0, roll: float = 0.0) -> np.ndarray:
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1.0]])
    ry = np.array([[cp, 0, sp], [0, 1.0, 0], [-sp, 0, cp]])
    rx = np.array([[1.0, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


def identity_pose() -> Pose:
    return Pose(np.eye(3), np.zeros(3))


def random_pose(rng: np.random.Generator, scale: float = 2.0) -> Pose:
    angles = rng.uniform(-np.pi, np.pi, 3)
    return Pose(
        rotation_from_angles(*angles), rng.uniform(-scale, scale, 3)
    )


def level_camera_mount(yaw: float, offset: np.ndarray) -> Pose:
    """Camera->body pose: optical axis horizontal at `yaw`, image y down."""
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[s, 0.0, c], [-c, 0.0, s], [0.0, -1.0, 0.0]])
    return Pose(rot, np.asarray(offset, dtype=np.float64))


def simple_rig(n_cameras: int = 2, with_motion: bool = True) -> CameraRig:
    intr = Intrinsics(fx=60.0, fy=60.0, cx=19.5, cy=14.5, width=40, height=30)
    cams = tuple(
        Camera(intr, level_camera_mount(2 * np.pi * k / n_cameras, [0.3, 0.1 * k, 0.0]))
        for k in range(n_cameras)
    )
    if with_motion:
        yaw = 0.04
        rot = rotation_from_angles(yaw)
        ego = {0: identity_pose(), 1: Pose(rot, np.array([0.8, 0.15, 0.0]))}
    else:
        ego = {0: identity_pose(), 1: identity_pose()}
    return CameraRig(cams, ego)


def project(cam: Camera, point_world) -> tuple[np.ndarray, float, bool]:
    """Project a single world point; see camera.project_points."""
    intr, pose = cam
    uv, z, vis = project_points(intr, pose, as_tensor(point_world).reshape(1, 3))
    return uv[0], float(z[0]), bool(vis[0])


def unproject(cam: Camera, uv, depth: float) -> np.ndarray:
    """Inverse of project: the world point at pixel uv with camera-frame depth."""
    if depth <= 0:
        raise ValueError(f"unproject needs depth > 0, got {depth}")
    intr, pose = cam
    return pose.apply(camera_rays(intr, uv)[0] * depth)


def ray(cam: Camera, uv) -> tuple[np.ndarray, np.ndarray]:
    """Ray through pixel uv: (origin_world, unit direction_world)."""
    intr, pose = cam
    d, _ = pixel_directions(intr, pose, as_tensor(uv).reshape(1, 2))
    return pose.translation.copy(), d[0]


def trilinear_oracle(vol: np.ndarray, xyz: np.ndarray):
    """Reference trilinear sampling, one point and one corner at a time.

    vol is [X x Y x Z] or [C x X x Y x Z]; xyz [N x 3] grid coordinates with
    cell centers at integers. A point outside [-0.5, dim-0.5] on any axis
    reads 0 and has no corners; inside, corners past the grid's edge are
    skipped. Each kept corner is weighed (wx*wy)*wz, in (dx, dy, dz) order
    with dz fastest.

    Returns (values [N] or [N x C], terms), where terms[n] lists point n's
    in-grid corners as ((x, y, z), weight).
    """
    vol = np.asarray(vol, dtype=np.float64)
    dims = vol.shape[-3:]
    values = np.zeros((len(xyz),) + vol.shape[:-3])
    terms = []
    for n, p in enumerate(np.asarray(xyz, dtype=np.float64)):
        kept = []
        if all(-0.5 <= p[a] <= dims[a] - 0.5 for a in range(3)):
            lo = [int(np.floor(c)) for c in p]
            f = [float(p[a] - lo[a]) for a in range(3)]
            for dx in (0, 1):
                for dy in (0, 1):
                    for dz in (0, 1):
                        cell = (lo[0] + dx, lo[1] + dy, lo[2] + dz)
                        if not all(0 <= cell[a] < dims[a] for a in range(3)):
                            continue
                        wx, wy, wz = (f[a] if d else 1.0 - f[a]
                                      for a, d in enumerate((dx, dy, dz)))
                        w = (wx * wy) * wz
                        kept.append((cell, w))
                        values[n] += vol[(..., *cell)] * w
        terms.append(kept)
    return values, terms


def render_ray(
    sigma: np.ndarray, t_near: float, t_far: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Render one midpoint-sampled ray of densities sigma [S] through the
    renderer's batch core. Returns (depth, opacity, weights [S],
    d(depth)/d(sigma) [S])."""
    t, deltas = RenderConfig(samples=len(sigma), t_near=t_near, t_far=t_far).sample_distances()
    rows = as_tensor(sigma)[None, :]
    depth, opacity, weights, jac = _render_batch(rows, t[None, :], deltas[None, :])
    return float(depth[0]), float(opacity[0]), weights[0], jac[0]


def grad_check(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    analytic_grad: np.ndarray,
    eps: float = 1e-4,
) -> float:
    """Central-difference check of an analytic gradient.

    Returns max over coordinates of |central difference - analytic| /
    (|analytic| + 1e-8). Raises RuntimeError if f goes non-finite at any
    probe point.
    """
    x = as_tensor(x)
    g = as_tensor(analytic_grad)
    if x.shape != g.shape:
        raise ValueError(f"gradient shape {g.shape} does not match input {x.shape}")
    flat = x.ravel().copy()
    gflat = g.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(flat.reshape(x.shape)))
        flat[i] = orig - eps
        fm = float(f(flat.reshape(x.shape)))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise RuntimeError(f"objective non-finite at coordinate {i} (eps={eps})")
        cd = (fp - fm) / (2.0 * eps)
        err = abs(cd - gflat[i]) / (abs(gflat[i]) + 1e-8)
        worst = max(worst, err)
    return worst


def _erode(mask: np.ndarray) -> np.ndarray:
    """3x3 erosion; pixels outside the image count as unset."""
    h, w = mask.shape
    padded = np.pad(mask, 1)
    out = mask.copy()
    for dy in range(3):
        for dx in range(3):
            out &= padded[dy : dy + h, dx : dx + w]
    return out


def covisibility_mask(
    bundle: SceneBundle,
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
    h, w = bundle.scene.image_size
    units, _ = unit_camera_rays(k_tgt, pixel_grid(h, w))
    p_tgt = bundle.gt_depths[target].depth.ravel()[:, None] * units
    p_src = source_to_target.inverse().apply(p_tgt)
    d_src = np.linalg.norm(p_src, axis=1)
    uf, vf, front = pinhole(k_src, p_src)
    sdm = bundle.gt_depths[source]
    ok = front.copy()
    for cu in (np.floor, np.ceil):
        for cvf in (np.floor, np.ceil):
            u = np.clip(cu(uf).astype(np.int64), 0, w - 1)
            v = np.clip(cvf(vf).astype(np.int64), 0, h - 1)
            ok &= sdm.valid[v, u] & (np.abs(sdm.depth[v, u] - d_src) < depth_tol)
    return _erode(np.asarray(warp_valid, dtype=bool) & ok.reshape(h, w))


def warp(src_img, target_depth: DepthMap, pose: Pose, k_src: Intrinsics, k_tgt: Intrinsics):
    """cast._warp_core on ContextPlan's geometry for the source->target `pose`."""
    inv = pose.inverse()
    units = unit_camera_rays(k_tgt, pixel_grid(*target_depth.depth.shape))[0]
    geom = PairGeometry(k_src, inv, units, units @ inv.rotation.T)
    return _warp_core(src_img, target_depth, geom)
