"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from occgeom.camera import Camera, CameraRig, Intrinsics, Pose


def rotation_from_angles(yaw: float, pitch: float = 0.0, roll: float = 0.0) -> np.ndarray:
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1.0]])
    ry = np.array([[cp, 0, sp], [0, 1.0, 0], [-sp, 0, cp]])
    rx = np.array([[1.0, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


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
        ego = {0: Pose.identity(), 1: Pose(rot, np.array([0.8, 0.15, 0.0]))}
    else:
        ego = {0: Pose.identity(), 1: Pose.identity()}
    return CameraRig(cams, ego)


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
