"""Pinhole camera rig: projection, unprojection, rays, relative poses.

Conventions, fixed once and used everywhere:
  * camera frame: x right, y down, z forward; depth is the camera-frame z.
  * pixel coordinates: u along columns (x), v along rows (y); pixel centers
    at integer coordinates.
  * pixel rays (pixel_grid, camera_rays, view_rays, ray_blocks), the
    pinhole projection (pinhole), the ray-box slab test (_box_span) and
    relative poses (relative_pose) are written once here; others call them.
  * Camera.pose maps camera coordinates into the rig anchor frame (the ego
    body); with an identity ego pose that anchor IS the world frame.
  * CameraRig.ego_poses[t] maps ego coordinates at timestamp t into world
    coordinates. Ego motion between t and t' therefore acts on points as
    ego_poses[t']^-1 . ego_poses[t].
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .formats import naming, read_fields
from .tensor import _in_image, as_tensor

_ORTHO_TOL = 1e-9
# consecutive pixels per block of ray_blocks: the rays a full-view pass (the
# renderer's plan builder, the DDA depth oracle) builds and walks at a time,
# which bounds its working memory at any resolution
_RAY_BLOCK = 8192


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        size = (self.width, self.height)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in size):
            raise ValueError(f"image width and height must be integers, got {size}")
        if not all(np.isfinite(f) and f > 0 for f in (self.fx, self.fy)):
            raise ValueError(
                f"focal lengths must be finite and positive, got ({self.fx}, {self.fy})"
            )
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside "
                f"{self.width}x{self.height} image"
            )

    def scaled(self, width: int, height: int) -> "Intrinsics":
        """Intrinsics for the same lens resampled to width x height.

        Uses the half-pixel-aware mapping so pixel centers stay aligned
        between resolutions.
        """
        sx = width / self.width
        sy = height / self.height
        return Intrinsics(
            fx=self.fx * sx,
            fy=self.fy * sy,
            cx=(self.cx + 0.5) * sx - 0.5,
            cy=(self.cy + 0.5) * sy - 0.5,
            width=width,
            height=height,
        )


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = as_tensor(self.rotation)
        t = as_tensor(self.translation).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"translation must be finite, got {t}")
        if not np.allclose(r.T @ r, np.eye(3), atol=_ORTHO_TOL):
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one 3-vector or an [... x 3] stack of points."""
        p = as_tensor(points)
        return p @ self.rotation.T + self.translation


class Camera(NamedTuple):
    intrinsics: Intrinsics
    pose: Pose  # camera -> rig anchor


@dataclass(frozen=True, eq=False)
class CameraRig:
    """A set of rigidly mounted cameras plus a timestamped ego trajectory."""

    cameras: tuple[Camera, ...]
    ego_poses: dict[int, Pose]

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(Camera(*c) for c in self.cameras))
        if not self.cameras or not self.ego_poses:
            raise ValueError("rig needs at least one camera and one ego pose")
        ts = list(self.ego_poses.keys())
        if any(not isinstance(t, int) or t < 0 for t in ts):
            raise ValueError(f"ego pose timestamps must be nonnegative integers, got {ts}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"timestamps must be strictly increasing, got {ts}")

    def timestamps(self) -> list[int]:
        return list(self.ego_poses.keys())


def camera_pose_at(rig: CameraRig, cam: int, timestamp: int) -> Pose:
    """World pose (camera -> world) of camera `cam` at `timestamp`."""
    if not 0 <= cam < len(rig.cameras):
        raise IndexError(f"camera index {cam} out of range for rig of {len(rig.cameras)}")
    if timestamp not in rig.ego_poses:
        raise KeyError(f"timestamp {timestamp} not in rig ({rig.timestamps()})")
    return rig.ego_poses[timestamp].compose(rig.cameras[cam].pose)


def pinhole(intr: Intrinsics, points_cam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinhole projection of [N x 3] camera-frame points: (u [N], v [N],
    front [N]). front marks camera-frame z > 1e-9; the other points are
    projected with z taken as 1, so their u and v stay finite."""
    z = points_cam[:, 2]
    front = z > 1e-9
    zsafe = np.where(front, z, 1.0)
    u = intr.fx * points_cam[:, 0] / zsafe + intr.cx
    v = intr.fy * points_cam[:, 1] / zsafe + intr.cy
    return u, v, front


def project_points(
    intr: Intrinsics, pose: Pose, points_world: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pinhole projection of [N x 3] world points.

    Returns (uv [N x 2], depth [N], visible [N]). Points with camera-frame
    z <= 1e-9 are marked invisible and get a finite placeholder uv of (0, 0);
    visibility additionally requires uv inside the sampleable image region.
    """
    p = as_tensor(points_world).reshape(-1, 3)
    cam_pts = pose.inverse().apply(p)
    u, v, front = pinhole(intr, cam_pts)
    uv = np.stack([np.where(front, u, 0.0), np.where(front, v, 0.0)], axis=1)
    visible = front & _in_image(uv[:, 0], uv[:, 1], intr.height, intr.width)
    return uv, cam_pts[:, 2], visible


def pixel_grid(h: int, w: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """(u, v) of the pixels [start, stop) of an h x w image in row-major
    order (every pixel by default), [(stop - start) x 2]: pixel i is
    (i % w, i // w)."""
    stop = h * w if stop is None else stop
    first = start // w  # the rows the range spans
    us, vs = np.meshgrid(
        np.arange(w, dtype=np.float64), np.arange(first, -(-stop // w), dtype=np.float64)
    )
    return np.stack([us.ravel(), vs.ravel()], axis=1)[start - first * w : stop - first * w]


def camera_rays(intr: Intrinsics, uvs: np.ndarray) -> np.ndarray:
    """Camera-frame rays through [N x 2] pixel coords, scaled to z = 1, [N x 3]."""
    uvs = as_tensor(uvs).reshape(-1, 2)
    return np.stack(
        [
            (uvs[:, 0] - intr.cx) / intr.fx,
            (uvs[:, 1] - intr.cy) / intr.fy,
            np.ones(uvs.shape[0]),
        ],
        axis=1,
    )


def unit_camera_rays(intr: Intrinsics, uvs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """camera_rays scaled to unit length, plus their z = 1 lengths |h|
    (a camera-frame depth times |h| is the distance along the ray)."""
    h = camera_rays(intr, uvs)
    norms = np.linalg.norm(h, axis=1)
    return h / norms[:, None], norms


def pixel_directions(intr: Intrinsics, pose: Pose, uvs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit world-frame ray directions for [N x 2] pixel coords, plus the
    camera-frame direction norms |h| (needed to convert z-depth to ray length).
    Each direction depends only on its pixel: a lone pixel's equals its row
    of any call over many pixels bit for bit."""
    units, norms = unit_camera_rays(intr, uvs)
    if units.shape[0] == 1:
        # numpy multiplies a lone row through BLAS's matrix-vector product,
        # which can round differently from the matrix product of many rows
        return (np.repeat(units, 2, 0) @ pose.rotation.T)[:1], norms
    return units @ pose.rotation.T, norms


def view_rays(
    cam: Camera, resolution: tuple[int, int], start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The origin [3] and the unit world directions [(stop - start) x 3] of
    the pixels [start, stop) of a view at resolution (H, W), in row-major
    order; every pixel by default. Each ray depends only on its pixel, so
    the rays of consecutive ranges concatenate to the whole view's bit for
    bit (see ray_blocks). Intrinsics are rescaled when the resolution
    differs from their native size."""
    intr, pose = cam
    h, w = resolution
    if (intr.height, intr.width) != (h, w):
        intr = intr.scaled(w, h)
    return pose.translation.copy(), pixel_directions(intr, pose, pixel_grid(h, w, start, stop))[0]


def ray_blocks(cam: Camera, resolution: tuple[int, int]):
    """The rays of a view at resolution (H, W), _RAY_BLOCK consecutive
    row-major pixels at a time: (start, stop, origin [3], dirs
    [(stop - start) x 3]) per block, from view_rays. A full-view pass that
    takes one block at a time holds one block of rays at any resolution."""
    n = resolution[0] * resolution[1]
    for start in range(0, n, _RAY_BLOCK):
        stop = min(start + _RAY_BLOCK, n)
        yield (start, stop, *view_rays(cam, resolution, start, stop))


def _box_span(lo, hi, origins, dirs):
    """Slab test: each ray's entry and exit distances along its line
    through the box [lo, hi], for origins [N x 3] or one shared [3]; the
    ray crosses the box ahead of its origin iff exit > max(entry, 0). The
    entry is bit for bit np.nanmax over the three slabs, and the exit
    np.nanmin but for the sign of a zero. A slab the ray runs along bounds
    nothing from inside it, and from outside or on one of its faces
    (0 / 0 is NaN) gives an entry of +inf or an exit of -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - origins) / dirs
        t2 = (hi - origins) / dirs
    near, far = np.fmin(t1, t2), np.fmax(t1, t2)
    # column by column is faster than np.nanmax / np.nanmin and differs
    # only in the sign of a zero: the exit is only compared, and the
    # entry's zeros (which can reach a depth) come from np.nanmax itself
    t_enter = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
    zero = np.flatnonzero(t_enter == 0.0)
    t_enter[zero] = np.nanmax(near[zero], axis=1)
    t_exit = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
    return t_enter, t_exit


def relative_pose(rig: CameraRig, i: int, j: int, t: int, t2: int) -> Pose:
    """Composite transform mapping camera-i coordinates at time t into
    camera-j coordinates at time t2:
        mount_j^-1 . (ego_poses[t2]^-1 . ego_poses[t]) . mount_i,
    the ego motion conjugated into the camera frames by the mountings. At
    one time (t2 == t) the ego term is left out, so the pose is
    mount_j^-1 . mount_i exactly.
    """
    for c, ts in ((i, t), (j, t2)):
        camera_pose_at(rig, c, ts)  # raises on a camera or timestamp the rig lacks
    rel = rig.cameras[j].pose.inverse()
    if t2 != t:
        rel = rel.compose(rig.ego_poses[t2].inverse().compose(rig.ego_poses[t]))
    return rel.compose(rig.cameras[i].pose)


def _pose_to_json(pose: Pose) -> dict:
    return {
        "rotation": [float(x) for x in pose.rotation.ravel()],
        "translation": [float(x) for x in pose.translation],
    }


_POSE_JSON = {"rotation": tuple[(float,) * 9], "translation": tuple[float, float, float]}
_CAMERA_JSON = {**typing.get_type_hints(Intrinsics), **_POSE_JSON}


def _pose_from_json(d: dict) -> Pose:
    return Pose(np.array(d.pop("rotation")).reshape(3, 3), np.array(d.pop("translation")))


def rig_to_json(rig: CameraRig) -> dict:
    """Explicit-field JSON form of a rig (rotations row-major, 9 floats)."""
    return {
        "cameras": [{**asdict(c.intrinsics), **_pose_to_json(c.pose)} for c in rig.cameras],
        "ego_poses": [
            {"timestamp": int(t), **_pose_to_json(p)} for t, p in rig.ego_poses.items()
        ],
    }


def rig_from_json(d) -> CameraRig:
    """The rig of `rig_to_json`'s form, read with `formats.read_fields`."""
    d = read_fields(d, {"cameras": list, "ego_poses": list}, "rig")
    cams, ego = [], {}
    for i, c in enumerate(d["cameras"]):
        c = read_fields(c, _CAMERA_JSON, f"rig.cameras[{i}]")
        with naming(f"rig.cameras[{i}]"):
            pose = _pose_from_json(c)
            cams.append(Camera(Intrinsics(**c), pose))
    for i, e in enumerate(d["ego_poses"]):
        e = read_fields(e, {"timestamp": int, **_POSE_JSON}, f"rig.ego_poses[{i}]")
        if e["timestamp"] in ego:
            raise ValueError(f"rig.ego_poses[{i}].timestamp: {e['timestamp']} repeats")
        with naming(f"rig.ego_poses[{i}]"):
            ego[e["timestamp"]] = _pose_from_json(e)
    return CameraRig(tuple(cams), ego)
