"""Context-aware photometric self-supervision across cameras and time.

A rendered target depth map turns a source image from another camera and/or
timestamp into a reconstruction of the target view (inverse warping); an
SSIM + L1 photometric loss compares reconstruction and reference, and the
weighted sum over temporal, spatial and spatial-temporal context pairs is
the self-training signal. A ContextPlan, built once per rig and
resolution, holds each context pair as one record; cast_loss and
pretrain_loss take it in place of the rig. Every loss returns its analytic
gradient with respect to the rendered depth alongside its value.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import camera as cam_mod
from .camera import CameraRig, Intrinsics, Pose
from .renderer import DepthMap
from .tensor import as_tensor, bilinear_sample_grad
from .view_transform import DepthDistribution

_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2
KINDS = ("temporal", "spatial", "spatial_temporal")


@dataclass(frozen=True)
class PhotometricConfig:
    """Loss mixing weights; defaults match the reference training recipe."""

    alpha: float = 0.85
    ssim_window: int = 3
    lambda_t: float = 1.0
    lambda_sp: float = 0.1
    lambda_spt: float = 0.03

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.ssim_window < 1 or self.ssim_window % 2 == 0:
            raise ValueError(f"ssim_window must be odd and >= 1, got {self.ssim_window}")
        for name in ("lambda_t", "lambda_sp", "lambda_spt"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class PairGeometry:
    """The depth-independent part of one context warp."""

    k_src: Intrinsics
    inv: Pose  # target-camera coords -> source-camera coords
    units: np.ndarray  # unit target ray per pixel, [H*W x 3]
    dp_dd: np.ndarray  # d(p_src)/d(depth) per pixel, [H*W x 3]


def _pair_geometry(pose: Pose, k_src: Intrinsics, units: np.ndarray) -> PairGeometry:
    inv = pose.inverse()
    return PairGeometry(k_src, inv, units, units @ inv.rotation.T)


def _warp_core(src_img: np.ndarray, target_depth: DepthMap, geom: PairGeometry):
    """(recon, valid, drecon): every target pixel is projected, but sampled
    and differentiated only where the warp is valid; other pixels stay 0.

    The validity test repeats bilinear_sample_grad's bound comparisons, and
    each kept pixel sees the same float operations as a full-image warp, so
    the result is bit-identical to sampling everything and masking
    afterwards.
    """
    src_img = as_tensor(src_img)
    if src_img.ndim != 3:
        raise ValueError(f"warp expects an H x W x C source image, got {src_img.shape}")
    sh, sw, c = src_img.shape
    h, w = target_depth.depth.shape
    k = geom.k_src
    p_src = geom.inv.apply(target_depth.depth.ravel()[:, None] * geom.units)
    u, v, front = cam_mod.pinhole(k, p_src)
    valid = (
        target_depth.valid.ravel() & front
        & (u >= 0.0) & (u <= sw - 1.0) & (v >= 0.0) & (v <= sh - 1.0)
    )
    idx = np.flatnonzero(valid)
    recon = np.zeros((h * w, c))
    drecon = np.zeros((h * w, c))
    if idx.size:
        uv = np.stack([u[idx], v[idx]], axis=1)
        recon[idx], gu, gv = bilinear_sample_grad(src_img, uv)
        # chain rule: d(recon)/d(depth) through the source projection and sampler
        p, dp = p_src[idx], geom.dp_dd[idx]
        zv = p[:, 2]
        du_dd = k.fx * (dp[:, 0] * zv - p[:, 0] * dp[:, 2]) / zv**2
        dv_dd = k.fy * (dp[:, 1] * zv - p[:, 1] * dp[:, 2]) / zv**2
        drecon[idx] = gu * du_dd[:, None] + gv * dv_dd[:, None]
    return recon.reshape(h, w, c), valid.reshape(h, w), drecon.reshape(h, w, c)


def warp_image(
    src_img: np.ndarray,
    target_depth: DepthMap,
    pose: Pose,
    k_src: Intrinsics,
    k_tgt: Intrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse-warp a source image into the target view.

    `pose` maps source-camera into target-camera coordinates, as
    camera.relative_pose gives it. Each valid target pixel is lifted to 3D
    with its rendered ray distance, mapped into the source camera by the
    inverse pose, projected, and bilinearly sampled. A pixel is valid iff
    the target depth is valid AND the source projection lands in front of
    the camera and in bounds.

    Returns:
        (recon [H x W x C], valid [H x W] bool,
         d(recon)/d(target depth) [H x W x C], zero where invalid)
    """
    units = cam_mod.unit_camera_rays(k_tgt, cam_mod.pixel_grid(*target_depth.depth.shape))[0]
    return _warp_core(src_img, target_depth, _pair_geometry(pose, k_src, units))


def _box_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Zero-padded box mean with constant divisor window^2 (self-adjoint)."""
    h, w = x.shape[:2]
    p = window // 2
    xp = np.zeros((h + 2 * p, w + 2 * p) + x.shape[2:])
    xp[p : p + h, p : p + w] = x
    out = np.zeros_like(x)
    for dy in range(window):
        for dx in range(window):
            out += xp[dy : dy + h, dx : dx + w]
    return out / float(window * window)


def _box_means(window: int, *xs: np.ndarray) -> np.ndarray:
    """The box means of same-shape arrays, from one `_box_mean` over their
    stack on a new third axis; each is what `_box_mean` gives it alone."""
    return np.moveaxis(_box_mean(np.stack(xs, axis=2), window), 2, 0)


def _ssim_stats(a: np.ndarray, b: np.ndarray, window: int):
    mu_a, mu_b, m_aa, m_bb, m_ab = _box_means(window, a, b, a * a, b * b, a * b)
    var_a = m_aa - mu_a**2
    var_b = m_bb - mu_b**2
    cov = m_ab - mu_a * mu_b
    a1 = 2.0 * mu_a * mu_b + _SSIM_C1
    a2 = 2.0 * cov + _SSIM_C2
    b1 = mu_a**2 + mu_b**2 + _SSIM_C1
    b2 = var_a + var_b + _SSIM_C2
    return mu_a, mu_b, a1, a2, b1, b2


def ssim(a: np.ndarray, b: np.ndarray, window: int = 3) -> np.ndarray:
    """Per-pixel, per-channel structural similarity on [0, 1] intensities.

    Local statistics use a zero-padded box window; output lies in [-1, 1].
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _, _, a1, a2, b1, b2 = _ssim_stats(a, b, window)
    return (a1 * a2) / (b1 * b2)


def _ssim_backward(
    a: np.ndarray, b: np.ndarray, grad_map: np.ndarray, window: int, stats, s
) -> np.ndarray:
    """Adjoint of ssim() w.r.t. its second argument.

    grad_map is dL/d(ssim map); returns dL/db. `stats` is
    _ssim_stats(a, b, window) and `s` the ssim map made from them, both
    shared with the forward pass. Derived by differentiating the windowed
    statistics; every window sum reduces to one more box filter, which is
    self-adjoint under zero padding.
    """
    mu_a, mu_b, a1, a2, b1, b2 = stats
    d = b1 * b2
    t_const = (mu_a * (a2 - a1) - s * mu_b * (b2 - b1)) / d
    t_a = a1 / d
    t_b = -s * b1 / d
    m_const, m_a, m_b = _box_means(
        window, grad_map * t_const, grad_map * t_a, grad_map * t_b
    )
    return 2.0 * (m_const + a * m_a + b * m_b)


def photometric_loss(
    ref: np.ndarray, recon: np.ndarray, valid: np.ndarray, cfg: PhotometricConfig
) -> tuple[float, np.ndarray]:
    """Mean over valid pixels of alpha/2 * (1 - SSIM) + (1 - alpha) * L1,
    and its gradient d(loss)/d(recon) [H x W x C], zero where invalid.
    Raises ValueError unless both images are [H x W x C] and `valid` [H x W].

    Both images are masked by `valid` before the SSIM statistics so that
    identical images give exactly zero regardless of the mask; invalid
    pixels are excluded from the mean. The loss and its gradient share one
    set of SSIM statistics. With no valid pixels the loss and gradient are
    0; cast_loss counts such pairs in its empty_pairs field.

    The statistics and their adjoint run only on the bounding box of
    `valid` widened by ssim_window // 2 and clipped to the image. Every
    valid pixel's window then reads the same values, the masked zeros or
    the zero padding, in the same add order, and the adjoint's box means
    weight grad_map, which is zero off the mask; the masked per-pixel
    terms go back into a full-size zero array for one np.sum. So loss and
    gradient are those of the whole image bit for bit.
    """
    ref = as_tensor(ref)
    recon = as_tensor(recon)
    if ref.shape != recon.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {recon.shape}")
    mask = np.asarray(valid, dtype=bool)
    if ref.ndim != 3 or mask.shape != ref.shape[:2]:
        raise ValueError(
            f"valid mask {mask.shape} vs images {ref.shape}: need [H x W] and [H x W x C]"
        )
    n = int(mask.sum()) * ref.shape[2]
    if n == 0:
        return 0.0, np.zeros_like(recon)
    p = cfg.ssim_window // 2
    r, c = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    box = (slice(max(r[0] - p, 0), r[-1] + p + 1), slice(max(c[0] - p, 0), c[-1] + p + 1))
    m = mask[box][:, :, None]
    x = ref[box] * m
    y = recon[box] * m
    stats = _ssim_stats(x, y, cfg.ssim_window)
    _, _, a1, a2, b1, b2 = stats
    smap = (a1 * a2) / (b1 * b2)
    per = 0.5 * cfg.alpha * (1.0 - smap) + (1.0 - cfg.alpha) * np.abs(x - y)
    full = np.zeros_like(recon)
    full[box] = per * m
    loss = float(np.sum(full) / n)
    grad_smap = np.where(m, -0.5 * cfg.alpha / n, 0.0)
    g = _ssim_backward(x, y, grad_smap, cfg.ssim_window, stats, smap)
    g += np.where(m, (1.0 - cfg.alpha) / n * np.sign(y - x), 0.0)
    grad = np.zeros_like(recon)
    grad[box] = g * m
    return loss, grad


def _ring_neighbors(i: int, n: int) -> list[int]:
    if n < 2:
        return []
    return sorted({(i - 1) % n, (i + 1) % n} - {i})


def context_pairs(rig: CameraRig) -> list[tuple[str, tuple[int, int], tuple[int, int]]]:
    """All (kind, source, target) frame pairs the total loss evaluates.

    Targets live at the latest timestamp (where depth is rendered); the
    previous timestamp provides the temporal sources, and each camera's
    ring neighbors provide the spatial sources.
    """
    ts = rig.timestamps()
    t_ref = ts[-1]
    t_prev = ts[-2] if len(ts) >= 2 else None
    n = len(rig.cameras)
    pairs = []
    if t_prev is not None:
        for i in range(n):
            pairs.append(("temporal", (i, t_prev), (i, t_ref)))
    for i in range(n):
        for j in _ring_neighbors(i, n):
            pairs.append(("spatial", (j, t_ref), (i, t_ref)))
    if t_prev is not None:
        for i in range(n):
            for j in _ring_neighbors(i, n):
                pairs.append(("spatial_temporal", (j, t_prev), (i, t_ref)))
    return pairs


class ContextPlan:
    """Depth-independent geometry of every context pair of a rig.

    The counterpart of renderer.RayPlan for the context loss: built once
    from (rig, target resolution), it holds one record per pair of
    context_pairs(rig): (kind, source, target, PairGeometry), the geometry
    being the source intrinsics, the inverse of camera.relative_pose's
    source->target pose, the unit target rays and their derivative in the
    source frame. Each loss evaluation then only projects the new depths
    and samples the pixels whose warp is valid.
    """

    def __init__(self, rig: CameraRig, resolution: tuple[int, int]):
        h, w = (int(r) for r in resolution)
        self.n_cameras = len(rig.cameras)
        self.resolution = (h, w)
        units = [
            cam_mod.unit_camera_rays(c.intrinsics, cam_mod.pixel_grid(h, w))[0]
            for c in rig.cameras
        ]
        self.pairs = [
            (kind, src, tgt, _pair_geometry(
                cam_mod.relative_pose(kind, rig, src[0], tgt[0], src[1], tgt[1]),
                rig.cameras[src[0]].intrinsics,
                units[tgt[0]],
            ))
            for kind, src, tgt in context_pairs(rig)
        ]
        self.n_pairs = {k: sum(p[0] == k for p in self.pairs) for k in KINDS}

    def check(self, depths: Sequence[DepthMap]) -> None:
        """Raise ValueError unless `depths` holds one map per camera at the
        plan's resolution."""
        if len(depths) != self.n_cameras:
            raise ValueError(f"{len(depths)} depth maps for {self.n_cameras} cameras")
        h, w = self.resolution
        for i, dm in enumerate(depths):
            if dm.depth.shape != (h, w):
                dh, dw = dm.depth.shape
                raise ValueError(
                    f"camera {i}: depth map is {dw}x{dh}, the context plan is {w}x{h}"
                )


def cast_loss(
    plan: ContextPlan,
    images: Mapping[tuple[int, int], np.ndarray],
    depths: Sequence[DepthMap],
    cfg: PhotometricConfig,
) -> tuple[float, dict, list[np.ndarray]]:
    """Total context-aware self-training loss, its breakdown, and
    d(total)/d(rendered depth) per camera, each [H x W].

    `plan` is the ContextPlan of the rig at the depth resolution, and
    `depths` holds one rendered depth map per camera at the latest rig
    timestamp. Each context term averages its pair losses; with a single
    camera the spatial terms are zero and flagged inactive in the
    breakdown. The breakdown dict is JSON-ready:
    {"L_t", "L_sp", "L_spt", "total", "active_pairs", "empty_pairs",
    "valid_px_t", "valid_px_sp", "valid_px_spt"}; a pair is empty when no
    target pixel warps validly, and valid_px_* sums the valid pixels over
    each kind's pairs.
    """
    plan.check(depths)
    lam = {
        "temporal": cfg.lambda_t,
        "spatial": cfg.lambda_sp,
        "spatial_temporal": cfg.lambda_spt,
    }
    sums = dict.fromkeys(KINDS, 0.0)
    valid_px = dict.fromkeys(KINDS, 0)
    grads = [np.zeros_like(dm.depth) for dm in depths]
    active = 0
    for kind, src, tgt, geom in plan.pairs:
        if src not in images or tgt not in images:
            raise KeyError(f"missing image for frame {src if src not in images else tgt}")
        recon, valid, drecon = _warp_core(images[src], depths[tgt[0]], geom)
        n_valid = int(valid.sum())
        valid_px[kind] += n_valid
        if n_valid == 0:  # an empty pair adds 0 to its term
            continue
        active += 1
        pair_loss, gl = photometric_loss(images[tgt], recon, valid, cfg)
        sums[kind] += pair_loss
        grads[tgt[0]] += (lam[kind] / plan.n_pairs[kind]) * np.sum(gl * drecon, axis=2)
    terms = {k: (sums[k] / plan.n_pairs[k] if plan.n_pairs[k] else 0.0) for k in KINDS}
    total = sum(lam[k] * terms[k] for k in KINDS)
    breakdown = {
        "L_t": terms["temporal"], "L_sp": terms["spatial"], "L_spt": terms["spatial_temporal"],
        "total": total,
        "active_pairs": active,
        "empty_pairs": len(plan.pairs) - active,
        "valid_px_t": valid_px["temporal"],
        "valid_px_sp": valid_px["spatial"],
        "valid_px_spt": valid_px["spatial_temporal"],
    }
    return total, breakdown, grads


def depth_l1_loss(
    depths: Sequence[DepthMap], sparse: Sequence[np.ndarray | None]
) -> tuple[float, list[np.ndarray]]:
    """L1 between rendered and sparse depth at sample pixels, pooled over
    cameras, and its gradient per camera, each [H x W]. The raw
    accumulated depth is compared ungated, so a from-empty density field
    still produces a usable objective."""
    _check_sparse(len(depths), sparse)
    grads = [np.zeros_like(d.depth) for d in depths]
    count = 0
    for pts in sparse:
        if pts is not None and len(pts) > 0:
            count += len(pts)
    if count == 0:
        return 0.0, grads
    total = 0.0
    for ci, (dm, pts) in enumerate(zip(depths, sparse)):
        if pts is None or len(pts) == 0:
            continue
        pts = as_tensor(pts)
        us, vs = _sparse_pixels(pts, dm.depth.shape, ci)
        diff = dm.depth[vs, us] - pts[:, 2]
        total += float(np.sum(np.abs(diff)))
        np.add.at(grads[ci], (vs, us), np.sign(diff) / count)
    return total / count, grads


def depth_bin_cross_entropy(
    dists: Sequence[DepthDistribution | None], sparse: Sequence[np.ndarray | None]
) -> float:
    """Cross-entropy of per-pixel depth distributions vs binned sparse depth.

    The target is the one-hot nearest bin; samples pool across cameras.
    Returns 0 when no camera carries both a distribution and samples.
    """
    _check_sparse(len(dists), sparse)
    total = 0.0
    count = 0
    for ci, (dist, pts) in enumerate(zip(dists, sparse)):
        if dist is None or pts is None or len(pts) == 0:
            continue
        pts = as_tensor(pts)
        us, vs = _sparse_pixels(pts, dist.probs.shape[:2], ci)
        target = np.argmin(np.abs(pts[:, 2][:, None] - dist.bins[None, :]), axis=1)
        p = dist.probs[vs, us, target]
        total += float(np.sum(-np.log(np.clip(p, 1e-12, None))))
        count += pts.shape[0]
    return total / count if count else 0.0


def pretrain_loss(
    plan: ContextPlan,
    images: Mapping[tuple[int, int], np.ndarray],
    depths: Sequence[DepthMap],
    sparse: Sequence[np.ndarray | None],
    cfg: PhotometricConfig,
) -> tuple[float, dict, list[np.ndarray]]:
    """Pretraining objective: rendered-depth L1 + context loss, with its
    breakdown and d(total)/d(rendered depth) per camera.

    `sparse` carries per-camera [(u, v, depth)] supervision at the latest
    timestamp (empty/None entries contribute nothing); `plan` and `images`
    are the context loss's. The breakdown adds "L_rd" and "L_cast" to
    cast_loss's keys.
    """
    l_rd, rd_grads = depth_l1_loss(depths, sparse)
    l_cast, parts, cast_grads = cast_loss(plan, images, depths, cfg)
    total = l_rd + l_cast
    breakdown = {"L_rd": l_rd, **parts, "L_cast": l_cast, "total": total}
    return total, breakdown, [rd + cg for rd, cg in zip(rd_grads, cast_grads)]


def _check_sparse(cameras: int, sparse: Sequence[np.ndarray | None]) -> None:
    """Sparse depth comes one entry per camera, each None, empty or [N x 3]
    (u, v, depth) samples: raise on any other count, or naming the camera
    on any other shape."""
    if len(sparse) != cameras:
        raise ValueError(f"{len(sparse)} sparse depth entries for {cameras} cameras")
    for ci, pts in enumerate(sparse):
        if pts is not None and len(pts) > 0 and (np.ndim(pts) != 2 or np.shape(pts)[1] != 3):
            raise ValueError(f"camera {ci}: sparse depth is {np.shape(pts)}, not [N x 3]")


def _sparse_pixels(
    pts: np.ndarray, shape: tuple[int, int], camera: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integer pixel columns and rows of sparse (u, v, depth) samples.

    Raises ValueError naming the camera and the first offending sample
    when u or v is not an integer inside [0, W) x [0, H).
    """
    h, w = shape
    u, v = pts[:, 0], pts[:, 1]
    integral = (u == np.floor(u)) & (v == np.floor(v))
    inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    bad = ~(integral & inside)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(
            f"camera {camera}: sparse depth sample {k} at pixel (u={u[k]!r}, v={v[k]!r}) "
            f"is not an integer pixel of the {w}x{h} image"
        )
    return u.astype(np.int64), v.astype(np.int64)
