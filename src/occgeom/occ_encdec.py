"""Toy-scale masked encoder-decoder over occupancy features.

The encoder applies window-divided self-attention (softmax(Q K^T / sqrt(d)
+ B) V within each window) alternated with stride-2 downsampling
convolutions; the decoder runs masked cross-attention from semantic queries
onto the voxel tokens, with -inf logits on masked voxels, followed by
per-query class and mask heads. The decoder attention is intentionally
unscaled (no 1/sqrt(d)); only the encoder uses the scale. The heads'
outputs become one label per voxel (`assemble_semantics`), held with the
class count in a `SemanticOccupancy`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .tensor import as_tensor, conv3d, softmax
from .view_transform import OccupancyFeature, VoxelGridSpec

_NO_SCORE = -1e30  # finite stand-in for "no query of this class"


@dataclass(frozen=True, eq=False)
class WindowedAttentionParams:
    """Shared projections and bias for window-divided self-attention.

    Token order within a window is row-major over (wx, wy, wz); the bias
    matrix is indexed accordingly. Grids are zero-padded up to a window
    multiple, and padding voxels take part in their window's softmax as
    ordinary zero tokens.
    """

    window: tuple[int, int, int]
    wq: np.ndarray  # [d x d]
    wk: np.ndarray  # [d x d]
    wv: np.ndarray  # [d x d]
    bias: np.ndarray  # [N_window x N_window]

    def __post_init__(self):
        window = tuple(int(x) for x in self.window)
        if len(window) != 3 or any(x < 1 for x in window):
            raise ValueError(f"bad window extents {self.window}")
        wq, wk, wv = (as_tensor(m) for m in (self.wq, self.wk, self.wv))
        d = wq.shape[0]
        if d < 1 or any(m.shape != (d, d) for m in (wq, wk, wv)):
            raise ValueError("projection matrices must share a square d x d shape")
        n = window[0] * window[1] * window[2]
        bias = as_tensor(self.bias)
        if bias.shape != (n, n):
            raise ValueError(f"bias must be {n}x{n} for window {window}, got {bias.shape}")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "wq", wq)
        object.__setattr__(self, "wk", wk)
        object.__setattr__(self, "wv", wv)
        object.__setattr__(self, "bias", bias)


@dataclass(frozen=True, eq=False)
class SemanticQuerySet:
    """Query features plus the linear maps used by the masked decoder.

    fq/fk/fv remap queries and voxel tokens to attention space, class_head
    produces K+1 class logits per query, mask_head the mask embedding. The
    optional FFN (hidden width 2C, residual + per-feature normalization)
    is disabled when its weights are None.
    """

    x: np.ndarray  # [N_q x C]
    fq: np.ndarray  # [C x C]
    fk: np.ndarray  # [C x C]
    fv: np.ndarray  # [C x C]
    class_head: np.ndarray  # [C x (K+1)]
    mask_head: np.ndarray  # [C x C]
    ffn_w1: np.ndarray | None = None  # [C x 2C]
    ffn_w2: np.ndarray | None = None  # [2C x C]

    def __post_init__(self):
        x = as_tensor(self.x)
        if x.ndim != 2:
            raise ValueError(f"queries must be N_q x C, got {x.shape}")
        c = x.shape[1]
        num_classes = as_tensor(self.class_head).shape[1] - 1
        if x.shape[0] < num_classes:
            raise ValueError(
                f"{x.shape[0]} queries cannot cover {num_classes} semantic classes"
            )
        for name in ("fq", "fk", "fv", "mask_head"):
            m = as_tensor(getattr(self, name))
            if m.shape != (c, c):
                raise ValueError(f"{name} must be {c}x{c}, got {m.shape}")
            object.__setattr__(self, name, m)
        ch = as_tensor(self.class_head)
        if ch.shape[0] != c or ch.shape[1] < 2:
            raise ValueError(f"class head must be {c} x (K+1), got {ch.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "class_head", ch)
        if (self.ffn_w1 is None) != (self.ffn_w2 is None):
            raise ValueError("FFN weights must be given together")
        if self.ffn_w1 is not None:
            w1, w2 = as_tensor(self.ffn_w1), as_tensor(self.ffn_w2)
            if w1.shape != (c, 2 * c) or w2.shape != (2 * c, c):
                raise ValueError(f"FFN weights {w1.shape}/{w2.shape} for C={c}")
            object.__setattr__(self, "ffn_w1", w1)
            object.__setattr__(self, "ffn_w2", w2)


@dataclass(frozen=True, eq=False)
class SemanticOccupancy:
    """Per-voxel class labels 0..K, K = `num_classes` meaning free: the
    ground truth and the decoder's output alike, as in Occ3D."""

    labels: np.ndarray  # [X x Y x Z] int
    num_classes: int  # K

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 3 or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"need a 3-D integer label grid, got {labels.dtype} {labels.shape}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes {self.num_classes}: need at least one plus free")
        if labels.min() < 0 or labels.max() > self.num_classes:
            raise ValueError(f"labels outside 0..{self.num_classes}")
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    @property
    def occupied(self) -> np.ndarray:
        """[X x Y x Z] bool: the voxels whose label is not free."""
        return self.labels != self.num_classes

    @staticmethod
    def from_labels(labels: np.ndarray, num_classes: int) -> "SemanticOccupancy":
        """The constructor under its old name, which `bench/pipeline.py` still calls."""
        return SemanticOccupancy(labels, num_classes)


def _partition_windows(data: np.ndarray, window: tuple[int, int, int]):
    """Zero-pad to a window multiple and reshape to (n_windows, N, C)."""
    c, x, y, z = data.shape
    wx, wy, wz = window
    px, py, pz = (-x) % wx, (-y) % wy, (-z) % wz
    padded = np.pad(data, ((0, 0), (0, px), (0, py), (0, pz)))
    nx, ny, nz = padded.shape[1] // wx, padded.shape[2] // wy, padded.shape[3] // wz
    win = padded.reshape(c, nx, wx, ny, wy, nz, wz)
    win = win.transpose(1, 3, 5, 2, 4, 6, 0)  # nx, ny, nz, wx, wy, wz, c
    return win.reshape(nx * ny * nz, wx * wy * wz, c), (nx, ny, nz)


def _merge_windows(win, counts, window, dims):
    nx, ny, nz = counts
    wx, wy, wz = window
    c = win.shape[2]
    full = win.reshape(nx, ny, nz, wx, wy, wz, c).transpose(6, 0, 3, 1, 4, 2, 5)
    full = full.reshape(c, nx * wx, ny * wy, nz * wz)
    return full[:, : dims[0], : dims[1], : dims[2]]


def windowed_attention(
    feat: OccupancyFeature, params: WindowedAttentionParams
) -> OccupancyFeature:
    """Self-attention within non-overlapping windows of the voxel grid."""
    data = feat.data
    d = data.shape[0]
    if params.wq.shape[0] != d:
        raise ValueError(f"attention dim {params.wq.shape[0]} vs {d} feature channels")
    win, counts = _partition_windows(data, params.window)
    q = win @ params.wq
    k = win @ params.wk
    v = win @ params.wv
    logits = q @ k.transpose(0, 2, 1) / np.sqrt(d) + params.bias
    attn = softmax(logits, axis=-1)
    out = attn @ v
    merged = _merge_windows(out, counts, params.window, feat.spec.dims)
    return OccupancyFeature(merged, feat.spec)


def encode(
    feat: OccupancyFeature,
    params: WindowedAttentionParams,
    down_weights: Sequence[np.ndarray],
) -> list[OccupancyFeature]:
    """Multi-scale encoder: attention, then stride-2 conv per extra level.

    Produces L = len(down_weights) + 1 levels; level 1 keeps the input
    resolution and each following level halves it, so the input dims must
    be divisible by 2^(L-1).
    """
    levels = len(down_weights) + 1
    for d in feat.spec.dims:
        if d % (2 ** (levels - 1)):
            raise ValueError(
                f"dims {feat.spec.dims} not divisible by 2^{levels - 1}"
            )
    out = [windowed_attention(feat, params)]
    current = out[0]
    for w in down_weights:
        down = conv3d(current.data, w, stride=2)
        current = OccupancyFeature(down, current.spec.halved())
        current = windowed_attention(current, params)
        out.append(current)
    return out


def masked_decode(
    g: OccupancyFeature,
    queries: SemanticQuerySet,
    prev_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One masked cross-attention step from queries onto voxel tokens.

    Attention logits are fq(X) fk(G)^T with 0 on allowed voxels and -inf on
    masked ones; a query whose mask forbids every voxel contributes nothing
    and passes through on the residual. New masks threshold the sigmoid of
    the mask-embedding/voxel products at 0.5 (ties allowed).

    Returns:
        (x_next [N_q x C], class_logits [N_q x (K+1)],
         mask_logits [N_q x V], masks [N_q x V] bool)
    """
    tokens = g.data.reshape(g.data.shape[0], -1).T  # V x C
    x = queries.x
    nq = x.shape[0]
    v = tokens.shape[0]
    mask = np.asarray(prev_mask, dtype=bool).reshape(nq, -1)
    if mask.shape[1] != v:
        raise ValueError(f"mask covers {mask.shape[1]} voxels, grid has {v}")
    if tokens.shape[1] != x.shape[1]:
        raise ValueError(
            f"feature channels {tokens.shape[1]} vs query width {x.shape[1]}"
        )
    logits = (x @ queries.fq) @ (tokens @ queries.fk).T
    logits = np.where(mask, logits, -np.inf)
    attn = softmax(logits, axis=1)  # all-masked rows come back as zeros
    x_next = attn @ (tokens @ queries.fv) + x
    if queries.ffn_w1 is not None:
        hidden = np.maximum(x_next @ queries.ffn_w1, 0.0)
        y = x_next + hidden @ queries.ffn_w2
        mean = y.mean(axis=1, keepdims=True)
        var = y.var(axis=1, keepdims=True)
        x_next = (y - mean) / np.sqrt(var + 1e-6)
    mask_logits = (x_next @ queries.mask_head) @ tokens.T
    class_logits = x_next @ queries.class_head
    return x_next, class_logits, mask_logits, mask_logits >= 0.0


def decode(
    levels: Sequence[OccupancyFeature], queries: SemanticQuerySet
) -> tuple[np.ndarray, np.ndarray]:
    """Run one masked_decode pass per level, coarse to fine.

    The first pass attends everywhere; each predicted mask is
    nearest-upsampled to gate the next (finer) level. Returns the final
    (class_logits, mask_logits) at the finest level's resolution.
    """
    order = sorted(levels, key=lambda f: f.spec.dims[0])
    qs = queries
    mask = np.ones((queries.x.shape[0], int(np.prod(order[0].spec.dims))), dtype=bool)
    class_logits = mask_logits = None
    for li, g in enumerate(order):
        x_next, class_logits, mask_logits, new_mask = masked_decode(g, qs, mask)
        qs = replace(qs, x=x_next)
        if li + 1 < len(order):
            mask = _upsample_mask(new_mask, g.spec.dims, order[li + 1].spec.dims)
    return class_logits, mask_logits


def _upsample_mask(mask, src_dims, dst_dims):
    nq = mask.shape[0]
    grid = mask.reshape(nq, *src_dims)
    for axis, (s, d) in enumerate(zip(src_dims, dst_dims)):
        if d % s:
            raise ValueError(f"cannot upsample mask {src_dims} -> {dst_dims}")
        grid = np.repeat(grid, d // s, axis=axis + 1)
    return grid.reshape(nq, -1)


def assemble_semantics(
    class_logits: np.ndarray, mask_logits: np.ndarray, spec: VoxelGridSpec
) -> SemanticOccupancy:
    """Combine per-query class predictions and masks into a label grid.

    Each query votes for its argmax class with score = class probability *
    mask logit; the per-voxel class score is the max over that class's
    queries, free keeps a zero baseline, and argmax breaks ties toward the
    lower class index. Voxels no query covers (all mask logits negative)
    therefore decay to free. The grid's `num_classes` is K, one less than
    the class head's width.
    """
    class_logits = as_tensor(class_logits)
    mask_logits = as_tensor(mask_logits)
    nq, kp1 = class_logits.shape
    v = int(np.prod(spec.dims))
    if mask_logits.shape != (nq, v):
        raise ValueError(f"mask logits {mask_logits.shape}, expected {(nq, v)}")
    k = kp1 - 1
    probs = softmax(class_logits, axis=1)
    assigned = np.argmax(class_logits, axis=1)
    conf = probs[np.arange(nq), assigned]
    scores = np.full((kp1, v), _NO_SCORE)
    scores[k] = 0.0  # free baseline
    for q in range(nq):
        cls = assigned[q]
        scores[cls] = np.maximum(scores[cls], conf[q] * mask_logits[q])
    return SemanticOccupancy(np.argmax(scores, axis=0).reshape(spec.dims), k)
