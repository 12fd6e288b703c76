"""Occupancy evaluation: binary scene-completion IoU and per-class mIoU.

IoU = TP / (TP + FP + FN) per class; the binary variant treats any
non-free label as occupied. Classes absent from both prediction and ground
truth are excluded from the mIoU mean (0/0 undefined), and the free label
never enters the semantic mean.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .occ_encdec import SemanticOccupancy


@dataclass(frozen=True)
class EvalResult:
    iou: float
    per_class_iou: dict[int, float]  # only classes with TP+FP+FN > 0
    miou: float
    counts: dict[int, tuple[int, int, int]]  # class -> (TP, FP, FN)
    binary_counts: tuple[int, int, int]


def _check_pair(pred: SemanticOccupancy, gt: SemanticOccupancy, visible):
    if pred.labels.shape != gt.labels.shape:
        raise ValueError(
            f"prediction grid {pred.labels.shape} does not match "
            f"ground truth {gt.labels.shape}"
        )
    if pred.num_classes != gt.num_classes:
        raise ValueError(
            f"class counts differ: {pred.num_classes} vs {gt.num_classes}"
        )
    if visible is None:
        return np.ones(pred.labels.shape, dtype=bool)
    visible = np.asarray(visible, dtype=bool)
    if visible.shape != pred.labels.shape:
        raise ValueError(
            f"visibility grid {visible.shape} does not match labels {pred.labels.shape}"
        )
    return visible


def evaluate(
    pred: SemanticOccupancy,
    gt: SemanticOccupancy,
    visible: np.ndarray | None = None,
) -> EvalResult:
    """Score a predicted label grid against ground truth.

    Voxels with visible == False are excluded entirely. Returns binary IoU
    over occupied-vs-free, per-class IoU for the semantic classes present,
    and their mean.
    """
    cm = confusion(pred, gt, visible)
    k = gt.num_classes
    tp_b = int(cm[:k, :k].sum())
    fp_b = int(cm[k, :k].sum())
    fn_b = int(cm[:k, k].sum())
    denom = tp_b + fp_b + fn_b
    iou = tp_b / denom if denom else 0.0
    diag = np.diag(cm)
    fps = cm.sum(axis=0) - diag  # predicted c, truth another label
    fns = cm.sum(axis=1) - diag  # truth c, predicted another label
    counts: dict[int, tuple[int, int, int]] = {}
    per_class: dict[int, float] = {}
    for c in range(k):
        tp, fp, fn = int(diag[c]), int(fps[c]), int(fns[c])
        counts[c] = (tp, fp, fn)
        if tp + fp + fn > 0:
            per_class[c] = tp / (tp + fp + fn)
    miou = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return EvalResult(iou, per_class, miou, counts, (tp_b, fp_b, fn_b))


def confusion(
    pred: SemanticOccupancy,
    gt: SemanticOccupancy,
    visible: np.ndarray | None = None,
) -> np.ndarray:
    """(K+1) x (K+1) matrix: entry (g, p) counts visible voxels with
    ground truth g predicted as p. Row sums give ground-truth class sizes;
    evaluate() derives all its counts from this matrix."""
    mask = _check_pair(pred, gt, visible)
    n = gt.num_classes + 1
    flat = gt.labels[mask] * n + pred.labels[mask]
    return np.bincount(flat, minlength=n * n).reshape(n, n)


def write_csv(result: EvalResult, path) -> None:
    """One row per semantic class (classC, TP, FP, FN, IoU; blank IoU when
    undefined) plus summary rows for binary IoU and mIoU."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["class", "tp", "fp", "fn", "iou"])
        for c, (tp, fp, fn) in sorted(result.counts.items()):
            iou = f"{result.per_class_iou[c]:.9g}" if c in result.per_class_iou else ""
            w.writerow([f"class{c}", tp, fp, fn, iou])
        tp, fp, fn = result.binary_counts
        w.writerow(["IoU", tp, fp, fn, f"{result.iou:.9g}"])
        w.writerow(["mIoU", "", "", "", f"{result.miou:.9g}"])
