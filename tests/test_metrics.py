"""Tests for occupancy IoU / mIoU evaluation."""

import csv

import numpy as np
import pytest

from occgeom.metrics import confusion, evaluate, write_csv
from occgeom.occ_encdec import SemanticOccupancy

K = 4  # semantic classes; label 4 means free


def occ_of(labels):
    return SemanticOccupancy(np.asarray(labels, dtype=np.int64), K)


def random_grid(rng, shape=(8, 8, 8)):
    return occ_of(rng.integers(0, K + 1, size=shape))


def oracle_eval(pred, gt, visible=None):
    """Per-voxel triple-loop tally."""
    shape = pred.labels.shape
    tp = np.zeros(K, dtype=int)
    fp = np.zeros(K, dtype=int)
    fn = np.zeros(K, dtype=int)
    btp = bfp = bfn = 0
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                if visible is not None and not visible[i, j, k]:
                    continue
                p = pred.labels[i, j, k]
                g = gt.labels[i, j, k]
                if p != K and g != K:
                    btp += 1
                elif p != K:
                    bfp += 1
                elif g != K:
                    bfn += 1
                for c in range(K):
                    if p == c and g == c:
                        tp[c] += 1
                    elif p == c and g != c:
                        fp[c] += 1
                    elif p != c and g == c:
                        fn[c] += 1
    denom = btp + bfp + bfn
    iou = btp / denom if denom else 0.0
    per = {
        c: tp[c] / (tp[c] + fp[c] + fn[c])
        for c in range(K)
        if tp[c] + fp[c] + fn[c] > 0
    }
    miou = float(np.mean(list(per.values()))) if per else 0.0
    return iou, per, miou


class TestEvaluateBasics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        g = random_grid(rng)
        r = evaluate(g, g)
        assert r.iou == 1.0 and r.miou == 1.0
        assert all(v == 1.0 for v in r.per_class_iou.values())

    def test_all_free_prediction(self):
        rng = np.random.default_rng(1)
        gt = random_grid(rng)
        pred = occ_of(np.full(gt.labels.shape, K))
        r = evaluate(pred, gt)
        assert r.iou == 0.0
        assert all(v == 0.0 for v in r.per_class_iou.values())
        assert r.miou == 0.0

    def test_hand_fixture_iou_04(self):
        # class 1 predicted on 8 voxels, true on 6, overlapping on 4:
        # IoU_1 = 4 / (4 + 4 + 2) = 0.4
        pred = np.full((4, 4, 4), K)
        gt = np.full((4, 4, 4), K)
        pred.ravel()[:8] = 1
        gt.ravel()[4:10] = 1
        r = evaluate(occ_of(pred), occ_of(gt))
        assert r.per_class_iou[1] == pytest.approx(0.4)
        assert r.counts[1] == (4, 4, 2)

    def test_shape_mismatch(self):
        a = occ_of(np.full((2, 2, 2), K))
        b = occ_of(np.full((2, 2, 3), K))
        with pytest.raises(ValueError):
            evaluate(a, b)

    def test_absent_classes_excluded_from_mean(self):
        pred = np.full((3, 3, 3), K)
        gt = np.full((3, 3, 3), K)
        pred[0, 0, 0] = gt[0, 0, 0] = 2
        r = evaluate(occ_of(pred), occ_of(gt))
        assert list(r.per_class_iou) == [2]
        assert r.miou == 1.0


class TestEvaluateProperties:
    def test_binary_iou_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = random_grid(rng), random_grid(rng)
        assert evaluate(a, b).iou == evaluate(b, a).iou

    def test_relabel_invariance(self):
        rng = np.random.default_rng(3)
        pred, gt = random_grid(rng), random_grid(rng)
        perm = np.array([2, 0, 3, 1, 4])  # permute classes, keep free
        r1 = evaluate(pred, gt)
        r2 = evaluate(occ_of(perm[pred.labels]), occ_of(perm[gt.labels]))
        assert r1.miou == pytest.approx(r2.miou, abs=1e-12)
        assert r1.iou == pytest.approx(r2.iou, abs=1e-12)

    def test_miou_is_mean_of_defined(self):
        rng = np.random.default_rng(4)
        r = evaluate(random_grid(rng), random_grid(rng))
        assert r.miou == pytest.approx(np.mean(list(r.per_class_iou.values())), abs=1e-12)
        for c, (tp, fp, fn) in r.counts.items():
            if tp + fp + fn:
                assert r.per_class_iou[c] == pytest.approx(tp / (tp + fp + fn))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pred, gt = random_grid(rng), random_grid(rng)
            visible = rng.uniform(size=(8, 8, 8)) > 0.3
            r = evaluate(pred, gt, visible)
            iou, per, miou = oracle_eval(pred, gt, visible)
            assert r.iou == pytest.approx(iou, abs=1e-12)
            assert r.miou == pytest.approx(miou, abs=1e-12)
            assert set(r.per_class_iou) == set(per)
            for c in per:
                assert r.per_class_iou[c] == pytest.approx(per[c], abs=1e-12)

    def test_visibility_excludes_voxels(self):
        pred = np.full((2, 2, 2), 0)
        gt = np.full((2, 2, 2), K)
        gt[0, 0, 0] = 0
        visible = np.zeros((2, 2, 2), dtype=bool)
        visible[0, 0, 0] = True
        r = evaluate(occ_of(pred), occ_of(gt), visible)
        assert r.iou == 1.0 and r.per_class_iou[0] == 1.0


class TestConfusion:
    def test_diagonal_for_perfect(self):
        rng = np.random.default_rng(6)
        g = random_grid(rng)
        m = confusion(g, g)
        assert np.array_equal(m, np.diag(np.diag(m)))

    def test_partition_of_visible(self):
        rng = np.random.default_rng(7)
        pred, gt = random_grid(rng), random_grid(rng)
        visible = rng.uniform(size=(8, 8, 8)) > 0.5
        m = confusion(pred, gt, visible)
        assert m.sum() == visible.sum()
        counts = np.bincount(gt.labels[visible], minlength=K + 1)
        assert np.array_equal(m.sum(axis=1), counts)

    def test_evaluate_derivable_from_confusion(self):
        rng = np.random.default_rng(8)
        pred, gt = random_grid(rng), random_grid(rng)
        m = confusion(pred, gt)
        r = evaluate(pred, gt)
        for c in range(K):
            tp = m[c, c]
            fp = m[:, c].sum() - tp
            fn = m[c, :].sum() - tp
            assert r.counts[c] == (tp, fp, fn)


class TestCsvExport:
    def test_rows_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        r = evaluate(random_grid(rng), random_grid(rng))
        path = tmp_path / "metrics.csv"
        write_csv(r, path, class_names={0: "crate"})
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["class", "tp", "fp", "fn", "iou"]
        assert rows[1][0] == "crate"
        assert rows[-2][0] == "IoU"
        assert float(rows[-2][-1]) == pytest.approx(r.iou, rel=1e-8)
        assert rows[-1][0] == "mIoU"
        assert float(rows[-1][-1]) == pytest.approx(r.miou, rel=1e-8)
