"""Tests for the windowed-attention encoder and masked decoder."""

import numpy as np
import pytest

from occgeom.occ_encdec import (
    SemanticOccupancy,
    SemanticQuerySet,
    WindowedAttentionParams,
    assemble_semantics,
    decode,
    encode,
    masked_decode,
    windowed_attention,
)
from occgeom.tensor import softmax
from occgeom.view_transform import OccupancyFeature, VoxelGridSpec


def feat_of(data):
    data = np.asarray(data, dtype=np.float64)
    spec = VoxelGridSpec(data.shape[1:], np.zeros(3), 1.0)
    return OccupancyFeature(data, spec)


def params_of(window, d, wq=None, wk=None, wv=None, bias=None):
    n = window[0] * window[1] * window[2]
    return WindowedAttentionParams(
        window=window,
        wq=np.zeros((d, d)) if wq is None else wq,
        wk=np.zeros((d, d)) if wk is None else wk,
        wv=np.eye(d) if wv is None else wv,
        bias=np.zeros((n, n)) if bias is None else bias,
    )


def query_set(x, fq=None, fk=None, fv=None, class_head=None, mask_head=None, **kw):
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[1]
    return SemanticQuerySet(
        x=x,
        fq=np.eye(c) if fq is None else fq,
        fk=np.eye(c) if fk is None else fk,
        fv=np.eye(c) if fv is None else fv,
        class_head=np.ones((c, 2)) if class_head is None else class_head,
        mask_head=np.eye(c) if mask_head is None else mask_head,
        **kw,
    )


class TestWindowedAttention:
    def test_uniform_attention_is_window_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 4, 2, 2))
        out = windowed_attention(feat_of(data), params_of((2, 2, 2), 3))
        for wx in range(2):
            block = data[:, 2 * wx : 2 * wx + 2]
            mean = block.reshape(3, -1).mean(axis=1)
            np.testing.assert_allclose(
                out.data[:, 2 * wx : 2 * wx + 2],
                np.broadcast_to(mean[:, None, None, None], (3, 2, 2, 2)),
                atol=1e-12,
            )

    def test_single_voxel_window_applies_value_projection(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(2, 2, 3, 1))
        wv = rng.normal(size=(2, 2))
        out = windowed_attention(feat_of(data), params_of((1, 1, 1), 2, wv=wv))
        expect = np.einsum("cxyz,cd->dxyz", data, wv)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_two_voxel_window_hand_softmax(self):
        x = np.array([0.4, -1.2]).reshape(1, 2, 1, 1)
        wq = np.array([[0.9]])
        wk = np.array([[-0.7]])
        wv = np.array([[1.3]])
        bias = np.array([[0.1, -0.2], [0.3, 0.0]])
        out = windowed_attention(
            feat_of(x), params_of((2, 1, 1), 1, wq=wq, wk=wk, wv=wv, bias=bias)
        )
        q = x.ravel() * 0.9
        k = x.ravel() * -0.7
        v = x.ravel() * 1.3
        logits = np.outer(q, k) / np.sqrt(1.0) + bias
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data.ravel(), attn @ v, atol=1e-12)

    def test_against_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        d = 3
        window = (2, 2, 1)
        n = 4
        for _ in range(10):
            data = rng.normal(size=(d, 4, 2, 2))
            wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
            bias = rng.normal(size=(n, n))
            out = windowed_attention(
                feat_of(data), params_of(window, d, wq, wk, wv, bias)
            )
            expect = np.zeros_like(data)
            for bx in range(2):
                for bz in range(2):
                    tokens = []
                    for ix in range(2):
                        for iy in range(2):
                            tokens.append(data[:, 2 * bx + ix, iy, bz])
                    tokens = np.array(tokens)
                    q, k, v = tokens @ wq, tokens @ wk, tokens @ wv
                    logits = q @ k.T / np.sqrt(d) + bias
                    e = np.exp(logits - logits.max(axis=1, keepdims=True))
                    res = (e / e.sum(axis=1, keepdims=True)) @ v
                    t = 0
                    for ix in range(2):
                        for iy in range(2):
                            expect[:, 2 * bx + ix, iy, bz] = res[t]
                            t += 1
            np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_zero_padding_joins_window_softmax(self):
        # dims not divisible by the window: padded voxels act as zero
        # tokens, so uniform attention averages them in
        data = np.array([2.0, 4.0, 6.0]).reshape(1, 3, 1, 1)
        out = windowed_attention(feat_of(data), params_of((2, 1, 1), 1))
        np.testing.assert_allclose(out.data.ravel(), [3.0, 3.0, 3.0], atol=1e-12)
        # the last window holds {6, pad 0}: mean 3

    def test_permutation_equivariance_within_window(self):
        rng = np.random.default_rng(3)
        d = 2
        data = rng.normal(size=(d, 4, 1, 1))
        params = params_of(
            (4, 1, 1), d, rng.normal(size=(d, d)), rng.normal(size=(d, d)),
            rng.normal(size=(d, d)), np.zeros((4, 4)),
        )
        out = windowed_attention(feat_of(data), params)
        perm = np.array([2, 0, 3, 1])
        out_p = windowed_attention(feat_of(data[:, perm]), params)
        np.testing.assert_allclose(out_p.data, out.data[:, perm], atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            windowed_attention(feat_of(np.zeros((3, 2, 2, 2))), params_of((2, 1, 1), 2))


class TestEncode:
    def test_single_level(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(2, 4, 4, 2))
        levels = encode(feat_of(data), params_of((1, 1, 1), 2), [])
        assert len(levels) == 1
        np.testing.assert_allclose(levels[0].data, data)

    def test_three_level_shapes(self):
        data = np.zeros((2, 16, 16, 8))
        w = np.zeros((2, 2, 3, 3, 3))
        levels = encode(feat_of(data), params_of((2, 2, 2), 2), [w, w])
        assert [g.data.shape for g in levels] == [
            (2, 16, 16, 8), (2, 8, 8, 4), (2, 4, 4, 2),
        ]
        assert [g.spec.dims for g in levels] == [(16, 16, 8), (8, 8, 4), (4, 4, 2)]

    def test_box_downsample_oracle(self):
        # identity attention + averaging conv: each level is the 2x box mean
        rng = np.random.default_rng(5)
        data = rng.normal(size=(1, 8, 4, 4))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1:, 1:, 1:] = 1.0 / 8.0
        levels = encode(feat_of(data), params_of((1, 1, 1), 1), [w])
        x = data[0]
        box = x.reshape(4, 2, 2, 2, 2, 2).mean(axis=(1, 3, 5))
        np.testing.assert_allclose(levels[1].data[0], box, atol=1e-12)

    def test_indivisible_dims_rejected(self):
        data = np.zeros((1, 6, 4, 4))
        w = np.zeros((1, 1, 3, 3, 3))
        with pytest.raises(ValueError):
            encode(feat_of(data), params_of((1, 1, 1), 1), [w, w])


class TestMaskedDecode:
    def test_singleton_mask_residual_update(self):
        rng = np.random.default_rng(6)
        c = 3
        g = feat_of(rng.normal(size=(c, 2, 2, 1)))
        fv = rng.normal(size=(c, c))
        qs = query_set(rng.normal(size=(2, c)), fv=fv,
                       class_head=rng.normal(size=(c, 3)))
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 2] = True
        mask[1, 1] = True
        x2, _, _, _ = masked_decode(g, qs, mask)
        tokens = g.data.reshape(c, -1).T
        np.testing.assert_allclose(x2[0], qs.x[0] + tokens[2] @ fv, atol=1e-12)
        np.testing.assert_allclose(x2[1], qs.x[1] + tokens[1] @ fv, atol=1e-12)

    def test_all_forbidden_passes_through(self):
        rng = np.random.default_rng(7)
        g = feat_of(rng.normal(size=(2, 2, 1, 1)))
        qs = query_set(rng.normal(size=(1, 2)))
        x2, _, _, _ = masked_decode(g, qs, np.zeros((1, 2), dtype=bool))
        assert np.array_equal(x2, qs.x)

    def test_zero_value_projection_is_identity(self):
        rng = np.random.default_rng(8)
        g = feat_of(rng.normal(size=(2, 3, 1, 1)))
        qs = query_set(rng.normal(size=(2, 2)), fv=np.zeros((2, 2)))
        x2, _, _, _ = masked_decode(g, qs, np.ones((2, 3), dtype=bool))
        assert np.array_equal(x2, qs.x)

    def test_against_direct_evaluation(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            c, nq = 3, 4
            g = feat_of(rng.normal(size=(c, 2, 2, 2)))
            qs = query_set(
                rng.normal(size=(nq, c)),
                fq=rng.normal(size=(c, c)),
                fk=rng.normal(size=(c, c)),
                fv=rng.normal(size=(c, c)),
                class_head=rng.normal(size=(c, 4)),
                mask_head=rng.normal(size=(c, c)),
            )
            mask = rng.uniform(size=(nq, 8)) > 0.4
            x2, cls, mlog, mbool = masked_decode(g, qs, mask)
            tokens = g.data.reshape(c, -1).T
            for q in range(nq):
                logits = (qs.x[q] @ qs.fq) @ (tokens @ qs.fk).T
                allowed = np.where(mask[q])[0]
                if allowed.size == 0:
                    expect = qs.x[q]
                else:
                    sub = logits[allowed]
                    e = np.exp(sub - sub.max())
                    attn = e / e.sum()
                    expect = qs.x[q] + attn @ (tokens[allowed] @ qs.fv)
                np.testing.assert_allclose(x2[q], expect, atol=1e-12)
                np.testing.assert_allclose(
                    mlog[q], (x2[q] @ qs.mask_head) @ tokens.T, atol=1e-12
                )
            np.testing.assert_allclose(cls, x2 @ qs.class_head, atol=1e-12)
            assert np.array_equal(mbool, mlog >= 0.0)

    def test_masked_voxels_removable(self):
        # dropping forbidden tokens from the computation changes nothing
        rng = np.random.default_rng(10)
        c = 2
        g = feat_of(rng.normal(size=(c, 4, 1, 1)))
        qs = query_set(rng.normal(size=(1, c)), fq=rng.normal(size=(c, c)),
                       fk=rng.normal(size=(c, c)), fv=rng.normal(size=(c, c)))
        mask = np.array([[True, False, True, False]])
        x_masked, _, _, _ = masked_decode(g, qs, mask)
        g_sub = feat_of(g.data[:, [0, 2]])
        x_sub, _, _, _ = masked_decode(g_sub, qs, np.ones((1, 2), dtype=bool))
        np.testing.assert_allclose(x_masked, x_sub, atol=1e-12)

    def test_ffn_applies_residual_and_norm(self):
        rng = np.random.default_rng(11)
        c = 2
        g = feat_of(rng.normal(size=(c, 2, 1, 1)))
        qs = query_set(
            rng.normal(size=(1, c)),
            ffn_w1=rng.normal(size=(c, 2 * c)),
            ffn_w2=rng.normal(size=(2 * c, c)),
        )
        x2, _, _, _ = masked_decode(g, qs, np.ones((1, 2), dtype=bool))
        assert x2.shape == (1, c)
        np.testing.assert_allclose(x2.mean(axis=1), 0.0, atol=1e-9)


class TestAssemble:
    SPEC = VoxelGridSpec((2, 2, 2), np.zeros(3), 1.0)

    def test_single_query_half_grid(self):
        class_logits = np.array([[0.0, 0.0, 0.0, 5.0, 0.0]])  # class 3 of K=4
        mask_logits = np.array([[2.0, 2.0, 2.0, 2.0, -1.0, -1.0, -1.0, -1.0]])
        occ = assemble_semantics(class_logits, mask_logits, self.SPEC)
        labels = occ.labels.ravel()
        assert np.all(labels[:4] == 3)
        assert np.all(labels[4:] == 4)

    def test_tie_prefers_lower_class(self):
        class_logits = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        mask_logits = np.full((2, 8), 1.0)
        occ = assemble_semantics(class_logits, mask_logits, self.SPEC)
        assert np.all(occ.labels == 0)

    def test_against_per_voxel_oracle(self):
        rng = np.random.default_rng(13)
        spec = VoxelGridSpec((4, 4, 4), np.zeros(3), 1.0)
        class_logits = rng.normal(size=(3, 4))  # 3 queries, K=3 classes
        mask_logits = rng.normal(size=(3, 64))
        occ = assemble_semantics(class_logits, mask_logits, spec)
        probs = softmax(class_logits, axis=1)
        for v in range(64):
            best_cls, best_score = 3, 0.0  # free baseline
            for k in range(3):
                score = -np.inf
                for q in range(3):
                    if np.argmax(class_logits[q]) == k:
                        score = max(score, probs[q, k] * mask_logits[q, v])
                if score > best_score and np.isfinite(score):
                    best_cls, best_score = k, score
            assert occ.labels.ravel()[v] == best_cls


class TestSemanticOccupancy:
    def test_from_labels_roundtrip(self):
        rng = np.random.default_rng(14)
        labels = rng.integers(0, 5, size=(3, 3, 2))
        occ = SemanticOccupancy(labels, 4)
        assert np.array_equal(occ.labels, labels)
        assert occ.num_classes == 4
        assert occ.occupied.dtype == bool
        assert np.array_equal(occ.occupied, labels != 4)
        alias = SemanticOccupancy.from_labels(labels, 4)
        assert np.array_equal(alias.labels, labels) and alias.num_classes == 4

    @pytest.mark.parametrize(
        "labels, num_classes",
        [
            (np.full((2, 2, 2), 5), 4),  # above the free label
            (np.full((2, 2, 2), -1), 4),
            (np.zeros((2, 2), dtype=np.int64), 4),
            (np.zeros((2, 2, 2), dtype=np.int64), 0),
        ],
        ids=["above-free", "negative", "2-D", "no-classes"],
    )
    def test_rejects_bad_grid(self, labels, num_classes):
        with pytest.raises(ValueError):
            SemanticOccupancy(labels, num_classes)

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            SemanticOccupancy.from_labels(np.full((2, 2, 2), 9), 4)


class TestDecodeStack:
    def test_three_level_decode_runs(self):
        rng = np.random.default_rng(15)
        c = 4
        spec = VoxelGridSpec((8, 8, 4), np.zeros(3), 1.0)
        feat = OccupancyFeature(rng.normal(size=(c, 8, 8, 4)), spec)
        w = rng.normal(size=(c, c, 3, 3, 3)) * 0.1
        levels = encode(feat, params_of((2, 2, 2), c), [w, w])
        qs = query_set(
            rng.normal(size=(5, c)),
            fq=rng.normal(size=(c, c)), fk=rng.normal(size=(c, c)),
            fv=rng.normal(size=(c, c)) * 0.1,
            class_head=rng.normal(size=(c, 4)),
            mask_head=rng.normal(size=(c, c)),
        )
        cls, mlog = decode(levels, qs)
        occ = assemble_semantics(cls, mlog, spec)
        assert occ.labels.shape == (8, 8, 4)
