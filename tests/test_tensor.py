"""Tests for the dense-tensor substrate."""

import numpy as np
import pytest
from helpers import grad_check, trilinear_oracle

from occgeom import tensor


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(tensor.softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_masked_entry(self):
        out = tensor.softmax(np.array([-np.inf, 0.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_two_logits(self):
        out = tensor.softmax(np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [0.26894142, 0.73105858], atol=1e-8)

    def test_all_masked_row_is_zero(self):
        out = tensor.softmax(np.array([[-np.inf, -np.inf], [0.0, 0.0]]), axis=1)
        assert np.array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(scale=50.0, size=(4, 7))
            for axis in (0, 1, -1):
                s = tensor.softmax(x, axis=axis).sum(axis=axis)
                np.testing.assert_allclose(s, 1.0, atol=1e-6)
                assert np.all(tensor.softmax(x, axis=axis) >= 0)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            tensor.softmax(np.zeros(3), axis=2)


class TestBilinearSample:
    def test_lattice_point_exact(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(7, 9, 2))
        vals, ok = tensor.bilinear_sample(img, np.array([[3.0, 5.0]]))
        assert ok[0]
        assert np.array_equal(vals[0], img[5, 3])

    def test_midpoint_of_four(self):
        img = np.zeros((2, 2, 1))
        img[1, :, 0] = 1.0
        vals, ok = tensor.bilinear_sample(img, np.array([[0.5, 0.5]]))
        assert ok[0]
        assert vals[0, 0] == pytest.approx(0.5)

    def test_out_of_bounds(self):
        img = np.ones((4, 4, 1))
        vals, ok = tensor.bilinear_sample(img, np.array([[-10.0, -10.0]]))
        assert not ok[0]
        assert vals[0, 0] == 0.0

    @pytest.mark.parametrize("fn", [tensor.bilinear_sample, tensor.bilinear_sample_grad])
    def test_rounding_outside_an_edge_samples_the_edge(self, fn):
        # a coordinate an ulp outside the image is the edge pixel; one a
        # micro-pixel outside is a miss
        rng = np.random.default_rng(4)
        img = rng.uniform(size=(5, 6, 2))
        just_out = [
            [-3.6e-15, 2.0], [np.nextafter(5.0, 6.0), 2.0],
            [3.0, -1e-15], [3.0, np.nextafter(4.0, 5.0)],
        ]
        edge = np.array([img[2, 0], img[2, 5], img[0, 3], img[4, 3]])
        vals = fn(img, np.array(just_out))[0]
        assert np.array_equal(vals, edge)
        _, ok = tensor.bilinear_sample(img, np.array(just_out))
        assert ok.all()
        far = np.array([[-1e-6, 2.0], [5.0 + 1e-6, 2.0], [3.0, -1e-6], [3.0, 4.0 + 1e-6]])
        vals, ok = tensor.bilinear_sample(img, far)
        assert not ok.any() and np.all(vals == 0.0)

    def test_linear_along_axis(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(5, 6, 3))
        u0, v = 2.0, 3.0
        f = rng.uniform(size=10)
        vals, _ = tensor.bilinear_sample(img, np.stack([u0 + f, np.full(10, v)], axis=1))
        expect = np.outer(1 - f, img[3, 2]) + np.outer(f, img[3, 3])
        np.testing.assert_allclose(vals, expect, atol=1e-12)

    @pytest.mark.parametrize("fn", [tensor.bilinear_sample, tensor.bilinear_sample_grad])
    @pytest.mark.parametrize(
        "img_shape, uv",
        [
            ((4, 5), np.full((3, 2), 1.5)),  # image without a channel axis
            ((4, 5, 2), np.full((3, 3), 1.5)),  # a third coordinate column
            ((4, 5, 2), np.full(2, 1.5)),  # one point not stacked as [1 x 2]
        ],
        ids=["2d-image", "3-columns", "1d-coordinates"],
    )
    def test_rejects_bad_shapes(self, fn, img_shape, uv):
        with pytest.raises(ValueError, match="bilinear sampling expects"):
            fn(np.ones(img_shape), uv)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(6, 7, 2))
        uv = rng.uniform([0.3, 0.3], [5.3, 4.3], size=(8, 2))
        vals, du, dv = tensor.bilinear_sample_grad(img, uv)
        assert np.array_equal(vals, tensor.bilinear_sample(img, uv)[0])
        eps = 1e-7
        for k in range(8):
            for axis, grad in ((0, du), (1, dv)):
                hi = uv[k].copy()
                hi[axis] += eps
                lo = uv[k].copy()
                lo[axis] -= eps
                vh, _ = tensor.bilinear_sample(img, hi[None])
                vl, _ = tensor.bilinear_sample(img, lo[None])
                np.testing.assert_allclose(
                    (vh - vl)[0] / (2 * eps), grad[k], atol=1e-6
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_property_away_from_seams(self, seed):
        # inside one pixel cell the sample is bilinear in (u, v), so a central
        # difference along any direction equals the analytic derivative up to
        # rounding; points keep 0.01 px from the seams and the image edge
        rng = np.random.default_rng(40 + seed)
        h, w, c = rng.integers(2, 12, size=3)
        img = rng.normal(size=(h, w, c))
        n = 64
        cell = np.stack([rng.integers(0, w - 1, n), rng.integers(0, h - 1, n)], axis=1)
        uv = cell + rng.uniform(0.01, 0.99, size=(n, 2))
        d = rng.uniform(-1.0, 1.0, size=(n, 2))
        eps = 1e-6
        hi, ok_hi = tensor.bilinear_sample(img, uv + eps * d)
        lo, ok_lo = tensor.bilinear_sample(img, uv - eps * d)
        assert ok_hi.all() and ok_lo.all()
        vals, du, dv = tensor.bilinear_sample_grad(img, uv)
        assert np.array_equal(vals, tensor.bilinear_sample(img, uv)[0])
        np.testing.assert_allclose(
            (hi - lo) / (2 * eps), du * d[:, :1] + dv * d[:, 1:], rtol=0, atol=1e-8
        )
        outside = np.array([[-0.5, 0.5], [w - 0.5, 0.5], [0.5, -0.5], [0.5, h - 0.5]])
        vals, du, dv = tensor.bilinear_sample_grad(img, outside)
        assert np.all(vals == 0.0) and np.all(du == 0.0) and np.all(dv == 0.0)


class TestTrilinearSample:
    def test_center_exact(self):
        rng = np.random.default_rng(4)
        vol = rng.uniform(size=(3, 4, 5))
        vals, ok = tensor.trilinear_sample(vol, np.array([[1.0, 2.0, 3.0]]))
        assert ok[0] and vals[0] == vol[1, 2, 3]

    def test_midpoint(self):
        vol = np.zeros((2, 1, 1))
        vol[1] = 4.0
        vals, _ = tensor.trilinear_sample(vol, np.array([[0.5, 0.0, 0.0]]))
        assert vals[0] == pytest.approx(2.0)

    def test_outside_zero(self):
        vol = np.ones((2, 2, 2))
        vals, ok = tensor.trilinear_sample(vol, np.array([[5.0, 0.0, 0.0]]))
        assert not ok[0] and vals[0] == 0.0

    def test_channelled_matches_scalar(self):
        rng = np.random.default_rng(5)
        vol = rng.uniform(size=(3, 4, 4, 3))
        pts = rng.uniform(-1.0, 4.0, size=(20, 3))
        vals, ok = tensor.trilinear_sample(vol, pts)
        for c in range(3):
            single, ok2 = tensor.trilinear_sample(vol[c], pts)
            np.testing.assert_allclose(vals[:, c], single, atol=1e-14)
            assert np.array_equal(ok, ok2)

    @pytest.mark.parametrize("channels", [1, 5, 64])
    def test_tiled_channelled_gather_matches_one_einsum(self, channels):
        # the gather runs in tiles of rows; one einsum over every point must
        # give the same bits, with a last tile shorter than the others
        rng = np.random.default_rng(channels)
        vol = rng.normal(size=(channels, 5, 4, 6))
        tile = tensor._GATHER_TILE_BYTES // (8 * 8 * channels)
        pts = rng.uniform(-0.6, np.array(vol.shape[1:]) - 0.4, size=(2 * tile + 37, 3))
        vals, ok = tensor.trilinear_sample(vol, pts)
        assert ok.sum() > tile and ok.sum() % tile
        base, wgt = tensor._trilinear_corners(vol.shape[1:], pts[ok].T)
        table = np.pad(vol, ((0, 0), (1, 1), (1, 1), (1, 1))).reshape(channels, -1).T
        corners = table[base[:, None] + tensor._corner_offsets(vol.shape[1:])]
        want = np.zeros_like(vals)
        want[ok] = np.einsum("nkc,nk->nc", corners, np.ascontiguousarray(wgt.T))
        assert vals.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5), (6, 1, 2), (4, 1, 2, 6)])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        vol = rng.normal(size=shape)
        dims = np.array(shape[-3:])
        pts = rng.uniform(-1.5, dims + 0.5, size=(300, 3))
        pts[:40] = np.round(pts[:40] * 2.0) / 2.0  # faces and cell centers
        vals, ok = tensor.trilinear_sample(vol, pts)
        want, _ = trilinear_oracle(vol, pts)
        assert not ok.all() and ok.any()
        assert np.array_equal(ok, np.all((pts >= -0.5) & (pts <= dims - 0.5), axis=1))
        np.testing.assert_allclose(vals, want, rtol=1e-12, atol=1e-14)
        # out of the box: +0.0 exactly, not a signed or tiny zero
        assert np.all(vals[~ok].view(np.int64) == 0)

    @pytest.mark.parametrize("channels", [None, 2])
    def test_out_of_box_is_zero_beside_non_finite_border(self, channels):
        # the corners of an out-of-box point lie outside the grid, so no
        # voxel value, finite or not, can reach it
        lead = () if channels is None else (channels,)
        vol = np.ones(lead + (4, 4, 4))
        vol[..., 0, 0, 0] = np.nan
        vol[..., 3, 3, 3] = np.inf
        pts = np.array([[-5.0, 0.0, 0.0], [9.0, 9.0, 9.0], [-0.6, 0.0, 0.0], [3.0, 3.0, 3.6]])
        vals, ok = tensor.trilinear_sample(vol, pts)
        assert not ok.any()
        assert np.all(vals == 0.0)
        # inside the box the non-finite voxels still read through
        vals, ok = tensor.trilinear_sample(vol, np.array([[-0.5, 0.0, 0.0], [3.5, 3.0, 3.0]]))
        assert ok.all() and np.isnan(vals[0]).all() and np.isposinf(vals[1]).all()


class TestTrilinearCorners:
    """The padded-grid corner kernel of trilinear_sample and the ray plans
    against the per-point oracle."""

    CORNERS = np.array([(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])

    @pytest.mark.parametrize("dims", [(3, 4, 5), (1, 2, 6), (6, 1, 1)])
    def test_matches_oracle(self, dims):
        rng = np.random.default_rng(sum(dims))
        n, top = 500, np.asarray(dims) - 0.5
        # per axis: the low face, the high face, a cell center or anywhere
        kind = rng.integers(0, 4, size=(n, 3))
        xyz = np.select(
            [kind == 0, kind == 1, kind == 2],
            [np.full((n, 3), -0.5), np.broadcast_to(top, (n, 3)),
             rng.integers(0, dims, size=(n, 3)).astype(float)],
            rng.uniform(-0.5, top, size=(n, 3)),
        )
        assert tensor._trilinear_in_box(dims, xyz).all()
        vol = rng.uniform(size=dims)
        base, wgt = tensor._trilinear_corners(dims, xyz.T)
        pidx, pwgt = base[:, None] + tensor._corner_offsets(dims), wgt.T
        padded = tuple(d + 2 for d in dims)
        assert pidx.min() >= 0 and pidx.max() < np.prod(padded)
        cell = np.stack(np.unravel_index(pidx, padded), axis=-1) - 1  # [n x 8 x 3]
        assert np.array_equal(cell, np.floor(xyz)[:, None, :] + self.CORNERS)
        inside = np.all((cell >= 0) & (cell < dims), axis=-1)
        assert inside.any() and not inside.all()
        # out-of-range corners: the zero shell
        assert np.all(np.any((cell == -1) | (cell == dims), axis=-1)[~inside])
        # in-range corners: the oracle's cells in its order, weights bit-equal
        want, terms = trilinear_oracle(vol, xyz)
        assert np.array_equal(cell[inside], [c for kept in terms for c, _ in kept])
        owgt = np.array([w for kept in terms for _, w in kept])
        assert np.array_equal(pwgt[inside].view(np.int64), owgt.view(np.int64))
        # the gather from the padded volume is trilinear_sample, bitwise
        gathered = np.sum(np.pad(vol, 1).ravel()[pidx] * pwgt, axis=1)
        np.testing.assert_allclose(gathered, want, rtol=1e-13, atol=0)
        assert np.array_equal(gathered, tensor.trilinear_sample(vol, xyz)[0])

    def test_signed_volume_sums_as_numpy(self):
        # negative and signed-zero voxels at integer and half-integer
        # coordinates: zero weights give -0.0 products, and cells of -0.0
        # voxels rows of eight -0.0, which numpy sums to +0.0
        rng = np.random.default_rng(31)
        for trial in range(40):
            dims = tuple(int(d) for d in rng.integers(1, 7, 3))
            vol = -rng.uniform(0.1, 2.0, dims)
            vol[rng.random(dims) < 0.4] = -0.0
            vol[rng.random(dims) < 0.1] = 0.0
            xyz = (rng.integers(-1, np.asarray(dims) + 1, (400, 3))
                   + 0.5 * rng.integers(0, 2, (400, 3))).astype(float)
            vals, valid = tensor.trilinear_sample(vol, xyz)
            base, wgt = tensor._trilinear_corners(dims, xyz[valid].T)
            products = np.pad(vol, 1).ravel()[base[:, None] + tensor._corner_offsets(dims)] * wgt.T
            want = np.sum(products, axis=1)
            assert vals[valid].tobytes() == want.tobytes()
            assert vals[~valid].tobytes() == np.zeros(np.count_nonzero(~valid)).tobytes()
            if trial == 0:
                assert np.any(np.all(np.signbit(products) & (products == 0.0), axis=1))


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(2, 4, 5, 3))
        w = np.zeros((2, 2, 1, 1, 1))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        assert np.allclose(tensor.conv3d(x, w, 1), x)

    def test_full_scale_stride2_shape(self):
        x = np.zeros((1, 200, 200, 16))
        w = np.ones((1, 1, 3, 3, 3))
        assert tensor.conv3d(x, w, 2).shape == (1, 100, 100, 8)

    def test_zero_kernel(self):
        x = np.ones((1, 3, 3, 3))
        w = np.zeros((2, 1, 3, 3, 3))
        assert np.array_equal(tensor.conv3d(x, w, 1), np.zeros((2, 3, 3, 3)))

    def test_stride2_ceil_extents(self):
        w = np.ones((1, 1, 3, 3, 3))
        for n in range(1, 65):
            out = tensor.conv3d(np.ones((1, n, 1, 1)), w, 2)
            assert out.shape[1] == (n + 1) // 2, n

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            tensor.conv3d(np.ones((3, 2, 2, 2)), np.ones((1, 2, 3, 3, 3)), 1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            tensor.conv3d(np.ones((1, 2, 2, 2)), np.ones((1, 1, 2, 2, 2)), 1)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 3, 5))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        for stride in (1, 2):
            got = tensor.conv3d(x, w, stride)
            k, p = 3, 1
            xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
            expect = np.zeros_like(got)
            for o in range(3):
                for i in range(got.shape[1]):
                    for j in range(got.shape[2]):
                        for l in range(got.shape[3]):
                            patch = xp[:, i * stride : i * stride + k,
                                       j * stride : j * stride + k,
                                       l * stride : l * stride + k]
                            expect[o, i, j, l] = np.sum(patch * w[o])
            np.testing.assert_allclose(got, expect, atol=1e-12)


class TestGradCheck:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        err = grad_check(lambda v: float(np.sum(v**2)), x, 2 * x, eps=1e-4)
        assert err < 1e-6

    def test_constant(self):
        x = np.ones(4)
        err = grad_check(lambda v: 7.0, x, np.zeros(4), eps=1e-4)
        assert err == 0.0

    def test_eps_squared_scaling(self):
        # cubic has nonzero third derivative: halving eps quarters the error
        x = np.array([0.7, -1.3, 2.1])
        g = 3 * x**2
        f = lambda v: float(np.sum(v**3))
        e1 = grad_check(f, x, g, eps=1e-3)
        e2 = grad_check(f, x, g, eps=5e-4)
        assert e1 / e2 == pytest.approx(4.0, rel=1.0)
        assert e1 / e2 > 2.0

    def test_non_finite_objective(self):
        # the probe at x - eps takes the log of a negative number on purpose
        with pytest.raises(RuntimeError), np.errstate(invalid="ignore"):
            grad_check(
                lambda v: float(np.log(v[0])), np.array([1e-9]), np.array([1e9]),
                eps=1e-4,
            )
