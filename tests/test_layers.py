"""Layer forward/backward pairs checked against finite differences."""

import contextlib
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oscnet import _workers, layers
from oscnet.activations import ActivationId, apply, apply_grad
from oscnet.errors import LabelError, ShapeError

A = ActivationId
RNG = np.random.default_rng(1234)


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat, gflat = x.ravel(), g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2 * h)
    return g


def nhwc(a: np.ndarray) -> np.ndarray:
    """The values of NCHW ``a`` as an NCHW view of NHWC memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_bitwise(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    bits = np.dtype(f"u{got.itemsize}")
    np.testing.assert_array_equal(got.view(bits), want.view(bits))


# Ties, signed zeros and NaNs of both signs, so every argmax corner occurs.
POOL_VALUES = [-2.0, -1.0, -0.0, 0.0, 1.0, 1.0, 1.0, math.nan, -math.nan]


def _windows(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    return (x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
             .reshape(n, c, h // 2, w // 2, 4))


def reference_maxpool2_forward(x: np.ndarray):
    """Max pool as argmax over each flattened 2x2 window (first maximum wins,
    a NaN counts as maximal); y is x at that index."""
    flat = _windows(x)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def reference_maxpool2_backward(dy: np.ndarray, arg: np.ndarray, x_shape) -> np.ndarray:
    n, c, h, w = x_shape
    dflat = np.zeros((n, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(dflat, arg[..., None], dy[..., None], axis=-1)
    return (dflat.reshape(n, c, h // 2, w // 2, 2, 2)
                 .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w))


def window_has_nan(x: np.ndarray) -> np.ndarray:
    return np.isnan(_windows(x)).any(axis=-1)


def check_pool_against_reference(x: np.ndarray, dy: np.ndarray):
    """`layers.maxpool2_forward` in eval and training and its backward, into
    a fresh dx and into an ``out`` in x's layout, are bitwise the argmax
    reference."""
    want_y, want_arg = reference_maxpool2_forward(x)
    want_dx = reference_maxpool2_backward(dy, want_arg, x.shape)
    assert np.isnan(want_y[window_has_nan(x)]).all()
    y, cache = layers.maxpool2_forward(x, with_cache=False)
    assert cache is None
    assert_bitwise(y, want_y)
    y, cache = layers.maxpool2_forward(x)
    assert_bitwise(y, want_y)
    assert_bitwise(layers.maxpool2_backward(dy, cache), want_dx)
    out = np.empty_like(x, dtype=dy.dtype)
    assert layers.maxpool2_backward(dy, cache, out=out) is out
    assert_bitwise(out, want_dx)


def max4_from_the_front(a, b, c, d, out=None):
    """The pool's fold in the other order: where np.maximum returns its
    second operand on a tie of +0.0 and -0.0, it keeps the last zero."""
    return np.maximum(np.maximum(np.maximum(a, b), c), d, out=out)


@contextlib.contextmanager
def other_zero_tie_rule():
    """Run the pool as on a platform whose fold loses a leading -0.0 and
    whose import-time probe saw that."""
    with mock.patch.object(layers, "_max4", max4_from_the_front), \
            mock.patch.object(layers, "_FOLD_KEEPS_FIRST_ZERO", False):
        yield


def reference_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Conv as one GEMM over the whole-batch patch matrix with columns in
    (C, ki, kj) order; the cache holds that matrix.  Same signature and
    cache contract as `layers.conv2d_forward`, so it can stand in for it."""
    n, c, h, wd = x.shape
    k = w.shape[0]
    xp = np.zeros((n, h + 2, wd + 2, c), dtype=x.dtype)
    xp[:, 1:1 + h, 1:1 + wd] = x.transpose(0, 2, 3, 1)
    col = sliding_window_view(xp, (3, 3), axis=(1, 2)).reshape(n * h * wd, c * 9)
    y = (col @ w.reshape(k, -1).T + b).reshape(n, h, wd, k).transpose(0, 3, 1, 2)
    return y, (col, x.shape, w)


def reference_conv2d_backward(dy: np.ndarray, cache, need_dx: bool = True):
    """Backward of `reference_conv2d_forward`: dW from the cached patch
    matrix and dX scattered back from one whole-batch column gradient."""
    col, (n, c, h, wd), w = cache
    k = w.shape[0]
    dmat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * h * wd, k)
    dw, db = (dmat.T @ col).reshape(w.shape), dmat.sum(axis=0)
    if not need_dx:
        return None, dw, db
    d = (dmat @ w.reshape(k, -1)).reshape(n, h, wd, c, 3, 3)
    dxp = np.zeros((n, h + 2, wd + 2, c), dtype=d.dtype)
    for ki in range(3):
        for kj in range(3):
            dxp[:, ki:ki + h, kj:kj + wd] += d[..., ki, kj]
    return dxp[:, 1:1 + h, 1:1 + wd].transpose(0, 3, 1, 2), dw, db


def assert_conv_close(got, want, scale, dtype):
    """|got - want| within a dtype tolerance of ``scale``, the same sum taken
    over absolute values, which bounds the rounding of any summation order:
    1e-12 relative in float64, 4 ulps in float32."""
    tol = 1e-12 if np.dtype(dtype) == np.float64 else 4 * np.finfo(np.float32).eps
    assert got.dtype == np.dtype(dtype) and got.shape == want.shape
    excess = np.abs(got.astype(np.float64) - want) - tol * scale
    assert excess.max() <= 0, f"worst error exceeds the tolerance by {excess.max():.3g}"


def check_conv_against_reference(x, w, b, dy, need_dx):
    """y, dx, dw and db of `layers` against the single-GEMM reference, with
    the error scale taken from the reference run on |x|, |w|, |b| and |dy|."""
    dtype = x.dtype
    y, cache = layers.conv2d_forward(x, w, b)
    dx, dw, db = layers.conv2d_backward(dy, cache, need_dx)
    want_y, want_cache = reference_conv2d_forward(x, w, b)
    want_dx, want_dw, want_db = reference_conv2d_backward(dy, want_cache)
    abs64 = [np.abs(a).astype(np.float64) for a in (x, w, b, dy)]
    scale_y, scale_cache = reference_conv2d_forward(*abs64[:3])
    scale_dx, scale_dw, scale_db = reference_conv2d_backward(abs64[3], scale_cache)
    assert_conv_close(y, want_y, scale_y, dtype)
    assert_conv_close(dw, want_dw, scale_dw, dtype)
    assert_conv_close(db, want_db, scale_db, dtype)
    assert dw.flags.c_contiguous
    if need_dx:
        assert_conv_close(dx, want_dx, scale_dx, dtype)
    else:
        assert dx is None


class TestConv2d:
    def test_all_ones_kernel_sums_the_window(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        b = np.zeros(1)
        y, _ = layers.conv2d_forward(x, w, b)
        assert y[0, 0, 1, 1] == 9.0  # centre sees the full window
        assert y[0, 0, 0, 0] == 4.0  # corner sees a 2x2 patch through the padding

    def test_delta_kernel_is_identity(self):
        x = RNG.standard_normal((2, 3, 8, 8))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y, _ = layers.conv2d_forward(x, w, np.zeros(3))
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        x = RNG.standard_normal((1, 2, 5, 5))
        w = RNG.standard_normal((4, 2, 3, 3))
        b = RNG.standard_normal(4)
        dy = RNG.standard_normal((1, 4, 5, 5))

        def loss():
            return float((layers.conv2d_forward(x, w, b)[0] * dy).sum())

        _, cache = layers.conv2d_forward(x, w, b)
        dx, dw, db = layers.conv2d_backward(dy, cache)
        for analytic, arr in ((dw, w), (dx, x), (db, b)):
            numeric = fd_grad(loss, arr)
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            assert rel.max() < 1e-4

    @pytest.mark.parametrize("dy_layout", ["nchw", "nhwc"])
    def test_nhwc_memory_gives_bitwise_equal_results(self, dy_layout):
        """The same values held in NCHW or NHWC memory give the same bits."""
        x = RNG.standard_normal((2, 3, 5, 6))
        w = RNG.standard_normal((4, 3, 3, 3))
        b = RNG.standard_normal(4)
        dy = RNG.standard_normal((2, 4, 5, 6))
        if dy_layout == "nhwc":
            dy = nhwc(dy)
        y0, cache0 = layers.conv2d_forward(x, w, b)
        y1, cache1 = layers.conv2d_forward(nhwc(x), w, b)
        assert_bitwise(y1, y0)
        grads0 = layers.conv2d_backward(dy, cache0)
        grads1 = layers.conv2d_backward(dy, cache1)
        for got, want in zip(grads1, grads0):
            assert_bitwise(got, want)
        dx, dw, db = layers.conv2d_backward(dy, cache1, need_dx=False)
        assert dx is None
        assert_bitwise(dw, grads0[1])
        assert_bitwise(db, grads0[2])

    def test_output_and_input_gradient_keep_channels_innermost(self):
        """y and dx are NCHW views of NHWC memory, which the next layer reads
        without a transposing copy."""
        y, cache = layers.conv2d_forward(RNG.standard_normal((2, 3, 4, 6)),
                                         RNG.standard_normal((5, 3, 3, 3)), np.zeros(5))
        dx, _, _ = layers.conv2d_backward(nhwc(np.ones_like(y)), cache)
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous
        assert dx.strides[1] == dx.itemsize

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocked_conv_matches_the_single_gemm_reference(self, data):
        """Any block size for the x or the dy patches (one image per block up
        to the whole batch, dividing the batch or not), both dtypes, NCHW or
        NHWC memory for x and dy, with and without the input gradient."""
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        n, c, k = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4)),
                   data.draw(st.integers(1, 5)))
        h, w = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))

        def array(shape, layout=False):
            a = rng.standard_normal(shape).astype(dtype)
            return nhwc(a) if layout and data.draw(st.booleans(), label="nhwc") else a

        x, dy = array((n, c, h, w), True), array((n, k, h, w), True)
        wt, b = array((k, c, 3, 3)), array(k)
        # The budget counts the patches of x's C channels (forward and dW) or
        # of dy's K channels (dx), so either pass gets every kind of block.
        channels = data.draw(st.sampled_from([c, k]), label="budget channels")
        per_image = h * w * 9 * channels * np.dtype(dtype).itemsize
        images = data.draw(st.integers(1, n + 1), label="images per block")
        budget = images * per_image + data.draw(st.integers(0, per_image - 1))
        with mock.patch.object(layers, "BLOCK_BYTES", budget):
            check_conv_against_reference(x, wt, b, dy, data.draw(st.booleans(), label="need_dx"))

    def test_default_block_size_matches_the_reference(self):
        """(10,32,16,16) float32 splits into blocks of 3 images with 1 left
        over under the default budget."""
        rng = np.random.default_rng(5)
        x = nhwc(rng.standard_normal((10, 32, 16, 16)).astype(np.float32))
        w = rng.standard_normal((64, 32, 3, 3)).astype(np.float32)
        b = rng.standard_normal(64).astype(np.float32)
        dy = nhwc(rng.standard_normal((10, 64, 16, 16)).astype(np.float32))
        assert layers.BLOCK_BYTES // (16 * 16 * 9 * 32 * 4) == 3
        check_conv_against_reference(x, w, b, dy, need_dx=True)

    def test_forward_never_holds_the_whole_patch_matrix(self):
        """One 250-image eval batch at (32,16,16) -> 64 channels: the whole-
        batch float32 patch matrix would take 73.7 MB.  The forward's peak
        stays well below it and the cache holds no patch columns."""
        rng = np.random.default_rng(6)
        n, c, h, w = 250, 32, 16, 16
        x = nhwc(rng.standard_normal((n, c, h, w)).astype(np.float32))
        wt = rng.standard_normal((64, c, 3, 3)).astype(np.float32)
        b = np.zeros(64, dtype=np.float32)
        patch_bytes = n * h * w * 9 * c * 4
        tracemalloc.start()
        try:
            _, cache = layers.conv2d_forward(x, wt, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes / 2, f"peak {peak / 1e6:.1f} MB"
        arrays = [a for a in cache if isinstance(a, np.ndarray)]
        assert all(a.shape[-1] != 9 * c for a in arrays)
        assert sum(a.nbytes for a in arrays) < patch_bytes / 4

    def test_cache_is_the_input_itself(self):
        x = nhwc(RNG.standard_normal((2, 3, 4, 5)))
        _, cache = layers.conv2d_forward(x, RNG.standard_normal((4, 3, 3, 3)), np.zeros(4))
        assert np.shares_memory(cache[0], x)

    def test_backward_peak_stays_below_twice_dx(self):
        """(250,32,16,16) -> 64 float32: dx takes 8.2 MB.  A whole-batch
        padded copy of x or of dy would push the peak past twice that."""
        rng = np.random.default_rng(7)
        n, c, h, w, k = 250, 32, 16, 16, 64
        x = nhwc(rng.standard_normal((n, c, h, w)).astype(np.float32))
        wt = rng.standard_normal((k, c, 3, 3)).astype(np.float32)
        dy = nhwc(rng.standard_normal((n, k, h, w)).astype(np.float32))
        _, cache = layers.conv2d_forward(x, wt, np.zeros(k, dtype=np.float32))
        tracemalloc.start()
        try:
            dx, _, _ = layers.conv2d_backward(dy, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * dx.nbytes, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 0, 4), (2, 3, 4, 0), (2, 0, 4, 5)],
                             ids=["H=0", "W=0", "C=0"])
    def test_empty_images(self, shape, dtype):
        """Images without pixels or channels give empty outputs of the right
        shape and dtype; with no channels y is the bias."""
        x = np.zeros(shape, dtype=dtype)
        w = RNG.standard_normal((4, shape[1], 3, 3)).astype(dtype)
        b = RNG.standard_normal(4).astype(dtype)
        y, cache = layers.conv2d_forward(x, w, b)
        assert y.shape == (2, 4) + shape[2:] and y.dtype == dtype
        np.testing.assert_array_equal(y, np.broadcast_to(b[:, None, None], y.shape))
        dx, dw, db = layers.conv2d_backward(np.ones(y.shape, dtype=dtype), cache)
        assert dx.shape == x.shape and dx.dtype == dtype
        assert dw.shape == w.shape and dw.dtype == dtype and not dw.any()
        assert db.dtype == dtype
        np.testing.assert_array_equal(db, np.full(4, y[:, 0].size, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("need_dx", [True, False])
    def test_zero_filters(self, dtype, need_dx):
        """A conv with no filters gives an empty y, zero-size dw and db, and
        a zero dx: nothing flows back through it."""
        x = RNG.standard_normal((2, 3, 4, 5)).astype(dtype)
        w = np.zeros((0, 3, 3, 3), dtype=dtype)
        y, cache = layers.conv2d_forward(x, w, np.zeros(0, dtype=dtype))
        assert y.shape == (2, 0, 4, 5) and y.dtype == dtype
        dx, dw, db = layers.conv2d_backward(np.ones(y.shape, dtype=dtype), cache, need_dx=need_dx)
        assert dw.shape == w.shape and dw.dtype == dtype
        assert db.shape == (0,) and db.dtype == dtype
        if need_dx:
            assert dx.shape == x.shape and dx.dtype == dtype and not dx.any()
        else:
            assert dx is None

    def test_shape_errors_list_expected_vs_actual(self):
        with pytest.raises(ShapeError, match=r"\(K,3,3,3\)"):
            layers.conv2d_forward(np.zeros((1, 3, 8, 8)), np.zeros((4, 2, 3, 3)), np.zeros(4))
        with pytest.raises(ShapeError, match="4-d"):
            layers.conv2d_forward(np.zeros((3, 8, 8)), np.zeros((4, 3, 3, 3)), np.zeros(4))


class TestMaxPool:
    def test_block_maximum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y, _ = layers.maxpool2_forward(x)
        assert y[0, 0, 0, 0] == 4.0

    def test_tie_routes_to_first_element(self):
        x = np.ones((1, 1, 2, 2))
        y, cache = layers.maxpool2_forward(x)
        dx = layers.maxpool2_backward(np.ones_like(y), cache)
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(dx, expected)

    def test_backward_conserves_gradient_mass(self):
        x = RNG.standard_normal((1, 1, 4, 4))
        y, cache = layers.maxpool2_forward(x)
        dy = RNG.standard_normal(y.shape)
        dx = layers.maxpool2_backward(dy, cache)
        assert dx.sum() == pytest.approx(dy.sum(), rel=1e-12)

    def test_odd_spatial_dims_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            layers.maxpool2_forward(np.zeros((1, 1, 5, 4)))

    def test_non_4d_input_rejected(self):
        with pytest.raises(ShapeError, match="4-d"):
            layers.maxpool2_forward(np.zeros((1, 4, 4)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_argmax_reference(self, data):
        """Bitwise y (training and eval) and dx as argmax over each window,
        for both dtypes and both memory layouts, on values with ties, signed
        zeros and NaNs of either sign."""
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        n, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        h, w = 2 * data.draw(st.integers(1, 3)), 2 * data.draw(st.integers(1, 3))

        def array(shape, values):
            flat = data.draw(st.lists(st.sampled_from(values), min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))
            a = np.array(flat, dtype=dtype).reshape(shape)
            return nhwc(a) if data.draw(st.booleans(), label="nhwc") else a

        x = array((n, c, h, w), POOL_VALUES)
        dy = array((n, c, h // 2, w // 2), POOL_VALUES + [-3.5, 2.25])
        if data.draw(st.booleans(), label="other zero tie rule"):
            with other_zero_tie_rule():
                check_pool_against_reference(x, dy)
        else:
            check_pool_against_reference(x, dy)

    @pytest.mark.parametrize("layout", [nhwc, np.ascontiguousarray], ids=["nhwc", "nchw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_windows_with_nan_and_negative_nan_take_the_first_nan(self, dtype, layout):
        nan = math.nan
        windows = [[nan, -nan, 1.0, 2.0], [-nan, nan, -0.0, 0.0], [1.0, -nan, nan, -nan],
                   [-0.0, nan, -nan, 5.0], [0.0, -0.0, -0.0, 0.0], [-nan, -nan, nan, nan]]
        x = (np.array(windows, dtype=dtype).reshape(1, 2, 1, 3, 2, 2)
             .transpose(0, 1, 2, 4, 3, 5).reshape(1, 2, 2, 6))  # 2 channels of 1x3 windows
        dy = np.array([-1.5, 2.0, -0.0, nan, -nan, -3.0], dtype=dtype).reshape(1, 2, 1, 3)
        check_pool_against_reference(layout(x), layout(dy))

    @pytest.mark.parametrize("tie_rule", ["probed", "other"])
    @pytest.mark.parametrize("layout", [nhwc, np.ascontiguousarray], ids=["nhwc", "nchw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_windows_at_model_size(self, dtype, layout, tie_rule):
        """Windows of +0.0, -0.0 and negatives over 32 channels, so numpy's
        vector loops run: with this platform's np.maximum and with a fold
        that keeps the last zero, y keeps the sign of each first zero."""
        x = RNG.choice(np.array([-1.0, -0.0, 0.0], dtype=dtype), size=(4, 32, 8, 10))
        dy = RNG.standard_normal((4, 32, 4, 5)).astype(dtype)
        if tie_rule == "other":
            with other_zero_tie_rule():
                check_pool_against_reference(layout(x), layout(dy))
            return
        try:
            check_pool_against_reference(layout(x), layout(dy))
        except AssertionError as e:
            raise AssertionError(
                "layers.maxpool2_forward lost the sign of a leading zero: np.maximum's tie "
                f"rule on +0.0/-0.0 differs from what _fold_keeps_first_zero probed: {e}") from e

    def test_zero_tie_probe_rejects_a_fold_that_keeps_the_last_zero(self):
        assert layers._fold_keeps_first_zero() == layers._FOLD_KEEPS_FIRST_ZERO
        with mock.patch.object(layers, "_max4", max4_from_the_front):
            assert not layers._fold_keeps_first_zero()

    def test_backward_writes_dx_into_x(self):
        x = nhwc(RNG.standard_normal((64, 32, 32, 32)).astype(np.float32))
        y, cache = layers.maxpool2_forward(x)
        dy = nhwc(RNG.standard_normal(y.shape).astype(np.float32))
        want = reference_maxpool2_backward(dy, reference_maxpool2_forward(x)[1], x.shape)
        tracemalloc.start()
        try:
            dx = layers.maxpool2_backward(dy, cache, out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(dx, x)
        assert peak < x.nbytes / 2, f"peak {peak / 1e6:.1f} MB"
        assert_bitwise(dx, want)

    @pytest.mark.parametrize("case", ["no out", "float64 dy"])
    def test_backward_leaves_x_alone_when_it_cannot_hold_dx(self, case):
        """Without ``out`` dx is a fresh array of dy's dtype in x's layout."""
        x = nhwc(RNG.standard_normal((3, 4, 6, 8)).astype(np.float32))
        x[0, 0, :2, :2] = 0.0  # a tie
        dy = RNG.standard_normal((3, 4, 3, 4)).astype(np.float32)
        if case == "float64 dy":
            dy = dy.astype(np.float64)
        before = x.copy()
        _, cache = layers.maxpool2_forward(x)
        dx = layers.maxpool2_backward(dy, cache)
        assert_bitwise(dx, reference_maxpool2_backward(dy, reference_maxpool2_forward(x)[1], x.shape))
        assert_bitwise(x, before)
        assert not np.shares_memory(dx, x)
        assert dx.strides == np.empty_like(x, dtype=dy.dtype).strides

    def test_backward_casts_dy_to_the_dtype_of_out(self):
        x = nhwc(RNG.standard_normal((3, 4, 6, 8)).astype(np.float32))
        dy = RNG.standard_normal((3, 4, 3, 4))
        _, cache = layers.maxpool2_forward(x)
        out = np.empty_like(x)
        assert layers.maxpool2_backward(dy, cache, out=out) is out
        want_arg = reference_maxpool2_forward(x)[1]
        assert_bitwise(out, reference_maxpool2_backward(dy.astype(np.float32), want_arg, x.shape))

    def test_nhwc_memory_stays_nhwc(self):
        x = nhwc(RNG.standard_normal((2, 3, 4, 6)))
        y, cache = layers.maxpool2_forward(x)
        dx = layers.maxpool2_backward(np.ones_like(y), cache)
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous
        assert dx.transpose(0, 2, 3, 1).flags.c_contiguous


class TestDense:
    def test_identity_weights(self):
        x = RNG.standard_normal((4, 3))
        y, _ = layers.dense_forward(x, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(y, x)

    def test_zero_weights_broadcast_bias(self):
        y, _ = layers.dense_forward(np.ones((2, 3)), np.zeros((3, 5)), np.full(5, 7.0))
        np.testing.assert_array_equal(y, np.full((2, 5), 7.0))

    def test_gradients_match_finite_differences(self):
        x = RNG.standard_normal((2, 3))
        w = RNG.standard_normal((3, 4))
        b = RNG.standard_normal(4)
        dy = RNG.standard_normal((2, 4))

        def loss():
            return float((layers.dense_forward(x, w, b)[0] * dy).sum())

        _, cache = layers.dense_forward(x, w, b)
        dx, dw, db = layers.dense_backward(dy, cache)
        for analytic, arr in ((dx, x), (dw, w), (db, b)):
            np.testing.assert_allclose(analytic, fd_grad(loss, arr), atol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layers.dense_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))


class TestActivationLayer:
    def test_gcu_fixed_points(self):
        z = np.zeros((2, 3))
        y, _ = layers.activation_forward(z, A.GCU)
        np.testing.assert_array_equal(y, z)
        y, _ = layers.activation_forward(np.full((2, 2), math.pi), A.GCU)
        np.testing.assert_allclose(y, -math.pi)

    def test_squ_jacobian_diagonal(self):
        z = RNG.standard_normal((3, 4))
        _, cache = layers.activation_forward(z, A.SQU)
        dy = np.ones_like(z)
        dz = layers.activation_backward(dy, cache)
        np.testing.assert_allclose(dz, 2 * z + 1, atol=1e-12)

        h = 1e-6
        numeric = (layers.activation_forward(z + h, A.SQU)[0]
                   - layers.activation_forward(z - h, A.SQU)[0]) / (2 * h)
        np.testing.assert_allclose(dz, numeric, atol=1e-6)

    def test_kinks_use_zero_subgradient(self):
        z = np.array([-1.0, 0.0, 1.0])
        _, cache = layers.activation_forward(z, A.RELU)
        dz = layers.activation_backward(np.ones(3), cache)
        np.testing.assert_array_equal(dz, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("id", [A.RELU, A.DSU, A.GELU])
    def test_cache_is_the_derivative(self, id):
        z = RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
        y, cache = layers.activation_forward(z, id)
        np.testing.assert_array_equal(y, apply(id, z))
        np.testing.assert_array_equal(cache, apply_grad(id, z))
        assert cache.dtype == np.float32

    def test_without_cache_computes_g_only(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("g' computed without a cache")
        monkeypatch.setattr(layers, "apply_with_grad", forbidden)
        monkeypatch.setattr(layers, "apply_grad", forbidden)
        z = RNG.standard_normal((3, 4))
        y, cache = layers.activation_forward(z, A.DSU, with_cache=False)
        np.testing.assert_array_equal(y, apply(A.DSU, z))
        assert cache is None


class TestConvBlockForward:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("id", [A.RELU, A.SSU, A.GELU, A.DSU])
    def test_peak_is_the_outputs_and_a_few_blocks_per_worker(self, monkeypatch, id, workers):
        """(64,32,32,32) float32 NHWC -> 32 channels, in training and eval:
        above its outputs (y, and g and g' in training) the peak is at most
        2 * BLOCK_BYTES + 4 * CHUNK_BYTES, 3 MiB, per worker.  A worker
        holds a patch block, here one image's 1.125 MiB of patches, its
        padded copy and the block's 128 KiB conv output, 1.4 MiB in all,
        and the kernel's temporaries for that conv output, which is one
        slice: DSU, the hungriest kernel, holds about seven.  These units
        peaked at 1.6 to 2.3 MiB per worker at one and two workers (2-core
        x86-64, numpy 2.4.6), so the margin is five more slice-sized
        temporaries per worker.  A whole-batch conv output or kernel
        temporary, 8 MiB, breaks the bound."""
        monkeypatch.setattr(_workers, "WORKERS", workers)
        rng = np.random.default_rng(8)
        x = nhwc(rng.standard_normal((64, 32, 32, 32)).astype(np.float32))
        w = (rng.standard_normal((32, 32, 3, 3)) / 17).astype(np.float32)
        b = rng.standard_normal(32).astype(np.float32)
        bound = workers * (2 * layers.BLOCK_BYTES + 4 * layers.CHUNK_BYTES)
        for with_cache in (True, False):
            tracemalloc.start()
            try:
                y, cache = layers.conv_block_forward(x, w, b, id, with_cache)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = y.nbytes + (0 if cache is None else cache[1].nbytes + cache[2][0].nbytes)
            assert peak - outputs <= bound, \
                f"{id}, cache {with_cache}: {(peak - outputs) / 2**20:.2f} MiB over the outputs"


def in_a_fresh_thread(fn):
    """fn()'s result, computed on a new thread, whose scratch buffers are new."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join()
    return out[0]


class TestScratch:
    """The conv's per-thread patch and scratch buffers (layers._scratch)
    outlive each call, and no call sees what an earlier one left in them."""

    def test_alternating_shapes_and_dtypes_on_one_thread(self, monkeypatch):
        """Conv forwards and backwards take turns between a float64 and a
        float32 shape on one thread: each result is bitwise the one a fresh
        thread computes and agrees with the single-GEMM reference.  The
        second shape's border lies where the first left data in the shared
        pad buffer, so a call that skipped zeroing it would read that data."""
        monkeypatch.setattr(_workers, "WORKERS", 1)
        rng = np.random.default_rng(31)
        cases = []
        for shape, k, dtype in (((5, 3, 6, 6), 4, np.float64), ((3, 4, 4, 8), 6, np.float32)):
            x = (rng.standard_normal(shape) + 3).astype(dtype)
            w = rng.standard_normal((k, shape[1], 3, 3)).astype(dtype)
            b = rng.standard_normal(k).astype(dtype)
            dy = (rng.standard_normal((shape[0], k, *shape[2:])) + 3).astype(dtype)
            cases.append((x, w, b, dy))

        def conv(x, w, b, dy):
            y, cache = layers.conv2d_forward(x, w, b)
            return [a.tobytes() for a in (y, *layers.conv2d_backward(dy, cache))]

        want = [in_a_fresh_thread(lambda: conv(*case)) for case in cases]
        for case, expected in [*zip(cases, want)] * 3:
            assert conv(*case) == expected
            check_conv_against_reference(*case, need_dx=True)

    def test_a_repeated_block_forward_allocates_no_patch_block(self, monkeypatch):
        """(8,32,32,32) float32 -> 32, relu, one worker: one image's patches,
        1.18 MB, exceed BLOCK_BYTES, so each block is one image.  A second
        identical call reuses the first one's buffers: above y and the cache
        its peak stays under BLOCK_BYTES, so it held no patch block."""
        monkeypatch.setattr(_workers, "WORKERS", 1)
        rng = np.random.default_rng(32)
        x = nhwc(rng.standard_normal((8, 32, 32, 32)).astype(np.float32))
        w = (rng.standard_normal((32, 32, 3, 3)) / 17).astype(np.float32)
        b = rng.standard_normal(32).astype(np.float32)
        assert 32 * 32 * 9 * 32 * 4 > layers.BLOCK_BYTES
        layers.conv_block_forward(x, w, b, A.RELU)
        tracemalloc.start()
        try:
            y, cache = layers.conv_block_forward(x, w, b, A.RELU)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = y.nbytes + cache[1].nbytes + cache[2][0].nbytes
        assert peak - outputs < layers.BLOCK_BYTES, f"{(peak - outputs) / 2**20:.2f} MiB"


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = RNG.standard_normal((5, 5))
        y, mask = layers.dropout_forward(x, train=False)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_inverted_scaling_keeps_the_mean(self):
        x = np.ones(1_000_000, dtype=np.float32)
        y, _ = layers.dropout_forward(x, train=True, rng=np.random.default_rng(7))
        assert abs(float(y.mean()) - 1.0) < 0.01

    def test_survivors_scaled_by_keep_inverse(self):
        x = np.ones(1000)
        y, _ = layers.dropout_forward(x, train=True, rng=np.random.default_rng(3))
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 2.0)  # 1/(1 - DROPOUT_RATE)

    def test_backward_reuses_the_mask(self):
        x = np.ones((4, 4))
        y, mask = layers.dropout_forward(x, train=True, rng=np.random.default_rng(5))
        dy = RNG.standard_normal((4, 4))
        np.testing.assert_array_equal(layers.dropout_backward(dy, mask), dy * mask)

    def test_train_mode_needs_a_generator(self):
        with pytest.raises(ValueError, match="Generator"):
            layers.dropout_forward(np.ones(3), train=True)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss, _ = layers.softmax_cross_entropy(np.zeros((4, 10)), np.arange(4) % 10)
        assert loss == pytest.approx(math.log(10.0), abs=1e-12)

    def test_saturated_true_class(self):
        logits = np.zeros((1, 10))
        logits[0, 3] = 50.0
        loss, _ = layers.softmax_cross_entropy(logits, np.array([3]))
        assert loss < 1e-9

    def test_gradient_rows_sum_to_zero(self):
        logits = RNG.standard_normal((6, 10))
        _, grad = layers.softmax_cross_entropy(logits, RNG.integers(0, 10, 6))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        logits = RNG.standard_normal((3, 10))
        labels = RNG.integers(0, 10, 3)

        def loss():
            return layers.softmax_cross_entropy(logits, labels)[0]

        _, grad = layers.softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad, fd_grad(loss, logits), atol=1e-6)

    def test_large_logits_stay_finite(self):
        logits = np.full((2, 10), 1e4)
        loss, grad = layers.softmax_cross_entropy(logits, np.array([0, 1]))
        assert math.isfinite(loss) and np.isfinite(grad).all()

    def test_out_of_range_label(self):
        with pytest.raises(LabelError, match="10"):
            layers.softmax_cross_entropy(np.zeros((1, 10)), np.array([10]))
