"""Catalog correctness: formulas, derivatives, metadata, numerical safety."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oscnet import activations, layers
from oscnet.activations import (
    COUNTABLY_INFINITE,
    ActivationId,
    all_ids,
    apply,
    apply_grad,
    apply_with_grad,
    derivative,
    descriptor,
    evaluate,
)
from oscnet.errors import DomainError, KinkError

A = ActivationId

# (params, value_range) -> [(z, g(z))]: points where g is fixed by its params
PARAM_POINTS = {
    A.LEAKY_RELU: lambda p, r: [(-2.0, -2.0 * p["negative_slope"])],
    A.PRELU: lambda p, r: [(-2.0, -2.0 * p["alpha"])],
    A.SELU: lambda p, r: [(1.0, p["scale"]), (-50.0, -p["scale"] * p["alpha"])],
    A.SOFT_ROOT_SIGN: lambda p, r: [(-p["beta"], r.lo)],  # the minimum, at z = -beta
}


class TestEvaluate:
    def test_sigmoid_at_zero(self):
        assert evaluate(A.SIGMOID, 0.0) == 0.5

    def test_gcu_at_pi(self):
        assert evaluate(A.GCU, math.pi) == pytest.approx(-math.pi, rel=1e-15)

    def test_ssu_at_zero(self):
        assert evaluate(A.SSU, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_squ_at_minus_one(self):
        assert evaluate(A.SQU, -1.0) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            evaluate(A.TANH, math.nan)

    def test_silu_and_swish_share_formula(self):
        for z in (-3.0, -0.5, 0.0, 1.7, 10.0):
            assert evaluate(A.SILU, z) == evaluate(A.SWISH, z)

    @pytest.mark.parametrize("id", all_ids())
    def test_finite_on_working_domain(self, id):
        """No overflow to inf/nan anywhere in |z| <= 50."""
        z = np.linspace(-50.0, 50.0, 2001)
        assert np.isfinite(apply(id, z)).all()
        assert np.isfinite(apply_grad(id, z)).all()


class TestDerivative:
    def test_squ_slope_at_zero(self):
        assert derivative(A.SQU, 0.0) == 1.0

    def test_gcu_slope_at_zero(self):
        assert derivative(A.GCU, 0.0) == 1.0

    def test_dsu_slope_at_zero_vs_central_difference(self):
        h = 1e-6
        oracle = (evaluate(A.DSU, h) - evaluate(A.DSU, -h)) / (2 * h)
        assert derivative(A.DSU, 0.0) == pytest.approx(oracle, abs=1e-9)
        assert derivative(A.DSU, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("id,point", [
        (A.RELU, 0.0), (A.LEAKY_RELU, 0.0), (A.PRELU, 0.0), (A.ABSOLUTE, 0.0),
        (A.SELU, 0.0), (A.SIGNUM, 0.0), (A.HARD_TANH, -1.0), (A.HARD_TANH, 1.0),
    ])
    def test_kink_raises_and_names_the_point(self, id, point):
        with pytest.raises(KinkError, match=str(point)):
            derivative(id, point)

    def test_elu_is_smooth_at_zero(self):
        """exp(z)-1 has slope 1 at 0-, matching the positive branch: no kink."""
        assert derivative(A.ELU, 0.0) == 1.0

    def test_signum_is_flat_off_the_jump(self):
        assert derivative(A.SIGNUM, 0.5) == 0.0
        assert derivative(A.SIGNUM, -2.0) == 0.0

    @pytest.mark.parametrize(
        "id", [i for i in all_ids() if descriptor(i).nondifferentiable_points])
    def test_array_grad_uses_subgradient_zero_at_kinks(self, id):
        kinks = descriptor(id).nondifferentiable_points
        g = apply_grad(id, np.array(kinks))
        np.testing.assert_array_equal(g, np.zeros(len(kinks)))


class TestDescriptor:
    def test_gcu_row(self):
        d = descriptor(A.GCU)
        assert d.xor_property is True
        assert d.hyperplane_count == COUNTABLY_INFINITE

    def test_softplus_has_no_zeros(self):
        assert descriptor(A.SOFTPLUS).hyperplane_count == 0

    def test_squ_range(self):
        r = descriptor(A.SQU).value_range
        assert (r.lo, r.hi, r.lo_closed) == (-0.25, math.inf, True)

    def test_catalog_covers_every_id_exactly_once(self):
        assert len(all_ids()) == 27
        assert {descriptor(i).id for i in all_ids()} == set(all_ids())

    def test_xor_set_is_the_six_oscillatory_units(self):
        xor = {i for i in all_ids() if descriptor(i).xor_property}
        assert xor == {A.SINE, A.SQU, A.NCU, A.SSU, A.GCU, A.DSU}

    def test_xor_property_excludes_sign_equivalence(self):
        for i in all_ids():
            d = descriptor(i)
            if d.xor_property:
                assert not d.sign_equivalent_identity

    def test_small_value_rows(self):
        assert descriptor(A.SWISH).small_value == (0.0, 0.5)
        assert descriptor(A.SOFTPLUS).small_value == (math.log(2.0), 0.5)
        assert descriptor(A.DSU).small_value == (0.0, 1.0)
        assert descriptor(A.MISH).small_value == (0.0, 0.6)  # tanh(ln 2) = 3/5
        assert descriptor(A.RELU).small_value is None

    @pytest.mark.parametrize("id", [i for i in all_ids() if descriptor(i).params])
    def test_kernels_use_the_params_they_report(self, id):
        """properties.json prints each entry's params; its kernel must compute with them."""
        d = descriptor(id)
        for z, want in PARAM_POINTS[id](d.params, d.value_range):
            assert evaluate(id, z) == pytest.approx(want, rel=1e-12, abs=0.0), (id, z)

    @pytest.mark.parametrize(
        "id", [i for i in all_ids() if descriptor(i).small_value == (0.0, 1.0)])
    def test_linear_regime_ids_are_exact_at_origin(self, id):
        """Every id catalogued as g(z) ~ z satisfies g(0) = 0 exactly and g'(0) = 1."""
        assert evaluate(id, 0.0) == 0.0
        assert abs(derivative(id, 0.0) - 1.0) <= 1e-9


class TestArrayScalarConsistency:
    @given(st.sampled_from(list(all_ids())),
           st.floats(min_value=-20, max_value=20, allow_nan=False))
    @settings(max_examples=300)
    def test_scalar_path_equals_array_path(self, id, z):
        arr = float(apply(id, np.array([z], dtype=np.float64))[0])
        assert evaluate(id, z) == arr

    def test_float32_dtype_preserved(self):
        z = np.linspace(-4, 4, 17, dtype=np.float32)
        for id in all_ids():
            g, dg = apply_with_grad(id, z)
            dtypes = {apply(id, z).dtype, apply_grad(id, z).dtype, g.dtype, dg.dtype}
            assert dtypes == {np.dtype(np.float32)}, id

    @pytest.mark.parametrize("id", all_ids())
    def test_fused_kernel_is_bitwise_equal_to_the_pair(self, id):
        z = np.linspace(-7, 7, 301)
        z[::7] = 0.0
        z[1::7] = math.pi  # the removable points of SSU and DSU
        z[2::7] = -math.pi
        for arr in (z, z.astype(np.float32), z.reshape(7, 43), np.float64(0.3),
                    np.array(-math.pi), np.float32(2.5)):
            g, dg = apply_with_grad(id, arr)
            want_g, want_dg = apply(id, arr), apply_grad(id, arr)
            assert np.shape(g) == np.shape(dg) == np.shape(arr)
            assert np.asarray(g).dtype == np.asarray(want_g).dtype
            np.testing.assert_array_equal(g, want_g, strict=True)
            np.testing.assert_array_equal(dg, want_dg, strict=True)

    @pytest.mark.parametrize("id", [A.SSU, A.DSU])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_sinc_band_gives_the_same_bits(self, id, dtype):
        """An input with no entry in the series band (|z -+ pi| < 0.1) skips
        the series; its g and g' equal those of the same entries computed
        beside one band entry, bit for bit."""
        outside = np.array([-7.0, -math.pi - 0.15, -3.0, -0.5, 0.0, 1.0, 3.0, math.pi + 0.25, 9.0],
                           dtype=dtype)
        mixed = np.append(outside, dtype(math.pi + 0.01))
        g, dg = apply_with_grad(id, outside)
        mixed_g, mixed_dg = apply_with_grad(id, mixed)
        assert np.array_equal(g.view(np.uint8), mixed_g[:-1].view(np.uint8))
        assert np.array_equal(dg.view(np.uint8), mixed_dg[:-1].view(np.uint8))

    def test_float32_derivative_stable_near_sinc_centre(self):
        """(x cos x - sin x)/x^2 cancels in float32 near x=0; the series branch
        must keep SSU and DSU, and their derivatives, accurate around the
        removable points (SSU at z = pi, DSU at z = +-pi)."""
        band = np.linspace(-0.05, 0.05, 5001)
        for id, centre in ((A.SSU, math.pi), (A.DSU, math.pi), (A.DSU, -math.pi)):
            z32 = (centre + band).astype(np.float32)
            for fn in (apply, apply_grad):
                got = fn(id, z32).astype(np.float64)
                want = fn(id, z32.astype(np.float64))
                assert np.abs(got - want).max() < 1e-4, (id, centre, fn.__name__)

    @pytest.mark.parametrize("id", all_ids())
    def test_kernel_memory_stays_bounded(self, id):
        """Peak memory of apply on a 2^20-element float64 input, output included.

        apply runs every input, however large, through its kernel in one
        pass, so each temporary a kernel holds is input-sized and adds to
        the peak of every large call (the property scans' grids, and the XOR
        grid search, which is only a test oracle now)."""
        z = np.linspace(-15.0, 15.0, 2 ** 20)
        tracemalloc.start()
        try:
            apply(id, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.2 * z.nbytes, f"{id}: peak {peak / z.nbytes:.2f}x the input"


# Points where kernels switch formula or have kinks: 0, +-1, +-pi.
_EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, math.pi, -math.pi)


@st.composite
def _laid_out_inputs(draw):
    """An input of some dtype in one of the memory layouts kernels may see."""
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int64]))
    layout = draw(st.sampled_from(["0-d", "C", "NHWC", "reversed", "strided", "broadcast"]))
    if dtype == np.int64:
        elements = st.integers(-12, 12)
    else:
        elements = st.floats(-12.0, 12.0, width=np.dtype(dtype).itemsize * 8) | st.sampled_from(_EDGE_VALUES)
    dims = st.integers(1, 4)
    if layout == "0-d":
        return draw(hnp.arrays(dtype, (), elements=elements))
    shape = tuple(draw(dims) for _ in range(4))
    if layout == "broadcast":  # zero strides on the first and third axes
        small = draw(hnp.arrays(dtype, (1, shape[1], 1, shape[3]), elements=elements))
        return np.broadcast_to(small, shape)
    if layout == "strided":
        base = draw(hnp.arrays(dtype, (2 * shape[0], shape[1], 3 * shape[2], shape[3]), elements=elements))
        return base[::2, :, ::3]
    base = draw(hnp.arrays(dtype, shape, elements=elements))
    if layout == "NHWC":
        return base.transpose(0, 3, 1, 2)
    if layout == "reversed":
        return base[::-1, :, ::-1]
    return base


def _layout(a):
    """Strides of the axes longer than 1; a length-1 axis has no layout."""
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


class TestChunkedEvaluation:
    @pytest.mark.parametrize("id", all_ids())
    @given(z=_laid_out_inputs(), items=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_chunked_equals_single_pass(self, id, z, items):
        """apply, apply_grad and apply_with_grad run z in one pass and keep
        its shape, its dtype (float64 for integer input) and, unless z is
        broadcast, its memory layout (an NHWC view stays NHWC);
        apply_with_grad is bitwise (apply,
        apply_grad).  The conv block's slice loop, layers._chunks, in slices
        of a few elements, so slice edges and a remainder fall mid-array,
        gives the same bits, into two outputs and in place."""
        g, dg = apply(id, z), apply_grad(id, z)
        pair = apply_with_grad(id, z)
        dtype = z.dtype if z.dtype.kind == "f" else np.dtype(np.float64)
        for got, want in zip(pair, (g, dg)):
            np.testing.assert_array_equal(got, want, strict=True)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for out in map(np.asarray, (g, dg, *pair)):
            assert out.shape == z.shape and out.dtype == dtype
            if all(_layout(z)):  # a zero stride leaves the layout to the ufunc
                assert _layout(out) == _layout(np.empty_like(z, dtype=dtype))
        src = np.ascontiguousarray(z, dtype=dtype).reshape(-1)
        outs = (np.empty_like(src), np.empty_like(src), src.copy())
        kernel = activations._kernel(id)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(layers, "CHUNK_BYTES", items * src.itemsize)
            layers._chunks(kernel, src, outs[:2])
            layers._chunks(kernel, outs[2], outs[2:])
        for got, want in zip(outs, (g, dg, g)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
