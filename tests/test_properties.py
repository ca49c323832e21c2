"""Numerical scans vs catalog metadata.

Expected values follow from the defining formulas: root locations come from
solving g(z) = 0 analytically, extreme values from the stationarity equations
noted next to each assertion.  Scans are re-checked here against independent
dense-grid oracles where the catalog stores solver-derived constants.
"""

import math

import numpy as np
import pytest

from oscnet.activations import ActivationId, all_ids, apply, descriptor
from oscnet.errors import ConfigError, UnsupportedPropertyError
from oscnet.properties import (
    DEFAULT_SCAN,
    EXPECTED_CROSSINGS,
    Interval,
    continuity_scan,
    gradient_check,
    monotonicity_scan,
    range_scan,
    sign_equivalence_scan,
    sign_with_tol,
    small_value_check,
    verify_activation,
    verify_catalog,
    zero_crossings,
)

A = ActivationId


class TestInterval:
    def test_grid_endpoints(self):
        g = Interval(-1.0, 1.0, 0.5).grid()
        np.testing.assert_allclose(g, [-1, -0.5, 0, 0.5, 1])

    @pytest.mark.parametrize("lo,hi,step,size", [
        (-1.0, 1.0, 0.5, 5), (-5.0, 5.0, 0.1, 101), (-7.3, 7.3, 0.13, 113),
        (-1e300, 1e300, 1e-300, math.inf),  # (hi - lo)/step overflows
    ])
    def test_size_counts_the_grid(self, lo, hi, step, size):
        iv = Interval(lo, hi, step)
        assert iv.size == size
        if math.isfinite(size):
            assert iv.grid().size == size

    @pytest.mark.parametrize("lo,hi,step", [
        (1, 0, 0.1), (0, 1, 0), (0, 1, 2),
        (-np.inf, 1, 0.1), (0, np.inf, 0.1), (-np.inf, np.inf, 0.1), (np.nan, 1, 0.1),
        (-1e308, 1e308, 1e307),  # finite ends, but the width overflows
    ])
    def test_rejects_bad_bounds(self, lo, hi, step):
        with pytest.raises(ConfigError):
            Interval(lo, hi, step)


class TestZeroCrossings:
    @pytest.mark.parametrize("id,count", sorted(EXPECTED_CROSSINGS.items()))
    def test_counts_on_default_window(self, id, count):
        assert zero_crossings(id).count == count

    def test_squ_brackets_near_its_roots(self):
        """z^2 + z = z(z+1): roots exactly at 0 and -1."""
        r = zero_crossings(A.SQU)
        assert r.count == 2
        assert any(abs(z) < 1e-9 for z in r.exact_zeros)
        assert any(abs(z + 1.0) < 1e-9 for z in r.exact_zeros)
        (lo1, hi1), (lo2, hi2) = r.brackets
        assert lo1 < -1.0 < hi1 and lo2 < 0.0 < hi2

    @pytest.mark.parametrize("id", all_ids())
    def test_one_bracket_per_counted_crossing(self, id):
        """Each bracket spans one sign change of g: g has opposite signs at
        its ends, and the brackets run left to right without overlapping."""
        r = zero_crossings(id)
        ends = np.array(r.brackets).reshape(-1, 2)
        assert np.all(ends[:, 0] < ends[:, 1]) and np.all(ends[1:, 0] >= ends[:-1, 1])
        g = apply(id, ends)
        np.testing.assert_array_equal(np.sign(g[:, 0]), -np.sign(g[:, 1]))
        assert np.all(g != 0)

    def test_gcu_brackets_near_cosine_roots(self):
        """z cos z = 0 at 0 and odd multiples of pi/2."""
        r = zero_crossings(A.GCU)
        roots = [0.0] + [s * k * math.pi / 2 for s in (-1, 1) for k in (1, 3, 5)]
        located = [0.5 * (lo + hi) for lo, hi in r.brackets] + list(r.exact_zeros)
        for root in roots:
            assert min(abs(z - root) for z in located) < 1e-3

    def test_touching_root_is_not_a_crossing(self):
        """z^2 cos z touches zero at the origin without changing sign."""
        r = zero_crossings(A.Z_SQ_COS)
        assert any(abs(z) < 1e-9 for z in r.exact_zeros)
        assert all(not (lo < 0 < hi) for lo, hi in r.brackets)


class TestGradientCheck:
    def test_identity_is_exact(self):
        r = gradient_check(A.IDENTITY)
        assert r.max_rel_error == 0.0
        assert r.passed

    @pytest.mark.parametrize("id", all_ids())
    def test_analytic_matches_central_difference(self, id):
        r = gradient_check(id)
        assert r.passed, f"{id.value}: max rel err {r.max_rel_error:.3e} at z={r.worst_input}"

    def test_mish_slope_at_origin(self):
        """Mish'(0) = tanh(ln 2) = (4-1)/(4+1) = 0.6 exactly."""
        from oscnet.activations import derivative
        assert derivative(A.MISH, 0.0) == pytest.approx(math.tanh(math.log(2)), abs=1e-15)
        assert math.tanh(math.log(2)) == pytest.approx(0.6, abs=1e-15)


class TestSmallValue:
    def test_swish_half_slope(self):
        r = small_value_check(A.SWISH)
        assert r.passed and r.measured[1] == pytest.approx(0.5, abs=1e-9)

    def test_softplus_offset_and_slope(self):
        r = small_value_check(A.SOFTPLUS)
        assert r.passed
        assert r.measured[0] == pytest.approx(math.log(2.0), abs=1e-15)
        assert r.measured[1] == pytest.approx(0.5, abs=1e-9)

    def test_dsu_behaves_like_identity(self):
        r = small_value_check(A.DSU)
        assert r.passed and r.expected == (0.0, 1.0)

    def test_bipolar_sigmoid_true_slope_is_half(self):
        """(1-e^-z)/(1+e^-z) = tanh(z/2), so the slope at 0 is 1/2, not 1."""
        r = small_value_check(A.BIPOLAR_SIGMOID)
        assert r.passed
        assert r.measured[1] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("id", [A.RELU, A.SIGNUM, A.ABSOLUTE, A.SELU, A.SSU])
    def test_untabulated_ids_are_unsupported(self, id):
        with pytest.raises(UnsupportedPropertyError):
            small_value_check(id)

    @pytest.mark.parametrize(
        "id", [i for i in all_ids() if descriptor(i).small_value is not None])
    def test_every_tabulated_pair_verifies(self, id):
        assert small_value_check(id).passed


class TestSignEquivalence:
    @pytest.mark.parametrize("id", all_ids())
    def test_scan_agrees_with_catalog(self, id):
        r = sign_equivalence_scan(id)
        assert r.equivalent == descriptor(id).sign_equivalent_identity, id.value

    def test_gcu_counterexample_is_genuine(self):
        """2 cos 2 < 0 while sign(2) > 0; the scan's witness must violate too."""
        assert 2.0 * math.cos(2.0) < 0
        r = sign_equivalence_scan(A.GCU)
        assert not r.equivalent
        z = r.counterexample
        assert float(sign_with_tol(z)) != np.sign(apply(A.GCU, np.float64(z)))

    def test_relu_fails_on_negative_inputs(self):
        """relu(-1) = 0 cannot match sign(-1) = -1."""
        r = sign_equivalence_scan(A.RELU)
        assert not r.equivalent
        assert r.counterexample < 0

    def test_bipolar_sigmoid_holds(self):
        assert sign_equivalence_scan(A.BIPOLAR_SIGMOID).equivalent

    def test_gelu_survives_tail_underflow(self):
        """GELU's negative tail is ~1e-38 near z=-10 but keeps its sign."""
        assert sign_equivalence_scan(A.GELU).equivalent


class TestRangeScan:
    def test_squ_minimum(self):
        """min of z^2+z is -1/4 at z = -1/2."""
        r = range_scan(A.SQU)
        assert r.passed and r.observed_min == -0.25

    def test_dsu_extremes_match_formula(self):
        """Extremes of (pi/2)(sinc(z-pi)-sinc(z+pi)) = pi^2 sin(z)/(pi^2-z^2).

        The stationarity equation tan z = (z^2-pi^2)/(2z) puts them at
        z = ±2.63099585..., value ±1.63640814 (note f(pi) = pi/2 already
        exceeds 1.04, so no smaller bound is possible).
        """
        r = range_scan(A.DSU)
        assert r.passed
        assert r.observed_min == pytest.approx(-1.636408136824882, abs=1e-6)
        assert r.observed_max == pytest.approx(+1.636408136824882, abs=1e-6)

    def test_ssu_min_and_max(self):
        """pi*sinc(z-pi): max pi at z=pi; min pi*cos(x*) with tan x* = x*."""
        r = range_scan(A.SSU)
        assert r.observed_min == pytest.approx(-0.68, abs=0.01)
        assert r.observed_max == pytest.approx(math.pi, abs=1e-6)

    def test_silu_interior_minimum(self):
        """At the minimum of z*sigmoid(z), 1+z(1-sigmoid(z))=0, so min = z*+1."""
        r = range_scan(A.SILU)
        assert r.passed
        grid = np.linspace(-2.0, -0.5, 300001)  # independent dense oracle
        oracle = float(apply(A.SILU, grid).min())
        assert r.observed_min == pytest.approx(oracle, abs=1e-7)
        assert descriptor(A.SILU).value_range.lo == pytest.approx(oracle, abs=1e-9)

    def test_srs_minimum_at_minus_beta(self):
        """z/(z/a+e^(-z/b)) is stationary at z=-b with value ab/(b-ae)."""
        r = range_scan(A.SOFT_ROOT_SIGN)
        a, b = 2.0, 3.0
        assert r.passed
        assert r.observed_min == pytest.approx(a * b / (b - a * math.e), abs=1e-9)

    @pytest.mark.parametrize("id", all_ids())
    def test_every_id_within_catalog_range(self, id):
        assert range_scan(id).passed, id.value


class TestMonotonicity:
    def test_tanh_is_nondecreasing(self):
        assert monotonicity_scan(A.TANH).nondecreasing

    def test_monotonic_cubic_is_nondecreasing(self):
        assert monotonicity_scan(A.MONOTONIC_CUBIC).nondecreasing

    def test_sine_is_not(self):
        r = monotonicity_scan(A.SINE)
        assert not r.nondecreasing and len(r.violations) > 0

    def test_silu_dips_before_its_minimum(self):
        """z*sigmoid(z) decreases on (-inf, -1.2785)."""
        r = monotonicity_scan(A.SILU)
        assert not r.nondecreasing
        assert all(v < -1.2 for v in r.violations)

    @pytest.mark.parametrize("id", all_ids())
    def test_scan_agrees_with_catalog(self, id):
        r = monotonicity_scan(id)
        assert r.nondecreasing == descriptor(id).monotonic, id.value


class TestContinuity:
    @pytest.mark.parametrize("id", all_ids())
    def test_scan_agrees_with_catalog(self, id):
        r = continuity_scan(id)
        assert r.continuous == descriptor(id).continuous, id.value

    @pytest.mark.parametrize("id", all_ids())
    def test_blocked_fine_pass_matches_one_pass(self, id):
        """The fine pass runs in overlapping blocks; its max jump is the one-pass one, bit for bit."""
        fine = Interval(DEFAULT_SCAN.lo, DEFAULT_SCAN.hi, DEFAULT_SCAN.step / 10.0).grid()
        one_pass = float(np.abs(np.diff(apply(id, fine))).max())
        assert continuity_scan(id).max_jump_fine == one_pass

    def test_signum_jump_does_not_shrink(self):
        r = continuity_scan(A.SIGNUM)
        assert not r.continuous
        assert r.max_jump_fine == pytest.approx(r.max_jump_coarse, rel=1e-12)


class TestCatalogReport:
    def test_no_contradictions(self):
        rows = verify_catalog()
        bad = [(r.id.value, r.contradictions) for r in rows if r.contradictions]
        assert bad == []

    def test_report_shape(self):
        rows = [verify_activation(A.SQU), verify_activation(A.GCU)]
        assert [r.id for r in rows] == [A.SQU, A.GCU]
        assert rows[0].measured["zero_crossings"] == 2
        assert rows[0].descriptor_fields["xor_property"] is True
