"""Single-neuron XOR: dataset, certification oracle, training, boundaries."""

import json
import tracemalloc

import numpy as np
import pytest

from oscnet import xorlab
from oscnet.activations import ActivationId, apply, apply_grad, apply_with_grad, descriptor
from oscnet.cli import _write_json
from oscnet.errors import ConfigError
from oscnet.properties import DEFAULT_SCAN, Interval, _sign_changes, sign_with_tol
from oscnet.xorlab import (
    SingleNeuron,
    TrainSpec,
    XorCertificate,
    certificate_to_dict,
    decision_boundary_grid,
    grid_search_certificate,
    neuron_forward,
    train_single_neuron,
    write_boundary_csv,
    xor_dataset,
    xor_ruled_out,
    xor_witness,
)

A = ActivationId
RULED_OUT = sorted((i for i in A if xor_ruled_out(i)), key=lambda i: i.value)
NON_MONOTONE = [i for i in A if not descriptor(i).monotonic]


def sequential_reference(id, spec):
    """The trainer as it was before restarts were batched: one restart after
    another, each stopping at its first non-finite theta."""
    _X, _Y, _certificate_for = xorlab._X, xorlab._Y, xorlab._certificate_for
    id = ActivationId(id)
    best, best_trace = None, []

    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for restart in range(spec.restarts):
            rng = np.random.default_rng(spec.seed + restart)
            theta = rng.uniform(-spec.init_scale, spec.init_scale, size=3)
            trace = []
            for _ in range(spec.epochs):
                a, da = apply_with_grad(id, _X @ theta[:2] + theta[2])
                err = a - _Y
                trace.append(float(err @ err))
                gz = 2.0 * err * da
                theta = theta - spec.learning_rate * np.array([gz @ _X[:, 0], gz @ _X[:, 1], gz.sum()])
                if not np.isfinite(theta).all():
                    break
            else:
                cert = _certificate_for(id, theta[0], theta[1], theta[2])
                if best is None or (cert.correct, cert.min_abs_margin) > (best.correct, best.min_abs_margin):
                    best, best_trace = cert, trace
                if cert.valid:
                    break

    if best is None:  # every restart diverged: report the zero neuron honestly
        best = _certificate_for(id, 0.0, 0.0, 0.0)
    return best, best_trace


def record_kernel_calls(monkeypatch):
    """A list that gets the input shape of each training kernel call."""
    calls = []
    lookup = xorlab._kernel
    monkeypatch.setattr(xorlab, "_kernel",
                        lambda i: lambda z: calls.append(z.shape) or lookup(i)(z))
    return calls


def cert_bits(cert):
    """The certificate's floats as raw bits, so -0.0 and +0.0 differ."""
    n = cert.neuron
    return n.activation, cert.correct, np.array([*n.w, n.b, *cert.margins]).view(np.uint64).tolist()


def reference_grid_search(id, bound=5.0, resolution=0.1):
    """The grid search as it was before g was tabulated: g evaluated on the
    full (n, n, n) pre-activation cube, once per XOR point."""
    _XOR_INPUTS, _XOR_LABELS = xorlab._XOR_INPUTS, xorlab._XOR_LABELS
    _point_correct, _certificate_for = xorlab._point_correct, xorlab._certificate_for
    axis = Interval(-bound, bound, resolution).grid()
    w1, w2, b = axis[:, None, None], axis[None, :, None], axis

    correct = np.zeros((axis.size,) * 3, dtype=np.int8)
    min_abs = np.full(correct.shape, np.inf)
    for (x1, x2), y in zip(_XOR_INPUTS, _XOR_LABELS):
        m = apply(id, w1 * x1 + w2 * x2 + b)
        correct += _point_correct(y, m)
        np.minimum(min_abs, np.abs(m), out=min_abs)

    candidates = np.flatnonzero(correct == correct.max())
    winner = candidates[np.argmax(min_abs.ravel()[candidates])]
    i, j, k = np.unravel_index(winner, correct.shape)
    return _certificate_for(id, axis[i], axis[j], axis[k])


def reference_boundary_csv(path, neuron, resolution):
    """The boundary CSV writer as it was before rows were joined: one repr
    pair and one write per cell, with an axis of its own."""
    grid = decision_boundary_grid(neuron)
    axis = [float(v) for v in np.linspace(-2.0, 2.0, resolution)]
    with open(path, "w") as fh:
        fh.write("x1,x2,sign\n")
        for i, a in enumerate(axis):
            for j, c in enumerate(axis):
                fh.write(f"{a!r},{c!r},{int(grid[i, j])}\n")


class TestDataset:
    def test_canonical_four_points(self):
        ds = xor_dataset()
        assert len(ds.inputs) == len(ds.labels) == 4
        assert ds.inputs == ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
        assert ds.labels == (-1.0, 1.0, 1.0, -1.0)

    def test_label_is_minus_product_of_inputs(self):
        ds = xor_dataset()
        for (x1, x2), y in zip(ds.inputs, ds.labels):
            assert y == -x1 * x2


class TestNeuronForward:
    def test_hand_worked_squ_neuron(self):
        # w=(1.1,-1.0), b=-0.5: z(1,1) = -0.4, z(1,-1) = 1.6; g(z) = z^2+z
        n = SingleNeuron((1.1, -1.0), -0.5, A.SQU)
        assert neuron_forward(n, (1.0, 1.0)) == pytest.approx(-0.24, abs=1e-9)
        assert neuron_forward(n, (1.0, -1.0)) == pytest.approx(4.16, abs=1e-9)

    def test_zero_neuron_outputs_identity_of_bias(self):
        n = SingleNeuron((0.0, 0.0), 0.0, A.IDENTITY)
        for x in xor_dataset().inputs:
            assert neuron_forward(n, x) == 0.0


class TestRuledOut:
    def test_rules_out_exactly_the_ids_without_a_certificate(self):
        """The 20 ids for which `oscnet xor` exits 5; the seven it certifies stay open."""
        assert len(RULED_OUT) == 20
        assert {i for i in A if not xor_ruled_out(i)} == {
            A.SINE, A.SQU, A.NCU, A.Z_SQ_COS, A.SSU, A.GCU, A.DSU}


class TestWitness:
    @pytest.mark.parametrize("id", list(A), ids=str)
    def test_valid_exactly_where_the_catalog_leaves_xor_open(self, id):
        """Witness valid <=> not ruled out <=> the default grid oracle certifies."""
        cert = xor_witness(id)
        assert cert.valid == (not xor_ruled_out(id)) == grid_search_certificate(id).valid
        redone = tuple(neuron_forward(cert.neuron, x) for x in xor_dataset().inputs)
        assert redone == cert.margins  # bit for bit, same scalar path


def derivative_sign_changes(id):
    """The sign changes of g' on DEFAULT_SCAN, found by the scan that
    `zero_crossings` runs on g: (lo, hi, g' rises) per bracket; g' rises
    through a local minimum of g and falls through a local maximum."""
    grid = DEFAULT_SCAN.grid()
    signs = sign_with_tol(apply_grad(id, grid))
    return [(grid[i], grid[j], signs[i] < 0) for i, j in _sign_changes(signs)]


class TestReadoutRule:
    """`oscnet xor` decides the paper's rule, sign(g(w.x + b)).  A neuron
    inside a network is read through a readout, sign(v*g(w.x + b) + c), and
    under that rule every non-monotone g realizes XOR: the +1 points sit at
    a local extremum b of g, the -1 points at b +- p, and the threshold
    halfway between g(b) and the nearer of g(b - p) and g(b + p)."""

    @pytest.mark.parametrize("id", list(A), ids=str)
    def test_derivative_changes_sign_exactly_where_g_is_not_monotonic(self, id):
        assert bool(derivative_sign_changes(id)) == (not descriptor(id).monotonic)

    def test_fourteen_ids_are_not_monotonic(self):
        """The seven that `oscnet xor` certifies and seven it rules out."""
        assert len(NON_MONOTONE) == 14
        assert {A.SWISH, A.MISH, A.GELU} <= set(NON_MONOTONE) & set(RULED_OUT)

    @pytest.mark.parametrize("id", NON_MONOTONE, ids=str)
    def test_every_non_monotone_id_scores_xor_under_a_readout(self, id):
        lo, hi, rises = derivative_sign_changes(id)[0]
        b, half = 0.5 * (lo + hi), 0.025
        v = -1.0 if rises else 1.0  # v*g has a local maximum at b
        ds = xor_dataset()
        a = v * apply(id, np.array(ds.inputs) @ (half, half) + b)  # b - 2*half, b, b, b + 2*half
        c = -0.5 * (a[1] + max(a[0], a[3]))
        assert (np.array(ds.labels) * (a + c) > xorlab.MARGIN_TOL).all()


class TestGridSearch:
    def test_squ_example_triple_is_a_valid_certificate(self):
        n = SingleNeuron((1.1, -1.0), -0.5, A.SQU)
        margins = tuple(neuron_forward(n, x) for x in xor_dataset().inputs)
        np.testing.assert_allclose(margins, (-0.24, 4.16, 4.16, -0.24), atol=1e-9)

    def test_ncu_example_triple_is_a_valid_certificate(self):
        """Roots -1, 0, 1: the witness puts b = -0.5 (g(b) < 0) and reaches p = 1
        halfway to the root at 1, so it builds exactly this triple."""
        n = SingleNeuron((0.5, -0.5), -0.5, A.NCU)
        margins = tuple(neuron_forward(n, x) for x in xor_dataset().inputs)
        np.testing.assert_allclose(margins, (-0.375, 0.375, 1.875, -0.375), atol=1e-12)
        assert xor_witness(A.NCU) == XorCertificate(n, margins, 4)

    @pytest.mark.parametrize("id", [A.SQU, A.NCU, A.GCU])
    def test_oscillatory_units_certify(self, id):
        cert = grid_search_certificate(id)
        assert cert.valid
        assert abs(cert.neuron.w[0]) <= 5 and abs(cert.neuron.b) <= 5

    def test_relu_cannot_reach_four(self):
        cert = grid_search_certificate(A.RELU)
        assert not cert.valid
        assert cert.correct <= 3

    @pytest.mark.parametrize("id", RULED_OUT)
    def test_single_hyperplane_units_never_certify(self, id):
        """No id that ``xor_ruled_out`` proves negative has a certificate on the default grid."""
        cert = grid_search_certificate(id)
        assert not cert.valid, id.value

    @pytest.mark.parametrize("id", RULED_OUT)
    def test_ruled_out_units_never_certify_on_a_finer_window(self, id):
        """The proof does not depend on the window: [-3, 3] at step 0.05 (121 points) finds none either."""
        cert = grid_search_certificate(id, 3.0, 0.05)
        assert not cert.valid, id.value

    def test_z_sq_cos_does_certify(self):
        """z^2 cos z flips sign at ±pi/2 around a positive hump, which is the
        exact pattern XOR needs; its catalog flag stays false because the
        tabulated XOR analysis never covered it."""
        assert grid_search_certificate(A.Z_SQ_COS).valid

    def test_margins_bit_identical_under_reevaluation(self):
        cert = grid_search_certificate(A.SQU)
        redone = tuple(neuron_forward(cert.neuron, x) for x in xor_dataset().inputs)
        assert redone == cert.margins  # bit-for-bit, same scalar path

    def test_deterministic_winner(self):
        a = grid_search_certificate(A.GCU)
        b = grid_search_certificate(A.GCU)
        assert a.neuron == b.neuron and a.margins == b.margins

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            grid_search_certificate(A.SQU, bound=-1.0)

    @pytest.mark.parametrize("bound,resolution", [(np.inf, 0.1), (5.0, 10.0), (5.0, np.nan)])
    def test_window_follows_the_interval_rule(self, bound, resolution):
        with pytest.raises(ValueError):
            grid_search_certificate(A.TANH, bound, resolution)

    def test_refuses_a_grid_just_over_the_triple_limit(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built or evaluated")

        monkeypatch.setattr(xorlab, "apply", no_grid)
        monkeypatch.setattr(Interval, "grid", no_grid)
        assert 322 ** 3 <= xorlab.MAX_GRID_TRIPLES < 323 ** 3
        with pytest.raises(ConfigError, match="has 323 points per axis"):
            grid_search_certificate(A.TANH, 16.1, 0.1)

    @pytest.mark.parametrize("id,w,b,margins,correct", [
        # relu is never negative, so its best triple scores only the two +1 points
        (A.RELU, (0.0, 0.0), 5.0, (5.0, 5.0, 5.0, 5.0), 2),
        (A.GCU, (-3.8, -3.8), -3.8,
         (-3.005677305274784, 3.005677305274784, 3.005677305274784, -4.485795876365937), 4),
        (A.DSU, (-3.5, -2.9), 1.1000000000000005,
         (-0.1996034871943852, 0.4918851346180976, 1.4022770941171891, -0.4508217379839713), 4),
        (A.Z_SQ_COS, (-1.4, 5.0), 0.0,
         (-11.621989075690546, 40.68085427233558, 40.68085427233558, -11.621989075690546), 4),
    ])
    def test_golden_winners(self, id, w, b, margins, correct):
        """Winning triple and margins, bit for bit, as the default grid has always chosen them."""
        cert = grid_search_certificate(id)
        assert (cert.neuron.w, cert.neuron.b, cert.margins) == (w, b, margins)
        assert cert.correct == correct and cert.valid == (correct == 4)

    @pytest.mark.parametrize("id", list(A), ids=str)
    def test_matches_the_per_triple_reference(self, id):
        """Tabulating g on the distinct sums picks the reference's certificate."""
        assert grid_search_certificate(id) == reference_grid_search(id)

    @pytest.mark.parametrize("bound,resolution", [
        (7.3, 0.13),  # 113 points: the step does not divide the window, the axis is not symmetric
        (1.0, 0.1),   # 21 points, 0.0 among them
        (0.3, 0.2),   # 4 points
    ])
    @pytest.mark.parametrize("id", [A.SQU, A.GCU, A.DSU, A.Z_SQ_COS, A.TANH, A.RELU, A.SIGNUM], ids=str)
    def test_matches_the_reference_on_other_windows(self, id, bound, resolution):
        assert grid_search_certificate(id, bound, resolution) == reference_grid_search(id, bound, resolution)

    @pytest.mark.parametrize("id", [A.GELU, A.DSU], ids=str)
    def test_peak_memory_per_triple(self, id):
        """The int8 count and float64 margin cubes, plus the winner's
        candidates, stay under 14 bytes per triple at the default grid
        (101 points per axis), as the MAX_GRID_TRIPLES comment assumes."""
        tracemalloc.start()
        try:
            grid_search_certificate(id)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 101 ** 3


class TestTraining:
    def test_squ_learns_with_reference_settings(self):
        cert, trace = train_single_neuron(A.SQU, TrainSpec())
        assert cert.valid and cert.correct == 4
        assert len(trace) > 0 and np.isfinite(trace).all()

    @pytest.mark.parametrize("id", [A.GCU, A.SINE, A.SSU])
    def test_default_settings_suffice_for_most_oscillatory_units(self, id):
        cert, _ = train_single_neuron(id, TrainSpec())
        assert cert.valid

    def test_tanh_caps_at_three(self):
        cert, _ = train_single_neuron(A.TANH, TrainSpec())
        assert not cert.valid
        assert cert.correct <= 3

    def test_ncu_learns_at_smaller_step(self):
        # lr=0.05 explodes the cubic's gradients; 0.01 converges
        cert, _ = train_single_neuron(A.NCU, TrainSpec(learning_rate=0.01))
        assert cert.valid

    def test_dsu_learns_from_wider_init(self):
        cert, _ = train_single_neuron(A.DSU, TrainSpec(init_scale=2.0))
        assert cert.valid

    def test_certificate_margins_reproducible(self):
        cert, _ = train_single_neuron(A.SINE, TrainSpec())
        redone = tuple(neuron_forward(cert.neuron, x) for x in xor_dataset().inputs)
        assert redone == cert.margins

    @pytest.mark.parametrize("id,spec", [
        (A.DSU, TrainSpec(init_scale=2.0, restarts=3)),
        (A.TANH, TrainSpec(restarts=2, epochs=300)),
        (A.RELU, TrainSpec(restarts=2, epochs=300)),
    ])
    def test_fused_kernel_matches_separate_calls(self, monkeypatch, id, spec):
        """Certificate and loss trace equal those of separate g and g' calls, bit for bit."""
        cert, trace = train_single_neuron(id, spec)
        monkeypatch.setattr(xorlab, "_kernel", lambda i: lambda z: iter((apply(i, z), apply_grad(i, z))))
        ref_cert, ref_trace = train_single_neuron(id, spec)
        assert cert == ref_cert
        assert np.array_equal(trace, ref_trace)

    def test_one_kernel_call_per_epoch(self, monkeypatch):
        """All restarts share at most one kernel call per epoch, one row per restart."""
        shapes = record_kernel_calls(monkeypatch)
        monkeypatch.setattr(xorlab, "apply", lambda i, z: pytest.fail("apply called in training"))
        _, trace = train_single_neuron(A.GCU, TrainSpec(restarts=5, epochs=50))
        assert len(shapes) == len(trace) == 50
        assert set(shapes) == {(5, 4)}

    @pytest.mark.parametrize("id,spec", [
        *((id, TrainSpec()) for id in A),
        (A.SQU, TrainSpec(learning_rate=1e6, restarts=3, epochs=50)),  # every restart diverges
        (A.NCU, TrainSpec()),  # some restarts diverge
        (A.DSU, TrainSpec(init_scale=2.0)),
        (A.TANH, TrainSpec(restarts=1)),
    ], ids=str)
    def test_batched_restarts_match_the_sequential_loop(self, id, spec):
        """Certificate and loss trace equal those of one restart after another, bit for bit."""
        cert, trace = train_single_neuron(id, spec)
        ref_cert, ref_trace = sequential_reference(id, spec)
        assert cert == ref_cert
        assert type(trace) is list and all(type(v) is float for v in trace)
        assert np.array_equal(np.array(trace).view(np.uint64), np.array(ref_trace).view(np.uint64))

    @pytest.mark.parametrize("id", [A.RELU, A.ABSOLUTE, A.HARD_TANH, A.GCU, A.NCU])
    # The check runs at odd epochs, so an even and an odd count cover both
    # parities of the rest; at 301 absolute and hard_tanh have not repeated yet.
    @pytest.mark.parametrize("epochs", [2000, 1001])
    def test_fast_forward_matches_the_sequential_loop(self, monkeypatch, id, epochs):
        """These runs reach a fixed point or a 2-cycle (absolute: every restart;
        ncu: most restarts diverge first), so the loop stops early, yet the
        certificate and loss trace equal the full sequential run bit for bit."""
        spec = TrainSpec(seed=22, epochs=epochs)
        calls = record_kernel_calls(monkeypatch)
        cert, trace = train_single_neuron(id, spec)
        ref_cert, ref_trace = sequential_reference(id, spec)
        assert len(calls) < epochs
        assert cert_bits(cert) == cert_bits(ref_cert)
        assert np.array_equal(np.array(trace).view(np.uint64), np.array(ref_trace).view(np.uint64))

    def test_relu_stops_long_before_the_last_epoch(self, monkeypatch):
        calls = record_kernel_calls(monkeypatch)
        _, trace = train_single_neuron(A.RELU, TrainSpec())
        assert len(calls) <= 500
        assert len(trace) == TrainSpec().epochs

    def test_a_zero_of_the_other_sign_is_no_repeat(self):
        theta = np.array([[0.5, -0.0, 1.0], [2.0, 3.0, 4.0]])
        flipped = theta.copy()
        flipped[0, 1] = 0.0
        assert xorlab._repeats(theta, theta, theta.copy())
        assert not xorlab._repeats(flipped, theta, theta)

    def test_non_finite_rows_do_not_block_a_repeat(self):
        nan_a, nan_b = (np.array([bits], dtype=np.uint64).view(np.float64)[0]
                        for bits in (0x7FF8000000000001, 0x7FF8000000000002))
        theta = np.array([[0.5, 1.0, 1.0], [nan_a, np.inf, 0.0]])
        earlier = np.array([[0.5, 1.0, 1.0], [nan_b, 1.0, 0.0]])
        assert xorlab._repeats(theta, theta, earlier)
        # a row that went non-finite in the last epoch is no repeat: its final
        # theta may be the finite one of the two
        before = np.array([[0.5, 1.0, 1.0], [1.0, 1.0, 0.0]])
        assert not xorlab._repeats(theta, before, earlier)

    @pytest.mark.parametrize("id,w,b,margins", [
        (A.SQU, (-0.5584006948287524, 0.5584006948287524), -0.5,
         (-0.25, 0.9972453439409341, 0.997245343940934, -0.25)),
        (A.SINE, (1.5450227822760496, 1.5650451411490782), 1.5639847265345872,
         (-0.9996946461465933, 0.9996399909217786, 0.9999127391975424, -0.9992652528779624)),
    ])
    def test_golden_trained_neurons(self, id, w, b, margins):
        """Default training reproduces these neurons and margins bit for bit."""
        cert, trace = train_single_neuron(id, TrainSpec())
        assert (cert.neuron.w, cert.neuron.b, cert.margins, cert.correct) == (w, b, margins, 4)
        assert len(trace) == TrainSpec().epochs

    def test_every_restart_diverging_yields_the_zero_neuron(self):
        cert, trace = train_single_neuron(A.SQU, TrainSpec(learning_rate=1e6, restarts=3, epochs=50))
        assert cert.neuron == SingleNeuron((0.0, 0.0), 0.0, A.SQU)
        assert cert.margins == (0.0, 0.0, 0.0, 0.0) and cert.correct == 0
        assert trace == []

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrainSpec(learning_rate=-0.1)

    @pytest.mark.parametrize("field", ["learning_rate", "init_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainSpec(**{field: value})

    def test_seed_zero_is_valid_and_negative_is_not(self):
        assert TrainSpec(seed=0).seed == 0
        with pytest.raises(ConfigError):
            TrainSpec(seed=-1)


class TestBoundaryGrid:
    def _certified_squ(self):
        return SingleNeuron((1.1, -1.0), -0.5, A.SQU)

    def test_xor_cells_match_labels(self):
        grid = decision_boundary_grid(self._certified_squ())
        axis = xorlab.BOUNDARY_AXIS
        idx = {v: int(np.argmin(np.abs(axis - v))) for v in (-1.0, 1.0)}
        ds = xor_dataset()
        for (x1, x2), y in zip(ds.inputs, ds.labels):
            assert grid[idx[x1], idx[x2]] == y

    def test_zero_neuron_grid_is_all_zero(self):
        grid = decision_boundary_grid(SingleNeuron((0.0, 0.0), 0.0, A.IDENTITY))
        assert (grid == 0).all()

    def test_ncu_cell_example(self):
        n = SingleNeuron((0.5, -0.5), -0.5, A.NCU)
        grid = decision_boundary_grid(n)
        assert grid[25, 75] == 1  # x=(-1,1): g(-1.5) = 1.875 > 0


class TestExports:
    def test_certificate_json_roundtrip(self, tmp_path):
        cert, _ = train_single_neuron(A.SQU, TrainSpec())
        path = tmp_path / "cert.json"
        _write_json(path, certificate_to_dict(cert, "trained"))
        loaded = json.loads(path.read_text())
        assert loaded["activation"] == "squ" and loaded["source"] == "trained"
        assert loaded["correct"] == 4 and loaded["valid"] is True
        assert loaded["margins"] == list(cert.margins)
        assert loaded["w"] == [cert.neuron.w[0], cert.neuron.w[1]]
        assert loaded["b"] == cert.neuron.b

    def test_boundary_csv_header_and_size(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_boundary_csv(path, SingleNeuron((1.1, -1.0), -0.5, A.SQU))
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,sign"
        assert len(lines) == 1 + 101 * 101
        first, last = lines[1].split(","), lines[-1].split(",")
        assert (float(first[0]), float(first[1])) == (-2.0, -2.0)
        assert (float(last[0]), float(last[1])) == (2.0, 2.0)
        assert int(first[2]) in (-1, 0, 1)

    @pytest.mark.parametrize("resolution", [2, 11, 101])
    @pytest.mark.parametrize("neuron", [
        SingleNeuron((1.1, -1.0), -0.5, A.SQU),
        SingleNeuron((-3.5, -2.9), 1.1000000000000005, A.DSU),
        SingleNeuron((0.0, 0.0), 0.0, A.IDENTITY),  # every cell has sign 0
    ], ids=lambda n: n.activation.value)
    def test_boundary_csv_bytes_match_the_reference(self, tmp_path, monkeypatch, neuron, resolution):
        """101 is the writer's axis; 2 and 11 points swap in other axes, whose
        values print differently, to check that the joined rows format any axis."""
        monkeypatch.setattr(xorlab, "BOUNDARY_AXIS", np.linspace(-2.0, 2.0, resolution))
        write_boundary_csv(tmp_path / "new.csv", neuron)
        reference_boundary_csv(tmp_path / "ref.csv", neuron, resolution)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
