"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Each criterion collects all of its sub-check failures before asserting, so a
red line lists everything that failed at once.  Two sub-checks encode
reference-table constants that are inconsistent with the defining formulas
(the DSU range bound ±1.04, and the unit slope attributed to the bipolar
sigmoid); they are asserted exactly as tabulated and fail with the measured
values printed rather than being loosened to pass.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import build_synthetic_archive, find_real_cifar10
from oscnet.activations import (
    ActivationId,
    all_ids,
    apply,
    derivative,
    descriptor,
    evaluate,
)
from oscnet.cifar import decode_records, encode_record, load_cifar10, stratified_subset, synthetic_check_image
from oscnet.cli import main as cli_main
from oscnet.layers import softmax_cross_entropy
from oscnet.network import (
    NetworkConfig,
    adam_init,
    adam_step,
    build_model,
    evaluate_top1,
    train_epoch,
)
from oscnet.properties import (
    EXPECTED_CROSSINGS,
    continuity_scan,
    gradient_check,
    monotonicity_scan,
    range_scan,
    sign_equivalence_scan,
    small_value_check,
)
from oscnet.xorlab import grid_search_certificate
from test_network import tiny_dense_model

A = ActivationId

XOR_POSITIVE = (A.SINE, A.SQU, A.NCU, A.SSU, A.GCU, A.DSU)
XOR_NEGATIVE = (
    A.IDENTITY, A.SIGNUM, A.SIGMOID, A.BIPOLAR_SIGMOID, A.TANH, A.HARD_TANH,
    A.SOFT_ROOT_SIGN, A.RELU, A.LEAKY_RELU, A.PRELU, A.ELU, A.SELU, A.GELU,
    A.SWISH, A.SILU, A.MISH, A.SOFTPLUS, A.LISHT, A.ABSOLUTE,
)

# ids tabulated with the small-value form "z" (unit slope at the origin)
TABULATED_UNIT_SLOPE = (
    A.IDENTITY, A.BIPOLAR_SIGMOID, A.TANH, A.SOFT_ROOT_SIGN, A.HARD_TANH,
    A.SINE, A.GCU, A.DSU, A.SQU, A.NCU,
)


def _finish(label: str, failures: list):
    if failures:
        print(f"ACCEPTANCE {label}: FAIL ({len(failures)} issue(s)): "
              + " | ".join(failures))
    else:
        print(f"ACCEPTANCE {label}: PASS")
    assert not failures, f"{label}: " + " | ".join(failures)


def test_criterion_1_xor_property_suite():
    """Grid search (w1,w2,b) in [-5,5]^3 at 0.1: certificates exist exactly
    for the six oscillatory units; under two minutes per activation."""
    failures = []
    for id in XOR_POSITIVE:
        t0 = time.perf_counter()
        cert = grid_search_certificate(id, bound=5.0, resolution=0.1)
        dt = time.perf_counter() - t0
        if not cert.valid:
            failures.append(f"{id.value}: expected a valid certificate, best {cert.correct}/4")
        if dt >= 120.0:
            failures.append(f"{id.value}: search took {dt:.0f}s (>=120s)")
    for id in XOR_NEGATIVE:
        t0 = time.perf_counter()
        cert = grid_search_certificate(id, bound=5.0, resolution=0.1)
        dt = time.perf_counter() - t0
        if cert.valid:
            failures.append(f"{id.value}: unexpected certificate "
                            f"w={cert.neuron.w} b={cert.neuron.b}")
        if dt >= 120.0:
            failures.append(f"{id.value}: search took {dt:.0f}s (>=120s)")
    _finish("1 xor-property", failures)


def test_criterion_2_catalog_property_suite():
    """Scans agree with every catalog row; spot values for SQU/DSU/SSU."""
    failures = []
    for id in all_ids():
        d = descriptor(id)
        if continuity_scan(id).continuous != d.continuous:
            failures.append(f"{id.value}: continuity scan disagrees")
        if monotonicity_scan(id).nondecreasing != d.monotonic:
            failures.append(f"{id.value}: monotonicity scan disagrees")
        r = range_scan(id)
        if not r.within_range:
            failures.append(f"{id.value}: observed [{r.observed_min}, {r.observed_max}] "
                            f"outside catalog range")
        if not r.endpoints_approached:
            failures.append(f"{id.value}: attained endpoint missed by more than 0.01")
        if d.small_value is not None and not small_value_check(id).passed:
            failures.append(f"{id.value}: small-value pair off by more than 1e-6")
        if sign_equivalence_scan(id).equivalent != d.sign_equivalent_identity:
            failures.append(f"{id.value}: sign-equivalence scan disagrees")
    from oscnet.properties import zero_crossings
    for id, want in EXPECTED_CROSSINGS.items():
        got = zero_crossings(id).count
        if got != want:
            failures.append(f"{id.value}: {got} zero crossings on [-10,10], expected {want}")

    squ = range_scan(A.SQU)
    if squ.observed_min != -0.25:
        failures.append(f"squ: min {squ.observed_min} != -0.25")
    ssu = range_scan(A.SSU)
    if abs(ssu.observed_min - (-0.68)) > 0.01:
        failures.append(f"ssu: min {ssu.observed_min:.4f} not within 0.01 of -0.68")
    if abs(ssu.observed_max - math.pi) > 0.01:
        failures.append(f"ssu: max {ssu.observed_max:.4f} not within 0.01 of pi")
    dsu = range_scan(A.DSU)
    # Tabulated bound ±1.04: unattainable for (pi/2)(sinc(z-pi)-sinc(z+pi)),
    # which reaches pi/2 at z=pi and ±1.6364 at z=±2.631; 1.04 is the extreme
    # of the unscaled sinc difference.  Asserted as tabulated, fails honestly.
    if abs(dsu.observed_min - (-1.04)) > 0.01 or abs(dsu.observed_max - 1.04) > 0.01:
        failures.append(f"dsu: extremes ({dsu.observed_min:.4f}, {dsu.observed_max:.4f}) "
                        f"not within 0.01 of +/-1.04 (formula extremes are +/-1.6364)")
    _finish("2 catalog-properties", failures)


def test_criterion_3_gradient_fidelity():
    """Analytic derivatives within 1e-5 of central differences everywhere off
    the kink guard bands; tiny-model parameter gradients within 1e-3."""
    failures = []
    for id in all_ids():
        r = gradient_check(id)
        if not r.passed:
            failures.append(f"{id.value}: max rel err {r.max_rel_error:.2e} at z={r.worst_input}")

    model = build_model(NetworkConfig(1, A.SQU, seed=5), input_shape=(2, 4, 4),
                        num_classes=2, dtype=np.float64)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2, 4, 4))
    labels = np.array([0, 1])
    _, grads = model.loss_and_grads(x, labels, train=False)
    h = 1e-6
    worst, worst_name = 0.0, ""
    for name, p in model.params.items():
        flat, gflat = p.ravel(), grads[name].ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp = model.loss_and_grads(x, labels, train=False)[0]
            flat[i] = old - h
            lm = model.loss_and_grads(x, labels, train=False)[0]
            flat[i] = old
            num = (lp - lm) / (2 * h)
            rel = abs(num - gflat[i]) / max(1e-8, abs(num), abs(gflat[i]))
            if rel > worst:
                worst, worst_name = rel, name
    if worst >= 1e-3:
        failures.append(f"end-to-end: max rel err {worst:.2e} in {worst_name}")
    _finish("3 gradient-fidelity", failures)


def test_criterion_4_linear_regime_contract():
    """Every id tabulated as g(z) ~ z: g(0) = 0 exactly, |g'(0) - 1| <= 1e-9."""
    failures = []
    for id in TABULATED_UNIT_SLOPE:
        v = evaluate(id, 0.0)
        if v != 0.0:
            failures.append(f"{id.value}: g(0) = {v!r}, not exactly 0")
        d = derivative(id, 0.0)
        if abs(d - 1.0) > 1e-9:
            # bipolar sigmoid: (1-e^-z)/(1+e^-z) = tanh(z/2) has slope 1/2 at
            # the origin; the tabulated unit slope cannot hold for it.
            failures.append(f"{id.value}: g'(0) = {d!r}, |g'(0)-1| > 1e-9")
    _finish("4 linear-regime", failures)


def test_criterion_5_loss_and_optimizer_oracles():
    failures = []
    loss, _ = softmax_cross_entropy(np.zeros((8, 10)), np.arange(8) % 10)
    if abs(loss - math.log(10.0)) > 1e-9:
        failures.append(f"uniform-logit loss {loss!r} != ln 10")

    params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
    state = adam_init(params)
    adam_step(params, {"w": np.zeros(2), "b": np.zeros(1)}, state, lr=0.3)
    if not (params["w"] == np.array([1.0, -2.0])).all() or params["b"][0] != 0.5:
        failures.append("zero-gradient Adam step moved the parameters")

    model = tiny_dense_model()
    st = adam_init(model.params)
    rng = np.random.default_rng(2)
    img = np.random.default_rng(0).random((1, 3, 8, 8))
    lab = np.array([4])
    final = None
    for _ in range(200):
        final = train_epoch(model, img, lab, st, lr=0.01, rng=rng, batch=1)
    if not (final < 0.01):
        failures.append(f"single-sample loss {final:.4f} after 200 epochs (need < 0.01)")
    _finish("5 loss-optimizer", failures)


def test_criterion_6_data_ingestion():
    failures = []
    for kind, label, value in (("constant", 0, 0), ("constant", 9, 255), ("gradient", 3, 0)):
        rec = synthetic_check_image(kind, label, value=value)
        images, labels = decode_records(rec)
        if encode_record(int(labels[0]), images[0]) != rec:
            failures.append(f"round trip not bit-exact for {kind}/{label}/{value}")

    real = find_real_cifar10()
    if real is not None:
        train, test = load_cifar10(real)
        if (len(train), len(test)) != (50000, 10000):
            failures.append(f"archive sizes {len(train)}/{len(test)} != 50000/10000")
        if np.bincount(train.labels, minlength=10).tolist() != [5000] * 10:
            failures.append("train label histogram not uniform")
        if np.bincount(test.labels, minlength=10).tolist() != [1000] * 10:
            failures.append("test label histogram not uniform")
        suffix = "real archive verified"
    else:
        suffix = "synthetic records only (archive absent)"
    _finish(f"6 data-ingestion [{suffix}]", failures)


@pytest.mark.skipif(find_real_cifar10() is None,
                    reason="CIFAR-10 archive not found; set OSC_DATA_DIR to run "
                           "the desk-scale benchmark criterion")
def test_criterion_7_desk_scale_benchmark():
    """5000/1000 stratified subset, conv_layers=2, 10 epochs, lr 1e-4, batch 64:
    rectifier and oscillatory units reach 0.35; sigmoid trails relu by 0.05;
    signum stays at or below 0.30."""
    train, test = load_cifar10(find_real_cifar10())
    train = stratified_subset(train, 5000, seed=0)
    test = stratified_subset(test, 1000, seed=0)

    def run(activation):
        model = build_model(NetworkConfig(2, activation, seed=0))
        state = adam_init(model.params)
        rng = np.random.default_rng(1)
        for _ in range(10):
            train_epoch(model, train.images, train.labels, state, 1e-4, rng, batch=64)
        return evaluate_top1(model, test.images, test.labels)

    failures = []
    accs = {}
    for id in (A.RELU, A.SQU, A.DSU, A.SSU, A.GCU, A.SIGMOID, A.SIGNUM):
        accs[id.value] = run(id)
        print(f"  bench {id.value}: top-1 {accs[id.value]:.3f}")
    for name in ("relu", "squ", "dsu", "ssu", "gcu"):
        if accs[name] < 0.35:
            failures.append(f"{name}: top-1 {accs[name]:.3f} < 0.35")
    if accs["sigmoid"] > accs["relu"] - 0.05:
        failures.append(f"sigmoid {accs['sigmoid']:.3f} not 0.05 below relu {accs['relu']:.3f}")
    if accs["signum"] > 0.30:
        failures.append(f"signum {accs['signum']:.3f} > 0.30")
    _finish("7 desk-scale-benchmark", failures)


def test_criterion_8_determinism(tmp_path):
    """Identical config, seed and --deterministic give byte-identical outputs."""
    failures = []
    archive = build_synthetic_archive(tmp_path / "data", per_train=40, test_n=40)

    bench_args = ["bench", "--data-dir", str(archive),
                  "--activations", "squ", "--conv-layers", "1", "--epochs", "1",
                  "--subset", "40", "--batch", "20", "--seed", "5", "--deterministic"]
    for sub in ("a", "b"):
        assert cli_main(bench_args + ["--out-dir", str(tmp_path / sub)]) == 0
    for name in ("records.jsonl", "summary.json", "summary.csv"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            failures.append(f"bench {name} differs between reruns")

    for sub in ("pa", "pb"):
        assert cli_main(["properties", "--out-dir", str(tmp_path / sub)]) == 0
    for name in ("properties.json", "properties.csv"):
        if (tmp_path / "pa" / name).read_bytes() != (tmp_path / "pb" / name).read_bytes():
            failures.append(f"properties {name} differs between reruns")

    for sub in ("xa", "xb"):
        assert cli_main(["xor", "squ", "--out-dir", str(tmp_path / sub)]) == 0
    for name in ("xor_squ_certificate.json", "xor_squ_boundary.csv"):
        if (tmp_path / "xa" / name).read_bytes() != (tmp_path / "xb" / name).read_bytes():
            failures.append(f"xor {name} differs between reruns")
    _finish("8 determinism", failures)
