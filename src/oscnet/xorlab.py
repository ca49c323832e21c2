"""Single-neuron XOR: dataset, brute-force certification, training, boundaries.

A neuron computes a = g(w.x + b) and classifies by sign(a).  The XOR dataset
uses the bipolar encoding {-1, +1} for both inputs and labels.  A certificate
stores explicit (w, b) together with the four per-point margins g(z_i); it is
valid when all four signs match the labels and every |margin| > 1e-6.

The exhaustive grid search over (w1, w2, b) is the oracle for the XOR
property; absence of a certificate on the grid is resolution-limited evidence,
not proof.  Reduction order is deterministic: maximal correct count first,
then larger minimum |margin|, then the lexicographically first grid triple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .activations import ActivationId, apply, apply_with_grad, evaluate
from .properties import sign_with_tol

MARGIN_TOL = 1e-6

_XOR_INPUTS = ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
_XOR_LABELS = (-1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class XorDataset:
    """The four bipolar XOR points, in canonical order."""

    inputs: tuple = _XOR_INPUTS
    labels: tuple = _XOR_LABELS

    def __len__(self) -> int:
        return 4

    def as_arrays(self):
        return np.array(self.inputs), np.array(self.labels)


def xor_dataset() -> XorDataset:
    return XorDataset()


@dataclass(frozen=True)
class SingleNeuron:
    w: tuple  # (w1, w2)
    b: float
    activation: ActivationId


def neuron_forward(neuron: SingleNeuron, x) -> float:
    """a = g(w.x + b), evaluated in a fixed scalar order."""
    z = neuron.w[0] * x[0] + neuron.w[1] * x[1] + neuron.b
    return evaluate(neuron.activation, z)


@dataclass(frozen=True)
class XorCertificate:
    neuron: SingleNeuron
    margins: tuple  # g(z_i) for the four canonical points
    correct: int

    @property
    def valid(self) -> bool:
        return self.correct == 4 and min(abs(m) for m in self.margins) > MARGIN_TOL

    @property
    def min_abs_margin(self) -> float:
        return min(abs(m) for m in self.margins)


def _certificate_for(id: ActivationId, w1: float, w2: float, b: float) -> XorCertificate:
    neuron = SingleNeuron((float(w1), float(w2)), float(b), ActivationId(id))
    margins = tuple(neuron_forward(neuron, x) for x in _XOR_INPUTS)
    signs = sign_with_tol(np.array(margins))
    ok = (signs == np.array(_XOR_LABELS)) & (np.abs(margins) > MARGIN_TOL)
    return XorCertificate(neuron, margins, int(ok.sum()))


def grid_search_certificate(id: ActivationId, bound: float = 5.0,
                            resolution: float = 0.1) -> XorCertificate:
    """Exhaustively score every (w1, w2, b) triple in [-bound, bound]^3.

    Returns the best certificate (max correct count, ties broken by larger
    minimum |margin|, then first grid index).  Check ``.valid`` to see whether
    the activation exhibits the XOR property at this resolution.
    """
    if bound <= 0 or resolution <= 0:
        raise ValueError("bound and resolution must be positive")
    n = int(round(2.0 * bound / resolution)) + 1
    vals = np.linspace(-bound, bound, n)
    w1, w2, b = (g.ravel() for g in np.meshgrid(vals, vals, vals, indexing="ij"))

    correct = np.zeros(w1.shape, dtype=np.int8)
    min_abs = np.full(w1.shape, np.inf)
    for (x1, x2), y in zip(_XOR_INPUTS, _XOR_LABELS):
        m = apply(id, w1 * x1 + w2 * x2 + b)
        s = sign_with_tol(m)
        correct += ((s == y) & (np.abs(m) > MARGIN_TOL)).astype(np.int8)
        np.minimum(min_abs, np.abs(m), out=min_abs)

    best_count = int(correct.max())
    candidates = np.flatnonzero(correct == best_count)
    winner = candidates[np.argmax(min_abs[candidates])]
    return _certificate_for(id, float(w1[winner]), float(w2[winner]), float(b[winner]))


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 0.05
    epochs: int = 2000
    restarts: int = 20
    seed: int = 7
    init_scale: float = 1.0

    def __post_init__(self):
        for name in ("learning_rate", "epochs", "restarts", "seed", "init_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"TrainSpec.{name} must be positive")


def train_single_neuron(id: ActivationId, spec: TrainSpec = TrainSpec()):
    """Fit w, b by full-batch gradient descent on squared error sum((g(z)-y)^2).

    Restarts from a fresh uniform[-init_scale, init_scale] init (seeded as
    seed + restart index) until a valid certificate appears or restarts run
    out.  A restart whose parameters or gradients go non-finite is abandoned.
    Returns (best certificate found, loss trace of that restart's epochs).
    """
    id = ActivationId(id)
    X, Y = xor_dataset().as_arrays()
    best: XorCertificate | None = None
    best_trace: list = []

    for restart in range(spec.restarts):
        rng = np.random.default_rng(spec.seed + restart)
        theta = rng.uniform(-spec.init_scale, spec.init_scale, size=3)
        trace = []
        finite = True
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is handled below
            for _ in range(spec.epochs):
                z = X @ theta[:2] + theta[2]
                a, da = apply_with_grad(id, z)
                err = a - Y
                trace.append(float(err @ err))
                gz = 2.0 * err * da
                grad = np.array([gz @ X[:, 0], gz @ X[:, 1], gz.sum()])
                if not np.isfinite(grad).all():
                    finite = False
                    break
                theta = theta - spec.learning_rate * grad
                if not np.isfinite(theta).all():
                    finite = False
                    break
        if not finite:
            continue
        cert = _certificate_for(id, theta[0], theta[1], theta[2])
        if best is None or (cert.correct, cert.min_abs_margin) > (best.correct, best.min_abs_margin):
            best, best_trace = cert, trace
        if cert.valid:
            break

    if best is None:  # every restart diverged: report the zero neuron honestly
        best = _certificate_for(id, 0.0, 0.0, 0.0)
    return best, best_trace


def decision_boundary_grid(neuron: SingleNeuron, lo: float = -2.0, hi: float = 2.0,
                           resolution: int = 101) -> np.ndarray:
    """resolution x resolution matrix of sign(g(w.x+b)); row i is x1, column j is x2."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    axis = np.linspace(lo, hi, resolution)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    z = neuron.w[0] * x1 + neuron.w[1] * x2 + neuron.b
    return sign_with_tol(apply(neuron.activation, z)).astype(np.int8)


def write_boundary_csv(path, neuron: SingleNeuron, lo: float = -2.0, hi: float = 2.0,
                       resolution: int = 101) -> None:
    grid = decision_boundary_grid(neuron, lo, hi, resolution)
    axis = [float(v) for v in np.linspace(lo, hi, resolution)]
    with open(path, "w") as fh:
        fh.write("x1,x2,sign\n")
        for i, a in enumerate(axis):
            for j, c in enumerate(axis):
                fh.write(f"{a!r},{c!r},{int(grid[i, j])}\n")


def certificate_to_dict(cert: XorCertificate, source: str = "grid") -> dict:
    return {
        "activation": cert.neuron.activation.value,
        "w": [cert.neuron.w[0], cert.neuron.w[1]],
        "b": cert.neuron.b,
        "margins": list(cert.margins),
        "correct": cert.correct,
        "valid": cert.valid,
        "source": source,
    }


def write_certificate_json(path, cert: XorCertificate, source: str = "grid") -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_dict(cert, source), fh, indent=2, sort_keys=True)
        fh.write("\n")
