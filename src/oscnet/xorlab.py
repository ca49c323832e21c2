"""Single-neuron XOR: dataset, exact certification, training, boundaries.

A neuron computes a = g(w.x + b) and classifies by sign(a).  The XOR dataset
uses the bipolar encoding {-1, +1} for both inputs and labels.  A certificate
stores explicit (w, b) and the four per-point margins m_i = g(z_i).  Point i
is correct when y_i * m_i > 1e-6; the certificate is valid when all four are.

XOR is decided exactly, not searched: ``xor_ruled_out`` reads the catalog
fields that leave g at most one sign change, and then no (w, b) certifies XOR;
otherwise ``xor_witness`` builds one from g's first two sign changes.  The
exhaustive grid search over (w1, w2, b) stays as a test oracle.  It scores
every triple, one w1 slab at a time, by the same float adds as a direct
evaluation.  Reduction order is deterministic: maximal correct count first,
then larger minimum |margin|, then the lexicographically first grid triple.

Training is gradient descent, a deterministic map of the parameters: all
restarts share one kernel call per epoch until the parameters repeat bit for
bit with period 1 or 2, and the remaining epochs are then filled in without
computing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ActivationId, _kernel, apply, descriptor, evaluate
from .errors import ConfigError, require_positive
from .properties import DEFAULT_SCAN, Interval, sign_with_tol, zero_crossings

MARGIN_TOL = 1e-6

# The default XOR grid, [-5, 5] at step 0.1: 101 points per axis.
GRID_BOUND = 5.0
GRID_RESOLUTION = 0.1

# The grid search holds about 12 bytes per (w1, w2, b) triple (an int8 count,
# a float64 margin and the winner's candidates), so 2**25 triples (322 points
# per axis) peak near 400 MB; a finer grid is refused.
MAX_GRID_TRIPLES = 2 ** 25

# The decision-boundary CSV samples sign(g) on this axis for x1 and for x2.
BOUNDARY_AXIS = np.linspace(-2.0, 2.0, 101)

_XOR_INPUTS = ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
_XOR_LABELS = (-1.0, 1.0, 1.0, -1.0)
_X, _Y = np.array(_XOR_INPUTS), np.array(_XOR_LABELS)
_XT = _X.T
_XA = np.vstack([_XT, np.ones(4)])  # theta @ _XA = w1*x1 + w2*x2 + b at the four points

# Training keeps 5 float64 per (epoch, restart), its loss and the four-point
# err, so 2**24 of them hold 640 MiB; a longer or wider run is refused.
MAX_TRAIN_ROWS = 2 ** 24

# Training compares its parameters with those of two epochs back once per this
# many epochs; a repeat found up to this many epochs late costs only those epochs.
_REPEAT_CHECK_EVERY = 32


@dataclass(frozen=True)
class XorDataset:
    """The four bipolar XOR points, in canonical order."""

    inputs: tuple = _XOR_INPUTS
    labels: tuple = _XOR_LABELS


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
        return self.correct == 4

    @property
    def min_abs_margin(self) -> float:
        return min(abs(m) for m in self.margins)


def _point_correct(label, margin):
    """Sign matches the +-1 label and |margin| > MARGIN_TOL, in one exact test."""
    return label * margin > MARGIN_TOL


def _certificate_for(id: ActivationId, w1: float, w2: float, b: float) -> XorCertificate:
    neuron = SingleNeuron((float(w1), float(w2)), float(b), ActivationId(id))
    margins = tuple(neuron_forward(neuron, x) for x in _XOR_INPUTS)
    return XorCertificate(neuron, margins, int(_point_correct(_Y, np.array(margins)).sum()))


def xor_ruled_out(id: ActivationId) -> bool:
    """True when the catalog entry of ``id`` proves that no (w1, w2, b) scores
    all four XOR points: g is ``monotonic``, ``sign_equivalent_identity``, or
    never negative (``value_range.lo >= 0``).

    With bipolar inputs the two -1 points sit at z = b +- (w1 + w2) and the
    two +1 points at z = b +- (w1 - w2), so each pair straddles b.  A
    certificate needs g < -MARGIN_TOL at both -1 points and g > MARGIN_TOL at
    both +1 points.  A never-negative g scores no -1 point.  For a monotonic g, or one
    with the sign of z, the points where g > MARGIN_TOL lie strictly on one side
    of those where g < -MARGIN_TOL, and two pairs that both straddle b cannot.
    The catalog states these fields on all of R; ``oscnet properties`` scans them.
    """
    entry = descriptor(id)
    return entry.monotonic or entry.sign_equivalent_identity or entry.value_range.lo >= 0


def xor_witness(id: ActivationId) -> XorCertificate:
    """A certificate from the first two sign changes r1 < r2 of g on DEFAULT_SCAN
    (bracket midpoints): b = (r1 + r2)/2, and b +- p reach halfway into the
    narrower outer sign region.  w1 = w2 = p/2 if g(b) > 0, else w1 = -w2 = p/2,
    so the -1 (or the +1) points sit at b +- p and the others at b.  It is
    re-scored, and it is the invalid zero neuron if g changes sign under twice."""
    ends = [0.5 * (lo + hi) for lo, hi in zero_crossings(id).brackets]
    if len(ends) < 2:
        return _certificate_for(id, 0.0, 0.0, 0.0)
    r1, r2, r3 = (ends + [DEFAULT_SCAN.hi])[:3]
    b = 0.5 * (r1 + r2)
    half = 0.25 * (r2 - r1 + min(r1 - DEFAULT_SCAN.lo, r3 - r2))
    return _certificate_for(id, half, half if evaluate(id, b) > 0 else -half, b)


def grid_search_certificate(id: ActivationId, bound: float = GRID_BOUND,
                            resolution: float = GRID_RESOLUTION) -> XorCertificate:
    """Exhaustively score every (w1, w2, b) triple in [-bound, bound]^3.

    Returns the best certificate (max correct count, ties broken by larger
    minimum |margin|, then first grid index).  Check ``.valid`` to see whether
    the activation exhibits the XOR property at this resolution.  A bad
    window, or one of over MAX_GRID_TRIPLES triples, raises ConfigError before
    any grid is built.

    Each w1 slab takes one kernel call per XOR point, on z[j, k] for w2 =
    axis[j] and b = axis[k], computed by the two float adds of a direct
    evaluation, (w1*x1 + w2*x2) + b, in the same order.
    """
    window = Interval(-bound, bound, resolution)
    if window.size ** 3 > MAX_GRID_TRIPLES:
        raise ConfigError(f"XOR grid [-{bound}, {bound}] at step {resolution} has {window.size:,} "
                          f"points per axis, over the limit of {MAX_GRID_TRIPLES:,} triples")
    axis = window.grid()
    correct = np.zeros((axis.size,) * 3, dtype=np.int8)
    min_abs = np.full(correct.shape, np.inf)
    for w1, slab_correct, slab_min_abs in zip(axis, correct, min_abs):
        for (x1, x2), y in zip(_XOR_INPUTS, _XOR_LABELS):
            m = apply(id, w1 * x1 + axis[:, None] * x2 + axis)
            slab_correct += _point_correct(y, m)
            np.minimum(slab_min_abs, np.abs(m), out=slab_min_abs)

    candidates = np.flatnonzero(correct == correct.max())
    winner = candidates[np.argmax(min_abs.ravel()[candidates])]
    i, j, k = np.unravel_index(winner, correct.shape)
    return _certificate_for(id, axis[i], axis[j], axis[k])


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 0.05
    epochs: int = 2000
    restarts: int = 20
    seed: int = 7
    init_scale: float = 1.0

    def __post_init__(self):
        for name in ("learning_rate", "epochs", "restarts", "init_scale"):
            require_positive(f"TrainSpec.{name}", getattr(self, name))
        if self.seed < 0:
            raise ConfigError(f"TrainSpec.seed must be >= 0, got {self.seed}")
        if self.epochs * self.restarts > MAX_TRAIN_ROWS:
            raise ConfigError(f"training keeps {self.epochs * self.restarts:,} (epoch, restart) rows "
                              f"for --epochs {self.epochs:,} and --restarts {self.restarts:,}, "
                              f"over the limit of {MAX_TRAIN_ROWS:,}")


def _repeats(theta, before, earlier) -> bool:
    """True when every finite row of ``theta`` equals its row in ``earlier`` bit
    for bit, and no row of ``before`` (the epoch between them) was finite where
    ``theta``'s is not.  Bits, not ``==``: a zero's sign survives the update
    into the certificate.  A non-finite row never turns finite again and is
    skipped at selection, so its bits (NaN payloads) need not repeat."""
    finite = np.isfinite(theta).all(axis=1)
    return (np.array_equal(finite, np.isfinite(before).all(axis=1))
            and np.array_equal(theta.view(np.uint64)[finite], earlier.view(np.uint64)[finite]))


def train_single_neuron(id: ActivationId, spec: TrainSpec = TrainSpec()):
    """Fit w, b by full-batch gradient descent on squared error sum((g(z)-y)^2).

    All restarts train together as rows of one (restarts, 3) theta, with one
    kernel call per epoch; row r starts from uniform[-init_scale, init_scale]
    seeded as seed + r, and its bits match a lone run of that restart.  Each
    epoch is the same deterministic map of theta, so once theta after epoch
    e equals, bit for bit on its finite rows, theta before epoch e - 1, the
    run repeats with period 1 or 2: the loop stops there and fills the
    remaining losses and the final theta by that period (checked every
    _REPEAT_CHECK_EVERY epochs).  Then restarts are taken in order until one
    gives a valid certificate; one whose parameters went non-finite (they
    never turn finite) is skipped.
    The kernel is looked up once and every epoch writes into arrays made once,
    in the order of the plain expressions; each epoch's err is kept, and the
    losses are one vecdot after the loop.
    Returns (best certificate found, loss trace of that restart).
    """
    id = ActivationId(id)
    kernel = _kernel(id)
    theta = np.array([np.random.default_rng(spec.seed + r).uniform(-spec.init_scale, spec.init_scale, size=3)
                      for r in range(spec.restarts)])
    after, earlier, step, grad = (np.empty_like(theta) for _ in range(4))
    errs = np.empty((spec.epochs, spec.restarts, 4))
    z, gz = np.empty_like(errs[0]), np.empty_like(errs[0])
    gz_rows, grad_w, grad_b, lr = gz[:, None, :], grad[:, :2], grad[:, 2], spec.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):  # diverged rows are skipped below
        for epoch in range(spec.epochs):
            run = kernel(np.matmul(theta, _XA, out=z))
            err = np.subtract(next(run), _Y, out=errs[epoch])
            np.multiply(2.0, err, out=gz)
            gz *= next(run)
            np.vecdot(gz_rows, _XT, out=grad_w)
            np.add.reduce(gz, axis=1, out=grad_b)  # gz.sum without its Python wrapper
            np.subtract(theta, np.multiply(lr, grad, out=step), out=after)
            if epoch % _REPEAT_CHECK_EVERY == _REPEAT_CHECK_EVERY - 1 and _repeats(after, theta, earlier):
                if (spec.epochs - 1 - epoch) % 2 == 0:
                    theta = after
                break
            earlier, theta, after = theta, after, earlier
        done = epoch + 1
        losses = np.empty((spec.epochs, spec.restarts))
        np.vecdot(errs[:done], errs[:done], out=losses[:done])
    if done < spec.epochs:  # stopped at a repeat: the rest follows its period
        losses[done::2] = losses[done - 2]
        losses[done + 1::2] = losses[done - 1]

    best, best_trace = None, []
    for restart in range(spec.restarts):
        if not np.isfinite(theta[restart]).all():
            continue
        cert = _certificate_for(id, *theta[restart])
        if best is None or (cert.correct, cert.min_abs_margin) > (best.correct, best.min_abs_margin):
            best, best_trace = cert, losses[:, restart].tolist()
        if cert.valid:
            break

    if best is None:  # every restart diverged: report the zero neuron honestly
        best = _certificate_for(id, 0.0, 0.0, 0.0)
    return best, best_trace


def decision_boundary_grid(neuron: SingleNeuron) -> np.ndarray:
    """sign(g(w.x+b)) on BOUNDARY_AXIS x BOUNDARY_AXIS; row i is x1, column j is x2."""
    z = neuron.w[0] * BOUNDARY_AXIS[:, None] + neuron.w[1] * BOUNDARY_AXIS + neuron.b
    return sign_with_tol(apply(neuron.activation, z)).astype(np.int8)


def write_boundary_csv(path, neuron: SingleNeuron) -> None:
    """Rows "x1,x2,sign", x1-major.  Each row is x1 then one of the three
    ",x2,sign\n" tails of its column, so a block of rows is one join."""
    grid = decision_boundary_grid(neuron)
    axis = [repr(v) for v in BOUNDARY_AXIS.tolist()]
    tails = [tuple(f",{c},{s}\n" for s in (-1, 0, 1)) for c in axis]
    with open(path, "w") as fh:
        fh.write("x1,x2,sign\n")
        for a, signs in zip(axis, (grid + 1).tolist()):  # sign s picks tail s + 1
            fh.write(a + a.join([t[s] for t, s in zip(tails, signs)]))


def certificate_to_dict(cert: XorCertificate, source: str) -> dict:
    return {
        "activation": cert.neuron.activation.value,
        "w": [cert.neuron.w[0], cert.neuron.w[1]],
        "b": cert.neuron.b,
        "margins": list(cert.margins),
        "correct": cert.correct,
        "valid": cert.valid,
        "source": source,
    }
