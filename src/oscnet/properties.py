"""Numerical verification of the catalogued activation properties.

Grid scans are resolution-limited evidence, not proofs: a scan can only
witness behaviour at its gridpoints.  Every scan takes only the id and walks
DEFAULT_SCAN ([-10, 10]) or, for the range, DEFAULT_RANGE_SCAN ([-20, 20]),
both at step 1e-3.  The sign-of-zero convention is sign(x) = 0 iff
|x| <= 1e-12, except on the function-value side of the sign-equivalence
scan, where the exact float sign is used so that exponentially small tails
(e.g. GELU below -7) keep their sign instead of being flushed to zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .activations import (
    COUNTABLY_INFINITE,
    ActivationId,
    all_ids,
    apply,
    apply_grad,
    descriptor,
)
from .activations import derivative  # noqa: F401  perfbench/spans.py hooks properties.derivative by name
from .errors import ConfigError, UnsupportedPropertyError

SIGN_ZERO_TOL = 1e-12
RANGE_ENDPOINT_TOL = 0.01  # a closed finite range endpoint must be matched this closely
MAX_REPORTED_VIOLATIONS = 5
GRADIENT_CHECK_STEP = 1e-5  # central-difference half-width h
KINK_GUARD = 1e-3  # gradient-check samples stay this far from every kink
GRADIENT_CHECK_TOL = 1e-5  # max relative error of g' against the central difference
SMALL_VALUE_TOL = 1e-6  # max error of each measured small-value coefficient
_FINE_BLOCK = 1 << 15  # points per block of continuity_scan's fine pass: 256 KiB of float64


@dataclass(frozen=True)
class Interval:
    """Scan window [lo, hi] walked at a fixed step."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not (self.lo < self.hi and np.isfinite(self.hi - self.lo)):
            raise ConfigError(f"interval requires finite lo < hi, got [{self.lo}, {self.hi}]")
        if not (0.0 < self.step < self.hi - self.lo):
            raise ConfigError(f"step must lie in (0, hi-lo), got {self.step}")

    @property
    def size(self) -> float:
        """Points in ``grid()``: round((hi - lo)/step) + 1, or inf if that overflows."""
        steps = (self.hi - self.lo) / self.step
        return round(steps) + 1 if math.isfinite(steps) else math.inf

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.size)


DEFAULT_SCAN = Interval(-10.0, 10.0, 1e-3)
DEFAULT_RANGE_SCAN = Interval(-20.0, 20.0, 1e-3)


def sign_with_tol(x):
    """Sign with a dead zone: 0 wherever |x| <= SIGN_ZERO_TOL."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= SIGN_ZERO_TOL, 0.0, np.sign(x))


@dataclass(frozen=True)
class ZeroCrossingReport:
    id: ActivationId
    brackets: tuple   # (lo, hi) per sign change: the nonzero gridpoints around it
    exact_zeros: tuple  # gridpoints with |g| <= SIGN_ZERO_TOL

    @property
    def count(self) -> int:
        """Sign changes after collapsing zero runs: one per bracket."""
        return len(self.brackets)


def _sign_changes(signs: np.ndarray) -> list:
    """(before, after) indices of each sign change in ``signs`` (-1, 0 or 1):
    the nonzero entries on either side of it, so zero runs are skipped."""
    nonzero = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[nonzero[:-1]] != signs[nonzero[1:]])
    return list(zip(nonzero[flips], nonzero[flips + 1]))


def zero_crossings(id: ActivationId) -> ZeroCrossingReport:
    """Locate sign changes of g on DEFAULT_SCAN.

    Runs of (near-)exact zeros are collapsed, so a root that sits on a
    gridpoint still counts as one crossing when the sign actually flips
    around it, while a touching root (e.g. z^2 cos z at 0) does not.  Each
    counted crossing gets one bracket, spanning any zero run it crosses.
    """
    grid = DEFAULT_SCAN.grid()
    signs = sign_with_tol(apply(id, grid))
    brackets = tuple((float(grid[i]), float(grid[j])) for i, j in _sign_changes(signs))
    exact = tuple(float(z) for z in grid[signs == 0])
    return ZeroCrossingReport(id, brackets, exact)


@dataclass(frozen=True)
class GradientCheckReport:
    id: ActivationId
    max_rel_error: float
    worst_input: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= GRADIENT_CHECK_TOL


def gradient_check(id: ActivationId) -> GradientCheckReport:
    """Compare the analytic derivative against a central difference.

    Samples 1000 evenly spaced points on [-6, 6], dropping the few within
    KINK_GUARD of a kink.  Relative error uses denominator max(1, |g'(z)|).
    """
    kinks = descriptor(id).nondifferentiable_points
    z = np.linspace(-6.0, 6.0, 1000)
    for k in kinks:
        z = z[np.abs(z - k) > KINK_GUARD]

    analytic = apply_grad(id, z)
    zp, zm = z + GRADIENT_CHECK_STEP, z - GRADIENT_CHECK_STEP
    numeric = (apply(id, zp) - apply(id, zm)) / (zp - zm)  # slope over the realized interval
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    worst = int(np.argmax(rel))
    return GradientCheckReport(id, float(rel[worst]), float(z[worst]))


@dataclass(frozen=True)
class SmallValueReport:
    id: ActivationId
    expected: tuple
    measured: tuple

    @property
    def passed(self) -> bool:
        return (abs(self.measured[0] - self.expected[0]) <= SMALL_VALUE_TOL
                and abs(self.measured[1] - self.expected[1]) <= SMALL_VALUE_TOL)


def small_value_check(id: ActivationId) -> SmallValueReport:
    """Verify the tabulated affine behaviour g(z) ~ c0 + c1*z near the origin.

    c0 is measured as g(0); c1 by central difference with h = 1e-6 (0 is a
    kink-free point for every id that carries a small-value form).
    """
    sv = descriptor(id).small_value
    if sv is None:
        raise UnsupportedPropertyError(f"{ActivationId(id).value} has no tabulated small-value form")
    h = 1e-6
    c0 = float(apply(id, np.float64(0.0)))
    c1 = float((apply(id, np.float64(h)) - apply(id, np.float64(-h))) / (2.0 * h))
    return SmallValueReport(id, sv, (c0, c1))


@dataclass(frozen=True)
class SignEquivalenceReport:
    id: ActivationId
    equivalent: bool
    counterexample: float | None  # a gridpoint z with sign(g(z)) != sign(z)


def sign_equivalence_scan(id: ActivationId) -> SignEquivalenceReport:
    """Check sign(g(z)) == sign(z) at every DEFAULT_SCAN gridpoint.

    The input side uses the dead-zone sign; the value side uses the exact
    float sign (an exact 0.0 counts as sign 0, so ReLU fails at negative z).
    The origin gridpoint is exempt when |g(0)| <= 1e-12, which tolerates
    float dust such as pi*sinc(-pi) = 1.2e-16.
    """
    grid = DEFAULT_SCAN.grid()
    vals = apply(id, grid)
    sz = sign_with_tol(grid)
    sg = np.sign(vals)
    mismatch = sg != sz
    mismatch &= ~((np.abs(grid) <= SIGN_ZERO_TOL) & (np.abs(vals) <= SIGN_ZERO_TOL))
    idx = np.flatnonzero(mismatch)
    if idx.size == 0:
        return SignEquivalenceReport(id, True, None)
    return SignEquivalenceReport(id, False, float(grid[idx[0]]))


@dataclass(frozen=True)
class RangeScanReport:
    id: ActivationId
    observed_min: float
    observed_max: float
    within_range: bool        # observed extremes inside the stated range (±1e-9)
    endpoints_approached: bool  # each attained finite endpoint matched within RANGE_ENDPOINT_TOL

    @property
    def passed(self) -> bool:
        return self.within_range and self.endpoints_approached


def range_scan(id: ActivationId) -> RangeScanReport:
    """Scan min/max of g on DEFAULT_RANGE_SCAN against the descriptor's range."""
    r = descriptor(id).value_range
    vals = apply(id, DEFAULT_RANGE_SCAN.grid())
    lo, hi = float(vals.min()), float(vals.max())
    within = (lo >= r.lo - 1e-9) and (hi <= r.hi + 1e-9)
    approached = True
    if r.lo_closed and math.isfinite(r.lo):
        approached &= abs(lo - r.lo) <= RANGE_ENDPOINT_TOL
    if r.hi_closed and math.isfinite(r.hi):
        approached &= abs(hi - r.hi) <= RANGE_ENDPOINT_TOL
    return RangeScanReport(id, lo, hi, within, approached)


@dataclass(frozen=True)
class MonotonicityReport:
    id: ActivationId
    nondecreasing: bool
    violations: tuple  # first few gridpoints z where g(z+step) < g(z)


def monotonicity_scan(id: ActivationId) -> MonotonicityReport:
    """True iff g(z+step) >= g(z) at every DEFAULT_SCAN gridpoint."""
    grid = DEFAULT_SCAN.grid()
    vals = apply(id, grid)
    bad = np.flatnonzero(np.diff(vals) < 0)
    return MonotonicityReport(id, bad.size == 0,
                              tuple(float(grid[i]) for i in bad[:MAX_REPORTED_VIOLATIONS]))


@dataclass(frozen=True)
class ContinuityReport:
    id: ActivationId
    continuous: bool
    max_jump_coarse: float
    max_jump_fine: float


def continuity_scan(id: ActivationId) -> ContinuityReport:
    """Two-resolution jump test on DEFAULT_SCAN and a grid ten times finer.

    For a continuous function the largest adjacent-gridpoint jump shrinks
    roughly linearly with the step; across a jump discontinuity it does not.
    The fine pass runs in blocks of _FINE_BLOCK points that overlap by one
    point.  In one pass its kernel temporaries fault in fresh pages: on a
    2-core x86-64 box (numpy 2.4.6) all 27 ids took 60-72 ms and about
    28 000 minor faults, against 23-26 ms and 224 in blocks.
    """
    coarse = float(np.abs(np.diff(apply(id, DEFAULT_SCAN.grid()))).max())
    grid = Interval(DEFAULT_SCAN.lo, DEFAULT_SCAN.hi, DEFAULT_SCAN.step / 10.0).grid()
    fine = max(float(np.abs(np.diff(apply(id, grid[s:s + _FINE_BLOCK]))).max())
               for s in range(0, grid.size - 1, _FINE_BLOCK - 1))
    continuous = fine <= max(0.5 * coarse, 1e-9)
    return ContinuityReport(id, continuous, coarse, fine)


# ---------------------------------------------------------------------------
# whole-catalog report
# ---------------------------------------------------------------------------

# Sign-change counts on [-10, 10] for every id whose crossing structure is
# fully determined by its roots there (touching roots, zero rays and
# asymptotic-zero ids are excluded: their crossing count is not their
# hyperplane count).
EXPECTED_CROSSINGS = {
    ActivationId.IDENTITY: 1,
    ActivationId.SQU: 2,
    ActivationId.NCU: 3,
    ActivationId.MONOTONIC_CUBIC: 1,
    ActivationId.SINE: 7,
    ActivationId.GCU: 7,
    ActivationId.SSU: 6,
    ActivationId.DSU: 5,
    ActivationId.Z_SQ_COS: 6,  # the root at 0 touches without a sign change
}


def _range_to_json(r) -> dict:
    def enc(x):
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return x
    return {"lo": enc(r.lo), "hi": enc(r.hi),
            "lo_closed": r.lo_closed, "hi_closed": r.hi_closed}


def verify_activation(id: ActivationId) -> dict:
    """Run every scan for one id and diff the results against its descriptor;
    the result is the id's row of ``properties.json``."""
    id = ActivationId(id)
    d = descriptor(id)
    cont = continuity_scan(id)
    mono = monotonicity_scan(id)
    rng = range_scan(id)
    sign_eq = sign_equivalence_scan(id)
    zc = zero_crossings(id)
    grad = gradient_check(id)
    sv = small_value_check(id) if d.small_value is not None else None
    agrees = {  # scan -> whether it agrees with the descriptor, in scan order
        "continuity": cont.continuous == d.continuous,
        "monotonicity": mono.nondecreasing == d.monotonic,
        "range": rng.passed,
        "sign_equivalence": sign_eq.equivalent == d.sign_equivalent_identity,
        "zero_crossings": id not in EXPECTED_CROSSINGS or zc.count == EXPECTED_CROSSINGS[id],
        "gradient": grad.passed,
        "small_value": sv is None or sv.passed,
    }

    measured = {
        "continuous": cont.continuous,
        "monotonic": mono.nondecreasing,
        "min": rng.observed_min,
        "max": rng.observed_max,
        "zero_crossings": zc.count,
        "sign_equivalent_identity": sign_eq.equivalent,
        "gradient_max_rel_error": grad.max_rel_error,
    }
    if sv is not None:
        measured["small_value"] = sv.measured

    fields = {
        "params": dict(d.params),
        "continuous": d.continuous,
        "nondifferentiable_points": list(d.nondifferentiable_points),
        "monotonic": d.monotonic,
        "range": _range_to_json(d.value_range),
        "small_value": list(d.small_value) if d.small_value is not None else None,
        "hyperplane_count": ("countably_infinite"
                             if d.hyperplane_count == COUNTABLY_INFINITE
                             else d.hyperplane_count),
        "sign_equivalent_identity": d.sign_equivalent_identity,
        "xor_property": d.xor_property,
    }
    return {"id": id.value, "descriptor": fields, "measured": measured,
            "contradictions": [scan for scan, ok in agrees.items() if not ok]}


def verify_catalog() -> list[dict]:
    return [verify_activation(i) for i in all_ids()]


_CSV_COLUMNS = [
    "id", "continuous", "monotonic", "range_lo", "range_hi", "small_value_c0",
    "small_value_c1", "hyperplane_count", "sign_equivalent_identity", "xor_property",
    "measured_continuous", "measured_monotonic", "measured_min", "measured_max",
    "measured_zero_crossings", "measured_sign_equivalent",
    "gradient_max_rel_error", "contradictions",
]


def write_report_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for r in rows:
            d, m = r["descriptor"], r["measured"]
            sv = d["small_value"] or (None, None)
            w.writerow([
                r["id"], d["continuous"], d["monotonic"],
                d["range"]["lo"], d["range"]["hi"], sv[0], sv[1],
                d["hyperplane_count"], d["sign_equivalent_identity"], d["xor_property"],
                m["continuous"], m["monotonic"], m["min"], m["max"],
                m["zero_crossings"], m["sign_equivalent_identity"],
                m["gradient_max_rel_error"], ";".join(r["contradictions"]),
            ])
