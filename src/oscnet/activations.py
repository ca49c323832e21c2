"""Activation function catalog: formulas, analytic derivatives, and static metadata.

Every unit is a scalar nonlinearity g(z) with one catalog entry, an
``ActivationDescriptor``.  The entry owns the unit's vectorized kernel, which
takes only z and yields g and then g' (kinks mapped to subgradient 0), so that
``apply``, ``apply_grad`` and the fused ``apply_with_grad`` run the same code.
It also records continuity, kink points, monotonicity, range, small-input
affine behaviour, zero/hyperplane count, sign-equivalence to the identity,
whether a single neuron with this unit can learn XOR, and ``params``: the
module constants its kernel reads, so each value is written once.

Range endpoints and small-value slopes that are attained at interior optima are
stored at full float64 precision with their defining equations noted inline; the
numerical-scan module re-verifies all of them against dense grids.

Large inputs are evaluated in chunks.  A kernel makes several temporaries the
size of its input, which for a CNN activation are megabytes each, streamed
through DRAM and often freshly mapped.  So an input of more than CHUNK_BYTES
runs through its kernel one 1-d slice of CHUNK_BYTES at a time: the outputs
are allocated once with ``np.empty_like(z)``, so an NCHW view of NHWC memory
stays NHWC, z is read in their memory order, and each slice's g and g' are
copied into them.  Every temporary is then chunk-sized and stays in L2.  The
chunks are cut into contiguous runs, one per worker (see _workers for the
worker count).  Each run writes only its own slices of g and g', under the
caller's numpy error state, and holds a few chunks of temporaries at a time,
so the peak is the outputs plus a few chunks per worker.  Each kernel is
elementwise, so at any worker count the results are bitwise equal to one
pass over the whole input, with the same shape, dtype and memory layout.
Inputs of at most CHUNK_BYTES (0-d ``evaluate``/``derivative`` calls, the
XOR trainer's four points) and broadcast inputs (a zero stride) take that
one pass.
CHUNK_BYTES = 256 KiB comes from a sweep of ``apply_with_grad`` on a
(64,32,32,32) float32 NHWC view on a 2-core x86-64 box (numpy 2.4.6).  In ms
per call at 64/128/256/512/1024 KiB: DSU 11.2/10.2/10.3/10.5/12.3, SSU
7.4/6.7/6.3/6.6/7.3, GELU 9.1/9.1/7.7/8.5/11.5; one pass over the whole input
took 27.4, 19.0 and 20.1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _workers
from .errors import DomainError, KinkError

COUNTABLY_INFINITE = math.inf

# Inputs larger than this are evaluated one 1-d slice of this many bytes at a
# time, so every kernel temporary stays in L2 (see the module docstring).
CHUNK_BYTES = 1 << 18

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

# Unit parameters: read by the kernels, reported by the entries' ``params``.
LEAKY_RELU_SLOPE = 0.01
PRELU_ALPHA = 0.25
SELU_SCALE = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
_SRS_ALPHA, _SRS_BETA = 2.0, 3.0
_SRS_MIN = _SRS_ALPHA * _SRS_BETA / (_SRS_BETA - _SRS_ALPHA * math.e)  # attained at z = -beta

# Interior extrema, frozen from high-precision root finding:
#   SiLU/Swish: global min of z*sigmoid(z), where 1 + z*(1 - sigmoid(z)) = 0;
#               at the root, z*sigmoid(z) = z + 1 exactly.
_SILU_MIN = -0.2784645427610738
#   GELU (tanh form): global min of 0.5*z*(1 + tanh(sqrt(2/pi)*(z + 0.044715 z^3))).
_GELU_MIN = -0.1700407505712541
#   Mish: global min of z*tanh(softplus(z)).
_MISH_MIN = -0.30884341301725043
#   SSU: pi * min(sinc) = pi*cos(x*) with tan(x*) = x*, x* = 4.493409457909064.
_SSU_MIN = -0.6824595705010303
#   DSU: extreme of pi^2*sin(z)/(pi^2 - z^2) at z = ±2.6309958519954266.
_DSU_MAX = 1.636408136824882


class ActivationId(str, Enum):
    """Identifiers for the 27 catalogued activation functions."""

    SIGNUM = "signum"
    IDENTITY = "identity"
    BIPOLAR_SIGMOID = "bipolar_sigmoid"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    ABSOLUTE = "absolute"
    SOFT_ROOT_SIGN = "soft_root_sign"
    HARD_TANH = "hard_tanh"
    SILU = "silu"
    LISHT = "lisht"
    SOFTPLUS = "softplus"
    RELU = "relu"
    LEAKY_RELU = "leaky_relu"
    GELU = "gelu"
    SELU = "selu"
    SWISH = "swish"
    MISH = "mish"
    ELU = "elu"
    PRELU = "prelu"
    SINE = "sine"
    SQU = "squ"
    MONOTONIC_CUBIC = "monotonic_cubic"
    NCU = "ncu"
    Z_SQ_COS = "z_sq_cos"
    SSU = "ssu"
    GCU = "gcu"
    DSU = "dsu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ValueRange:
    """Interval of attainable outputs; a closed endpoint is actually attained."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True


@dataclass(frozen=True)
class ActivationDescriptor:
    """One catalog entry: the unit's kernel and its static metadata."""

    id: ActivationId
    kernel: Callable = field(repr=False, compare=False)  # z -> yields g, then g'
    params: dict = field(default_factory=dict)
    continuous: bool = True
    nondifferentiable_points: tuple = ()
    monotonic: bool = False
    value_range: ValueRange = ValueRange(-math.inf, math.inf, False, False)
    small_value: tuple | None = None  # (c0, c1): g(z) ~ c0 + c1*z near 0
    hyperplane_count: float = 1  # zero count of g; COUNTABLY_INFINITE for oscillatory
    sign_equivalent_identity: bool = False
    xor_property: bool = False


# |u| below this uses Taylor series for sinc and its slope: there the quotients
# below cancel (the slope) or divide by zero (sinc at u = 0).  Five terms keep
# the series at float64 precision across the band, and at its edge the
# quotients lose at most ~6*eps/u^2 relative, about 4e-5 in float32.
_SINC_BAND = 0.1
_SINC_SERIES = (1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0, 1.0 / 362880.0)
_DSINC_SERIES = (-1.0 / 3.0, 1.0 / 30.0, -1.0 / 840.0, 1.0 / 45360.0, -1.0 / 3991680.0)


def _series(x, coefs):
    acc = coefs[-1]
    for c in reversed(coefs[:-1]):
        acc = acc * x + c
    return acc


def _sinc_arr(u):
    """sin(u)/u with sinc(0) = 1, for an array ``u`` (rank >= 1) the caller owns.

    Returns ``(sinc, near, un)``: ``near`` indexes the entries with
    |u| < _SINC_BAND, whose values ``un`` are replaced by 1 in ``u`` so that
    no quotient divides by zero; the series fills those entries instead.
    An empty band (most inputs) skips the index writes and the series.
    """
    s = np.abs(u)
    near = np.nonzero(s < _SINC_BAND)
    un = u[near]
    if un.size:
        u[near] = 1.0
    np.sin(u, out=s)
    s /= u
    if un.size:
        s[near] = _series(un * un, _SINC_SERIES)
    return s, near, un


def _dsinc_arr(u, sinc, near, un):
    """d/du sinc(u) = (cos u - sinc u)/u, from the outputs of _sinc_arr."""
    d = np.cos(u)
    d -= sinc
    d /= u
    if un.size:
        d[near] = un * _series(un * un, _DSINC_SERIES)
    return d


def _sigmoid_from(t, z):
    # Stable logistic from t = exp(-|z|): 1/(1+t) for z >= 0, t/(1+t) below.
    # Since t <= 1, max(t, z >= 0) picks that numerator without a branch.
    s = np.maximum(t, z >= 0.0)
    s /= t + 1.0
    return s


def _sigmoid(z):
    return _sigmoid_from(np.exp(-np.abs(z)), z)


def _softplus_from(t, z):
    sp = np.log1p(t)
    sp += np.maximum(z, 0.0)
    return sp


# ---------------------------------------------------------------------------
# kernels: one generator per unit, named by its catalog entry, takes only z
# and yields g(z), then g'(z) (subgradient 0 at kinks), sharing the work
# between them; a unit's parameters are the module constants above.  `apply`
# stops after g, so nothing only g' needs is computed before the first yield.
# Kernels receive a float array, possibly 0-d, keep its dtype and never write
# to it.  Updates in place are augmented assignments, which also work on the
# numpy scalars that ufuncs return for 0-d input; `_sinc_arr` alone indexes,
# so its callers pass it rank >= 1 and give their outputs the input's shape.
# ---------------------------------------------------------------------------

def _signum(z):
    yield np.sign(z)
    yield np.zeros_like(z)

def _identity(z):
    yield z + 0.0
    yield np.ones_like(z)

def _bipolar_sigmoid(z):
    # (1 - e^-z)/(1 + e^-z) == tanh(z/2)
    t = np.tanh(z / 2.0)
    yield t
    yield 0.5 * (1.0 - t * t)

def _sigmoid_act(z):
    s = _sigmoid(z)
    yield s
    yield s * (1.0 - s)

def _tanh(z):
    t = np.tanh(z)
    yield t
    yield 1.0 - t * t

def _absolute(z):
    yield np.abs(z)
    yield np.sign(z)

def _soft_root_sign(z):
    e = np.exp(-z / _SRS_BETA)
    den = z / _SRS_ALPHA + e
    yield z / den
    dden = 1.0 / _SRS_ALPHA - e / _SRS_BETA
    yield (den - z * dden) / (den * den)

def _hard_tanh(z):
    yield np.clip(z, -1.0, 1.0)
    yield (np.abs(z) < 1.0).astype(z.dtype)

def _silu(z):
    s = _sigmoid(z)
    yield z * s
    yield s * (1.0 + z * (1.0 - s))

def _lisht(z):
    t = np.tanh(z)
    yield z * t
    yield t + z * (1.0 - t * t)

def _softplus_act(z):
    t = np.exp(-np.abs(z))
    yield _softplus_from(t, z)
    yield _sigmoid_from(t, z)

def _relu(z):
    g = np.maximum(z, 0.0)
    yield g
    yield np.sign(g)  # 1 above 0; 0 at the kink and below

def _two_slope(z, slope):
    # z for z >= 0, slope*z below, without a data-dependent branch
    g = np.minimum(z, 0.0)
    g *= slope
    g += np.maximum(z, 0.0)
    yield g
    dg = (z < 0.0).astype(z.dtype)
    dg *= slope
    dg += z > 0.0
    yield dg

def _leaky_relu(z):
    return _two_slope(z, LEAKY_RELU_SLOPE)

def _gelu(z):
    # 0.5*z*(1 + tanh(u)) evaluated as z*sigmoid(2u): identical analytically,
    # keeps the exponential tail sign-correct instead of flushing to -0.0.
    s = _sigmoid((2.0 * _SQRT_2_OVER_PI) * (z + _GELU_CUBIC * (z * z * z)))
    yield z * s
    du2 = 2.0 * _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * z * z)
    yield s + z * s * (1.0 - s) * du2

def _selu(z):
    lo = np.minimum(z, 0.0)
    g = np.expm1(lo)
    g *= SELU_SCALE * SELU_ALPHA
    g += SELU_SCALE * np.maximum(z, 0.0)
    yield g
    dg = np.exp(lo)
    dg *= SELU_SCALE * SELU_ALPHA
    dg *= z < 0.0
    dg += (z > 0.0).astype(z.dtype) * SELU_SCALE
    yield dg

def _mish(z):
    t = np.exp(-np.abs(z))
    th = np.tanh(_softplus_from(t, z))
    yield z * th
    yield th + z * (1.0 - th * th) * _sigmoid_from(t, z)

def _elu(z):
    g = np.expm1(np.minimum(z, 0.0))
    g += np.maximum(z, 0.0)
    yield g
    # one-sided slopes agree at 0 (both 1): ELU is C1, no kink.
    yield np.exp(np.minimum(z, 0.0))

def _prelu(z):
    return _two_slope(z, PRELU_ALPHA)

def _sine(z):
    yield np.sin(z)
    yield np.cos(z)

def _squ(z):
    yield z * z + z
    yield 2.0 * z + 1.0

def _monotonic_cubic(z):
    yield z * z * z + z
    yield 3.0 * z * z + 1.0

def _ncu(z):
    yield z - z * z * z
    yield 1.0 - 3.0 * z * z

def _z_sq_cos(z):
    c = np.cos(z)
    yield z * z * c
    yield 2.0 * z * c - z * z * np.sin(z)

def _ssu(z):
    # pi*sinc(u), u = z - pi: u is exact near the peak at z = pi.
    u = np.atleast_1d(z - math.pi)
    sinc, near, un = _sinc_arr(u)
    yield (math.pi * sinc).reshape(z.shape)
    yield (math.pi * _dsinc_arr(u, sinc, near, un)).reshape(z.shape)

def _gcu(z):
    c = np.cos(z)
    yield z * c
    yield c - z * np.sin(z)

def _dsu(z):
    # (pi/2)(sinc(z - pi) - sinc(z + pi)) = pi^2 sin z/(pi^2 - z^2), odd in z.
    # With a = |z| and u = a - pi it is sign(z)*pi^2*sinc(u)/(a + pi): one
    # sin and one cos of u serve g and g', and u is exact near the removable
    # points z = +-pi, where pi^2 - z^2 would cancel.
    a = np.atleast_1d(np.abs(z))
    u = a - math.pi
    sinc, near, un = _sinc_arr(u)
    w = a
    w += math.pi
    np.divide(math.pi ** 2, w, out=w)  # pi^2/(|z| + pi)
    g = np.sign(z)
    g *= w
    g *= sinc
    yield g.reshape(z.shape)
    dg = _dsinc_arr(u, sinc, near, un)
    dg -= sinc * w * (1.0 / math.pi ** 2)  # sinc/(|z| + pi)
    dg *= w
    yield dg.reshape(z.shape)


_R = ValueRange
_UNBOUNDED = _R(-math.inf, math.inf, False, False)

_CATALOG: dict[ActivationId, ActivationDescriptor] = {d.id: d for d in [
    ActivationDescriptor(
        ActivationId.SIGNUM, _signum, continuous=False, nondifferentiable_points=(0.0,),
        monotonic=True, value_range=_R(-1.0, 1.0), small_value=None,
        hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.IDENTITY, _identity, monotonic=True, value_range=_UNBOUNDED,
        small_value=(0.0, 1.0), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.BIPOLAR_SIGMOID, _bipolar_sigmoid, monotonic=True,
        value_range=_R(-1.0, 1.0, False, False),
        small_value=(0.0, 0.5),  # g'(0) = 2e^0/(1+e^0)^2 = 1/2
        hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.SIGMOID, _sigmoid_act, monotonic=True,
        value_range=_R(0.0, 1.0, False, False), small_value=(0.5, 0.25), hyperplane_count=0),
    ActivationDescriptor(
        ActivationId.TANH, _tanh, monotonic=True, value_range=_R(-1.0, 1.0, False, False),
        small_value=(0.0, 1.0), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.ABSOLUTE, _absolute, nondifferentiable_points=(0.0,), monotonic=False,
        value_range=_R(0.0, math.inf, True, False), small_value=None, hyperplane_count=1),
    ActivationDescriptor(
        ActivationId.SOFT_ROOT_SIGN, _soft_root_sign,
        params={"alpha": _SRS_ALPHA, "beta": _SRS_BETA},
        monotonic=False, value_range=_R(_SRS_MIN, _SRS_ALPHA, True, False),
        small_value=(0.0, 1.0), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.HARD_TANH, _hard_tanh, nondifferentiable_points=(-1.0, 1.0), monotonic=True,
        value_range=_R(-1.0, 1.0), small_value=(0.0, 1.0), hyperplane_count=1,
        sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.SILU, _silu, monotonic=False, value_range=_R(_SILU_MIN, math.inf, True, False),
        small_value=(0.0, 0.5), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.LISHT, _lisht, monotonic=False, value_range=_R(0.0, math.inf, True, False),
        small_value=(0.0, 0.0),  # z*tanh(z) ~ z^2: no linear term
        hyperplane_count=1),
    ActivationDescriptor(
        ActivationId.SOFTPLUS, _softplus_act, monotonic=True,
        value_range=_R(0.0, math.inf, False, False),
        small_value=(math.log(2.0), 0.5), hyperplane_count=0),
    ActivationDescriptor(
        ActivationId.RELU, _relu, nondifferentiable_points=(0.0,), monotonic=True,
        value_range=_R(0.0, math.inf, True, False), small_value=None, hyperplane_count=1),
    ActivationDescriptor(
        ActivationId.LEAKY_RELU, _leaky_relu, params={"negative_slope": LEAKY_RELU_SLOPE},
        nondifferentiable_points=(0.0,), monotonic=True, value_range=_UNBOUNDED,
        small_value=None, hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.GELU, _gelu, monotonic=False, value_range=_R(_GELU_MIN, math.inf, True, False),
        small_value=(0.0, 0.5), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.SELU, _selu, params={"scale": SELU_SCALE, "alpha": SELU_ALPHA},
        nondifferentiable_points=(0.0,), monotonic=True,
        value_range=_R(-SELU_SCALE * SELU_ALPHA, math.inf, False, False),
        small_value=None, hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.SWISH, _silu,  # same formula as SiLU, distinct id
        monotonic=False, value_range=_R(_SILU_MIN, math.inf, True, False),
        small_value=(0.0, 0.5), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.MISH, _mish, monotonic=False, value_range=_R(_MISH_MIN, math.inf, True, False),
        small_value=(0.0, 0.6),  # tanh(ln 2) = 3/5 exactly
        hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.ELU, _elu, monotonic=True, value_range=_R(-1.0, math.inf, False, False),
        small_value=(0.0, 1.0), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.PRELU, _prelu, params={"alpha": PRELU_ALPHA}, nondifferentiable_points=(0.0,),
        monotonic=True, value_range=_UNBOUNDED, small_value=None, hyperplane_count=1,
        sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.SINE, _sine, monotonic=False, value_range=_R(-1.0, 1.0),
        small_value=(0.0, 1.0), hyperplane_count=COUNTABLY_INFINITE, xor_property=True),
    ActivationDescriptor(
        ActivationId.SQU, _squ, monotonic=False, value_range=_R(-0.25, math.inf, True, False),
        small_value=(0.0, 1.0), hyperplane_count=2, xor_property=True),
    ActivationDescriptor(
        ActivationId.MONOTONIC_CUBIC, _monotonic_cubic, monotonic=True, value_range=_UNBOUNDED,
        small_value=(0.0, 1.0), hyperplane_count=1, sign_equivalent_identity=True),
    ActivationDescriptor(
        ActivationId.NCU, _ncu, monotonic=False, value_range=_UNBOUNDED,
        small_value=(0.0, 1.0), hyperplane_count=3, xor_property=True),
    ActivationDescriptor(
        ActivationId.Z_SQ_COS, _z_sq_cos, monotonic=False, value_range=_UNBOUNDED,
        small_value=(0.0, 0.0),  # z^2 cos z ~ z^2
        hyperplane_count=COUNTABLY_INFINITE),
    ActivationDescriptor(
        ActivationId.SSU, _ssu, monotonic=False, value_range=_R(_SSU_MIN, math.pi),
        small_value=None,  # ~z analytically, but pi*sinc(-pi) is not a float-exact zero
        hyperplane_count=COUNTABLY_INFINITE, xor_property=True),
    ActivationDescriptor(
        ActivationId.GCU, _gcu, monotonic=False, value_range=_UNBOUNDED,
        small_value=(0.0, 1.0), hyperplane_count=COUNTABLY_INFINITE, xor_property=True),
    ActivationDescriptor(
        ActivationId.DSU, _dsu, monotonic=False, value_range=_R(-_DSU_MAX, _DSU_MAX),
        small_value=(0.0, 1.0), hyperplane_count=COUNTABLY_INFINITE, xor_property=True),
]}


def all_ids() -> tuple[ActivationId, ...]:
    return tuple(ActivationId)


def descriptor(id: ActivationId) -> ActivationDescriptor:
    """Full static metadata record for one activation."""
    return _CATALOG[ActivationId(id)]


def _run(id: ActivationId, z, n: int) -> tuple:
    """The first ``n`` results of the kernel of ``id`` over ``z``: (g,) or (g, g').

    Non-float input runs in float64.  An input of at most CHUNK_BYTES, or one
    with a broadcast (zero-stride) axis, runs through the kernel in one pass.
    A larger one runs in 1-d slices of CHUNK_BYTES, in the memory order of
    outputs allocated once with ``np.empty_like(z)``.
    """
    if not isinstance(id, ActivationId):  # converting a member costs more than the kernel on a scalar
        id = ActivationId(id)
    z = np.asarray(z)
    if z.dtype.kind != "f":
        z = z.astype(np.float64)
    kernel = _CATALOG[id].kernel
    if z.nbytes <= CHUNK_BYTES or any(k > 1 and not s for k, s in zip(z.shape, z.strides)):
        run = kernel(z)
        return (next(run),) if n == 1 else (next(run), next(run))
    outs = tuple(np.empty_like(z) for _ in range(n))
    src = z.ravel(order="K")  # a view unless z's memory is not one run
    dsts = [out.ravel(order="K") for out in outs]  # always views
    step = CHUNK_BYTES // z.itemsize

    def chunks(start, stop):
        for i in range(start * step, min(stop * step, z.size), step):
            run = kernel(src[i:i + step])
            for dst in dsts:  # g, then g'
                dst[i:i + step] = next(run)

    _workers.runs(-(-z.size // step), chunks)
    return outs


def apply(id: ActivationId, z: np.ndarray) -> np.ndarray:
    """Vectorized g(z); dtype of ``z`` is preserved."""
    return _run(id, z, 1)[0]


def apply_grad(id: ActivationId, z: np.ndarray) -> np.ndarray:
    """Vectorized g'(z) with subgradient 0 at kink points."""
    return _run(id, z, 2)[1]


def apply_with_grad(id: ActivationId, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g(z), g'(z)) from one kernel pass; bitwise equal to (apply, apply_grad)."""
    return _run(id, z, 2)


def evaluate(id: ActivationId, z: float) -> float:
    """g(z) for a scalar input.

    Raises DomainError for non-finite input.  Saturating forms are evaluated
    stably, so outputs stay finite at least for |z| <= 50.
    """
    if not math.isfinite(z):
        raise DomainError(f"activation input must be finite, got {z!r}")
    return float(apply(id, np.float64(z)))


def derivative(id: ActivationId, z: float) -> float:
    """Analytic g'(z) for a scalar input.

    Raises KinkError when z is exactly a non-differentiable point of g; the
    array path (apply_grad) instead uses the subgradient-0 convention there.
    """
    id = ActivationId(id)
    if not math.isfinite(z):
        raise DomainError(f"activation input must be finite, got {z!r}")
    if z in _CATALOG[id].nondifferentiable_points:
        raise KinkError(f"{id.value} is not differentiable at z = {z}")
    return float(apply_grad(id, np.float64(z)))
