"""Model assembly, Adam, the training loop, and checkpoint serialization.

The benchmark architecture family stacks ``conv_layers`` blocks of
[3x3 same-pad conv -> activation -> 2x2 max pool] with channel widths
(32, 64, 128, 128), then Flatten -> Dense(64, activation) -> Dropout(0.5)
-> Dense(10) logits.  Activations are pluggable everywhere.  Weights use
He-uniform fan-in init, biases start at zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import layers
from .activations import ActivationId
from .errors import ConfigError, DivergenceError

CONV_CHANNELS = (32, 64, 128, 128)
PENULTIMATE_UNITS = 64
NUM_CLASSES = 10
DROPOUT_RATE = 0.5

CHECKPOINT_MAGIC = b"OSC1"


@dataclass(frozen=True)
class Conv2dSpec:
    out_channels: int
    activation: ActivationId


@dataclass(frozen=True)
class MaxPoolSpec:
    pass


@dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclass(frozen=True)
class DenseSpec:
    units: int
    activation: ActivationId


@dataclass(frozen=True)
class DropoutSpec:
    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.rate}")


@dataclass(frozen=True)
class LogitsSpec:
    units: int = NUM_CLASSES


@dataclass(frozen=True)
class NetworkConfig:
    conv_layers: int
    activation: ActivationId
    seed: int = 0

    def __post_init__(self):
        if self.conv_layers not in (1, 2, 3, 4):
            raise ConfigError(f"conv_layers must be 1..4, got {self.conv_layers}")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: dict, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
        t=0, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update, in place.  Returns (params, state)."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for k, g in grads.items():
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        params[k] -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state


class Model:
    """A sequential stack of layer specs with a flat parameter dict."""

    def __init__(self, specs: list, params: dict, input_shape: tuple):
        self.specs = specs
        self.params = params
        self.input_shape = input_shape

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None, with_caches: bool = False):
        caches = []
        p = self.params
        for i, spec in enumerate(self.specs):
            if isinstance(spec, Conv2dSpec):
                x, cache = layers.conv2d_forward(x, p[f"layer{i}_w"], p[f"layer{i}_b"])
                caches.append(("conv", i, cache))
                x, acache = layers.activation_forward(x, spec.activation, with_caches)
                caches.append(("act", None, acache))
            elif isinstance(spec, MaxPoolSpec):
                x, cache = layers.maxpool2_forward(x)
                caches.append(("pool", None, cache))
            elif isinstance(spec, FlattenSpec):
                caches.append(("flatten", None, x.shape))
                x = x.reshape(x.shape[0], -1)
            elif isinstance(spec, DenseSpec):
                x, cache = layers.dense_forward(x, p[f"layer{i}_w"], p[f"layer{i}_b"])
                caches.append(("dense", i, cache))
                x, acache = layers.activation_forward(x, spec.activation, with_caches)
                caches.append(("act", None, acache))
            elif isinstance(spec, DropoutSpec):
                x, mask = layers.dropout_forward(x, spec.rate, train, rng)
                caches.append(("dropout", None, mask))
            elif isinstance(spec, LogitsSpec):
                x, cache = layers.dense_forward(x, p[f"layer{i}_w"], p[f"layer{i}_b"])
                caches.append(("dense", i, cache))
            else:  # pragma: no cover - specs are closed
                raise TypeError(f"unknown layer spec {spec!r}")
        return (x, caches) if with_caches else x

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray,
                       rng: np.random.Generator | None = None, train: bool = True):
        logits, caches = self.forward(x, train=train, rng=rng, with_caches=True)
        loss, d = layers.softmax_cross_entropy(logits, labels)
        grads = {}
        for kind, key, cache in reversed(caches):
            if kind == "dense":
                d, dw, db = layers.dense_backward(d, cache)
                grads[f"layer{key}_w"] = dw
                grads[f"layer{key}_b"] = db
            elif kind == "conv":
                d, dw, db = layers.conv2d_backward(d, cache)
                grads[f"layer{key}_w"] = dw
                grads[f"layer{key}_b"] = db
            elif kind == "act":
                d = layers.activation_backward(d, cache)
            elif kind == "pool":
                d = layers.maxpool2_backward(d, cache)
            elif kind == "flatten":
                d = d.reshape(cache)
            elif kind == "dropout":
                d = layers.dropout_backward(d, cache)
        return loss, grads


def _he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def build_model(cfg: NetworkConfig, input_shape: tuple = (3, 32, 32),
                num_classes: int = NUM_CLASSES, dtype=np.float32) -> Model:
    """Materialize the architecture family for a given depth and activation."""
    c, h, w = input_shape
    specs: list = []
    for li in range(cfg.conv_layers):
        specs.append(Conv2dSpec(CONV_CHANNELS[li], cfg.activation))
        specs.append(MaxPoolSpec())
    specs.append(FlattenSpec())
    specs.append(DenseSpec(PENULTIMATE_UNITS, cfg.activation))
    specs.append(DropoutSpec(DROPOUT_RATE))
    specs.append(LogitsSpec(num_classes))

    rng = np.random.default_rng(cfg.seed)
    params: dict = {}
    cur_c, cur_h, cur_w = c, h, w
    for i, spec in enumerate(specs):
        if isinstance(spec, Conv2dSpec):
            fan_in = cur_c * layers.KERNEL * layers.KERNEL
            params[f"layer{i}_w"] = _he_uniform(
                rng, (spec.out_channels, cur_c, layers.KERNEL, layers.KERNEL), fan_in, dtype)
            params[f"layer{i}_b"] = np.zeros(spec.out_channels, dtype=dtype)
            cur_c = spec.out_channels
        elif isinstance(spec, MaxPoolSpec):
            cur_h //= 2
            cur_w //= 2
        elif isinstance(spec, FlattenSpec):
            flat = cur_c * cur_h * cur_w
        elif isinstance(spec, DenseSpec):
            params[f"layer{i}_w"] = _he_uniform(rng, (flat, spec.units), flat, dtype)
            params[f"layer{i}_b"] = np.zeros(spec.units, dtype=dtype)
            flat = spec.units
        elif isinstance(spec, LogitsSpec):
            params[f"layer{i}_w"] = _he_uniform(rng, (flat, spec.units), flat, dtype)
            params[f"layer{i}_b"] = np.zeros(spec.units, dtype=dtype)
    return Model(specs, params, input_shape)


def train_epoch(model: Model, images: np.ndarray, labels: np.ndarray,
                state: AdamState, lr: float, rng: np.random.Generator,
                batch: int = 64) -> float:
    """One pass over the data: seeded shuffle, batched Adam updates.

    Returns the sample-weighted mean training loss.  Raises DivergenceError
    naming the batch index if any batch loss goes non-finite.
    """
    n = images.shape[0]
    if n == 0:
        raise ConfigError("train_epoch needs a non-empty dataset")
    order = rng.permutation(n)
    total = 0.0
    for bi, start in enumerate(range(0, n, batch)):
        idx = order[start:start + batch]
        with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
            loss, grads = model.loss_and_grads(images[idx], labels[idx], rng=rng)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss in batch {bi}", bi)
        adam_step(model.params, grads, state, lr)
        total += loss * idx.size
    return total / n


def evaluate_loss(model: Model, images: np.ndarray, labels: np.ndarray,
                  batch: int = 256) -> float:
    """Mean cross-entropy in eval mode (dropout off)."""
    n = images.shape[0]
    total = 0.0
    for start in range(0, n, batch):
        logits = model.forward(images[start:start + batch], train=False)
        loss, _ = layers.softmax_cross_entropy(logits, labels[start:start + batch])
        total += loss * min(batch, n - start)
    return total / n


def evaluate_top1(model: Model, images: np.ndarray, labels: np.ndarray,
                  batch: int = 256) -> float:
    """Fraction of samples whose argmax logit equals the label.

    Ties break to the lowest class index (argmax returns the first maximum).
    A sample with any non-finite logit counts as a miss.
    """
    n = images.shape[0]
    hits = 0
    for start in range(0, n, batch):
        logits = model.forward(images[start:start + batch], train=False)
        hit = (logits.argmax(axis=1) == labels[start:start + batch]) & np.isfinite(logits).all(axis=1)
        hits += int(hit.sum())
    return hits / n


# ---------------------------------------------------------------------------
# checkpoints: b"OSC1", then a shape table, then little-endian float32 data
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        (count,) = struct.unpack("<I", fh.read(4))
        shapes = []
        for _ in range(count):
            (nlen,) = struct.unpack("<H", fh.read(2))
            name = fh.read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            shapes.append((name, shape))
        params = {}
        for name, shape in shapes:
            size = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(4 * size), dtype="<f4")
            params[name] = data.reshape(shape).copy()
    return params
