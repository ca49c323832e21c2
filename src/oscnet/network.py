"""Model assembly, Adam, the training loop and evaluation.

A model is a list of layers over one flat parameter dict.  Each layer kind
(ConvBlock, Flatten, Dense, Activation, Dropout) is one class whose
``forward(x, params, train, rng, with_cache)`` returns ``(y, cache)`` and
whose ``backward(dy, cache, grads)`` returns dx and stores its parameter
gradients in ``grads``.  Both call the kernels in `layers`,
looked up on the module at call time.

The benchmark architecture family stacks ``conv_layers`` ConvBlocks, each a
3x3 same-pad conv -> activation -> 2x2 max pool run as one pass per patch
block, with channel widths (32, 64, 128, 128), then Flatten -> Dense(64) ->
Activation -> Dropout(0.5) -> Dense(10) logits.  Weights use He-uniform
fan-in init, biases start at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cifar, layers
from .activations import ActivationId
from .errors import ConfigError, DivergenceError, ShapeError

CONV_CHANNELS = (32, 64, 128, 128)
PENULTIMATE_UNITS = 64
EVAL_BATCH = 256

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkConfig:
    conv_layers: int
    activation: ActivationId
    seed: int = 0

    def __post_init__(self):
        if self.conv_layers not in (1, 2, 3, 4):
            raise ConfigError(f"conv_layers must be 1..4, got {self.conv_layers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_init(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for k, g in grads.items():
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        params[k] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class ConvBlock:
    """3x3 conv -> activation -> 2x2 max pool as one layer, run by
    ``layers.conv_block_forward`` and ``layers.conv_block_backward``.
    ``need_dx=False`` marks an input layer: its backward returns None in
    place of the image gradient and skips computing it."""

    def __init__(self, name: str, id: ActivationId, need_dx: bool = True):
        self.w, self.b = f"{name}_w", f"{name}_b"
        self.id = id
        self.need_dx = need_dx

    def forward(self, x, params, train, rng, with_cache):
        return layers.conv_block_forward(x, params[self.w], params[self.b], self.id, with_cache)

    def backward(self, dy, cache, grads):
        dx, grads[self.w], grads[self.b] = layers.conv_block_backward(dy, cache, self.need_dx)
        return dx


class Dense:
    def __init__(self, name: str):
        self.w, self.b = f"{name}_w", f"{name}_b"

    def forward(self, x, params, train, rng, with_cache):
        return layers.dense_forward(x, params[self.w], params[self.b])

    def backward(self, dy, cache, grads):
        dx, grads[self.w], grads[self.b] = layers.dense_backward(dy, cache)
        return dx


class Activation:
    def __init__(self, id: ActivationId):
        self.id = id

    def forward(self, x, params, train, rng, with_cache):
        return layers.activation_forward(x, self.id, with_cache)

    def backward(self, dy, cache, grads):
        return layers.activation_backward(dy, cache)


class Flatten:
    def forward(self, x, params, train, rng, with_cache):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, grads):
        return dy.reshape(cache)


class Dropout:
    def forward(self, x, params, train, rng, with_cache):
        return layers.dropout_forward(x, train, rng)

    def backward(self, dy, cache, grads):
        return layers.dropout_backward(dy, cache)


class Model:
    """A sequential stack of layers over a flat parameter dict."""

    def __init__(self, stack: list, params: dict):
        self.layers = stack
        self.params = params

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None, with_caches: bool = False):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, self.params, train, rng, with_caches)
            if with_caches:
                caches.append(cache)
            del cache  # without caches, each is freed before the next layer runs
        return (x, caches) if with_caches else x

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray,
                       rng: np.random.Generator | None = None, train: bool = True):
        logits, caches = self.forward(x, train=train, rng=rng, with_caches=True)
        loss, d = layers.softmax_cross_entropy(logits, labels)
        grads = {}
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            d = layer.backward(d, cache, grads)
        return loss, grads


def _he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def build_model(cfg: NetworkConfig, input_shape: tuple = cifar.IMAGE_SHAPE,
                num_classes: int = cifar.NUM_CLASSES, dtype=np.float32) -> Model:
    """Materialize the architecture family for a given depth and activation.

    Parameter names count two slots per conv block (conv with its activation,
    then the pool), then Flatten, Dense, Dropout and the logits: for depth d,
    conv i is ``layer{2i}``, the penultimate Dense ``layer{2d+1}``, the logits
    ``layer{2d+3}``."""
    rng = np.random.default_rng(cfg.seed)
    params: dict = {}

    def affine(layer, w_shape, fan_in, units):
        params[layer.w] = _he_uniform(rng, w_shape, fan_in, dtype)
        params[layer.b] = np.zeros(units, dtype=dtype)
        return layer

    c, h, w = input_shape
    k = layers.KERNEL
    stack: list = []
    for li in range(cfg.conv_layers):
        out = CONV_CHANNELS[li]
        block = ConvBlock(f"layer{2 * li}", cfg.activation, need_dx=li > 0)
        stack.append(affine(block, (out, c, k, k), c * k * k, out))
        c, h, w = out, h // 2, w // 2
    flat, top, units = c * h * w, 2 * cfg.conv_layers, PENULTIMATE_UNITS
    stack += [Flatten(), affine(Dense(f"layer{top + 1}"), (flat, units), flat, units),
              Activation(cfg.activation), Dropout(),
              affine(Dense(f"layer{top + 3}"), (units, num_classes), units, num_classes)]
    return Model(stack, params)


def _dataset_size(images: np.ndarray, labels: np.ndarray, caller: str) -> int:
    """The number of samples; raises before any work on an empty set or on
    a label count that differs from the image count."""
    n = images.shape[0]
    if n == 0:
        raise ConfigError(f"{caller} needs a non-empty dataset")
    if len(labels) != n:
        raise ShapeError(f"{caller} got {len(labels)} labels for {n} images")
    return n


def train_epoch(model: Model, images: np.ndarray, labels: np.ndarray,
                state: AdamState, lr: float, rng: np.random.Generator,
                batch: int = 64) -> float:
    """One pass over the data: seeded shuffle, batched Adam updates.

    Returns the sample-weighted mean training loss.  Raises ConfigError,
    before any work, unless ``batch`` is an int >= 1 and ``lr`` is finite and
    >= 0 (0 runs the steps without moving a parameter), and DivergenceError
    naming the batch index if any batch loss goes non-finite.
    """
    if not isinstance(batch, (int, np.integer)) or batch < 1:
        raise ConfigError(f"batch must be an integer >= 1, got {batch!r}")
    if not 0 <= lr < math.inf:
        raise ConfigError(f"lr must be finite and >= 0, got {lr!r}")
    n = _dataset_size(images, labels, "train_epoch")
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


def evaluate_top1(model: Model, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax logit equals the label.

    Ties break to the lowest class index (argmax returns the first maximum).
    A sample with any non-finite logit counts as a miss.
    """
    n = _dataset_size(images, labels, "evaluate_top1")
    hits = 0
    for start in range(0, n, EVAL_BATCH):
        stop = start + EVAL_BATCH
        logits = model.forward(images[start:stop], train=False)
        hit = (logits.argmax(axis=1) == labels[start:stop]) & np.isfinite(logits).all(axis=1)
        hits += int(hit.sum())
    return hits / n
