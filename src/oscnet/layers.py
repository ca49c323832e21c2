"""Functional NN layers: forward/backward pairs over numpy arrays.

Convolutions are 3x3, stride 1, zero-padded to preserve spatial size, and are
lowered to GEMM through an im2col view.  Every backward returns gradients in
the same shapes as its forward inputs; cached activations are whatever the
backward needs, nothing more.  An activation layer caches g'(x), computed in
the same kernel pass as g(x), so its backward is a single product.
"""

from __future__ import annotations

import numpy as np

from .activations import ActivationId, apply, apply_with_grad
from .activations import apply_grad  # noqa: F401  perfbench/spans.py hooks layers.apply_grad by name
from .errors import LabelError, ShapeError

KERNEL = 3
PAD = 1


def _im2col(x: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> (N*H*W, C*9) patch matrix for 3x3/stride-1/pad-1."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, c, h, w, KERNEL, KERNEL), (s[0], s[1], s[2], s[3], s[2], s[3]))
    # layout (N,H,W,C,k,k) so each row of the matrix is one output pixel's patch
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(n * h * w, c * KERNEL * KERNEL)


def _col2im(dcol: np.ndarray, shape) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patch gradients back to (N,C,H,W)."""
    n, c, h, w = shape
    d = dcol.reshape(n, h, w, c, KERNEL, KERNEL).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros((n, c, h + 2 * PAD, w + 2 * PAD), dtype=dcol.dtype)
    for ki in range(KERNEL):
        for kj in range(KERNEL):
            dxp[:, :, ki:ki + h, kj:kj + w] += d[:, :, :, :, ki, kj]
    return dxp[:, :, PAD:PAD + h, PAD:PAD + w]


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Cross-correlation. x: (N,C,H,W), w: (K,C,3,3), b: (K,) -> (N,K,H,W)."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-d input (N,C,H,W), got shape {x.shape}")
    if w.ndim != 4 or w.shape[1:] != (x.shape[1], KERNEL, KERNEL):
        raise ShapeError(
            f"conv2d weights must be (K,{x.shape[1]},{KERNEL},{KERNEL}), got {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"conv2d bias must be ({w.shape[0]},), got {b.shape}")
    n, c, h, wd = x.shape
    k = w.shape[0]
    col = _im2col(x)
    out = col @ w.reshape(k, -1).T + b
    y = out.reshape(n, h, wd, k).transpose(0, 3, 1, 2)
    return y, (col, x.shape, w)


def conv2d_backward(dy: np.ndarray, cache):
    col, x_shape, w = cache
    n, c, h, wd = x_shape
    k = w.shape[0]
    dmat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * h * wd, k)
    db = dmat.sum(axis=0)
    dw = (dmat.T @ col).reshape(w.shape)
    dcol = dmat @ w.reshape(k, -1)
    dx = _col2im(dcol, x_shape)
    return dx, dw, db


def maxpool2_forward(x: np.ndarray):
    """2x2 non-overlapping max pool; ties route to the first window index."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(n, c, h // 2, w // 2, 4)
    arg = flat.argmax(axis=-1)  # argmax returns the first maximal index
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return y, (arg, x.shape)


def maxpool2_backward(dy: np.ndarray, cache):
    arg, x_shape = cache
    n, c, h, w = x_shape
    dflat = np.zeros((n, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(dflat, arg[..., None], dy[..., None], axis=-1)
    return (dflat.reshape(n, c, h // 2, w // 2, 2, 2)
                 .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w))


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map. x: (N,D), w: (D,U), b: (U,) -> (N,U)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense expects (N,D)@(D,U); got x {x.shape}, w {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"dense bias must be ({w.shape[1]},), got {b.shape}")
    return x @ w + b, (x, w)


def dense_backward(dy: np.ndarray, cache):
    x, w = cache
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def activation_forward(x: np.ndarray, id: ActivationId, with_cache: bool = True):
    """g(x) and the cache g'(x); with_cache=False computes g only (cache None)."""
    if not with_cache:
        return apply(id, x), None
    return apply_with_grad(id, x)


def activation_backward(dy: np.ndarray, cache):
    return dy * cache


def dropout_forward(x: np.ndarray, rate: float, train: bool, rng: np.random.Generator | None = None):
    """Inverted dropout: train mode zeroes with probability ``rate`` and scales
    survivors by 1/(1-rate); eval mode is the identity."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs a Generator")
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def dropout_backward(dy: np.ndarray, mask):
    return dy if mask is None else dy * mask


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch via a stable log-sum-exp.

    Returns (loss, dloss/dlogits) with gradient (softmax - onehot)/N.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise LabelError(f"label {bad} outside [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n
