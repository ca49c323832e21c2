"""Functional NN layers: forward/backward pairs over numpy arrays.

Convolutions are 3x3, stride 1, zero-padded to preserve spatial size, and are
lowered to GEMM one block of whole images at a time.  A block holds as many
images as fit their patch matrix into BLOCK_BYTES, so the columns are still in
cache when the GEMM reads them.  One generator, _patch_blocks, builds every
patch matrix: it copies each block into a zero-bordered NHWC buffer and
fills the patches with one copy through a single window view of it.  Patch
columns run over (ki, kj, C), matching the weight matrix
w.transpose(0, 2, 3, 1).reshape(K, 9C).  The forward caches its input
itself, not a padded copy or the patch matrix, so a conv input must not be
written before the conv's backward; no layer of a model writes one.  The
backward rebuilds each block's columns for dW, and computes dx as the same
blocked conv of dy with w flipped in space and its channel axes swapped.  It
calls the private _conv for that, not conv2d_forward, so a tracer that wraps
the public kernels sees one forward per conv layer.  Every backward
returns gradients in the same shapes as its forward inputs; cached
activations are whatever the backward needs, nothing more.  An activation
layer caches g'(x), computed in the same kernel pass as g(x), so its backward
is a single product, written into that cache.  The 2x2 max pool builds no
argmax index: its forward is three np.maximum calls folded from the last
window position, and its training cache is (x, y), its input and its
read-only output.  Its backward finds each window's first maximal position
from them.  A backward consumes its cache: call it once per forward.

The pool backward writes dx into the x it cached whenever x is writeable and
of dy's dtype, so anything that must outlive the backward reaches a pool
read-only.  A training pool output is read-only, so a pool fed by another
pool leaves the first pool's y intact, and ``Model.forward`` hands its first
layer a read-only view of the caller's input.  Every other x a pool gets in
a model is a fresh output held by nothing but that pool's cache.

Arrays keep NCHW shapes, but the conv and pool kernels hand on NHWC memory:
a conv output, a pool output and the conv's input gradient are NCHW views of
channels-last memory, and elementwise kernels keep that layout.  The pool's
input gradient takes the layout of its input x, channels-last in a model.
So the patch copies read x and dy, and the dW GEMM reads dy, without a
transposing copy.  Any layout is accepted as input; only speed differs.

The conv's patch blocks run side by side, one contiguous run of blocks per
worker (see _workers for the worker count), under the caller's numpy error
state.  Each run fills its own patch buffers and writes only its own blocks
of the output, so every block is the one a single loop builds.  dW is summed
in block order: the run that starts at block 0 adds its blocks' products
into dW as it goes, the later runs return theirs, and the caller adds those
in run order, so dW is bitwise the sequential sum at any worker count.  The
pool, db and the dense layers run on the calling thread: two workers made
the pool no faster.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _workers
from .activations import CHUNK_BYTES, ActivationId, apply, apply_with_grad
from .activations import apply_grad  # noqa: F401  perfbench/spans.py hooks layers.apply_grad by name
from .errors import LabelError, ShapeError

KERNEL = 3
PAD = 1
# Patch-matrix bytes per image block: one block's columns stay in cache
# between the patch copy and its GEMM.  On a 2-core x86-64 box (one BLAS
# thread), budgets of 0.5 to 4 MiB gave relu CNN training and eval rates
# within about 10 % of each other; none won at every depth.
BLOCK_BYTES = 1 << 20
DROPOUT_RATE = 0.5


def _patch_blocks(x: np.ndarray, dtype, step: int, start: int, stop: int):
    """Yield (slice, col) for blocks start..stop-1 of x (N,C,H,W), each of
    ``step`` whole images: col is the (nb*H*W, 9C) patch matrix of x[slice]
    in dtype, columns in (ki, kj, C) order.  Each block is copied into the
    interior of one zero-bordered NHWC buffer, and one copy through a single
    window view of that buffer fills the patch buffer.  Both buffers belong
    to this call and are reused, so col is valid until the next block."""
    n, c, h, w = x.shape
    if h == 0 or w == 0:  # no patches, and no 3x3 window fits the border
        return
    buf = np.zeros((step, h + 2 * PAD, w + 2 * PAD, c), dtype=dtype)
    win = sliding_window_view(buf, (KERNEL, KERNEL), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    cols = np.empty(win.shape, dtype=dtype)  # (step, H, W, ki, kj, C)
    for i in range(start * step, min(stop * step, n), step):
        blk = slice(i, min(i + step, n))
        nb = blk.stop - i
        buf[:nb, PAD:PAD + h, PAD:PAD + w] = x[blk].transpose(0, 2, 3, 1)
        cols[:nb] = win[:nb]
        yield blk, cols[:nb].reshape(nb * h * w, KERNEL * KERNEL * c)


def _block_runs(x: np.ndarray, dtype, fn) -> list:
    """[fn(lo, blocks)] for contiguous runs of the patch blocks of x, one run
    per worker (see _workers), in block order.  lo is the run's first block
    and blocks its _patch_blocks.  A block holds as many images as fit their
    patch matrix into BLOCK_BYTES, at least one; a zero-byte image counts as
    one byte."""
    n, c, h, w = x.shape
    per_image = h * w * KERNEL * KERNEL * c * np.dtype(dtype).itemsize
    step = max(1, min(n, BLOCK_BYTES // max(1, per_image)))
    return _workers.runs(-(-n // step),
                         lambda lo, hi: fn(lo, _patch_blocks(x, dtype, step, lo, hi)))


def _weight_matrix(w: np.ndarray) -> np.ndarray:
    """(K,C,3,3) -> (K, 9C) with columns in the patch order (ki, kj, C)."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], KERNEL * KERNEL * w.shape[1])


def _conv(x: np.ndarray, w: np.ndarray, dtype, b: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation of x (N,C,H,W) with w (K,C,3,3), plus b if given, as
    an (N,H,W,K) array of dtype: one GEMM per patch block, written into
    that block of the output, with the blocks split into runs across the
    workers."""
    n, _, h, wd = x.shape
    k = w.shape[0]
    wmat_t = _weight_matrix(w).T
    y = np.empty((n, h, wd, k), dtype=dtype)

    def run(lo, blocks):
        for blk, col in blocks:
            y_blk = y[blk].reshape(col.shape[0], k)
            np.matmul(col, wmat_t, out=y_blk)
            if b is not None:
                y_blk += b

    _block_runs(x, dtype, run)
    return y


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Cross-correlation. x: (N,C,H,W), w: (K,C,3,3), b: (K,) -> (N,K,H,W).

    The cache is (x, w): the input itself, which must not be written before
    the backward."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-d input (N,C,H,W), got shape {x.shape}")
    if w.ndim != 4 or w.shape[1:] != (x.shape[1], KERNEL, KERNEL):
        raise ShapeError(
            f"conv2d weights must be (K,{x.shape[1]},{KERNEL},{KERNEL}), got {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"conv2d bias must be ({w.shape[0]},), got {b.shape}")
    y = _conv(x, w, np.result_type(x, w, b), b)
    return y.transpose(0, 3, 1, 2), (x, w)


def conv2d_backward(dy: np.ndarray, cache, need_dx: bool = True):
    """(dx, dw, db); dx is None when need_dx is False (an input layer).

    dW accumulates over the patch blocks of x; dx is the same blocked conv
    of dy with w flipped in space and its channel axes swapped.  dx is a
    view of NHWC memory; dw is C-contiguous (K,C,3,3)."""
    x, w = cache
    k, c = w.shape[:2]
    dmat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1))  # (N,H,W,K)
    db = dmat.sum(axis=(0, 1, 2))
    dtype = np.result_type(dy, x, w)
    dwmat = np.zeros((k, KERNEL * KERNEL * c), dtype=dtype)

    def run(lo, blocks):
        prods = (dmat[blk].reshape(col.shape[0], k).T @ col for blk, col in blocks)
        if lo == 0:  # these blocks come first in the sum: add them now
            for prod in prods:
                np.add(dwmat, prod, out=dwmat)
            return []
        return list(prods)

    for prods in _block_runs(x, dtype, run):  # the later runs' products, in block order
        for prod in prods:
            dwmat += prod
    dw = np.ascontiguousarray(dwmat.reshape(k, KERNEL, KERNEL, c).transpose(0, 3, 1, 2))
    if not need_dx:
        return None, dw, db
    dx = _conv(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), dtype)
    return dx.transpose(0, 3, 1, 2), dw, db


_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))  # window order: argmax index 2*i + j


def _quadrants(x: np.ndarray):
    """The four (N,C,H/2,W/2) views of x, one per window position, in window order."""
    return [x[:, :, i::2, j::2] for i, j in _QUADRANTS]


def _max4(a, b, c, d):
    """max(max(max(d, c), b), a): folding from the last window position, so
    where np.maximum returns its second operand on a tie the earlier
    position wins it."""
    y = np.maximum(d, c)
    np.maximum(y, b, out=y)
    return np.maximum(y, a, out=y)


def _fold_keeps_first_zero() -> bool:
    """Whether _max4 gives an all-zero window the sign of its first zero, i.e.
    whether np.maximum returns its second operand on a tie of +0.0 and -0.0.
    numpy 2.4.6 does on x86-64; nothing promises it (IEEE 754 maximum, and
    ARM's vector max, return +0.0).  Tried on all 16 sign patterns, in both
    float dtypes and in NCHW and NHWC memory, with 37 channels so that the
    vector loops and their remainders both run."""
    signs = (np.arange(16)[:, None] >> np.arange(4)) & 1  # [pattern, position]
    for dtype in (np.float32, np.float64):
        windows = np.where(signs, -0.0, 0.0).astype(dtype).reshape(16, 2, 2)
        x = np.broadcast_to(windows.transpose(1, 0, 2).reshape(2, 32), (1, 37, 2, 32))
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        for mem in (np.ascontiguousarray(x), nhwc):
            q = _quadrants(mem)
            if not np.array_equal(np.signbit(_max4(*q)), np.signbit(q[0])):
                return False
    return True


# False where the fold can lose a leading -0.0; the forward then re-reads the
# windows whose maximum is zero.
_FOLD_KEEPS_FIRST_ZERO = _fold_keeps_first_zero()


def _first_where(quadrants, windows, hit):
    """For each selected window, its value at the first position where
    hit(value) holds (at the last position if none does)."""
    *earlier, first = (s[windows] for s in quadrants)
    for s in reversed(earlier):
        first = np.where(hit(s), s, first)
    return first


def maxpool2_forward(x: np.ndarray, with_cache: bool = True):
    """2x2 non-overlapping max pool: y is bitwise x at each window's first
    maximal position, the position argmax over the window gives (a NaN
    counts as maximal), so a leading -0.0 keeps its sign.

    The cache is (x, y), and y is read-only; with_cache=False gives a
    writeable y and the cache None.  np.maximum gives the right magnitude;
    which of two equal operands it returns is fixed up where it matters.
    On two NaNs it keeps the later one, so windows whose maximum is NaN are
    set to their first NaN.  On +0.0 against -0.0 the fold keeps the
    earlier one where np.maximum returns its second operand, as probed at
    import by _fold_keeps_first_zero; elsewhere windows whose maximum is
    zero are set to their first zero."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 expects a 4-d input (N,C,H,W), got shape {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    q = _quadrants(x)
    y = _max4(*q)
    nan = np.isnan(y)
    if nan.any():
        y[nan] = _first_where(q, nan, np.isnan)
    if not _FOLD_KEEPS_FIRST_ZERO:
        zero = y == 0
        if zero.any():
            y[zero] = _first_where(q, zero, lambda s: s == 0)
    if not with_cache:
        return y, None
    y.flags.writeable = False  # a later pool may take y as its x (see the module docstring)
    return y, (x, y)


def maxpool2_backward(dy: np.ndarray, cache):
    """Route dy to each window's first maximal position; dx has x's layout.

    The routing is recomputed from the cached (x, y), one block of whole
    images of about CHUNK_BYTES of x at a time: a position is hit when it
    equals y or is NaN, unless an earlier position of its window was hit.
    Each block of dy is first copied into y's layout, so every operand walks
    memory in the same order.  Each quadrant of dx is dy's bits ANDed with
    an all-ones or all-zeros mask, so a position that gets no gradient holds
    +0.0 whatever the sign of dy.  dx is written into x when x is writeable
    and of dy's dtype, otherwise into a fresh array."""
    x, y = cache
    n = x.shape[0]
    dx = x if x.flags.writeable and x.dtype == dy.dtype else np.empty_like(x, dtype=dy.dtype)
    bits = np.dtype(f"i{dy.itemsize}")
    has_nan = np.isnan(y).any()
    step = max(1, CHUNK_BYTES // max(1, x[:1].nbytes))
    for i in range(0, n, step):
        blk = slice(i, i + step)
        y_blk = y[blk]
        d_blk = np.empty_like(y_blk, dtype=dy.dtype)
        d_blk[...] = dy[blk]
        d_bits = d_blk.view(bits)
        for k, (s, out) in enumerate(zip(_quadrants(x[blk]), _quadrants(dx[blk]))):
            if k == 3:  # every window has a maximal position
                hit = ~claimed
            else:
                hit = s == y_blk
                if has_nan:
                    hit |= np.isnan(s)
                if k == 0:
                    claimed = hit
                else:
                    hit = np.greater(hit, claimed)  # hit and not claimed
                    claimed |= hit
            np.bitwise_and(d_bits, np.subtract(0, hit, dtype=bits), out=out.view(bits))
    return dx


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
    """dy * g'(x), computed in place in the cache g'(x), which it returns."""
    return np.multiply(dy, cache, out=cache)


def dropout_forward(x: np.ndarray, train: bool, rng: np.random.Generator | None = None):
    """Inverted dropout: train mode zeroes with probability DROPOUT_RATE and
    scales survivors by 1/(1-DROPOUT_RATE); eval mode is the identity."""
    if not train:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs a Generator")
    keep = (rng.random(x.shape) >= DROPOUT_RATE).astype(x.dtype) / (1.0 - DROPOUT_RATE)
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
