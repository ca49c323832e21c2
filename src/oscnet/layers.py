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
blocked conv of dy with w flipped in space and its channel axes swapped,
through the private _conv, which takes no bias.  Every backward returns
gradients in the same shapes as its forward inputs; cached activations are
whatever the backward needs, nothing more.  An activation layer caches
g'(x), computed in the same kernel pass as g(x), so its backward is a
single product, written into that cache.  The 2x2 max pool builds no
argmax index: its forward is three np.maximum calls folded from the last
window position, and its training cache is (x, y), its input and its
output.  Its backward finds each window's first maximal position from them
and writes dx into a fresh array, or into an ``out`` its caller passes.
A backward consumes its cache: call it once per forward.

conv_block_forward is conv2d_forward, activation_forward and
maxpool2_forward in one pass over the conv's patch blocks: each block's conv
output stays in its thread's scratch buffer while the activation kernel runs
over it in CHUNK_BYTES slices (_chunks, the only place an activation runs in
pieces) and the pool reads the result, so no whole-batch conv output is
made and the pool runs on every worker.  It shares each block's code with
those kernels (_conv_block, _maxpool2), and its cache is theirs:
conv_block_backward runs their three backwards, the pool's writing dx into
the cached g, which nothing reads after.

Arrays keep NCHW shapes, but the conv and pool kernels hand on NHWC memory:
a conv output, a pool output and the conv's input gradient are NCHW views of
channels-last memory, and elementwise kernels keep that layout.  The pool's
input gradient takes the layout of its input x, channels-last in a model.
So the patch copies read x and dy, and the dW GEMM reads dy, without a
transposing copy.  Any layout is accepted as input; only speed differs.

The conv's patch blocks run side by side, one contiguous run of blocks per
worker (see _workers for the worker count), under the caller's numpy error
state.  Each run fills its thread's patch and scratch buffers, kept between
calls (_scratch) so a step maps no fresh pages for them: the largest request
per role per thread, about 2.5 MB at the benchmark shapes.  A run writes
only its own blocks of the outputs, so every block is the one a loop builds.
dW is summed in block order: each run returns its blocks' products and the
caller adds them in block order, so dW is bitwise the sequential sum at any
worker count.  The pool backward, db and the dense layers run on the calling
thread, and so does maxpool2_forward outside a conv block: split across
two workers, the pool backward was slower.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _workers
from .activations import ActivationId, _kernel, apply, apply_with_grad
from .activations import apply_grad  # noqa: F401  perfbench/spans.py hooks layers.apply_grad by name
from .errors import LabelError, ShapeError

KERNEL = 3
PAD = 1
# Patch-matrix bytes per image block: one block's columns stay in cache
# between the patch copy and its GEMM.  On a 2-core x86-64 box (one BLAS
# thread), budgets of 0.5 to 4 MiB gave relu CNN training and eval rates
# within about 10 % of each other; none won at every depth.
BLOCK_BYTES = 1 << 20
# A conv block runs its activation over each patch block's conv output in
# 1-d slices of this many bytes (_chunks), so every kernel temporary stays
# in L2; maxpool2_backward sizes its image blocks by it too.  256 KiB comes
# from a sweep of the two conv blocks of a depth-2 float32 CNN (3->32
# channels at 32x32, 32->64 at 16x16) on a 2-core x86-64 box, two workers
# at one BLAS thread, numpy 2.4.6.  Median ms per call at
# 64/128/256/512/1024 KiB, batch-64 training: DSU 44/37/32/32/31, SSU
# 29/26/24/23/24, GELU 37/30/27/27/28; batch-256 eval: DSU 94/80/77/71/78,
# SSU 76/69/60/60/70, GELU 93/81/75/75/88.  A second sweep agreed: 64 and
# 128 KiB lose in both modes, 1024 KiB loses in eval, and 256 and 512 KiB
# tie within the spread between the two sweeps.
CHUNK_BYTES = 1 << 18
DROPOUT_RATE = 0.5
_local = threading.local()  # each thread's scratch buffers, one per role (_scratch)


def _scratch(role: str, shape, dtype) -> np.ndarray:
    """An uninitialised array carved from this thread's buffer for role,
    grown to the largest request and kept between calls.  No role is live
    twice on one thread: a run consumes its _patch_blocks before it returns,
    conv2d_backward runs dW, then dx, and a pool thread runs one task at a time."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = getattr(_local, role, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_local, role, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def _patch_blocks(x: np.ndarray, dtype, step: int, start: int, stop: int):
    """Yield (slice, col) for blocks start..stop-1 of x (N,C,H,W), each of
    ``step`` whole images: col is the (nb*H*W, 9C) patch matrix of x[slice]
    in dtype, columns in (ki, kj, C) order.  Each block is copied into the
    interior of the zero-bordered NHWC "pad" scratch, and one copy through a
    single window view of it fills the "cols" scratch (see _scratch), so col
    is valid until the next block."""
    n, c, h, w = x.shape
    if h == 0 or w == 0:  # no patches, and no 3x3 window fits the border
        return
    buf = _scratch("pad", (step, h + 2 * PAD, w + 2 * PAD, c), dtype)
    buf[...] = 0  # the border; an earlier call may have left other values
    win = sliding_window_view(buf, (KERNEL, KERNEL), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    cols = _scratch("cols", win.shape, dtype)  # (step, H, W, ki, kj, C)
    for i in range(start * step, min(stop * step, n), step):
        blk = slice(i, min(i + step, n))
        nb = blk.stop - i
        buf[:nb, PAD:PAD + h, PAD:PAD + w] = x[blk].transpose(0, 2, 3, 1)
        cols[:nb] = win[:nb]
        yield blk, cols[:nb].reshape(nb * h * w, KERNEL * KERNEL * c)


def _block_runs(x: np.ndarray, dtype, fn) -> list:
    """[fn(blocks)] for contiguous runs of the patch blocks of x, one run per
    worker (see _workers), in block order; blocks is the run's
    _patch_blocks.  A block holds as many images as fit their patch matrix
    into BLOCK_BYTES, at least one; a zero-byte image counts as one byte."""
    n, c, h, w = x.shape
    per_image = h * w * KERNEL * KERNEL * c * np.dtype(dtype).itemsize
    step = max(1, min(n, BLOCK_BYTES // max(1, per_image)))
    return _workers.runs(-(-n // step),
                         lambda lo, hi: fn(_patch_blocks(x, dtype, step, lo, hi)))


def _weight_matrix(w: np.ndarray) -> np.ndarray:
    """(K,C,3,3) -> (K, 9C) with columns in the patch order (ki, kj, C)."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], KERNEL * KERNEL * w.shape[1])


def _conv_block(col: np.ndarray, wmat_t: np.ndarray, b: np.ndarray | None, out: np.ndarray):
    """One patch block's conv output: col @ wmat_t, plus b if given, into
    out (rows of col, K); returns out."""
    np.matmul(col, wmat_t, out=out)
    if b is not None:
        out += b
    return out


def _conv(x: np.ndarray, w: np.ndarray, dtype, b: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation of x (N,C,H,W) with w (K,C,3,3), plus b if given, as
    an (N,H,W,K) array of dtype: one GEMM per patch block, written into
    that block of the output, with the blocks split into runs across the
    workers."""
    n, _, h, wd = x.shape
    k = w.shape[0]
    wmat_t = _weight_matrix(w).T
    y = np.empty((n, h, wd, k), dtype=dtype)

    def run(blocks):
        for blk, col in blocks:
            _conv_block(col, wmat_t, b, y[blk].reshape(col.shape[0], k))

    _block_runs(x, dtype, run)
    return y


def _check_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-d input (N,C,H,W), got shape {x.shape}")
    if w.ndim != 4 or w.shape[1:] != (x.shape[1], KERNEL, KERNEL):
        raise ShapeError(
            f"conv2d weights must be (K,{x.shape[1]},{KERNEL},{KERNEL}), got {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"conv2d bias must be ({w.shape[0]},), got {b.shape}")


def _check_even(kind: str, h: int, w: int) -> None:
    if h % 2 or w % 2:
        raise ShapeError(f"{kind} needs even spatial dims, got {h}x{w}")


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Cross-correlation. x: (N,C,H,W), w: (K,C,3,3), b: (K,) -> (N,K,H,W).

    The cache is (x, w): the input itself, which must not be written before
    the backward."""
    _check_conv(x, w, b)
    y = _conv(x, w, np.result_type(x, w, b), b)
    return y.transpose(0, 3, 1, 2), (x, w)


def _chunks(kernel, src: np.ndarray, dsts) -> None:
    """Run ``kernel`` over the 1-d ``src`` in slices of CHUNK_BYTES and copy
    each slice's first ``len(dsts)`` results (g, then g') into the same
    slice of each 1-d array of ``dsts``.  With one destination it may be src
    itself: the kernel is not resumed after yielding g.  Every kernel is
    elementwise, so where the slices fall changes no result."""
    step = CHUNK_BYTES // src.itemsize
    for i in range(0, src.size, step):
        run = kernel(src[i:i + step])
        for dst in dsts:
            dst[i:i + step] = next(run)


def conv_block_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, id: ActivationId,
                       with_cache: bool = True):
    """maxpool2(activation(conv2d(x, w, b), id)) in one pass per patch block.

    Each block's conv output goes into its thread's scratch buffer, its
    activation runs over that buffer in CHUNK_BYTES slices, and the pool
    reads the activation while it is still in cache and writes the block's
    rows of y.  The cache is the three layers' caches, ((x, w), g'(z),
    (g(z), y)) with z the conv output, for conv_block_backward; g and g' are
    written straight into whole-batch NHWC arrays.  with_cache=False
    computes g in the scratch buffer, holds no whole-batch array but y, and
    gives the cache None.  Every result is bitwise the one of the three kernels.
    Non-float inputs run in float64, as the activation would run them."""
    _check_conv(x, w, b)
    n, _, h, wd = x.shape
    _check_even("conv block", h, wd)
    k = w.shape[0]
    dtype = np.result_type(x, w, b)
    if dtype.kind != "f":
        dtype = np.dtype(np.float64)
    kernel = _kernel(id)
    wmat_t = _weight_matrix(w).T
    y = np.empty((n, h // 2, wd // 2, k), dtype=dtype).transpose(0, 3, 1, 2)
    if with_cache:
        # g and g' share one allocation.  glibc raises its heap trim threshold
        # to twice the largest mmapped block freed so far, so the larger block
        # lets the heap keep more of its pages from one training step to the
        # next: a batch-64 step of the cnn-rect networks took 2100-2400 minor
        # page faults this way against 4500-5100 with two allocations (2-core
        # x86-64, glibc 2.36).
        g, grad = np.empty((2, n, h, wd, k), dtype=dtype)

    def run(blocks):
        for blk, col in blocks:
            z = _scratch("z", (col.shape[0], k), dtype)
            src = _conv_block(col, wmat_t, b, z).reshape(-1)
            if with_cache:
                act = g[blk]
                _chunks(kernel, src, (act.reshape(-1), grad[blk].reshape(-1)))
            else:
                act = src.reshape(-1, h, wd, k)
                _chunks(kernel, src, (src,))
            _maxpool2(act.transpose(0, 3, 1, 2), y[blk])

    _block_runs(x, dtype, run)
    if not with_cache:
        return y, None
    return y, ((x, w), grad.transpose(0, 3, 1, 2), (g.transpose(0, 3, 1, 2), y))


def conv_block_backward(dy: np.ndarray, cache, need_dx: bool = True):
    """(dx, dw, db) of conv_block_forward: the pool's, the activation's and
    the conv's backward in turn; dx is None when need_dx is False."""
    conv, act, pool = cache
    d = activation_backward(maxpool2_backward(dy, pool, out=pool[0]), act)
    return conv2d_backward(d, conv, need_dx)


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

    def run(blocks):
        return [dmat[blk].reshape(col.shape[0], k).T @ col for blk, col in blocks]

    for prods in _block_runs(x, dtype, run):
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


def _max4(a, b, c, d, out=None):
    """max(max(max(d, c), b), a), into out if given: folding from the last
    window position, so where np.maximum returns its second operand on a tie
    the earlier position wins it."""
    y = np.maximum(d, c, out=out)
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


def _maxpool2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The pool of an (N,C,H,W) x with even H and W, into out if given.

    np.maximum gives the right magnitude; which of two equal operands it
    returns is fixed up where it matters.  On two NaNs it keeps the later
    one, so windows whose maximum is NaN are set to their first NaN.  On
    +0.0 against -0.0 the fold keeps the earlier one where np.maximum
    returns its second operand, as probed at import by
    _fold_keeps_first_zero; elsewhere windows whose maximum is zero are set
    to their first zero."""
    q = _quadrants(x)
    y = _max4(*q, out=out)
    nan = np.isnan(y)
    if nan.any():
        y[nan] = _first_where(q, nan, np.isnan)
    if not _FOLD_KEEPS_FIRST_ZERO:
        zero = y == 0
        if zero.any():
            y[zero] = _first_where(q, zero, lambda s: s == 0)
    return y


def maxpool2_forward(x: np.ndarray, with_cache: bool = True):
    """2x2 non-overlapping max pool: y is bitwise x at each window's first
    maximal position, the position argmax over the window gives (a NaN
    counts as maximal), so a leading -0.0 keeps its sign.

    The cache is (x, y); with_cache=False gives the cache None."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2 expects a 4-d input (N,C,H,W), got shape {x.shape}")
    _check_even("maxpool2", *x.shape[2:])
    y = _maxpool2(x)
    return y, ((x, y) if with_cache else None)


def maxpool2_backward(dy: np.ndarray, cache, out: np.ndarray | None = None):
    """Route dy to each window's first maximal position, into out if given.

    The routing is recomputed from the cached (x, y), one block of whole
    images of about CHUNK_BYTES of x at a time: a position is hit when it
    equals y or is NaN, unless an earlier position of its window was hit.
    Each block of dy is first copied into y's layout, so every operand walks
    memory in the same order.  Each quadrant of dx is dy's bits ANDed with
    an all-ones or all-zeros mask, so a position that gets no gradient holds
    +0.0 whatever the sign of dy.  dx is written into out when given, an
    array of x's shape that may be x itself, in out's dtype (dy is cast to
    it); otherwise into a fresh array of dy's dtype in x's layout."""
    x, y = cache
    n = x.shape[0]
    dx = np.empty_like(x, dtype=dy.dtype) if out is None else out
    bits = np.dtype(f"i{dx.itemsize}")
    has_nan = np.isnan(y).any()
    step = max(1, CHUNK_BYTES // max(1, x[:1].nbytes))
    for i in range(0, n, step):
        blk = slice(i, i + step)
        y_blk = y[blk]
        d_blk = np.empty_like(y_blk, dtype=dx.dtype)
        d_blk[...] = dy[blk]
        d_bits = d_blk.view(bits)
        for k, (s, d) in enumerate(zip(_quadrants(x[blk]), _quadrants(dx[blk]))):
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
            np.bitwise_and(d_bits, np.subtract(0, hit, dtype=bits), out=d.view(bits))
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
