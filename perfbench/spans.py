"""In-memory span tracer that measures oscnet's layers from outside the package.

`Tracer.install` swaps module attributes (``layers.conv2d_forward``,
``network.adam_step``, ``xorlab.apply``, ...) for recording wrappers and
`Tracer.uninstall` puts the originals back; oscnet itself is never edited.
Each wrapped call becomes a span: name, start, end, parent span, whether it
raised, and the id of the benchmark operation (training step, evaluation pass,
CLI call) it belongs to.

Activation-kernel calls are folded instead of stored one by one: the
single-neuron XOR trainer makes about 80k of them per activation id.  All
calls from one call site under one parent span share an aggregate record with
their count, busy seconds, elements and dtype leaks.  Kernel calls made while
another kernel call is running (``derivative`` calling ``apply_grad``) are
part of the outer call and are not recorded again.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

# span name -> layer bucket, for the layer shares of a training step
BUCKETS = {
    "layers.conv2d_forward": "conv",
    "layers.conv2d_backward": "conv",
    "layers.maxpool2_forward": "pool",
    "layers.maxpool2_backward": "pool",
    "layers.activation_forward": "activations",
    "layers.activation_backward": "activations",
    "layers.dense_forward": "dense",
    "layers.dense_backward": "dense",
    "layers.dropout_forward": "dropout",
    "layers.dropout_backward": "dropout",
    "layers.softmax_cross_entropy": "loss",
    "network.adam_step": "adam",
    "network.Model.loss_and_grads": "dispatch",
    "network.train_epoch": "loop",
}

PROPERTY_SCANS = {
    "continuity": "continuity_scan",
    "monotonicity": "monotonicity_scan",
    "range": "range_scan",
    "sign_equivalence": "sign_equivalence_scan",
    "zero_crossings": "zero_crossings",
    "gradient_check": "gradient_check",
    "small_value": "small_value_check",
}

TRAIN_STEP = "network.train_epoch"
XOR_TRAIN = "xorlab.train_single_neuron"
XOR_GRID = "xorlab.grid_search_certificate"

# span record fields
NAME, START, END, PARENT, OP, RAISED = range(6)
# kernel aggregate fields
COUNT, BUSY, ELEMENTS, LEAKS, FIRST, LAST = range(6)


class Tracer:
    """Records spans while installed; `summary` turns them into layer metrics."""

    def __init__(self):
        self.spans: list = []    # [name, start, end, parent, op, raised]
        self.kernels: dict = {}  # (parent, site, kind) -> [count, busy, elements, leaks, first, last]
        self.counters: dict = {}
        self.op = 0
        self._stack: list = []
        self._in_kernel = False
        self._patches: list = []   # (owner, attr, original, wrapper)
        self._conv_flops: list = []  # forward GEMM flops awaiting their backward

    # -- recording -----------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new benchmark operation; later spans carry its id."""
        self.op += 1

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[RAISED] = raised
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(idx, raised)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self._stack)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_call(args, result)`` runs after a call that returned normally.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            raised = True
            try:
                result = original(*args, **kwargs)
                raised = False
            finally:
                self._close(idx, raised)
            if on_call is not None:
                on_call(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_kernel(self, owner, attr: str, site: str, kind: str) -> None:
        """Fold calls of an activation entry point into per-parent aggregates.

        ``kind`` is "fwd" (g), "bwd" (g') or "scalar" (``evaluate`` and
        ``derivative``).  Array calls with a 0-d input count as scalar.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(id, z, *args, **kwargs):
            if self._in_kernel:
                return original(id, z, *args, **kwargs)
            self._in_kernel = True
            t0 = time.perf_counter()
            try:
                out = original(id, z, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._in_kernel = False
            self._record_kernel(site, kind, z, out, t0, t1)
            return out

        self._patch(owner, attr, wrapper)

    def _record_kernel(self, site, kind, z, out, t0, t1) -> None:
        elements, leak = 1, 0
        if kind != "scalar":
            zin = np.asarray(z)
            if zin.ndim == 0:
                kind = "scalar"
            else:
                elements = zin.size
                leak = int(np.asarray(out).dtype != zin.dtype)
        parent = self._stack[-1] if self._stack else -1
        key = (parent, site, kind)
        agg = self.kernels.get(key)
        if agg is None:
            self.kernels[key] = [1, t1 - t0, elements, leak, t0, t1]
        else:
            agg[COUNT] += 1
            agg[BUSY] += t1 - t0
            agg[ELEMENTS] += elements
            agg[LEAKS] += leak
            agg[LAST] = t1

    def wrap_oscnet(self, modules: dict) -> None:
        """Declare every boundary the benchmark measures.

        ``modules`` maps "activations", "layers", "network", "properties",
        "xorlab", "cifar" and "numpy_random" to the loaded module objects.
        """
        act, lay, net = modules["activations"], modules["layers"], modules["network"]
        props, xor, cif = modules["properties"], modules["xorlab"], modules["cifar"]

        def conv_forward_flops(args, result):
            x, w = args[0], args[1]
            n, c, h, wd = x.shape
            flops = 2.0 * n * h * wd * w.shape[0] * c * w.shape[2] * w.shape[3]
            self.count("conv.flop", flops)
            if self._inside("network.Model.loss_and_grads"):
                self._conv_flops.append(flops)

        def conv_backward_flops(args, result):
            if self._conv_flops:  # the dW and dX GEMMs each cost one forward GEMM
                self.count("conv.flop", 2.0 * self._conv_flops.pop())

        for name in ("conv2d_forward", "conv2d_backward", "maxpool2_forward",
                     "maxpool2_backward", "activation_forward", "activation_backward",
                     "dense_forward", "dense_backward", "dropout_forward",
                     "dropout_backward", "softmax_cross_entropy"):
            hook = {"conv2d_forward": conv_forward_flops,
                    "conv2d_backward": conv_backward_flops}.get(name)
            self.wrap(lay, name, f"layers.{name}", hook)
        self.wrap_kernel(lay, "apply", "layers.apply", "fwd")
        self.wrap_kernel(lay, "apply_grad", "layers.apply_grad", "bwd")

        self.wrap(net, "train_epoch", TRAIN_STEP)
        self.wrap(net, "evaluate_top1", "network.evaluate_top1")
        self.wrap(net, "adam_step", "network.adam_step")
        self.wrap(net.Model, "loss_and_grads", "network.Model.loss_and_grads")

        self.wrap(cif, "decode_records", "cifar.decode_records",
                  lambda args, result: self.count("cifar.decode_bytes", len(args[0])))
        self.wrap(cif, "stratified_subset", "cifar.stratified_subset")

        self.wrap(props, "verify_catalog", "properties.verify_catalog")
        for func in PROPERTY_SCANS.values():
            self.wrap(props, func, f"properties.{func}")
        self.wrap_kernel(props, "apply", "properties.apply", "fwd")
        self.wrap_kernel(props, "derivative", "properties.derivative", "scalar")

        self.wrap(xor, "train_single_neuron", XOR_TRAIN,
                  lambda args, result: self.count("xorlab.trained_valid", int(result[0].valid)))
        self.wrap(xor, "grid_search_certificate", XOR_GRID)
        self.wrap_kernel(xor, "apply", "xorlab.apply", "fwd")
        self.wrap_kernel(xor, "evaluate", "xorlab.evaluate", "scalar")
        # train_single_neuron imports apply_grad from activations at call time
        self.wrap_kernel(act, "apply_grad", "activations.apply_grad", "bwd")

        # the trainer seeds one Generator per restart it tries
        rnd = modules["numpy_random"]
        default_rng = rnd.default_rng

        @functools.wraps(default_rng)
        def counting_default_rng(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][NAME] == XOR_TRAIN:
                self.count("xorlab.restarts")
            return default_rng(*args, **kwargs)

        self._patch(rnd, "default_rng", counting_default_rng)

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        for (parent, _site, _kind), agg in self.kernels.items():
            if parent >= 0:
                child[parent] += agg[BUSY]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per-layer metrics, layer shares of the traced training steps, and
        self seconds per span name."""
        self_t = self.self_times()
        total, own = {}, {}
        in_step = []  # span lies inside a training step
        for i, span in enumerate(self.spans):
            name = span[NAME]
            total[name] = total.get(name, 0.0) + span[END] - span[START]
            own[name] = own.get(name, 0.0) + self_t[i]
            parent = span[PARENT]
            in_step.append(name == TRAIN_STEP or (parent >= 0 and in_step[parent]))

        def tot(name):
            return total.get(name, 0.0)

        kern = {"fwd": [0, 0.0, 0, 0], "bwd": [0, 0.0, 0, 0], "scalar": [0, 0.0, 0, 0]}
        shares = {}
        grid_elements = train_epochs = 0
        for (parent, site, kind), agg in self.kernels.items():
            k = kern[kind]
            k[0] += agg[COUNT]
            k[1] += agg[BUSY]
            k[2] += agg[ELEMENTS]
            k[3] += agg[LEAKS]
            if parent >= 0 and in_step[parent]:
                shares["activations"] = shares.get("activations", 0.0) + agg[BUSY]
            pname = self.spans[parent][NAME] if parent >= 0 else ""
            if site == "xorlab.apply" and pname == XOR_GRID:
                grid_elements += agg[ELEMENTS]
            if site == "xorlab.apply" and pname == XOR_TRAIN:
                train_epochs += agg[COUNT]
        for i, span in enumerate(self.spans):
            if in_step[i]:
                key = BUCKETS.get(span[NAME], "other")
                shares[key] = shares.get(key, 0.0) + self_t[i]
        step_time = sum(shares.values())
        if step_time > 0:
            shares = {k: v / step_time for k, v in shares.items()}

        conv_s = tot("layers.conv2d_forward") + tot("layers.conv2d_backward")
        gflop = self.counters.get("conv.flop", 0.0) / 1e9
        decode_s = tot("cifar.decode_records")
        setups = max(1, self.counters.get("setups", 0))
        restarts = self.counters.get("xorlab.restarts", 0)
        steps = [s for s in self.spans if s[NAME] == TRAIN_STEP]

        m = {
            "activations.fwd_s": (kern["fwd"][1] + own.get("layers.activation_forward", 0.0), "s"),
            "activations.bwd_s": (kern["bwd"][1] + own.get("layers.activation_backward", 0.0), "s"),
            "activations.elements": (kern["fwd"][2] + kern["bwd"][2], "count"),
            "activations.dtype_leaks": (kern["fwd"][3] + kern["bwd"][3], "count"),
            "activations.scalar_calls": (kern["scalar"][0], "count"),
            "activations.scalar_s": (kern["scalar"][1], "s"),
            "layers.conv.fwd_s": (tot("layers.conv2d_forward"), "s"),
            "layers.conv.bwd_s": (tot("layers.conv2d_backward"), "s"),
            "layers.conv.gflop": (gflop, "GFLOP"),
            "layers.conv.gflops_per_s": (gflop / conv_s if conv_s > 0 else 0.0, "GFLOP/s"),
            "layers.pool.fwd_s": (tot("layers.maxpool2_forward"), "s"),
            "layers.pool.bwd_s": (tot("layers.maxpool2_backward"), "s"),
            "layers.dense_s": (tot("layers.dense_forward") + tot("layers.dense_backward"), "s"),
            "layers.dropout_s": (tot("layers.dropout_forward") + tot("layers.dropout_backward"), "s"),
            "layers.loss_s": (tot("layers.softmax_cross_entropy"), "s"),
            "network.adam_s": (tot("network.adam_step"), "s"),
            "network.dispatch_self_s": (own.get("network.Model.loss_and_grads", 0.0), "s"),
            "network.steps": (len(steps), "count"),
            "network.nonfinite_steps": (sum(1 for s in steps if s[RAISED]), "count"),
        }
        for scan, func in PROPERTY_SCANS.items():
            m[f"properties.{scan}_s"] = (tot(f"properties.{func}"), "s")
        m["properties.contradictions"] = (self.counters.get("properties.contradictions", 0), "count")
        m.update({
            "xorlab.grid_s": (tot(XOR_GRID), "s"),
            "xorlab.grid_points": (grid_elements // 4, "count"),  # four XOR points per grid triple
            "xorlab.train_s": (tot(XOR_TRAIN), "s"),
            "xorlab.train_epochs": (train_epochs, "count"),
            "xorlab.restarts": (restarts, "count"),
            "xorlab.restart_yield": (self.counters.get("xorlab.trained_valid", 0) / restarts
                                     if restarts else 0.0, "ratio"),
            "cifar.decode_s": (decode_s / setups, "s"),
            "cifar.decode_mb_per_s": (self.counters.get("cifar.decode_bytes", 0) / 1e6 / decode_s
                                      if decode_s > 0 else 0.0, "MB/s"),
            "cifar.subset_s": (tot("cifar.stratified_subset") / setups, "s"),
        })
        return {"metrics": m, "shares": shares, "self_s": own}

    def dump(self, path) -> None:
        """Write every span and kernel aggregate as JSON."""
        payload = {
            "span_fields": ["name", "start", "end", "parent", "op", "raised"],
            "spans": self.spans,
            "kernel_fields": ["parent", "site", "kind", "count", "busy_s",
                              "elements", "dtype_leaks", "first_start", "last_end"],
            "kernels": [[p, site, kind, *agg] for (p, site, kind), agg in self.kernels.items()],
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
