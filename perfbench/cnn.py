"""cnn-rect and cnn-osc: train, then evaluate, small CNNs on seeded synthetic images.

The inputs come from the seed alone.  Each class gets a smooth random
template; an image is its class template plus Gaussian noise, clipped to
[0, 1].  Images are written as CIFAR-10 binary records with
``cifar.encode_record`` and read back through ``decode_records`` and
``stratified_subset``, so ingestion is on the measured path.

Training runs in rounds of one batch-64 Adam step per network, through
``network.train_epoch``, until TRAIN_SHARE of the budget is used and at least
MIN_TIMED_STEPS steps per network are timed.  Evaluation then runs rounds of
one ``evaluate_top1`` pass per network over the held-out set, until the
budget is used and at least MIN_EVAL_PASSES passes are timed.  The first
round of each kind warms caches and is not timed.

Top-1 is checked on the held-out predictions of all networks together:
squ at depth 4 has exploding pre-activations and, for some seeds, stays
near chance after a few steps while the others learn.
"""

from __future__ import annotations

import math
import time
from statistics import fmean, geometric_mean, median

import numpy as np

from oscnet import cifar, network
from oscnet.activations import ActivationId
from oscnet.errors import DivergenceError

from common import Result, oscnet_modules, peak_rss_mb

NETWORKS = {
    "cnn-rect": (("relu", 2), ("relu", 4), ("squ", 2), ("squ", 4)),
    "cnn-osc": (("dsu", 2), ("ssu", 2), ("gcu", 2), ("gelu", 2)),
}
BATCH = 64
LR = 2e-4                            # twice the `bench` default, so the slowest networks
                                     # learn within the steps that fit their share
TRAIN_POOL, TRAIN_N = 6000, 5000     # desk-scale subset of a larger record stream
TEST_POOL, EVAL_N = 1000, 250        # the held-out set is one evaluate_top1 batch
SETUP_REPEATS = 7
TRAIN_SHARE = 0.6                    # of the budget; evaluation uses the rest
MIN_TIMED_STEPS = 8                  # dsu and ssu need about 9 steps to learn
MIN_EVAL_PASSES = 2                  # timed passes, after one warm-up pass
CONTRAST = 0.9                       # template amplitude around mid-grey
NOISE = 0.15                         # per-pixel noise standard deviation


def synthetic_records(rng: np.random.Generator, templates: np.ndarray, n: int) -> bytes:
    """n records, an equal number per class, in random order."""
    labels = rng.permutation(np.arange(n) % cifar.NUM_CLASSES)
    records = []
    for label in labels:
        image = templates[label] + NOISE * rng.standard_normal(cifar.IMAGE_SHAPE)
        records.append(cifar.encode_record(int(label), np.clip(image, 0.0, 1.0)))
    return b"".join(records)


def setup(train_buf: bytes, test_buf: bytes, seed: int, networks):
    """Decode, subset, build every model and its Adam state; returns (seconds, ...)."""
    t0 = time.perf_counter()
    train = cifar.stratified_subset(cifar.ImageDataset(*cifar.decode_records(train_buf)),
                                    TRAIN_N, seed)
    test = cifar.stratified_subset(cifar.ImageDataset(*cifar.decode_records(test_buf)),
                                   EVAL_N, seed)
    models = []
    for act, depth in networks:
        model = network.build_model(network.NetworkConfig(depth, ActivationId(act), seed=seed))
        models.append((model, network.adam_init(model.params)))
    return time.perf_counter() - t0, train, test, models


def train_step(model, state, x, y, rng) -> float:
    """One Adam step on one batch; the loss, or NaN when it diverged."""
    try:
        return network.train_epoch(model, x, y, state, LR, rng, batch=BATCH)
    except DivergenceError:
        return math.nan


def timed(fn, tracer=None):
    """(fn(), wall seconds); traced as one operation when a tracer is given."""
    if tracer is not None:
        tracer.begin_op()
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return out, dt


def run(workload: str, seed: int, seconds: float, tracer=None) -> Result:
    res = Result()
    networks = NETWORKS[workload]
    rng = np.random.default_rng(seed)
    templates = 0.5 + CONTRAST * (np.kron(rng.random((cifar.NUM_CLASSES, 3, 4, 4)),
                                          np.ones((8, 8))) - 0.5)
    train_buf = synthetic_records(rng, templates, TRAIN_POOL)
    test_buf = synthetic_records(rng, templates, TEST_POOL)

    if tracer is not None:
        tracer.wrap_oscnet(oscnet_modules())
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        train = test = models = None  # free the previous set-up first
        if tracer is not None:
            tracer.count("setups")
        dt, train, test, models = setup(train_buf, test_buf, seed, networks)
        setup_times.append(dt)
    if tracer is not None:
        tracer.uninstall()

    labels = [f"{act}-d{depth}" for act, depth in networks]
    rngs = [np.random.default_rng([seed, i]) for i in range(len(networks))]
    losses = [[] for _ in networks]
    plain = [[] for _ in networks]    # timed, untraced step seconds
    traced = [[] for _ in networks]
    batches = TRAIN_N // BATCH
    run_start = time.perf_counter()
    step = 0
    # Rounds take one step of every network in turn, so each network samples
    # the whole window and a slow spell of the machine hits all of them.
    while (step <= MIN_TIMED_STEPS
           or time.perf_counter() - run_start < TRAIN_SHARE * seconds):
        lo = (step % batches) * BATCH
        x, y = train.images[lo:lo + BATCH], train.labels[lo:lo + BATCH]
        # a traced run alternates traced and plain rounds, so the two medians
        # give the tracing overhead under the same conditions
        trace_step = tracer is not None and step % 2 == 1
        for i, (model, state) in enumerate(models):
            loss, dt = timed(lambda: train_step(model, state, x, y, rngs[i]),
                             tracer if trace_step else None)
            res.op(math.isfinite(loss))
            losses[i].append(loss)
            if step > 0:  # the first step warms caches and the BLAS threads
                (traced[i] if trace_step else plain[i]).append(dt)
        step += 1

    accs = [[] for _ in networks]
    evals = [[] for _ in networks]
    passes = 0
    while passes <= MIN_EVAL_PASSES or time.perf_counter() - run_start < seconds:
        trace_pass = tracer is not None and passes % 2 == 1
        for i, (model, _state) in enumerate(models):
            acc, dt = timed(lambda: network.evaluate_top1(model, test.images, test.labels),
                            tracer if trace_pass else None)
            accs[i].append(acc)
            if passes > 0 and not trace_pass:
                evals[i].append(dt)
        passes += 1

    for i, label in enumerate(labels):
        ls = losses[i]
        k = max(1, len(ls) // 3)
        early, late = fmean(ls[:k]), fmean(ls[-k:])
        res.check(f"{label}: every step loss finite", all(map(math.isfinite, ls)),
                  f"{sum(not math.isfinite(v) for v in ls)} of {len(ls)} non-finite")
        res.op(res.check(f"{label}: loss falls", late < early,
                         f"mean of first {k} steps {early:.4g}, of last {k} {late:.4g}"))
        res.op(res.check(f"{label}: evaluation repeats exactly", len(set(accs[i])) == 1,
                         f"top-1 over {passes} passes: {sorted(set(accs[i]))}"))
        res.detail[label] = {
            "steps": len(ls), "timed_steps": len(plain[i]),
            "step_ms_p50": 1e3 * median(plain[i]),
            "step_ms_p90": 1e3 * np.percentile(plain[i], 90),
            "eval_ms_p50": 1e3 * median(evals[i]), "top1": accs[i][-1],
            "loss_first": ls[0], "loss_last": ls[-1],
        }

    # above chance by three binomial standard deviations of all predictions
    chance, n_eval = 1.0 / cifar.NUM_CLASSES, EVAL_N * len(networks)
    floor = chance + 3.0 * math.sqrt(chance * (1.0 - chance) / n_eval)
    top1 = fmean(a[-1] for a in accs)
    res.op(res.check("held-out top-1 above chance", top1 > floor,
                     f"top-1 {top1:.3f} over {n_eval} images, floor {floor:.3f}"))

    n_steps = sum(map(len, plain))
    # a round of one median-speed step per network, so a stray slow step
    # does not move it
    train_rate = BATCH * len(networks) / sum(median(t) for t in plain)
    p50 = geometric_mean([1e3 * median(t) for t in plain])
    p90 = geometric_mean([1e3 * np.percentile(t, 90) for t in plain])
    eval_rate = n_eval / sum(median(t) for t in evals)
    res.metrics = {
        "train_items_per_s": (train_rate, "1/s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p90": (p90, "ms"),
        "eval_items_per_s": (eval_rate, "1/s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    res.put("train_images_per_s", train_rate, "1/s", n_steps)
    res.put("train_step_ms_p50", p50, "ms", n_steps)
    res.put("train_step_ms_p90", p90, "ms", n_steps)
    res.put("eval_images_per_s", eval_rate, "1/s", sum(map(len, evals)))
    res.put("setup_s", median(setup_times), "s", SETUP_REPEATS)
    res.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    res.put("failed_frac", res.failed / res.attempted, "ratio", res.attempted)
    if tracer is not None:
        res.overhead_pct = 100.0 * (geometric_mean([median(t) / median(p)
                                             for t, p in zip(traced, plain)]) - 1.0)
    return res


def sanity(workload: str, shares: dict, metrics: dict) -> list:
    """Seed-state claims about which layer each workload stresses.

    These describe the code the benchmark was written against; a later
    change may rightly turn one false (fixing the float64 leak zeroes
    dtype_leaks), so they are reported and never fail the run.
    """
    def share(*names):
        return sum(shares.get(n, 0.0) for n in names)

    others = [k for k in shares if k not in ("conv", "pool")]
    rows = [{"claim": "layer shares of a traced training step",
             "holds": None, "value": shares}]
    if workload == "cnn-osc":
        top = max(shares, key=shares.get)
        rows.append({"claim": "activations are the largest layer share",
                     "holds": top == "activations", "value": share("activations")})
    if workload == "cnn-rect":
        rows.append({"claim": "conv + pool are the largest layer share",
                     "holds": all(share("conv", "pool") > share(k) for k in others),
                     "value": share("conv", "pool")})
        leaks = metrics["activations.dtype_leaks"][0]
        rows.append({"claim": "activations.dtype_leaks > 0 (float64 derivative of relu)",
                     "holds": leaks > 0, "value": leaks})
    return rows
