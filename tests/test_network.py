"""Model assembly, layer kernel calls, Adam, training loop, determinism, evaluation."""

import contextlib
import hashlib
import math

import numpy as np
import pytest

from oscnet import _workers, activations, layers
from oscnet.activations import ActivationId
from oscnet.errors import ConfigError, DivergenceError, ShapeError
from oscnet.network import (
    Activation,
    ConvBlock,
    Dense,
    Flatten,
    Model,
    NetworkConfig,
    adam_init,
    adam_step,
    build_model,
    evaluate_top1,
    train_epoch,
)
from test_layers import (
    assert_bitwise,
    other_zero_tie_rule,
    reference_conv2d_backward,
    reference_conv2d_forward,
)

A = ActivationId


def tiny_dense_model(activation=A.RELU, in_shape=(3, 8, 8), units=16, classes=10,
                     seed=0, dtype=np.float64):
    """Small dropout-free stack for fast, noise-free training oracles."""
    stack = [Flatten(), Dense("layer1"), Activation(activation), Dense("layer2")]
    rng = np.random.default_rng(seed)
    flat = int(np.prod(in_shape))
    params = {
        "layer1_w": rng.uniform(-1, 1, (flat, units)).astype(dtype) * np.sqrt(6.0 / flat),
        "layer1_b": np.zeros(units, dtype=dtype),
        "layer2_w": rng.uniform(-1, 1, (units, classes)).astype(dtype) * np.sqrt(6.0 / units),
        "layer2_b": np.zeros(classes, dtype=dtype),
    }
    return Model(stack, params)


class TestBuildModel:
    def test_single_block_flatten_dim(self):
        m = build_model(NetworkConfig(1, A.RELU, seed=0))
        dense = next(s for s in m.layers if isinstance(s, Dense))
        assert m.params[dense.w].shape == (32 * 16 * 16, 64)

    def test_four_blocks_reach_2x2(self):
        m = build_model(NetworkConfig(4, A.SQU, seed=0))
        dense = next(s for s in m.layers if isinstance(s, Dense))
        assert m.params[dense.w].shape == (128 * 2 * 2, 64)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_penultimate_always_64_units(self, depth):
        m = build_model(NetworkConfig(depth, A.GCU, seed=0))
        dense = [s for s in m.layers if isinstance(s, Dense)]
        assert [m.params[s.b].shape for s in dense] == [(64,), (10,)]
        assert isinstance(m.layers[m.layers.index(dense[0]) + 1], Activation)

    def test_parameter_names_shapes_and_dtypes_keep_the_checkpoint_layout(self):
        m = build_model(NetworkConfig(2, A.RELU, seed=0))
        assert {k: v.shape for k, v in m.params.items()} == {
            "layer0_w": (32, 3, 3, 3), "layer0_b": (32,),
            "layer2_w": (64, 32, 3, 3), "layer2_b": (64,),
            "layer5_w": (64 * 8 * 8, 64), "layer5_b": (64,),
            "layer7_w": (64, 10), "layer7_b": (10,),
        }
        assert list(m.params) == ["layer0_w", "layer0_b", "layer2_w", "layer2_b",
                                  "layer5_w", "layer5_b", "layer7_w", "layer7_b"]
        assert {v.dtype for v in m.params.values()} == {np.dtype(np.float32)}

    def test_only_the_input_conv_skips_its_input_gradient(self):
        m = build_model(NetworkConfig(3, A.RELU, seed=0))
        assert [s.need_dx for s in m.layers if isinstance(s, ConvBlock)] == [False, True, True]

    def test_channel_progression(self):
        m = build_model(NetworkConfig(3, A.TANH, seed=0))
        convs = [m.params[s.w].shape[0] for s in m.layers if isinstance(s, ConvBlock)]
        assert convs == [32, 64, 128]

    @pytest.mark.parametrize("depth", [0, 5])
    def test_depth_out_of_range(self, depth):
        with pytest.raises(ConfigError):
            NetworkConfig(depth, A.RELU)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            NetworkConfig(1, A.RELU, seed=-1)

    def test_same_seed_same_init(self):
        a = build_model(NetworkConfig(2, A.RELU, seed=11))
        b = build_model(NetworkConfig(2, A.RELU, seed=11))
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_forward_is_pure_in_eval_mode(self):
        m = build_model(NetworkConfig(1, A.MISH, seed=2))
        x = np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32)
        np.testing.assert_array_equal(m.forward(x), m.forward(x))

    def test_eval_forward_never_computes_the_derivative(self, monkeypatch):
        m = build_model(NetworkConfig(2, A.DSU, seed=2))
        x = np.random.default_rng(0).random((2, 3, 32, 32), dtype=np.float32)
        want = m.forward(x)

        def forbidden(*args, **kwargs):
            raise AssertionError("eval forward computed g'")
        for name in ("apply_with_grad", "apply_grad"):
            monkeypatch.setattr(layers, name, forbidden)
            monkeypatch.setattr(activations, name, forbidden)
        np.testing.assert_array_equal(m.forward(x), want)

    @pytest.mark.parametrize("act", [A.RELU, A.LEAKY_RELU, A.HARD_TANH, A.DSU])
    def test_float32_model_trains_in_float32(self, act):
        m = build_model(NetworkConfig(1, act, seed=3))
        rng = np.random.default_rng(0)
        x = rng.random((4, 3, 32, 32), dtype=np.float32)
        _, grads = m.loss_and_grads(x, rng.integers(0, 10, 4), rng=rng)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


KERNELS = ("conv_block_forward", "conv_block_backward", "conv2d_forward", "conv2d_backward",
           "maxpool2_forward", "maxpool2_backward", "activation_forward", "activation_backward",
           "dense_forward", "dense_backward", "dropout_forward", "dropout_backward",
           "softmax_cross_entropy")


class TestKernelCalls:
    """Every kernel is looked up on `layers` at call time, so replacing a
    module attribute (as a tracer does) sees every call."""

    def _count(self, monkeypatch):
        calls = dict.fromkeys(KERNELS, 0)
        for name in KERNELS:
            def counting(*args, _name=name, _real=getattr(layers, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(layers, name, counting)
        return calls

    def test_one_training_step_calls_each_kernel_once_per_layer(self, monkeypatch):
        """A conv block's forward is one kernel; its backward is one kernel
        that calls the backwards of its conv, activation and pool."""
        m = build_model(NetworkConfig(2, A.GCU, seed=0))
        rng = np.random.default_rng(0)
        x = rng.random((3, 3, 32, 32), dtype=np.float32)
        calls = self._count(monkeypatch)
        m.loss_and_grads(x, rng.integers(0, 10, 3), rng=rng)
        assert calls == {
            "conv_block_forward": 2, "conv_block_backward": 2,
            "conv2d_forward": 0, "conv2d_backward": 2,
            "maxpool2_forward": 0, "maxpool2_backward": 2,
            "activation_forward": 1, "activation_backward": 3,
            "dense_forward": 2, "dense_backward": 2,
            "dropout_forward": 1, "dropout_backward": 1,
            "softmax_cross_entropy": 1,
        }

    def test_eval_forward_calls_no_backward(self, monkeypatch):
        m = build_model(NetworkConfig(2, A.GCU, seed=0))
        x = np.random.default_rng(0).random((3, 3, 32, 32), dtype=np.float32)
        calls = self._count(monkeypatch)
        block_with_cache = []

        def block_spy(x, w, b, id, with_cache=True, _counting=layers.conv_block_forward):
            block_with_cache.append(with_cache)
            return _counting(x, w, b, id, with_cache)
        monkeypatch.setattr(layers, "conv_block_forward", block_spy)
        m.forward(x)
        assert {k: v for k, v in calls.items() if v} == {
            "conv_block_forward": 2, "activation_forward": 1,
            "dense_forward": 2, "dropout_forward": 1}
        assert block_with_cache == [False, False]


def training_digest(act: ActivationId, depth: int) -> str:
    """SHA-256 over two seeded Adam steps on 64 synthetic images: both step
    losses, the final params, one `loss_and_grads` (loss and every gradient)
    and the eval logits, all as raw bytes."""
    rng = np.random.default_rng(8)
    imgs = rng.random((64, 3, 32, 32), dtype=np.float32)
    labs = rng.integers(0, 10, 64)
    m = build_model(NetworkConfig(depth, act, seed=8))
    state = adam_init(m.params)
    tr = np.random.default_rng(9)
    h = hashlib.sha256()
    for _ in range(2):
        h.update(np.float64(train_epoch(m, imgs, labs, state, 2e-4, tr, batch=64)).tobytes())
    for name, p in m.params.items():
        h.update(name.encode())
        h.update(p.tobytes())
    loss, grads = m.loss_and_grads(imgs, labs, rng=tr)
    h.update(np.float64(loss).tobytes())
    for name in sorted(grads):
        h.update(name.encode())
        h.update(grads[name].tobytes())
    h.update(m.forward(imgs).tobytes())
    return h.hexdigest()


def reference_conv_block_forward(x, w, b, id, with_cache=True):
    """The conv, activation and pool forwards that `layers.conv_block_forward`
    fuses, each looked up on `layers` at call time, with the cache
    `ConvBlock.backward` takes."""
    z, conv = layers.conv2d_forward(x, w, b)
    g, act = layers.activation_forward(z, id, with_cache)
    y, pool = layers.maxpool2_forward(g, with_cache)
    return y, ((conv, act, pool) if with_cache else None)


def reference_conv_block_backward(dy, cache, need_dx=True):
    """The pool, activation and conv backwards of that cache, each looked up
    on `layers` at call time; the pool's dx is a fresh array."""
    conv, act, pool = cache
    d = layers.activation_backward(layers.maxpool2_backward(dy, pool), act)
    return layers.conv2d_backward(d, conv, need_dx)


class UnfusedBlock(ConvBlock):
    """A ConvBlock run as its three kernel pairs, one after another."""

    def forward(self, x, params, train, rng, with_cache):
        return reference_conv_block_forward(x, params[self.w], params[self.b], self.id, with_cache)

    def backward(self, dy, cache, grads):
        dx, grads[self.w], grads[self.b] = reference_conv_block_backward(dy, cache, self.need_dx)
        return dx


class TestBlockedConvOracle:
    @pytest.mark.parametrize("act", [A.RELU, A.GCU])
    def test_two_adam_steps_match_the_single_gemm_reference(self, act, monkeypatch):
        """float64 training with the blocked conv agrees with the whole-batch
        (C, ki, kj) GEMM it replaced: the arithmetic differs only in summation
        order, so losses and parameters agree far below float32 resolution.
        The reference runs each conv block as its three unfused forwards."""
        def two_steps():
            rng = np.random.default_rng(8)
            imgs = rng.random((16, 3, 32, 32))
            labs = rng.integers(0, 10, 16)
            m = build_model(NetworkConfig(2, act, seed=8), dtype=np.float64)
            state = adam_init(m.params)
            tr = np.random.default_rng(9)
            losses = [train_epoch(m, imgs, labs, state, 2e-4, tr, batch=16) for _ in range(2)]
            return losses, m.params

        got_losses, got = two_steps()
        monkeypatch.setattr(layers, "conv_block_forward", reference_conv_block_forward)
        monkeypatch.setattr(layers, "conv2d_forward", reference_conv2d_forward)
        monkeypatch.setattr(layers, "conv2d_backward", reference_conv2d_backward)
        want_losses, want = two_steps()
        np.testing.assert_allclose(got_losses, want_losses, rtol=1e-10, atol=0)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10,
                                       atol=1e-10 * np.abs(want[name]).max(), err_msg=name)
        assert any(not np.array_equal(got[name], want[name]) for name in want)


class TestBlockOutputsSurviveTheBackward:
    def test_loss_and_grads_leaves_the_images_and_every_block_output_alone(self, monkeypatch):
        """Each block's y is the next block's cached input and its own pool's
        cached output; only the block's own g takes the pool's dx."""
        m = build_model(NetworkConfig(2, A.GCU, seed=5))
        rng = np.random.default_rng(5)
        x = rng.random((4, 3, 32, 32), dtype=np.float32)
        x[0, :, :4, :4] = 0.0  # tied windows
        before = x.copy()
        outputs, pool_dx = [], []

        def block_spy(*args, _real=layers.conv_block_forward, **kwargs):
            y, cache = _real(*args, **kwargs)
            outputs.append((y, y.copy(order="K")))
            return y, cache

        def pool_spy(dy, cache, out=None, _real=layers.maxpool2_backward):
            dx = _real(dy, cache, out=out)
            pool_dx.append(dx is out is cache[0])
            return dx
        monkeypatch.setattr(layers, "conv_block_forward", block_spy)
        monkeypatch.setattr(layers, "maxpool2_backward", pool_spy)
        m.loss_and_grads(x, rng.integers(0, 10, 4), rng=rng)
        assert_bitwise(x, before)
        assert len(outputs) == 2
        for y, want in outputs:
            assert_bitwise(y, want)
        assert pool_dx == [True, True]


def assert_same(got, want):
    """Bitwise equal arrays of the same dtype, shape and memory layout, or
    tuples of them, or None."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif want is None:
        assert got is None
    else:
        assert_bitwise(got, want)
        assert got.strides == want.strides


def conv_block_case(dtype, n=45):
    """(x, params) for a ConvBlock "layer0" of 8 filters and a Dense
    "layer5" to 10 logits over (n, 8, 16, 16) images: 45 images make 4
    patch blocks in float32 and 7 in float64, the last one partial.  Image
    0 has NaN pixels of both signs, so some conv output windows hold NaNs of
    both signs; image 2 has huge pixels of both signs, so dsu's conv output
    windows hold +0.0 and -0.0 and relu's are all zero."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((n, 8, 16, 16)).astype(dtype)
    if n > 2:
        x[0, :, 2:6, 2:6] = np.where(rng.random((8, 4, 4)) < 0.5, np.nan, -np.nan)
        big = 1e30 if dtype == np.float32 else 1e300
        x[2, :, 4:10, 4:10] = big * rng.choice([-1.0, 1.0], size=(8, 6, 6))
    params = {
        "layer0_w": (rng.standard_normal((8, 8, 3, 3)) / 6).astype(dtype),
        "layer0_b": rng.standard_normal(8).astype(dtype),
        "layer5_w": (rng.standard_normal((8 * 8 * 8, 10)) / 20).astype(dtype),
        "layer5_b": np.zeros(10, dtype=dtype),
    }
    per_image = 16 * 16 * 9 * 8 * np.dtype(dtype).itemsize
    assert layers.BLOCK_BYTES // per_image == (14 if dtype == np.float32 else 7)
    return x, params


def run_block(block, x, params, with_cache):
    """The block's output and cache; the input is read-only, so a block that
    wrote into it would raise."""
    x = x.view()
    x.flags.writeable = False
    return block.forward(x, params, with_cache, None, with_cache)


def copied(a):
    """A copy of an array, keeping its memory layout, or of a tuple of them."""
    return tuple(map(copied, a)) if isinstance(a, tuple) else a.copy(order="K")


def train_block(block, x, params, dy):
    """Copies of the block's training output and cache, then dx and the
    parameter gradients of its backward from dy."""
    y, cache = run_block(block, x, params, True)
    grads = {"forward": copied((y, cache))}
    grads["dx"] = block.backward(dy, cache, grads)
    return grads


class TestConvBlock:
    """ConvBlock is bitwise the conv, activation and pool kernel pairs it
    fuses (UnfusedBlock): output, cache, input and parameter gradients,
    loss."""

    # A chunk of 40 bytes is 10 float32 or 5 float64 elements, which divide
    # no patch block's conv output, so slice edges fall mid-block.
    @pytest.mark.parametrize("workers, chunk_bytes", [
        (1, None), (2, None), (3, None), (1, 40), (2, 40),
    ], ids=["1", "2", "3", "1-chunk40", "2-chunk40"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", [A.RELU, A.SQU, A.GCU, A.DSU])
    def test_matches_the_unfused_stack(self, monkeypatch, act, dtype, workers, chunk_bytes):
        monkeypatch.setattr(_workers, "WORKERS", workers)
        if chunk_bytes is not None:
            monkeypatch.setattr(layers, "CHUNK_BYTES", chunk_bytes)
        x, params = conv_block_case(dtype)
        rng = np.random.default_rng(22)
        dy = rng.standard_normal((x.shape[0], 8, 8, 8)).astype(dtype)
        for tie_rule in ("probed", "other"):
            with np.errstate(all="ignore"), (other_zero_tie_rule() if tie_rule == "other"
                                             else contextlib.nullcontext()):
                (y, cache), (want_y, _) = (run_block(block, x, params, False) for block in
                                           (ConvBlock("layer0", act), UnfusedBlock("layer0", act)))
                assert cache is None
                assert_same(y, want_y)
                got, want = (train_block(block, x, params, dy) for block in
                             (ConvBlock("layer0", act), UnfusedBlock("layer0", act)))
                assert got.keys() == want.keys()
                for name in want:
                    assert_same(got[name], want[name])
        windows = want["forward"][1][2][0].reshape(x.shape[0], 8, 8, 2, 8, 2)  # the pool's input
        neg = np.signbit(windows)

        def both_signs(hit):
            return ((hit & neg).any(axis=(3, 5)) & (hit & ~neg).any(axis=(3, 5))).any()
        assert both_signs(np.isnan(windows))
        assert both_signs(windows == 0) == (act == A.DSU)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", [A.RELU, A.SQU, A.GCU, A.DSU])
    def test_loss_and_every_gradient_match_the_unfused_model(self, monkeypatch, act, dtype):
        monkeypatch.setattr(_workers, "WORKERS", 2)
        x, params = conv_block_case(dtype)
        x = x[3:]  # finite images, so the loss and gradients are too
        labels = np.random.default_rng(23).integers(0, 10, x.shape[0])
        tail = [Flatten(), Dense("layer5")]
        loss, grads = Model([ConvBlock("layer0", act), *tail], params).loss_and_grads(x, labels)
        unfused = Model([UnfusedBlock("layer0", act), *tail], params)
        want_loss, want = unfused.loss_and_grads(x, labels)
        assert np.isfinite(loss) and loss == want_loss
        assert grads.keys() == want.keys()
        for name in want:
            assert_same(grads[name], want[name])
            assert np.isfinite(want[name]).all() and np.abs(want[name]).max() > 0, name

    @pytest.mark.parametrize("shape", [(2, 8, 7, 8), (2, 8, 8, 5)])
    def test_odd_spatial_dims_raise_before_any_work(self, monkeypatch, shape):
        def forbidden(*args):
            raise AssertionError("a patch block ran")
        monkeypatch.setattr(layers, "_block_runs", forbidden)
        _, params = conv_block_case(np.float32, n=1)
        x = np.zeros(shape, dtype=np.float32)
        with pytest.raises(ShapeError, match="even"):
            layers.conv_block_forward(x, params["layer0_w"], params["layer0_b"], A.RELU)

    def test_an_empty_batch(self):
        _, params = conv_block_case(np.float32, n=1)
        x = np.zeros((0, 8, 16, 16), dtype=np.float32)
        y, _ = run_block(ConvBlock("layer0", A.GCU), x, params, False)
        assert_same(y, run_block(UnfusedBlock("layer0", A.GCU), x, params, False)[0])
        dy = np.zeros((0, 8, 8, 8), dtype=np.float32)
        got, want = (train_block(block, x, params, dy) for block in
                     (ConvBlock("layer0", A.GCU), UnfusedBlock("layer0", A.GCU)))
        for name in want:
            assert_same(got[name], want[name])
        assert got["dx"].shape == x.shape and not got["layer0_w"].any()


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="digests were recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64")
class TestGoldenTraining:
    """Seeded float32 training is pinned bit for bit.  A kernel change that
    keeps these digests computes exactly what the code that recorded them did;
    re-record them only for a change meant to alter the arithmetic.  They were
    re-recorded when the conv moved to blocked (ki, kj, C) patch columns, and
    last when the conv's dx became the blocked conv of dy with flipped,
    channel-swapped weights: both changed only the float32 summation order
    (the second only dx's), which TestBlockedConvOracle checks in float64."""

    @pytest.mark.parametrize("act, depth, want", [
        (A.RELU, 2, "012200c896d550a6173ba27128b120bd4e61d1e34274add4b102494cf4c2cdc3"),
        (A.SQU, 4, "66765831a877415048823c5078e189d72ba59359132a34590f62d256ce25e58c"),
        (A.DSU, 2, "d4005279c3bbc05942d19199568a31cd6003db5a9f6d94a2fabb784157ce84a8"),
        (A.GELU, 2, "68eb61de21652ccc522e9ced732abb15325e6891ac02c25192cc4a5ef474b0db"),
    ], ids=["relu-2", "squ-4", "dsu-2", "gelu-2"])
    def test_two_steps_match_the_recorded_digest(self, act, depth, want):
        assert training_digest(act, depth) == want


class TestAdam:
    def test_zero_gradient_is_a_noop(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}
        s = adam_init(p)
        adam_step(p, {"w": np.zeros(3)}, s, lr=0.5)
        np.testing.assert_array_equal(p["w"], [1.0, -2.0, 3.0])

    def test_first_unit_gradient_step_is_minus_lr(self):
        """m-hat = v-hat = 1 after one step with g=1, so the update is
        -lr/(1+eps) up to eps."""
        p = {"w": np.array([0.0])}
        s = adam_init(p)
        adam_step(p, {"w": np.array([1.0])}, s, lr=0.1)
        assert p["w"][0] == pytest.approx(-0.1, rel=1e-7)

    def test_step_counter_increments_once_per_call(self):
        p = {"w": np.zeros(2)}
        s = adam_init(p)
        for t in range(1, 6):
            adam_step(p, {"w": np.ones(2)}, s, 0.01)
            assert s.t == t

    def test_state_shapes_track_parameters(self):
        p = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
        s = adam_init(p)
        assert s.m["a"].shape == (2, 3) and s.v["b"].shape == (5,)


class TestEndToEndGradient:
    def test_tiny_conv_model_matches_finite_differences(self):
        """Every parameter of a conv_layers=1 model on 4x4 inputs, 2 classes."""
        m = build_model(NetworkConfig(1, A.SQU, seed=5), input_shape=(2, 4, 4),
                        num_classes=2, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 2, 4, 4))
        labels = np.array([0, 1, 1])
        _, grads = m.loss_and_grads(x, labels, train=False)

        h = 1e-6
        worst = 0.0
        for name, p in m.params.items():
            flat, gflat = p.ravel(), grads[name].ravel()
            idx = np.random.default_rng(0).permutation(flat.size)[:40]
            for i in idx:
                old = flat[i]
                flat[i] = old + h
                lp = m.loss_and_grads(x, labels, train=False)[0]
                flat[i] = old - h
                lm = m.loss_and_grads(x, labels, train=False)[0]
                flat[i] = old
                num = (lp - lm) / (2 * h)
                worst = max(worst, abs(num - gflat[i]) / max(1e-8, abs(num), abs(gflat[i])))
        assert worst < 1e-3


class TestTrainEpoch:
    def _data(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.random((n, 3, 8, 8)).astype(np.float64),
                rng.integers(0, 10, n))

    def test_zero_lr_changes_nothing_and_matches_eval_loss(self):
        imgs, labs = self._data()
        m = tiny_dense_model()
        before = {k: v.copy() for k, v in m.params.items()}
        state = adam_init(m.params)
        loss = train_epoch(m, imgs, labs, state, lr=0.0, rng=np.random.default_rng(1), batch=8)
        for k in before:
            np.testing.assert_array_equal(m.params[k], before[k])
        eval_loss, _ = layers.softmax_cross_entropy(m.forward(imgs), labs)
        assert loss == pytest.approx(eval_loss, abs=1e-12)

    def test_single_sample_memorization(self):
        """200 epochs on one sample drive the loss below 0.01."""
        imgs, labs = self._data(n=1)
        m = tiny_dense_model()
        state = adam_init(m.params)
        rng = np.random.default_rng(2)
        loss = None
        for _ in range(200):
            loss = train_epoch(m, imgs, labs, state, lr=0.01, rng=rng, batch=1)
        assert loss < 0.01

    def test_fixed_seed_gives_bit_identical_trace(self):
        imgs, labs = self._data()
        traces = []
        for _ in range(2):
            m = tiny_dense_model(seed=4)
            state = adam_init(m.params)
            rng = np.random.default_rng(9)
            traces.append([train_epoch(m, imgs, labs, state, 1e-3, rng, batch=8)
                           for _ in range(3)])
        assert traces[0] == traces[1]

    def test_divergence_error_names_the_batch(self):
        # float32 conv stack overflows fast at an absurd learning rate
        rng0 = np.random.default_rng(0)
        imgs = rng0.random((8, 3, 32, 32), dtype=np.float32)
        labs = np.zeros(8, dtype=np.int64)
        m = build_model(NetworkConfig(1, A.RELU, seed=0))
        state = adam_init(m.params)
        rng = np.random.default_rng(0)
        with pytest.raises(DivergenceError) as err:
            for _ in range(50):
                train_epoch(m, imgs, labs, state, lr=1e12, rng=rng, batch=4)
        assert err.value.batch_index >= 0
        assert str(err.value.batch_index) in str(err.value)

    def test_empty_dataset_rejected(self):
        m = tiny_dense_model()
        with pytest.raises(ConfigError):
            train_epoch(m, np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int),
                        adam_init(m.params), 1e-3, np.random.default_rng(0))

    def test_label_count_mismatch_rejected_before_any_step(self, monkeypatch):
        imgs, labs = self._data(n=10)
        m = tiny_dense_model()

        def forbidden(*args, **kwargs):
            raise AssertionError("a step ran on mismatched labels")
        monkeypatch.setattr(Model, "loss_and_grads", forbidden)
        with pytest.raises(ShapeError, match=r"9 labels for 10 images"):
            train_epoch(m, imgs, labs[:9], adam_init(m.params), 1e-3, np.random.default_rng(0))

    @pytest.mark.parametrize("batch, lr, names", [
        (-1, 1e-3, "batch"), (0, 1e-3, "batch"), (8.0, 1e-3, "batch"),
        (8, math.nan, "lr"), (8, -1e-3, "lr"), (8, math.inf, "lr"),
    ], ids=["batch=-1", "batch=0", "batch=8.0", "lr=nan", "lr=-0.001", "lr=inf"])
    def test_bad_batch_or_lr_rejected_before_any_work(self, monkeypatch, batch, lr, names):
        """No step runs and the generator is not drawn from: batch=-1 used
        to return loss 0.0, batch=0 raised range()'s bare ValueError, and
        lr=nan poisoned the parameters before raising DivergenceError."""
        imgs, labs = self._data(n=10)
        m = tiny_dense_model()

        def forbidden(*args, **kwargs):
            raise AssertionError("a step ran")
        monkeypatch.setattr(Model, "loss_and_grads", forbidden)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=f"^{names} "):
            train_epoch(m, imgs, labs, adam_init(m.params), lr, rng, batch=batch)
        assert rng.bit_generator.state == state

    def test_loss_nonincreasing_on_fixed_subset(self):
        """Five epochs on 64 fixed samples: mean loss trends down for both a
        rectifier and an oscillatory unit at lr 1e-4."""
        rng = np.random.default_rng(12)
        imgs = rng.random((64, 3, 32, 32), dtype=np.float32)
        labs = rng.integers(0, 10, 64)
        for act in (A.RELU, A.SQU):
            m = build_model(NetworkConfig(1, act, seed=0))
            state = adam_init(m.params)
            tr = np.random.default_rng(5)
            losses = [train_epoch(m, imgs, labs, state, 1e-4, tr) for _ in range(5)]
            assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:])), (act, losses)


class TestLearnsStructuredData:
    def test_conv_model_separates_stripe_positions(self):
        """Class = column of a bright stripe over noise: a depth-1 model at
        lr 1e-3 should leave the 0.1 chance level far behind within 2 epochs."""
        rng = np.random.default_rng(0)
        labels = np.tile(np.arange(10), 30)
        images = rng.random((300, 3, 32, 32), dtype=np.float32) * 0.3
        for i, c in enumerate(labels):
            images[i, :, :, 3 * c:3 * c + 3] += 0.7
        m = build_model(NetworkConfig(1, A.RELU, seed=1))
        state = adam_init(m.params)
        tr = np.random.default_rng(2)
        for _ in range(2):
            train_epoch(m, images, labels, state, 1e-3, tr)
        assert evaluate_top1(m, images, labels) > 0.9


class TestSignumGradientFlow:
    def test_only_downstream_of_last_activation_learns(self):
        """signum'(z) = 0 a.e., so everything feeding the last activation gets
        exactly zero gradient; only the logits layer moves."""
        m = build_model(NetworkConfig(1, A.SIGNUM, seed=8))
        rng = np.random.default_rng(0)
        x = rng.random((4, 3, 32, 32), dtype=np.float32)
        labels = rng.integers(0, 10, 4)
        _, grads = m.loss_and_grads(x, labels, rng=np.random.default_rng(1))
        logits = m.layers[-1]
        for name, g in grads.items():
            if name in (logits.w, logits.b):
                assert np.abs(g).max() > 0
            else:
                assert np.abs(g).max() == 0.0, name


class TestEvaluateTop1:
    def test_untrained_model_is_at_chance(self):
        rng = np.random.default_rng(0)
        imgs = rng.random((500, 3, 8, 8))
        labs = np.tile(np.arange(10), 50)
        acc = evaluate_top1(tiny_dense_model(seed=1), imgs, labs)
        assert abs(acc - 0.1) < 0.03

    def test_perfect_single_sample(self):
        m = tiny_dense_model(seed=1)
        img = np.random.default_rng(2).random((1, 3, 8, 8))
        pred = int(m.forward(img).argmax())
        assert evaluate_top1(m, img, np.array([pred])) == 1.0

    def test_non_finite_logits_are_misses(self):
        m = tiny_dense_model(seed=1)
        m.params["layer2_b"][:] = np.nan  # every logit NaN: argmax would say class 0
        imgs = np.random.default_rng(2).random((6, 3, 8, 8))
        assert evaluate_top1(m, imgs, np.zeros(6, dtype=np.int64)) == 0.0
        m.params["layer2_b"][:] = 0.0
        m.params["layer2_b"][3] = np.inf  # argmax 3, but the row is not finite
        assert evaluate_top1(m, imgs, np.full(6, 3)) == 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            evaluate_top1(tiny_dense_model(), np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int))

    def test_label_count_mismatch_rejected_before_any_forward(self, monkeypatch):
        m = tiny_dense_model()
        imgs = np.random.default_rng(2).random((6, 3, 8, 8))

        def forbidden(*args, **kwargs):
            raise AssertionError("a forward ran on mismatched labels")
        monkeypatch.setattr(Model, "forward", forbidden)
        with pytest.raises(ShapeError, match=r"7 labels for 6 images"):
            evaluate_top1(m, imgs, np.zeros(7, dtype=np.int64))

    def test_invariant_under_logit_rescaling(self):
        m = tiny_dense_model(seed=1)
        imgs = np.random.default_rng(3).random((20, 3, 8, 8))
        labs = np.random.default_rng(4).integers(0, 10, 20)
        base = evaluate_top1(m, imgs, labs)
        for key in ("layer2_w", "layer2_b"):
            m.params[key] *= 3.0
        assert evaluate_top1(m, imgs, labs) == base

