"""The worker count changes no result: conv, activations and training are
bitwise the same at 1, 2 and 3 workers, under the caller's numpy error state,
and the catalog path and a forked child work as before."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from oscnet import _workers, activations, layers
from oscnet.activations import ActivationId as A
from oscnet.cli import EXIT_OK, main
from test_layers import nhwc
from test_network import training_digest

WORKER_COUNTS = (1, 2, 3)
DTYPES = (np.float32, np.float64)


def at_each_worker_count(monkeypatch, compute) -> list:
    """compute()'s arrays at 1, 2 and 3 workers, as bytes per count."""
    out = []
    for count in WORKER_COUNTS:
        monkeypatch.setattr(_workers, "WORKERS", count)
        out.append([None if a is None else a.tobytes() for a in compute()])
    return out


def assert_same_at_every_count(monkeypatch, compute):
    one, *more = at_each_worker_count(monkeypatch, compute)
    for count, got in zip(WORKER_COUNTS[1:], more):
        assert got == one, f"{count} workers differ from 1"


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool at the start, so the test's first loop starts one at the
    patched worker count; it is shut down at the end."""
    monkeypatch.setattr(_workers, "_pool", None)
    yield
    if _workers._pool is not None:
        _workers._pool.shutdown()


class TestRuns:
    def test_runs_cover_the_units_in_order(self, monkeypatch):
        monkeypatch.setattr(_workers, "WORKERS", 3)
        assert _workers.runs(10, lambda lo, hi: (lo, hi)) == [(0, 3), (3, 6), (6, 10)]

    @pytest.mark.parametrize("count, n", [(1, 10), (3, 3), (3, 0)])
    def test_one_worker_or_few_units_run_inline(self, monkeypatch, count, n):
        monkeypatch.setattr(_workers, "WORKERS", count)
        caller = threading.get_ident()
        assert _workers.runs(n, lambda lo, hi: (lo, hi, threading.get_ident())) == \
            [(0, n, caller)]

    def test_a_run_on_a_pool_thread_runs_nested_loops_inline(self, monkeypatch):
        monkeypatch.setattr(_workers, "WORKERS", 2)

        def outer(lo, hi):
            return _workers.runs(5, lambda a, b: (a, b, threading.get_ident()))

        first, second = _workers.runs(4, outer)
        assert len(first) == 2  # the calling thread may start runs
        [(lo, hi, ident)] = second  # a pool thread runs all of it itself
        assert (lo, hi) == (0, 5) and ident != threading.get_ident()

    def test_an_exception_in_a_later_run_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(_workers, "WORKERS", 2)

        def fail_late(lo, hi):
            if lo:
                raise KeyError(lo)
            return lo

        with pytest.raises(KeyError):
            _workers.runs(4, fail_late)


class TestWorkerCount:
    """One worker per core at one BLAS thread, and never more workers than
    the cores leave room for beside the BLAS threads."""

    @pytest.mark.parametrize("env, cores, want", [
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "1"}, 4, 4),
        ({"MKL_NUM_THREADS": "2"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x"}, 2, 1),
    ])
    def test_cores_over_blas_threads(self, monkeypatch, env, cores, want):
        for var in _workers.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(_workers, "_cores", lambda: cores)
        assert _workers._worker_count() == want


class TestConv:
    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_and_backward(self, monkeypatch, dtype, need_dx):
        """7 images of (32,16,16) -> 64: 3 blocks in float32, 7 in float64,
        so 2 and 3 workers get runs of unequal length."""
        rng = np.random.default_rng(11)
        x = nhwc(rng.standard_normal((7, 32, 16, 16)).astype(dtype))
        w = rng.standard_normal((64, 32, 3, 3)).astype(dtype)
        b = rng.standard_normal(64).astype(dtype)
        dy = nhwc(rng.standard_normal((7, 64, 16, 16)).astype(dtype))
        per_image = 16 * 16 * 9 * 32 * np.dtype(dtype).itemsize
        assert layers.BLOCK_BYTES // per_image == (3 if dtype == np.float32 else 1)

        def compute():
            y, cache = layers.conv2d_forward(x, w, b)
            return (y, *layers.conv2d_backward(dy, cache, need_dx))

        assert_same_at_every_count(monkeypatch, compute)


def test_concurrent_callers_on_more_workers_than_cores(monkeypatch, fresh_pool):
    """Four threads each run conv backwards on 4 workers, with the
    interpreter switching threads every microsecond: every dW and dx is
    the one-worker result, and all of them finish within 60 s."""
    rng = np.random.default_rng(15)
    x = nhwc(rng.standard_normal((9, 32, 16, 16)).astype(np.float32))
    w = rng.standard_normal((16, 32, 3, 3)).astype(np.float32)
    dy = nhwc(rng.standard_normal((9, 16, 16, 16)).astype(np.float32))
    cache = (x, w)
    monkeypatch.setattr(_workers, "WORKERS", 1)
    want = [a.tobytes() for a in layers.conv2d_backward(dy, cache)]
    monkeypatch.setattr(_workers, "WORKERS", 4)
    got = []

    def caller():
        for _ in range(5):
            got.append([a.tobytes() for a in layers.conv2d_backward(dy, cache)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 20 and all(g == want for g in got)


class TestActivations:
    @pytest.mark.parametrize("chunks", [1.5, 9.5])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("id", [A.RELU, A.SQU, A.GCU, A.SSU, A.DSU, A.GELU])
    def test_g_and_its_derivative(self, monkeypatch, id, dtype, chunks):
        """9.5 chunks split into runs; 1.5 chunks (2) run inline at 2 and 3
        workers."""
        size = int(chunks * activations.CHUNK_BYTES / np.dtype(dtype).itemsize)
        z = (4 * np.random.default_rng(12).standard_normal(size)).astype(dtype)
        assert_same_at_every_count(
            monkeypatch, lambda: (activations.apply(id, z), *activations.apply_with_grad(id, z)))


class TestTraining:
    @pytest.mark.parametrize("act, depth", [(A.RELU, 2), (A.SQU, 4), (A.GCU, 2)],
                             ids=["relu-2", "squ-4", "gcu-2"])
    def test_two_adam_steps(self, monkeypatch, act, depth):
        digests = []
        for count in WORKER_COUNTS:
            monkeypatch.setattr(_workers, "WORKERS", count)
            digests.append(training_digest(act, depth))
        assert digests[1:] == digests[:1] * 2


class TestErrorState:
    """Runs on pool threads compute under the caller's np.errstate."""

    @staticmethod
    def _overflowing(dtype=np.float32):
        z = np.ones(int(9.5 * activations.CHUNK_BYTES / np.dtype(dtype).itemsize), dtype=dtype)
        z[-1000:] = 1e30  # squ overflows in the last run only, on a pool thread
        return z

    def test_ignored_overflow_warns_nothing(self, monkeypatch):
        monkeypatch.setattr(_workers, "WORKERS", 2)
        z = self._overflowing()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                g, _ = layers.activation_forward(z, A.SQU)
        assert np.isinf(g[-1])

    def test_a_raising_error_state_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(_workers, "WORKERS", 2)
        z = self._overflowing()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            layers.activation_forward(z, A.SQU)


class TestCatalogPathStartsNoThread:
    def test_properties_then_xor(self, monkeypatch, tmp_path, fresh_pool):
        monkeypatch.setattr(_workers, "WORKERS", 2)
        before = threading.active_count()
        assert main(["properties", "--out-dir", str(tmp_path / "p")]) == EXIT_OK
        assert main(["xor", "gcu", "--out-dir", str(tmp_path / "x")]) == EXIT_OK
        assert threading.active_count() == before
        assert _workers._pool is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_completes_a_conv(monkeypatch, fresh_pool):
    """The parent's pool threads do not exist in a child, so it starts its own."""
    monkeypatch.setattr(_workers, "WORKERS", 2)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((10, 32, 16, 16)).astype(np.float32)
    w = rng.standard_normal((16, 32, 3, 3)).astype(np.float32)
    b = np.zeros(16, dtype=np.float32)
    want = layers.conv2d_forward(x, w, b)[0].tobytes()  # starts the parent's pool
    assert _workers._pool is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if layers.conv2d_forward(x, w, b)[0].tobytes() == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's conv did not finish in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
