"""Shared pieces of the workloads: the result record, module lookup, peak memory."""

from __future__ import annotations

import importlib
import resource
from dataclasses import dataclass, field


@dataclass
class Result:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics named in BENCHMARK.json;
    ``report`` holds the same run under the names a reader of the paper's
    paths uses (train_images_per_s, catalog_verify_s, ...), each with its unit
    and sample count.
    """

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    report: dict = field(default_factory=dict)    # name -> {"value", "unit", "n"}
    checks: list = field(default_factory=list)    # {"name", "ok", "detail"}
    detail: dict = field(default_factory=dict)    # per network / per id rows
    attempted: int = 0
    failed: int = 0
    overhead_pct: float | None = None             # traced runs only
    sanity: list = field(default_factory=list)    # traced runs only

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def op(self, ok: bool) -> None:
        """Count one operation (training step, catalog row, XOR id, ...)."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    def put(self, name: str, value: float, unit: str, n: int | None = None) -> None:
        self.report[name] = {"value": value, "unit": unit, "n": n}


def oscnet_modules() -> dict:
    """The module objects the tracer patches, as currently loaded."""
    import numpy as np

    names = ("activations", "layers", "network", "properties", "xorlab", "cifar")
    modules = {name: importlib.import_module(f"oscnet.{name}") for name in names}
    modules["numpy_random"] = np.random
    return modules


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
