"""Run one oscnet benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload cnn-rect --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository: it imports oscnet from ./src and
needs nothing built.  Workloads: cnn-rect, cnn-osc, catalog-xor (see
perfbench/README.md).  Human-readable lines come first.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end metrics listed
in BENCHMARK.json.  With --trace 1 they are its per-layer metrics, from a run
that records spans around oscnet's layers.  The full result, with the run
manifest, goes to .bench_out/<workload>-seed<seed>-trace<trace>.json; a
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cnn-rect", "cnn-osc", "catalog-xor")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-core machine a two-thread GEMM waits on
# whichever core a neighbour holds.  Over 10 seeds the cnn-rect step-latency
# spread (quartile distance over median) was about 0.2 with two threads and
# 0.06-0.10 with one.
BLAS_THREADS = 1
EXIT_NO_SOURCES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def limit_blas_threads() -> None:
    """Pin the BLAS thread count; takes effect only before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no mode="dicts"
        blas = {"name": None, "version": None}
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def pick(produced: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    out = {}
    for spec in wanted:
        value, unit = produced[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"metric {spec['name']}: unit {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oscnet" / "__init__.py").is_file():
        print(f"perfbench: no oscnet package under {SRC}; "
              "run this from a checkout of the repository", file=sys.stderr)
        return EXIT_NO_SOURCES
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"perfbench: {spec_file} is missing", file=sys.stderr)
        return EXIT_NO_SOURCES
    bench = json.loads(spec_file.read_text())

    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("oscnet")
    if found is None or Path(found.origin).resolve().parent != (SRC / "oscnet").resolve():
        print(f"perfbench: oscnet resolves to {found and found.origin}, not {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCES
    OUT.mkdir(exist_ok=True)

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload == "catalog-xor":
        import catalog

        res = catalog.run(args.seed, args.seconds, OUT, tracer)
    else:
        import cnn

        res = cnn.run(args.workload, args.seed, args.seconds, tracer)

    per_layer, self_s = {}, {}
    stem = OUT / f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        summary = tracer.summary()
        per_layer, self_s = summary["metrics"], summary["self_s"]
        per_layer["trace.overhead_pct"] = (res.overhead_pct, "%")
        if args.workload != "catalog-xor":
            res.sanity = cnn.sanity(args.workload, summary["shares"], per_layer)
        tracer.dump(f"{stem}-spans.json")

    correct = res.failed == 0 and all(c["ok"] for c in res.checks)
    metrics = pick(per_layer if args.trace else res.metrics,
                   bench["per_layer"] if args.trace else bench["end_to_end"])
    line = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}
    full = {
        "manifest": manifest(args),
        **line,
        "report": res.report,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "sanity": res.sanity,
        "self_s": self_s,
        "checks": res.checks,
        "detail": res.detail,
    }
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(full, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, r in res.report.items():
        print(f"  {name:<24} {r['value']:>14.6g} {r['unit']:<6} (n={r['n']})")
    for name, (value, unit) in per_layer.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for row in res.sanity:
        if row["holds"] is not None:
            print(f"  sanity: {row['claim']}: {'holds' if row['holds'] else 'does not hold'}")
    for c in res.checks:
        if not c["ok"]:
            print(f"  FAILED check: {c['name']}: {c['detail']}")
    print(f"  checks: {sum(c['ok'] for c in res.checks)}/{len(res.checks)} passed, "
          f"{res.failed}/{res.attempted} operations failed")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
