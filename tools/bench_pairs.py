"""Compare two commits on the oscnet benchmark with alternating pairs of runs.

    python3 tools/bench_pairs.py --parent c2f531a --seeds 301-310 --out BENCH_3.json \
        --claim cnn-osc:train_items_per_s --traced cnn-osc:21,22 --note "what changed"

Both commits are exported with ``git archive`` into fresh directories (under
--workdir, or a temporary one), so only committed files are measured; to
measure uncommitted work, pass ``--change $(git stash create)`` after
``git add``.  For every workload of BENCHMARK.json and every seed, one pair
runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
(T is its ``run_seconds``) in each directory, one after the other: pair i
runs the parent first when i is odd and the change first when i is even, so a
slow spell of a shared machine does not always hit the same side.

The output JSON holds, per workload and end-to-end metric of BENCHMARK.json,
each side's quartiles and per-pair values, ``change_worse_by`` (relative
median change, positive when worse), ``change_better_in_pairs``,
``within_bound`` and ``unresolved``.  A metric is unresolved when the
parent's quartile distance over its median exceeds the metric's bound, so
its runs spread too widely to tell a change within the bound, and not every
run of the change beats every run of the parent.  Per workload it also
holds each side's per-pair ``rusage`` of the benchmark process: CPU seconds
over wall seconds, involuntary context switches and minor page faults.  A
change that runs on more cores loses most when a neighbour holds one of
them, and the first two show it.  The faults count pages the run maps
afresh instead of reusing, over the whole run, set-up included.
``--claim W:M`` adds ``claimed_gain``: it holds when the change is better in
at least 9 of 10 pairs and its median beats the parent's by more than the
parent's quartile distance.  ``--traced W:S,S`` adds traced pairs
(``--trace 1``) with the per-layer metrics and, for each seconds metric,
milliseconds per conv GFLOP.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUSAGE = ("cpu_per_wall", "involuntary_switches", "minor_faults")


def parse_seeds(text: str) -> list[int]:
    """'301-310' or '21,22' -> list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def parse_args(argv, bench: dict):
    """The flags, with --claim as (workload, metric) and --traced as (workload,
    seeds); a name that ``bench`` (BENCHMARK.json) lacks exits 2 before any run."""
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="git revision of the baseline")
    p.add_argument("--change", default="HEAD", help="git revision of the change (default HEAD)")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 301-310 or 301,305")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    p.add_argument("--traced", help="WORKLOAD:SEEDS for traced pairs, e.g. cnn-osc:21,22")
    p.add_argument("--note", default="", help="one line saying what the change is")
    p.add_argument("--workdir", type=Path, help="where the two exports go (default: a temp dir)")
    args = p.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    if args.claim:
        w, _, m = args.claim.partition(":")
        if w not in workloads or m not in metrics:
            p.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC with a workload of "
                    f"{workloads} and an end-to-end metric of {metrics}")
        args.claim = (w, m)
    if args.traced:
        w, _, seeds = args.traced.partition(":")
        try:
            seeds = parse_seeds(seeds)
        except ValueError:
            seeds = None
        if w not in workloads or not seeds:
            p.error(f"--traced {args.traced!r} is not WORKLOAD:SEEDS with a workload of "
                    f"{workloads} and seeds like 21,22 or 21-22")
        args.traced = (w, seeds)
    return args


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; return its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return short


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its last stdout line, the manifest it wrote and
    its rusage: CPU seconds over wall seconds, involuntary context switches
    and minor page faults, from the deltas of RUSAGE_CHILDREN around the run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after, wall = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    full = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    line["manifest"] = full["manifest"]
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    line["rusage"] = {"cpu_per_wall": round(cpu / wall, 3),
                      "involuntary_switches": after.ru_nivcsw - before.ru_nivcsw,
                      "minor_faults": after.ru_minflt - before.ru_minflt}
    return line


def run_pairs(trees: dict, workload: str, seeds: list, seconds: float, trace: int) -> list:
    """[{side: result}] per seed; odd pairs run the parent first."""
    pairs = []
    for i, seed in enumerate(seeds, start=1):
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, seconds, trace)
            value = {k: round(v["value"], 4) for k, v in pair[side]["metrics"].items()}
            print(f"{workload} seed {seed} trace {trace} {side}: {value}", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def compare(pairs: list, spec: dict) -> dict:
    """Quartiles, per-pair values and the verdicts for one end-to-end metric."""
    name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
    values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
    q = {side: quartiles(values[side]) for side in SIDES}
    p_med, c_med = q["parent"]["median"], q["change"]["median"]
    worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0
    better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    spread = (q["parent"]["q3"] - q["parent"]["q1"]) / abs(p_med) if p_med else 0.0
    beats_all = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": q["parent"], "change": q["change"],
        "change_worse_by": round(worse_by, 4),
        "change_better_in_pairs": better,
        "within_bound": worse_by <= spec["bound"],
        "unresolved": spread > spec["bound"] and not beats_all,
        "values": values,
    }


def claimed_gain(workload: str, metric: str, row: dict, pairs: int) -> dict:
    sign = 1 if row["better"] == "higher" else -1
    gap = sign * (row["change"]["median"] - row["parent"]["median"])
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    return {
        "workload": workload, "metric": metric,
        "change_better_in_pairs": row["change_better_in_pairs"], "pairs": pairs,
        "median_gap": round(gap, 4), "parent_iqr": round(iqr, 4),
        "gain": -row["change_worse_by"],
        "holds": row["change_better_in_pairs"] >= 0.9 * pairs and gap > iqr,
    }


def per_gflop(metrics: dict) -> dict:
    """Milliseconds per conv GFLOP for every seconds metric of a traced run."""
    gflop = metrics["layers.conv.gflop"]["value"]
    return {k: round(1000.0 * v["value"] / gflop, 3) for k, v in metrics.items()
            if v["unit"] == "s" and gflop}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    seconds = bench["run_seconds"]
    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    revs = {"parent": args.parent, "change": args.change}
    trees = {side: work / side for side in SIDES}
    short = {side: export(revs[side], trees[side]) for side in SIDES}
    print(f"parent {short['parent']} -> {trees['parent']}, change {short['change']} -> "
          f"{trees['change']}", file=sys.stderr)

    out = {
        "what": ("Parent and change medians and quartiles of the end-to-end metrics, one "
                 "workload at a time, from alternating pairs of `python3 perfbench/run.py "
                 f"--workload W --seed S --seconds {seconds:g} --trace 0`; pair i ran "
                 "parent first when i is odd and change first when i is even."),
        "parent": short["parent"],
        "change": args.note or short["change"],
        "pairs": len(args.seeds),
        "seeds": args.seeds,
    }
    workloads, manifest = {}, None
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = run_pairs(trees, workload, args.seeds, seconds, 0)
        manifest = pairs[0]["change"]["manifest"]
        workloads[workload] = {
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
            "metrics": {spec["name"]: compare(pairs, spec) for spec in bench["end_to_end"]},
            "rusage": {s: {k: [p[s]["rusage"][k] for p in pairs] for k in RUSAGE} for s in SIDES},
        }
    if args.claim:
        w, m = args.claim
        out["claimed_gain"] = claimed_gain(w, m, workloads[w]["metrics"][m], len(args.seeds))
    out["manifest"] = {k: manifest[k] for k in ("python", "numpy", "blas", "blas_threads",
                                                "nproc", "machine", "seconds")}
    out["workloads"] = workloads
    if args.traced:
        w, seeds = args.traced
        runs = []
        for seed, pair in zip(seeds, run_pairs(trees, w, seeds, seconds, 1)):
            run = {"seed": seed}
            for side in SIDES:
                metrics = pair[side]["metrics"]
                run[side] = {k: v["value"] for k, v in metrics.items()}
                run[f"{side}_ms_per_conv_gflop"] = per_gflop(metrics)
            runs.append(run)
        out["traced"] = {
            "what": (f"Per-layer metrics of `python3 perfbench/run.py --workload {w} --seed S "
                     f"--seconds {seconds:g} --trace 1`, in alternating order as above. "
                     "Each side fits its own number of steps into the run (network.steps), so "
                     "compare seconds per conv GFLOP."),
            "runs": runs,
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if "claimed_gain" in out:
        print(json.dumps(out["claimed_gain"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
