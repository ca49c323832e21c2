"""`tools/bench_pairs.py`'s per-metric verdicts on hand-made pairs of runs."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ as it is
    spec.loader.exec_module(module)
    return module


def pairs(parent, change):
    return [{"parent": {"metrics": {"m": {"value": p}}}, "change": {"metrics": {"m": {"value": c}}}}
            for p, c in zip(parent, change)]


# Both parents have median 40.  WIDE's quartiles are 35.75 and 44.25, a
# spread of 0.21 of the median; NARROW's 39.625 and 40.375, 0.019.  The
# bound is 0.15.
WIDE = [30, 35, 35, 38, 40, 40, 42, 45, 45, 50]
NARROW = [39, 39.5, 39.5, 40, 40, 40, 40, 40.5, 40.5, 41]


@pytest.mark.parametrize("better, parent, change, unresolved", [
    ("lower", WIDE, [v + 1 for v in WIDE], True),  # wide spread, change worse
    ("lower", WIDE, [v - 1 for v in WIDE], True),  # better in every pair, not than every run
    ("lower", WIDE, [29.0] * 10, False),  # every change run beats every parent run
    ("lower", NARROW, [v * 1.5 for v in NARROW], False),  # narrow spread: the bound decides
    ("higher", WIDE, [51.0] * 10, False),
    ("higher", WIDE, [29.0] * 10, True),
], ids=["wide-worse", "wide-better-per-pair", "wide-beats-all", "narrow", "higher-beats-all",
        "higher-worse"])
def test_unresolved_when_the_parent_spreads_wider_than_the_bound(bench_pairs, better, parent,
                                                                  change, unresolved):
    spec = {"name": "m", "unit": "s", "better": better, "bound": 0.15}
    row = bench_pairs.compare(pairs(parent, change), spec)
    assert row["unresolved"] is unresolved


def test_a_run_records_the_minor_faults_of_the_benchmark_process(bench_pairs, tmp_path,
                                                                   monkeypatch):
    """rusage holds the RUSAGE_CHILDREN deltas around the run, faults included."""
    out = tmp_path / ".bench_out"
    out.mkdir()
    (out / "cnn-osc-seed7-trace0.json").write_text(json.dumps({"manifest": {"seed": 7}}))
    usage = iter([SimpleNamespace(ru_utime=1.0, ru_stime=0.5, ru_nivcsw=10, ru_minflt=1000),
                  SimpleNamespace(ru_utime=3.0, ru_stime=1.5, ru_nivcsw=14, ru_minflt=4500)])
    monkeypatch.setattr(bench_pairs.resource, "getrusage", lambda who: next(usage))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kw: SimpleNamespace(
        returncode=0, stdout='log\n{"metrics": {}}\n', stderr=""))
    line = bench_pairs.run_once(tmp_path, "cnn-osc", 7, 1.0, 0)
    assert line["manifest"] == {"seed": 7}
    assert line["rusage"]["involuntary_switches"] == 4
    assert line["rusage"]["minor_faults"] == 3500
    assert set(line["rusage"]) == set(bench_pairs.RUSAGE)


@pytest.mark.parametrize("flags", [
    ["--claim", "catalog-xor:train_item_per_s"],  # misspelt metric
    ["--claim", "catalog:train_items_per_s"],  # misspelt workload
    ["--claim", "catalog-xor"],
    ["--traced", "cnn-os:21,22"],
    ["--traced", "cnn-osc:21;22"],
    ["--traced", "cnn-osc"],
], ids=["claim-metric", "claim-workload", "claim-no-metric", "traced-workload",
        "traced-seeds", "traced-no-seeds"])
def test_a_bad_name_exits_2_before_any_export_or_run(bench_pairs, monkeypatch, tmp_path, flags):
    def never(*args, **kwargs):
        raise AssertionError("called before the flags were checked")

    monkeypatch.setattr(bench_pairs, "export", never)
    monkeypatch.setattr(bench_pairs, "run_pairs", never)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", "HEAD", "--seeds", "1-2", "--out", str(tmp_path / "o.json")]
                         + flags)
    assert exit_.value.code == 2


def test_good_names_reach_the_export(bench_pairs, monkeypatch, tmp_path):
    class Exported(Exception):
        pass

    def export(rev, dest):
        raise Exported

    monkeypatch.setattr(bench_pairs, "export", export)
    with pytest.raises(Exported):
        bench_pairs.main(["--parent", "HEAD", "--seeds", "1-2", "--out", str(tmp_path / "o.json"),
                          "--claim", "catalog-xor:train_items_per_s", "--traced", "cnn-osc:21,22"])
