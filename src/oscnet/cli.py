"""Command-line entry points.

Commands
--------
properties   run every catalog scan, write JSON + CSV reports, exit nonzero on
             any measured-vs-descriptor contradiction
xor          train a single neuron on XOR (if training misses, the sign-change
             witness decides unless the catalog rules XOR out), export the
             certificate JSON and decision-boundary CSV
bench        run the (activation x conv_layers) benchmark matrix on CIFAR-10,
             streaming one JSON record per epoch plus a summary table
emit-plots   reshape benchmark records into plottable long-format CSV series

Exit codes: 0 ok, 2 config error, 3 data error, 4 property contradiction,
5 XOR failure (training found no valid certificate, and the catalog rules XOR
out or the sign-change witness is invalid),
6 a bench cell diverged (its records and the summaries are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import cifar, properties, xorlab
from .activations import ActivationId, all_ids
from .errors import ConfigError, DataFormatError, DivergenceError, require_positive
from .network import NetworkConfig, adam_init, build_model, evaluate_top1, train_epoch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROPERTY = 4
EXIT_XOR = 5
EXIT_DIVERGED = 6


def _parse_one_activation(name: str) -> ActivationId:
    try:
        return ActivationId(name.strip())
    except ValueError:
        valid = ", ".join(a.value for a in all_ids())
        raise ConfigError(f"unknown activation {name!r}; valid: {valid}")


def _parse_activations(text: str) -> list:
    if text == "all":
        return list(all_ids())
    return [_parse_one_activation(name) for name in text.split(",")]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_properties(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = properties.verify_catalog()
    _write_json(out / "properties.json", properties.report_payload(rows))
    properties.write_report_csv(rows, out / "properties.csv")
    failures = [(r.id.value, c) for r in rows for c in r.contradictions]
    for ident, prop in failures:
        print(f"contradiction: {ident}: {prop}", file=sys.stderr)
    print(f"properties: {len(rows)} activations checked, "
          f"{len(failures)} contradictions -> {out}")
    return EXIT_PROPERTY if failures else EXIT_OK


def cmd_xor(args) -> int:
    ident = _parse_one_activation(args.activation)
    spec = xorlab.TrainSpec(learning_rate=args.lr, epochs=args.epochs,
                            restarts=args.restarts, seed=args.seed,
                            init_scale=args.init_scale)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cert, _trace = xorlab.train_single_neuron(ident, spec)
    source = "trained"
    ruled_out = xorlab.xor_ruled_out(ident)
    if not cert.valid and not ruled_out:
        witness = xorlab.xor_witness(ident)
        if witness.valid:
            cert, source = witness, "witness"

    stem = out / f"xor_{ident.value}"
    _write_json(Path(f"{stem}_certificate.json"), xorlab.certificate_to_dict(cert, source))
    xorlab.write_boundary_csv(f"{stem}_boundary.csv", cert.neuron)
    if cert.valid:
        print(f"xor {ident.value}: valid certificate via {source} "
              f"(w={cert.neuron.w}, b={cert.neuron.b})")
        return EXIT_OK
    why = "the catalog rules XOR out" if ruled_out else "the sign-change witness failed"
    print(f"xor {ident.value}: training failed and {why} "
          f"(best {cert.correct}/4)", file=sys.stderr)
    return EXIT_XOR


def _bench_cell(net: NetworkConfig, args, train_ds, test_ds, records_fh) -> dict:
    activation, depth = net.activation, net.conv_layers
    model = build_model(net)
    state = adam_init(model.params)
    rng = np.random.default_rng(args.seed + 1)
    acc_by_epoch = {}
    status = "ok"
    cell_start = time.perf_counter()
    for epoch in range(1, args.epochs + 1):
        t0 = time.perf_counter()
        try:
            loss = train_epoch(model, train_ds.images, train_ds.labels,
                               state, args.lr, rng, batch=args.batch)
        except DivergenceError as exc:
            status = f"diverged at epoch {epoch} ({exc})"
            break
        acc = evaluate_top1(model, test_ds.images, test_ds.labels)
        acc_by_epoch[epoch] = acc
        record = {
            "activation": activation.value,
            "conv_layers": depth,
            "epoch": epoch,
            "train_loss": loss,
            "test_top1": acc,
            "wall_seconds": 0.0 if args.deterministic else time.perf_counter() - t0,
        }
        records_fh.write(json.dumps(record, sort_keys=True) + "\n")
        records_fh.flush()
    return {
        "activation": activation.value,
        "conv_layers": depth,
        "status": status,
        "acc_epoch_20": acc_by_epoch.get(20),
        "acc_epoch_25": acc_by_epoch.get(25),
        "acc_final": acc_by_epoch.get(max(acc_by_epoch)) if acc_by_epoch else None,
        "acc_best": max(acc_by_epoch.values()) if acc_by_epoch else None,
        "wall_seconds": 0.0 if args.deterministic else time.perf_counter() - cell_start,
    }


def cmd_bench(args) -> int:
    data_dir = args.data_dir or os.environ.get("OSC_DATA_DIR")
    if not data_dir:
        raise ConfigError("bench needs --data-dir or OSC_DATA_DIR")
    for name in ("epochs", "batch", "lr"):
        require_positive(name, getattr(args, name))
    try:
        depths = [int(x) for x in args.conv_layers.split(",")]
    except ValueError:
        raise ConfigError(f"--conv-layers must be comma-separated integers, got {args.conv_layers!r}")
    cells = [NetworkConfig(depth, activation, seed=args.seed)  # checks every depth before any I/O
             for activation in _parse_activations(args.activations) for depth in depths]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    train_ds, test_ds = cifar.load_cifar10(data_dir)
    if args.subset is not None:
        train_ds = cifar.stratified_subset(train_ds, args.subset, args.seed)
        test_n = min(len(test_ds), max(args.subset // 5, cifar.NUM_CLASSES))
        test_n -= test_n % cifar.NUM_CLASSES
        test_ds = cifar.stratified_subset(test_ds, test_n, args.seed)

    summaries = []
    with open(out / "records.jsonl", "w") as records_fh:
        for net in cells:
            summary = _bench_cell(net, args, train_ds, test_ds, records_fh)
            summaries.append(summary)
            print(f"bench {net.activation.value} conv={net.conv_layers}: {summary['status']}, "
                  f"final top-1 {summary['acc_final']}")
    _write_json(out / "summary.json", summaries)
    with open(out / "summary.csv", "w") as fh:
        fh.write("activation,conv_layers,status,acc_epoch_20,acc_epoch_25,acc_final,acc_best\n")
        for s in summaries:
            fh.write(f"{s['activation']},{s['conv_layers']},{s['status']},"
                     f"{s['acc_epoch_20']},{s['acc_epoch_25']},{s['acc_final']},{s['acc_best']}\n")
    return EXIT_DIVERGED if any(s["status"] != "ok" for s in summaries) else EXIT_OK


# record field -> the JSON types it may hold; a bool is never a number here
_RECORD_TYPES = {"activation": str, "conv_layers": int, "epoch": int, "test_top1": (int, float)}


def _read_records(path: Path) -> list:
    rows = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                row = json.loads(line)
                for key, types in _RECORD_TYPES.items():
                    if isinstance(row[key], bool) or not isinstance(row[key], types):
                        raise TypeError(f"{key} {row[key]!r} has type {type(row[key]).__name__}")
                for key in ("conv_layers", "epoch"):
                    if row[key] < 1:
                        raise ValueError(f"{key} {row[key]!r} is below 1")
                if not math.isfinite(row["test_top1"]):
                    raise ValueError(f"test_top1 {row['test_top1']!r} is not finite")
                rows.append((row["activation"], row["conv_layers"], row["epoch"],
                             float(row["test_top1"])))
            # JSON and UTF-8 errors are ValueErrors; a huge int test_top1 overflows a float
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataFormatError(f"{path}: bad record at line {lineno}: {exc}")
    return rows


def cmd_emit_plots(args) -> int:
    records = Path(args.records)
    if not records.is_file():
        raise DataFormatError(f"records file not found: {records}")
    rows = _read_records(records)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(out / "accuracy_vs_epoch.csv", "w") as fh:
        fh.write("activation,conv_layers,epoch,test_top1\n")
        for act, depth, epoch, acc in rows:
            fh.write(f"{act},{depth},{epoch},{acc!r}\n")

    final: dict = {}
    for act, depth, epoch, acc in rows:
        key = (act, depth)
        if key not in final or epoch > final[key][0]:
            final[key] = (epoch, acc)
    with open(out / "accuracy_vs_depth.csv", "w") as fh:
        fh.write("activation,conv_layers,test_top1\n")
        for (act, depth), (_, acc) in sorted(final.items()):
            fh.write(f"{act},{depth},{acc!r}\n")
    n_series = len({act for act, *_ in rows})
    print(f"emit-plots: {len(rows)} records, {n_series} activation series -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oscnet", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("properties", help="verify the activation catalog")
    sp.add_argument("--out-dir", default="out")
    sp.set_defaults(func=cmd_properties)

    sx = sub.add_parser("xor", help="certify single-neuron XOR learnability")
    train = xorlab.TrainSpec()
    sx.add_argument("activation", help="activation id, e.g. squ, gcu, tanh")
    sx.add_argument("--out-dir", default="out")
    sx.add_argument("--lr", type=float, default=train.learning_rate)
    sx.add_argument("--epochs", type=int, default=train.epochs)
    sx.add_argument("--restarts", type=int, default=train.restarts)
    sx.add_argument("--seed", type=int, default=train.seed)
    sx.add_argument("--init-scale", type=float, default=train.init_scale)
    sx.set_defaults(func=cmd_xor)

    sb = sub.add_parser("bench", help="run the CNN benchmark matrix")
    sb.add_argument("--data-dir", default=None,
                    help="CIFAR-10 binary archive dir (or env OSC_DATA_DIR)")
    sb.add_argument("--out-dir", default="out")
    sb.add_argument("--activations", default="all")
    sb.add_argument("--conv-layers", default="1,2,3,4")
    sb.add_argument("--epochs", type=int, default=25)
    sb.add_argument("--batch", type=int, default=64)
    sb.add_argument("--lr", type=float, default=1e-4)
    sb.add_argument("--subset", type=int, default=None)
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--deterministic", action="store_true")
    sb.set_defaults(func=cmd_bench)

    se = sub.add_parser("emit-plots", help="reshape bench records into CSV series")
    se.add_argument("--records", required=True)
    se.add_argument("--out-dir", default="out")
    se.set_defaults(func=cmd_emit_plots)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
