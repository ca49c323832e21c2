"""catalog-xor: `oscnet properties`, then `oscnet xor <id>` for every catalog id.

Both commands run in-process through ``oscnet.cli.main``.  The seed fixes
the order of the ids and the trainer seed passed as ``xor --seed``; every
other flag keeps its CLI default.  A pass is one ``xor`` call per id with
PROPERTY_REPEATS runs of ``properties`` spread between them.  Passes repeat
while a further pass fits in the time budget, and at least one pass always
runs.

Set-up is importing the package afresh (the catalog and its descriptors are
built at import), the only work that precedes the first command.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from statistics import median

import numpy as np

from common import Result, oscnet_modules, peak_rss_mb

# The grid-search oracle at the CLI defaults (bound 5, resolution 0.1): these
# ids have a four-point certificate and `oscnet xor` exits 0; the others have
# none and it exits 5.  z_sq_cos certifies although its catalog flag is false,
# so the flag is not the oracle.
CERTIFIED = frozenset({"sine", "squ", "ncu", "ssu", "gcu", "dsu", "z_sq_cos"})
EXIT_OK, EXIT_XOR = 0, 5
IMPORT_REPEATS = 9
PROPERTY_REPEATS = 5
# a traced run also runs these untraced first, as the tracing-overhead baseline
CALIBRATION_IDS = ("relu", "gcu", "tanh")


def fresh_import():
    """Import oscnet.cli with no oscnet module cached; (seconds, module)."""
    for name in [m for m in sys.modules if m == "oscnet" or m.startswith("oscnet.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("oscnet.cli")
    return time.perf_counter() - t0, cli


def call_cli(cli, argv: list, tracer=None):
    """Run one CLI command with its output captured; (exit code, seconds, output)."""
    out = io.StringIO()
    if tracer is not None:
        tracer.begin_op()
        tracer.install()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), span:
            rc = cli.main(argv)
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return rc, dt, out.getvalue()


def properties_pass(cli, n_ids: int, out_dir, res: Result, tracer=None) -> float:
    """One `oscnet properties`; each catalog row is one operation."""
    report = out_dir / "properties.json"
    report.unlink(missing_ok=True)
    rc, dt, text = call_cli(cli, ["properties", "--out-dir", str(out_dir)], tracer)
    try:
        rows = json.loads(report.read_text())
    except (OSError, ValueError):
        rows = []
    bad = [r["id"] for r in rows if r["contradictions"]]
    if tracer is not None:
        tracer.count("properties.contradictions", sum(len(r["contradictions"]) for r in rows))
    ok = rc == EXIT_OK and len(rows) == n_ids and not bad
    res.check("properties exits 0 with every row and no contradiction", ok,
              "" if ok else f"exit {rc}, {len(rows)} rows, contradictions in {bad}: "
                            f"{text.strip()[-200:]}")
    for _ in range(n_ids - len(rows)):
        res.op(False)
    for r in rows:
        res.op(not r["contradictions"])
    return dt


def check_certificate(acts, xorlab, ident: str, rc: int, path) -> str:
    """Why the exit code or certificate file is wrong, or "" when both are right."""
    expected = EXIT_OK if ident in CERTIFIED else EXIT_XOR
    if rc != expected:
        return f"exit {rc}, the grid-search oracle expects {expected}"
    try:
        cert = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"certificate file unreadable: {exc}"
    if cert["valid"] != (rc == EXIT_OK):
        return f"certificate valid={cert['valid']} disagrees with exit {rc}"
    if rc == EXIT_OK:  # re-evaluate the four margins instead of trusting the file
        (w1, w2), b = cert["w"], cert["b"]
        data = xorlab.xor_dataset()
        for (x1, x2), label in zip(data.inputs, data.labels):
            m = acts.evaluate(acts.ActivationId(ident), w1 * x1 + w2 * x2 + b)
            if not (abs(m) > xorlab.MARGIN_TOL and (m > 0) == (label > 0)):
                return f"margin {m!r} at ({x1}, {x2}) does not match label {label}"
    return ""


def run(seed: int, seconds: float, out_dir, tracer=None) -> Result:
    res = Result()
    setup_times = []
    for _ in range(IMPORT_REPEATS):
        dt, cli = fresh_import()
        setup_times.append(dt)
    modules = oscnet_modules()
    acts, xorlab = modules["activations"], modules["xorlab"]
    ids = [a.value for a in acts.all_ids()]
    order = [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
    work = out_dir / "catalog"
    work.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.wrap_oscnet(modules)

    def xor_call(ident, traced):
        cert = work / f"xor_{ident}_certificate.json"
        cert.unlink(missing_ok=True)
        rc, dt, text = call_cli(cli, ["xor", ident, "--out-dir", str(work),
                                      "--seed", str(seed + 1)], tracer if traced else None)
        why = check_certificate(acts, xorlab, ident, rc, cert)
        res.op(res.check(f"xor {ident}", not why, why and f"{why}: {text.strip()[-200:]}"))
        return dt

    baseline = {ident: xor_call(ident, False) for ident in CALIBRATION_IDS} if tracer else {}
    plain_props, traced_props, pass_sums, calls_ms = [], [], [], []
    per_id: dict = {ident: [] for ident in order}
    start = time.perf_counter()
    # `properties` runs are spread over the pass, so their median samples the
    # whole pass rather than one slow or fast spell of a shared machine
    props_before = {i * len(order) // PROPERTY_REPEATS for i in range(PROPERTY_REPEATS)}
    while True:
        pass_start = time.perf_counter()
        xor_sum = 0.0
        for index, ident in enumerate(order):
            if index in props_before:
                # a traced run alternates plain and traced runs of `properties`
                traced = tracer is not None and len(plain_props) > len(traced_props)
                dt = properties_pass(cli, len(ids), work, res, tracer if traced else None)
                (traced_props if traced else plain_props).append(dt)
            dt = xor_call(ident, tracer is not None)
            per_id[ident].append(dt)
            calls_ms.append(1e3 * dt)
            xor_sum += dt
        pass_sums.append(xor_sum)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break

    verify_s = median(plain_props)
    xor_s = median(pass_sums)
    res.metrics = {
        "train_items_per_s": (len(ids) * len(pass_sums) / sum(pass_sums), "1/s"),
        "step_ms_p50": (median(calls_ms), "ms"),
        "step_ms_p90": (np.percentile(calls_ms, 90), "ms"),
        "eval_items_per_s": (len(ids) / verify_s, "1/s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    res.put("catalog_verify_s", verify_s, "s", len(plain_props))
    res.put("xor_certify_s", xor_s, "s", len(pass_sums))
    res.put("xor_call_ms_p50", median(calls_ms), "ms", len(calls_ms))
    res.put("xor_call_ms_p90", np.percentile(calls_ms, 90), "ms", len(calls_ms))
    res.put("setup_s", median(setup_times), "s", IMPORT_REPEATS)
    res.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
    res.put("failed_frac", res.failed / res.attempted, "ratio", res.attempted)
    res.detail = {ident: {"xor_s": median(ts)} for ident, ts in per_id.items()}
    if tracer is not None:
        plain = verify_s + sum(baseline.values())
        traced = median(traced_props) + sum(per_id[i][0] for i in CALIBRATION_IDS)
        res.overhead_pct = 100.0 * (traced / plain - 1.0)
    return res
