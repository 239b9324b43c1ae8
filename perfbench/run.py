"""refined-chord benchmark: one command prints every metric with its unit.

    python3 perfbench/run.py --workload chord-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Run from the repository root; the package is imported from ``src/``. A run
sets the workload up, then repeats passes over its fixed inputs until
``--seconds`` have elapsed, checking every output against
``reference.json``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--quick`` runs every workload once at reduced size,
traced and untraced, checks that every metric named in BENCHMARK.json is
emitted, and checks that a wrong reference value is caught.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PKG_DIR = os.path.join(SRC, "refined_chord")

from tracing import LAYERS, HARNESS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    NOMINAL_KERNEL_S,
    WORKLOADS,
    Workload,
    calibrated,
    kernel_seconds,
    load_reference,
)

SETUP_CHILDREN = 6
MB = 1024.0  # ru_maxrss is in KiB on Linux


def machine_note(seed: int) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"machine: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"cpu {cpu}, workload seed {seed}"
    )


def child_setup_seconds(name: str, seed: int, quick: bool) -> float:
    """Set-up time measured in a fresh interpreter, so the package's
    imports are paid again."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def timed_setup(wl: Workload) -> float:
    """Set-up time in calibrated seconds (see ``workloads.calibrated``)."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t0
    return calibrated(elapsed, before, kernel_seconds())


def run_passes(wl: Workload, seconds: float, new_cache, quick: bool,
               tracer=None, between=None):
    """Repeat passes until ``seconds`` have elapsed (one pass when quick).
    ``between`` is called after each pass with the share of time used.
    Returns each pass's summed call time and wall time, the call
    latencies, and the operations attempted and failed."""
    call_sums, walls, latencies = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            lat, total, att, fail = wl.run_pass(new_cache)
        else:
            lat, total, att, fail = tracer.profiled(lambda: wl.run_pass(new_cache))
        walls.append(time.perf_counter() - t0)
        call_sums.append(total)
        latencies += lat
        attempted += att
        failed += fail
        if between is not None:
            between((time.perf_counter() - start) / seconds if seconds else 1.0)
        if quick or time.perf_counter() - start >= seconds:
            return call_sums, walls, latencies, attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace, quick, reference, setup_children):
    """One benchmark run; returns (attempted, failed, metrics, errors, note)."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        wl = Workload(name, seed, quick, reference, work, calibrate=not trace)
        setups = [timed_setup(wl)]
        if not trace:
            # fresh-interpreter set-ups, spread over the run so that their
            # median sees the same machine as the passes
            def spread_setups(progress):
                while len(setups) <= min(setup_children, progress * setup_children):
                    setups.append(child_setup_seconds(name, seed, quick))

            passes, _, lats, att, fail = run_passes(
                wl, seconds, dict, quick, between=spread_setups)
            spread_setups(1.0)
            qs = statistics.quantiles(lats, n=10)
            metrics = {
                "wall_s": metric(statistics.median(passes), "s"),
                "call_p50_ms": metric(statistics.median(lats) * 1e3, "ms"),
                "call_p90_ms": metric(qs[8] * 1e3, "ms"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB, "MB"),
            }
            note = (f"{len(passes)} passes, {len(lats)} calls, {len(setups)} set-ups, "
                    f"failed_frac {fail}/{att}; calibration kernel median "
                    f"{statistics.median(wl.kernels) * 1e3:.3f} ms "
                    f"(nominal {NOMINAL_KERNEL_S * 1e3:g} ms)")
            return att, fail, metrics, wl.errors, note
        # traced run, uncalibrated: untraced passes for half the time, then
        # traced passes
        _, plain, _, att0, fail0 = run_passes(wl, seconds / 2, dict, quick)
        tracer = Tracer(PKG_DIR, BENCH_DIR)
        wl.oracle_calls = 0
        with tracer.installed(wl.pkg, wl.cli):
            _, traced, _, att, fail = run_passes(
                wl, seconds / 2, tracer.new_cache, quick, tracer)
        metrics = layer_metrics(tracer, traced, plain, wl.oracle_calls)
        att += att0
        fail += fail0
        metrics["failed_frac"] = metric(fail / att, "1")
        note = (f"{len(plain)} untraced and {len(traced)} traced passes, "
                f"per-pass layer figures, failed_frac {fail}/{att}")
        return att, fail, metrics, wl.errors, note


def layer_metrics(tracer: Tracer, traced, plain, oracle_calls):
    n = len(traced)
    c, t = tracer.counts, tracer.times
    self_times = tracer.self_times()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(self_times[layer] / n, "s")
    out[f"{HARNESS}.self_s"] = metric(self_times[HARNESS] / n, "s")
    traced_wall = sum(traced) / n
    out["traced_wall_s"] = metric(traced_wall, "s")
    out["tracing_overhead"] = metric(traced_wall / (sum(plain) / len(plain)), "x")

    def ratio(num, den):
        return num / den if den else 0.0

    counted = {
        "chord_recursion.subdegrees_solved": c["subdegrees_solved"] / n,
        "chord_recursion.cache_hits": c["cache_hits"] / n,
        "chord_recursion.suffix_states": c["suffix_states"] / n,
        "chord_recursion.candidates": c["candidates"] / n,
        "refined_poly.mul_calls": c["mul_calls"] / n,
        "refined_poly.add_calls": c["add_calls"] / n,
        "refined_poly.term_products": c["term_products"] / n,
        "direct_enumerator.trees": c["trees"] / n,
        "direct_enumerator.solutions": c["solutions"] / n,
        "direct_enumerator.redraws": max(0, c["solutions_calls"] - oracle_calls) / n,
        "cli.cache_entries": ratio(c["cache_entries"], c["loads"]),
        "cli.cache_bytes": ratio(c["cache_bytes"], c["loads"]),
    }
    for name, value in counted.items():
        out[name] = metric(None if name in tracer.absent else value, "count")
    out["chord_recursion.cache_hit_ratio"] = metric(
        ratio(c["cache_hits"], c["cache_lookups"]), "1")
    out["direct_enumerator.solve_ratio"] = metric(ratio(c["solutions"], c["trees"]), "1")
    for key in ("load_s", "save_s", "parse_s"):
        out[f"cli.{key}"] = metric(t[key] / n, "s")
    for layer in LAYERS:
        with open(os.path.join(PKG_DIR, layer + ".py"), encoding="utf-8") as fh:
            out[f"{layer}.src_lines"] = metric(sum(1 for _ in fh), "count")
    return out


def quick_check(reference) -> int:
    """Each workload once at reduced size, both modes; every named metric
    emitted; layer self times account for the traced pass; a wrong
    reference value is caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            att, fail, metrics, errors, _ = run_workload(
                name, 0, 0, trace, True, reference, 1)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in metrics.items()}
            if want != got:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(want) ^ set(got))}"
                                f" or units differ")
            if fail or not att:
                problems.append(f"{name} trace {trace}: {fail}/{att} failed {errors}")
            if trace:
                layers = sum(metrics[f"{x}.self_s"]["value"] for x in LAYERS + (HARNESS,))
                share = layers / metrics["traced_wall_s"]["value"]
                print(f"{name}: layer self times cover {share:.1%} of the traced pass")
                if not 0.8 <= share <= 1.05:
                    problems.append(f"{name}: layer self times cover {share:.1%}")
            print(f"{name} trace {trace}: {len(metrics)} metrics, {fail}/{att} failed")
    values, prefill = reference
    wrong = dict(values)
    wrong["P2:4"] = {**values["P2:4"], 0: values["P2:4"][0] + 1}
    att, fail, _, _, _ = run_workload("chord-cold", 0, 0, 0, True, (wrong, prefill), 1)
    print(f"self-check with one wrong reference value: failed_frac {fail}/{att}")
    if not fail:
        problems.append("a wrong reference value was not caught")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PKG_DIR, "__init__.py")):
        print(f"error: package source not found at {PKG_DIR}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference = load_reference()
    if args.setup_only:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
            print(timed_setup(Workload(args.workload, args.seed, args.quick, reference, work)))
        return 0
    if args.quick and args.workload is None:
        return quick_check(reference)
    if args.workload is None:
        ap.error("--workload is required")
    print(machine_note(args.seed))
    att, fail, metrics, errors, note = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.quick,
        reference, SETUP_CHILDREN)
    print(f"workload {args.workload}: {note}")
    for err in errors:
        print("error:", err)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": fail == 0, "attempted": att, "failed": fail,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
