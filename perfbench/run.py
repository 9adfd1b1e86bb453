#!/usr/bin/env python3
"""minsum benchmark.

    python3 perfbench/run.py --workload raster --seed 1 --seconds 40 --trace 0

Runs one closed-loop workload (raster, verify or query; `all` runs the
three, each in its own interpreter) against the minsum source tree of
the checkout it sits in, checks every output, and prints as its last
stdout line one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1
every cycle of operations runs untraced and then traced on the same
inputs, and the run reports the per-layer metrics.
The line before it is a report with the workload's own named metrics
and the machine facts.  Full results and the spans of a traced run are
written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time

from workloads import (COLD_CHECKS, SETUP_REPEATS, interquartile_mean, median,
                       peak_rss_mb, slim)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("raster", "verify", "query")
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s",
             "op_p50_ms": "ms", "cold_check_s": "s"}


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        commit = ref
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
        "loadavg_at_start": os.getloadavg()[0],
    }


def setup(run, wl) -> float:
    t0 = time.perf_counter()
    run.fresh_import()
    wl.make_inputs()
    wl.warm_up()
    return time.perf_counter() - t0


def run_phase(run, wl, seconds: float, setups: list, cold: list, marks: dict,
              tracer=None) -> tuple:
    """Whole rotations of operations, one at a time, until the next
    rotation would end past `seconds` (at least one rotation).  A
    rotation is `wl.rotation` cycles and runs every operation shape of
    the workload once, so every run has the same mix of shapes.

    The set-up is repeated at cycle ends and the cold checks run between
    operations, both spread over the run so that no single stretch of
    machine speed decides them; neither falls inside an operation's
    timing.  With a tracer, every operation runs twice, untraced and
    traced on the same input, one right after the other, so the
    machine's drift cancels out of the tracing overhead.  Returns the
    untraced and the traced operations.
    """
    target = wl.cold_target()
    ops, traced = [], []

    def timed(op, c, into):
        wl.execute(op)
        op["ok"] = wl.check(op)
        op["cycle"] = c
        into.append(slim(op))

    def timed_traced(op, c):
        tracer.install()
        try:
            tracer.op = len(traced)
            wl.execute(op)
        finally:
            tracer.op = -1
            tracer.uninstall()
        op["ok"] = wl.check(op)
        op["cycle"] = c
        traced.append(slim(op))

    start = time.perf_counter()
    for c in itertools.count():
        if c % wl.rotation == 0:
            rotation_start = time.perf_counter()
        for k, op in enumerate(wl.cycle(c)):
            if len(cold) < COLD_CHECKS and (
                    time.perf_counter() - start >= len(cold) * seconds / COLD_CHECKS):
                path, scenario, points = target
                cold.append(run.cold_check(path, scenario, points[len(cold)]))
            if tracer is None:
                timed(op, c, ops)
            elif (k + c // wl.rotation) % 2 == 0:
                # the second run of an input finds warmer caches:
                # alternate which of the pair goes first
                twin = dict(op)
                timed(op, c, ops)
                timed_traced(twin, c)
            else:
                twin = dict(op)
                timed_traced(twin, c)
                timed(op, c, ops)
        if c == wl.rotation - 1:
            marks["rss_after_first_rotation"] = peak_rss_mb()
        now = time.perf_counter()
        last = (c + 1) % wl.rotation == 0 and (now - start) + (now - rotation_start) > seconds
        if len(setups) <= SETUP_REPEATS and (
                last or now - start >= len(setups) * seconds / (SETUP_REPEATS + 1)):
            setups.append(setup(run, wl))
        if last:
            while len(cold) < COLD_CHECKS:
                path, scenario, points = target
                cold.append(run.cold_check(path, scenario, points[len(cold)]))
            return ops, traced


def run_one(args) -> tuple:
    import workloads
    from workloads import Run, tail_stat

    facts = machine_facts(args.seed)
    run = Run(ROOT, args.seed, os.path.join(OUTDIR, args.workload))
    wl = workloads.WORKLOADS[args.workload](run)

    setups = [setup(run, wl)]
    cold = []
    marks = {}
    tracer = None
    if args.trace:
        from tracing import Tracer
        import layers

        tracer = Tracer()
    ops, traced = run_phase(run, wl, args.seconds, setups, cold, marks, tracer)
    report = {"workload": args.workload, "trace": args.trace, "machine": facts}
    layer = None
    all_ops = ops + traced
    if args.trace:
        for i, (plain, t) in enumerate(zip(ops, traced)):
            if plain.get("output_digest") != t.get("output_digest"):
                run.problem(f"traced op {i} ({t['kind']}) output differs from untraced")
        extra = {
            "import_times": run.import_times(),
            "overhead_ratio": wl.work_rate(ops) / wl.work_rate(traced) - 1.0,
        }
        if hasattr(wl, "peak_alloc_mb"):
            extra["rasterize_peak_alloc_mb"] = wl.peak_alloc_mb()
        spans = tracer.spans()
        layer = layers.per_layer(tracer, spans, traced, extra)
        os.makedirs(OUTDIR, exist_ok=True)
        tracer.save(os.path.join(OUTDIR, f"spans_{args.workload}.npz"), spans)
        report["spans"] = int(len(spans["ident"]))
        if args.workload == "raster":
            report["region_time_share"] = layers.region_time_share(tracer, spans)

    if hasattr(wl, "recorded_digests") and run.recorded is not None:
        want = run.recorded.get(args.workload, {})
        for label, d in wl.recorded_digests(ops).items():
            if label in want and want[label] != d:
                run.problem(f"{args.workload} {label}: verdicts differ from the seed commit's")

    run.attempted += len(all_ops)
    run.failed += sum(1 for o in all_ops if not o["ok"])
    lat_ms = [o["latency"] * 1e3 for o in ops if o["latency_op"]]
    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": marks["rss_after_first_rotation"],
        "work_per_s": wl.work_rate(ops),
        "op_p50_ms": median(lat_ms),
        # a cold start lands in one of a few speed modes of the machine;
        # the middle half's mean moves smoothly with their mix where a
        # median would jump from one mode to the next
        "cold_check_s": interquartile_mean(cold),
    }
    tail, pct, n = tail_stat(lat_ms)
    named = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    named["op_p50_ms"]["samples"] = n
    named["op_tail_ms"] = {"value": tail, "unit": "ms", "percentile": pct, "samples": n}
    named["cold_check_s"]["samples"] = len(cold)
    named["setup_s"]["samples"] = len(setups)
    named.update(wl.finish(ops))
    # `failed` counts wrong outputs only.  An unresolved operation, where
    # the program declined to answer (query: a WitnessRecoveryError or a
    # witness its own strict certification rejects; verify: an
    # indeterminate oracle point), is no wrong output, but fail_share counts it
    unresolved = sum(1 for o in all_ops if o.get("unresolved"))
    named["fail_share"] = {"value": (run.failed + unresolved) / run.attempted,
                           "unit": "ratio", "wrong_outputs": run.failed,
                           "unresolved": unresolved}
    report["named_metrics"] = named
    report["problems"] = run.problems
    correct = not run.problems
    metrics = layer if args.trace else {k: named[k] for k in E2E_UNITS}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": float(v["value"]), "unit": v["unit"]}
                          for k, v in metrics.items()}}
    os.makedirs(OUTDIR, exist_ok=True)
    with open(os.path.join(OUTDIR, f"result_{args.workload}_{args.seed}_t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1, default=float)
    return report, result


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "minsum", "__init__.py")):
        print(f"perfbench: no minsum source tree at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, HERE)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    os.environ.pop("MINSUM_TOL", None)
    report, result = run_one(args)
    print(json.dumps(report, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
