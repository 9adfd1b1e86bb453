#!/usr/bin/env python3
"""Replay the verify corpus and print every run's stdout and exit code.

The corpus is 388 `verify` runs, and 5 runs of the other scenario
commands per preset file:

* the benchmark's verify preset files (perfbench/inputs.py) of seeds 0,
  1009 and 7: 8 cycles of 4 variants of 4 presets, each run as
  `verify <file> --points 50 --seed <seed * 1000 + cycle>`, then as
  `check` at the first 3 points that verify samples, `bounds` and
  `focal`;
* `verify --random` at 8x60, 4x100, 24x150 and 6x40 (seeds x points).

The scenario files go to a temporary directory, and every run goes
through cli.main in-process, its stderr dropped.  One line per run:
`<run-id>\t<stdout as compact JSON>\t<exit code>`, with an empty JSON
field when the run wrote nothing (`focal` on a pattern it does not
cover exits 66).  Two checkouts that decide and print alike print the
same lines, so `diff` of their outputs checks a change to the oracle or
to what the commands write:

    python scripts/verify_corpus.py > corpus.txt

With --times, each run's wall time in ms (`<run-id>\t<ms>`) and the
total go to stderr; stdout is the same with or without it:

    python scripts/verify_corpus.py --times > corpus.txt 2> times.txt

With --projection-stats, each run's calls of the batched projection
solver are summed on stderr as `<run-id>\t<JSON>`: rows by status and
the batch calls; a `total` line follows.  stdout is again the same:

    python scripts/verify_corpus.py --projection-stats > corpus.txt 2> stats.txt
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from minsum import _projection, cli, serialize  # noqa: E402

SEEDS = (0, 1009, 7)
CYCLES = 8
VARIANTS = 4
POINTS = 50
CHECKS = 3
RANDOM = ((8, 60), (4, 100), (24, 150), (6, 40))


def preset_runs(tmp: str):
    """(run id, argv) of every preset file, written to tmp as the
    benchmark writes them: its verify run, then check at the first
    CHECKS points verify samples, bounds and focal."""
    for seed in SEEDS:
        for c in range(CYCLES):
            for spec in inputs.VERIFY_PRESETS:
                for k in range(VARIANTS):
                    variant = c * VARIANTS + k
                    name = spec[0] + (f"_v{variant}" if variant else "")
                    text = inputs.scenario_text(
                        inputs.scenario_dict(seed, spec, inputs.RASTER_DIM, variant))
                    path = os.path.join(tmp, f"s{seed}_{name}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    run_id, point_seed = f"seed{seed}/c{c}/{name}", seed * 1000 + c
                    yield run_id, ["verify", path, "--points", POINTS, "--seed", point_seed]
                    points = cli._sample_points(serialize.scenario_from_json(text), CHECKS,
                                                point_seed)
                    for j, point in enumerate(points.tolist()):
                        yield f"{run_id}/check{j}", ["check", path, "--point", *point]
                    yield f"{run_id}/bounds", ["bounds", path]
                    yield f"{run_id}/focal", ["focal", path]


def random_runs():
    for seeds, points in RANDOM:
        yield f"random/{seeds}x{points}", ["verify", "--random", "--seeds", seeds, "--points", points]


def run(argv) -> tuple[str, int]:
    """cli.main on argv in-process: its stdout as compact JSON ("" when
    it wrote none) and its exit code.  Its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    text = out.getvalue()
    return (json.dumps(json.loads(text), separators=(",", ":")) if text else ""), code


def projection_stats(batches) -> dict:
    """Rows by status and batch calls, over batch_block_projection
    results."""
    stats = dict.fromkeys(_projection._STATUS.tolist(), 0)
    for status, _ in batches:
        for s in status.tolist():
            stats[s] += 1
    return {**stats, "batches": len(batches)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Replay the verify corpus.")
    parser.add_argument(
        "--times", action="store_true", help="write each run's wall time in ms to stderr"
    )
    parser.add_argument(
        "--projection-stats", action="store_true",
        help="write each run's batched projection rows by status to stderr",
    )
    args = parser.parse_args(argv)
    total = 0.0
    batches, every = [], []
    solve = _projection.batch_block_projection

    def recorded(*a):
        out = solve(*a)
        batches.append(out)
        return out

    patch = (
        mock.patch.object(_projection, "batch_block_projection", recorded)
        if args.projection_stats
        else contextlib.nullcontext()
    )
    with tempfile.TemporaryDirectory() as tmp, patch:
        for run_id, argv in [*preset_runs(tmp), *random_runs()]:
            start = time.perf_counter()
            compact, code = run(argv)
            ms = (time.perf_counter() - start) * 1e3
            total += ms
            print(f"{run_id}\t{compact}\t{code}", flush=True)
            if args.times:
                print(f"{run_id}\t{ms:.3f}", file=sys.stderr)
            if args.projection_stats:
                print(f"{run_id}\t{json.dumps(projection_stats(batches))}", file=sys.stderr)
                every += batches
                batches.clear()
    if args.times:
        print(f"total\t{total:.3f}", file=sys.stderr)
    if args.projection_stats:
        print(f"total\t{json.dumps(projection_stats(every))}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
