"""Command line front end.

Exit codes:
    0   success (for `check`: the point is a potential minimizer)
    1   for `check`: the point is ruled out; for `verify`: mismatches found
    2   for `check`: on the boundary at working tolerance
    64  unreadable or malformed input (files, JSON, numbers, usage), or
        arithmetic beyond the float range
    65  dimension mismatch between points and scenario
    66  scenario pattern not covered by any implemented test
    141 standard output closed early (128 + SIGPIPE: `minsum ... | head`)
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import bounds as bounds_mod
from . import membership, oracle
from .geometry import BOUNDARY, DimensionMismatchError, INSIDE, OUTSIDE
from .membership import STATE_NAMES, Scenario, UnsupportedPatternError
from .serialize import (
    ScenarioFormatError,
    _json_value,
    load_scenario,
    raster_to_csv_text,
    raster_to_svg_text,
    verdict_to_dict,
)

EXIT_INSIDE = 0
EXIT_OUTSIDE = 1
EXIT_BOUNDARY = 2
EXIT_USAGE = 64
EXIT_DIMENSION = 65
EXIT_UNSUPPORTED = 66
EXIT_BROKEN_PIPE = 141

_STATE_CODES = {INSIDE: EXIT_INSIDE, OUTSIDE: EXIT_OUTSIDE, BOUNDARY: EXIT_BOUNDARY}


# argparse's own pattern (-1, -.5) misses exponents, so it would take
# -1e3 for an option flag
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # sub-commands are _Parsers too, so every numeric argument is covered
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse normally exits 2 on usage errors; 2 means "boundary" here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _count(text: str) -> int:
    """A count of seeds or points, or a seed: an int of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


class _StdoutClosed(Exception):
    """Standard output's reader went away (`minsum ... | head`)."""


def _emit(obj):
    # flushed here, so a closed pipe shows here, not in the
    # interpreter's flush at exit
    try:
        print(json.dumps(_json_value(obj), indent=2, allow_nan=False), flush=True)
    except BrokenPipeError:
        raise _StdoutClosed from None


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    point = np.array(args.point, dtype=float)
    verdict = membership.evaluate(scenario, point)
    _emit(verdict_to_dict(verdict, predicate=scenario.pattern))
    return _STATE_CODES[verdict.state]


def cmd_region(args) -> int:
    scenario = load_scenario(args.scenario)
    nx, ny = args.res
    try:
        raster = membership.rasterize_region(scenario, tuple(args.bbox), (nx, ny))
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(raster_to_csv_text(raster))
        if args.svg:
            with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(raster_to_svg_text(raster))
    except MemoryError:
        raise ValueError(
            f"--res {nx} {ny}: {nx * ny} cells do not fit in memory") from None
    counts = np.bincount(raster.states, minlength=len(STATE_NAMES)).tolist()
    counts = dict(zip(STATE_NAMES, counts))
    _emit(
        {
            "predicate_used": raster.predicate,
            "cells": raster.states.size,
            "inside": counts[INSIDE],
            "boundary": counts[BOUNDARY],
            "outside": counts[OUTSIDE],
            "out": args.out,
            "svg": args.svg,
        }
    )
    return 0


def cmd_bounds(args) -> int:
    scenario = load_scenario(args.scenario)
    info = bounds_mod.scenario_bound_reports(scenario)
    reports = [
        {"bound_value": r.bound_value, "binding_term": r.binding_term, "kappa": r.kappa}
        for r in info["reports"]
    ]
    enclosing = info["enclosing"]
    _emit(
        {
            "reports": reports,
            "enclosing": {"center": enclosing.center, "radius": enclosing.radius},
            "focal": info["focal"],
            "notes": info["notes"],
        }
    )
    return 0


def _sample_points(scenario: Scenario, count: int, seed: int) -> np.ndarray:
    """Uniform points over the anchor bounding box, padded enough to
    reach well outside the potential set."""
    anchors = np.array([s.x_star for s in scenario.summands], dtype=float)
    lo = anchors.min(axis=0)
    hi = anchors.max(axis=0)
    spread = float(np.max(hi - lo))
    pad = 1.0 + spread
    if scenario.bound_B is not None and math.isfinite(scenario.bound_B):
        mu_sum = sum(s.params.mu for s in scenario.summands)
        if mu_sum > 0:
            pad = max(pad, scenario.bound_B / mu_sum + spread)
    lo, hi = lo - pad, hi + pad
    if not np.all(np.isfinite(hi - lo)):
        raise ValueError(
            f"the anchor box padded by {pad:.6g} on each side, where verify "
            "samples its points, is wider than the float range"
        )
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, (count, anchors.shape[1]))


def _verify_one(scenario: Scenario, points: int, seed: int) -> dict:
    pts = _sample_points(scenario, points, seed)
    report = oracle.cross_check(scenario, pts)
    out = {
        "points": report.total,
        "checked": report.checked,
        "boundary_skipped": report.boundary_skipped,
        "indeterminate": report.indeterminate,
        "mismatches": report.mismatches,
    }
    if all(s.params.is_smooth for s in scenario.unknown_summands):
        sweep = oracle.necessity_sweep(scenario, range(seed, seed + 25))
        out["necessity"] = {
            "instances": sweep["instances"],
            "worst_margin": sweep["worst_margin"],
            "failures": sweep["failures"],
        }
    return out


def cmd_verify(args) -> int:
    if args.random:
        if args.seed is not None:
            raise ValueError("--seed applies to a scenario file; --random run k uses seed 1000 + k")
        results = []
        failed = False
        for k in range(args.seeds):
            scenario = (
                oracle.random_smooth_scenario(k)
                if k % 2 == 0
                else oracle.random_two_nonsmooth_scenario(k)
            )
            res = _verify_one(scenario, args.points, seed=1000 + k)
            res["seed"] = k
            failed = failed or res["mismatches"] or res.get("necessity", {}).get("failures")
            results.append(res)
        _emit({"runs": results, "ok": not failed})
        return 0 if not failed else 1
    if not args.scenario:
        raise ScenarioFormatError("verify needs a scenario file or --random")
    scenario = load_scenario(args.scenario)
    res = _verify_one(scenario, args.points, seed=args.seed or 0)
    ok = not res["mismatches"] and not res.get("necessity", {}).get("failures")
    res["ok"] = bool(ok)
    _emit(res)
    return 0 if ok else 1


def cmd_focal(args) -> int:
    scenario = load_scenario(args.scenario)
    point = membership.focal_point(scenario.summands)
    smooth = all(s.params.is_smooth for s in scenario.summands)
    _emit(
        {
            "focal": point,
            "weighting": "smoothness" if smooth else "moduli",
        }
    )
    return 0


@functools.cache
def build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(
        prog="minsum",
        description=(
            "Decide which points can minimize a sum of convex functions known "
            "only through per-summand minimizers and class constants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a single candidate point")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--point", nargs="+", type=float, required=True, metavar="COORD")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("region", help="rasterize the potential set over a 2-d box")
    p.add_argument("scenario")
    p.add_argument(
        "--bbox", nargs=4, type=float, required=True,
        metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
    )
    p.add_argument("--res", nargs=2, type=int, required=True, metavar=("NX", "NY"))
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--svg", help="SVG output path")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; the raster is one array computation",
    )
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("bounds", help="distance and radius bounds for the set")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="cross-check closed forms against oracles")
    p.add_argument("scenario", nargs="?")
    p.add_argument("--random", action="store_true", help="use generated scenarios")
    p.add_argument("--seeds", type=_count, default=6, help="scenario count for --random")
    p.add_argument("--points", type=_count, default=200)
    p.add_argument("--seed", type=_count, default=None,
                   help="point sampling seed for a scenario file (default 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("focal", help="distinguished interior point of the set")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_focal)

    return parser


def _drop_stdout():
    """Point standard output at os.devnull, so what is left in its buffer
    goes nowhere at exit (the recipe in the docs of Python's signal
    module); a stream with no file descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises for usage errors (rewritten to 64) and --help (0)
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _StdoutClosed:
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except DimensionMismatchError as exc:
        print(f"minsum: dimension error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except UnsupportedPatternError as exc:
        print(f"minsum: unsupported pattern: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ScenarioFormatError, OSError, ValueError, ArithmeticError) as exc:
        print(f"minsum: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
