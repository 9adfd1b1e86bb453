#!/usr/bin/env python3
"""Render the potential-minimizer set for a few representative scenarios.

Writes, per preset: the scenario JSON, a full-precision CSV raster, and
an SVG picture (inside cells colored; for the bounded two-nonsmooth
pattern the color encodes which sufficient clause fired first).

Usage:
    python scripts/render_figures.py --outdir figures --res 160
"""
from __future__ import annotations

import argparse
import math
import os

import numpy as np

from minsum import (
    ClassParams,
    Scenario,
    Summand,
    rasterize_region,
    raster_to_csv_text,
    raster_to_svg_text,
    save_scenario,
)


def _s(x, y, mu, big_l):
    return Summand(np.array([float(x), float(y)]), ClassParams(mu, big_l))


PRESETS = {
    # two smooth summands, moderately and strongly curved
    "smooth_pair": (
        Scenario((_s(-1, 0, 1.0, 5.0), _s(1, 0, 1.0, 15.0))),
        (-1.5, 1.5, -1.0, 1.0),
    ),
    # smooth against nonsmooth: the set is an angular eye around the anchors
    "smooth_nonsmooth": (
        Scenario((_s(-1, 0, 1.0, 4.0), _s(1, 0, 3.0, math.inf))),
        (-1.5, 1.5, -1.0, 1.0),
    ),
    # three smooth summands
    "smooth_triple": (
        Scenario(
            (_s(-1, 0, 0.5, 3.0), _s(1, 0, 1.0, 8.0), _s(0, 1.2, 1.0, 5.0))
        ),
        (-1.8, 1.8, -1.2, 2.0),
    ),
    # two smooth plus one nonsmooth summand
    "mixed_triple": (
        Scenario(
            (_s(-1, 0, 1.0, 6.0), _s(1, 0, 1.0, 6.0), _s(0, 1.0, 2.0, math.inf))
        ),
        (-1.8, 1.8, -1.2, 1.8),
    ),
    # two nonsmooth summands under a gradient cap
    "bounded_pair": (
        Scenario(
            (_s(-1, 0, 1.75, math.inf), _s(1, 0, 2.0, math.inf)), bound_B=3.0
        ),
        (-2.0, 2.0, -2.0, 2.0),
    ),
    # same, but one summand merely convex: the set loses one lobe
    "bounded_pair_flat": (
        Scenario(
            (_s(-1, 0, 1.75, math.inf), _s(1, 0, 0.0, math.inf)), bound_B=3.0
        ),
        (-2.0, 3.5, -2.5, 2.5),
    ),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--res", type=int, default=160, help="cells per axis")
    ap.add_argument(
        "--presets", nargs="*", choices=sorted(PRESETS), default=sorted(PRESETS)
    )
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    for name in args.presets:
        scenario, bbox = PRESETS[name]
        raster = rasterize_region(scenario, bbox, (args.res, args.res))
        base = os.path.join(args.outdir, name)
        save_scenario(scenario, base + ".json")
        with open(base + ".csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(raster_to_csv_text(raster))
        with open(base + ".svg", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(raster_to_svg_text(raster))
        # state codes are 0 outside, 1 boundary, 2 inside
        admitted = int(np.count_nonzero(raster.states))
        print(
            f"{name}: {raster.predicate}, {admitted}/{raster.states.size} cells admitted"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
