#!/usr/bin/env python3
"""Record the reference states that later runs must reproduce.

    python3 perfbench/record.py --seeds 0-19

For each seed, renders every raster preset and classifies every query
point with the minsum of this checkout, and stores a digest of the
cell/verdict states in perfbench/recorded.json.  Run it once, on the
commit that defines the benchmark; a run whose seed is listed there
fails its output check if any state differs.  Seeds not listed are
checked against the independent reference only.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
from workloads import QUERY_POINTS, RASTER_RES, RECORDED_PATH, digest  # noqa: E402


def record(seed: int) -> dict:
    from minsum import membership, serialize

    raster = {}
    for spec in inputs.PRESETS:
        sc = inputs.scenario_dict(seed, spec, inputs.RASTER_DIM)
        scenario = serialize.scenario_from_json(inputs.scenario_text(sc))
        r = membership.rasterize_region(scenario, inputs.raster_bbox(sc), (RASTER_RES, RASTER_RES))
        raster[spec[0]] = digest("\n".join(c.state for c in r.cells))
    query = {}
    for label, sc in inputs.query_scenarios(seed):
        scenario = serialize.scenario_from_json(inputs.scenario_text(sc))
        pts = inputs.query_points(seed, sc, label, QUERY_POINTS)
        query[label] = digest("\n".join(membership.evaluate(scenario, p).state for p in pts))
    return {"raster": raster, "query": query}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-19", help="inclusive range a-b")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    try:
        with open(RECORDED_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for seed in range(lo, hi + 1):
        table[str(seed)] = record(seed)
        print(f"seed {seed} recorded", flush=True)
    with open(RECORDED_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
