"""Seeded input generation for the minsum benchmark.

Everything the program receives is made here from the workload seed:
scenario JSON text, raster bounding boxes and point lists.  The
generator uses only numpy's seeded Generator and the standard json
module, never minsum itself, so the same seed gives byte-identical
inputs on every commit of the program.
"""
from __future__ import annotations

import json

import numpy as np

# (name, number of smooth unknowns, nonsmooth unknowns, known summands)
PRESETS = (
    ("two_smooth", 2, 0, 0),
    ("m_smooth3", 3, 0, 0),
    ("m_smooth5", 5, 0, 0),
    ("one_nonsmooth2", 1, 1, 0),
    ("one_nonsmooth3", 2, 1, 0),
    ("known_smooth", 2, 0, 1),
    ("known_one_nonsmooth", 1, 1, 1),
    ("two_nonsmooth_bounded", 0, 2, 0),
)

# The predicate each preset routes to (minsum.membership.route).
PATTERN_OF = {
    "two_smooth": "two_smooth",
    "m_smooth3": "m_smooth",
    "m_smooth5": "m_smooth",
    "one_nonsmooth2": "one_nonsmooth",
    "one_nonsmooth3": "one_nonsmooth",
    "known_smooth": "known_smooth",
    "known_one_nonsmooth": "known_one_nonsmooth",
    "two_nonsmooth_bounded": "two_nonsmooth_bounded",
    "known_single_nonsmooth": "known_one_nonsmooth",
}

# Presets replayed by `verify <file>`: together with `verify --random`
# they reach every oracle route (KKT QP, flat and block projection,
# containment, necessity sweep).
VERIFY_PRESETS = (
    ("one_nonsmooth3", 2, 1, 0),           # block projection
    ("known_one_nonsmooth", 1, 1, 1),      # flat projection with a known offset
    ("known_smooth", 2, 0, 1),             # flat projection + necessity sweep
    ("known_single_nonsmooth", 0, 1, 1),   # containment
)

RASTER_DIM = 2
QUERY_DIMS = (2, 8)
# query scenarios per preset and dimension: averaging over several
# geometries keeps the admitted share, and so the witness work, steady
# from seed to seed
QUERY_VARIANTS = 4


def _stream(seed: int, *labels) -> np.random.Generator:
    """An independent generator per (seed, labels), so adding one input
    never shifts the draws of another."""
    key = [int(seed) & 0xFFFFFFFF] + [sum(ord(c) * 131 ** i for i, c in enumerate(str(x))) & 0xFFFFFFFF for x in labels]
    return np.random.default_rng(key)


def _anchors(rng, m: int, n: int) -> np.ndarray:
    while True:
        pts = rng.uniform(-2.0, 2.0, (m, n))
        gaps = [
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(m)
            for j in range(i + 1, m)
        ]
        if not gaps or min(gaps) > 0.5:
            return pts


def _floats(v) -> list:
    return [float(t) for t in v]


def scenario_dict(seed: int, spec, n: int, variant: int = 0) -> dict:
    """One scenario of the given preset shape in n dimensions."""
    name, n_smooth, n_nonsmooth, n_known = spec
    rng = _stream(seed, "scenario", name, n, *([variant] if variant else []))
    m = n_known + n_smooth + n_nonsmooth
    anchors = _anchors(rng, m, n)
    summands = []
    k = 0
    for _ in range(n_known):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        spectrum = rng.uniform(0.2, 1.5, n)
        a = (q * spectrum) @ q.T
        a = 0.5 * (a + a.T)
        summands.append(
            {
                "x_star": _floats(anchors[k]),
                "mu": 0.1,
                "L": 2.0,
                "known": {
                    "matrix": [_floats(row) for row in a],
                    "center": _floats(anchors[k]),
                },
            }
        )
        k += 1
    for _ in range(n_smooth):
        mu = float(rng.uniform(0.2, 2.0))
        summands.append(
            {"x_star": _floats(anchors[k]), "mu": mu, "L": mu * float(rng.uniform(1.5, 10.0))}
        )
        k += 1
    mus = []
    for _ in range(n_nonsmooth):
        mu = float(rng.uniform(0.3, 3.0))
        mus.append(mu)
        summands.append({"x_star": _floats(anchors[k]), "mu": mu, "L": "inf"})
        k += 1
    out = {"summands": summands, "bound_B": None}
    if n_nonsmooth == 2:
        a1, a2 = anchors[-2], anchors[-1]
        bmin = mus[0] * mus[1] / (mus[0] + mus[1]) * float(np.linalg.norm(a1 - a2))
        out["bound_B"] = bmin * float(rng.uniform(1.2, 2.5))
    return out


def scenario_text(scenario: dict) -> str:
    return json.dumps(scenario, indent=2) + "\n"


def anchor_box(scenario: dict, pad_scale: float = 1.0):
    """The padded anchor box that minsum's `verify` samples from
    (cli._sample_points), recomputed from the scenario data."""
    anchors = np.array([s["x_star"] for s in scenario["summands"]], dtype=float)
    lo = anchors.min(axis=0)
    hi = anchors.max(axis=0)
    spread = float(np.max(hi - lo))
    pad = 1.0 + spread
    bound = scenario.get("bound_B")
    if bound is not None:
        mu_sum = sum(s["mu"] for s in scenario["summands"])
        if mu_sum > 0:
            pad = max(pad, bound / mu_sum + spread)
    return lo - pad_scale * pad, hi + pad_scale * pad


def raster_bbox(scenario: dict) -> tuple:
    """A 2-d box around the anchors with room for the whole region
    outline; the padding is half that of the sampling box."""
    lo, hi = anchor_box(scenario, pad_scale=0.5)
    return (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))


def query_points(seed: int, scenario: dict, label: str, count: int) -> np.ndarray:
    lo, hi = anchor_box(scenario)
    rng = _stream(seed, "points", label)
    return rng.uniform(lo, hi, (count, lo.shape[0]))


def bisection_targets(seed: int, scenario: dict, label: str, count: int) -> np.ndarray:
    """Far points on the padded box border: bisecting from an interior
    point towards each one lands on the region boundary."""
    lo, hi = anchor_box(scenario)
    rng = _stream(seed, "targets", label)
    n = lo.shape[0]
    out = rng.uniform(lo, hi, (count, n))
    axis = rng.integers(0, n, count)
    side = rng.integers(0, 2, count)
    for i in range(count):
        out[i, axis[i]] = hi[axis[i]] if side[i] else lo[axis[i]]
    return out


def describe_inputs(seed: int) -> dict:
    """Every generated input as text, for the byte-identity test."""
    out = {}
    for spec in PRESETS:
        sc = scenario_dict(seed, spec, RASTER_DIM)
        out[f"raster/{spec[0]}.json"] = scenario_text(sc)
        out[f"raster/{spec[0]}.bbox"] = repr(raster_bbox(sc))
    for spec in VERIFY_PRESETS:
        out[f"verify/{spec[0]}.json"] = scenario_text(scenario_dict(seed, spec, RASTER_DIM))
    for label, sc in query_scenarios(seed):
        out[f"query/{label}.json"] = scenario_text(sc)
        out[f"query/{label}.points"] = query_points(seed, sc, label, 16).tobytes().hex()
    return out


def query_scenarios(seed: int):
    """(label, scenario) for every preset, dimension and variant."""
    for n in QUERY_DIMS:
        for spec in PRESETS:
            for variant in range(QUERY_VARIANTS):
                label = f"{spec[0]}_{n}d" + (f"_v{variant}" if variant else "")
                yield label, scenario_dict(seed, spec, n, variant)

