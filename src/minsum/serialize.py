"""Scenario JSON, raster CSV, and raster SVG input/output.

The JSON dialect is strict on purpose: "inf" (as a string) is the only
accepted spelling for an infinite smoothness constant, bare Infinity/NaN
tokens are rejected, and unknown keys are errors.  Floats are emitted
through repr, so a save/load round trip reproduces the scenario bit for
bit.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .geometry import Verdict
from .interpolation import ClassParams
from .membership import (
    COND_DET,
    COND_FIRST,
    COND_SECOND,
    KnownFunction,
    RegionRaster,
    Scenario,
    Summand,
    TWO_NONSMOOTH_BOUNDED,
)


class ScenarioFormatError(ValueError):
    """Raised for malformed scenario files."""


def _reject_constant(token: str):
    raise ScenarioFormatError(
        f"token {token!r} is not allowed; spell infinite smoothness as the string \"inf\""
    )


def _number(obj, where: str, *, minimum=None) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioFormatError(f"{where} must be a number, got {obj!r}")
    try:
        v = float(obj)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioFormatError(f"{where} must be finite")
    if minimum is not None and v < minimum:
        raise ScenarioFormatError(f"{where} must be >= {minimum}")
    return v


def _vector(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ScenarioFormatError(f"{where} must be a nonempty array")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(obj)])


def _check_keys(obj: dict, allowed, where: str):
    extra = set(obj) - set(allowed)
    if extra:
        raise ScenarioFormatError(f"unknown keys in {where}: {sorted(extra)}")


def _parse_known(obj, where: str) -> KnownFunction:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    _check_keys(obj, ("matrix", "center", "kind"), where)
    if obj.get("kind", "quadratic") != "quadratic":
        raise ScenarioFormatError(f"{where}.kind: only \"quadratic\" is supported")
    if "matrix" not in obj or "center" not in obj:
        raise ScenarioFormatError(f"{where} needs matrix and center")
    rows = obj["matrix"]
    if not isinstance(rows, list) or not rows:
        raise ScenarioFormatError(f"{where}.matrix must be a nonempty array of rows")
    mat = [_vector(r, f"{where}.matrix[{i}]") for i, r in enumerate(rows)]
    if len({len(r) for r in mat}) > 1:
        raise ScenarioFormatError(f"{where}.matrix rows must have equal length")
    center = _vector(obj["center"], f"{where}.center")
    try:
        return KnownFunction(np.array(mat), center)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _parse_summand(obj, where: str) -> Summand:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    _check_keys(obj, ("x_star", "mu", "L", "known"), where)
    for key in ("x_star", "mu", "L"):
        if key not in obj:
            raise ScenarioFormatError(f"{where} is missing {key!r}")
    x_star = _vector(obj["x_star"], f"{where}.x_star")
    mu = _number(obj["mu"], f"{where}.mu", minimum=0.0)
    raw_l = obj["L"]
    if raw_l == "inf":
        big_l = math.inf
    elif isinstance(raw_l, str):
        raise ScenarioFormatError(
            f"{where}.L: the only string form is \"inf\", got {raw_l!r}"
        )
    else:
        big_l = _number(raw_l, f"{where}.L")
    try:
        params = ClassParams(mu, big_l)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    known = _parse_known(obj["known"], f"{where}.known") if "known" in obj else None
    try:
        return Summand(x_star, params, known)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def scenario_from_json(text: str) -> Scenario:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ScenarioFormatError:
        raise
    # besides decode errors: integers of too many digits, too deep nesting
    except (ValueError, RecursionError) as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ScenarioFormatError("top level must be an object")
    _check_keys(obj, ("summands", "bound_B"), "scenario")
    if "summands" not in obj or not isinstance(obj["summands"], list) or not obj["summands"]:
        raise ScenarioFormatError("scenario.summands must be a nonempty array")
    summands = tuple(
        _parse_summand(s, f"summands[{i}]") for i, s in enumerate(obj["summands"])
    )
    bound = None
    if obj.get("bound_B") is not None:
        bound = _number(obj["bound_B"], "scenario.bound_B", minimum=0.0)
    try:
        return Scenario(summands, bound_B=bound)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def scenario_to_json(scenario: Scenario) -> str:
    out: dict = {"summands": []}
    for s in scenario.summands:
        entry: dict = {
            "x_star": [float(v) for v in s.x_star],
            "mu": s.params.mu,
            "L": "inf" if math.isinf(s.params.L) else s.params.L,
        }
        if s.known is not None:
            entry["known"] = {
                "matrix": [[float(v) for v in row] for row in s.known.matrix],
                "center": [float(v) for v in s.known.center],
            }
        out["summands"].append(entry)
    if scenario.bound_B is not None:
        out["bound_B"] = scenario.bound_B
    return json.dumps(out, indent=2)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    return scenario_from_json(text)


def save_scenario(scenario: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_json(scenario))
        fh.write("\n")


# ---------------------------------------------------------------------------
# verdicts and rasters


def _json_value(obj):
    """The payload with every non-finite float spelled "inf", "-inf" or
    "nan", as the scenario spells L: strict JSON has no Infinity or NaN
    literal.  Dicts, lists, tuples and numpy arrays are walked."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist())
    return obj


def verdict_to_dict(verdict: Verdict, predicate: str | None = None) -> dict:
    out = {
        "state": verdict.state,
        "margin": _json_value(verdict.margin),
        "fired_conditions": verdict.fired_conditions,
    }
    if predicate is not None:
        out["predicate_used"] = predicate
    return out


def raster_to_csv_text(raster: RegionRaster) -> str:
    """One row per cell, storage order (row-major from the (xmin, ymin)
    corner, x fastest); floats carry full precision."""
    xs, ys = raster.axes()
    # every row repeats the same x values and every cell of a row its y:
    # format each coordinate once, then every cell in one % format over
    # the fields laid out cell by cell
    xs = ["%.17g," % v for v in xs.tolist()]
    ys = ["%.17g," % v for v in ys.tolist()]
    cells = raster.states.size
    fields = [None] * (5 * cells)
    fields[0::5] = xs * len(ys)
    fields[1::5] = [y for y in ys for _ in xs]
    fields[2::5] = raster.state_names()
    fields[3::5] = raster.margins.tolist()
    fields[4::5] = raster.fired.tolist()
    return "x,y,state,margin,conditions\n" + ("%s%s%s,%.17g,%d\n" * cells) % tuple(fields)


_CONDITION_COLORS = (
    (COND_FIRST, "#2ca02c"),
    (COND_SECOND, "#d62728"),
    (COND_DET, "#1f77b4"),
)
_PLAIN_FILL = "#2ca02c"
_FALLBACK_FILL = "#7f7f7f"


def raster_to_svg_text(raster: RegionRaster) -> str:
    """Minimal SVG: one unit rect per admitted cell on a white canvas.

    For the bounded two-nonsmooth predicate the fill encodes the lowest
    sufficient clause that fired, so disagreeing clause regions are
    visible at a glance.  Output bytes depend only on the raster.
    """
    nx, ny = raster.resolution
    idx = np.flatnonzero(raster.states)
    fired = raster.fired[idx]
    # only the bounded kernel sets clause bits; other cells keep the default
    bounded = raster.predicate == TWO_NONSMOOTH_BOUNDED
    fills = np.select(
        [fired & bit != 0 for bit, _ in _CONDITION_COLORS],
        [color for _, color in _CONDITION_COLORS],
        _FALLBACK_FILL if bounded else _PLAIN_FILL,
    ).tolist()
    # svg y axis points down; flip so the bbox ymin lands at the bottom
    rects = map(
        '<rect x="{}" y="{}" width="1" height="1" fill="{}"/>'.format,
        (idx % nx).tolist(), (ny - 1 - idx // nx).tolist(), fills,
    )
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{nx}" height="{ny}" '
        f'viewBox="0 0 {nx} {ny}">',
        f'<rect x="0" y="0" width="{nx}" height="{ny}" fill="#ffffff"/>',
        *rects,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
