import dataclasses
import json
import math
import re

import numpy as np
import pytest

from minsum.geometry import Verdict
from minsum.interpolation import ClassParams
from minsum.membership import (
    COND_DET,
    COND_FIRST,
    COND_SECOND,
    TWO_NONSMOOTH_BOUNDED,
    TWO_SMOOTH,
    KnownFunction,
    RegionRaster,
    Scenario,
    Summand,
    rasterize_region,
)
from minsum.serialize import (
    ScenarioFormatError,
    load_scenario,
    raster_to_csv_text,
    raster_to_svg_text,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    verdict_to_dict,
)


def vec(*vals):
    return np.array(vals, dtype=float)


# ------------------------------------------------------------ scenario JSON


def test_round_trip_smooth(smooth_pair):
    again = scenario_from_json(scenario_to_json(smooth_pair))
    assert len(again.summands) == 2
    for a, b in zip(again.summands, smooth_pair.summands):
        assert np.array_equal(a.x_star, b.x_star)
        assert a.params == b.params
    assert again.bound_B is None


def test_round_trip_bounded_and_known(bounded_pair):
    text = scenario_to_json(bounded_pair)
    again = scenario_from_json(text)
    assert again.bound_B == bounded_pair.bound_B
    assert not again.summands[0].params.is_smooth
    assert '"L": "inf"' in text

    k = KnownFunction(np.array([[2.0, 0.5], [0.5, 1.0]]), vec(0.1, -0.7))
    sc = Scenario(
        (
            Summand(vec(0.1, -0.7), ClassParams(0.5, 3.0), k),
            Summand(vec(1.0, 1.0), ClassParams(1.0, 2.0)),
        )
    )
    again = scenario_from_json(scenario_to_json(sc))
    assert again.summands[0].known is not None
    assert np.array_equal(again.summands[0].known.matrix, k.matrix)
    assert np.array_equal(again.summands[0].known.center, k.center)


def test_round_trip_preserves_awkward_floats():
    # repr-based floats survive exactly
    x = 0.1 + 0.2  # 0.30000000000000004
    sc = Scenario(
        (
            Summand(vec(x, 1e-17), ClassParams(1 / 3, 1e8)),
            Summand(vec(-x, 2.0), ClassParams(0.7, 5.0)),
        )
    )
    again = scenario_from_json(scenario_to_json(sc))
    assert again.summands[0].x_star[0] == x
    assert again.summands[0].x_star[1] == 1e-17
    assert again.summands[0].params.mu == 1 / 3


def test_save_and_load(tmp_path, mixed_pair):
    path = tmp_path / "scenario.json"
    save_scenario(mixed_pair, path)
    sc = load_scenario(path)
    assert [s.params.L for s in sc.summands] == [4.0, math.inf]


@pytest.mark.parametrize(
    "text, match",
    [
        ("[]", "object"),
        ("{}", "summands"),
        ('{"summands": []}', "summands"),
        ('{"summands": [{"x_star": [0, 0], "mu": 1.0}]}', "missing"),
        ('{"summands": [{"x_star": [], "mu": 1.0, "L": 2.0}]}', "nonempty"),
        ('{"summands": [{"x_star": [0, 0], "mu": -1.0, "L": 2.0}]}', ">= 0"),
        ('{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 0.5}]}', "mu < L"),
        ('{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": "Inf"}]}', "inf"),
        ('{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": Infinity}]}', "not allowed"),
        ('{"summands": [{"x_star": [0, NaN], "mu": 1.0, "L": 2.0}]}', "not allowed"),
        ('{"summands": [{"x_star": [0, 0], "mu": true, "L": 2.0}]}', "number"),
        ('{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0, "beta": 1}]}', "unknown keys"),
        ('{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0}], "cap": 3}', "unknown keys"),
        ("not json", "invalid JSON"),
        ('{"summands": [{"x_star": [0, 1%s], "mu": 1.0, "L": 2.0}]}' % ("0" * 4999), "digits"),
        ('{"summands": [{"x_star": [0, 1%s], "mu": 1.0, "L": 2.0}]}' % ("0" * 400), "finite"),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0,'
            ' "known": {"matrix": [[1, 0]], "center": [0, 0]}}]}',
            "square",
        ),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0,'
            ' "known": {"matrix": [[1, 0], [0]], "center": [0, 0]}}]}',
            r"summands\[0\]\.known\.matrix rows must have equal length",
        ),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0,'
            ' "known": {"matrix": [[1, 0], [0, 1]], "center": [0, 0], "kind": "cubic"}}]}',
            "quadratic",
        ),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": "inf"},'
            ' {"x_star": [1, 0], "mu": 1.0, "L": "inf"}]}',
            "bound_B",
        ),
        ('{"summands": [[0, 0]]}', r"summands\[0\] must be an object"),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0, "known": [1]}]}',
            r"summands\[0\]\.known must be an object",
        ),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0,'
            ' "known": {"matrix": [[1, 0], [0, 1]]}}]}',
            "needs matrix and center",
        ),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0,'
            ' "known": {"matrix": [], "center": [0, 0]}}]}',
            "matrix must be a nonempty array of rows",
        ),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0,'
            ' "known": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "center": [0, 0, 0]}}]}',
            r"summands\[0\]: mixed dimensions \[2, 3\]",
        ),
        (
            '{"summands": [{"x_star": [0, 0], "mu": 1.0, "L": 2.0}], "bound_B": -1}',
            ">= 0",
        ),
    ],
)
def test_strict_rejections(text, match):
    with pytest.raises(ScenarioFormatError, match=match):
        scenario_from_json(text)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"summands": "\xff"}')
    with pytest.raises(ScenarioFormatError, match="UTF-8"):
        load_scenario(path)


def test_emitted_json_is_strict(bounded_pair):
    # the serializer's output parses under a strict reader that bans the
    # Infinity/NaN extensions
    text = scenario_to_json(bounded_pair)
    json.loads(text, parse_constant=lambda t: (_ for _ in ()).throw(ValueError(t)))


# ----------------------------------------------------------------- verdict


def test_verdict_to_dict_spelling():
    d = verdict_to_dict(Verdict("inside", math.inf, 3), predicate="two_smooth")
    assert d == {
        "state": "inside",
        "margin": "inf",
        "fired_conditions": 3,
        "predicate_used": "two_smooth",
    }
    assert verdict_to_dict(Verdict("outside", -2.5))["margin"] == -2.5
    assert verdict_to_dict(Verdict("boundary", math.nan))["margin"] == "nan"


# -------------------------------------------------------------- CSV raster


def test_csv_layout(bounded_pair):
    raster = rasterize_region(bounded_pair, (-2, 2, -2, 2), (8, 5))
    text = raster_to_csv_text(raster)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,state,margin,conditions"
    assert len(lines) == 1 + 8 * 5
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-2 + 0.25)
    assert float(first[1]) == pytest.approx(-2 + 0.4)
    assert first[2] in ("inside", "boundary", "outside")
    # margins survive a parse round trip exactly (17 significant digits)
    for line, cell in zip(lines[1:], raster.cells):
        parts = line.split(",")
        assert float(parts[3]) == cell.margin
        assert int(parts[4]) == cell.fired_conditions


def test_csv_bytes_match_a_per_row_format(bounded_pair):
    raster = rasterize_region(bounded_pair, (-2.5, 1.5, -1.75, 2.25), (37, 41))
    margins = raster.margins.copy()
    margins[[3, 500, 1516]] = -0.0, 5e-324, -1e300
    raster = dataclasses.replace(raster, margins=margins)
    rows = ["x,y,state,margin,conditions"]
    for (x, y), state, margin, fired in zip(raster.centers().tolist(), raster.state_names(),
                                           margins.tolist(), raster.fired.tolist()):
        rows.append("{},{},{},{:.17g},{}".format(
            format(x, ".17g"), format(y, ".17g"), state, margin, fired))
    text = raster_to_csv_text(raster)
    assert ",-0," in text and len(set(raster.state_names())) >= 2
    assert text.encode() == ("\n".join(rows) + "\n").encode()


def test_csv_conditions_zero_for_plain_patterns(smooth_pair):
    raster = rasterize_region(smooth_pair, (-1, 1, -1, 1), (4, 4))
    for line in raster_to_csv_text(raster).strip().split("\n")[1:]:
        assert line.endswith(",0")


# -------------------------------------------------------------- SVG raster


def test_svg_structure(bounded_pair):
    raster = rasterize_region(bounded_pair, (-2, 2, -2, 2), (16, 16))
    svg = raster_to_svg_text(raster)
    admitted = sum(1 for c in raster.cells if c.admits)
    assert svg.count("<rect") == admitted + 1  # background + one per cell
    assert svg.startswith("<?xml")
    assert "</svg>" in svg
    # bounded pattern colors by fired clause
    used = {part.split('"')[0] for part in svg.split('fill="')[1:]}
    assert used <= {"#ffffff", "#2ca02c", "#d62728", "#1f77b4", "#7f7f7f"}
    assert len(used) >= 2


def test_svg_plain_pattern_single_color(smooth_pair):
    raster = rasterize_region(smooth_pair, (-1.5, 1.5, -1, 1), (12, 8))
    svg = raster_to_svg_text(raster)
    used = {part.split('"')[0] for part in svg.split('fill="')[1:]}
    assert used == {"#ffffff", "#2ca02c"}


def _clause_fill(bits: int, bounded: bool) -> str:
    if bits & COND_FIRST:
        return "#2ca02c"
    if bits & COND_SECOND:
        return "#d62728"
    if bits & COND_DET:
        return "#1f77b4"
    return "#7f7f7f" if bounded else "#2ca02c"


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("predicate", [TWO_NONSMOOTH_BOUNDED, TWO_SMOOTH])
def test_svg_fill_of_every_clause_bit_value(predicate, dtype):
    # a hand-built raster: its bottom row admits cells (inside and boundary
    # in turn) carrying every clause-bit value 0-15 and some outside that
    # range; its top row is outside, so none of it is drawn
    bits = [*range(16), 16, 31, -1]
    nx = len(bits)
    states = np.concatenate((np.arange(nx) % 2 + 1, np.zeros(nx, dtype=int)))
    raster = RegionRaster((0.0, 1.0, 0.0, 1.0), (nx, 2), predicate, states,
                          np.zeros(2 * nx), np.array(bits + bits[::-1], dtype=dtype))
    rects = re.findall(r'<rect x="(\d+)" y="(\d+)" width="1" height="1" fill="([^"]*)"/>',
                       raster_to_svg_text(raster))
    bounded = predicate == TWO_NONSMOOTH_BOUNDED
    assert rects == [(str(i), "1", _clause_fill(b, bounded)) for i, b in enumerate(bits)]


def test_svg_deterministic(bounded_pair):
    raster = rasterize_region(bounded_pair, (-2, 2, -2, 2), (10, 10))
    assert raster_to_svg_text(raster) == raster_to_svg_text(raster)


def test_svg_y_axis_flip(smooth_pair):
    # a cell in the bbox's top row must land at svg y = 0
    raster = rasterize_region(smooth_pair, (-0.5, 0.7, -0.5, 0.5), (3, 3))
    svg = raster_to_svg_text(raster)
    top_row_admits = [c.admits for c in raster.cells[6:9]]
    assert any(top_row_admits)  # the set straddles y = 0.33 here
    assert 'y="0"' in svg.replace('x="0" y="0" width="3"', "")
