"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(1, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def run(tmp_path):
    r = workloads.Run(ROOT, 5, str(tmp_path))
    r.recorded = None
    r.fresh_import()
    return r


def test_same_seed_gives_byte_identical_inputs():
    first = inputs.describe_inputs(7)
    assert first == inputs.describe_inputs(7)
    assert first != inputs.describe_inputs(8)


def test_scenarios_route_as_labelled(run):
    for spec in inputs.PRESETS + inputs.VERIFY_PRESETS:
        sc = inputs.scenario_dict(3, spec, 2)
        scenario = run.m["serialize"].scenario_from_json(inputs.scenario_text(sc))
        assert run.m["membership"].route(scenario) == inputs.PATTERN_OF[spec[0]]
        assert reference.Model(sc).pattern == inputs.PATTERN_OF[spec[0]]


def _render(run, preset, res=12, workers=1):
    spec = next(s for s in inputs.PRESETS if s[0] == preset)
    sc = inputs.scenario_dict(run.seed, spec, 2)
    path = run.path("t", f"{preset}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.scenario_text(sc))
    bbox = inputs.raster_bbox(sc)
    csv_path, svg_path = run.path("t", "r.csv"), run.path("t", "r.svg")
    code, out = run.cli(["region", path, "--bbox", *map(repr, bbox), "--res", res, res,
                         "--out", csv_path, "--svg", svg_path, "--workers", workers])
    assert code == 0
    with open(csv_path, encoding="utf-8") as fh:
        csv_text = fh.read()
    with open(svg_path, encoding="utf-8") as fh:
        svg_text = fh.read()
    return sc, bbox, csv_text, svg_text, out


def test_traced_run_gives_identical_outputs(run):
    plain = [_render(run, p, workers=w)[2:] for p in ("two_smooth", "two_nonsmooth_bounded")
             for w in (1, 2)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_render(run, p, workers=w)[2:] for p in ("two_smooth", "two_nonsmooth_bounded")
                  for w in (1, 2)]
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = tracer.spans()
    assert len(spans["ident"]) > 0
    assert np.all(spans["self"] >= -1e-9)
    # uninstall restores every binding
    assert run.m["membership"].evaluate.__module__ == "minsum.membership"
    assert not hasattr(run.m["membership"].evaluate, "__wrapped__")


def test_tracer_stops_on_a_missing_traced_function(run, monkeypatch):
    monkeypatch.delattr(run.m["membership"], "rasterize_region")
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="rasterize_region"):
        tracer.install()
    # the bindings wrapped before the missing one are restored
    assert not hasattr(run.m["cli"].main, "__wrapped__")


def test_rate_of_shapes_skips_unrated_and_slow_outliers():
    ops = [{"shape": "a", "latency": t, "items": 10} for t in (1.0, 1.0, 1.0, 9.0)]
    ops += [{"shape": "b", "latency": 1.0, "items": 10}, {"shape": None, "latency": 50.0, "items": 1}]
    assert workloads.rate_of_shapes(ops, lambda o: o["shape"]) == pytest.approx(10.0)


def test_region_check_passes_and_catches_a_flipped_cell(run):
    sc, bbox, csv_text, svg_text, out = _render(run, "two_smooth")
    assert workloads.check_region_output(run, "t", sc, bbox, 12, csv_text, svg_text, out,
                                         "two_smooth")
    assert run.problems == []
    lines = csv_text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ",outside," in ln)
    lines[row] = lines[row].replace(",outside,", ",inside,")
    corrupt = "\n".join(lines) + "\n"
    assert not workloads.check_region_output(run, "t", sc, bbox, 12, corrupt, svg_text, out,
                                             "two_smooth")
    assert any("differ from the reference" in p for p in run.problems)


def test_region_check_catches_a_dropped_csv_row(run):
    sc, bbox, csv_text, svg_text, out = _render(run, "one_nonsmooth2")
    short = "\n".join(csv_text.splitlines()[:-1]) + "\n"
    assert not workloads.check_region_output(run, "t", sc, bbox, 12, short, svg_text, out,
                                             "one_nonsmooth2")


def _admitted_query(run):
    q = workloads.Query(run)
    q.make_inputs()
    for case in q.cases:
        if not case["label"].endswith("_2d"):
            continue
        case["loaded"] = run.m["serialize"].load_scenario(case["path"])
        for i, x in enumerate(case["points"]):
            op = {"kind": "point", "case": case, "index": i, "x": x, "boundary": False}
            q.execute(op)
            if (op["verdict"].admits and op["gradients"] is not None and q.check(op)
                    and not op["unresolved"]):
                return q, op
    raise AssertionError("no admitted, certified query point")


def test_query_witness_defect_is_reported_not_failed(run):
    q, op = _admitted_query(run)
    op["error"], op["gradients"] = "WitnessRecoveryError", None
    assert q.check(op) and op["unresolved"]
    q, op = _admitted_query(run)
    op["certified_ok"] = [False]
    assert q.check(op) and op["unresolved"]
    assert not run.problems


def test_verify_indeterminate_is_reported_and_mismatch_failed(run):
    # this seeded variant leaves one oracle point at the projection's
    # iteration cap without a decision
    spec = next(s for s in inputs.VERIFY_PRESETS if s[0] == "known_one_nonsmooth")
    path = run.path("t", "v.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.scenario_text(inputs.scenario_dict(68, spec, inputs.RASTER_DIM, 35)))
    v = workloads.Verify(run)
    op = {"preset": "known_one_nonsmooth_v35", "cycle": 8, "necessity": False,
          "argv": ["verify", path, "--points", workloads.VERIFY_POINTS, "--seed", 68008]}
    v.execute(op)
    assert v.check(op) and op["unresolved"] and op["indeterminate"] == 1
    assert not run.problems
    res = json.loads(op["stdout"])
    res["mismatches"] = [{"point": [0.0, 0.0]}]
    op["stdout"] = json.dumps(res)
    assert not v.check(op)
    assert any("mismatch" in p for p in run.problems)


def test_query_check_catches_a_dropped_witness(run):
    q, op = _admitted_query(run)
    op["gradients"] = op["gradients"][:-1]
    assert not q.check(op)
    assert any("one witness per summand" in p for p in run.problems)


def test_query_check_catches_a_wrong_verdict(run):
    q, op = _admitted_query(run)
    v = op["verdict"]
    op["verdict"] = type(v)("outside", -abs(v.margin) - 1.0, v.fired_conditions)
    assert not q.check(op)
    assert any("reference" in p for p in run.problems)


def test_tail_stat_has_ten_samples_beyond():
    value, pct, n = workloads.tail_stat(range(100))
    assert (value, n) == (89.0, 100) and pct == pytest.approx(90.0)
    assert workloads.tail_stat([3.0, 1.0])[0] == 3.0
