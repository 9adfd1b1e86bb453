import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minsum import _projection, cli, evaluate, membership
from minsum.geometry import BOUNDARY, OUTSIDE
from minsum.interpolation import ClassParams
from minsum.serialize import save_scenario


@pytest.fixture
def smooth_path(tmp_path, smooth_pair):
    p = tmp_path / "smooth.json"
    save_scenario(smooth_pair, p)
    return str(p)


@pytest.fixture
def bounded_path(tmp_path, bounded_pair):
    p = tmp_path / "bounded.json"
    save_scenario(bounded_pair, p)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------------- check


def test_check_inside(capsys, smooth_path):
    code, out, _ = run(capsys, "check", smooth_path, "--point", "0.45", "0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["state"] == "inside"
    assert payload["predicate_used"] == "two_smooth"
    assert payload["margin"] > 0


def test_check_outside(capsys, smooth_path):
    code, out, _ = run(capsys, "check", smooth_path, "--point", "9", "9")
    assert code == 1
    assert json.loads(out)["state"] == "outside"


def test_check_boundary_exit_code(capsys, tmp_path):
    # mu = 0 pair: on the colinear exterior ray the margin is exactly 0
    path = tmp_path / "flat.json"
    path.write_text(
        '{"summands": [{"x_star": [-1.0, 0.0], "mu": 0.0, "L": 2.0},'
        ' {"x_star": [1.0, 0.0], "mu": 0.0, "L": 3.0}]}'
    )
    code, out, _ = run(capsys, "check", str(path), "--point", "2.0", "0.0")
    assert code == 2
    assert json.loads(out)["state"] == "boundary"


@pytest.mark.parametrize("raw", ["1e-3", "nan"])
def test_tolerance_ignores_environment(capsys, monkeypatch, smooth_pair, smooth_path, raw):
    # the tolerance coefficient is a constant, so no value of MINSUM_TOL
    # changes a verdict: not nan, nor 1e-3, which would make boundary
    # points of the two near (0.45, 1.1426), whose margins are under 1e-3
    points = [("0.45", "0.0"), ("9", "9"), ("0.45", "1.1425"), ("0.45", "1.1427")]
    monkeypatch.delenv("MINSUM_TOL", raising=False)
    unset = [run(capsys, "check", smooth_path, "--point", *p) for p in points]
    margins = [evaluate(smooth_pair, np.array(p, dtype=float)).margin for p in points]
    assert [code for code, _, _ in unset] == [0, 1, 0, 1]
    monkeypatch.setenv("MINSUM_TOL", raw)
    for p, before, margin in zip(points, unset, margins):
        assert run(capsys, "check", smooth_path, "--point", *p) == before
        assert evaluate(smooth_pair, np.array(p, dtype=float)).margin == margin


# -------------------------------------------------------------- exit codes


def test_exit_code_bad_json(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "check", str(p), "--point", "0", "0")
    assert code == 64
    assert "minsum" in err


def test_exit_code_deeply_nested_json(capsys, tmp_path):
    # too deep for the JSON decoder: malformed input, not "ruled out"
    p = tmp_path / "nested.json"
    p.write_text("[" * 100_000)
    code, _, err = run(capsys, "check", str(p), "--point", "0", "0")
    assert code == 64
    assert "Traceback" not in err and "invalid JSON" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/sc.json", "--point", "0", "0")
    assert code == 64


def test_exit_code_dimension(capsys, smooth_path):
    code, _, err = run(capsys, "check", smooth_path, "--point", "1", "2", "3")
    assert code == 65
    assert "dimension" in err


def test_non_finite_point_of_the_wrong_length_exits_64(capsys, smooth_path):
    # finiteness is checked before the length, so this is an input error
    code, out, err = run(capsys, "check", smooth_path, "--point", "inf")
    assert (code, out) == (64, "")
    assert "finite" in err


def test_exit_code_unsupported(capsys, tmp_path):
    p = tmp_path / "three.json"
    p.write_text(
        '{"summands": [{"x_star": [-1.0, 0.0], "mu": 1.0, "L": "inf"},'
        ' {"x_star": [1.0, 0.0], "mu": 1.0, "L": "inf"},'
        ' {"x_star": [0.0, 1.0], "mu": 1.0, "L": "inf"}], "bound_B": 5.0}'
    )
    code, _, err = run(capsys, "check", str(p), "--point", "0", "0")
    assert code == 66
    assert "unsupported" in err


def test_exit_code_usage(capsys, smooth_path):
    code, _, err = run(capsys, "region", smooth_path, "--bbox", "1")
    assert code == 64
    code, _, _ = run(capsys, "nonsense")
    assert code == 64
    code, _, _ = run(capsys, "check", smooth_path)  # missing --point
    assert code == 64


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_parser_reused_across_calls(capsys, tmp_path, smooth_path):
    # one parser per process; a usage error or an option given to one call
    # must not carry over into the next call
    assert cli.build_parser() is cli.build_parser()
    code, _, err = run(capsys, "check", smooth_path)  # missing --point
    assert code == 64 and "error" in err
    box = ("--bbox", "-1", "1", "-1", "1", "--res", "2", "2")
    csv_path = str(tmp_path / "r.csv")
    code, out, _ = run(capsys, "region", smooth_path, *box, "--out", csv_path)
    assert code == 0 and json.loads(out)["out"] == csv_path
    code, out, err = run(capsys, "region", smooth_path, *box)
    assert code == 0 and err == ""
    assert json.loads(out)["out"] is None


@pytest.mark.parametrize("exp, plain", [("-1e-3", "-0.001"), ("-1E+0", "-1"), ("-.5e1", "-5")])
def test_check_takes_negative_exponent_coordinates(capsys, smooth_path, exp, plain):
    # argparse's own negative-number pattern has no exponent, so -1e-3
    # was taken for an option flag and --point got no argument
    code, out, err = run(capsys, "check", smooth_path, "--point", exp, "0")
    assert (code, out, err) == run(capsys, "check", smooth_path, "--point", plain, "0")
    assert err == "" and json.loads(out)["state"] in ("inside", "outside")


def test_flag_after_a_coordinate_list_still_parses(capsys, smooth_path):
    for bbox in (("-1", "1", "-1", "1"), ("-1", "1", "-1", "-1e-3")):
        code, out, _ = run(capsys, "region", smooth_path, "--bbox", *bbox, "--res", "3", "2")
        assert code == 0 and json.loads(out)["cells"] == 6
    code, _, err = run(capsys, "check", smooth_path, "--point", "1", "-e3")
    assert code == 64 and "unrecognized arguments: -e3" in err


# ------------------------------------------------------------------- region


def test_region_takes_negative_exponent_bbox(capsys, smooth_path):
    code, out, err = run(capsys, "region", smooth_path, "--bbox", "-1e3", "1e3", "-1", "1", "--res", "2", "2")
    assert code == 0 and err == ""
    assert out == run(capsys, "region", smooth_path, "--bbox", "-1000", "1000", "-1", "1", "--res", "2", "2")[1]
    assert json.loads(out)["cells"] == 4



def test_region_writes_outputs(capsys, tmp_path, bounded_path):
    csv_path = tmp_path / "r.csv"
    svg_path = tmp_path / "r.svg"
    code, out, _ = run(
        capsys,
        "region",
        bounded_path,
        "--bbox", "-2", "2", "-2", "2",
        "--res", "20", "20",
        "--out", str(csv_path),
        "--svg", str(svg_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["cells"] == 400
    assert summary["inside"] + summary["boundary"] + summary["outside"] == 400
    assert summary["inside"] > 0
    assert summary["predicate_used"] == "two_nonsmooth_bounded"
    text = csv_path.read_text()
    assert text.startswith("x,y,state,margin,conditions\n")
    assert len(text.strip().split("\n")) == 401
    assert svg_path.read_text().startswith("<?xml")


def test_region_too_large_for_memory_is_a_usage_error(capsys, monkeypatch, smooth_path):
    # a raised MemoryError stands in for a real failed allocation, whose
    # outcome would depend on the host's memory overcommit setting
    def no_memory(bbox, resolution):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(membership, "_cell_centers", no_memory)
    code, out, err = run(capsys, "region", smooth_path, "--bbox", "-1", "1", "-1", "1",
                         "--res", "100000", "100000")
    assert (code, out) == (64, "")
    assert "10000000000 cells" in err and "Traceback" not in err


def test_region_rejects_non_finite_bbox(capsys, tmp_path, smooth_path):
    # used to exit 0 and write inf,0.25,boundary,nan,0 rows
    csv_path = tmp_path / "o.csv"
    bbox = ("0", "inf", "0", "1")
    code, out, err = run(
        capsys, "region", smooth_path, "--bbox", *bbox, "--res", "2", "2", "--out", str(csv_path)
    )
    assert code == 64
    assert out == "" and "finite" in err
    assert not csv_path.exists()


def test_region_deterministic_across_workers(capsys, tmp_path, smooth_path):
    outs = []
    for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        code, _, _ = run(
            capsys,
            "region",
            smooth_path,
            "--bbox", "-1.5", "1.5", "-1", "1",
            "--res", "30", "20",
            "--out", str(csv_path),
            "--svg", str(svg_path),
            "--workers", workers,
        )
        assert code == 0
        outs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outs[0] == outs[1] == outs[2]


# ------------------------------------------------------------------- bounds


def test_bounds_reports(capsys, bounded_path):
    code, out, _ = run(capsys, "bounds", bounded_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["binding_term"] == "focal_linear"
    assert payload["enclosing"]["radius"] == pytest.approx(1.0)
    assert payload["focal"] is not None
    assert payload["notes"] == []


def test_bounds_smooth(capsys, smooth_path):
    code, out, _ = run(capsys, "bounds", smooth_path)
    payload = json.loads(out)
    assert code == 0
    assert [r["binding_term"] for r in payload["reports"]] == ["ball_smooth", "baseline"]
    assert payload["reports"][0]["kappa"] == pytest.approx(15.0)


@pytest.mark.parametrize(
    "summands, note",
    [
        # l_max / mu_min = 1e10 / 1e-300 overflows: a valid scenario, no finite bound
        pytest.param(
            [{"x_star": [0, 0], "mu": 1e-300, "L": 1e10}, {"x_star": [1, 0], "mu": 1.0, "L": 2.0}],
            "the condition number overflows: no finite distance bound applies",
            id="kappa_overflow",
        ),
        pytest.param(
            [{"x_star": [0.5, -1], "mu": 2, "L": "inf"}],
            "ball bounds need at least one smooth summand",
            id="lone_nonsmooth",
        ),
    ],
)
def test_bounds_without_a_bound_give_a_note(capsys, tmp_path, summands, note):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"summands": summands}), encoding="utf-8")
    code, out, _ = run(capsys, "bounds", str(p))
    payload = json.loads(out)
    assert code == 0 and payload["reports"] == []
    assert note in payload["notes"]


@pytest.mark.parametrize(
    "mu, bound_b, reports, notes",
    [
        # (B / (mu1 + mu2))^2 overflows, so the linear term binds
        pytest.param(
            1.0, 1.08e308,
            [{"bound_value": 7.348469228349535e+153, "binding_term": "focal_linear",
              "kappa": None}],
            [],
            id="cap_near_float_max",
        ),
        # B / (mu1 + mu2) overflows in both terms
        pytest.param(
            1e-160, 1e200,
            [],
            ["the focal distance bound overflows: no finite distance bound applies"],
            id="bound_overflows",
        ),
    ],
)
def test_bounds_focal_near_the_float_range(capsys, tmp_path, mu, bound_b, reports, notes):
    summands = [{"x_star": [x, 0], "mu": mu, "L": "inf"} for x in (0, 1)]
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"summands": summands, "bound_B": bound_b}), encoding="utf-8")
    code, out, _ = run(capsys, "bounds", str(p))
    payload = json.loads(out)
    assert code == 0
    assert (payload["reports"], payload["notes"]) == (reports, notes)


def test_arithmetic_error_exits_64(capsys, monkeypatch, smooth_path):
    def overflow(scenario):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli.bounds_mod, "scenario_bound_reports", overflow)
    code, out, err = run(capsys, "bounds", smooth_path)
    assert (code, out) == (64, "")
    assert err == "minsum: (34, 'Numerical result out of range')\n"


# -------------------------------------------------------------------- focal


def test_focal_weightings(capsys, smooth_path, bounded_path):
    code, out, _ = run(capsys, "focal", smooth_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["weighting"] == "smoothness"
    assert payload["focal"][0] == pytest.approx(10 / 22)

    code, out, _ = run(capsys, "focal", bounded_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["weighting"] == "moduli"
    assert payload["focal"][0] == pytest.approx(0.25 / 3.75)


def test_focal_of_moduli_summing_past_the_float_max(capsys, tmp_path):
    # mu1 + mu2 is inf; focal and bounds both print the midpoint
    summands = [{"x_star": [x, 0], "mu": 1e308, "L": "inf"} for x in (0, 1)]
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"summands": summands, "bound_B": 1e308}), encoding="utf-8")
    for command in ("focal", "bounds"):
        code, out, _ = run(capsys, command, str(p))
        assert (code, json.loads(out)["focal"]) == (0, [0.5, 0.0])


def test_focal_unsupported_pattern(capsys, tmp_path, mixed_pair):
    p = tmp_path / "mixed.json"
    save_scenario(mixed_pair, p)
    code, _, err = run(capsys, "focal", str(p))
    assert code == 66


# ------------------------------------------------------------------- verify


def test_verify_scenario_ok(capsys, smooth_path):
    code, out, _ = run(capsys, "verify", smooth_path, "--points", "60", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["mismatches"] == []
    assert payload["necessity"]["failures"] == []
    assert payload["necessity"]["worst_margin"] > 0


def test_verify_bounded_ok(capsys, bounded_path):
    code, out, _ = run(capsys, "verify", bounded_path, "--points", "120")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert "necessity" not in payload  # nonsmooth summands: no quadratic sweep


def test_verify_random_ok(capsys):
    code, out, _ = run(capsys, "verify", "--random", "--seeds", "4", "--points", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["runs"]) == 4
    keys = {"points", "checked", "boundary_skipped", "indeterminate", "mismatches", "seed"}
    for r in payload["runs"]:
        assert r["checked"] + r["boundary_skipped"] + r["indeterminate"] == 40
        # every checked verdict is certified, so there is no uncertified count
        assert set(r) - {"necessity"} == keys


def test_verify_counts_an_undecided_row_as_indeterminate(capsys, monkeypatch, smooth_path):
    # the batched solver leaves its first row undecided: it is counted,
    # and it is not a mismatch
    solve = _projection.batch_block_projection

    def first_undecided(balls, coupled, tol):
        status, residual = solve(balls, coupled, tol)
        status[0] = "undecided"
        return status, residual

    monkeypatch.setattr(_projection, "batch_block_projection", first_undecided)
    code, out, _ = run(capsys, "verify", smooth_path, "--points", "60", "--seed", "2")
    assert code == 0
    assert '"indeterminate": 1' in out and '"ok": true' in out
    payload = json.loads(out)
    assert payload["checked"] + payload["boundary_skipped"] + 1 == payload["points"] == 60


def test_verify_requires_input(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 64


# scenarios no oracle can check: three nonsmooth summands fit no
# predicate, and known summands alone leave nothing to check
UNCHECKABLE = {
    "three_nonsmooth": (
        '{"summands": [{"x_star": [-1.0, 0.0], "mu": 1.0, "L": "inf"},'
        ' {"x_star": [1.0, 0.0], "mu": 1.0, "L": "inf"},'
        ' {"x_star": [0.0, 1.0], "mu": 1.0, "L": "inf"}], "bound_B": 5.0}'
    ),
    "known_only": (
        '{"summands": [{"x_star": [0.0, 0.0], "mu": 0.5, "L": 2.0,'
        ' "known": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "center": [0.0, 0.0]}},'
        ' {"x_star": [1.0, 0.0], "mu": 0.5, "L": 2.0,'
        ' "known": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "center": [1.0, 0.0]}}]}'
    ),
}


@pytest.mark.parametrize("points", ["0", "5"])
@pytest.mark.parametrize("name", sorted(UNCHECKABLE))
def test_verify_uncheckable_scenario_exits_66(capsys, tmp_path, name, points):
    # with no points too: an empty run must not report ok
    p = tmp_path / f"{name}.json"
    p.write_text(UNCHECKABLE[name])
    code, out, err = run(capsys, "verify", str(p), "--points", points)
    assert (code, out) == (66, "") and "unsupported pattern" in err


@pytest.mark.parametrize("flag", ["--seeds", "--points"])
def test_verify_rejects_negative_counts(capsys, bounded_path, flag):
    for argv in (["--random", "--seeds", "1", "--points", "3"], [bounded_path]):
        code, out, err = run(capsys, "verify", *argv, flag, "-1")
        assert (code, out) == (64, "") and f"argument {flag}: must be at least 0" in err
    # zero is a count: no scenarios, or no points
    code, out, _ = run(capsys, "verify", "--random", flag, "0")
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_rejects_negative_seed(capsys, bounded_path):
    code, out, err = run(capsys, "verify", bounded_path, "--points", "3", "--seed", "-1")
    assert (code, out) == (64, "") and "argument --seed: must be at least 0" in err


def test_verify_random_rejects_seed(capsys, bounded_path):
    # each --random run k samples with seed 1000 + k, so a --seed there
    # would be ignored
    code, out, err = run(capsys, "verify", "--random", "--seeds", "1", "--points", "3",
                         "--seed", "2")
    assert (code, out) == (64, "") and "--seed" in err
    # a scenario file without --seed samples with seed 0
    _, default, _ = run(capsys, "verify", bounded_path, "--points", "5")
    _, zero, _ = run(capsys, "verify", bounded_path, "--points", "5", "--seed", "0")
    assert default == zero


@pytest.mark.parametrize("count", ["9", "6"])
def test_verify_scenario_file_rejects_seeds(capsys, bounded_path, count):
    # a scenario file is one run, so --seeds would be ignored; an explicit
    # value equal to --random's default is rejected too
    code, out, err = run(capsys, "verify", bounded_path, "--seeds", count, "--points", "3")
    assert (code, out) == (64, "") and "--seeds" in err
    # --random without --seeds still runs six scenarios
    code, out, _ = run(capsys, "verify", "--random", "--points", "0")
    assert code == 0 and len(json.loads(out)["runs"]) == 6


def test_verify_random_rejects_scenario_file(capsys, bounded_path):
    # --random generates its scenarios, so the file would be ignored
    code, out, err = run(capsys, "verify", bounded_path, "--random", "--seeds", "1",
                         "--points", "3")
    assert (code, out) == (64, "") and "--random" in err


def test_memory_exhaustion_is_a_usage_error(capsys, monkeypatch, bounded_path):
    # a raised MemoryError stands in for numpy refusing the point sample
    # of --points 10000000000000; no real allocation is attempted
    def no_memory(scenario, count, seed):
        raise MemoryError("Unable to allocate 146. TiB for an array with shape "
                          "(10000000000000, 2) and data type float64")

    monkeypatch.setattr(cli, "_sample_points", no_memory)
    code, out, err = run(capsys, "verify", bounded_path, "--points", "10000000000000")
    assert (code, out) == (64, "")
    assert "Unable to allocate 146. TiB" in err and "Traceback" not in err


@pytest.fixture
def coincident_bounded_path(tmp_path):
    p = tmp_path / "coincident.json"
    p.write_text('{"summands": [{"x_star": [1.0, 0.0], "mu": 1.0, "L": "inf"},'
                 ' {"x_star": [1.0, 0.0], "mu": 2.0, "L": "inf"}], "bound_B": 3.0}')
    return str(p)


def test_verify_coincident_bounded_anchors_exit_64_with_no_points(
        capsys, coincident_bounded_path):
    # the anchors are checked when the pair is bound, not per point, so
    # an empty sample does not hide them
    for points in ("0", "5"):
        code, out, err = run(capsys, "verify", coincident_bounded_path, "--points", points)
        assert (code, out) == (64, "") and "summand minimizers coincide" in err


def test_check_coincident_bounded_anchors_reports_the_point_first(
        capsys, coincident_bounded_path):
    code, out, err = run(capsys, "check", coincident_bounded_path, "--point", "0", "0", "0")
    assert (code, out) == (65, "") and "mixed dimensions" in err
    code, out, err = run(capsys, "check", coincident_bounded_path, "--point", "nan", "0")
    assert (code, out) == (64, "") and "coordinates must be finite" in err
    code, out, err = run(capsys, "check", coincident_bounded_path, "--point", "0", "0")
    assert (code, out) == (64, "") and "summand minimizers coincide" in err


def test_bounds_at_the_minimum_cap_at_large_scale_reports(capsys, tmp_path):
    # at anchors near 1e13 the linear focal term, quadratic in their
    # distance, rounds below minus a tolerance that grows only linearly;
    # bound_B = min_bound_B is still a nonempty set, whose member is the
    # focal point
    x1 = np.array([11141888189895.0, -3087229363449.0])
    x2 = np.array([1686185380884.0, -16062990149736.0])
    sc = membership.Scenario(
        (membership.Summand(x1, ClassParams(7.6, math.inf)),
         membership.Summand(x2, ClassParams(5.4, math.inf))),
        bound_B=membership.min_bound_B(7.6, 5.4, x1, x2),
    )
    path = tmp_path / "far.json"
    save_scenario(sc, path)
    code, out, err = run(capsys, "bounds", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["reports"] == [
        {"bound_value": 0.0, "binding_term": "focal_linear", "kappa": None}]
    focal = json.loads(run(capsys, "focal", str(path))[1])["focal"]
    code, out, _ = run(capsys, "check", str(path), "--point", *map(repr, focal))
    assert json.loads(out)["state"] != OUTSIDE


def test_bounds_focal_linear_overflow_is_noted(capsys, tmp_path):
    # mu1 mu2 D^2 overflows before B D does, so the linear term reads -inf
    # although bound_B = 2 min_bound_B makes it positive (about 7.5e152):
    # a note, not a bound of 0 and not an empty set
    summands = [{"x_star": [x, 0], "mu": 10, "L": "inf"} for x in (0, 1.5e153)]
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"summands": summands, "bound_B": 1.5e154}), encoding="utf-8")
    code, out, _ = run(capsys, "bounds", str(p))
    payload = json.loads(out)
    assert code == 0
    assert (payload["reports"], payload["notes"]) == (
        [], ["the focal distance bound overflows: no finite distance bound applies"])


class _ClosedPipe:
    """A pipe whose reader has gone, with no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def test_broken_pipe_exits_141_silently(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["verify", "--random", "--seeds", "1", "--points", "3"])
    monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""


def test_broken_pipe_of_an_output_file_is_an_input_error(capsys, monkeypatch, smooth_path):
    # a --out FIFO whose reader went away: stdout is still open, so the
    # error is reported like any other unwritable output path
    def closed_fifo(path, *args, **kwargs):
        return _ClosedPipe()

    monkeypatch.setattr(cli, "open", closed_fifo, raising=False)
    code, out, err = run(capsys, "region", smooth_path, "--bbox", "-1", "1", "-1", "1",
                         "--res", "4", "4", "--out", "fifo.csv")
    assert (code, out) == (64, "") and "Broken pipe" in err


def test_broken_pipe_of_a_process_exits_141_silently():
    # the reader closes its end before minsum writes: stdout goes to
    # os.devnull, so the flush at interpreter exit raises nothing either
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "minsum", "verify", "--random", "--seeds", "1", "--points", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    with proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


def test_verify_flags_corrupted_predicate(capsys, monkeypatch, bounded_path):
    # simulate a broken closed form: every point reported inside, by a
    # margin of 1 under a tolerance of 0
    def always_inside(scenario):
        def kernel(points):
            n = len(points)
            return np.ones(n), np.zeros(n), None

        return kernel

    monkeypatch.setattr(membership, "_kernel", always_inside)
    code, out, _ = run(capsys, "verify", bounded_path, "--points", "80")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["mismatches"]
    # reproduction data comes along
    assert "point" in payload["mismatches"][0]


def overflowed_kernel(margin):
    """A kernel whose margins overflowed, as the ball chain's do with
    anchors near 1e155: every point gets this margin, which the caller
    classifies as any other (a NaN margin is boundary, -inf outside)."""
    def build(scenario):
        def kernel(points):
            n = len(points)
            return np.full(n, margin), np.zeros(n), None

        return kernel

    return build


def test_non_finite_margins_are_spelled_as_strings(capsys, monkeypatch, smooth_path):
    def strict(token):
        raise ValueError(token)

    monkeypatch.setattr(membership, "_kernel", overflowed_kernel(math.nan))
    code, out, _ = run(capsys, "check", smooth_path, "--point", "0", "0")
    assert (code, json.loads(out, parse_constant=strict)["margin"]) == (2, "nan")
    # mismatch records and necessity failures carry the margin too
    monkeypatch.setattr(membership, "_kernel", overflowed_kernel(-math.inf))
    code, out, _ = run(capsys, "verify", smooth_path, "--points", "20")
    payload = json.loads(out, parse_constant=strict)
    records = payload["mismatches"] + payload["necessity"]["failures"]
    assert code == 1 and payload["mismatches"] and payload["necessity"]["failures"]
    assert {r["margin"] for r in records} == {payload["necessity"]["worst_margin"]} == {"-inf"}


@pytest.mark.parametrize("s, state, margin, code", [
    (1e154, OUTSIDE, -math.inf, 1),
    (1e155, BOUNDARY, math.nan, 2),
])
def test_two_smooth_overflow_reads_alike_by_row_and_batch(capsys, tmp_path, s, state,
                                                          margin, code):
    # anchors at (+-s, 0), mu 1, L 5, at the point (0.1 s, 0.1 s): the
    # squares overflow, so the margin is -inf, then NaN.  The one-point
    # path and the raster's batch classify it by the same rule
    sc = membership.Scenario(tuple(
        membership.Summand([x, 0.0], ClassParams(1.0, 5.0)) for x in (-s, s)))
    x = np.array([0.1 * s, 0.1 * s])
    with np.errstate(over="ignore", invalid="ignore"):
        v = evaluate(sc, x)
        raster = membership.rasterize_region(sc, (0.0, 0.2 * s, 0.0, 0.2 * s), (1, 1))
    assert raster.centers().tobytes() == x[None, :].tobytes()
    assert (v.state, raster.state_names()) == (state, [state])
    assert np.float64(v.margin).tobytes() == raster.margins.tobytes()
    assert repr(v.margin) == repr(margin)
    path = tmp_path / "far.json"
    save_scenario(sc, path)
    with np.errstate(over="ignore", invalid="ignore"):
        out = run(capsys, "check", str(path), "--point", *map(repr, x.tolist()))
    assert (out[0], json.loads(out[1])["state"]) == (code, state)
