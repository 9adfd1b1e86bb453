"""The CLI's output contract: every run ends with a documented exit code,
and standard output, read at file descriptor 1 so that native code's
writes count too, is empty or one strict JSON document."""
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minsum import cli

EXIT_CODES = {0, 1, 2, 64, 65, 66}
# signed zeros, a subnormal, and magnitudes whose squares stay finite
# (1e154) or overflow (1e155), up to the top of the float range
EXTREMES = [0.0, -0.0, 1e-320, 1e154, -1e154, 1e155, -1e155, 1.7e308, -1.7e308]


def _strict(token):
    raise ValueError(f"{token} is not strict JSON")


def run(capfd, argv):
    """cli.main on argv: (exit code, what reached file descriptor 1, stderr)."""
    # the kernels' squares overflow on extreme inputs, a known limit of
    # their arithmetic: a user sees these warnings on stderr, while the
    # suite's warning filter would turn them into errors
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered", RuntimeWarning)
        code = cli.main([str(a) for a in argv])
    out, err = capfd.readouterr()
    return code, out, err


def assert_contract(code, out):
    assert code in EXIT_CODES
    if out or code <= 2:
        json.loads(out, parse_constant=_strict)


coordinates = st.one_of(st.sampled_from(EXTREMES), st.floats(-4.0, 4.0))
moduli = st.one_of(st.just(0.0), st.floats(0.1, 3.0))


@st.composite
def summand(draw, dim):
    mu = draw(moduli)
    big_l = draw(st.one_of(
        st.just("inf"),
        st.just(float(np.nextafter(mu, np.inf))),
        st.floats(1.5, 10.0).map(lambda ratio: mu * ratio or ratio),
    ))
    out = {"x_star": draw(st.lists(coordinates, min_size=dim, max_size=dim)), "mu": mu, "L": big_l}
    if draw(st.integers(0, 4)) == 0:
        diagonal = draw(st.lists(st.floats(0.0, 5.0), min_size=dim, max_size=dim))
        out["known"] = {
            "matrix": [[d if i == j else 0.0 for j in range(dim)] for i, d in enumerate(diagonal)],
            "center": draw(st.lists(coordinates, min_size=dim, max_size=dim)),
        }
    return out


@st.composite
def cases(draw):
    dim = draw(st.integers(1, 3))
    summands = draw(st.lists(summand(dim), min_size=1, max_size=5))
    scenario = {"summands": summands}
    # a cap exactly where it is needed, now and then where it is not
    nonsmooth = sum(s["L"] == "inf" and "known" not in s for s in summands)
    if (nonsmooth >= 2) != (draw(st.integers(0, 7)) == 0):
        scenario["bound_B"] = draw(
            st.one_of(st.sampled_from([0.0, 1e154, 1.08e308]), st.floats(0.0, 10.0)))
    point = draw(st.lists(coordinates, min_size=dim, max_size=dim))
    bbox = sorted(draw(st.lists(coordinates, min_size=2, max_size=2))) * 2
    return scenario, point, bbox


def test_cli_keeps_its_output_contract(capfd, tmp_path):
    path = tmp_path / "scenario.json"

    @settings(max_examples=150, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases())
    def contract(case):
        scenario, point, bbox = case
        path.write_text(json.dumps(scenario), encoding="utf-8")
        commands = [
            ["check", path, "--point", *map(repr, point)],
            ["bounds", path],
            ["focal", path],
            ["verify", path, "--points", 20],
        ]
        if len(point) == 2:
            commands.append(["region", path, "--bbox", *map(repr, bbox), "--res", 4, 4])
        for argv in commands:
            assert_contract(*run(capfd, argv)[:2])

    contract()


def write(tmp_path, anchor):
    path = tmp_path / "scenario.json"
    summands = [{"x_star": [x, 0.0], "mu": 1.0, "L": 5.0} for x in (anchor, -anchor)]
    path.write_text(json.dumps({"summands": summands}), encoding="utf-8")
    return path


@pytest.mark.parametrize("command, flags, message", [
    # numpy's uniform rejects a range wider than the floats
    pytest.param("verify", ["--points", "20"], "the anchor box padded by inf on each side",
                 id="verify"),
    # LAPACK prints to file descriptor 1 on a non-finite least-squares system
    pytest.param("bounds", [], "the anchors are too far apart for the enclosing ball",
                 id="bounds"),
])
def test_anchors_too_far_apart_exit_64_with_a_message(capfd, tmp_path, command, flags, message):
    code, out, err = run(capfd, [command, write(tmp_path, 1.7e308), *flags])
    assert (code, out) == (64, "")
    assert message in err



def test_overflowing_quadratic_instances_exit_64_naming_the_overflow(capfd, tmp_path):
    # both anchors near the top of the float range: every instance's
    # A_i c_i overflows, while the moduli are not zero
    path = tmp_path / "scenario.json"
    summand = {"x_star": [0.0, 3.543, -1.7e308], "mu": 0.6253, "L": 5.181}
    path.write_text(json.dumps({"summands": [summand, summand]}), encoding="utf-8")
    code, out, err = run(capfd, ["verify", path, "--points", 20])
    assert (code, out) == (64, "")
    assert "overflow the float range" in err and "moduli" not in err
