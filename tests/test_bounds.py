import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsum import bounds
from minsum.bounds import (
    BALL_NONSMOOTH,
    BALL_SMOOTH,
    BASELINE,
    FOCAL_LINEAR,
    FOCAL_QUADRATIC,
    ball_bound_baseline,
    ball_bound_one_nonsmooth,
    ball_bound_smooth,
    focal_distance_bound,
    scenario_bound_reports,
    smallest_enclosing_ball,
)
from minsum.interpolation import ClassParams
from minsum.membership import Scenario, Summand, min_bound_B


def vec(*vals):
    return np.array(vals, dtype=float)


# ------------------------------------------------------------ focal bounds


def test_focal_distance_bound_values():
    x1, x2 = vec(-1.0, 0.0), vec(1.0, 0.0)
    got = focal_distance_bound(1.75, 2.0, x1, x2, 3.0)
    linear = 3.0 * 2.0 / 3.75 - 1.75 * 2.0 * 4.0 / 3.75**2
    assert got == pytest.approx(math.sqrt(linear))
    # collapses to zero exactly at the smallest feasible cap
    bmin = min_bound_B(1.75, 2.0, x1, x2)
    assert focal_distance_bound(1.75, 2.0, x1, x2, bmin) == pytest.approx(0.0, abs=1e-12)


def test_bound_reports_take_the_focal_terms_once(bounded_pair, monkeypatch):
    # the scenario holds checked inputs and b >= min_bound_B is the one
    # emptiness rule, so the report path neither re-checks them through
    # focal_distance_bound nor works the terms out twice
    calls = []
    terms = bounds._focal_terms

    def counted(*args):
        calls.append(args)
        return terms(*args)

    def public(*args):
        raise AssertionError("the report path called focal_distance_bound")

    monkeypatch.setattr(bounds, "_focal_terms", counted)
    monkeypatch.setattr(bounds, "focal_distance_bound", public)
    (report,) = scenario_bound_reports(bounded_pair)["reports"]
    assert len(calls) == 1
    expected = focal_distance_bound(1.75, 2.0, vec(-1.0, 0.0), vec(1.0, 0.0), 3.0)
    assert (report.bound_value, report.binding_term) == (expected, FOCAL_LINEAR)


def test_focal_distance_bound_quadratic_term():
    # for caps between D*min(mu) and D*max(mu) the quadratic term binds
    x1, x2 = vec(-1.0, 0.0), vec(1.0, 0.0)
    b = 3.75
    got = focal_distance_bound(1.75, 2.0, x1, x2, b)
    assert got == pytest.approx(b / 3.75)


def test_focal_distance_bound_validation():
    x1, x2 = vec(-1.0, 0.0), vec(1.0, 0.0)
    with pytest.raises(ValueError, match="empty"):
        focal_distance_bound(1.75, 2.0, x1, x2, 1.0)  # below the minimum
    with pytest.raises(ValueError):
        focal_distance_bound(-1.0, 2.0, x1, x2, 3.0)
    with pytest.raises(ValueError):
        focal_distance_bound(0.0, 0.0, x1, x2, 3.0)
    with pytest.raises(ValueError):
        focal_distance_bound(1.0, 1.0, x1, x2, math.inf)


@pytest.mark.parametrize("mu1", [math.nan, math.inf])
def test_focal_distance_bound_rejects_non_finite_moduli(mu1):
    # such a modulus used to give a nan bound, not an error
    x1, x2 = vec(-1.0, 0.0), vec(1.0, 0.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        focal_distance_bound(mu1, 2.0, x1, x2, 3.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        focal_distance_bound(2.0, mu1, x1, x2, 3.0)


def test_focal_distance_bound_at_the_minimum_cap_at_large_scale():
    # b >= min_bound_B is the one emptiness rule: at anchors near 1e13 the
    # linear term rounds far below 0, yet the set is the focal point
    x1 = vec(11141888189895.0, -3087229363449.0)
    x2 = vec(1686185380884.0, -16062990149736.0)
    assert focal_distance_bound(7.6, 5.4, x1, x2, min_bound_B(7.6, 5.4, x1, x2)) == 0.0
    # mu1 mu2 D^2 overflows, so the bound is unknown, not 0
    assert math.isnan(focal_distance_bound(10.0, 10.0, vec(0.0, 0.0), vec(1.5e153, 0.0),
                                           1.5e154))


@given(
    st.floats(0.1, 4),
    st.floats(0.1, 4),
    st.floats(0.01, 10),
    st.floats(0.2, 6),
)
def test_focal_bound_monotone_in_cap(mu1, mu2, excess, sep):
    x1, x2 = vec(0.0, 0.0), vec(sep, 0.0)
    bmin = min_bound_B(mu1, mu2, x1, x2)
    lo = focal_distance_bound(mu1, mu2, x1, x2, bmin + excess)
    hi = focal_distance_bound(mu1, mu2, x1, x2, bmin + 2 * excess)
    assert hi >= lo - 1e-12


# ------------------------------------------------------------- ball bounds


def test_ball_bound_values():
    assert ball_bound_smooth(25.0) == pytest.approx(2.6)
    assert ball_bound_smooth(1.0 + 1e-9) == pytest.approx(1.0)
    assert ball_bound_one_nonsmooth(3.0) == pytest.approx(2.0)
    assert ball_bound_baseline(4.0) == pytest.approx(3.0)
    assert ball_bound_baseline(1.0) == pytest.approx(2.0)


def test_ball_bound_validation():
    for fn in (ball_bound_smooth, ball_bound_one_nonsmooth):
        with pytest.raises(ValueError):
            fn(1.0)
        with pytest.raises(ValueError):
            fn(math.inf)
    with pytest.raises(ValueError):
        ball_bound_baseline(0.5)


@given(st.floats(1.001, 1e6))
def test_ball_bound_ordering(kappa):
    # the dedicated bounds always improve on the baseline
    assert ball_bound_smooth(kappa) <= ball_bound_baseline(kappa)
    assert ball_bound_one_nonsmooth(kappa) <= ball_bound_baseline(kappa) + 1e-12


# -------------------------------------------------------- enclosing ball


def test_enclosing_ball_simple_cases():
    two = smallest_enclosing_ball([vec(-1.0, 0.0), vec(1.0, 0.0)])
    assert np.allclose(two.center, vec(0.0, 0.0), atol=1e-9)
    assert two.radius == pytest.approx(1.0)
    square = smallest_enclosing_ball(
        [vec(1.0, 1.0), vec(-1.0, 1.0), vec(1.0, -1.0), vec(-1.0, -1.0)]
    )
    assert np.allclose(square.center, vec(0.0, 0.0), atol=1e-9)
    assert square.radius == pytest.approx(math.sqrt(2.0))
    single = smallest_enclosing_ball([vec(3.0, 4.0)])
    assert single.radius == 0.0
    with pytest.raises(ValueError, match="at least one point"):
        smallest_enclosing_ball([])


@given(
    st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=12)
)
def test_enclosing_ball_contains_everything(pts):
    vecs = [np.array(p) for p in pts]
    ball = smallest_enclosing_ball(vecs)
    scale = 1e-7 * (1 + max(float(np.linalg.norm(v)) for v in vecs))
    for v in vecs:
        assert ball.contains(v, eps=scale)
    # never larger than the trivial centroid ball
    centroid = sum(vecs) / len(vecs)
    trivial = max(float(np.linalg.norm(v - centroid)) for v in vecs)
    assert ball.radius <= trivial + scale


def test_enclosing_ball_deterministic_and_seed_stable():
    pts = [vec(0.0, 0.0), vec(2.0, 1.0), vec(-1.0, 3.0), vec(0.5, -2.0)]
    a = smallest_enclosing_ball(pts)
    b = smallest_enclosing_ball(pts)
    assert np.array_equal(a.center, b.center) and a.radius == b.radius
    # the shuffle's seed is fixed: another order of the points stands in
    # for another seed
    c = smallest_enclosing_ball(pts[::-1])
    assert np.allclose(a.center, c.center, atol=1e-9)
    assert a.radius == pytest.approx(c.radius)


def test_enclosing_ball_takes_anchors_in_summand_order():
    # the scenario lists its unknowns nonsmooth last; the ball must still
    # see the anchors in summand order, as its last bits depend on it
    pts = [vec(0.5, -0.9), vec(-1.8, -1.9), vec(1.3, 1.7)]
    params = [ClassParams(2.0, math.inf), ClassParams(1.0, 6.0), ClassParams(1.0, 9.0)]
    sc = Scenario(tuple(Summand(p, c) for p, c in zip(pts, params)))
    got = scenario_bound_reports(sc)["enclosing"]
    want = smallest_enclosing_ball(pts)
    assert got.center.tobytes() == want.center.tobytes() and got.radius == want.radius
    # the guard bites: the nonsmooth-last order gives other bits here
    other = smallest_enclosing_ball([s.x_star for s in sc.unknown_summands])
    assert other.center.tobytes() != want.center.tobytes()


def test_enclosing_ball_of_many_points():
    # more points than Python's recursion limit; the unit circle through
    # three of them encloses the rest
    rng = np.random.default_rng(5)
    inner = rng.uniform(-0.6, 0.6, (1997, 2))
    angles = 2.0 * math.pi / 3.0 * np.arange(3)
    rim = np.column_stack((np.cos(angles), np.sin(angles)))
    pts = list(np.vstack((inner, rim)))
    ball = smallest_enclosing_ball(pts)
    assert np.allclose(ball.center, 0.0, atol=1e-9)
    assert ball.radius == pytest.approx(1.0)
    sc = Scenario(tuple(Summand(p, ClassParams(1.0, 2.0)) for p in pts))
    assert scenario_bound_reports(sc)["enclosing"].radius == ball.radius


# ----------------------------------------------------------- full reports


def test_reports_smooth_pair(smooth_pair):
    info = scenario_bound_reports(smooth_pair)
    assert info["notes"] == []
    assert info["enclosing"].radius == pytest.approx(1.0)
    assert info["focal"] is not None
    kinds = [r.binding_term for r in info["reports"]]
    assert kinds == [BALL_SMOOTH, BASELINE]
    smooth_report = info["reports"][0]
    assert smooth_report.kappa == pytest.approx(15.0)
    assert smooth_report.bound_value == pytest.approx(ball_bound_smooth(15.0))
    assert info["reports"][1].bound_value == pytest.approx(1.0 + math.sqrt(15.0))


def test_reports_one_nonsmooth(mixed_pair):
    info = scenario_bound_reports(mixed_pair)
    kinds = [r.binding_term for r in info["reports"]]
    assert kinds == [BALL_NONSMOOTH, BASELINE]
    assert info["reports"][0].kappa == pytest.approx(4.0)
    assert info["reports"][0].bound_value == pytest.approx(math.sqrt(5.0))
    assert info["focal"] is None


def test_reports_bounded(bounded_pair):
    info = scenario_bound_reports(bounded_pair)
    assert [r.binding_term for r in info["reports"]] == [FOCAL_LINEAR]
    assert info["focal"] is not None
    assert info["reports"][0].kappa is None


def test_reports_bounded_quadratic_binding():
    sc = Scenario(
        (
            Summand(vec(-1.0, 0.0), ClassParams(1.75, math.inf)),
            Summand(vec(1.0, 0.0), ClassParams(2.0, math.inf)),
        ),
        bound_B=3.75,
    )
    info = scenario_bound_reports(sc)
    assert [r.binding_term for r in info["reports"]] == [FOCAL_QUADRATIC]


def test_reports_empty_set_note(bounded_pair):
    sc = Scenario(bounded_pair.summands, bound_B=1.0)
    info = scenario_bound_reports(sc)
    assert info["reports"] == []
    assert any("empty" in n for n in info["notes"])


def test_reports_zero_modulus_note():
    sc = Scenario(
        (
            Summand(vec(-1.0, 0.0), ClassParams(0.0, 4.0)),
            Summand(vec(1.0, 0.0), ClassParams(1.0, 4.0)),
        )
    )
    info = scenario_bound_reports(sc)
    assert info["reports"] == []
    assert any("mu = 0" in n for n in info["notes"])


def test_reports_known_note(smooth_pair):
    from minsum.membership import KnownFunction

    k = KnownFunction(np.eye(2), vec(0.0, 0.0))
    sc = Scenario(
        (Summand(vec(0.0, 0.0), ClassParams(0.5, 2.0), k),) + smooth_pair.summands
    )
    info = scenario_bound_reports(sc)
    assert info["reports"] == []
    assert any("known" in n for n in info["notes"])
