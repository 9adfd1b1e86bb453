import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsum.geometry import OUTSIDE, eps_for
from minsum.interpolation import (
    ClassParams,
    Triplet,
    check_interpolation,
    geometric_ball,
    minimizer_condition_margin,
    pair_slack,
    witness_values,
)

coord = st.floats(-10, 10, allow_nan=False)
mus = st.floats(0.0, 3.0, allow_nan=False)
gaps = st.floats(0.1, 10.0, allow_nan=False)


def vec(*vals):
    return np.array(vals, dtype=float)


def params_strategy(include_inf=True):
    def build(mu, gap, inf_flag):
        if include_inf and inf_flag:
            return ClassParams(mu, math.inf)
        return ClassParams(mu, mu + gap)

    return st.builds(build, mus, gaps, st.booleans())


# -------------------------------------------------------------- ClassParams


def test_class_params_validation():
    ClassParams(0.0, 1.0)
    ClassParams(0.0, math.inf)
    ClassParams(2.0, math.inf)
    with pytest.raises(ValueError):
        ClassParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        ClassParams(1.0, 1.0)  # mu = L excluded
    with pytest.raises(ValueError):
        ClassParams(2.0, 1.0)
    with pytest.raises(ValueError):
        ClassParams(1.0, math.nan)
    with pytest.raises(ValueError):
        ClassParams(math.inf, math.inf)


def test_ratio_conventions_at_infinite_L():
    p = ClassParams(2.0, math.inf)
    assert p.mu_over_L == 0.0
    assert p.inv_L == 0.0
    assert not p.is_smooth
    q = ClassParams(2.0, 5.0)
    assert q.mu_over_L == pytest.approx(0.4)
    assert q.is_smooth


# ----------------------------------------------------------- interpolation


def quadratic_triplets(matrix, center, points, shift=0.0):
    """Exact (x, gradient, value) data of x -> (x-c)'A(x-c)/2 + shift."""
    out = []
    for x in points:
        d = x - center
        out.append(Triplet(x, matrix @ d, 0.5 * float(d @ matrix @ d) + shift))
    return out


def test_quadratic_data_interpolates():
    a = np.array([[2.0, 0.0], [0.0, 5.0]])
    pts = [vec(0.0, 0.0), vec(1.0, 1.0), vec(-2.0, 0.5), vec(0.3, -4.0)]
    ts = quadratic_triplets(a, vec(1.0, -1.0), pts)
    v = check_interpolation(ts, ClassParams(2.0, 5.0))
    assert v.admits
    # ... but not inside a class with tighter curvature bounds
    v_bad = check_interpolation(ts, ClassParams(3.0, 5.0))
    assert v_bad.state == OUTSIDE


def test_interpolation_needs_consistent_values():
    ts = quadratic_triplets(np.eye(2) * 2.0, vec(0.0, 0.0), [vec(0.0, 0.0), vec(1.0, 0.0)])
    broken = [ts[0], Triplet(ts[1].x, ts[1].g, ts[1].f - 3.0)]
    assert check_interpolation(broken, ClassParams(1.0, 3.0)).state == OUTSIDE


def test_single_triplet_always_interpolable():
    v = check_interpolation([Triplet(vec(1.0), vec(2.0), 3.0)], ClassParams(1.0, 2.0))
    with pytest.raises(ValueError, match="at least one triplet"):
        check_interpolation([], ClassParams(1.0, 2.0))
    for f in (math.inf, math.nan):
        with pytest.raises(ValueError, match="function value must be finite"):
            Triplet(vec(1.0), vec(2.0), f)
    assert v.admits and v.margin == math.inf


def test_plain_convexity_case():
    # mu = 0, L = inf: the pairwise inequality is the subgradient inequality
    p = ClassParams(0.0, math.inf)
    t1 = Triplet(vec(0.0), vec(0.0), 0.0)
    t2 = Triplet(vec(1.0), vec(1.0), 0.4)
    assert pair_slack(t2, t1, p) == pytest.approx(0.4)
    assert pair_slack(t1, t2, p) == pytest.approx(0.6)
    assert check_interpolation([t1, t2], p).admits
    t2_bad = Triplet(vec(1.0), vec(1.0), -0.1)
    assert check_interpolation([t1, t2_bad], p).state == OUTSIDE


@given(
    st.lists(st.tuples(coord, coord), min_size=2, max_size=4),
    params_strategy(include_inf=False),
    st.tuples(coord, coord),
)
def test_sampled_quadratics_always_interpolable(pts, params, center):
    # diagonal quadratic with spectrum inside [mu, L] through random points
    lam = np.array([params.mu + 0.25 * (params.L - params.mu), params.L - 0.25 * (params.L - params.mu)])
    a = np.diag(lam)
    ts = quadratic_triplets(a, np.array(center), [np.array(p) for p in pts])
    assert check_interpolation(ts, params).admits


# ------------------------------------------------- one-point minimizer test


def test_minimizer_condition_worked_example():
    # mu=1, L=3, x - x* = e1, g = 2 e1: margin 2 - (3/4)(4/3 + 1) = 1/4
    m = minimizer_condition_margin(vec(1.0, 0.0), vec(2.0, 0.0), vec(0.0, 0.0), ClassParams(1.0, 3.0))
    assert m == pytest.approx(0.25)


def test_minimizer_condition_nonsmooth_case():
    # L = inf: margin is <g, d> - mu |d|^2
    m = minimizer_condition_margin(vec(2.0), vec(5.0), vec(0.0), ClassParams(2.0, math.inf))
    assert m == pytest.approx(10.0 - 8.0)


def test_extreme_quadratics_sit_on_the_ball_boundary():
    params = ClassParams(1.0, 3.0)
    x, xs = vec(2.0, 1.0), vec(0.5, -0.5)
    d = x - xs
    ball = geometric_ball(x, xs, params)
    for lam in (params.mu, params.L):
        g = lam * d
        assert ball.distance(g) == pytest.approx(0.0, abs=1e-12)
        assert abs(minimizer_condition_margin(x, g, xs, params)) < 1e-12


def test_geometric_ball_center_points_from_minimizer_to_x():
    params = ClassParams(1.0, 3.0)
    ball = geometric_ball(vec(1.0, 0.0), vec(0.0, 0.0), params)
    assert np.allclose(ball.center, vec(2.0, 0.0))
    assert ball.radius == pytest.approx(1.0)
    # the admissible gradient g = 2 e1 lies at the center: |2e1 - 2e1| = 0
    assert ball.contains(vec(2.0, 0.0))
    # a gradient pointing toward the minimizer is never admissible
    assert not ball.contains(vec(-2.0, 0.0))


def test_geometric_ball_needs_finite_L():
    with pytest.raises(ValueError):
        geometric_ball(vec(1.0), vec(0.0), ClassParams(1.0, math.inf))


@given(
    st.tuples(coord, coord),
    st.tuples(coord, coord),
    st.tuples(coord, coord),
    mus,
    gaps,
)
def test_sign_equivalence_of_margin_and_ball(x, g, xs, mu, gap):
    """The one-point margin and the ball form decide identically.

    Exact identity: margin * (L + mu) = ball_margin * (|g - c| + R + |c|
    adjustments) collapses to sign agreement; checked through the scaled
    relation margin * (L + mu) == (R - dist) * (R + dist) with
    dist = |g - center|.
    """
    params = ClassParams(mu, mu + gap)
    xv, gv, sv = np.array(x), np.array(g), np.array(xs)
    m = minimizer_condition_margin(xv, gv, sv, params)
    ball = geometric_ball(xv, sv, params)
    dist = float(np.linalg.norm(gv - ball.center))
    lhs = m * (params.L + params.mu)
    rhs = (ball.radius - dist) * (ball.radius + dist)
    scale = (1 + params.L) ** 2 * (1 + float(np.linalg.norm(xv - sv)) + float(np.linalg.norm(gv))) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-9 * scale)


# ----------------------------------------------------------------- witness


def test_witness_values_round_trip():
    params = ClassParams(1.0, 3.0)
    x, g, xs = vec(1.0, 0.0), vec(2.0, 0.0), vec(0.0, 0.0)
    w = witness_values(x, g, xs, params)
    assert w.f_star == 0.0
    assert w.f_x == pytest.approx(w.energy / (1.0 - params.mu_over_L))
    ts = [Triplet(x, g, w.f_x), Triplet(xs, np.zeros(2), w.f_star)]
    assert check_interpolation(ts, params).admits


def test_witness_values_rejects_infeasible_pair():
    params = ClassParams(1.0, 3.0)
    with pytest.raises(ValueError, match="not attainable"):
        witness_values(vec(1.0, 0.0), vec(-2.0, 0.0), vec(0.0, 0.0), params)


@given(
    st.tuples(coord, coord),
    st.tuples(coord, coord),
    mus,
    gaps,
    st.floats(0, 1),
    st.floats(0, 2 * math.pi),
)
def test_witness_round_trip_over_feasible_gradients(x, xs, mu, gap, t, angle):
    params = ClassParams(mu, mu + gap)
    xv, sv = np.array(x), np.array(xs)
    ball = geometric_ball(xv, sv, params)
    u = np.array([math.cos(angle), math.sin(angle)])
    g = ball.center + t * ball.radius * u
    w = witness_values(xv, g, sv, params)
    ts = [Triplet(xv, g, w.f_x), Triplet(sv, np.zeros(2), w.f_star)]
    assert check_interpolation(ts, params).admits
    # the tight direction: slack of (x pair x*) vanishes
    s = pair_slack(ts[0], ts[1], params)
    eps = eps_for(xv, g, sv, params.mu, params.L, w.f_x)
    assert abs(s) <= 10 * eps
