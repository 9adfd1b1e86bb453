import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsum.geometry import (
    BOUNDARY,
    Ball,
    CoincidentPointsError,
    DimensionMismatchError,
    HalfSpace,
    INSIDE,
    OUTSIDE,
    TOL_ENV_VAR,
    Verdict,
    as_vec,
    check_same_dim,
    classify,
    eps_for,
    gram_det,
    gram_matrix,
    tol_coefficient,
)
from minsum.oracle import _pairwise_gap

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
small = st.floats(-100, 100, allow_nan=False)
radii = st.floats(0, 100, allow_nan=False)


def vec(*vals):
    return np.array(vals, dtype=float)


# --------------------------------------------------------------- tolerances


def test_classify_three_states():
    assert classify(1.0, 1e-9) == INSIDE
    assert classify(-1.0, 1e-9) == OUTSIDE
    assert classify(0.0, 1e-9) == BOUNDARY
    assert classify(5e-10, 1e-9) == BOUNDARY
    assert classify(-5e-10, 1e-9) == BOUNDARY


def test_eps_scales_with_magnitude():
    assert eps_for(vec(0.0, 0.0)) == pytest.approx(1e-9)
    assert eps_for(vec(1e6, 0.0)) == pytest.approx(1e-9 * (1 + 1e6))
    # infinite smoothness constants do not blow up the tolerance
    assert eps_for(2.0, math.inf) == eps_for(2.0)


def eps_for_loop(*values):
    """eps_for as a loop over its arguments, the reference for the
    one-pass version."""
    scale = 0.0
    for v in values:
        a = np.asarray(v, dtype=float).ravel()
        if a.size == 0:
            continue
        finite = np.abs(a[np.isfinite(a)])
        if finite.size:
            scale = max(scale, float(finite.max()))
    return tol_coefficient() * (1.0 + scale)


def test_eps_for_matches_loop_bitwise():
    rng = np.random.default_rng(4)
    specials = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300, -5e-324]
    cases = [(), ([],), (np.zeros((0, 3)),), (math.inf,), ([math.nan, -math.inf],),
             (-0.0, np.zeros(2)), (2.0, math.inf, [[1.0, -3.5]], np.zeros(0))]
    for _ in range(300):
        values = []
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(0, 4))
            v = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
            v[rng.random(size) < 0.3] = rng.choice(specials)
            values.append(v if rng.random() < 0.7 else (float(v[0]) if size else []))
        cases.append(tuple(values))
    for values in cases:
        assert eps_for(*values) == eps_for_loop(*values), values


def test_tol_env_override(monkeypatch):
    monkeypatch.setenv(TOL_ENV_VAR, "1e-3")
    assert tol_coefficient() == 1e-3
    assert classify(1e-4, eps_for(0.0)) == BOUNDARY
    # zero is a valid coefficient: exact comparisons
    monkeypatch.setenv(TOL_ENV_VAR, "0")
    assert eps_for(vec(5.0, -7.0)) == 0.0
    assert classify(1e-300, eps_for(0.0)) == INSIDE
    monkeypatch.delenv(TOL_ENV_VAR)
    assert tol_coefficient() == 1e-9


@pytest.mark.parametrize("raw", ["nan", "-1e-9", "abc", "inf"])
def test_tol_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv(TOL_ENV_VAR, raw)
    with pytest.raises(ValueError, match=TOL_ENV_VAR):
        tol_coefficient()
    with pytest.raises(ValueError, match=TOL_ENV_VAR):
        eps_for(1.0)


def test_verdict_admits():
    assert Verdict(INSIDE, 1.0).admits
    assert Verdict(BOUNDARY, 0.0).admits
    assert not Verdict(OUTSIDE, -1.0).admits


def test_as_vec_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vec([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vec([])
    with pytest.raises(ValueError):
        as_vec([1.0, math.nan])
    with pytest.raises(DimensionMismatchError):
        check_same_dim(vec(1, 2), vec(1, 2, 3))


# --------------------------------------------------------------------- Ball


def test_ball_basic_geometry():
    b = Ball(vec(1.0, 0.0), 2.0)
    assert b.contains(vec(1.0, 0.0))
    assert b.contains(vec(3.0, 0.0))
    assert not b.contains(vec(3.1, 0.0))
    assert b.distance(vec(4.0, 0.0)) == pytest.approx(1.0)
    assert b.distance(vec(0.0, 0.0)) == 0.0


def test_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        Ball(vec(0.0), -1.0)
    with pytest.raises(ValueError):
        Ball(vec(0.0), math.inf)


@given(st.lists(small, min_size=2, max_size=4), radii, st.lists(small, min_size=2, max_size=4))
def test_ball_projection_lands_inside(center, r, point):
    n = min(len(center), len(point))
    b = Ball(np.array(center[:n]), r)
    g = np.array(point[:n])
    p = b.project(g)
    assert b.contains(p, eps=1e-9 * (1 + np.linalg.norm(p)))
    # projecting twice changes nothing
    assert np.allclose(b.project(p), p)


# --------------------------------------------------------------- HalfSpace


def test_halfspace_basic():
    h = HalfSpace(vec(1.0, 0.0), 2.0)
    assert h.contains(vec(2.0, 5.0))
    assert not h.contains(vec(2.5, 0.0))
    assert h.distance(vec(4.0, 0.0)) == pytest.approx(2.0)


def test_halfspace_zero_normal():
    vacuous = HalfSpace(vec(0.0, 0.0), 1.0)
    empty = HalfSpace(vec(0.0, 0.0), -1.0)
    g = vec(3.0, 3.0)
    assert vacuous.contains(g)
    assert vacuous.distance(g) == 0.0
    assert not empty.contains(g)
    assert empty.distance(g) == math.inf
    # projection cannot help either way; it must at least not move
    assert np.allclose(empty.project(g), g)


@given(st.lists(small, min_size=2, max_size=2), small, st.lists(small, min_size=2, max_size=2))
def test_halfspace_projection(normal, offset, point):
    h = HalfSpace(np.array(normal), offset)
    g = np.array(point)
    p = h.project(g)
    if h._norm() > 1e-6:
        assert h.contains(p, eps=1e-7 * (1 + np.linalg.norm(p)))
        assert np.allclose(h.project(p), p, atol=1e-9)


# ------------------------------------------ intersection gaps (the oracle's)


def test_balls_intersect_margin_signs():
    # the gap is max(0, -margin), margin = (r1 + r2) - |c1 - c2|
    a = Ball(vec(0.0, 0.0), 1.0)
    assert _pairwise_gap(a, Ball(vec(1.5, 0.0), 1.0)) == 0.0
    assert _pairwise_gap(a, Ball(vec(2.0, 0.0), 1.0)) == pytest.approx(0.0)
    assert _pairwise_gap(a, Ball(vec(3.0, 0.0), 1.0)) == pytest.approx(1.0)


def test_ball_halfspace_margin_signs():
    # the gap is -margin/|n|, margin = offset - (<n, c> - r|n|), when
    # the margin is negative, and 0 otherwise; either argument order
    b = Ball(vec(0.0, 0.0), 1.0)
    # half-space x <= o
    assert _pairwise_gap(b, HalfSpace(vec(1.0, 0.0), 0.0)) == 0.0
    assert _pairwise_gap(b, HalfSpace(vec(1.0, 0.0), -1.0)) == pytest.approx(0.0)
    assert _pairwise_gap(b, HalfSpace(vec(1.0, 0.0), -2.0)) == pytest.approx(1.0)
    # scaling the normal scales the margin, not the gap
    assert _pairwise_gap(HalfSpace(vec(2.0, 0.0), -4.0), b) == pytest.approx(1.0)


@given(
    st.lists(small, min_size=2, max_size=2),
    radii,
    st.lists(small, min_size=2, max_size=2),
    radii,
)
def test_balls_margin_matches_pointwise_truth(c1, r1, c2, r2):
    b1, b2 = Ball(np.array(c1), r1), Ball(np.array(c2), r2)
    gap = _pairwise_gap(b1, b2)
    assert gap == pytest.approx(_pairwise_gap(b2, b1))
    scale = 1e-7 * (1 + max(map(abs, [*c1, *c2, r1, r2])))
    if gap == 0.0:
        # the point of b1 nearest c2 lies in b2
        dist = np.linalg.norm(b1.center - b2.center)
        if dist > 0:
            w = b1.center + (b2.center - b1.center) * min(1.0, b1.radius / dist)
        else:
            w = b1.center
        assert b2.distance(w) <= scale + b2.radius * 1e-12
    if gap > scale:
        assert b2.distance(b1.project(b2.center)) == pytest.approx(gap)


# -------------------------------------------------------------- gram matrix


def test_gram_matrix_layout():
    m = gram_matrix(vec(0.0, 1.0), vec(-1.0, 0.0), vec(1.0, 0.0), 1.75, 2.0, 9.0)
    assert np.allclose(m, m.T)
    assert m[0, 0] == 1.0 and m[1, 1] == 1.0
    assert m[2, 2] == 9.0
    r = math.sqrt(2.0)
    assert m[0, 2] == pytest.approx(1.75 * r)
    assert m[1, 2] == pytest.approx(-2.0 * r)
    # cosine between x*-x1 = (1,1) and x*-x2 = (-1,1)
    assert m[0, 1] == pytest.approx(0.0)


def test_gram_det_frozen_value():
    # worked instance: anchors (+-1, 0), moduli 1.75/2, cap 3, point (0, 1)
    d = gram_det(vec(0.0, 1.0), vec(-1.0, 0.0), vec(1.0, 0.0), 1.75, 2.0, 9.0)
    assert d == pytest.approx(-5.125, abs=1e-12)


@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    st.floats(0, 5),
    st.floats(0, 5),
    st.floats(0, 50),
)
def test_gram_det_matches_numpy(xs, mu1, mu2, alpha):
    x_star = np.array(xs)
    x1 = vec(-1.0, 0.0)
    x2 = vec(1.0, 0.0)
    try:
        m = gram_matrix(x_star, x1, x2, mu1, mu2, alpha)
    except CoincidentPointsError:
        return
    d = gram_det(x_star, x1, x2, mu1, mu2, alpha)
    # numpy's LU divides by a zero pivot of a singular reference matrix
    with np.errstate(divide="ignore"):
        reference = float(np.linalg.det(m))
    assert d == pytest.approx(reference, rel=1e-6, abs=1e-6)


def test_gram_rejects_coincident_and_negative():
    with pytest.raises(CoincidentPointsError):
        gram_matrix(vec(-1.0, 0.0), vec(-1.0, 0.0), vec(1.0, 0.0), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gram_matrix(vec(0.0, 1.0), vec(-1.0, 0.0), vec(1.0, 0.0), -0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        gram_matrix(vec(0.0, 1.0), vec(-1.0, 0.0), vec(1.0, 0.0), 0.5, 1.0, -1.0)
