import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsum.geometry import (
    BOUNDARY,
    Ball,
    DimensionMismatchError,
    HalfSpace,
    INSIDE,
    OUTSIDE,
    TOL,
    Verdict,
    as_vec,
    check_same_dim,
    classify,
    cofactor_det,
    eps_for,
    fold,
)

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
    return TOL * (1.0 + scale)


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


def fold_loop(a, axis=0):
    """fold as the Python loop it stands for: a[0] + a[1] + ... along axis."""
    a = a.swapaxes(0, axis)
    out = a[0]
    for part in a[1:]:
        out = out + part
    return out


@pytest.mark.parametrize("rows", [1, 1000])
def test_fold_matches_left_to_right_loop_bitwise(rows):
    rng = np.random.default_rng(rows)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e308])
    for length in range(1, 10):
        for shape, axis in (((length, rows), 0), ((length, 3, rows), 0), ((3, length, rows), -2)):
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            mask = rng.random(shape) < 0.2
            a[mask] = rng.choice(specials, size=int(mask.sum()))
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = fold(a, axis), fold_loop(a, axis)
            assert got.shape == want.shape
            nan = np.isnan(want)
            assert (np.isnan(got) == nan).all()
            assert got[~nan].tobytes() == want[~nan].tobytes()
    # the empty sum
    assert fold(np.zeros((0, 3))).tolist() == [0.0, 0.0, 0.0]


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
    with pytest.raises(DimensionMismatchError, match=r"mixed dimensions \[2, 3\]"):
        as_vec([1.0, 2.0], 3)
    # finiteness comes before the length: a plain ValueError
    for bad in ([1.0, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="finite") as info:
            as_vec(bad, 3)
        assert type(info.value) is ValueError
    with pytest.raises(ValueError, match="1-d") as info:
        as_vec([[1.0, 2.0, 3.0]], 3)
    assert type(info.value) is ValueError
    assert as_vec([1, 2], 2).tolist() == [1.0, 2.0]
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


def test_halfspace_rejects_non_finite_offset():
    for offset in (math.inf, math.nan):
        with pytest.raises(ValueError, match="offset must be finite"):
            HalfSpace(vec(1.0, 0.0), offset)


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


# -------------------------------------------------------------- gram matrix


def test_gram_det_frozen_value():
    # worked instance: anchors (+-1, 0), moduli 1.75/2, cap 3, point (0, 1):
    # d1 = (1, 1) and d2 = (-1, 1) are orthogonal, |d1| = |d2| = sqrt(2)
    r = math.sqrt(2.0)
    d = cofactor_det(0.0, 1.75 * r, -2.0 * r, 9.0)
    assert d == pytest.approx(-5.125, abs=1e-12)


@given(
    st.floats(-1, 1),
    st.floats(-350, 350),
    st.floats(-350, 350),
    st.floats(0, 50),
)
def test_gram_det_matches_numpy(c, a, b, alpha):
    d = cofactor_det(c, a, b, alpha)
    m = np.array([[1.0, c, a], [c, 1.0, b], [a, b, alpha]])
    # numpy's LU divides by a zero pivot of a singular reference matrix
    with np.errstate(divide="ignore"):
        reference = float(np.linalg.det(m))
    assert d == pytest.approx(reference, rel=1e-6, abs=1e-6)
