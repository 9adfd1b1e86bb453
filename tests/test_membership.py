import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsum.geometry import (
    BOUNDARY,
    CoincidentPointsError,
    DimensionMismatchError,
    HalfSpace,
    INSIDE,
    OUTSIDE,
    eps_for,
    tol_coefficient,
)
from minsum.interpolation import (
    ClassParams,
    Triplet,
    check_interpolation,
    geometric_ball,
    witness_values,
)
from minsum.membership import (
    COND_BASE,
    COND_DET,
    COND_FIRST,
    COND_SECOND,
    KNOWN_ONE_NONSMOOTH,
    KNOWN_SMOOTH,
    KnownFunction,
    M_SMOOTH,
    ONE_NONSMOOTH,
    Scenario,
    Summand,
    TWO_NONSMOOTH_BOUNDED,
    TWO_SMOOTH,
    UnsupportedPatternError,
    evaluate,
    focal_point,
    member_m_one_nonsmooth,
    member_m_smooth,
    member_smooth_nonsmooth,
    member_two_nonsmooth_bounded,
    member_two_smooth,
    member_with_known,
    member_with_known_one_nonsmooth,
    min_bound_B,
    rasterize_region,
    route,
    witness_gradients,
)
from minsum import membership
from minsum.membership import _kernel
from minsum.oracle import random_smooth_scenario, random_two_nonsmooth_scenario

coord = st.floats(-5, 5, allow_nan=False)
point2 = st.tuples(coord, coord)


def vec(*vals):
    return np.array(vals, dtype=float)


def summand(x, y, mu, big_l):
    return Summand(vec(x, y), ClassParams(mu, big_l))


# --------------------------------------------------------------- validation


def test_scenario_validation():
    s_smooth = summand(0, 0, 1.0, 2.0)
    s_ns = summand(1, 0, 1.0, math.inf)
    t_ns = summand(0, 1, 2.0, math.inf)
    Scenario((s_smooth, s_ns))  # one nonsmooth needs no bound
    Scenario((s_ns, t_ns), bound_B=5.0)
    with pytest.raises(UnsupportedPatternError, match="supply bound_B"):
        Scenario((s_ns, t_ns))
    with pytest.raises(UnsupportedPatternError, match="only applies"):
        Scenario((s_smooth, s_ns), bound_B=5.0)
    with pytest.raises(ValueError):
        Scenario((s_ns, t_ns), bound_B=-1.0)
    with pytest.raises(ValueError):
        Scenario(())
    with pytest.raises(DimensionMismatchError):
        Scenario((s_smooth, Summand(vec(0, 0, 0), ClassParams(1.0, 2.0))))


def test_known_function_validation():
    KnownFunction(np.eye(2), vec(0, 0))
    with pytest.raises(ValueError, match="symmetric"):
        KnownFunction(np.array([[1.0, 2.0], [0.0, 1.0]]), vec(0, 0))
    with pytest.raises(ValueError, match="semidefinite"):
        KnownFunction(-np.eye(2), vec(0, 0))
    with pytest.raises(ValueError, match="square"):
        KnownFunction(np.ones((2, 3)), vec(0, 0))
    with pytest.raises(ValueError, match="kind"):
        KnownFunction(np.eye(2), vec(0, 0), kind="cubic")
    k = KnownFunction(np.diag([2.0, 3.0]), vec(1.0, -1.0))
    assert np.allclose(k.gradient(vec(2.0, 0.0)), vec(2.0, 3.0))


# -------------------------------------------------------------- two smooth


def test_two_smooth_worked_example(smooth_pair):
    s1, s2 = smooth_pair.summands
    # hand value at the focal point's x coordinate
    v = member_two_smooth(vec(10 / 22, 0.0), s1, s2)
    assert v.state == INSIDE
    assert v.margin == pytest.approx(296 / 22)
    assert member_two_smooth(vec(5.0, 5.0), s1, s2).state == OUTSIDE


def test_two_smooth_anchor_is_outside(smooth_pair):
    # standing exactly on one summand's minimizer forces the other
    # summand's gradient to vanish, which its modulus forbids
    s1, s2 = smooth_pair.summands
    v = member_two_smooth(s1.x_star, s1, s2)
    assert v.state == OUTSIDE
    assert v.margin == pytest.approx(-2 * s2.params.mu * 2.0)


def test_two_smooth_requires_finite_L(mixed_pair):
    s1, s2 = mixed_pair.summands
    with pytest.raises(UnsupportedPatternError):
        member_two_smooth(vec(0, 0), s1, s2)


@given(point2, point2, point2, st.floats(0, 3), st.floats(0.5, 8), st.floats(0, 3), st.floats(0.5, 8))
def test_two_smooth_symmetry_and_translation(x, a1, a2, mu1, gap1, mu2, gap2):
    s1 = Summand(np.array(a1), ClassParams(mu1, mu1 + gap1))
    s2 = Summand(np.array(a2), ClassParams(mu2, mu2 + gap2))
    xv = np.array(x)
    m = member_two_smooth(xv, s1, s2).margin
    # summand order does not matter
    assert member_two_smooth(xv, s2, s1).margin == pytest.approx(m, abs=1e-9 * (1 + abs(m)))
    # translating the whole configuration does not either
    t = vec(0.75, -1.25)
    s1t = Summand(s1.x_star + t, s1.params)
    s2t = Summand(s2.x_star + t, s2.params)
    assert member_two_smooth(xv + t, s1t, s2t).margin == pytest.approx(m, abs=1e-6)


@given(point2, point2, point2, st.floats(0.1, 4), st.floats(0.1, 4))
def test_two_smooth_zero_modulus_triangle_inequality(x, a1, a2, l1, l2):
    # with mu = 0 the margin is a triangle-inequality slack: never negative
    s1 = Summand(np.array(a1), ClassParams(0.0, l1))
    s2 = Summand(np.array(a2), ClassParams(0.0, l2))
    assert member_two_smooth(np.array(x), s1, s2).admits


def test_two_smooth_scaling_homogeneity(smooth_pair):
    s1, s2 = smooth_pair.summands
    x = vec(0.3, 0.4)
    m = member_two_smooth(x, s1, s2).margin
    lam = 3.5
    s1s = Summand(lam * s1.x_star, s1.params)
    s2s = Summand(lam * s2.x_star, s2.params)
    assert member_two_smooth(lam * x, s1s, s2s).margin == pytest.approx(lam * m)


# ----------------------------------------------------- smooth vs nonsmooth


def test_smooth_nonsmooth_worked_values(mixed_pair):
    s1, s2 = mixed_pair.summands
    v = member_smooth_nonsmooth(vec(0.0, 0.0), s1, s2)
    assert v.state == INSIDE
    assert v.margin == pytest.approx(1.0)
    v_out = member_smooth_nonsmooth(vec(2.0, 0.0), s1, s2)
    assert v_out.state == OUTSIDE
    assert v_out.margin == pytest.approx(-6.0)


def test_smooth_nonsmooth_argument_order(mixed_pair):
    s1, s2 = mixed_pair.summands
    with pytest.raises(UnsupportedPatternError):
        member_smooth_nonsmooth(vec(0, 0), s2, s1)


def test_one_nonsmooth_reduces_to_pair_form(mixed_pair):
    s1, s2 = mixed_pair.summands
    for x in (vec(0.0, 0.0), vec(0.5, 0.7), vec(-2.0, 1.0), vec(2.0, 0.0)):
        a = member_smooth_nonsmooth(x, s1, s2)
        b = member_m_one_nonsmooth(x, [s1, s2])
        assert a.state == b.state
        assert a.margin == pytest.approx(b.margin)


def test_m_one_nonsmooth_three_terms():
    ss = [
        summand(-1, 0, 1.0, 6.0),
        summand(1, 0, 1.0, 6.0),
        summand(0, 1, 2.0, math.inf),
    ]
    # near the nonsmooth anchor the half-space constraint relaxes
    assert member_m_one_nonsmooth(vec(0.0, 0.9), ss).admits
    assert member_m_one_nonsmooth(vec(0.0, 4.0), ss).state == OUTSIDE
    with pytest.raises(UnsupportedPatternError):
        member_m_one_nonsmooth(vec(0, 0), list(reversed(ss)))


# ------------------------------------------------------- bounded nonsmooth


def test_min_bound_value(bounded_pair):
    s1, s2 = bounded_pair.summands
    b = min_bound_B(s1.params.mu, s2.params.mu, s1.x_star, s2.x_star)
    assert b == pytest.approx(1.75 * 2.0 / 3.75 * 2.0)
    with pytest.raises(ValueError):
        min_bound_B(0.0, 0.0, s1.x_star, s2.x_star)


def test_bounded_worked_points(bounded_pair):
    s1, s2 = bounded_pair.summands
    # on the segment between the anchors, both norm caps hold and the
    # second alignment clause fires
    v_in = member_two_nonsmooth_bounded(vec(0.0, 0.0), s1, s2, 3.0)
    assert v_in.state == INSIDE
    assert v_in.margin == pytest.approx(0.25)
    assert v_in.fired_conditions == COND_BASE | COND_SECOND
    # straight above the midpoint every clause fails although the norm
    # caps still hold
    v_out = member_two_nonsmooth_bounded(vec(0.0, 1.0), s1, s2, 3.0)
    assert v_out.state == OUTSIDE
    assert v_out.margin == pytest.approx(-3.5)
    assert v_out.fired_conditions == COND_BASE
    # far away the norm caps themselves fail
    v_far = member_two_nonsmooth_bounded(vec(4.0, 0.0), s1, s2, 3.0)
    assert v_far.state == OUTSIDE
    assert v_far.fired_conditions & COND_BASE == 0


def test_bounded_empty_set_below_minimum(bounded_pair):
    s1, s2 = bounded_pair.summands
    bmin = min_bound_B(s1.params.mu, s2.params.mu, s1.x_star, s2.x_star)
    v = member_two_nonsmooth_bounded(vec(0.0, 0.0), s1, s2, bmin - 0.1)
    assert v.state == OUTSIDE
    assert v.margin == pytest.approx(-0.1)
    assert v.fired_conditions == 0


def test_bounded_anchor_degeneracy(bounded_pair):
    s1, s2 = bounded_pair.summands
    # at an anchor the other summand needs gradient norm mu2 * separation
    v = member_two_nonsmooth_bounded(s1.x_star, s1, s2, 3.0)
    assert v.state == OUTSIDE  # needs |g2| >= 4 > 3
    assert v.margin == pytest.approx(3.0 - 4.0)
    v_ok = member_two_nonsmooth_bounded(s1.x_star, s1, s2, 4.5)
    assert v_ok.state == INSIDE


def test_bounded_coincident_anchors():
    s1 = summand(0, 0, 1.0, math.inf)
    s2 = summand(0, 0, 2.0, math.inf)
    with pytest.raises(CoincidentPointsError):
        member_two_nonsmooth_bounded(vec(1, 1), s1, s2, 3.0)


def test_bounded_close_anchors_do_not_depend_on_the_points():
    # anchors 5e-7 apart are distinct at the anchors' tolerance, so every
    # cell of a wide raster is evaluated, far corners included, and the
    # centre cell still equals evaluate there
    sc = Scenario(
        (summand(0, 0, 1.0, math.inf), summand(5e-7, 0, 1.0, math.inf)), bound_B=1.0
    )
    raster = rasterize_region(sc, (-2000, 2000, -2000, 2000), (3, 3))
    assert raster.cells[4] == evaluate(sc, vec(0, 0))
    assert raster.cells[4].admits and raster.state_names().count(OUTSIDE) == 8


def test_bounded_flat_side_unbounded_toward_flat_anchor(bounded_pair_flat):
    s1, s2 = bounded_pair_flat.summands
    # mu2 = 0: the cap only restrains distance from the strongly convex anchor
    assert member_two_nonsmooth_bounded(vec(0.5, 0.0), s1, s2, 3.0).admits
    assert member_two_nonsmooth_bounded(vec(3.0, 0.0), s1, s2, 3.0).state == OUTSIDE


@given(point2, st.floats(0.2, 3), st.floats(0.2, 3), st.floats(0, 4), st.floats(0.01, 2))
def test_bounded_margin_monotone_in_cap(x, mu1, mu2, b_over, b_extra):
    s1 = summand(-1, 0, mu1, math.inf)
    s2 = summand(1, 0, mu2, math.inf)
    bmin = min_bound_B(mu1, mu2, s1.x_star, s2.x_star)
    b1 = bmin + b_over
    b2 = b1 + b_extra
    xv = np.array(x)
    try:
        va = member_two_nonsmooth_bounded(xv, s1, s2, b1)
        vb = member_two_nonsmooth_bounded(xv, s1, s2, b2)
    except CoincidentPointsError:
        return
    assert vb.margin >= va.margin - 1e-9 * (1 + abs(va.margin))
    if va.admits:
        assert vb.admits


# ----------------------------------------------------------------- m smooth


def test_m_smooth_matches_two_smooth(smooth_pair):
    s1, s2 = smooth_pair.summands
    for x in (vec(0.0, 0.0), vec(0.45, 0.0), vec(1.5, -2.0)):
        assert member_m_smooth(x, [s1, s2]).margin == pytest.approx(
            member_two_smooth(x, s1, s2).margin
        )


def test_m_smooth_triple_contains_centroid():
    ss = [
        summand(-1, 0, 0.5, 3.0),
        summand(1, 0, 1.0, 8.0),
        summand(0, 1.2, 1.0, 5.0),
    ]
    centroid = sum(s.x_star for s in ss) / 3.0
    assert member_m_smooth(centroid, ss).admits
    assert member_m_smooth(vec(8.0, 8.0), ss).state == OUTSIDE


# -------------------------------------------------------------------- known


def test_known_with_zero_gradient_reduces_to_unknown_test(smooth_pair):
    s1, s2 = smooth_pair.summands
    x = vec(0.3, 0.2)
    k = KnownFunction(np.diag([2.0, 1.0]), x)  # gradient vanishes at x
    with_known = member_with_known(x, [k], [s1, s2])
    plain = member_two_smooth(x, s1, s2)
    assert with_known.margin == pytest.approx(plain.margin)
    assert with_known.state == plain.state


def test_known_gradient_shifts_the_set(smooth_pair):
    s1, s2 = smooth_pair.summands
    x = vec(10 / 22, 0.0)
    # a known summand pulling hard to the right moves x out of the set
    k = KnownFunction(np.eye(2) * 40.0, vec(-1.0, 0.0))
    assert member_with_known(x, [k], [s1, s2]).state == OUTSIDE


def test_known_one_nonsmooth_reduction(mixed_pair):
    s1, s2 = mixed_pair.summands
    x = vec(0.1, -0.4)
    k = KnownFunction(np.eye(2), x)
    a = member_with_known_one_nonsmooth(x, [k], [s1, s2])
    b = member_smooth_nonsmooth(x, s1, s2)
    assert a.margin == pytest.approx(b.margin)


def test_known_only_scenario():
    # two known quadratics pulling against each other: their gradients
    # cancel exactly on one segment point only
    k1 = KnownFunction(np.eye(2), vec(-1.0, 0.0))
    k2 = KnownFunction(np.eye(2), vec(1.0, 0.0))
    v_mid = member_with_known(vec(0.0, 0.0), [k1, k2], [])
    assert v_mid.state == BOUNDARY
    v_off = member_with_known(vec(0.5, 0.0), [k1, k2], [])
    assert v_off.state == OUTSIDE


# ------------------------------------------------------------------ routing


def test_route_patterns(smooth_pair, mixed_pair, bounded_pair):
    assert route(smooth_pair) == TWO_SMOOTH
    assert route(mixed_pair) == ONE_NONSMOOTH
    assert route(bounded_pair) == TWO_NONSMOOTH_BOUNDED
    triple = Scenario(tuple(smooth_pair.summands) + (summand(0, 1, 1.0, 4.0),))
    assert route(triple) == M_SMOOTH
    k = KnownFunction(np.eye(2), vec(0.0, 0.0))
    with_known = Scenario(
        (Summand(vec(0, 0), ClassParams(0.5, 2.0), k),) + smooth_pair.summands
    )
    assert route(with_known) == KNOWN_SMOOTH
    with_known_ns = Scenario(
        (Summand(vec(0, 0), ClassParams(0.5, 2.0), k),) + mixed_pair.summands
    )
    assert route(with_known_ns) == KNOWN_ONE_NONSMOOTH


def test_route_rejects_unsupported():
    ns = [summand(i, 0, 1.0, math.inf) for i in range(3)]
    with pytest.raises(UnsupportedPatternError):
        Scenario(tuple(ns))  # no bound
    sc = Scenario(tuple(ns), bound_B=9.0)
    with pytest.raises(UnsupportedPatternError):
        route(sc)
    k = KnownFunction(np.eye(2), vec(0.0, 0.0))
    sck = Scenario(
        (Summand(vec(0, 0), ClassParams(0.5, 2.0), k), ns[0], ns[1]), bound_B=9.0
    )
    with pytest.raises(UnsupportedPatternError):
        route(sck)


def test_evaluate_forced_predicate_validates(smooth_pair):
    with pytest.raises(UnsupportedPatternError):
        evaluate(smooth_pair, vec(0, 0), predicate=ONE_NONSMOOTH)
    with pytest.raises(ValueError, match="unknown predicate"):
        evaluate(smooth_pair, vec(0, 0), predicate="nonsense")
    # forcing the generic m-smooth form on a two-smooth scenario is fine
    a = evaluate(smooth_pair, vec(0.2, 0.1), predicate=M_SMOOTH)
    b = evaluate(smooth_pair, vec(0.2, 0.1))
    assert a.margin == pytest.approx(b.margin)


# -------------------------------------------------------------- focal point


def test_focal_point_weighting(smooth_pair, bounded_pair):
    f = focal_point(smooth_pair.summands)
    assert np.allclose(f, vec((6 * -1 + 16 * 1) / 22, 0.0))
    assert evaluate(smooth_pair, f).state == INSIDE
    g = focal_point(bounded_pair.summands)
    assert np.allclose(g, vec((1.75 * -1 + 2.0 * 1) / 3.75, 0.0))
    # the mu-weighted focal point is the exact zero of all three clauses
    # for every cap value, so it is a member with margin 0, never strict
    v = evaluate(bounded_pair, g)
    assert v.admits
    assert v.margin == pytest.approx(0.0, abs=1e-12)
    assert v.fired_conditions == COND_BASE | COND_FIRST | COND_SECOND | COND_DET


def test_focal_point_unsupported_cases(mixed_pair):
    with pytest.raises(UnsupportedPatternError):
        focal_point(mixed_pair.summands)
    k = KnownFunction(np.eye(2), vec(0.0, 0.0))
    with pytest.raises(UnsupportedPatternError):
        focal_point((Summand(vec(0, 0), ClassParams(0.5, 2.0), k),))


# ---------------------------------------------------------------- witnesses


def _gradient_set(x, s):
    """s's subgradient set at x: the gradient ball when L < inf, else
    the half-space <g, d> >= mu |d|^2 (d = x - x*)."""
    if s.params.is_smooth:
        return geometric_ball(x, s.x_star, s.params)
    d = x - s.x_star
    return HalfSpace(-d, -s.params.mu * float(d @ d))


def _check_witnesses(scenario, x):
    """Witness gradients at an admitted x: they sum to zero, each known
    one is exact, and each unknown one lies in its gradient set,
    certifies through witness_values and check_interpolation, and
    respects the cap."""
    gs = witness_gradients(scenario, x)
    assert gs is not None
    total = sum(gs)
    assert float(np.linalg.norm(total)) <= 1e-9 * (1 + max(float(np.linalg.norm(g)) for g in gs))
    for s, g in zip(scenario.summands, gs):
        if s.known is not None:
            assert np.allclose(g, s.known.gradient(x))
            continue
        dist = _gradient_set(x, s).distance(g)
        assert dist <= 1e-5 * (1 + float(np.linalg.norm(g)))
        w = witness_values(x, g, s.x_star, s.params)
        pair = [Triplet(x, g, w.f_x), Triplet(s.x_star, np.zeros_like(x), w.f_star)]
        assert check_interpolation(pair, s.params).state != OUTSIDE
        if scenario.bound_B is not None:
            assert float(np.linalg.norm(g)) <= scenario.bound_B * (1 + 1e-9)
    return gs


def test_witness_gradients_smooth(smooth_pair):
    _check_witnesses(smooth_pair, vec(10 / 22, 0.0))
    assert witness_gradients(smooth_pair, vec(5.0, 5.0)) is None


def test_witness_gradients_mixed(mixed_pair):
    _check_witnesses(mixed_pair, vec(0.0, 0.0))


def test_witness_gradients_bounded(bounded_pair):
    gs = _check_witnesses(bounded_pair, vec(0.0, 0.0))
    assert np.allclose(gs[0], -gs[1])


def test_witness_gradients_triple():
    ss = (
        summand(-1, 0, 0.5, 3.0),
        summand(1, 0, 1.0, 8.0),
        summand(0, 1.2, 1.0, 5.0),
    )
    sc = Scenario(ss)
    _check_witnesses(sc, focal_point(ss))


def test_witness_gradients_with_known(smooth_pair):
    k = KnownFunction(np.diag([0.5, 0.5]), vec(0.0, 1.0))
    sc = Scenario(
        (Summand(vec(0.0, 1.0), ClassParams(0.4, 0.6), k),) + smooth_pair.summands
    )
    x = vec(0.2, 0.1)
    assert evaluate(sc, x).admits
    _check_witnesses(sc, x)


def test_witness_single_unknown_forced_gradient():
    k = KnownFunction(np.eye(2), vec(1.0, 0.0))
    s = Summand(vec(-1.0, 0.0), ClassParams(1.0, 5.0))
    sc = Scenario((Summand(vec(1.0, 0.0), ClassParams(0.5, 2.0), k), s))
    # at x the known gradient is (x - (1,0)); the unknown must supply its
    # negative, which is admissible near the segment midpoint
    x = vec(0.0, 0.0)
    assert evaluate(sc, x).admits
    gs = _check_witnesses(sc, x)
    assert np.allclose(gs[1], -gs[0])


# ------------------------------------------------------------------ rasters


def _known(center, scale=1.0):
    c = np.asarray(center, dtype=float)
    k = KnownFunction(scale * np.array([[2.0, 0.5], [0.5, 1.0]]), c)
    return Summand(c, ClassParams(0.5, 3.0), k)


RASTER_SCENARIOS = {
    TWO_SMOOTH: lambda: Scenario((summand(-1, 0, 1.0, 5.0), summand(1, 0, 1.0, 15.0))),
    M_SMOOTH: lambda: Scenario(
        (summand(-1, 0, 0.5, 3.0), summand(1, 0, 1.0, 8.0), summand(0, 1.2, 1.0, 5.0))
    ),
    ONE_NONSMOOTH: lambda: Scenario(
        (summand(-1, 0, 1.0, 6.0), summand(0, 1, 2.0, math.inf), summand(1, 0, 1.0, 6.0))
    ),
    TWO_NONSMOOTH_BOUNDED: lambda: Scenario(
        (summand(-1, 0, 1.75, math.inf), summand(1, 0, 2.0, math.inf)), bound_B=3.0
    ),
    KNOWN_SMOOTH: lambda: Scenario(
        (_known((0.2, 0.3), 0.2), summand(-1, 0, 1.0, 5.0), summand(1, 0, 1.0, 15.0))
    ),
    KNOWN_ONE_NONSMOOTH: lambda: Scenario(
        (summand(-1, 0, 1.0, 4.0), _known((0.0, 0.5), 0.3), summand(1, 0, 3.0, math.inf))
    ),
}


def test_raster_matches_pointwise_eval():
    for pattern, make_scenario in RASTER_SCENARIOS.items():
        sc = make_scenario()
        assert route(sc) == pattern
        # cell centers fall, to rounding, on both anchors (-1, 0) and (1, 0)
        raster = rasterize_region(sc, (-2.5, 2.5, -2, 2), (15, 13))
        assert raster.resolution == (15, 13) and raster.predicate == pattern
        assert len(raster.cells) == 15 * 13
        centers = raster.centers()
        # storage order: first cell is the (xmin, ymin) corner cell, x fastest
        assert centers[0][0] == pytest.approx(-2.5 + (5 / 15) * 0.5)
        assert centers[0][1] == pytest.approx(-2 + (4 / 13) * 0.5)
        assert centers[1][1] == centers[0][1]
        direct = [evaluate(sc, c) for c in centers]
        assert raster.cells == tuple(direct)
        # bitwise, so -0.0 and 0.0 would differ
        margins = np.array([v.margin for v in direct])
        assert raster.margins.tobytes() == margins.tobytes()
        assert raster.state_names() == [v.state for v in direct]
        assert raster.fired.tolist() == [v.fired_conditions for v in direct]
        assert len(set(raster.state_names())) >= 2


def _scenario_8d(pattern, rng):
    anchors = rng.uniform(-2, 2, (3, 8))
    if pattern == KNOWN_ONE_NONSMOOTH:
        q = rng.normal(size=(8, 8))
        k = KnownFunction(0.1 * (q @ q.T), anchors[2])
        return Scenario((
            Summand(anchors[0], ClassParams(1.0, 4.0)),
            Summand(anchors[1], ClassParams(2.0, math.inf)),
            Summand(anchors[2], ClassParams(0.5, 3.0), k),
        ))
    if pattern == M_SMOOTH:
        params = [ClassParams(1.0, 6.0 + i) for i in range(3)]
        return Scenario(tuple(Summand(a, p) for a, p in zip(anchors, params)))
    return Scenario(
        (Summand(anchors[0], ClassParams(1.0, math.inf)),
         Summand(anchors[1], ClassParams(1.5, math.inf))),
        bound_B=4.0,
    )


@pytest.mark.parametrize("pattern", [M_SMOOTH, KNOWN_ONE_NONSMOOTH, TWO_NONSMOOTH_BOUNDED])
def test_kernel_rows_do_not_depend_on_row_count(pattern):
    rng = np.random.default_rng(8)
    sc = _scenario_8d(pattern, rng)
    kernel = _kernel(sc, None)[1]
    pts = np.vstack([sc.summands[0].x_star, rng.uniform(-3, 3, (10_000 - 1, 8))])
    states, margins, fired = kernel(pts, tol_coefficient())
    assert len(set(states.tolist())) >= 2
    for i in range(len(pts)):
        s1, m1, f1 = kernel(pts[i : i + 1], tol_coefficient())
        assert (s1[0], f1[0]) == (states[i], fired[i])
        assert m1.tobytes() == margins[i : i + 1].tobytes()


@pytest.mark.parametrize("pattern", sorted(RASTER_SCENARIOS))
def test_kernel_tolerance_is_eps_for(pattern, monkeypatch):
    # every point's tolerance is eps_for over the point, the unknown
    # summands' data, bound_B and, for the known patterns, the total or
    # gradient vector the kernel computed
    sc = RASTER_SCENARIOS[pattern]()
    seen = []
    kernel_eps = membership._eps

    def spy(coef, scale, *columns):
        seen.append((columns, kernel_eps(coef, scale, *columns)))
        return seen[-1][1]

    monkeypatch.setattr(membership, "_eps", spy)
    unknown = sc.unknown_summands
    data = [s.x_star for s in unknown] + [(s.params.mu, s.params.L) for s in unknown]
    for x in np.random.default_rng(3).uniform(-2, 2, (20, 2)):
        evaluate(sc, x)
        columns, eps = seen[-1]
        extra = [c[:, 0] for c in columns[1:]]
        assert float(eps[0]) == eps_for(x, *extra, *data, sc.bound_B or 0.0)


def test_raster_input_validation(smooth_pair):
    with pytest.raises(ValueError):
        rasterize_region(smooth_pair, (1, -1, 0, 1), (4, 4))
    with pytest.raises(ValueError):
        rasterize_region(smooth_pair, (-1, 1, 0, 1), (0, 4))
    sc3 = Scenario(
        (
            Summand(vec(0, 0, 0), ClassParams(1.0, 2.0)),
            Summand(vec(1, 0, 0), ClassParams(1.0, 2.0)),
        )
    )
    with pytest.raises(DimensionMismatchError):
        rasterize_region(sc3, (-1, 1, -1, 1), (4, 4))


# ------------------------------------------------- witnesses at the edges


def _bisect_to_boundary(scenario, inside, outside, steps=60):
    """The last point with margin >= 0 on the segment from inside to
    outside, to bisection precision."""
    for _ in range(steps):
        mid = 0.5 * (inside + outside)
        if evaluate(scenario, mid).margin >= 0.0:
            inside = mid
        else:
            outside = mid
    return inside


@pytest.mark.parametrize("pattern", sorted(RASTER_SCENARIOS))
def test_witness_gradients_on_the_boundary(pattern):
    sc = RASTER_SCENARIOS[pattern]()
    pts = np.random.default_rng(4).uniform(-3, 3, (2000, 2))
    margins = np.array([evaluate(sc, p).margin for p in pts])
    inside, outside = pts[margins > 0.0][:40], pts[margins < 0.0][:40]
    assert len(inside) == len(outside) == 40
    for a, b in zip(inside, outside):
        x = _bisect_to_boundary(sc, a, b)
        assert evaluate(sc, x).margin >= 0.0
        _check_witnesses(sc, x)


@pytest.mark.parametrize("pattern", sorted(RASTER_SCENARIOS))
def test_witness_gradients_at_the_anchors(pattern):
    sc = RASTER_SCENARIOS[pattern]()
    for s in sc.summands:
        x = s.x_star.copy()
        if evaluate(sc, x).admits:
            _check_witnesses(sc, x)
        else:
            assert witness_gradients(sc, x) is None


def test_witness_gradients_when_every_radius_is_zero():
    # R = 0: x on the smooth unknowns' anchors, known gradients cancelling
    k1 = Summand(vec(-1, 0), ClassParams(0.5, 2.0), KnownFunction(np.eye(2), vec(-1, 0)))
    k2 = Summand(vec(1, 0), ClassParams(0.5, 2.0), KnownFunction(np.eye(2), vec(1, 0)))
    one = Scenario((k1, summand(0, 0, 1.0, 3.0), k2))
    two = Scenario((k1, summand(0, 0, 1.0, 3.0), summand(0, 0, 0.5, 9.0), k2))
    for sc in (one, two):
        assert evaluate(sc, vec(0, 0)).admits
        gs = _check_witnesses(sc, vec(0, 0))
        assert all(not g.any() for g, s in zip(gs, sc.summands) if s.known is None)


def test_witness_gradients_on_the_nonsmooth_anchor():
    # d_m = 0: the half-space is vacuous, the smooth summands take centres
    for pattern in (ONE_NONSMOOTH, KNOWN_ONE_NONSMOOTH):
        sc = RASTER_SCENARIOS[pattern]()
        m = next(s for s in sc.summands if not s.params.is_smooth)
        assert evaluate(sc, m.x_star).admits
        _check_witnesses(sc, m.x_star)


def test_witness_gradients_bounded_at_each_anchor(bounded_pair):
    s1, s2 = bounded_pair.summands
    sc = Scenario((s1, s2), bound_B=4.5)
    gs = _check_witnesses(sc, s1.x_star)
    assert np.allclose(gs[1], 2.0 * (s1.x_star - s2.x_star))
    gs = _check_witnesses(sc, s2.x_star)
    assert np.allclose(gs[0], 1.75 * (s2.x_star - s1.x_star))


def test_witness_gradients_close_to_the_boundary(smooth_pair):
    # inside by a margin of 2e-4: close enough to the boundary that an
    # iterative search for the witness would need over 1e5 steps
    x = vec(0.27404655823449, 1.1912927156523665)
    v = evaluate(smooth_pair, x)
    assert v.state == INSIDE and 1e-4 < v.margin < 1e-3
    _check_witnesses(smooth_pair, x)


@pytest.mark.parametrize(
    "make", [random_smooth_scenario, random_two_nonsmooth_scenario], ids=["smooth", "bounded"]
)
def test_witness_gradients_iff_admitted(make):
    for seed in range(20):
        sc = make(seed)
        for x in np.random.default_rng(seed).uniform(-3, 3, (40, 2)):
            if evaluate(sc, x).state == OUTSIDE:
                assert witness_gradients(sc, x) is None
            else:
                _check_witnesses(sc, x)
