import math

import numpy as np
import pytest

from minsum import _projection
from minsum.cli import _sample_points
from minsum.geometry import (
    Ball,
    CoincidentPointsError,
    DimensionMismatchError,
    HalfSpace,
    INSIDE,
    OUTSIDE,
    Verdict,
)
from minsum.interpolation import ClassParams
from minsum.membership import (
    KnownFunction,
    Scenario,
    Summand,
    UnsupportedPatternError,
    evaluate,
    member_two_nonsmooth_bounded,
)
from minsum.oracle import (
    FeasibilityProblem,
    cross_check,
    feasibility_by_projection,
    necessity_sweep,
    qp_min_norm_gradient,
    qp_min_norm_gradient_solution,
    random_orthogonal,
    random_smooth_scenario,
    random_two_nonsmooth_scenario,
    sample_quadratic_instance,
)


def vec(*vals):
    return np.array(vals, dtype=float)


# ------------------------------------------------------ quadratic sampling


def test_random_orthogonal_is_orthogonal_and_deterministic():
    q1 = random_orthogonal(4, np.random.default_rng(7))
    q2 = random_orthogonal(4, np.random.default_rng(7))
    assert np.array_equal(q1, q2)
    assert np.allclose(q1 @ q1.T, np.eye(4), atol=1e-12)


def test_sampled_instance_respects_class_and_stationarity(smooth_pair):
    inst = sample_quadratic_instance(smooth_pair, seed=11)
    assert len(inst.functions) == 2
    for f, s in zip(inst.functions, smooth_pair.summands):
        eigs = np.linalg.eigvalsh(f.matrix)
        assert eigs.min() >= s.params.mu - 1e-9
        assert eigs.max() <= s.params.L + 1e-9
        assert np.array_equal(f.center, s.x_star)
    total = sum(f.gradient(inst.exact_minimizer) for f in inst.functions)
    assert float(np.linalg.norm(total)) <= 1e-8 * 16
    # and the closed form admits the exact minimizer
    assert evaluate(smooth_pair, inst.exact_minimizer).admits


def test_sampled_instance_deterministic(smooth_pair):
    a = sample_quadratic_instance(smooth_pair, seed=3)
    b = sample_quadratic_instance(smooth_pair, seed=3)
    assert np.array_equal(a.exact_minimizer, b.exact_minimizer)
    c = sample_quadratic_instance(smooth_pair, seed=4)
    assert not np.array_equal(a.exact_minimizer, c.exact_minimizer)


def test_sampled_instance_uses_known_matrices(smooth_pair):
    k = KnownFunction(np.diag([3.0, 1.0]), vec(0.5, 0.5))
    sc = Scenario(
        (Summand(vec(0.5, 0.5), ClassParams(0.9, 3.1), k),) + smooth_pair.summands
    )
    inst = sample_quadratic_instance(sc, seed=0)
    assert inst.functions[0] is k
    total = sum(f.gradient(inst.exact_minimizer) for f in inst.functions)
    assert float(np.linalg.norm(total)) <= 1e-7


def test_sampled_instance_rejects_nonsmooth(mixed_pair):
    with pytest.raises(UnsupportedPatternError):
        sample_quadratic_instance(mixed_pair, seed=0)


# -------------------------------------------------- projection feasibility


def test_projection_feasible_overlapping_balls():
    prob = FeasibilityProblem(
        (Ball(vec(0.0, 0.0), 1.0), Ball(vec(1.5, 0.0), 1.0)), tol=1e-9
    )
    res = feasibility_by_projection(prob)
    assert res.status == "feasible" and res.certified
    for s in prob.sets:
        assert s.distance(res.point) <= 1e-8


def test_projection_certified_infeasible_disjoint_balls():
    prob = FeasibilityProblem(
        (Ball(vec(0.0, 0.0), 1.0), Ball(vec(4.0, 0.0), 1.0)), tol=1e-9
    )
    res = feasibility_by_projection(prob)
    assert res.status == "infeasible" and res.certified
    assert res.residual == pytest.approx(2.0)
    assert res.iterations == 0


def test_projection_certified_infeasible_antiparallel_halfspaces():
    # x <= -1 and x >= 1 cannot hold together
    h1 = HalfSpace(vec(1.0, 0.0), -1.0)
    h2 = HalfSpace(vec(-2.0, 0.0), -2.0)
    res = feasibility_by_projection(FeasibilityProblem((h1, h2), tol=1e-9))
    assert res.status == "infeasible" and res.certified
    assert res.residual == pytest.approx(2.0)


def test_projection_empty_halfspace():
    empty = HalfSpace(vec(0.0, 0.0), -1.0)
    res = feasibility_by_projection(
        FeasibilityProblem((Ball(vec(0.0, 0.0), 1.0), empty), tol=1e-9)
    )
    assert res.status == "infeasible" and res.certified
    assert res.residual == math.inf


def test_projection_ball_halfspace_mixed():
    ball = Ball(vec(0.0, 0.0), 1.0)
    ok = feasibility_by_projection(
        FeasibilityProblem((ball, HalfSpace(vec(1.0, 0.0), -0.5)), tol=1e-9)
    )
    assert ok.feasible
    bad = feasibility_by_projection(
        FeasibilityProblem((ball, HalfSpace(vec(1.0, 0.0), -1.5)), tol=1e-9)
    )
    assert bad.status == "infeasible" and bad.certified
    assert bad.residual == pytest.approx(0.5)


def test_projection_tangent_balls_loose_tolerance():
    # touching balls: the iterates crawl toward the single common point,
    # so a loose tolerance must succeed and land near the tangency
    prob = FeasibilityProblem(
        (Ball(vec(0.0, 0.0), 1.0), Ball(vec(2.0, 0.0), 1.0)),
        tol=1e-3,
        max_iter=200_000,
    )
    res = feasibility_by_projection(prob)
    assert res.feasible
    assert float(np.linalg.norm(res.point - vec(1.0, 0.0))) < 0.1


def test_projection_uncertified_infeasible_needs_three_sets():
    # pairwise intersecting but jointly empty: three balls around an
    # empty core; the plateau detector flags it without a certificate
    balls = (
        Ball(vec(0.0, 0.0), 1.0),
        Ball(vec(1.8, 0.0), 1.0),
        Ball(vec(0.9, 1.55), 1.0),
    )
    res = feasibility_by_projection(FeasibilityProblem(balls, tol=1e-10))
    assert res.status == "infeasible"
    assert not res.certified


def test_block_projection_simple_sum_system():
    # z1 in B((2,0), 0.5), z2 in B((-1,0), 0.5), z1 + z2 in B((1,0), 0.6)
    status, zs, res, _ = _projection.block_cyclic_projection(
        [[Ball(vec(2.0, 0.0), 0.5)], [Ball(vec(-1.0, 0.0), 0.5)]],
        Ball(vec(1.0, 0.0), 0.6),
        2,
        1e-9,
        50_000,
    )
    assert status == "feasible"
    assert Ball(vec(1.0, 0.0), 0.6).distance(zs[0] + zs[1]) <= 1e-8


def test_block_projection_infeasible_sum():
    status, _, res, _ = _projection.block_cyclic_projection(
        [[Ball(vec(2.0, 0.0), 0.1)], [Ball(vec(-1.0, 0.0), 0.1)]],
        Ball(vec(5.0, 0.0), 0.1),
        2,
        1e-9,
        50_000,
    )
    assert status == "stagnated"
    assert res > 1.0


# --------------------------------------------------------------- QP oracle


def test_qp_frozen_value(bounded_pair):
    s1, s2 = bounded_pair.summands
    opt = qp_min_norm_gradient(vec(0.0, 1.0), s1.x_star, s2.x_star, 1.75, 2.0)
    assert opt == pytest.approx(14.125)
    # membership at B in terms of the optimum: need opt <= B^2
    assert opt > 9.0  # hence (0, 1) is outside at B = 3
    assert member_two_nonsmooth_bounded(vec(0.0, 1.0), s1, s2, 3.0).state == OUTSIDE
    assert member_two_nonsmooth_bounded(
        vec(0.0, 1.0), s1, s2, math.sqrt(opt) + 1e-6
    ).admits


def test_qp_solution_satisfies_constraints(bounded_pair):
    s1, s2 = bounded_pair.summands
    x = vec(0.3, 0.7)
    val, g = qp_min_norm_gradient_solution(x, s1.x_star, s2.x_star, 1.75, 2.0)
    assert val == pytest.approx(float(g @ g))
    u = s1.x_star - x
    v = x - s2.x_star
    assert float(g @ u) <= -1.75 * float((x - s1.x_star) @ (x - s1.x_star)) + 1e-7
    assert float(g @ v) <= -2.0 * float((x - s2.x_star) @ (x - s2.x_star)) + 1e-7


def test_qp_zero_when_unconstrained():
    # mu = 0 on both: g = 0 is feasible and optimal
    assert qp_min_norm_gradient(vec(0.0, 1.0), vec(-1.0, 0.0), vec(1.0, 0.0), 0.0, 0.0) == 0.0


def test_qp_infeasible_on_exterior_ray():
    # colinear beyond the second anchor: the half-spaces point apart
    opt, g = qp_min_norm_gradient_solution(
        vec(3.0, 0.0), vec(-1.0, 0.0), vec(1.0, 0.0), 1.0, 1.0
    )
    assert opt == math.inf and g is None


def test_qp_rejects_anchor_coincidence():
    with pytest.raises(CoincidentPointsError):
        qp_min_norm_gradient(vec(1.0, 0.0), vec(-1.0, 0.0), vec(1.0, 0.0), 1.0, 1.0)


def test_qp_scaling_quadratic():
    args = (vec(0.2, 0.9), vec(-1.0, 0.0), vec(1.0, 0.0), 1.4, 0.8)
    base = qp_min_norm_gradient(*args)
    lam = 2.5
    scaled = qp_min_norm_gradient(
        lam * args[0], lam * args[1], lam * args[2], 1.4, 0.8
    )
    assert scaled == pytest.approx(lam * lam * base)


def test_qp_agrees_with_predicate(bounded_pair):
    s1, s2 = bounded_pair.summands
    b = bounded_pair.bound_B
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(400):
        x = rng.uniform(-2.5, 2.5, 2)
        if min(
            float(np.linalg.norm(x - s1.x_star)), float(np.linalg.norm(x - s2.x_star))
        ) < 1e-6:
            continue
        opt = qp_min_norm_gradient(x, s1.x_star, s2.x_star, 1.75, 2.0)
        v = member_two_nonsmooth_bounded(x, s1, s2, b)
        if abs(v.margin) < 1e-9 or (math.isfinite(opt) and abs(math.sqrt(opt) - b) < 1e-9):
            continue
        checked += 1
        assert (opt <= b * b) == v.admits, f"disagreement at {x}"
    assert checked > 350


# ------------------------------------------------------------- cross check


def test_cross_check_clean_on_fixtures(smooth_pair, mixed_pair, bounded_pair):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, (60, 2))
    for sc in (smooth_pair, mixed_pair, bounded_pair):
        report = cross_check(sc, pts)
        assert report.ok, report.mismatches
        assert report.checked + report.boundary_skipped + report.indeterminate == 60


def smooth_triple():
    return Scenario(
        (
            Summand(vec(-1.0, 0.0), ClassParams(0.5, 3.0)),
            Summand(vec(1.0, 0.0), ClassParams(1.0, 8.0)),
            Summand(vec(0.0, 1.2), ClassParams(1.0, 5.0)),
        )
    )


def test_cross_check_triple_block_oracle():
    sc = smooth_triple()
    pts = np.random.default_rng(9).uniform(-2, 2, (25, 2))
    report = cross_check(sc, pts)
    assert report.ok, report.mismatches
    # every point the block route finds infeasible is separated, so
    # none rests on a plateau alone: uncertified stays 0
    assert report.checked + report.boundary_skipped + report.indeterminate == 25
    assert report.boundary_skipped == report.indeterminate == 0
    outside = sum(evaluate(sc, p).state == OUTSIDE for p in pts)
    assert outside > 0 and report.uncertified == 0


def test_cross_check_certified_gaps_are_not_uncertified(smooth_pair):
    # far points of a smooth pair have disjoint gradient balls: a
    # closed-form gap certifies them, so none counts as uncertified
    pts = np.array([[9.0, 9.0], [-8.0, 5.0], [7.0, -9.0]])
    report = cross_check(smooth_pair, pts)
    assert report.ok and report.checked == 3
    assert report.uncertified == 0


def test_cross_check_known_scenario(smooth_pair):
    k = KnownFunction(np.diag([1.0, 2.0]), vec(0.2, -0.1))
    sc = Scenario(
        (Summand(vec(0.2, -0.1), ClassParams(0.9, 2.1), k),) + smooth_pair.summands
    )
    pts = np.random.default_rng(13).uniform(-2, 2, (40, 2))
    report = cross_check(sc, pts)
    assert report.ok, report.mismatches


def known_single():
    # one known summand and one unknown nonsmooth one: the containment route
    k = KnownFunction(np.diag([2.0, 1.0]), vec(0.5, 0.0))
    return Scenario(
        (
            Summand(vec(0.5, 0.0), ClassParams(0.9, 2.1), k),
            Summand(vec(-0.5, 0.2), ClassParams(1.0, math.inf)),
        )
    )


CORRUPTIONS = [
    pytest.param(name, oracle, state, id=f"{name}-{oracle}-{state}")
    for name, oracle in (
        ("smooth_pair", "projection"),
        ("triple", "block_projection"),
        ("bounded_pair", "qp"),
    )
    for state in (INSIDE, OUTSIDE)
] + [
    pytest.param("known_single", "containment", state, id=f"known_single-containment-{state}")
    for state in (INSIDE, OUTSIDE)
]


@pytest.mark.parametrize("name, oracle, state", CORRUPTIONS)
def test_cross_check_catches_corrupted_predicate(request, name, oracle, state):
    scenarios = {"triple": smooth_triple, "known_single": known_single}
    sc = scenarios[name]() if name in scenarios else request.getfixturevalue(name)

    def corrupted(scenario, x):
        return Verdict(state, 1.0 if state == INSIDE else -1.0)

    # a box small enough for both states to be common on every route; the
    # containment scenario's admitted set is smaller, so its box is too
    half = 0.6 if name == "known_single" else 1.5
    pts = np.random.default_rng(2).uniform(-half, half, (40, 2))
    report = cross_check(sc, pts, predicate=corrupted)
    wrong = sum(evaluate(sc, p).admits != (state == INSIDE) for p in pts)
    assert not report.ok
    assert len(report.mismatches) == wrong > 5
    for rec in report.mismatches:
        assert "point" in rec and "margin" in rec
        assert rec["oracle"] == oracle and rec["state"] == state


def test_cross_check_empty_points(smooth_pair):
    report = cross_check(smooth_pair, [])
    assert report.ok and report.total == 0


def test_cross_check_rejects_bad_points(smooth_pair):
    with pytest.raises(DimensionMismatchError):
        cross_check(smooth_pair, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        cross_check(smooth_pair, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        cross_check(smooth_pair, [[0.0, 0.0], [math.nan, 1.0]])


def test_cross_check_rejects_all_known_scenario():
    known = [KnownFunction(np.eye(2), c) for c in (vec(0.0, 0.0), vec(1.0, 0.0))]
    sc = Scenario(tuple(Summand(k.center, ClassParams(0.5, 2.0), k) for k in known))
    with pytest.raises(UnsupportedPatternError, match="unknown summand"):
        cross_check(sc, [[0.5, 0.0]])


def first_nonsmooth(sc):
    """sc with L = inf on its first summand: the one-nonsmooth route."""
    s, *rest = sc.summands
    return Scenario((Summand(s.x_star, ClassParams(s.params.mu, math.inf)), *rest))


def oracle_counts(sc, pts):
    """cross_check's counts, and the points the oracle rules out: the
    mismatches of an always-inside predicate."""
    r = cross_check(sc, pts)
    ruled_out = cross_check(sc, pts, predicate=lambda s, x: Verdict(INSIDE, 1.0)).mismatches
    counts = (r.checked, r.boundary_skipped, r.indeterminate, r.uncertified, len(r.mismatches))
    return counts, [m["point"] for m in ruled_out]


@pytest.mark.parametrize(
    "make, seeds",
    [
        pytest.param(random_smooth_scenario, range(0, 40, 2), id="smooth"),
        pytest.param(
            lambda seed: first_nonsmooth(random_smooth_scenario(seed)),
            range(0, 12, 2),
            id="one_nonsmooth",
        ),
    ],
)
def test_cross_check_counts_do_not_depend_on_summand_order(make, seeds):
    # reversing the unknowns reorders the blocks and, when all are
    # smooth, makes another summand the coupled set; the oracle's
    # verdicts must not change
    for seed in seeds:
        sc = make(seed)
        pts = _sample_points(sc, 150, 1000 + seed)
        flipped = Scenario(tuple(reversed(sc.summands)))
        counts, ruled_out = oracle_counts(sc, pts)
        assert oracle_counts(flipped, pts) == (counts, ruled_out), f"seed {seed}"
        assert counts[4] == 0 and 0 < len(ruled_out) < 150, f"seed {seed}"


# --------------------------------------------------------- necessity sweep


def test_necessity_sweep_clean(smooth_pair):
    out = necessity_sweep(smooth_pair, range(30))
    assert out["instances"] == 30
    assert out["failures"] == []
    assert out["worst_margin"] > 0.0


def test_necessity_sweep_rejects_nonsmooth(mixed_pair):
    with pytest.raises(UnsupportedPatternError):
        necessity_sweep(mixed_pair, range(3))


# ------------------------------------------------------ scenario generators


def test_random_scenarios_are_valid_and_deterministic():
    a = random_smooth_scenario(42)
    b = random_smooth_scenario(42)
    assert len(a.summands) == len(b.summands)
    for sa, sb in zip(a.summands, b.summands):
        assert np.array_equal(sa.x_star, sb.x_star)
        assert sa.params == sb.params
    for s in a.summands:
        assert s.params.is_smooth and s.params.mu > 0

    c = random_two_nonsmooth_scenario(42)
    d = random_two_nonsmooth_scenario(42)
    assert np.array_equal(c.summands[0].x_star, d.summands[0].x_star)
    assert c.bound_B == d.bound_B
    from minsum.membership import min_bound_B

    bmin = min_bound_B(
        c.summands[0].params.mu,
        c.summands[1].params.mu,
        c.summands[0].x_star,
        c.summands[1].x_star,
    )
    assert c.bound_B > bmin
