import math
import warnings
from collections import Counter

import numpy as np
import pytest

from minsum import _projection, membership, oracle
from minsum.cli import _sample_points
from minsum.geometry import (
    Ball,
    CoincidentPointsError,
    DimensionMismatchError,
    INSIDE,
    OUTSIDE,
    eps_for,
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
    PROJECTION_TOL,
    cross_check,
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
    k = KnownFunction(np.eye(2), vec(0.0, 1.0))
    with_known = Scenario((Summand(k.center, ClassParams(1.0, 2.0), k), *mixed_pair.summands))
    with pytest.raises(UnsupportedPatternError, match="finite L"):
        sample_quadratic_instance(with_known, seed=0)


# ---------------------------------------------- reference block projection


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


@pytest.mark.parametrize("mu1", [math.nan, math.inf])
def test_qp_rejects_non_finite_moduli(mu1):
    # nan used to read as disjoint half-spaces (inf, None), and inf as a
    # point on an anchor
    x, a1, a2 = vec(0.0, 1.0), vec(-1.0, 0.0), vec(1.0, 0.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        qp_min_norm_gradient_solution(x, a1, a2, mu1, 1.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        qp_min_norm_gradient_solution(x, a1, a2, 1.0, mu1)
    # no division by the sum: both moduli zero is allowed
    assert qp_min_norm_gradient_solution(x, a1, a2, 0.0, 0.0)[0] == 0.0


def test_qp_rejects_anchor_coincidence():
    with pytest.raises(CoincidentPointsError):
        qp_min_norm_gradient(vec(1.0, 0.0), vec(-1.0, 0.0), vec(1.0, 0.0), 1.0, 1.0)


def test_qp_anchor_band_is_not_widened_by_the_moduli():
    # moduli of 1e7 set the constraints' band near 0.01, but a point
    # 0.005 from an anchor is no coincidence: the QP answers, and
    # cross_check compares it with the kernel's verdict
    a1, a2 = vec(0.0, 0.0), vec(1.0, 0.0)
    sc = Scenario((Summand(a1, ClassParams(1e7, math.inf)),
                   Summand(a2, ClassParams(1e7, math.inf))), bound_B=1e7)
    x = vec(0.005, 0.001)
    assert evaluate(sc, x).state == INSIDE
    value, g = qp_min_norm_gradient_solution(x, a1, a2, 1e7, 1e7)
    assert value <= 1e14 and value == pytest.approx(float(g @ g))
    report = cross_check(sc, [x])
    assert report.checked == 1 and not report.mismatches
    # within eps_for(x, a1, a2) of an anchor it still raises
    with pytest.raises(CoincidentPointsError):
        qp_min_norm_gradient_solution(vec(1e-10, 0.0), a1, a2, 1e7, 1e7)


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


def _qp_rows(x, a1, a2, mu1, mu2):
    """The KKT kernel's (optimum, argmin, eps) of the rows of x, with eps
    the tolerance the kernel itself works out (a spy on its row_eps: the
    constraints' band, then the anchor test's)."""
    seen = []
    kernel_eps = membership.row_eps

    def spy(scale, *columns):
        seen.append(kernel_eps(scale, *columns))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(membership, "row_eps", spy)
        opt, g = membership._min_norm_qp(x, a1, a2, mu1, mu2)
    eps, _ = seen
    return opt, g, eps


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("mu1, mu2", [(1.3, 0.4), (0.0, 2.0), (0.0, 0.0)])
def test_qp_kernel_rows_equal_one_row_calls(n, mu1, mu2):
    rng = np.random.default_rng(n)
    a1, a2 = rng.uniform(-2, 2, (2, n))
    x = rng.uniform(-3, 3, (120, n))
    # colinear rows inside and outside the segment, and rows near an anchor
    x[:4] = a1 + np.array([-0.5, 0.3, 0.5, 1.7])[:, None] * (a2 - a1)
    x[4:8] = a2 + 1e-7 * rng.standard_normal((4, n))
    opt, g, eps = _qp_rows(x, a1, a2, mu1, mu2)
    for i, xi in enumerate(x):
        assert eps[i] == eps_for(xi, a1, a2, mu1, mu2)
        value, gi = qp_min_norm_gradient_solution(xi, a1, a2, mu1, mu2)
        assert np.float64(value).tobytes() == opt[i].tobytes()
        if gi is None:
            assert value == math.inf and np.isnan(g[i]).all()
        else:
            assert gi.tobytes() == g[i].tobytes()
    order = rng.permutation(len(x))
    for rows in (order, order[:1], order[:7], order[7:64]):
        sub_opt, sub_g, _ = _qp_rows(x[rows], a1, a2, mu1, mu2)
        assert sub_opt.tobytes() == opt[rows].tobytes()
        assert sub_g.tobytes() == g[rows].tobytes()


@pytest.mark.parametrize("n", [2, 8])
def test_qp_kernel_kkt_certificate(n):
    # min |g|^2 s.t. <g, u> <= bu, <g, v> <= bv (u = x1 - x, v = x - x2)
    # is convex, so feasibility, multipliers from 2g + l1 u + l2 v = 0 that
    # are nonnegative, and complementary slackness certify its optimum;
    # 5 x 2,000 rows
    rng = np.random.default_rng(20 + n)
    for _ in range(5):
        a1, a2 = rng.uniform(-2, 2, (2, n))
        mu1, mu2 = rng.uniform(0.0, 3.0, 2)
        x = rng.uniform(-3, 3, (2000, n))
        opt, g, eps = _qp_rows(x, a1, a2, mu1, mu2)
        assert np.isfinite(opt).all()
        assert np.allclose(opt, (g * g).sum(axis=1), rtol=1e-12, atol=0.0)
        u, v = a1 - x, x - a2
        nu, nv = (u * u).sum(1), (v * v).sum(1)
        gu, gv = (g * u).sum(1), (g * v).sum(1)
        bu, bv = -mu1 * nu, -mu2 * nv
        ftol = eps * (1.0 + np.sqrt(np.maximum(nu, nv)))
        assert (gu <= bu + ftol).all() and (gv <= bv + ftol).all()
        # multipliers by least squares over the active constraints' columns
        # only, so an inactive constraint's multiplier is 0 (complementary
        # slackness)
        active = np.stack((gu >= bu - ftol, gv >= bv - ftol), axis=1)
        cols = np.stack((u, v), axis=-1) * active[:, None, :]
        lam = (np.linalg.pinv(cols) @ (-2.0 * g)[..., None])[..., 0]
        residual = np.linalg.norm(2.0 * g + (cols @ lam[..., None])[..., 0], axis=1)
        scale = 1.0 + np.linalg.norm(g, axis=1)
        assert (residual <= 1e-9 * scale).all()
        assert (lam >= -1e-9 * scale[:, None]).all()
        assert not lam[~active].any()


def test_qp_kernel_degenerate_rows_without_warnings():
    a1, a2 = vec(-1.0, 0.0), vec(1.0, 0.0)
    # colinear inside the segment, outside it on either side, off the line
    x = np.array([[0.0, 0.0], [3.0, 0.0], [-3.0, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt, g, _ = _qp_rows(x, a1, a2, 1.0, 2.0)
        assert opt[0] == 4.0 and np.array_equal(g[0], vec(2.0, 0.0))
        assert opt[1] == opt[2] == math.inf and np.isnan(g[1:3]).all()
        # mu1 = 0: only the second constraint binds, g = -mu2 v
        opt, g, _ = _qp_rows(x, a1, a2, 0.0, 2.0)
        assert opt[3] == 8.0 and np.array_equal(g[3], vec(2.0, -2.0))
        assert opt[1] == math.inf and np.isnan(g[1]).all()
        # both moduli zero: g = 0 meets both constraints everywhere
        opt, g, _ = _qp_rows(x, a1, a2, 0.0, 0.0)
        assert not opt.any() and not g.any()


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


def batch_statuses(sc, pts):
    """The batch solver's status of every gradient-set problem of
    cross_check(sc, pts), at the tolerance cross_check uses; asserts that
    each row is decided with a certificate."""
    pts = np.asarray(pts, dtype=float)
    balls, coupled = oracle._gradient_sets(sc, pts)
    tol = PROJECTION_TOL * oracle._scale(sc, pts)
    status, _ = _projection.batch_block_projection(balls, coupled, tol)
    assert set(status.tolist()) <= {"feasible", "separated"}
    return status.tolist()


def test_cross_check_triple_block_oracle():
    sc = smooth_triple()
    pts = np.random.default_rng(9).uniform(-2, 2, (25, 2))
    report = cross_check(sc, pts)
    assert report.ok, report.mismatches
    assert report.checked + report.boundary_skipped + report.indeterminate == 25
    assert report.boundary_skipped == report.indeterminate == 0
    # every point the block route finds infeasible is separated in
    # closed form before any iteration
    outside = [evaluate(sc, p).state == OUTSIDE for p in pts]
    assert any(outside)
    assert [s == "separated" for s in batch_statuses(sc, pts)] == outside


def test_cross_check_far_smooth_pair_separated_at_iteration_zero(smooth_pair):
    # far points of a smooth pair have disjoint gradient balls: a
    # closed-form gap certifies them before any iteration
    pts = np.array([[9.0, 9.0], [-8.0, 5.0], [7.0, -9.0]])
    report = cross_check(smooth_pair, pts)
    assert report.ok and report.checked == 3
    assert batch_statuses(smooth_pair, pts) == ["separated"] * 3


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


def corrupt_kernel(monkeypatch, state):
    """Make every kernel of membership._kernel report state at every
    point: margin 1 inside and -1 outside, under a tolerance of 0."""
    real = membership._kernel
    margin = 1.0 if state == INSIDE else -1.0

    def corrupted(scenario):
        real(scenario)  # an unsupported scenario still raises

        def kernel(points):
            n = len(points)
            return np.full(n, margin), np.zeros(n), None

        return kernel

    monkeypatch.setattr(membership, "_kernel", corrupted)


@pytest.mark.parametrize("name, oracle, state", CORRUPTIONS)
def test_cross_check_catches_corrupted_predicate(request, monkeypatch, name, oracle, state):
    scenarios = {"triple": smooth_triple, "known_single": known_single}
    sc = scenarios[name]() if name in scenarios else request.getfixturevalue(name)

    # a box small enough for both states to be common on every route; the
    # containment scenario's admitted set is smaller, so its box is too
    half = 0.6 if name == "known_single" else 1.5
    pts = np.random.default_rng(2).uniform(-half, half, (40, 2))
    wrong = sum(evaluate(sc, p).admits != (state == INSIDE) for p in pts)
    corrupt_kernel(monkeypatch, state)
    report = cross_check(sc, pts)
    assert not report.ok
    assert len(report.mismatches) == wrong > 5
    for rec in report.mismatches:
        assert "point" in rec and "margin" in rec
        assert rec["oracle"] == oracle and rec["state"] == state


# one mismatch per route: its point, the corrupted state and margin, and
# the route's descriptor.  The smooth pair's gap at (3, 2) is
# |c1 + c2| - r1 - r2 with c_i = (L+mu)/2 d_i and r_i = (L-mu)/2 |d_i|;
# the containment distance at (2, 1) is (mu |d|^2 + <d, A (x - c)>) / |d|
# with d = (2.5, 0.8) and A (x - c) = (3, 1)
RECORD_CASES = [
    pytest.param(
        "smooth_pair", [3.0, 2.0], INSIDE,
        [("oracle", "projection"), ("status", "infeasible"),
         ("residual", pytest.approx(math.hypot(28, 22) - 2 * math.sqrt(20) - 7 * math.sqrt(8)))],
        id="projection",
    ),
    pytest.param(
        "triple", [0.0, 0.25], OUTSIDE,
        [("oracle", "block_projection"), ("status", "feasible"),
         ("residual", pytest.approx(0.0, abs=PROJECTION_TOL))],
        id="block_projection",
    ),
    pytest.param(
        "known_single", [2.0, 1.0], INSIDE,
        [("oracle", "containment"),
         ("signed_distance", pytest.approx(15.19 / math.hypot(2.5, 0.8)))],
        id="containment",
    ),
    pytest.param(
        "bounded_pair", [0.0, 0.5], OUTSIDE,
        [("oracle", "qp"),
         ("optimum", pytest.approx(qp_min_norm_gradient([0, 0.5], [-1, 0], [1, 0], 1.75, 2.0))),
         ("threshold", 9.0)],
        id="qp",
    ),
]


@pytest.mark.parametrize("name, point, state, descriptor", RECORD_CASES)
def test_mismatch_record_items(request, monkeypatch, name, point, state, descriptor):
    scenarios = {"triple": smooth_triple, "known_single": known_single}
    sc = scenarios[name]() if name in scenarios else request.getfixturevalue(name)
    assert evaluate(sc, np.array(point)).admits != (state == INSIDE)
    corrupt_kernel(monkeypatch, state)
    (rec,) = cross_check(sc, [point]).mismatches
    margin = 1.0 if state == INSIDE else -1.0
    head = [("point", point), ("state", state), ("margin", margin)]
    assert list(rec.items()) == head + descriptor
    # plain JSON values, no numpy scalars
    values = [*rec.pop("point"), *rec.values()]
    assert {type(v) for v in values} <= {float, str}


def patch_solver(monkeypatch, relabel=None):
    """Replace _projection.batch_block_projection through the module
    attribute, as scripts/verify_corpus.py does: row j of each batch
    gets the status relabel[j], and every batch's statuses are recorded."""
    solve, seen = _projection.batch_block_projection, []

    def patched(balls, coupled, tol):
        status, residual = solve(balls, coupled, tol)
        for j, label in (relabel or {}).items():
            status[j] = label
        seen.append(status.tolist())
        return status, residual

    monkeypatch.setattr(_projection, "batch_block_projection", patched)
    return seen


@pytest.mark.parametrize(
    "label, real",
    [("undecided", "feasible"), ("undecided", "separated"),
     ("feasible", "separated"), ("separated", "feasible")],
)
def test_relabelled_solver_row_counts_by_its_status(monkeypatch, smooth_pair, label, real):
    pts = np.random.default_rng(2).uniform(-1.5, 1.5, (40, 2))
    with pytest.MonkeyPatch.context() as mp:
        seen = patch_solver(mp)
        base = cross_check(smooth_pair, pts)
    assert base.ok and base.indeterminate == 0
    patch_solver(monkeypatch, {seen[0].index(real): label})
    report = cross_check(smooth_pair, pts)
    assert report.checked + report.boundary_skipped + report.indeterminate == report.total
    assert report.boundary_skipped == base.boundary_skipped
    if label == "undecided":
        assert (report.checked, report.indeterminate) == (base.checked - 1, 1)
        assert report.mismatches == []
        return
    assert (report.checked, report.indeterminate) == (base.checked, 0)
    (rec,) = report.mismatches
    assert rec["status"] == ("feasible" if label == "feasible" else "infeasible")
    # the relabelled verdict contradicts the closed form at that point
    assert evaluate(smooth_pair, np.array(rec["point"])).admits == (label == "separated")


def test_undecided_rows_are_never_mismatches(monkeypatch, smooth_pair):
    # a predicate that admits everything mismatches every separated row,
    # and no row once the solver leaves them all undecided
    pts = np.random.default_rng(2).uniform(-1.5, 1.5, (40, 2))
    corrupt_kernel(monkeypatch, INSIDE)
    seen = patch_solver(monkeypatch)
    wrong = cross_check(smooth_pair, pts)
    assert len(wrong.mismatches) == seen[0].count("separated") > 5
    patch_solver(monkeypatch, dict.fromkeys(range(len(seen[0])), "undecided"))
    report = cross_check(smooth_pair, pts)
    assert (report.checked, report.mismatches) == (0, [])
    assert report.indeterminate == len(seen[0]) == report.total - report.boundary_skipped


def test_cross_check_empty_points(smooth_pair):
    report = cross_check(smooth_pair, [])
    assert report.ok and report.total == 0


def test_cross_check_rejects_bad_points(smooth_pair):
    with pytest.raises(DimensionMismatchError):
        cross_check(smooth_pair, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        cross_check(smooth_pair, np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        cross_check(smooth_pair, 5.0)
    with pytest.raises(ValueError, match="finite"):
        cross_check(smooth_pair, [[0.0, 0.0], [math.nan, 1.0]])


def test_cross_check_rejects_all_known_scenario():
    known = [KnownFunction(np.eye(2), c) for c in (vec(0.0, 0.0), vec(1.0, 0.0))]
    sc = Scenario(tuple(Summand(k.center, ClassParams(0.5, 2.0), k) for k in known))
    # also with no points: the report is only built for a checkable scenario
    for pts in ([[0.5, 0.0]], []):
        with pytest.raises(UnsupportedPatternError, match="unknown summand"):
            cross_check(sc, pts)


def test_cross_check_rejects_unrouted_scenario():
    # three nonsmooth summands fit no predicate, with or without points
    ns = [Summand(vec(x, y), ClassParams(1.0, math.inf)) for x, y in ((-1, 0), (1, 0), (0, 1))]
    sc = Scenario(tuple(ns), bound_B=5.0)
    for pts in ([[0.0, 0.0]], []):
        with pytest.raises(UnsupportedPatternError, match="no predicate fits"):
            cross_check(sc, pts)


def first_nonsmooth(sc):
    """sc with L = inf on its first summand: the one-nonsmooth route."""
    s, *rest = sc.summands
    return Scenario((Summand(s.x_star, ClassParams(s.params.mu, math.inf)), *rest))


def oracle_counts(sc, pts):
    """cross_check's counts, and the points the oracle rules out: the
    mismatches of an always-inside predicate."""
    r = cross_check(sc, pts)
    with pytest.MonkeyPatch.context() as mp:
        corrupt_kernel(mp, INSIDE)
        ruled_out = cross_check(sc, pts).mismatches
    counts = (r.checked, r.boundary_skipped, r.indeterminate, len(r.mismatches))
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
        assert counts[-1] == 0 and 0 < len(ruled_out) < 150, f"seed {seed}"


# --------------------------------------------------------- necessity sweep


def reference_instance(scenario, seed):
    """(functions, exact minimizer) of seed, drawn the way necessity_sweep
    drew it before its batch: one QR, KnownFunction and solve per draw,
    and a redraw from the same stream when the sum is singular."""
    rng = np.random.default_rng(seed)
    n = scenario.dim
    for _ in range(64):
        funcs = []
        for s in scenario.summands:
            if s.known is not None:
                funcs.append(s.known)
                continue
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q = q * np.sign(np.diag(r))
            spectrum = rng.uniform(s.params.mu, s.params.L, n)
            funcs.append(KnownFunction((q * spectrum) @ q.T, s.x_star))
        total = np.zeros((n, n))
        rhs = np.zeros(n)
        for f in funcs:
            total = total + f.matrix
            rhs = rhs + f.matrix @ f.center
        try:
            x = np.linalg.solve(total, rhs)
        except np.linalg.LinAlgError:
            continue
        resid = float(np.linalg.norm(total @ x - rhs))
        scale = 1.0 + float(np.linalg.norm(rhs)) + float(np.abs(total).max())
        if not np.all(np.isfinite(x)) or resid > 1e-8 * scale:
            continue
        return funcs, x
    raise ValueError("could not draw a nonsingular instance")


def reference_sweep(scenario, seeds):
    """necessity_sweep one seed at a time: one evaluate and one _scale
    per instance."""
    worst = math.inf
    failures = []
    count = 0
    band = PROJECTION_TOL * oracle.BOUNDARY_BAND_FACTOR
    for seed in seeds:
        _, x = reference_instance(scenario, seed)
        v = evaluate(scenario, x)
        count += 1
        worst = min(worst, v.margin)
        scale = oracle._scale(scenario, [x]) * oracle._margin_weight(scenario)
        if v.state == OUTSIDE and v.margin < -band * scale:
            failures.append(
                {"seed": int(seed), "minimizer": [float(t) for t in x], "margin": v.margin}
            )
    return {"instances": count, "worst_margin": worst, "failures": failures}


def with_known(sc, seed):
    """sc with a known quadratic in place of its second summand."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((sc.dim, sc.dim))
    first, s, *rest = sc.summands
    k = KnownFunction(0.5 * a @ a.T + 0.1 * np.eye(sc.dim), s.x_star + 0.1)
    return Scenario((first, Summand(s.x_star, s.params, k), *rest))


SWEEP_CASES = [
    *(pytest.param(random_smooth_scenario(k, n=n), id=f"{n}d_{k}")
      for n in (1, 2, 3, 8) for k in range(4)),
    *(pytest.param(with_known(random_smooth_scenario(k, n=n), k), id=f"known_{n}d_{k}")
      for n in (2, 3) for k in range(3)),
]


@pytest.mark.parametrize("sc", SWEEP_CASES)
def test_batched_sweep_matches_per_seed_reference(sc):
    seeds = range(1000, 1025)
    assert repr(necessity_sweep(sc, seeds)) == repr(reference_sweep(sc, seeds))
    mats, x = oracle._instances(sc, list(seeds))
    for seed, m, row in zip(seeds, mats, x):
        funcs, ref = reference_instance(sc, seed)
        assert row.tobytes() == ref.tobytes(), f"seed {seed}"
        drawn = [f.matrix for f, s in zip(funcs, sc.summands) if s.known is None]
        assert m.tobytes() == np.array(drawn).tobytes(), f"seed {seed}"
    # sample_quadratic_instance is the batch on one seed
    inst = sample_quadratic_instance(sc, seeds[-1])
    assert inst.exact_minimizer.tobytes() == ref.tobytes()
    for f, g in zip(inst.functions, funcs):
        assert f.matrix.tobytes() == g.matrix.tobytes()
        assert f.center.tobytes() == g.center.tobytes()


def test_sampled_instance_checks_its_matrices_once(monkeypatch):
    # the stack is checked as a whole; its matrices are not checked again
    # one by one when they become KnownFunctions
    calls = []
    checked = membership._checked_matrices

    def spy(a):
        calls.append(a.shape)
        return checked(a)

    monkeypatch.setattr(membership, "_checked_matrices", spy)
    inst = sample_quadratic_instance(random_smooth_scenario(2, m=4, n=3), 5)
    assert calls == [(1, 4, 3, 3)]
    assert all(isinstance(f, KnownFunction) for f in inst.functions)


def test_random_orthogonal_matches_reference():
    for n in (1, 2, 3, 8):
        q, r = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
        ref = q * np.sign(np.diag(r))
        assert random_orthogonal(n, np.random.default_rng(n)).tobytes() == ref.tobytes()


def test_necessity_sweep_no_seeds(smooth_pair, mixed_pair):
    empty = {"instances": 0, "worst_margin": math.inf, "failures": []}
    assert necessity_sweep(smooth_pair, []) == empty
    # as before the batch: no instance is drawn, so no pattern is rejected
    assert necessity_sweep(mixed_pair, iter(())) == empty


def test_singular_first_draw_is_redrawn_from_its_stream(monkeypatch):
    # seed 7's first draw gets all-zero matrix draws: QR's sign fix makes
    # every matrix zero, the stacked solve fails, and seed 7 alone redraws
    sc = random_smooth_scenario(3)
    make = np.random.default_rng
    unperturbed = sample_quadratic_instance(sc, 7).exact_minimizer

    class FlatFirstDraw:
        def __init__(self, seed):
            self.rng = make(seed)
            self.flat = len(sc.unknown_summands) if seed == 7 else 0

        def standard_normal(self, size=None, out=None):
            v = self.rng.standard_normal(size, out=out)
            if self.flat:
                self.flat -= 1
                v[...] = 0.0
            return v

        def random(self, out=None):
            return self.rng.random(out=out)

        def uniform(self, low, high, size):
            return self.rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", FlatFirstDraw)
    seeds = range(5, 10)
    assert repr(necessity_sweep(sc, seeds)) == repr(reference_sweep(sc, seeds))
    redrawn = sample_quadratic_instance(sc, 7).exact_minimizer
    assert redrawn.tobytes() == reference_instance(sc, 7)[1].tobytes()
    assert not np.array_equal(redrawn, unperturbed)


def test_instances_give_up_after_64_singular_draws(monkeypatch):
    # every matrix draw is zero, so every sum is singular: each seed
    # redraws 64 times from its stream, then _instances raises
    sc = random_smooth_scenario(3)
    make = np.random.default_rng
    draws = []

    class FlatDraws:
        def __init__(self, seed):
            self.rng = make(seed)

        def standard_normal(self, size=None, out=None):
            draws.append(self)
            v = self.rng.standard_normal(size, out=out)
            v[...] = 0.0
            return v

        def random(self, out=None):
            return self.rng.random(out=out)

    monkeypatch.setattr(np.random, "default_rng", FlatDraws)
    with pytest.raises(ValueError, match="could not draw a nonsingular instance"):
        oracle._instances(sc, [5, 6])
    # one matrix draw per unknown summand, 64 passes, for each seed's stream
    u = len(sc.unknown_summands)
    assert sorted(Counter(draws).values()) == [64 * u, 64 * u]


def test_sweep_failures_in_seed_order(monkeypatch):
    # a kernel that calls every minimizer right of x = 0 outside
    real = membership._kernel

    def right_half_outside(scenario):
        kernel = real(scenario)

        def run(points):
            margins, eps, fired, _ = kernel(points)
            right = points[:, 0] > 0.0
            # below -1, far past any eps the kernel works out: outside
            return np.where(right, -1.0 - abs(margins), margins), eps, fired

        return run

    monkeypatch.setattr(membership, "_kernel", right_half_outside)
    sc = random_smooth_scenario(5)
    seeds = [9, 3, *range(20, 40)]
    out = necessity_sweep(sc, seeds)
    assert repr(out) == repr(reference_sweep(sc, seeds))
    failed = [f["seed"] for f in out["failures"]]
    assert 0 < len(failed) < len(seeds)
    assert failed == [s for s in seeds if s in failed]
    for f in out["failures"]:
        assert list(f) == ["seed", "minimizer", "margin"]
        assert f["minimizer"][0] > 0.0 and f["margin"] < -1.0


def test_necessity_sweep_clean(smooth_pair):
    out = necessity_sweep(smooth_pair, range(30))
    assert out["instances"] == 30
    assert out["failures"] == []
    assert out["worst_margin"] > 0.0


def test_necessity_sweep_rejects_nonsmooth(mixed_pair):
    with pytest.raises(UnsupportedPatternError):
        necessity_sweep(mixed_pair, range(3))


# ------------------------------------------------- what the oracles can see


def _documented_band(scenario, scale):
    """The boundary band as cross_check and necessity_sweep document it:
    1e3 times the projection tolerance 1e-8, times the point scale and
    the margin weight 1 + sum (L_i + mu_i), mu_i for a nonsmooth summand.
    Written out here rather than read from oracle, so that a wider band
    there is something these gates see."""
    weight = 1.0 + sum(p.L + p.mu if p.is_smooth else p.mu
                       for p in (s.params for s in scenario.summands))
    return 1e3 * 1e-8 * scale * weight


@pytest.mark.parametrize("k, seen", [(0.5, False), (0.99, False), (1.01, True), (2.0, True),
                                     (50.0, True)])
def test_cross_check_sees_a_margin_shifted_past_the_band(monkeypatch, k, seen):
    # a kernel double reports, at fixed points the oracle decides far from
    # the boundary, the wrong side by k bands.  Within one band cross_check
    # skips the points; from k > 1 on each is a mismatch
    sc = Scenario((Summand(vec(-0.5, 0.0), ClassParams(1.0, 5.0)),
                   Summand(vec(0.5, 0.0), ClassParams(1.0, 15.0))))
    pts = np.array([[0.2, 0.0], [0.3, 0.05], [0.0, 0.9], [-0.7, -0.6], [0.6, 0.7]])
    inside = np.array([evaluate(sc, p).margin for p in pts]) > 0.1
    assert inside.tolist() == [True, True, False, False, False]
    assert np.linalg.norm(pts, axis=1).max() <= 1.0  # the band's scale is 1
    shifted = np.where(inside, -k, k) * _documented_band(sc, 1.0)
    monkeypatch.setattr(membership, "_kernel", lambda scenario: lambda points: (
        shifted, np.zeros(len(points)), None))
    report = cross_check(sc, pts)
    assert report.checked == (len(pts) if seen else 0)
    assert len(report.mismatches) == report.checked


@pytest.mark.parametrize("k, fails", [(0.5, False), (0.99, False), (1.01, True), (2.0, True)])
def test_necessity_sweep_fails_a_minimizer_planted_past_the_band(monkeypatch, k, fails):
    # a kernel double puts every drawn minimizer outside, at margin -k
    # bands, each band scaled by max(1, |x_i*|, |x|): within one band the
    # sweep forgives it, from k > 1 on it fails every seed
    sc = random_smooth_scenario(5)
    floor = max(1.0, *(float(np.linalg.norm(s.x_star)) for s in sc.summands))

    def planted(scenario):
        def kernel(points):
            scale = np.maximum(floor, np.linalg.norm(points, axis=1))
            return -k * _documented_band(scenario, scale), np.zeros(len(points)), None

        return kernel

    monkeypatch.setattr(membership, "_kernel", planted)
    out = necessity_sweep(sc, range(6))
    assert [f["seed"] for f in out["failures"]] == (list(range(6)) if fails else [])


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
