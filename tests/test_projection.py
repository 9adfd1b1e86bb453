"""The batched projection solver against the scalar ones, row by row."""
import numpy as np
import pytest

from minsum import _projection
from minsum.geometry import Ball, HalfSpace

TOL = 1e-9


def vec(*vals):
    return np.array(vals, dtype=float)


def random_ball(rng, n):
    return Ball(rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 1.5))


def random_halfspace(rng, n):
    return HalfSpace(rng.normal(size=n), rng.uniform(-2.0, 1.0))


def stack(rows):
    """Balls or HalfSpaces from one geometry set per row, or one list of
    k sets per row; every set has the type of the first."""
    if isinstance(rows[0], list):
        shape = (len(rows), len(rows[0]))
        flat = [s for row in rows for s in row]
    else:
        shape = (len(rows),)
        flat = rows
    if isinstance(flat[0], Ball):
        return _projection.Balls(
            np.array([s.center for s in flat]).reshape(shape + (-1,)),
            np.array([s.radius for s in flat]).reshape(shape),
        )
    return _projection.HalfSpaces(
        np.array([s.normal for s in flat]).reshape(shape + (-1,)),
        np.array([s.offset for s in flat]).reshape(shape),
    )


def batch(problems, max_iter, tol=TOL):
    """Run batch_block_projection on (balls, coupled) problems, where
    balls lists one ball per block."""
    balls = stack([p[0] for p in problems])
    coupled = stack([p[1] for p in problems])
    return _projection.batch_block_projection(balls, coupled, tol, max_iter)


def scalar(problem, max_iter):
    """(status, residual, iterations) of the scalar solver for the same
    problem: cyclic_projection for one block, the block solver otherwise."""
    balls, coupled = problem
    dim = coupled.dim
    if len(balls) == 1:
        status, _, res, iters = _projection.cyclic_projection(
            balls + [coupled], dim, TOL, max_iter
        )
    else:
        status, _, res, iters = _projection.block_cyclic_projection(
            [[b] for b in balls], coupled, dim, TOL, max_iter
        )
    return status, res, iters


def closed_form_gap(problem):
    """The coupled set's distance from sum c_i less sum r_i: where it is
    positive, the distance from the Minkowski sum of the balls, the ball
    B(sum c_i, sum r_i), to the coupled set."""
    balls, coupled = problem
    centre = np.sum([b.center for b in balls], axis=0)
    return coupled.distance(centre) - sum(b.radius for b in balls)


def assert_rows_match(problems, max_iter):
    """A row the scalar solver calls feasible stays feasible, in at most
    the scalar's iterations.  A row it leaves stagnated or at the cap is
    separated at iteration 0 and infeasible in closed form, with that gap
    as its residual; or feasible, found by an extrapolated step; or, when
    the scalar one ends at the cap, at the cap too.  Every feasible row's
    residual is at most tol, and a row that ends as the scalar one does,
    at its iteration, has its residual."""
    status, res, iters = batch(problems, max_iter)
    assert len(status) == len(problems)
    for r, p in enumerate(problems):
        s_status, s_res, s_iters = scalar(p, max_iter)
        if status[r] == "separated":
            assert s_status in ("stagnated", "cap"), f"row {r}"
            assert iters[r] == 0, f"row {r}"
            gap = closed_form_gap(p)
            assert gap > (len(p[0]) + 1) * TOL, f"row {r}"
            assert res[r] == pytest.approx(gap, rel=1e-9, abs=TOL), f"row {r}"
            continue
        if status[r] == "feasible":
            assert res[r] <= TOL, f"row {r}"
            assert s_status != "feasible" or iters[r] <= s_iters, f"row {r}"
        else:
            assert (status[r], s_status) == ("cap", "cap"), f"row {r}"
        if (status[r], iters[r]) != (s_status, s_iters):
            continue
        if np.isfinite(s_res):
            assert res[r] == pytest.approx(s_res, rel=1e-9, abs=TOL)
        else:
            assert res[r] == s_res
    return status, iters


def flat_problem(rng, n, kind):
    # the oracle's two-summand shapes: a ball, then a ball or half-space
    # as the coupled set
    coupled = random_halfspace(rng, n) if kind else random_ball(rng, n)
    return [random_ball(rng, n)], coupled


def block_problem(rng, n, k, halfspace):
    coupled = random_halfspace(rng, n) if halfspace else random_ball(rng, n)
    return [random_ball(rng, n) for _ in range(k)], coupled


@pytest.mark.parametrize("n", [2, 5])
def test_batch_matches_cyclic_projection_one_block(n):
    rng = np.random.default_rng(n)
    seen = set()
    for kind in range(2):
        problems = [flat_problem(rng, n, kind) for _ in range(20)]
        seen.update(assert_rows_match(problems, 2000)[0])
    assert seen == {"feasible", "separated"}


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("halfspace", [False, True])
def test_batch_matches_block_projection(k, halfspace):
    rng = np.random.default_rng(10 + k)
    problems = [block_problem(rng, 3, k, halfspace) for _ in range(20)]
    assert set(assert_rows_match(problems, 2000)[0]) == {"feasible", "separated"}


def test_batch_zero_normal_rows():
    # x on a nonsmooth anchor gives a zero normal: vacuous with offset 0,
    # empty with a negative offset.  The empty one lies infinitely far
    # from every ball, so it is separated at once, where the scalar
    # solver never decides and runs to the cap
    ball = Ball(vec(0.5, 0.0), 1.0)
    vacuous = HalfSpace(vec(0.0, 0.0), 0.0)
    empty = HalfSpace(vec(0.0, 0.0), -1.0)
    problems = [([ball], vacuous), ([ball], empty)]
    status, iters = assert_rows_match(problems, 120)
    assert list(status) == ["feasible", "separated"]
    assert list(iters) == [0, 0]
    assert batch(problems, 120)[1][1] == np.inf
    block = [([ball, Ball(vec(-0.5, 0.0), 1.0)], vacuous)]
    assert list(assert_rows_match(block, 120)[0]) == ["feasible"]


def test_batch_feasible_at_iteration_zero_and_cap():
    # row 0 holds the origin in every set, so the first projection is
    # feasible.  Row 1, and the ball beyond the half-space below, are
    # infeasible: separated at iteration 0, by their distance, where the
    # scalar solver is still undecided at the cap.  Row 2's balls touch:
    # no direction separates them, and the iterates crawl toward the
    # tangency, undecided at the cap
    problems = [
        ([Ball(vec(0.1, 0.0), 1.0)], Ball(vec(0.0, 0.2), 1.0)),
        ([Ball(vec(0.0, 0.0), 0.5)], Ball(vec(3.0, 0.0), 0.5)),
        ([Ball(vec(0.0, 1.0), 1.0)], Ball(vec(2.0, 1.0), 1.0)),
    ]
    status, iters = assert_rows_match(problems, 30)
    assert list(status) == ["feasible", "separated", "cap"]
    assert list(iters) == [0, 0, 30]
    assert batch(problems, 30)[1][1] == pytest.approx(2.0)
    problems = [([Ball(vec(0.0, 0.0), 1.0)], HalfSpace(vec(-1.0, 0.0), -2.0))]
    status, iters = assert_rows_match(problems, 30)
    assert list(status) == ["separated"] and list(iters) == [0]
    assert batch(problems, 30)[1][0] == pytest.approx(1.0)


def test_batch_flat_ball_pair_separated_at_iteration_zero():
    # a known_smooth verify row: a gradient ball and a coupled ball
    # 0.0087 apart, off the line the first projections take.  A
    # direction found by projection needed 16 iterations to separate it
    # at the oracle's tolerance; the closed-form gap needs none
    problem = (
        [Ball(vec(-0.4267289993979349, 1.356877699596754), 0.9765469334304326)],
        Ball(vec(2.8971514735995925, 2.0017782264180797), 2.4006600848246453),
    )
    for tol in (TOL, 6.23647902689095e-08):
        status, res, iters = batch([problem], 100, tol)
        assert (status[0], iters[0]) == ("separated", 0)
        assert res[0] == pytest.approx(closed_form_gap(problem), rel=1e-12)
    assert list(assert_rows_match([problem], 100)[1]) == [0]


def test_batch_separation_keeps_its_margin():
    # each row is infeasible by less than its (k + 1) tol margin, inside
    # which the solver could still call a row feasible, so it is not
    # separated; its residual stays between tol and the stall level
    # 10 tol, and it runs to the cap as in the scalar solver
    problems = [([Ball(vec(0.0, 0.0), 1.0)], Ball(vec(2.0 + 1.5 * TOL, 0.0), 1.0))]
    status, iters = assert_rows_match(problems, 200)
    assert list(status) == ["cap"] and list(iters) == [200]
    half = Ball(vec(0.0, 0.0), 0.5)
    problems = [([half, half], Ball(vec(2.0 + 2.5 * TOL, 0.0), 1.0))]
    status, iters = assert_rows_match(problems, 200)
    assert list(status) == ["cap"] and list(iters) == [200]


def test_batch_row_does_not_depend_on_row_count():
    rng = np.random.default_rng(3)
    for make in (
        lambda: flat_problem(rng, 3, 1),
        lambda: block_problem(rng, 3, 3, True),
    ):
        problems = [make() for _ in range(500)]
        together = batch(problems, 2000)
        for r in range(0, 500, 50):
            status, res, iters = batch([problems[r]], 2000)
            assert status[0] == together[0][r]
            assert res[0] == together[1][r]
            assert iters[0] == together[2][r]


def test_batch_zero_rows_returns_at_once(monkeypatch):
    calls = []
    project = _projection.Balls.project

    def spy(self, g):
        calls.append(g.shape)
        return project(self, g)

    monkeypatch.setattr(_projection.Balls, "project", spy)
    balls = _projection.Balls(np.zeros((0, 2, 3)), np.zeros((0, 2)))
    coupled = _projection.Balls(np.zeros((0, 3)), np.zeros(0))
    status, res, iters = _projection.batch_block_projection(balls, coupled, TOL, 20_000)
    assert status.shape == res.shape == iters.shape == (0,)
    assert calls == []


def test_batch_near_tangent_row_is_extrapolated():
    # a ball and a half-space that overlap by 1e-3: the plain iterates
    # crawl along the sphere toward the thin lens and need thousands of
    # iterations; a point along their last step lands in it far sooner.
    # Exactly tangent, the lens is one point, which the plain iterates
    # never reach within the cap
    ball = Ball(vec(0.0, 2.0), 1.0)
    near = [([ball], HalfSpace(vec(-1.0, 0.0), -(1.0 - 1e-3)))]
    assert scalar(near[0], 20_000)[2] > 5_000
    status, iters = assert_rows_match(near, 20_000)
    assert list(status) == ["feasible"] and iters[0] <= 200
    tangent = [([ball], HalfSpace(vec(-1.0, 0.0), -1.0))]
    assert scalar(tangent[0], 1_000)[0] == "cap"
    status, iters = assert_rows_match(tangent, 1_000)
    assert list(status) == ["feasible"]


def test_batch_extrapolation_chunks_do_not_change_rows(monkeypatch):
    # candidates are evaluated a few rows at a time; one row per chunk
    # gives every row bit for bit the same result
    rng = np.random.default_rng(4)
    problems = [block_problem(rng, 3, 2, True) for _ in range(200)]
    together = batch(problems, 2000)
    monkeypatch.setattr(_projection, "_CANDIDATE_FLOATS", 1)
    for a, b in zip(together, batch(problems, 2000)):
        assert a.tobytes() == b.tobytes()
