"""The batched projection solver against the scalar ones, row by row."""
import itertools

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


def batch(problems, max_iter):
    """Run batch_block_projection on (blocks, coupled) problems, where
    blocks[i] lists block i's sets."""
    n_sets = len(problems[0][0][0])
    blocks = [stack([[b[j] for b in p[0]] for p in problems]) for j in range(n_sets)]
    coupled = stack([p[1] for p in problems])
    return _projection.batch_block_projection(blocks, coupled, TOL, max_iter)


def scalar(problem, max_iter):
    """(status, residual, iterations) of the scalar solver for the same
    problem: cyclic_projection for one block, the block solver otherwise."""
    blocks, coupled = problem
    dim = coupled.dim
    if len(blocks) == 1:
        status, _, res, iters = _projection.cyclic_projection(
            blocks[0] + [coupled], dim, TOL, max_iter
        )
    else:
        status, _, res, iters = _projection.block_cyclic_projection(
            blocks, coupled, dim, TOL, max_iter
        )
    return status, res, iters


def separated_in_closed_form(problem, margin):
    """True when the problem is infeasible by more than margin in closed
    form: two balls of one block lie that far apart, or some choice of
    one ball per block sums, as a Minkowski sum, to the ball
    B(sum c_i, sum r_i), and that ball lies that far from the coupled
    set."""
    blocks, coupled = problem
    for block in blocks:
        for a, b in itertools.combinations(block, 2):
            if np.linalg.norm(a.center - b.center) - a.radius - b.radius > margin:
                return True
    for pick in itertools.product(*blocks):
        centre = np.sum([b.center for b in pick], axis=0)
        radius = sum(b.radius for b in pick)
        if coupled.distance(centre) - radius > margin:
            return True
    return False


def assert_rows_match(problems, max_iter):
    """A row the scalar solver calls feasible keeps its status and
    iteration count; a row it leaves stagnated or at the cap either does
    too, or is separated and infeasible in closed form."""
    status, res, iters = batch(problems, max_iter)
    assert len(status) == len(problems)
    for r, p in enumerate(problems):
        s_status, s_res, s_iters = scalar(p, max_iter)
        if status[r] == "separated":
            assert s_status in ("stagnated", "cap"), f"row {r}"
            assert separated_in_closed_form(p, (len(p[0]) + 1) * TOL), f"row {r}"
            continue
        assert (status[r], iters[r]) == (s_status, s_iters), f"row {r}"
        if np.isfinite(s_res):
            assert res[r] == pytest.approx(s_res, rel=1e-9, abs=TOL)
        else:
            assert res[r] == s_res
    return status, iters


def flat_problem(rng, n, kind):
    # the oracle's two-summand shapes: a ball, then a ball or half-space
    # as the coupled set, or two balls and a ball cap
    if kind == 0:
        return [[random_ball(rng, n)]], random_ball(rng, n)
    if kind == 1:
        return [[random_ball(rng, n)]], random_halfspace(rng, n)
    return [[random_ball(rng, n), random_ball(rng, n)]], random_ball(rng, n)


def block_problem(rng, n, k, halfspace):
    coupled = random_halfspace(rng, n) if halfspace else random_ball(rng, n)
    return [[random_ball(rng, n)] for _ in range(k)], coupled


@pytest.mark.parametrize("n", [2, 5])
def test_batch_matches_cyclic_projection_one_block(n):
    rng = np.random.default_rng(n)
    seen = set()
    for kind in range(3):
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
    # empty with a negative offset (that one never decides: cap)
    ball = Ball(vec(0.5, 0.0), 1.0)
    vacuous = HalfSpace(vec(0.0, 0.0), 0.0)
    empty = HalfSpace(vec(0.0, 0.0), -1.0)
    problems = [([[ball]], vacuous), ([[ball]], empty)]
    status, iters = assert_rows_match(problems, 120)
    assert list(status) == ["feasible", "cap"]
    assert list(iters) == [0, 120]
    block = [([[ball], [Ball(vec(-0.5, 0.0), 1.0)]], vacuous)]
    assert list(assert_rows_match(block, 120)[0]) == ["feasible"]


def test_batch_feasible_at_iteration_zero_and_cap():
    # row 0 holds the origin in every set, so the first projection is
    # feasible.  Row 1, and the ball beyond the half-space below, are
    # infeasible: separated at iteration 0, by their distance, where the
    # scalar solver is still undecided at the cap.  Row 2's balls touch:
    # no direction separates them, and the iterates crawl toward the
    # tangency, undecided at the cap
    problems = [
        ([[Ball(vec(0.1, 0.0), 1.0)]], Ball(vec(0.0, 0.2), 1.0)),
        ([[Ball(vec(0.0, 0.0), 0.5)]], Ball(vec(3.0, 0.0), 0.5)),
        ([[Ball(vec(0.0, 1.0), 1.0)]], Ball(vec(2.0, 1.0), 1.0)),
    ]
    status, iters = assert_rows_match(problems, 30)
    assert list(status) == ["feasible", "separated", "cap"]
    assert list(iters) == [0, 0, 30]
    assert batch(problems, 30)[1][1] == pytest.approx(2.0)
    problems = [([[Ball(vec(0.0, 0.0), 1.0)]], HalfSpace(vec(-1.0, 0.0), -2.0))]
    status, iters = assert_rows_match(problems, 30)
    assert list(status) == ["separated"] and list(iters) == [0]
    assert batch(problems, 30)[1][0] == pytest.approx(1.0)


def test_batch_separation_keeps_its_margin():
    # each row is infeasible by less than its (k + 1) tol margin, inside
    # which the solver could still call a row feasible, so it is not
    # separated; its residual stays between tol and the stall level
    # 10 tol, and it runs to the cap as in the scalar solver
    problems = [([[Ball(vec(0.0, 0.0), 1.0)]], Ball(vec(2.0 + 1.5 * TOL, 0.0), 1.0))]
    status, iters = assert_rows_match(problems, 200)
    assert list(status) == ["cap"] and list(iters) == [200]
    half = [Ball(vec(0.0, 0.0), 0.5)]
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
    blocks = [_projection.Balls(np.zeros((0, 2, 3)), np.zeros((0, 2)))]
    coupled = _projection.Balls(np.zeros((0, 3)), np.zeros(0))
    status, res, iters = _projection.batch_block_projection(blocks, coupled, TOL, 20_000)
    assert status.shape == res.shape == iters.shape == (0,)
    assert calls == []
