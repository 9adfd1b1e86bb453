"""The batched projection solver against the scalar ones, row by row,
and its closed form on random and degenerate rows."""
import itertools
import warnings

import numpy as np
import pytest

from minsum import _projection
from minsum.geometry import Ball, HalfSpace

TOL = 1e-9
# the scalar reference's iteration budget
SCALAR_ITER = 2000


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


def batch(problems, tol=TOL):
    """Run batch_block_projection on (balls, coupled) problems, where
    balls lists one ball per block."""
    balls = stack([p[0] for p in problems])
    coupled = stack([p[1] for p in problems])
    return _projection.batch_block_projection(balls, coupled, tol)


def scalar(problem, max_iter=SCALAR_ITER):
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


def assert_rows_match(problems):
    """A row the scalar solver calls feasible stays feasible.  A row is
    separated only when it is infeasible in closed form by more than its
    (k + 1) tol margin, with that gap as its residual; every other row is
    feasible, with a residual of at most tol."""
    status, res = batch(problems)
    assert len(status) == len(problems)
    for r, p in enumerate(problems):
        margin = (len(p[0]) + 1) * TOL
        gap = closed_form_gap(p)
        if status[r] == "separated":
            assert scalar(p)[0] != "feasible", f"row {r}"
            assert gap > margin, f"row {r}"
            assert res[r] == pytest.approx(gap, rel=1e-9, abs=TOL), f"row {r}"
        else:
            assert status[r] == "feasible", f"row {r}"
            assert gap <= margin and res[r] <= TOL, f"row {r}"
    return status


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
        seen.update(assert_rows_match(problems))
    assert seen == {"feasible", "separated"}


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("halfspace", [False, True])
def test_batch_matches_block_projection(k, halfspace):
    rng = np.random.default_rng(10 + k)
    problems = [block_problem(rng, 3, k, halfspace) for _ in range(20)]
    assert set(assert_rows_match(problems)) == {"feasible", "separated"}


def test_batch_zero_normal_rows():
    # x on a nonsmooth anchor gives a zero normal: vacuous with offset 0,
    # empty with a negative offset.  The empty one lies infinitely far
    # from every ball, so it is separated at once, where the scalar
    # solver never decides and runs to the cap
    ball = Ball(vec(0.5, 0.0), 1.0)
    vacuous = HalfSpace(vec(0.0, 0.0), 0.0)
    empty = HalfSpace(vec(0.0, 0.0), -1.0)
    problems = [([ball], vacuous), ([ball], empty)]
    assert list(assert_rows_match(problems)) == ["feasible", "separated"]
    assert batch(problems)[1][1] == np.inf
    block = [([ball, Ball(vec(-0.5, 0.0), 1.0)], vacuous)]
    assert list(assert_rows_match(block)) == ["feasible"]


def test_batch_feasible_at_iteration_zero_and_cap():
    # row 0 holds the origin in every set.  Row 1, and the ball beyond
    # the half-space below, are infeasible: separated by their distance,
    # where the scalar solver is still undecided at the cap.  Row 2's
    # balls touch: the scalar iterates crawl toward the tangency,
    # undecided at the cap, and the closed form writes the tangency point
    problems = [
        ([Ball(vec(0.1, 0.0), 1.0)], Ball(vec(0.0, 0.2), 1.0)),
        ([Ball(vec(0.0, 0.0), 0.5)], Ball(vec(3.0, 0.0), 0.5)),
        ([Ball(vec(0.0, 1.0), 1.0)], Ball(vec(2.0, 1.0), 1.0)),
    ]
    assert scalar(problems[2], 30)[0] == "cap"
    assert list(assert_rows_match(problems)) == ["feasible", "separated", "feasible"]
    assert batch(problems)[1][1] == pytest.approx(2.0)
    problems = [([Ball(vec(0.0, 0.0), 1.0)], HalfSpace(vec(-1.0, 0.0), -2.0))]
    assert list(assert_rows_match(problems)) == ["separated"]
    assert batch(problems)[1][0] == pytest.approx(1.0)


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
        status, res = batch([problem], tol)
        assert status[0] == "separated"
        assert res[0] == pytest.approx(closed_form_gap(problem), rel=1e-12)
    assert list(assert_rows_match([problem])) == ["separated"]


def test_batch_separation_keeps_its_margin():
    # a row infeasible by less than its (k + 1) tol margin is not
    # separated: its closed-form point stops gap / (k + 1) <= tol short
    # of every set, and it is feasible.  A row beyond the margin has no
    # such point and is separated
    unit, half = Ball(vec(0.0, 0.0), 1.0), Ball(vec(0.0, 0.0), 0.5)
    for blocks, inside, beyond in (([unit], 1.5, 2.5), ([half, half], 2.5, 3.5)):
        problems = [
            (blocks, Ball(vec(2.0 + inside * TOL, 0.0), 1.0)),
            (blocks, Ball(vec(2.0 + beyond * TOL, 0.0), 1.0)),
        ]
        assert list(assert_rows_match(problems)) == ["feasible", "separated"]
        res = batch(problems)[1]
        assert res[0] == pytest.approx(inside * TOL / (len(blocks) + 1), rel=1e-5)


def test_batch_row_does_not_depend_on_row_count():
    rng = np.random.default_rng(3)
    for make in (
        lambda: flat_problem(rng, 3, 1),
        lambda: block_problem(rng, 3, 3, True),
    ):
        problems = [make() for _ in range(500)]
        together = batch(problems)
        for r in range(0, 500, 50):
            status, res = batch([problems[r]])
            assert status[0] == together[0][r]
            assert res[0] == together[1][r]


def test_batch_zero_rows_returns_at_once():
    balls = _projection.Balls(np.zeros((0, 2, 3)), np.zeros((0, 2)))
    coupled = _projection.Balls(np.zeros((0, 3)), np.zeros(0))
    status, res = _projection.batch_block_projection(balls, coupled, TOL)
    assert status.shape == res.shape == (0,)


def test_batch_near_tangent_row_is_extrapolated():
    # a ball and a half-space that overlap by 1e-3: the scalar iterates
    # crawl along the sphere toward the thin lens and need thousands of
    # iterations.  Exactly tangent, the lens is one point, which they
    # never reach within the cap.  The closed form writes a point of each
    ball = Ball(vec(0.0, 2.0), 1.0)
    near = ([ball], HalfSpace(vec(-1.0, 0.0), -(1.0 - 1e-3)))
    tangent = ([ball], HalfSpace(vec(-1.0, 0.0), -1.0))
    assert scalar(near, 20_000)[2] > 5_000
    assert scalar(tangent, 1_000)[0] == "cap"
    assert list(assert_rows_match([near, tangent])) == ["feasible", "feasible"]


def test_batch_corpus_block_row_is_feasible_at_once():
    # the slowest row of scripts/verify_corpus.py under the cyclic
    # iteration (run seed7/c5/one_nonsmooth3_v21): two gradient balls
    # whose sum reaches 8.3e-3 into a half-space.  Iterating took 2,704
    # steps to come within tol; the closed-form point is within at once
    balls = [
        Ball(vec(-6.95023730214187, -7.727588759823084), 7.8885638822364825),
        Ball(vec(-22.788637206785168, -32.49232224338807), 32.36969627127835),
    ]
    coupled = HalfSpace(vec(-4.480984442737882, -1.0685746716771005), -9.179412503739014)
    tol = 6.832763897169274e-08
    assert closed_form_gap((balls, coupled)) == pytest.approx(-8.299e-3, rel=1e-3)
    status, res = batch([(balls, coupled)], tol)
    assert status[0] == "feasible" and res[0] <= tol


def random_rows(rng, rows, n, k, halfspace, scale):
    """rows problems of k balls in R^n at the given scale, each with its
    closed-form gap uniform in [-2, 1.5] (k + 1) tol, and the degenerate
    cases mixed in: every tenth row has zero radii, and among the others
    every tenth has its coupled ball centred at the block sum, or a zero
    normal, vacuous or empty.  Returns (balls, coupled, tol, gap), with
    each row's gap as built."""
    tol = 1e-8 * scale
    centres = rng.uniform(-scale, scale, (rows, k, n))
    radii = rng.uniform(0.0, scale, (rows, k))
    radii[::10] = 0.0
    gap = rng.uniform(-2.0, 1.5, rows) * (k + 1) * tol
    centre, radius = centres.sum(axis=1), radii.sum(axis=1)
    u = rng.normal(size=(rows, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    # the coupled set's signed distance from the block sum
    signed = radius + gap
    if halfspace:
        normals = u * rng.uniform(0.1, 10.0, (rows, 1))
        offsets = (normals * centre).sum(axis=1) - signed * np.linalg.norm(normals, axis=1)
        normals[5::20], offsets[5::20], gap[5::20] = 0.0, 0.0, -np.inf
        normals[15::20], offsets[15::20], gap[15::20] = 0.0, -1.0, np.inf
        coupled = _projection.HalfSpaces(normals, offsets)
    else:
        coupled_radii = rng.uniform(0.0, scale, rows)
        distance = np.maximum(signed + coupled_radii, 0.0)
        distance[5::10] = 0.0
        gap[5::10] = -coupled_radii[5::10] - radius[5::10]
        coupled = _projection.Balls(centre + distance[:, None] * u, coupled_radii)
    return _projection.Balls(centres, radii), coupled, tol, gap


def test_batch_closed_form_decides_every_row():
    # every row not separated gets a point within tol of every set, with
    # no numpy warning from the zero radii, centred sums or zero normals
    rng = np.random.default_rng(0)
    for k, halfspace, scale in itertools.product((1, 2, 4), (False, True), (1.0, 1e3, 1e6)):
        case = f"k={k} halfspace={halfspace} scale={scale}"
        balls, coupled, tol, gap = random_rows(rng, 2000, 3, k, halfspace, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, res = _projection.batch_block_projection(balls, coupled, tol)
        decided = status != "separated"
        assert (status[decided] == "feasible").all(), case
        assert (res[decided] <= tol).all(), case
        # the band the margin leaves to the closed-form point is reached
        band = decided & (gap > 0.0)
        assert np.count_nonzero(band) > 100 and (res[band] > 0.0).all(), case
        if halfspace:
            assert (res[15::20] == np.inf).all(), case
