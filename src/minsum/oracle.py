"""Independent numerical oracles for the closed-form predicates.

Three routes that do not share algebra with the predicates:

* random quadratic instances whose exact sum minimizer is computable,
  probing the necessity direction of every membership test; each seed
  draws from its own stream, and the instances of all seeds are built,
  validated and solved as stacked arrays;
* projection feasibility of the per-summand gradient sets, built as
  arrays over all points and decided in one batch, probing sufficiency
  for the smooth and mixed patterns.  The balls of all but the last
  unknown sum to one ball, and both verdicts come from that ball-sum
  algebra in closed form: its gap to the last unknown's set certifies
  each infeasible row, and a point written from it, within tolerance of
  every set, each feasible one.  The feasible point thus comes from the
  same algebra as the gap; only its certificate, the point's distance
  from each set, reads the oracle's sets alone;
* a tiny QP (minimum gradient norm under two strong-convexity
  constraints) solved by KKT case enumeration, probing the bounded
  two-nonsmooth pattern: x* is a member iff the optimum is at most B^2.
  The solver is an array kernel in membership, run once over all
  points; the bounded-pair witness is its argmin at one point.  It
  shares no algebra with the three-clause test it checks.

cross_check and necessity_sweep each read every verdict from one run of
the routed kernel.  cross_check decides and counts its rows as masks,
and writes a record for a mismatched row alone.  A projection row whose
closed-form point misses the tolerance by rounding is undecided, and
counts as indeterminate.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import _projection, membership
from .geometry import DimensionMismatchError, OUTSIDE
from .interpolation import ClassParams
from .membership import (
    STATE_NAMES,
    KnownFunction,
    Scenario,
    Summand,
    UnsupportedPatternError,
    min_bound_B,
    qp_min_norm_gradient_solution,
)

PROJECTION_TOL = 1e-8
BOUNDARY_BAND_FACTOR = 1e3


@dataclass(frozen=True, eq=False)
class QuadraticInstance:
    """A fully specified instance consistent with a scenario: one convex
    quadratic per summand, with its exact sum minimizer."""

    functions: tuple
    exact_minimizer: np.ndarray


def _orthogonal(g: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of each matrix of a (..., n, n) stack,
    with the sign of R's diagonal fixed, so equal draws give equal Q."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-ish orthogonal matrix from one standard normal draw."""
    return _orthogonal(rng.standard_normal((n, n)))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, as the dot product of the row with
    itself, like the norm of a single vector."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _solve_rows(total: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve total @ x = rhs for each row; a singular row gives NaN."""
    try:
        return np.linalg.solve(total, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular matrix fails the stacked call: solve row by row
        x = np.full(rhs.shape, math.nan)
        for i, (a, b) in enumerate(zip(total, rhs)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[i] = np.linalg.solve(a, b[:, None])[:, 0]
        return x


def _instances(scenario: Scenario, seeds: list):
    """The matrices (S, u, n, n) of the u unknown summands and the exact
    sum minimizers (S, n) of one quadratic instance per seed.

    Each seed draws from its own stream into its row of the stacks: per
    unknown summand an (n, n) standard normal matrix, then n uniforms u.
    The eigenvalues mu + (L - mu) u are Generator.uniform(mu, L, n)'s own
    formula, so they keep its bits.  The matrices of all seeds are built,
    validated and solved as stacks: the minimizer solves (sum A_i) x =
    sum A_i c_i over every summand, known ones included.
    When every modulus is zero the sum can be singular; such a seed
    redraws from its stream, up to 64 times, so each instance is a
    deterministic function of its seed alone.  A seed failing still
    raises, naming the overflow when its sums are not finite.
    """
    unknown = scenario.unknown_summands
    if not all(s.params.is_smooth for s in unknown):
        raise UnsupportedPatternError(
            "quadratic instances need finite L on every unknown summand"
        )
    n, u = scenario.dim, len(unknown)
    mu = np.array([s.params.mu for s in unknown])[:, None, None]
    L = np.array([s.params.L for s in unknown])[:, None, None]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    matrices = np.empty((len(rngs), u, n, n))
    minimizers = np.empty((len(rngs), n))
    todo = np.arange(len(rngs))
    for _ in range(64):
        g = np.empty((len(todo), u, n, n))
        spectra = np.empty((len(todo), u, 1, n))
        for row, i in enumerate(todo.tolist()):
            for j in range(u):
                rngs[i].standard_normal(out=g[row, j])
                rngs[i].random(out=spectra[row, j, 0])
        spectra = mu + (L - mu) * spectra
        q = _orthogonal(g)
        mats = membership._checked_matrices((q * spectra) @ np.swapaxes(q, -1, -2))
        total = np.zeros((len(todo), n, n))
        rhs = np.zeros((len(todo), n))
        column = iter(range(u))
        for s in scenario.summands:
            if s.known is not None:
                a, c = s.known.matrix, s.known.center
            else:
                a, c = mats[:, next(column)], s.x_star
            total = total + a
            rhs = rhs + a @ c
        x = _solve_rows(total, rhs)
        resid = _row_norms((total @ x[..., None])[..., 0] - rhs)
        scale = 1.0 + _row_norms(rhs) + np.abs(total).max(axis=(-2, -1))
        ok = np.isfinite(x).all(axis=-1) & ~(resid > 1e-8 * scale)
        matrices[todo[ok]] = mats[ok]
        minimizers[todo[ok]] = x[ok]
        todo = todo[~ok]
        if not len(todo):
            return matrices, minimizers
    if not (np.isfinite(total[~ok]).all() and np.isfinite(rhs[~ok]).all()):
        raise ValueError("the sums of the quadratic instances overflow the float range")
    raise ValueError("could not draw a nonsingular instance; are all moduli zero?")


def sample_quadratic_instance(scenario: Scenario, seed: int) -> QuadraticInstance:
    """One quadratic per unknown summand with Hessian spectrum inside
    [mu_i, L_i] and center x_i*, known summands keeping their own
    matrix, and the exact sum minimizer: the instance of seed in
    necessity_sweep, drawn as a batch of one."""
    (mats,), (x,) = _instances(scenario, [seed])
    unknown = iter(mats)
    funcs = tuple(
        s.known if s.known is not None else KnownFunction._checked(next(unknown), s.x_star)
        for s in scenario.summands
    )
    return QuadraticInstance(funcs, x)


# ---------------------------------------------------------------------------
# minimum-gradient-norm QP


def qp_min_norm_gradient(x_star, x1, x2, mu1: float, mu2: float) -> float:
    value, _ = qp_min_norm_gradient_solution(x_star, x1, x2, mu1, mu2)
    return value


# ---------------------------------------------------------------------------
# cross checks


@dataclass
class CrossCheckReport:
    """Counts over the points of one cross_check, read from its masks.

    Every point is checked, boundary_skipped or indeterminate, and each
    checked verdict is certified: a feasible projection by an explicit
    point within tolerance of every set, an infeasible one by the
    closed-form gap of the ball sum to the coupled set, a containment by
    its signed distance, and a bounded pair by the exact KKT QP.  A
    projection row whose point misses the tolerance by rounding is
    indeterminate.  mismatches holds one record per checked point whose
    two verdicts differ, in point order.
    """

    total: int = 0
    checked: int = 0
    boundary_skipped: int = 0
    indeterminate: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _scale(scenario: Scenario, points: np.ndarray) -> float:
    """max(1, |x| over the (N, n) points and the minimizers)."""
    s = max(1.0, float(np.linalg.norm(points, axis=1).max(initial=0.0)))
    for sm in scenario.summands:
        s = max(s, float(np.linalg.norm(sm.x_star)))
    return s


def _margin_weight(scenario: Scenario) -> float:
    w = 0.0
    for s in scenario.summands:
        p = s.params
        w += (p.L + p.mu) if p.is_smooth else p.mu
    return 1.0 + w


def _points(points, dim: int) -> np.ndarray:
    """points as a validated (N, n) array; an empty list passes as is."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0 or (len(pts) and (pts.ndim != 2 or pts.shape[1] != dim)):
        raise DimensionMismatchError(f"expected an (N, {dim}) array of points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be finite")
    return pts


def _gradient_sets(scenario: Scenario, pts: np.ndarray):
    """The gradient-set feasibility problem of every point, as
    _projection arrays (balls, coupled).

    balls holds the gradient balls B((L+mu)/2 d, (L-mu)/2 |d|), d = x - x*,
    of the unknowns but the last, (N, k, n).  coupled is the last
    unknown's set, negated and shifted by the known gradients: the sum of
    the others' gradients must land in it.  k = 1 is the flat problem,
    k >= 2 the block one, and with k = 0 the coupled set must contain 0.
    """
    *_, last = unknown = scenario.unknown_summands
    smooth = [s for s in unknown if s.params.is_smooth]
    d = pts[:, None, :] - np.reshape([s.x_star for s in smooth], (-1, scenario.dim))
    plus = np.array([0.5 * (s.params.L + s.params.mu) for s in smooth])
    minus = np.array([0.5 * (s.params.L - s.params.mu) for s in smooth])
    centres = plus[:, None] * d
    radii = minus * np.linalg.norm(d, axis=-1)
    shift = sum((pts - s.known.center) @ s.known.matrix.T for s in scenario.known_summands)
    if last.params.is_smooth:
        balls = _projection.Balls(centres[:, :-1], radii[:, :-1])
        return balls, _projection.Balls(-centres[:, -1] - shift, radii[:, -1])
    # <g, d> >= mu |d|^2 negated and shifted: <d, g> <= -mu |d|^2 - <d, shift>
    d = pts - last.x_star
    offsets = -last.params.mu * (d * d).sum(axis=1) - (d * shift).sum(axis=1)
    return _projection.Balls(centres, radii), _projection.HalfSpaces(d, offsets)


def _projection_outcomes(scenario: Scenario, pts, rows, tol: float, band: float):
    """(rows, member, decided, describe) of the projection routes, solved
    in one batch: the compared rows, masks of the oracle's verdict and of
    its certificate, and the descriptor of compared row j.  Containment
    (no block) reads the signed distance from 0 to the coupled set."""
    balls, coupled = _gradient_sets(scenario, pts[rows])
    k = len(scenario.unknown_summands) - 1
    if k == 0:
        depth = coupled.signed_distance(np.zeros((scenario.dim, 1)))
        # a forced gradient essentially on the set border is skipped
        far = np.abs(depth) > band
        rows, depth = rows[far], depth[far]
        describe = lambda j: {"oracle": "containment", "signed_distance": float(depth[j])}
        return rows, depth < 0.0, np.ones(len(rows), bool), describe
    name = "projection" if k == 1 else "block_projection"
    status, residual = _projection.batch_block_projection(balls, coupled, tol)
    member = status == "feasible"
    describe = lambda j: {
        "oracle": name,
        "status": "feasible" if member[j] else "infeasible",
        "residual": float(residual[j]),
    }
    return rows, member, member | (status == "separated"), describe


def _qp_outcomes(scenario: Scenario, pts, rows, band: float):
    """The _projection_outcomes arrays of the min-norm QP: a member has
    optimum at most B^2.  Points near an anchor, and then those whose
    optimum's root is within band of B, are skipped."""
    s1, s2 = scenario.unknown_summands
    b = scenario.bound_B
    x = pts[rows]
    far = (_row_norms(x - s1.x_star) > band) & (_row_norms(x - s2.x_star) > band)
    rows, x = rows[far], x[far]
    opt, _ = membership._pair_qp(x, s1, s2)
    keep = ~(np.abs(np.sqrt(opt) - b) <= band)
    rows, opt = rows[keep], opt[keep]
    describe = lambda j: {"oracle": "qp", "optimum": float(opt[j]), "threshold": b * b}
    return rows, opt <= b * b, np.ones(len(rows), bool), describe


def cross_check(scenario: Scenario, points) -> CrossCheckReport:
    """Compare the closed-form verdict of the scenario's routed predicate
    against the oracle of its pattern at each point.

    Points whose closed-form margin or oracle quantity falls inside the
    boundary band (1e3 times the projection tolerance, scale-adjusted)
    are skipped: first-order sensitivity there makes both routes
    legitimately disagree.  A scenario that routes to no predicate, or
    has no unknown summand, raises UnsupportedPatternError even with no
    points.

    The points enter as one (N, n) array.  Their verdicts come from one
    kernel run, the gradient sets of the projection routes are built as
    arrays and solved in one batch, and the bounded pair's QP is one run
    of its KKT kernel.  The counts are sums of the oracle's masks, and a
    record is written for the mismatched rows alone, in point order.
    """
    pts = _points(points, scenario.dim)
    kernel = membership._kernel(scenario)
    if not scenario.unknown_summands:
        raise UnsupportedPatternError("the oracles need at least one unknown summand")
    report = CrossCheckReport(total=len(pts))
    if not len(pts):
        return report
    tol = PROJECTION_TOL * _scale(scenario, pts)
    band = BOUNDARY_BAND_FACTOR * tol
    codes, margins, _ = membership._batch(kernel, pts)
    rows = np.flatnonzero(~(np.abs(margins) <= band * _margin_weight(scenario)))
    if scenario.pattern == membership.TWO_NONSMOOTH_BOUNDED:
        rows, member, decided, describe = _qp_outcomes(scenario, pts, rows, band)
    else:
        rows, member, decided, describe = _projection_outcomes(scenario, pts, rows, tol, band)
    report.boundary_skipped = report.total - len(rows)
    report.checked = int(decided.sum())
    report.indeterminate = len(rows) - report.checked
    admitted = codes[rows] != STATE_NAMES.index(OUTSIDE)
    for j in np.flatnonzero(decided & (admitted != member)).tolist():
        i = rows[j]
        state, margin = STATE_NAMES[codes[i]], float(margins[i])
        report.mismatches.append(
            {"point": pts[i].tolist(), "state": state, "margin": margin, **describe(j)}
        )
    return report


def necessity_sweep(scenario: Scenario, seeds) -> dict:
    """For each seed, draw a quadratic instance and require its exact sum
    minimizer to land inside the closed-form set.

    The instances of all seeds are drawn as stacked arrays and their
    minimizers judged by one kernel run.  A minimizer fails when it is
    outside by more than the boundary band, scaled as in cross_check
    with the minimizer as the only point; failures are listed in seed
    order.
    """
    seeds = list(seeds)
    if not seeds:
        return {"instances": 0, "worst_margin": math.inf, "failures": []}
    _, x = _instances(scenario, seeds)
    codes, margins, _ = membership._batch(membership._kernel(scenario), x)
    band = PROJECTION_TOL * BOUNDARY_BAND_FACTOR
    # _scale of each minimizer alone: the larger of max(1, |x_i*|) and |x|
    scale = np.maximum(_scale(scenario, x[:0]), np.linalg.norm(x, axis=1))
    outside = codes == STATE_NAMES.index(OUTSIDE)
    failed = outside & (margins < -band * (scale * _margin_weight(scenario)))
    failures = [
        {"seed": int(seeds[i]), "minimizer": x[i].tolist(), "margin": float(margins[i])}
        for i in np.flatnonzero(failed).tolist()
    ]
    # min over the margins from inf, as a running min(worst, margin) would
    worst = min([math.inf, *margins.tolist()])
    return {"instances": len(seeds), "worst_margin": worst, "failures": failures}


# ---------------------------------------------------------------------------
# deterministic random scenarios (verification plumbing)


def random_smooth_scenario(seed: int, m: int | None = None, n: int = 2) -> Scenario:
    rng = np.random.default_rng(seed)
    if m is None:
        m = int(rng.integers(2, 6))
    while True:
        centers = rng.uniform(-2.0, 2.0, (m, n))
        gaps = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(m)
            for j in range(i + 1, m)
        ]
        if min(gaps) > 1e-2:
            break
    mus = rng.uniform(0.2, 2.0, m)
    ls = mus * rng.uniform(1.5, 10.0, m)
    return Scenario(
        tuple(
            Summand(centers[i], ClassParams(float(mus[i]), float(ls[i])))
            for i in range(m)
        )
    )


def random_two_nonsmooth_scenario(seed: int, n: int = 2) -> Scenario:
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.uniform(-2.0, 2.0, (2, n))
        if np.linalg.norm(centers[0] - centers[1]) > 0.5:
            break
    mus = rng.uniform(0.3, 3.0, 2)
    s1 = Summand(centers[0], ClassParams(float(mus[0]), math.inf))
    s2 = Summand(centers[1], ClassParams(float(mus[1]), math.inf))
    bmin = min_bound_B(float(mus[0]), float(mus[1]), centers[0], centers[1])
    b = float(bmin * rng.uniform(1.05, 3.0))
    return Scenario((s1, s2), bound_B=b)
