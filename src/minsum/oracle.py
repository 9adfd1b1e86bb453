"""Independent numerical oracles for the closed-form predicates.

Three routes that do not share algebra with the predicates:

* random quadratic instances whose exact sum minimizer is computable,
  probing the necessity direction of every membership test;
* cyclic-projection feasibility of the per-summand gradient sets, built
  as arrays over all points and solved in one batch, probing sufficiency
  for the smooth and mixed patterns; the balls of all but the last
  unknown sum to one ball, whose closed-form gap to the last one's set
  certifies each infeasible row (membership writes its witnesses in
  closed form);
* a tiny QP (minimum gradient norm under two strong-convexity
  constraints) solved by KKT case enumeration, probing the bounded
  two-nonsmooth pattern: x* is a member iff the optimum is at most B^2.
  The solver sits in membership, whose bounded-pair witness is its
  argmin; it shares no algebra with the three-clause test it checks.

cross_check reads every verdict from one run of the routed kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import _projection, membership
from .geometry import (
    Ball,
    DimensionMismatchError,
    HalfSpace,
    OUTSIDE,
    check_same_dim,
    tol_coefficient,
)
from .interpolation import ClassParams
from .membership import (
    STATE_NAMES,
    KnownFunction,
    Scenario,
    Summand,
    UnsupportedPatternError,
    _nonsmooth_last,
    min_bound_B,
    qp_min_norm_gradient_solution,
)

PROJECTION_TOL = 1e-8
PROJECTION_MAX_ITER = 100_000
BOUNDARY_BAND_FACTOR = 1e3


@dataclass(frozen=True, eq=False)
class QuadraticInstance:
    """A fully specified instance consistent with a scenario: one convex
    quadratic per summand, with its exact sum minimizer."""

    functions: tuple
    exact_minimizer: np.ndarray


def random_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-ish orthogonal matrix from a QR factorization with the sign
    of R's diagonal fixed, so equal seeds give equal matrices."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def sample_quadratic_instance(scenario: Scenario, seed: int) -> QuadraticInstance:
    """Draw one quadratic per unknown summand with Hessian spectrum inside
    [mu_i, L_i] and center x_i*; known summands keep their own matrix.

    The exact minimizer solves (sum A_i) x = sum A_i c_i.  When every
    modulus is zero the sum can be singular; such draws are rejected and
    redrawn from the same stream, keeping the result a deterministic
    function of the seed.
    """
    for s in scenario.unknown_summands:
        if not s.params.is_smooth:
            raise UnsupportedPatternError(
                "quadratic instances need finite L on every unknown summand"
            )
    rng = np.random.default_rng(seed)
    n = scenario.dim
    for _ in range(64):
        funcs = []
        for s in scenario.summands:
            if s.known is not None:
                funcs.append(s.known)
                continue
            q = random_orthogonal(n, rng)
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
        return QuadraticInstance(tuple(funcs), x)
    raise ValueError("could not draw a nonsingular instance; are all moduli zero?")


# ---------------------------------------------------------------------------
# projection feasibility


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Intersection test for a list of balls/half-spaces in gradient
    space (the two-summand systems after the sum-zero elimination)."""

    sets: tuple
    max_iter: int = PROJECTION_MAX_ITER
    tol: float = PROJECTION_TOL

    def __post_init__(self):
        ss = tuple(self.sets)
        if not ss:
            raise ValueError("need at least one constraint set")
        check_same_dim(*(s.center if isinstance(s, Ball) else s.normal for s in ss))
        object.__setattr__(self, "sets", ss)

    @property
    def dim(self) -> int:
        s = self.sets[0]
        return s.center.shape[0] if isinstance(s, Ball) else s.normal.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    status: str  # "feasible" | "infeasible" | "indeterminate"
    certified: bool
    point: np.ndarray | None
    residual: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _pairwise_gap(s1, s2) -> float:
    """Closed-form distance between two constraint sets (0 when they
    intersect); used only for certified infeasibility."""
    if isinstance(s1, HalfSpace) and isinstance(s2, Ball):
        s1, s2 = s2, s1
    if isinstance(s1, Ball):
        # the distance from the ball's centre to the other set, less the radius
        return max(0.0, s2.distance(s1.center) - s1.radius)
    # two half-spaces: disjoint only when anti-parallel with a gap
    n1, n2 = s1._norm(), s2._norm()
    if n1 == 0.0 or n2 == 0.0:
        empty = (n1 == 0.0 and s1.offset < 0.0) or (n2 == 0.0 and s2.offset < 0.0)
        return math.inf if empty else 0.0
    if float(s1.normal @ s2.normal) / (n1 * n2) > -1.0 + 1e-12:
        return 0.0
    # along u = n1/|n1| = -n2/|n2|, H1 ends at offset1/|n1|, H2 starts at -offset2/|n2|
    return max(0.0, -s1.offset / n1 - s2.offset / n2)


def _certified_infeasibility(sets, tol: float):
    """Residual of a closed-form infeasibility certificate (a pair of
    sets more than tol apart, or an empty half-space), or None."""
    # a set paired with itself has gap 0, or inf when it is empty
    gaps = (_pairwise_gap(a, b) for a, b in combinations_with_replacement(sets, 2))
    return next((gap for gap in gaps if gap > tol), None)


# status of the projection solvers -> (member, reported status, certified)
_SOLVER_STATUS = {
    "feasible": (True, "feasible", True),
    "separated": (False, "infeasible", True),
    "stagnated": (False, "infeasible", False),
    "cap": (None, "indeterminate", False),
}


def feasibility_by_projection(problem: FeasibilityProblem) -> ProjectionResult:
    """Numerical stand-in for the geometric intersection arguments.

    Feasibility is certified by an explicit point within tol of every
    set.  Infeasibility is certified when some pair of sets has positive
    closed-form distance; a residual plateau well above tol is reported
    as infeasible too, but flagged uncertified.  Hitting the iteration
    cap without a decision yields "indeterminate".
    """
    gap = _certified_infeasibility(problem.sets, problem.tol)
    if gap is not None:
        return ProjectionResult("infeasible", True, None, gap, 0)
    status, point, residual, iterations = _projection.cyclic_projection(
        list(problem.sets), problem.dim, problem.tol, problem.max_iter
    )
    _, reported, certified = _SOLVER_STATUS[status]
    return ProjectionResult(reported, certified, point, residual, iterations)


# ---------------------------------------------------------------------------
# minimum-gradient-norm QP


def qp_min_norm_gradient(x_star, x1, x2, mu1: float, mu2: float) -> float:
    value, _ = qp_min_norm_gradient_solution(x_star, x1, x2, mu1, mu2)
    return value


# ---------------------------------------------------------------------------
# cross checks


@dataclass
class CrossCheckReport:
    """Counts over the points of one cross_check.

    Every point is checked, boundary_skipped or indeterminate.  The
    closed-form gap between the sum of the gradient balls and the coupled
    set certifies each infeasible projection verdict; uncertified counts
    the checked points whose gap was within the solver's margin and whose
    projection only plateaued well above tolerance (the stagnation
    fallback).
    """

    total: int = 0
    checked: int = 0
    boundary_skipped: int = 0
    indeterminate: int = 0
    uncertified: int = 0
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
    if len(pts) and (pts.ndim != 2 or pts.shape[1] != dim):
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
    *_, last = unknown = _nonsmooth_last(scenario.unknown_summands)
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


def _projection_outcomes(scenario: Scenario, pts, rows, tol: float, band: float) -> dict:
    """{row: (member or None when undecided, descriptor)} of the
    projection routes, all solved in one batch.  The containment route
    (no block) reads the signed distance from 0 to the coupled set
    instead: positive outside, negative inside."""
    balls, coupled = _gradient_sets(scenario, pts[rows])
    k = len(scenario.unknown_summands) - 1
    if k == 0:
        depth = coupled.signed_distance(np.zeros((scenario.dim, 1)))
        # a forced gradient essentially on the set border is skipped
        return {
            i: (t < 0.0, {"oracle": "containment", "signed_distance": t})
            for i, t in zip(rows.tolist(), depth.tolist())
            if abs(t) > band
        }
    name = "projection" if k == 1 else "block_projection"
    status, residual, _ = _projection.batch_block_projection(
        balls, coupled, tol, PROJECTION_MAX_ITER
    )
    out = {}
    for i, st, r in zip(rows.tolist(), status.tolist(), residual.tolist()):
        member, reported, cert = _SOLVER_STATUS[st]
        out[i] = (member, {"oracle": name, "status": reported, "certified": cert, "residual": r})
    return out


def _qp_outcomes(scenario: Scenario, pts, rows, band: float) -> dict:
    """{row: (member, descriptor)} of the min-norm QP: the point is a
    member iff the optimum is at most B^2.  Points near an anchor or with
    the optimum's root within band of B are skipped."""
    s1, s2 = scenario.unknown_summands
    b = scenario.bound_B
    out = {}
    for i in rows.tolist():
        x = pts[i]
        if (
            float(np.linalg.norm(x - s1.x_star)) <= band
            or float(np.linalg.norm(x - s2.x_star)) <= band
        ):
            continue
        opt = qp_min_norm_gradient(x, s1.x_star, s2.x_star, s1.params.mu, s2.params.mu)
        if math.isfinite(opt) and abs(math.sqrt(opt) - b) <= band:
            continue
        out[i] = (opt <= b * b, {"oracle": "qp", "optimum": opt, "threshold": b * b})
    return out


def cross_check(scenario: Scenario, points, predicate=None) -> CrossCheckReport:
    """Compare the closed-form verdict against the matching oracle at
    each point.

    Points whose closed-form margin or oracle quantity falls inside the
    boundary band (1e3 times the projection tolerance, scale-adjusted)
    are skipped: first-order sensitivity there makes both routes
    legitimately disagree.  predicate may be a routing name or a
    callable (scenario, x) -> Verdict, the latter mainly to let tests
    inject a corrupted predicate.

    The points enter as one (N, n) array.  Their verdicts come from one
    kernel run, and the gradient sets of the projection routes are built
    as arrays and solved in one batch; the bounded pair's QP runs point
    by point.  Mismatches are collected in point order.
    """
    pts = _points(points, scenario.dim)
    report = CrossCheckReport(total=len(pts))
    if not len(pts):
        return report
    if not scenario.unknown_summands:
        raise UnsupportedPatternError("the oracles need at least one unknown summand")
    tol = PROJECTION_TOL * _scale(scenario, pts)
    band = BOUNDARY_BAND_FACTOR * tol
    if callable(predicate):
        verdicts = [predicate(scenario, x) for x in pts]
        states, margins = [v.state for v in verdicts], [v.margin for v in verdicts]
    else:
        codes, margins, _ = membership._kernel(scenario, predicate)[1](pts, tol_coefficient())
        states, margins = [STATE_NAMES[c] for c in codes.tolist()], margins.tolist()
    rows = np.flatnonzero(~(np.abs(margins) <= band * _margin_weight(scenario)))
    if membership.route(scenario) == membership.TWO_NONSMOOTH_BOUNDED:
        outcomes = _qp_outcomes(scenario, pts, rows, band)
    else:
        outcomes = _projection_outcomes(scenario, pts, rows, tol, band)

    for i, x in enumerate(pts):
        if i not in outcomes:
            report.boundary_skipped += 1
            continue
        member, desc = outcomes[i]
        if member is None:
            report.indeterminate += 1
            continue
        report.checked += 1
        report.uncertified += desc.get("certified") is False
        if (states[i] != OUTSIDE) != member:
            report.mismatches.append(
                {"point": x.tolist(), "state": states[i], "margin": margins[i], **desc}
            )
    return report


def necessity_sweep(scenario: Scenario, seeds) -> dict:
    """For each seed, draw a quadratic instance and require its exact sum
    minimizer to land inside the closed-form set."""
    worst = math.inf
    failures = []
    count = 0
    band = PROJECTION_TOL * BOUNDARY_BAND_FACTOR
    for seed in seeds:
        inst = sample_quadratic_instance(scenario, seed)
        v = membership.evaluate(scenario, inst.exact_minimizer)
        count += 1
        worst = min(worst, v.margin)
        scale = _scale(scenario, [inst.exact_minimizer]) * _margin_weight(scenario)
        if v.state == OUTSIDE and v.margin < -band * scale:
            failures.append(
                {
                    "seed": int(seed),
                    "minimizer": [float(t) for t in inst.exact_minimizer],
                    "margin": v.margin,
                }
            )
    return {"instances": count, "worst_margin": worst, "failures": failures}


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
