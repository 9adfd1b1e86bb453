"""Independent numerical oracles for the closed-form predicates.

Three routes that do not share algebra with the predicates:

* random quadratic instances whose exact sum minimizer is computable,
  probing the necessity direction of every membership test;
* cyclic-projection feasibility of the per-summand gradient sets,
  probing sufficiency for the smooth and mixed patterns (the only use of
  iterative projection: membership writes its witnesses in closed form);
* a tiny QP (minimum gradient norm under two strong-convexity
  constraints) solved by KKT case enumeration, probing the bounded
  two-nonsmooth pattern: x* is a member iff the optimum is at most B^2.
  The solver sits in membership, whose bounded-pair witness is its
  argmin; it shares no algebra with the three-clause test it checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _projection, membership
from .geometry import (
    Ball,
    HalfSpace,
    OUTSIDE,
    as_vec,
    check_same_dim,
)
from .interpolation import ClassParams, geometric_ball
from .membership import (
    KnownFunction,
    Scenario,
    Summand,
    UnsupportedPatternError,
    _nonsmooth_last,
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
    max_iter: int = 100_000
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
    if isinstance(s1, Ball) and isinstance(s2, Ball):
        return max(
            0.0,
            float(np.linalg.norm(s1.center - s2.center)) - s1.radius - s2.radius,
        )
    if isinstance(s1, Ball) and isinstance(s2, HalfSpace):
        n = float(np.linalg.norm(s2.normal))
        if n == 0.0:
            return 0.0 if s2.offset >= 0.0 else math.inf
        lo = float(s2.normal @ s1.center) - s1.radius * n
        return max(0.0, (lo - s2.offset) / n)
    # two half-spaces: disjoint only when anti-parallel with a gap
    n1 = float(np.linalg.norm(s1.normal))
    n2 = float(np.linalg.norm(s2.normal))
    if n1 == 0.0 or n2 == 0.0:
        empty1 = n1 == 0.0 and s1.offset < 0.0
        empty2 = n2 == 0.0 and s2.offset < 0.0
        return math.inf if (empty1 or empty2) else 0.0
    cos = float(s1.normal @ s2.normal) / (n1 * n2)
    if cos > -1.0 + 1e-12:
        return 0.0
    # s2.normal = -t s1.normal with t = n2/n1
    t = n2 / n1
    return max(0.0, (-s2.offset / t - s1.offset) / n1)


def _certified_infeasibility(sets, tol: float):
    """Residual of a closed-form infeasibility certificate (a pair of
    sets more than tol apart, or an empty half-space), or None."""
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            gap = _pairwise_gap(sets[i], sets[j])
            if gap > tol:
                return gap
    for s in sets:
        if isinstance(s, HalfSpace) and s._norm() == 0.0 and s.offset < 0.0:
            return math.inf
    return None


def _projection_result(status: str, point, residual: float, iterations: int):
    """ProjectionResult of a projection solver's status string."""
    if status == "feasible":
        return ProjectionResult("feasible", True, point, residual, iterations)
    if status == "stagnated":
        return ProjectionResult("infeasible", False, point, residual, iterations)
    return ProjectionResult("indeterminate", False, point, residual, iterations)


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
    return _projection_result(
        *_projection.cyclic_projection(
            list(problem.sets), problem.dim, problem.tol, problem.max_iter
        )
    )


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

    Every point is checked, boundary_skipped or indeterminate.
    uncertified counts the checked points whose projection oracle
    plateaued well above tolerance: taken as infeasible, with no
    closed-form certificate behind it.
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


def _scale(scenario: Scenario, points) -> float:
    s = 1.0
    for p in points:
        s = max(s, float(np.linalg.norm(p)))
    for sm in scenario.summands:
        s = max(s, float(np.linalg.norm(sm.x_star)))
    return s


def _margin_weight(scenario: Scenario) -> float:
    w = 0.0
    for s in scenario.summands:
        p = s.params
        w += (p.L + p.mu) if p.is_smooth else p.mu
    return 1.0 + w


def _gradient_set(x, s: Summand):
    """Constraint set for s's subgradient at x, in gradient space."""
    if s.params.is_smooth:
        return geometric_ball(x, s.x_star, s.params)
    d = x - s.x_star
    # <g, d> >= mu |d|^2  rewritten as <-d, g> <= -mu |d|^2
    return HalfSpace(-d, -s.params.mu * float(d @ d))


def _known_offset(scenario: Scenario, x) -> np.ndarray:
    offset = np.zeros(scenario.dim)
    for s in scenario.known_summands:
        offset = offset + s.known.gradient(x)
    return offset


def _projection_problem(scenario: Scenario, x):
    """(blocks, coupled) of the gradient-set feasibility problem at x, in
    the layout of _projection.batch_block_projection: blocks[j] holds
    the j-th set of every block.

    Two unknowns make a flat problem, g1 in its set and in the negated,
    known-gradient shifted set of the other (and in the B-ball when the
    scenario has one), written as one block whose last set is the
    coupled one.  Three or more make one block per unknown but the last,
    whose sum must land in the last set, negated and shifted.
    """
    unknown = _nonsmooth_last(list(scenario.unknown_summands))
    sets = [_gradient_set(x, s) for s in unknown]
    sets[-1] = sets[-1].negated().translated(-_known_offset(scenario, x))
    if len(unknown) > 2:
        return [sets[:-1]], sets[-1]
    if scenario.bound_B is not None:
        sets.append(Ball(np.zeros(scenario.dim), scenario.bound_B))
    return [[s] for s in sets[:-1]], sets[-1]


def _solve_batch(problems, tol: float, max_iter: int = 100_000):
    """ProjectionResults of same-shape (blocks, coupled) problems, from
    one batch_block_projection over their stacked sets."""
    blocks = [
        _projection.stack([p[0][j] for p in problems]) for j in range(len(problems[0][0]))
    ]
    coupled = _projection.stack([p[1] for p in problems])
    status, res, iters = _projection.batch_block_projection(blocks, coupled, tol, max_iter)
    return [
        _projection_result(str(st), None, float(r), int(it))
        for st, r, it in zip(status, res, iters)
    ]


def cross_check(scenario: Scenario, points, predicate=None) -> CrossCheckReport:
    """Compare the closed-form verdict against the matching oracle at
    each point.

    Points whose closed-form margin or oracle quantity falls inside the
    boundary band (1e3 times the projection tolerance, scale-adjusted)
    are skipped: first-order sensitivity there makes both routes
    legitimately disagree.  predicate may be a routing name or a
    callable (scenario, x) -> Verdict, the latter mainly to let tests
    inject a corrupted predicate.

    Three passes.  The first takes each point's verdict, applies the
    boundary skips and settles the QP and containment routes and the
    flat problems with a closed-form infeasibility certificate; the
    other projection problems it only sets up.  The second solves all
    of those in one batched projection.  The third counts and collects
    mismatches in point order.
    """
    pts = [as_vec(p) for p in points]
    report = CrossCheckReport(total=len(pts))
    if not pts:
        return report
    scale = _scale(scenario, pts)
    tol = PROJECTION_TOL * scale
    band = BOUNDARY_BAND_FACTOR * tol
    margin_band = band * _margin_weight(scenario)
    pattern = membership.route(scenario)
    bounded = pattern == membership.TWO_NONSMOOTH_BOUNDED
    n_unknown = len(scenario.unknown_summands)
    oracle_name = "projection" if n_unknown == 2 else "block_projection"

    # per point: None for a boundary skip, else (verdict, result) with a
    # ProjectionResult, an (oracle_inside, descriptor) pair, or None for
    # a problem left to the batch
    outcomes = []
    pending = []
    for x in pts:
        if callable(predicate):
            verdict = predicate(scenario, x)
        else:
            verdict = membership.evaluate(scenario, x, predicate=predicate)
        if abs(verdict.margin) <= margin_band:
            outcomes.append(None)
            continue

        if bounded:
            s1, s2 = scenario.unknown_summands
            b = scenario.bound_B
            if (
                float(np.linalg.norm(x - s1.x_star)) <= band
                or float(np.linalg.norm(x - s2.x_star)) <= band
            ):
                outcomes.append(None)
                continue
            opt = qp_min_norm_gradient(x, s1.x_star, s2.x_star, s1.params.mu, s2.params.mu)
            if math.isfinite(opt) and abs(math.sqrt(opt) - b) <= band:
                outcomes.append(None)
                continue
            result = (opt <= b * b, {"oracle": "qp", "optimum": opt, "threshold": b * b})
        elif n_unknown == 1:
            offset = _known_offset(scenario, x)
            dist = _gradient_set(x, scenario.unknown_summands[0]).distance(-offset)
            if dist <= band:
                # a forced gradient sitting essentially on the set border
                outcomes.append(None)
                continue
            result = (False, {"oracle": "containment", "distance": dist})
        else:
            blocks, coupled = _projection_problem(scenario, x)
            gap = None
            if n_unknown == 2:
                sets = [s for column in blocks for s in column] + [coupled]
                gap = _certified_infeasibility(sets, tol)
            if gap is None:
                pending.append((blocks, coupled))
                result = None
            else:
                result = ProjectionResult("infeasible", True, None, gap, 0)
        outcomes.append((verdict, result))

    solved = iter(_solve_batch(pending, tol) if pending else ())

    for x, outcome in zip(pts, outcomes):
        if outcome is None:
            report.boundary_skipped += 1
            continue
        verdict, result = outcome
        if result is None:
            result = next(solved)
        if isinstance(result, ProjectionResult):
            if result.status == "indeterminate":
                report.indeterminate += 1
                continue
            report.uncertified += not result.certified
            result = (
                result.feasible,
                {
                    "oracle": oracle_name,
                    "status": result.status,
                    "certified": result.certified,
                    "residual": result.residual,
                },
            )
        oracle_inside, oracle_desc = result
        report.checked += 1
        claim_inside = verdict.state != OUTSIDE
        if claim_inside != oracle_inside:
            report.mismatches.append(
                {
                    "point": [float(v) for v in x],
                    "state": verdict.state,
                    "margin": verdict.margin,
                    **oracle_desc,
                }
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
