"""Membership tests for potential minimizers of a sum of convex functions.

Each summand f_i is known only through a minimizer location x_i* and
class parameters (mu_i, L_i); optionally some summands are fully known
(quadratics with an exact gradient oracle).  A point x* is a *potential
minimizer* when functions f_i consistent with the data exist whose sum
is minimized at x*.  Equivalently: each f_i must admit a subgradient
g_i at x* with sum zero, so membership reduces to intersecting the
per-summand gradient sets (balls for smooth classes, half-spaces for
merely strongly convex ones) after eliminating one gradient.

The closed forms of those intersection tests are three kernels, each
run on an (N, n) array of points at once:

- the chain of smooth gradient balls, shifted by the known summands'
  gradients (two_smooth, m_smooth, known_smooth);
- the same chain against the half-space of the one summand with L = inf
  (one_nonsmooth, known_one_nonsmooth);
- the bounded nonsmooth pair: with two summands of L = inf the set is
  unbounded unless a gradient-norm cap bound_B is supplied, and a
  three-clause test decides it (two_nonsmooth_bounded).

witness_gradients writes an admitted point's gradients from the same
closed forms, with no iterative solver.

The kernels sum over summands and coordinates left to right in
elementwise array operations, never np.sum or a BLAS product, so a
row's result does not depend on how many rows share the call: a single
point (`evaluate`, the `member_*` functions) is a batch of one row and
equals its raster cell bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .geometry import (
    BOUNDARY,
    CoincidentPointsError,
    DimensionMismatchError,
    INSIDE,
    OUTSIDE,
    Verdict,
    as_vec,
    check_same_dim,
    cofactor_det,
    eps_for,
    tol_coefficient,
)
from .interpolation import ClassParams

COND_BASE = 1
COND_FIRST = 2
COND_SECOND = 4
COND_DET = 8

# the kernels' state codes index this tuple: 0 outside, 1 boundary,
# 2 inside, so a cell is admitted iff its code is nonzero
STATE_NAMES = (OUTSIDE, BOUNDARY, INSIDE)

TWO_SMOOTH = "two_smooth"
M_SMOOTH = "m_smooth"
ONE_NONSMOOTH = "one_nonsmooth"
TWO_NONSMOOTH_BOUNDED = "two_nonsmooth_bounded"
KNOWN_SMOOTH = "known_smooth"
KNOWN_ONE_NONSMOOTH = "known_one_nonsmooth"

PREDICATE_NAMES = (
    TWO_SMOOTH,
    M_SMOOTH,
    ONE_NONSMOOTH,
    TWO_NONSMOOTH_BOUNDED,
    KNOWN_SMOOTH,
    KNOWN_ONE_NONSMOOTH,
)


class UnsupportedPatternError(ValueError):
    """The scenario's smoothness pattern has no implemented predicate."""


@dataclass(frozen=True, eq=False)
class KnownFunction:
    """A fully known summand: a convex quadratic 1/2 (x-c)^T A (x-c).

    Only the gradient is ever consulted, so other differentiable convex
    models can slot in later by matching the gradient() contract.
    """

    matrix: np.ndarray
    center: np.ndarray
    kind: str = "quadratic"

    def __post_init__(self):
        if self.kind != "quadratic":
            raise ValueError(f"unsupported known-function kind {self.kind!r}")
        a = np.asarray(self.matrix, dtype=float)
        c = as_vec(self.center)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if a.shape[0] != c.shape[0]:
            raise DimensionMismatchError("matrix and center dimensions differ")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        eps = eps_for(a)
        if float(np.abs(a - a.T).max()) > eps:
            raise ValueError("matrix must be symmetric")
        a = 0.5 * (a + a.T)
        if float(np.linalg.eigvalsh(a).min()) < -eps:
            raise ValueError("matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "center", c)

    def gradient(self, x) -> np.ndarray:
        xv = as_vec(x)
        check_same_dim(xv, self.center)
        return self.matrix @ (xv - self.center)


@dataclass(frozen=True, eq=False)
class Summand:
    """One term of the sum: minimizer location, class parameters, and an
    optional exact model.  When known is present the params are
    informational; the gradient oracle is authoritative."""

    x_star: np.ndarray
    params: ClassParams
    known: KnownFunction | None = None

    def __post_init__(self):
        x = as_vec(self.x_star)
        if self.known is not None:
            check_same_dim(x, self.known.center)
        object.__setattr__(self, "x_star", x)

    @property
    def dim(self) -> int:
        return self.x_star.shape[0]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full problem instance: the summands plus, when two or more of
    them are nonsmooth, the gradient-norm cap bound_B that keeps the
    potential set bounded."""

    summands: tuple
    bound_B: float | None = None

    def __post_init__(self):
        ss = tuple(self.summands)
        if not ss:
            raise ValueError("scenario needs at least one summand")
        check_same_dim(*(s.x_star for s in ss))
        object.__setattr__(self, "summands", ss)
        n_nonsmooth = sum(
            1 for s in ss if s.known is None and not s.params.is_smooth
        )
        if self.bound_B is not None:
            b = float(self.bound_B)
            if not math.isfinite(b) or b < 0.0:
                raise ValueError(f"bound_B must be finite and nonnegative, got {b}")
            object.__setattr__(self, "bound_B", b)
            if n_nonsmooth < 2:
                raise UnsupportedPatternError(
                    "bound_B only applies when at least two summands are nonsmooth"
                )
        elif n_nonsmooth >= 2:
            raise UnsupportedPatternError(
                "with two nonsmooth summands every point far from the minimizers "
                "stays attainable unless gradients are capped; supply bound_B"
            )

    @property
    def dim(self) -> int:
        return self.summands[0].dim

    @property
    def known_summands(self) -> tuple:
        return tuple(s for s in self.summands if s.known is not None)

    @property
    def unknown_summands(self) -> tuple:
        return tuple(s for s in self.summands if s.known is None)


@dataclass(frozen=True, eq=False)
class RegionRaster:
    """Grid of verdicts over a 2-d bounding box, evaluated at cell
    centers, row-major from the (xmin, ymin) corner with x fastest.

    Columnar: states (codes into STATE_NAMES), margins and fired
    (condition bits) hold one entry per cell."""

    bbox: tuple
    resolution: tuple
    predicate: str
    states: np.ndarray
    margins: np.ndarray
    fired: np.ndarray

    @property
    def cells(self) -> tuple:
        """The cells as Verdicts, built on demand from the arrays."""
        return tuple(
            map(Verdict, self.state_names(), self.margins.tolist(), self.fired.tolist())
        )

    def state_names(self) -> list:
        return [STATE_NAMES[code] for code in self.states.tolist()]

    def centers(self):
        """Cell-center coordinates in storage order, shape (nx*ny, 2)."""
        return _cell_centers(self.bbox, self.resolution)


def _cell_centers(bbox, resolution) -> np.ndarray:
    xmin, xmax, ymin, ymax = bbox
    nx, ny = resolution
    xs = xmin + (xmax - xmin) / nx * (np.arange(nx) + 0.5)
    ys = ymin + (ymax - ymin) / ny * (np.arange(ny) + 0.5)
    return np.column_stack((np.tile(xs, ny), np.repeat(ys, nx)))


# ---------------------------------------------------------------------------
# array kernels: an (N, n) array of points and the tolerance coefficient
# in; state codes, margins and fired bits out, one entry per point.
# Inside, arrays hold coordinates on their first axis and points on
# their last, so _fold and the summand loops index the first axis.


def _fold(a):
    """a[0] + a[1] + ..., left to right along the first axis."""
    out = a[0]
    for part in a[1:]:
        out = out + part
    return out


def _norm(d):
    return np.sqrt(_fold(d * d))


def _eps(coef, scale, *columns):
    """eps_for per point: coef * (1 + the largest magnitude among the
    static scale and the point's finite entries of each (n, N) array)."""
    for c in columns:
        finite = np.isfinite(c)
        scale = np.maximum(scale, np.abs(c).max(axis=0, initial=0.0, where=finite))
    return coef * (1.0 + scale)


def _classify(margins, eps):
    """geometry.classify on arrays, as codes into STATE_NAMES."""
    return 1 + (margins > eps).view(np.int8) - (margins < -eps).view(np.int8)


def _known_gradient(x, known):
    """sum_k A_k (x - c_k) over the known quadratics, or None."""
    grad = None
    for a_t, c in known:
        g = _fold(a_t * (x - c)[:, None, :])
        grad = g if grad is None else grad + g
    return grad


def _ball_chain(points, coef, *, anchors, plus, minus, known, scale, total_in_eps):
    """margin = sum_i (L_i-mu_i)|d_i| - |2 sum_k grad_k(x) + sum_i (L_i+mu_i) d_i|
    over the smooth unknowns i (d_i = x - x_i*) and known summands k."""
    x = points.T
    grad = _known_gradient(x, known)
    total = np.zeros_like(x) if grad is None else 2.0 * grad
    slack = 0.0
    d = x[:, None, :] - anchors
    for weighted, s in zip((plus * d).swapaxes(0, 1), minus * _norm(d)):
        total = total + weighted
        slack = slack + s
    margins = slack - _norm(total)
    eps = _eps(coef, scale, x, total) if total_in_eps else _eps(coef, scale, x)
    return _classify(margins, eps), margins, np.zeros(len(points), np.int8)


def _ball_halfspace(points, coef, *, anchors, plus, minus, known, scale,
                    anchor_m, mu_m):
    """margin = sum_i (L_i-mu_i)/2 |d_i||d_m| - mu_m |d_m|^2
                - <sum_k grad_k(x), d_m> - sum_i (L_i+mu_i)/2 <d_i, d_m>
    for the smooth unknowns i against the nonsmooth unknown m."""
    x = points.T
    dm = x - anchor_m
    rm = _norm(dm)
    margins = -mu_m * rm * rm
    grad = _known_gradient(x, known)
    if grad is not None:
        margins = margins - _fold(grad * dm)
    d = x[:, None, :] - anchors
    for gain, loss in zip(minus * _norm(d) * rm, plus * _fold(d * dm[:, None, :])):
        margins = margins + gain
        margins = margins - loss
    eps = _eps(coef, scale, x) if grad is None else _eps(coef, scale, x, grad)
    return _classify(margins, eps), margins, np.zeros(len(points), np.int8)


def _bounded_pair(points, coef, *, a1, a2, mu1, mu2, b, bmin, sep, scale):
    """Two nonsmooth summands under a gradient cap |g_i| <= b.

    x belongs to the set iff both base norm caps mu_i |d_i| <= b hold
    and at least one of three clauses does: an alignment inequality in
    either direction, or nonnegativity of the 3x3 determinant that
    certifies a unit-vector completion of the constraint system (see
    geometry.gram_matrix).  fired records every satisfied clause.
    """
    # the anchors' own tolerance, so the answer does not depend on the points
    if sep <= coef * (1.0 + scale):
        raise CoincidentPointsError("summand minimizers coincide")
    x = points.T
    eps = _eps(coef, scale, x)
    d1 = x - a1
    d2 = x - a2
    r1 = _norm(d1)
    r2 = _norm(d2)
    dot = _fold(d1 * d2)
    cap1 = mu1 * r1
    cap2 = mu2 * r2
    base = np.minimum(b - cap1, b - cap2)
    c1 = -mu1 * dot - cap2 * r2
    c2 = -mu2 * dot - cap1 * r1
    # coincidence with an anchor collapses the test to the other norm cap
    at_anchor = (r1 <= eps) | (r2 <= eps)
    cos = dot / np.where(at_anchor, 1.0, r1 * r2)
    c3 = cofactor_det(cos, cap1, -cap2, b * b)
    best = np.maximum(np.maximum(c1, c2), c3)
    margins = np.where(at_anchor, base, np.minimum(base, best))
    low = -eps
    clauses = (c1 >= low) * COND_FIRST | (c2 >= low) * COND_SECOND
    clauses |= (c3 >= low) * COND_DET
    fired = (base >= low) * COND_BASE | np.where(at_anchor, 0, clauses)
    states = _classify(margins, eps)
    # below the smallest viable cap the whole set is empty
    empty = b < bmin - eps
    if empty.any():
        margins = np.where(empty, b - bmin, margins)
        states[empty] = 0
        fired[empty] = 0
    return states, margins, fired


def qp_min_norm_gradient_solution(x_star, x1, x2, mu1: float, mu2: float):
    """Minimize |g|^2 subject to
        <g, x1 - x*> <= -mu1 |x* - x1|^2
        <g, x* - x2> <= -mu2 |x* - x2|^2
    by enumerating KKT active sets.  Returns (optimal value, argmin); the
    value is inf when the two half-spaces are disjoint, which happens
    only for x* on the colinear ray outside the segment [x1, x2].
    The argmin is the bounded pair's witness; the oracle compares the
    optimum with B^2, with no algebra shared with _bounded_pair.
    """
    xs, a1, a2 = as_vec(x_star), as_vec(x1), as_vec(x2)
    check_same_dim(xs, a1, a2)
    if mu1 < 0.0 or mu2 < 0.0:
        raise ValueError("moduli must be nonnegative")
    eps = eps_for(xs, a1, a2, mu1, mu2)
    u = a1 - xs
    v = xs - a2
    nu = float(u @ u)
    nv = float(v @ v)
    if nu <= eps * eps or nv <= eps * eps:
        raise CoincidentPointsError("x_star coincides with an anchor point")
    bu = -mu1 * nu
    bv = -mu2 * nv
    ftol = eps * (1.0 + math.sqrt(max(nu, nv)))
    # the minimizer of each KKT active set that is feasible: none, u, v, both
    candidates = []
    if bu >= -ftol and bv >= -ftol:
        candidates.append(np.zeros_like(xs))
    g1 = (bu / nu) * u
    if float(g1 @ v) <= bv + ftol:
        candidates.append(g1)
    g2 = (bv / nv) * v
    if float(g2 @ u) <= bu + ftol:
        candidates.append(g2)
    dot = float(u @ v)
    det = nu * nv - dot * dot
    if det > 1e-14 * nu * nv:
        # both constraints active; the 2x2 Gram system has a unique
        # solution in span{u, v} and is feasible by construction
        al = (bu * nv - bv * dot) / det
        be = (bv * nu - bu * dot) / det
        candidates.append(al * u + be * v)
    if not candidates:
        return math.inf, None
    return min(((float(g @ g), g) for g in candidates), key=lambda pair: pair[0])


# ---------------------------------------------------------------------------
# kernel construction: checks a pattern's preconditions once and binds
# the summands' data as arrays.  Summands hash by identity, so a kernel
# is built once per set of summands, whichever caller asks for it.


def _require(cond: bool, msg: str):
    if not cond:
        raise UnsupportedPatternError(msg)


def _static_scale(unknown, bound_b=None) -> float:
    """Largest finite magnitude among the unknown summands' minimizers,
    moduli and smoothness constants and the cap: eps_for's scale for
    everything but the point and the gradients taken there."""
    values = [0.0 if bound_b is None else float(bound_b)]
    for s in unknown:
        values += map(abs, s.x_star.tolist())
        values += [s.params.mu, s.params.L] if s.params.is_smooth else [s.params.mu]
    return max(values)


def _column(v):
    return np.array(v, dtype=float)[:, None]


def _balls(known, smooth, dim: int, factor: float) -> dict:
    """The known quadratics as (A^T, center) columns, and the smooth
    summands' anchors (n, k, 1) with their factor * (L +- mu)."""
    return {
        "known": tuple((kf.matrix.T[:, :, None], _column(kf.center)) for kf in known),
        "anchors": np.reshape([s.x_star for s in smooth], (-1, dim)).T[:, :, None],
        "plus": _column([factor * (s.params.L + s.params.mu) for s in smooth]),
        "minus": _column([factor * (s.params.L - s.params.mu) for s in smooth]),
    }


@lru_cache(maxsize=256)
def _chain_kernel(known, smooth, dim, total_in_eps=False):
    _require(all(s.params.is_smooth for s in smooth), "unknown summands need finite L")
    return partial(_ball_chain, scale=_static_scale(smooth), total_in_eps=total_in_eps,
                   **_balls(known, smooth, dim, 1.0))


@lru_cache(maxsize=256)
def _halfspace_kernel(known, unknown):
    if not unknown:
        raise ValueError("need at least one unknown summand")
    *smooth, m = unknown
    _require(not m.params.is_smooth, "last unknown summand must have L = inf")
    _require(all(s.params.is_smooth for s in smooth),
             "unknown summands before the last must have finite L")
    return partial(_ball_halfspace, anchor_m=_column(m.x_star), mu_m=m.params.mu,
                   scale=_static_scale(unknown), **_balls(known, smooth, m.dim, 0.5))


@lru_cache(maxsize=256)
def _bounded_kernel(s1: Summand, s2: Summand, bound_b: float):
    _require(not s1.params.is_smooth and not s2.params.is_smooth,
             "bounded test needs L = inf on both summands")
    mu1, mu2 = s1.params.mu, s2.params.mu
    b = float(bound_b)
    if not math.isfinite(b) or b < 0.0:
        raise ValueError(f"bound must be finite and nonnegative, got {b}")
    bmin = min_bound_B(mu1, mu2, s1.x_star, s2.x_star)
    sep = float(np.linalg.norm(s1.x_star - s2.x_star))
    return partial(_bounded_pair, a1=_column(s1.x_star), a2=_column(s2.x_star),
                   mu1=mu1, mu2=mu2, b=b, bmin=bmin, sep=sep,
                   scale=_static_scale((s1, s2), b))


def _point(x_star, summands, known=()) -> np.ndarray:
    x = as_vec(x_star)
    check_same_dim(x, *(s.x_star for s in summands), *(kf.center for kf in known))
    return x


def _one_point(kernel, x: np.ndarray) -> Verdict:
    states, margins, fired = kernel(x[None, :], tol_coefficient())
    return Verdict(STATE_NAMES[states[0]], float(margins[0]), int(fired[0]))


# ---------------------------------------------------------------------------
# the closed-form predicates on one point, as one-row kernel runs;
# d_i = x* - x_i*, and the nonsmooth summand comes last


def member_two_smooth(x_star, s1: Summand, s2: Summand) -> Verdict:
    """Two smooth summands: x* is a potential minimizer iff the two
    gradient balls, one negated, intersect.

    margin = (L1-mu1)|d1| + (L2-mu2)|d2| - |(L1+mu1) d1 + (L2+mu2) d2|.
    """
    return member_m_smooth(x_star, (s1, s2))


def member_smooth_nonsmooth(x_star, smooth: Summand, nonsmooth: Summand) -> Verdict:
    """One smooth and one merely strongly convex summand: the smooth
    gradient ball must meet the negated strong-convexity half-space.

    margin = (L1-mu1)/2 |d1||d2| - mu2 |d2|^2 - (L1+mu1)/2 <d1, d2>.
    """
    return member_m_one_nonsmooth(x_star, (smooth, nonsmooth))


def min_bound_B(mu1: float, mu2: float, x1, x2) -> float:
    """Smallest gradient cap keeping the bounded two-nonsmooth set
    nonempty: mu1 mu2 / (mu1 + mu2) * |x1 - x2|."""
    if mu1 < 0.0 or mu2 < 0.0:
        raise ValueError("moduli must be nonnegative")
    if mu1 + mu2 <= 0.0:
        raise ValueError("at least one modulus must be positive")
    a1, a2 = as_vec(x1), as_vec(x2)
    check_same_dim(a1, a2)
    return mu1 * mu2 / (mu1 + mu2) * float(np.linalg.norm(a1 - a2))


def member_two_nonsmooth_bounded(
    x_star, s1: Summand, s2: Summand, bound_b: float
) -> Verdict:
    """Two nonsmooth summands under a gradient cap |g_i| <= B (_bounded_pair)."""
    x = _point(x_star, (s1, s2))
    return _one_point(_bounded_kernel(s1, s2, float(bound_b)), x)


def member_m_smooth(x_star, summands) -> Verdict:
    """Any number of smooth summands (_ball_chain without known ones)."""
    ss = tuple(summands)
    if not ss:
        raise ValueError("need at least one summand")
    x = _point(x_star, ss)
    return _one_point(_chain_kernel((), ss, len(x)), x)


def member_m_one_nonsmooth(x_star, summands) -> Verdict:
    """Smooth summands and one nonsmooth one (_ball_halfspace without known ones)."""
    return member_with_known_one_nonsmooth(x_star, (), summands)


def member_with_known(x_star, known_functions, unknown_summands) -> Verdict:
    """Smooth unknown summands alongside exactly known ones (_ball_chain)."""
    kfs, ss = tuple(known_functions), tuple(unknown_summands)
    x = _point(x_star, ss, kfs)
    return _one_point(_chain_kernel(kfs, ss, len(x), True), x)


def member_with_known_one_nonsmooth(
    x_star, known_functions, unknown_summands
) -> Verdict:
    """Known summands, smooth unknowns and one nonsmooth unknown last
    (_ball_halfspace)."""
    kfs, ss = tuple(known_functions), tuple(unknown_summands)
    x = _point(x_star, ss, kfs)
    return _one_point(_halfspace_kernel(kfs, ss), x)


# ---------------------------------------------------------------------------
# routing


def route(scenario: Scenario) -> str:
    """Pick the predicate matching the scenario's smoothness pattern."""
    known = scenario.known_summands
    unknown = scenario.unknown_summands
    nonsmooth = [s for s in unknown if not s.params.is_smooth]
    if known:
        if not nonsmooth:
            return KNOWN_SMOOTH
        if len(nonsmooth) == 1:
            return KNOWN_ONE_NONSMOOTH
        raise UnsupportedPatternError(
            "known summands combine with at most one nonsmooth unknown"
        )
    if not nonsmooth:
        return TWO_SMOOTH if len(unknown) == 2 else M_SMOOTH
    if len(nonsmooth) == 1:
        return ONE_NONSMOOTH
    if len(nonsmooth) == 2 and len(unknown) == 2:
        # Scenario requires bound_B with two nonsmooth summands
        return TWO_NONSMOOTH_BOUNDED
    raise UnsupportedPatternError(
        "at most two nonsmooth summands are supported, and only on their own"
    )


def _nonsmooth_last(summands):
    smooth = [s for s in summands if s.params.is_smooth]
    rest = [s for s in summands if not s.params.is_smooth]
    return smooth + rest


@lru_cache(maxsize=256)
def _kernel(scenario: Scenario, predicate: str | None):
    """(name, kernel) of a forced predicate or, with None, the routed one;
    cached so repeated calls on a scenario skip the routing."""
    name = predicate if predicate is not None else route(scenario)
    known = tuple(s.known for s in scenario.known_summands)
    unknown = scenario.unknown_summands
    if name in (TWO_SMOOTH, M_SMOOTH, ONE_NONSMOOTH, TWO_NONSMOOTH_BOUNDED):
        _require(not known, f"{name} test takes no known summands")
    if name in (TWO_SMOOTH, TWO_NONSMOOTH_BOUNDED):
        _require(len(unknown) == 2, f"{name} test needs exactly two summands")
    if name in (TWO_SMOOTH, M_SMOOTH, KNOWN_SMOOTH):
        in_eps = name == KNOWN_SMOOTH
        kernel = _chain_kernel(known, unknown, scenario.dim, in_eps)
    elif name in (ONE_NONSMOOTH, KNOWN_ONE_NONSMOOTH):
        kernel = _halfspace_kernel(known, tuple(_nonsmooth_last(unknown)))
    elif name == TWO_NONSMOOTH_BOUNDED:
        kernel = _bounded_kernel(*unknown, scenario.bound_B)
    else:
        raise ValueError(f"unknown predicate {name!r}")
    return name, kernel


def evaluate(scenario: Scenario, x_star, predicate: str | None = None) -> Verdict:
    """Membership verdict for x_star, routed by smoothness pattern.

    predicate forces a specific test (used to exercise mis-routing); the
    forced test still validates its own preconditions.
    """
    kernel = _kernel(scenario, predicate)[1]
    return _one_point(kernel, _point(x_star, scenario.summands[:1]))


# ---------------------------------------------------------------------------
# focal point and witnesses


def focal_point(summands) -> np.ndarray:
    """The distinguished interior point of the potential set.

    All summands smooth: the (L_i + mu_i)-weighted average of the x_i*.
    Exactly two nonsmooth summands: the mu-weighted average (the unique
    member when bound_B equals its minimum).
    """
    ss = list(summands)
    if not ss:
        raise ValueError("need at least one summand")
    if any(s.known is not None for s in ss):
        raise UnsupportedPatternError("focal point is defined for unknown summands")
    check_same_dim(*(s.x_star for s in ss))
    if all(s.params.is_smooth for s in ss):
        weights = [s.params.L + s.params.mu for s in ss]
    elif len(ss) == 2 and all(not s.params.is_smooth for s in ss):
        weights = [s.params.mu for s in ss]
        if sum(weights) <= 0.0:
            raise ValueError("at least one modulus must be positive")
    else:
        raise UnsupportedPatternError(
            "focal point needs all-smooth summands or exactly two nonsmooth ones"
        )
    total = sum(weights)
    out = np.zeros_like(ss[0].x_star)
    for w, s in zip(weights, ss):
        out = out + (w / total) * s.x_star
    return out


def _gradient_ball(x, s: Summand):
    """(c, r) of the gradient ball B(c, r) of s at x; s has L < inf."""
    d = x - s.x_star
    p = s.params
    return 0.5 * (p.L + p.mu) * d, 0.5 * (p.L - p.mu) * float(np.linalg.norm(d))


def witness_gradients(scenario: Scenario, x_star):
    """Subgradients g_i certifying membership of x_star, or None when
    x_star is outside the set.

    One gradient per summand, summing to zero: known summands give their
    exact gradient, the last unknown summand the remainder, and the
    others a point of their gradient set picked by the closed form that
    admitted x_star (d = x_star - x*; smooth sets are balls B(c, r)):
    - chain: g_i = c_i - (r_i/R) C, C = sum c_i + offset, R = sum r_i,
      as the balls sum to B(sum c_i, R) and admission means |C| <= R;
    - half-space: g_i = c_i - r_i d_m/|d_m|, the ball's point of least
      <g, d_m>, leaves the nonsmooth summand m the kernel's margin;
    - bounded pair: g_1 = -g_2 is the min-norm QP's argmin or, at an
      anchor (no clause fired), the other summand's base-cap gradient.
    """
    x = _point(x_star, scenario.summands[:1])
    name, kernel = _kernel(scenario, None)
    verdict = _one_point(kernel, x)
    if verdict.state == OUTSIDE:
        return None
    known = {id(s): s.known.gradient(x) for s in scenario.known_summands}
    offset = sum(known.values(), np.zeros_like(x))
    unknown = _nonsmooth_last(scenario.unknown_summands)
    if name == TWO_NONSMOOTH_BOUNDED:
        s1, s2 = unknown
        if verdict.fired_conditions & (COND_FIRST | COND_SECOND | COND_DET):
            mu1, mu2 = s1.params.mu, s2.params.mu
            grads = [qp_min_norm_gradient_solution(x, s1.x_star, s2.x_star, mu1, mu2)[1]]
        elif np.linalg.norm(x - s1.x_star) <= np.linalg.norm(x - s2.x_star):
            grads = [s2.params.mu * (s2.x_star - x)]
        else:
            grads = [s1.params.mu * (x - s1.x_star)]
    elif name in (ONE_NONSMOOTH, KNOWN_ONE_NONSMOOTH):
        dm = x - unknown[-1].x_star
        norm = float(np.linalg.norm(dm))
        u = dm / norm if norm > 0.0 else np.zeros_like(x)
        grads = [c - r * u for c, r in (_gradient_ball(x, s) for s in unknown[:-1])]
    else:
        balls = [_gradient_ball(x, s) for s in unknown]
        big_c = sum((c for c, _ in balls), offset)
        big_r = sum(r for _, r in balls)
        grads = [c - (r / big_r) * big_c if big_r > 0.0 else c for c, r in balls[:-1]]
    if unknown:
        grads.append(-offset - sum(grads, np.zeros_like(x)))
    gradient = {**known, **dict(zip(map(id, unknown), grads))}
    return [gradient[id(s)] for s in scenario.summands]


# ---------------------------------------------------------------------------
# rasters


def rasterize_region(
    scenario: Scenario,
    bbox,
    resolution,
    predicate: str | None = None,
) -> RegionRaster:
    """Evaluate the membership verdict on a grid of cell centers.

    bbox = (xmin, xmax, ymin, ymax), resolution = (nx, ny).  Cells are
    stored row-major from the (xmin, ymin) corner, x fastest.  All cells
    go through the kernel as one batch, so each equals `evaluate` at its
    center bit for bit.
    """
    if scenario.dim != 2:
        raise DimensionMismatchError("rasters are 2-d only")
    xmin, xmax, ymin, ymax = bbox = tuple(map(float, bbox))
    nx, ny = resolution = tuple(map(int, resolution))
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("bbox must satisfy xmin < xmax and ymin < ymax")
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be at least 1x1")
    name, kernel = _kernel(scenario, predicate)
    states, margins, fired = kernel(_cell_centers(bbox, resolution), tol_coefficient())
    return RegionRaster(bbox, resolution, name, states, margins, fired)
