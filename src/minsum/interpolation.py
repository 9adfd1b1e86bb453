"""Interpolation tests for smooth, strongly convex function classes.

A class is parameterized by a strong convexity modulus mu and a gradient
Lipschitz constant L, 0 <= mu < L <= inf.  Every ratio mu/L or 1/L is
taken to be 0 when L is infinite, which makes each formula below cover
the nonsmooth case without branching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .geometry import (
    BOUNDARY,
    Ball,
    Verdict,
    as_vec,
    check_same_dim,
    classify,
    eps_for,
)


@dataclass(frozen=True)
class ClassParams:
    """(mu, L) pair naming a function class; L = math.inf means no
    smoothness requirement."""

    mu: float
    L: float
    is_smooth: bool = field(init=False, repr=False, compare=False)
    mu_over_L: float = field(init=False, repr=False, compare=False)
    inv_L: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = float(self.mu)
        L = float(self.L)
        if not math.isfinite(mu) or mu < 0.0:
            raise ValueError(f"mu must be finite and nonnegative, got {mu}")
        if math.isnan(L) or L <= 0.0:
            raise ValueError(f"L must be positive, got {L}")
        if mu >= L:
            # mu = L would make the class a single quadratic up to affine
            # terms; every formula below assumes the strict inequality.
            raise ValueError(f"require mu < L, got mu={mu}, L={L}")
        smooth = math.isfinite(L)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "is_smooth", smooth)
        object.__setattr__(self, "mu_over_L", mu / L if smooth else 0.0)
        object.__setattr__(self, "inv_L", 1.0 / L if smooth else 0.0)


@dataclass(frozen=True, eq=False)
class Triplet:
    """A point, a (sub)gradient there, and the function value."""

    x: np.ndarray
    g: np.ndarray
    f: float

    def __post_init__(self):
        x = as_vec(self.x)
        g = as_vec(self.g, len(x))
        f = float(self.f)
        if not math.isfinite(f):
            raise ValueError("function value must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class WitnessValues:
    """Function values completing a feasible (x, g, x*) into a two-point
    interpolable data set with minimum value 0 at x*."""

    f_x: float
    f_star: float
    energy: float


def _energy(dg: np.ndarray, dx: np.ndarray, params: ClassParams) -> float:
    """1/(2L) |dg|^2 + mu/2 |dx|^2 - mu/L <dg, dx>: the right-hand side of
    the pairwise class inequality."""
    return (
        0.5 * params.inv_L * float(dg @ dg)
        + 0.5 * params.mu * float(dx @ dx)
        - params.mu_over_L * float(dg @ dx)
    )


def pair_slack(ti: Triplet, tj: Triplet, params: ClassParams) -> float:
    """Slack of the class inequality for the ordered pair (i, j), with the
    1/(1 - mu/L) prefactor multiplied through so L = inf never divides."""
    q = 1.0 - params.mu_over_L
    dx = ti.x - tj.x
    lhs = q * (ti.f - tj.f - float(tj.g @ dx))
    return lhs - _energy(ti.g - tj.g, dx, params)


def check_interpolation(triplets, params: ClassParams) -> Verdict:
    """Does some member of the class pass through all the triplets?

    Evaluates the pairwise inequality over every ordered pair; the margin
    is the worst slack.  mu = 0, L = inf reduces each pair to the plain
    convexity inequality.
    """
    ts = list(triplets)
    if not ts:
        raise ValueError("need at least one triplet")
    check_same_dim(*(t.x for t in ts))
    margin = math.inf
    for ti, tj in permutations(ts, 2):
        s = pair_slack(ti, tj, params)
        if s < margin:
            margin = s
    eps = eps_for(
        [t.f for t in ts],
        *(t.x for t in ts),
        *(t.g for t in ts),
        params.mu,
        params.L,
    )
    return Verdict(classify(margin, eps), margin)


def minimizer_condition_margin(x, g, x_star, params: ClassParams) -> float:
    """Slack of the one-point test deciding whether some class member
    minimized at x_star has subgradient g at x.

    Nonnegative iff <g, x - x*> >= (1 + mu/L)^-1 (|g|^2/L + mu |x - x*|^2).
    """
    xv = as_vec(x)
    return _condition_margin(as_vec(g, len(xv)), xv - as_vec(x_star, len(xv)), params)


def _condition_margin(g: np.ndarray, dx: np.ndarray, params: ClassParams) -> float:
    """minimizer_condition_margin over validated g and dx = x - x*."""
    q = 1.0 / (1.0 + params.mu_over_L)
    return float(g @ dx) - q * (params.inv_L * float(g @ g) + params.mu * float(dx @ dx))


def geometric_ball(x, x_star, params: ClassParams) -> Ball:
    """The one-point test of minimizer_condition_margin, rewritten as a
    ball in gradient space (smooth classes only).

    Completing the square in g turns the inequality into
    |g - (L+mu)/2 (x - x*)| <= (L-mu)/2 |x - x*|, so admissible gradients
    at x form this ball.  Gradients of the extreme quadratics
    mu/2 |.|^2 and L/2 |.|^2 sit exactly on its boundary.
    """
    if not params.is_smooth:
        raise ValueError("geometric ball needs a finite L")
    xv = as_vec(x)
    return Ball(*_gradient_ball(xv - as_vec(x_star, len(xv)), params))


def _gradient_ball(d: np.ndarray, params: ClassParams):
    """(centre, radius) of geometric_ball at d = x - x*, over validated d."""
    radius = 0.5 * (params.L - params.mu) * float(np.linalg.norm(d))
    return 0.5 * (params.L + params.mu) * d, radius


def witness_values(x, g, x_star, params: ClassParams) -> WitnessValues:
    """Function values certifying a feasible (x, g, x*) triple.

    Returns f(x) and f(x*) = 0 such that the two triplets
    (x, g, f_x) and (x*, 0, 0) satisfy the pairwise class inequality,
    the first one with equality.  Raises if the one-point test fails.
    """
    xv = as_vec(x)
    gv, sv = as_vec(g, len(xv)), as_vec(x_star, len(xv))
    dx = xv - sv
    margin = _condition_margin(gv, dx, params)
    eps = eps_for(xv, gv, sv, params.mu, params.L)
    if margin < -eps:
        raise ValueError(
            f"(x, g) is not attainable for a class member minimized at x_star "
            f"(margin {margin:.3e})"
        )
    energy = _energy(gv, dx, params)
    f_x = energy / (1.0 - params.mu_over_L)
    return WitnessValues(f_x=f_x, f_star=0.0, energy=energy)
