"""Distance bounds on the set of potential minimizers.

Two families: a focal-distance bound for the bounded two-nonsmooth
regime (how far a member can sit from the mu-weighted focal point), and
condition-number ball bounds for summands drawn from a common class
with minimizers inside a given ball.  The ball bounds are stated for a
unit enclosing radius; distances scale linearly, so reports rescale by
the actual radius.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .geometry import Ball, as_vec, check_same_dim
from .membership import (
    Scenario,
    UnsupportedPatternError,
    _check_moduli,
    focal_point,
    min_bound_B,
    route,
    TWO_NONSMOOTH_BOUNDED,
    TWO_SMOOTH,
    M_SMOOTH,
    ONE_NONSMOOTH,
)

FOCAL_LINEAR = "focal_linear"
FOCAL_QUADRATIC = "focal_quadratic"
BALL_SMOOTH = "ball_smooth"
BALL_NONSMOOTH = "ball_nonsmooth"
BASELINE = "baseline"


@dataclass(frozen=True)
class BoundReport:
    """One emitted bound: its value, which term of the underlying minimum
    is binding, and the condition number it was computed from (None for
    the focal-distance family)."""

    bound_value: float
    binding_term: str
    kappa: float | None = None


def _focal_terms(mu1: float, mu2: float, a1, a2, b: float):
    """(bound, binding) of checked inputs with b >= min_bound_B: the root
    of the smaller of linear = B D / (mu1+mu2) - mu1 mu2 D^2 / (mu1+mu2)^2,
    D = |x1 - x2|, and B^2 / (mu1+mu2)^2, and which one binds.  Such a b
    makes linear >= 0: below 0 it is rounding, and -inf an overflow (nan)."""
    d = float(np.linalg.norm(a1 - a2))
    total = mu1 + mu2
    linear = b * d / total - mu1 * mu2 * d * d / (total * total)
    if linear == -math.inf:
        return math.nan, FOCAL_LINEAR
    # a product, not **, so an overflow gives inf instead of raising
    quadratic = (b / total) * (b / total)
    linear = max(linear, 0.0)
    binding = FOCAL_LINEAR if linear <= quadratic else FOCAL_QUADRATIC
    return math.sqrt(min(linear, quadratic)), binding


def focal_distance_bound(mu1: float, mu2: float, x1, x2, bound_b: float) -> float:
    """Largest possible distance from a member to the mu-weighted focal
    point, for two nonsmooth summands under gradient cap B: the root of
    the smaller _focal_terms term."""
    a1 = as_vec(x1)
    a2 = as_vec(x2, len(a1))
    _check_moduli(mu1, mu2)
    b = float(bound_b)
    if not math.isfinite(b) or b < 0.0:
        raise ValueError("bound must be finite and nonnegative")
    if b < min_bound_B(mu1, mu2, a1, a2):
        raise ValueError("bound below the feasibility minimum; the set is empty")
    return _focal_terms(mu1, mu2, a1, a2, b)[0]


def _check_kappa(kappa: float) -> float:
    k = float(kappa)
    if not math.isfinite(k) or k <= 1.0:
        raise ValueError(f"condition number must exceed 1, got {k}")
    return k


def ball_bound_smooth(kappa: float) -> float:
    """Max distance from the enclosing center for all-smooth summands of
    a common class with condition number kappa, unit enclosing radius:
    (sqrt(kappa) + 1/sqrt(kappa)) / 2."""
    k = _check_kappa(kappa)
    s = math.sqrt(k)
    return 0.5 * (s + 1.0 / s)


def ball_bound_one_nonsmooth(kappa: float) -> float:
    """Same setting with one extra nonsmooth summand: sqrt(kappa + 1)."""
    k = _check_kappa(kappa)
    return math.sqrt(k + 1.0)


def ball_bound_baseline(kappa: float) -> float:
    """Prior coarse bound kept for comparison output: 1 + sqrt(kappa)."""
    k = float(kappa)
    if not math.isfinite(k) or k < 1.0:
        raise ValueError(f"condition number must be at least 1, got {k}")
    return 1.0 + math.sqrt(k)


def smallest_enclosing_ball(points) -> Ball:
    """Exact smallest enclosing ball of a finite point set (Welzl's
    algorithm with a shuffle of fixed seed, so output is deterministic)."""
    pts = [as_vec(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    check_same_dim(*pts)
    n = pts[0].shape[0]
    order = list(range(len(pts)))
    random.Random(0).shuffle(order)
    pts = [pts[i] for i in order]

    def ball_from_support(support):
        if not support:
            return np.zeros(n), 0.0
        base = support[0]
        if len(support) == 1:
            return np.array(base), 0.0
        rows = np.array([2.0 * (p - base) for p in support[1:]])
        rhs = np.array([float((p - base) @ (p - base)) for p in support[1:]])
        # LAPACK would print its complaint about a non-finite system to stdout
        if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
            raise ValueError(
                "the anchors are too far apart for the enclosing ball: "
                "its support equations overflow the float range"
            )
        sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        center = base + sol
        radius = max(float(np.linalg.norm(p - center)) for p in support)
        return center, radius

    def welzl(start, support):
        """The ball of pts[start:] with support on its boundary, adding
        points from last to first; recursion is on the support only, so
        its depth is at most n + 1."""
        if len(support) == n + 1:
            return ball_from_support(support)
        center, radius = ball_from_support(support)
        for i in range(len(pts) - 1, start - 1, -1):
            if float(np.linalg.norm(pts[i] - center)) > radius * (1 + 1e-12) + 1e-12:
                center, radius = welzl(i + 1, support + [pts[i]])
        return center, radius

    center, radius = welzl(0, [])
    radius = max(radius, max(float(np.linalg.norm(p - center)) for p in pts))
    return Ball(center, radius)


def scenario_bound_reports(scenario: Scenario):
    """Every bound applicable to the scenario, plus the geometry it was
    derived from.

    Returns a dict with keys: reports (list of BoundReport), enclosing
    (Ball around the summands' minimizers), focal (focal point or None),
    notes (list of strings explaining omissions).
    """
    unknown = scenario.unknown_summands
    result = {"reports": [], "enclosing": None, "focal": None, "notes": []}
    reports, notes = result["reports"], result["notes"]

    # the anchors in summand order, not the scenario's nonsmooth-last
    # one: the ball's last bits depend on the order of its points
    anchors = [s.x_star for s in scenario.summands]
    result["enclosing"] = enclosing = smallest_enclosing_ball(anchors)
    if scenario.known_summands:
        notes.append("ball bounds assume no known summands; none emitted")
        return result

    pattern = route(scenario)

    if pattern == TWO_NONSMOOTH_BOUNDED:
        s1, s2 = unknown
        mu1, mu2 = s1.params.mu, s2.params.mu
        b = scenario.bound_B
        result["focal"] = focal_point(unknown)
        if b < min_bound_B(mu1, mu2, s1.x_star, s2.x_star):
            notes.append("bound_B is below the feasibility minimum; the set is empty")
            return result
        value, binding = _focal_terms(mu1, mu2, s1.x_star, s2.x_star, b)
        if not math.isfinite(value):
            notes.append("the focal distance bound overflows: no finite distance bound applies")
            return result
        reports.append(BoundReport(value, binding, None))
        return result

    if pattern in (TWO_SMOOTH, M_SMOOTH):
        result["focal"] = focal_point(unknown)
    smooth = [s for s in unknown if s.params.is_smooth]
    if not smooth:
        notes.append("ball bounds need at least one smooth summand")
        return result
    mu_min = min(s.params.mu for s in smooth)
    l_max = max(s.params.L for s in smooth)
    if mu_min <= 0.0:
        notes.append("a summand has mu = 0: no finite distance bound applies")
        return result
    # every smooth summand's class embeds in the (mu_min, l_max) class,
    # so bounds for that class remain valid.  mu < L keeps kappa above
    # 1, but the quotient can overflow
    kappa = l_max / mu_min
    r = enclosing.radius
    if not math.isfinite(kappa):
        notes.append("the condition number overflows: no finite distance bound applies")
        return result
    if pattern in (TWO_SMOOTH, M_SMOOTH):
        reports.append(BoundReport(r * ball_bound_smooth(kappa), BALL_SMOOTH, kappa))
    elif pattern == ONE_NONSMOOTH:
        reports.append(
            BoundReport(r * ball_bound_one_nonsmooth(kappa), BALL_NONSMOOTH, kappa)
        )
    reports.append(BoundReport(r * ball_bound_baseline(kappa), BASELINE, kappa))
    return result
