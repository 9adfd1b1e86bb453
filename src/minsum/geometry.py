"""Geometric primitives shared by every membership predicate.

Everything here reduces to vectors, balls, half-spaces and a 3x3
determinant.  Margins follow one convention throughout the package:
nonnegative means feasible (sets intersect, point admitted), negative
means infeasible, and the magnitude is the slack in the defining
inequality.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

TOL_ENV_VAR = "MINSUM_TOL"
_BASE_TOL = 1e-9

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class CoincidentPointsError(ValueError):
    """A construction that needs distinct points received equal ones."""


def tol_coefficient() -> float:
    # MINSUM_TOL overrides the scale-free 1e-9 coefficient; test use only.
    return _parse_tol(os.environ.get(TOL_ENV_VAR))


@functools.lru_cache(maxsize=8)
def _parse_tol(raw: str | None) -> float:
    # keyed on the raw string, so a changed environment is seen at once
    try:
        value = float(raw) if raw else _BASE_TOL
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{TOL_ENV_VAR} must be finite and nonnegative, got {raw!r}")
    return value


def eps_for(*values) -> float:
    """Comparison tolerance: coefficient * (1 + largest finite magnitude).

    Non-finite entries (an infinite smoothness constant, say) are ignored;
    they never enter a margin formula directly.
    """
    a = np.concatenate([np.asarray(v, dtype=float).ravel() for v in values] or [[]])
    scale = float(np.abs(a).max(initial=0.0, where=np.isfinite(a)))
    return tol_coefficient() * (1.0 + scale)


def classify(margin: float, eps: float) -> str:
    """Tri-state verdict for a margin under the tolerance band eps."""
    if margin > eps:
        return INSIDE
    if margin < -eps:
        return OUTSIDE
    return BOUNDARY


@dataclass(frozen=True)
class Verdict:
    """Outcome of a membership test.

    fired_conditions is a bit set used by the bounded two-nonsmooth
    predicate: 1 = base norm caps, 2/4/8 = its three alternative clauses.
    Other predicates leave it at 0.
    """

    state: str
    margin: float
    fired_conditions: int = 0

    @property
    def admits(self) -> bool:
        # set membership in the closed formulation
        return self.state != OUTSIDE


def as_vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d coordinate vector")
    if not np.isfinite(v).all():
        raise ValueError("coordinates must be finite")
    return v


def check_same_dim(*vecs: np.ndarray) -> int:
    dims = {v.shape[0] for v in vecs}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball {g : |g - center| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))
        r = float(self.radius)
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"radius must be finite and nonnegative, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def distance(self, g: np.ndarray) -> float:
        return max(0.0, float(np.linalg.norm(g - self.center)) - self.radius)

    def contains(self, g: np.ndarray, eps: float = 0.0) -> bool:
        return self.distance(g) <= eps

    def project(self, g: np.ndarray) -> np.ndarray:
        d = g - self.center
        n = float(np.linalg.norm(d))
        if n <= self.radius:
            return np.array(g, dtype=float)
        return self.center + d * (self.radius / n)


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Closed half-space {g : <normal, g> <= offset}.

    A zero normal is allowed: the constraint is vacuous when offset >= 0
    and empty otherwise (it shows up when evaluation and minimizer points
    coincide in a reduction).
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vec(self.normal))
        o = float(self.offset)
        if not math.isfinite(o):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "offset", o)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _norm(self) -> float:
        return float(np.linalg.norm(self.normal))

    def distance(self, g: np.ndarray) -> float:
        n = self._norm()
        if n == 0.0:
            return 0.0 if self.offset >= 0.0 else math.inf
        return max(0.0, (float(self.normal @ g) - self.offset) / n)

    def contains(self, g: np.ndarray, eps: float = 0.0) -> bool:
        return self.distance(g) <= eps

    def project(self, g: np.ndarray) -> np.ndarray:
        n2 = float(self.normal @ self.normal)
        if n2 == 0.0:
            # empty or vacuous; nothing sensible to move toward
            return np.array(g, dtype=float)
        v = float(self.normal @ g) - self.offset
        if v <= 0.0:
            return np.array(g, dtype=float)
        return g - (v / n2) * self.normal


def gram_matrix(x_star, x1, x2, mu1: float, mu2: float, alpha: float) -> np.ndarray:
    """The 3x3 symmetric matrix whose PSD-ness closes the bounded
    two-nonsmooth membership test.

    Rows/columns correspond to the unit directions x*-x1, x*-x2 and a
    slot for a gradient of squared norm alpha.  Requires x* distinct from
    both anchor points.
    """
    xs, a1, a2 = as_vec(x_star), as_vec(x1), as_vec(x2)
    check_same_dim(xs, a1, a2)
    if mu1 < 0.0 or mu2 < 0.0:
        raise ValueError("strong convexity moduli must be nonnegative")
    if alpha < 0.0:
        raise ValueError("alpha is a squared norm and must be nonnegative")
    d1 = xs - a1
    d2 = xs - a2
    r1 = float(np.linalg.norm(d1))
    r2 = float(np.linalg.norm(d2))
    eps = eps_for(xs, a1, a2)
    if r1 <= eps or r2 <= eps:
        raise CoincidentPointsError("x_star coincides with an anchor point")
    c = float(d1 @ d2) / (r1 * r2)
    return np.array(
        [
            [1.0, c, mu1 * r1],
            [c, 1.0, -mu2 * r2],
            [mu1 * r1, -mu2 * r2, alpha],
        ]
    )


def gram_det(x_star, x1, x2, mu1: float, mu2: float, alpha: float) -> float:
    """Determinant of gram_matrix, by explicit cofactor expansion."""
    m = gram_matrix(x_star, x1, x2, mu1, mu2, alpha)
    return cofactor_det(m[0, 1], m[0, 2], m[1, 2], alpha)


def cofactor_det(c, a, b, alpha):
    """Determinant of [[1, c, a], [c, 1, b], [a, b, alpha]], expanded along
    the first row.  Branch-free and elementwise on arrays, so the batch
    kernel and gram_det share one bitwise reproducible formula."""
    return 1.0 * (1.0 * alpha - b * b) - c * (c * alpha - b * a) + a * (c * b - 1.0 * a)
