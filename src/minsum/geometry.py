"""Geometric primitives shared by every membership predicate.

Everything here reduces to vectors, balls, half-spaces and a 3x3
determinant.  Margins follow one convention throughout the package:
nonnegative means feasible (sets intersect, point admitted), negative
means infeasible, and the magnitude is the slack in the defining
inequality.

Every verdict is decided within one relative band, TOL * (1 + the
largest finite input magnitude): row_eps gives it for each row of an
array, eps_for for one set of values.  TOL is fixed; no setting changes
it.

Inputs are checked once, where they enter: as_vec checks each vector
argument, given the dimension where one is known.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class CoincidentPointsError(ValueError):
    """A construction that needs distinct points received equal ones."""


# np.add.accumulate runs one inner loop per sum it makes, so on wide
# arrays one array add per term is faster.  Measured on 2 to 11 terms
# (timeit, 2-core x86): the loop overtakes at 32 to 48 sums for 2 terms
# and at 64 to 128 for 3 to 11; a 40x40 raster (1,600 sums per call)
# ran its kernels 1.5-3.4x slower on accumulate alone.
_ACCUMULATE_SUMS = 32


def fold(a, axis: int = 0):
    """a summed along axis left to right, a[0] + a[1] + ..., never by
    np.sum or a BLAS product, so a row's result does not depend on how
    many rows share the call.  Up to _ACCUMULATE_SUMS sums at a time (a
    one-row kernel call) it is a running sum in one call: the last
    partial sum of np.add.accumulate, whose every step adds one more
    term to the previous sum.  Wider arrays add term by term, the same
    additions in the same order.  The empty sum is 0."""
    if axis:
        a = a.swapaxes(0, axis)
    if not len(a):
        return np.zeros(a.shape[1:])
    if a.size <= _ACCUMULATE_SUMS * len(a):
        return np.add.accumulate(a)[-1]
    out = a[0]
    for part in a[1:]:
        out = out + part
    return out


def row_eps(scale, points, *computed):
    """The tolerance of each row: TOL * (1 + the largest magnitude among
    the static scale, the row's point and the row's finite entries of
    each computed column array, all shaped (n, N) with the N rows on the
    last axis).  The scale is nonnegative, so it is the initial value of
    the max.  Only the computed columns (a gradient taken at the point)
    can overflow and need the finiteness mask: every caller has checked
    its points finite, so with no computed column there is no mask, and
    with one the mask is taken over the stack in one call, where it is
    true on the point's rows.  A max is exact, so either way the bits
    are those of one masked max over everything.  np.maximum.reduce is
    the max that ndarray.max calls, without its Python wrapper."""
    if not computed:
        return TOL * (1.0 + np.maximum.reduce(np.abs(points), axis=0, initial=scale))
    c = np.abs(np.concatenate((points, *computed)))
    return TOL * (1.0 + np.maximum.reduce(c, axis=0, initial=scale, where=np.isfinite(c)))


def eps_for(*values) -> float:
    """row_eps of one row holding every entry of values, as one max over
    them as Python floats: the same max, so the same bits.

    Non-finite entries (an infinite smoothness constant, say) are ignored;
    they never enter a margin formula directly.
    """
    flat = []
    for v in values:
        flat += [v] if isinstance(v, float) else np.asarray(v, dtype=float).ravel().tolist()
    return float(TOL * (1.0 + max(map(abs, filter(math.isfinite, flat)), default=0.0)))


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


def as_vec(x, dim: int | None = None) -> np.ndarray:
    """x as a float vector, checked in one pass, in this order: 1-d and
    nonempty, else ValueError; every coordinate finite, else ValueError;
    and, when dim is given, of length dim, else DimensionMismatchError
    ("mixed dimensions [a, b]").  So a non-finite vector of the wrong
    length raises the plain ValueError."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d coordinate vector")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("coordinates must be finite")
    if dim is not None and len(v) != dim:
        raise DimensionMismatchError(f"mixed dimensions {sorted({len(v), dim})}")
    return v


def check_same_dim(*vecs: np.ndarray) -> int:
    """The common length of checked vectors, none of which fixes it, or
    DimensionMismatchError ("mixed dimensions [a, b, ...]")."""
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


def cofactor_det(c, a, b, alpha):
    """Determinant of [[1, c, a], [c, 1, b], [a, b, alpha]], expanded along
    the first row.  Branch-free and elementwise on arrays."""
    return (alpha - b * b) - c * (c * alpha - b * a) + a * (c * b - a)
