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

witness_gradients writes an admitted point's gradients from the arrays
of the one kernel run that admitted it, with no iterative solver.

The kernels sum over summands and coordinates left to right in
elementwise array operations, never np.sum or a BLAS product, so a
row's result does not depend on how many rows share the call: a single
point (`evaluate`, the `member_*` functions) is a batch of one row and
equals its raster cell bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .geometry import (
    BOUNDARY,
    CoincidentPointsError,
    DimensionMismatchError,
    INSIDE,
    OUTSIDE,
    TOL,
    Verdict,
    as_vec,
    check_same_dim,
    classify,
    cofactor_det,
    fold,
    row_eps,
)
from .interpolation import ClassParams

COND_BASE = 1
COND_FIRST = 2
COND_SECOND = 4
COND_DET = 8
# the condition bit of each row of _bounded_pair's value table
_CONDITIONS = np.array([COND_BASE, COND_FIRST, COND_SECOND, COND_DET])

# the kernels' state codes index this tuple: 0 outside, 1 boundary,
# 2 inside, so a cell is admitted iff its code is nonzero
STATE_NAMES = (OUTSIDE, BOUNDARY, INSIDE)

TWO_SMOOTH = "two_smooth"
M_SMOOTH = "m_smooth"
ONE_NONSMOOTH = "one_nonsmooth"
TWO_NONSMOOTH_BOUNDED = "two_nonsmooth_bounded"
KNOWN_SMOOTH = "known_smooth"
KNOWN_ONE_NONSMOOTH = "known_one_nonsmooth"

class UnsupportedPatternError(ValueError):
    """The scenario's smoothness pattern has no implemented predicate."""


@dataclass(frozen=True, eq=False)
class KnownFunction:
    """A fully known summand: a convex quadratic 1/2 (x-c)^T A (x-c).

    Only the gradient is ever consulted.
    """

    matrix: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        c = as_vec(self.center)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if a.shape[0] != c.shape[0]:
            raise DimensionMismatchError("matrix and center dimensions differ")
        object.__setattr__(self, "matrix", _checked_matrices(a[None])[0])
        object.__setattr__(self, "center", c)

    @classmethod
    def _checked(cls, matrix: np.ndarray, center: np.ndarray) -> KnownFunction:
        """A KnownFunction of a matrix that _checked_matrices returned and
        a validated center, which the constructor would check again."""
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", matrix)
        object.__setattr__(out, "center", center)
        return out

    def gradient(self, x) -> np.ndarray:
        return self.matrix @ (as_vec(x, len(self.center)) - self.center)


def _checked_matrices(a: np.ndarray) -> np.ndarray:
    """A (..., n, n) stack of matrices, symmetrized, after KnownFunction's
    checks on each: finite entries, and symmetric and positive
    semidefinite within the matrix's eps_for."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    eps = TOL * (1.0 + np.abs(a).max(axis=(-2, -1)))
    a_t = np.swapaxes(a, -1, -2)
    if (np.abs(a - a_t).max(axis=(-2, -1)) > eps).any():
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a_t)
    if (np.linalg.eigvalsh(a).min(axis=-1) < -eps).any():
        raise ValueError("matrix must be positive semidefinite")
    return a


@dataclass(frozen=True, eq=False)
class Summand:
    """One term of the sum: minimizer location, class parameters, and an
    optional exact model.  When known is present the params are
    informational; the gradient oracle is authoritative."""

    x_star: np.ndarray
    params: ClassParams
    known: KnownFunction | None = None

    def __post_init__(self):
        dim = None if self.known is None else len(self.known.center)
        object.__setattr__(self, "x_star", as_vec(self.x_star, dim))

    @property
    def dim(self) -> int:
        return self.x_star.shape[0]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full problem instance: the summands plus, when two or more of
    them are nonsmooth, the gradient-norm cap bound_B that keeps the
    potential set bounded.  It stores its unknown summands nonsmooth
    last, the order every kernel takes, and pattern: the routed
    _PATTERNS name, or None when no pattern fits.  It keeps its kernel
    once one is asked for (_kernel)."""

    summands: tuple
    bound_B: float | None = None
    known_summands: tuple = field(init=False, repr=False)
    unknown_summands: tuple = field(init=False, repr=False)
    pattern: str | None = field(init=False, repr=False)

    def __post_init__(self):
        ss = tuple(self.summands)
        if not ss:
            raise ValueError("scenario needs at least one summand")
        check_same_dim(*(s.x_star for s in ss))
        object.__setattr__(self, "summands", ss)
        known = tuple(s for s in ss if s.known is not None)
        # a stable sort: smooth unknowns keep their order
        unknown = tuple(sorted((s for s in ss if s.known is None),
                               key=lambda s: not s.params.is_smooth))
        n_nonsmooth = sum(not s.params.is_smooth for s in unknown)
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
        object.__setattr__(self, "known_summands", known)
        object.__setattr__(self, "unknown_summands", unknown)
        pattern = next((n for n in _PATTERNS if _fits(n, known, unknown)), None)
        object.__setattr__(self, "pattern", pattern)

    @cached_property
    def dim(self) -> int:
        return self.summands[0].dim

    @cached_property
    def _bound_kernel(self):
        """The routed predicate's kernel, bound on first use rather than
        in __post_init__, so that evaluate checks its point before _build
        checks the anchors."""
        known = tuple(s.known for s in self.known_summands)
        return _build(route(self), known, self.unknown_summands, self.dim, self.bound_B)


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

    def axes(self):
        """The nx cell-center x values and the ny y values."""
        return _cell_axes(self.bbox, self.resolution)


def _cell_axes(bbox, resolution):
    xmin, xmax, ymin, ymax = bbox
    nx, ny = resolution
    xs = xmin + (xmax - xmin) / nx * (np.arange(nx) + 0.5)
    ys = ymin + (ymax - ymin) / ny * (np.arange(ny) + 0.5)
    return xs, ys


def _cell_centers(bbox, resolution) -> np.ndarray:
    xs, ys = _cell_axes(bbox, resolution)
    return np.column_stack((np.tile(xs, len(ys)), np.repeat(ys, len(xs))))


# ---------------------------------------------------------------------------
# array kernels: an (N, n) array of points in, last after the data _build
# binds; (margins, eps, fired, parts) out: one entry per point in each of
# the first three, fired None but from the bounded pair, and as parts the
# arrays built on the way that witness_gradients reads.  The caller
# decides the states: _batch by _classify on arrays, _one_point by
# geometry.classify on Python floats.  Inside, arrays hold coordinates on
# their first axis and points on their last.  Every sum over coordinates
# or summands is one fold, a running sum in one call for a few rows, so a
# one-row kernel call makes the same number of numpy calls whatever the
# dimension n and the number of unknown summands (a known quadratic adds
# one pass each): it costs no more in 8-D, or with five summands, than in
# 2-D with two.  The kernels copy the points' transpose to C order first:
# on a wide batch, numpy runs a strided transpose's reductions one row at
# a time.


def _classify(margins, eps):
    """geometry.classify on arrays, as codes into STATE_NAMES: the count
    of the two bounds the margin clears, not below -eps and above eps
    (a NaN margin clears the first only, and is boundary)."""
    return (margins > eps).view(np.int8) + (~(margins < -eps)).view(np.int8)


def _one_point(kernel, x: np.ndarray) -> Verdict:
    """The kernel's verdict at the one point x, classified on Python
    floats by geometry.classify, the rule _classify applies to arrays."""
    margins, eps, fired = kernel(x[None, :])[:3]
    margin = margins.item()
    return Verdict(classify(margin, eps.item()), margin, 0 if fired is None else fired.item())


def _batch(kernel, points: np.ndarray):
    """The kernel's rows as (state codes, margins, fired bits), the
    states by _classify; a kernel with no clause bits fires none."""
    margins, eps, fired = kernel(points)[:3]
    if fired is None:
        fired = np.zeros(len(points), np.int8)
    return _classify(margins, eps), margins, fired


def _known_gradient(x, known):
    """sum_k A_k (x - c_k) over the known quadratics, or None."""
    grad = None
    for a_t, c in known:
        g = fold(a_t * (x - c)[:, None, :])
        grad = g if grad is None else grad + g
    return grad


def _ball_chain(anchors, plus, minus, known, scale, points):
    """margin = sum_i (L_i-mu_i)|d_i| - |2 sum_k grad_k(x) + sum_i (L_i+mu_i) d_i|
    over the smooth unknowns i (d_i = x - x_i*) and known summands k.
    The |d_i| and |total| come from one square, fold and sqrt over d
    with the total appended.  Its parts double the balls B(c_i, r_i) and
    their sum B(C, R): (L_i+mu_i) d_i = 2 c_i, (L_i-mu_i)|d_i| = 2 r_i, 2 R, 2 C."""
    x = np.ascontiguousarray(points.T)
    d = x[:, None, :] - anchors
    terms = scaled = plus * d
    grad = _known_gradient(x, known)
    if grad is not None:
        terms = np.concatenate(((2.0 * grad)[:, None, :], scaled), axis=1)
    total = fold(terms, 1)
    d_total = np.concatenate((d, total[:, None, :]), axis=1)
    norms = np.sqrt(fold(d_total * d_total))
    radii = minus * norms[:-1]
    radius = fold(radii)
    eps = row_eps(scale, x) if grad is None else row_eps(scale, x, total)
    return radius - norms[-1], eps, None, (scaled, radii, radius, total)


def _ball_halfspace(anchors, coef, known, scale, points):
    """margin = - mu_m |d_m|^2 - <sum_k grad_k(x), d_m>
                + sum_i ((L_i-mu_i)/2 |d_i||d_m| - (L_i+mu_i)/2 <d_i, d_m>)
    for the smooth unknowns i against the nonsmooth unknown m, summed
    left to right in that order.

    d holds d_m first, then the d_i.  Two products (three with known
    summands) and one fold give a (k+1, 2) table per point: each row j holds |d_j|^2, then <d_m, grad>
    on row 0 (0.0 with no known summand) and <d_j, d_m> on the others.
    The norms, scaled by coef and |d_m|, are -mu_m |d_m|^2 and the
    gains; coef scales the inner products into the negated gradient term
    and the losses.  Flattened, the table lists the terms in the
    margin's order; with no known summand the gradient term is -0.0,
    which leaves every sum it enters as it was.  Its parts are d, the
    |d_j| (|d_m| first) and coef."""
    x = np.ascontiguousarray(points.T)
    d = x[:, None, :] - anchors
    table = np.zeros((len(x), len(coef), 2, len(points)))
    np.multiply(d, d, out=table[:, :, 0])
    np.multiply(d[:, 1:], d[:, :1], out=table[:, 1:, 1])
    grad = _known_gradient(x, known)
    if grad is not None:
        np.multiply(d[:, 0], grad, out=table[:, 0, 1])
    table = fold(table)
    norms = np.sqrt(table[:, 0], out=table[:, 0])
    terms = table * coef
    terms[:, 0] *= norms[0]
    margins = fold(terms.reshape(-1, len(points)))
    eps = row_eps(scale, x) if grad is None else row_eps(scale, x, grad)
    return margins, eps, None, (d, norms, coef)


def _bounded_pair(anchors, mu, neg_mu, b, bmin, scale, points):
    """Two nonsmooth summands under a gradient cap |g_i| <= b.

    x belongs to the set iff both base norm caps mu_i |d_i| <= b hold
    and at least one of three clauses does: an alignment inequality in
    either direction, or nonnegativity of the 3x3 determinant that
    certifies a unit-vector completion of the constraint system.  Its
    rows and columns are the unit directions of d1 and d2 and a slot for
    a gradient of squared norm b^2:

        [[1,          cos,         mu1 |d1|],
         [cos,        1,          -mu2 |d2|],
         [mu1 |d1|,  -mu2 |d2|,    b^2     ]]

    with cos the cosine between d1 and d2, expanded by cofactor_det.
    fired records every satisfied clause; _build has checked the anchors.
    Its parts are d and the |d_i|."""
    x = np.ascontiguousarray(points.T)
    eps = row_eps(scale, x)
    d = x[:, None, :] - anchors
    # one fold gives |d1|^2, <d1, d2> and |d2|^2 on the diagonal and off
    # it; the diagonal is every third entry of the flattened 2x2 table
    gram = fold(d[:, :, None, :] * d[:, None, :, :]).reshape(4, -1)
    dot = gram[1]
    r = np.sqrt(gram[::3])
    cap = mu * r
    head = b - cap
    # rows: base, the two alignment clauses, the determinant clause
    value = np.empty((4, len(points)))
    base = np.minimum(head[0], head[1], out=value[0])
    c12 = np.subtract(neg_mu * dot, cap[::-1] * r[::-1], out=value[1:3])
    # coincidence with an anchor collapses the test to the other norm
    # cap; the norms are never NaN, so their minimum decides it
    at_anchor = np.minimum(r[0], r[1]) <= eps
    cos = dot / np.where(at_anchor, 1.0, r[0] * r[1])
    value[3] = cofactor_det(cos, cap[0], -cap[1], b * b)
    best = np.maximum(np.maximum(c12[0], c12[1]), value[3])
    margins = np.where(at_anchor, base, np.minimum(base, best))
    holds = value >= -eps
    fired = np.where(at_anchor, holds[0], _CONDITIONS @ holds)
    # below the smallest viable cap the whole set is empty; eps >= 0, so
    # no point can be there while b >= bmin.  An empty row's margin
    # b - bmin is negative, and its eps 0 makes it outside for certain
    if b < bmin:
        empty = b < bmin - eps
        margins = np.where(empty, b - bmin, margins)
        eps = np.where(empty, 0.0, eps)
        fired[empty] = 0
    return margins, eps, fired, (d, r)


def _min_norm_qp(points, a1, a2, mu1: float, mu2: float):
    """Minimize |g|^2 subject to
        <g, u> <= -mu1 |u|^2,  u = a1 - x
        <g, v> <= -mu2 |v|^2,  v = x - a2
    at each row x of points, by enumerating the KKT active sets: none,
    u, v and both, within each row's eps_for(x, a1, a2, mu1, mu2).
    A row within eps_for(x, a1, a2) of an anchor raises: that band is a
    distance's, so the moduli do not widen it.
    Returns each row's optimal value, inf where the half-spaces are
    disjoint (x on the colinear ray outside the segment [a1, a2]), and
    its argmin (N, n), NaN where the value is inf.  Ties go to the first
    active set in that order.
    """
    x = points.T
    reach = max(float(np.abs(a1).max()), float(np.abs(a2).max()))
    eps = row_eps(max(reach, mu1, mu2), x)
    near = row_eps(reach, x)
    u = a1[:, None] - x
    v = x - a2[:, None]
    nu = fold(u * u)
    nv = fold(v * v)
    if (np.minimum(nu, nv) <= near * near).any():
        raise CoincidentPointsError("x_star coincides with an anchor point")
    bu = -mu1 * nu
    bv = -mu2 * nv
    ftol = eps * (1.0 + np.sqrt(np.maximum(nu, nv)))
    g1 = (bu / nu) * u
    g2 = (bv / nv) * v
    g1v = fold(g1 * v)
    # both constraints active: g1 plus the multiple of w, the part of v
    # orthogonal to u, that meets the v constraint too.  w comes from two
    # Gram-Schmidt passes, not from the Gram determinant nu nv - <u, v>^2
    # = nu |w|^2, which keeps nearly colinear rows within ftol of both
    # constraints.  The point exists iff |w| > 0; a colinear row divides
    # by 1 instead, and its candidate is not feasible
    w = v - (fold(u * v) / nu) * u
    w = w - (fold(u * w) / nu) * u
    nw = fold(w * w)
    both = nw > 1e-14 * nv
    g3 = g1 + ((bv - g1v) / np.where(both, nw, 1.0)) * w
    # where the both-active point exists, a one-constraint candidate must
    # meet the other constraint exactly, or it would win by its slack
    slack = np.where(both, 0.0, ftol)
    feasible = np.stack((
        (bu >= -ftol) & (bv >= -ftol),
        g1v <= bv + slack,
        fold(g2 * u) <= bu + slack,
        both,
    ))
    values = [np.zeros_like(nu), fold(g1 * g1), fold(g2 * g2), fold(g3 * g3)]
    values = np.where(feasible, values, math.inf)
    opt = values.min(axis=0)
    g = np.choose(values.argmin(axis=0), (np.zeros_like(x), g1, g2, g3))
    return opt, np.where(np.isinf(opt), math.nan, g).T


def _pair_qp(points, s1: Summand, s2: Summand):
    """_min_norm_qp of validated points against the anchors and moduli of
    the bounded pair s1, s2."""
    return _min_norm_qp(points, s1.x_star, s2.x_star, s1.params.mu, s2.params.mu)


def qp_min_norm_gradient_solution(x_star, x1, x2, mu1: float, mu2: float):
    """The KKT QP of _min_norm_qp at the one point x_star, against the
    anchors x1 and x2.  Returns (optimal value, argmin), or (inf, None)
    when the two half-spaces are disjoint.
    The argmin is the bounded pair's witness; the oracle compares the
    optimum with B^2, with no algebra shared with _bounded_pair.
    """
    xs = as_vec(x_star)
    a1, a2 = as_vec(x1, len(xs)), as_vec(x2, len(xs))
    _check_moduli(mu1, mu2, divides=False)
    opt, g = _min_norm_qp(xs[None, :], a1, a2, mu1, mu2)
    value = float(opt[0])
    return (value, g[0]) if math.isfinite(value) else (math.inf, None)


# ---------------------------------------------------------------------------
# kernel construction: one table of predicate patterns, and one builder
# that checks the summands fit a pattern and binds their data as arrays,
# positionally, so that a call passes the points alone.  Summands hash
# by identity, so a kernel is built once per set of summands, whichever
# caller asks for it, and a Scenario keeps the one it routes to.

# name: (known summands present, nonsmooth unknowns, unknown count or
# None).  A Scenario routes to the first name that fits, so two_smooth
# comes before m_smooth; the nonsmooth count picks the kernel family: 0 the
# ball chain, 1 the half-space, 2 the bounded pair
_PATTERNS = {
    TWO_SMOOTH: (False, 0, 2),
    M_SMOOTH: (False, 0, None),
    ONE_NONSMOOTH: (False, 1, None),
    TWO_NONSMOOTH_BOUNDED: (False, 2, 2),
    KNOWN_SMOOTH: (True, 0, None),
    KNOWN_ONE_NONSMOOTH: (True, 1, None),
}
PREDICATE_NAMES = tuple(_PATTERNS)


def _fits(name: str, known, unknown) -> bool:
    """Whether the summands take the pattern of name, nonsmooth unknowns last."""
    has_known, nonsmooth, count = _PATTERNS[name]
    flags = [not s.params.is_smooth for s in unknown]
    return (bool(known) == has_known and sum(flags) == nonsmooth
            and count in (None, len(flags)) and flags == sorted(flags))


def _static_scale(unknown, bound_b) -> float:
    """Largest finite magnitude among the unknown summands' minimizers,
    moduli and smoothness constants and the cap: eps_for's scale for
    everything but the point and the gradients taken there."""
    values = [0.0 if bound_b is None else bound_b]
    for s in unknown:
        values += map(abs, s.x_star.tolist())
        values += [s.params.mu, s.params.L] if s.params.is_smooth else [s.params.mu]
    return max(values)


def _column(v):
    return np.array(v, dtype=float)[:, None]


def _anchors(summands, dim: int) -> np.ndarray:
    """The summands' minimizers as an (n, k, 1) array."""
    return np.reshape([s.x_star for s in summands], (-1, dim)).T[:, :, None]


def _known_columns(known) -> tuple:
    """The known quadratics as (A^T, center) columns."""
    return tuple((kf.matrix.T[:, :, None], _column(kf.center)) for kf in known)


@lru_cache(maxsize=256)
def _build(name: str, known: tuple, unknown: tuple, dim: int, bound_b):
    """The kernel of predicate name on the known quadratics and the
    unknown summands, nonsmooth ones last, with the bounded pair's cap
    bound_b, checked at its entry, and its anchors, checked apart here."""
    has_known, nonsmooth, count = _PATTERNS[name]
    if not _fits(name, known, unknown):
        raise UnsupportedPatternError(
            f"{name} takes {'' if has_known else 'no '}known summands and "
            f"{count or 'any number of'} unknown ones, of which {nonsmooth} "
            "nonsmooth (L = inf), listed last"
        )
    scale = _static_scale(unknown, bound_b)
    # each smooth ball's factors, bound once for the chain and the half-space
    smooth = unknown[:len(unknown) - nonsmooth]
    plus = _column([s.params.L + s.params.mu for s in smooth])
    minus = _column([s.params.L - s.params.mu for s in smooth])
    if nonsmooth == 0:
        return partial(_ball_chain, _anchors(unknown, dim), plus, minus,
                       _known_columns(known), scale)
    if nonsmooth == 1:
        m = unknown[-1]
        # _ball_halfspace's table, row by row: the factors of |d_m|^2 and
        # the gradient term, then of each d_i's gain and loss
        coef = np.vstack(([[-m.params.mu, -1.0]], np.hstack((0.5 * minus, -0.5 * plus))))
        return partial(_ball_halfspace, _anchors((m, *smooth), dim),
                       coef[:, :, None], _known_columns(known), scale)
    s1, s2 = unknown
    if float(np.linalg.norm(s1.x_star - s2.x_star)) <= TOL * (1.0 + scale):
        raise CoincidentPointsError("summand minimizers coincide")
    mu1, mu2 = s1.params.mu, s2.params.mu
    bmin = min_bound_B(mu1, mu2, s1.x_star, s2.x_star)
    return partial(_bounded_pair, _anchors(unknown, dim), _column([mu1, mu2]),
                   _column([-mu1, -mu2]), bound_b, bmin, scale)


def _member(name: str, x_star, known, unknown, bound_b=None) -> Verdict:
    """Predicate name at the one point x_star, as a one-row kernel run."""
    known, unknown = tuple(known), tuple(unknown)
    if not known and not unknown:
        raise ValueError("need at least one summand")
    x = as_vec(x_star)
    check_same_dim(x, *(s.x_star for s in unknown), *(kf.center for kf in known))
    return _one_point(_build(name, known, unknown, len(x), bound_b), x)


# ---------------------------------------------------------------------------
# the closed-form predicates on one point; d_i = x* - x_i*, and the
# nonsmooth summand comes last


def member_two_smooth(x_star, s1: Summand, s2: Summand) -> Verdict:
    """Two smooth summands: x* is a potential minimizer iff the two
    gradient balls, one negated, intersect.

    margin = (L1-mu1)|d1| + (L2-mu2)|d2| - |(L1+mu1) d1 + (L2+mu2) d2|.
    """
    return _member(TWO_SMOOTH, x_star, (), (s1, s2))


def member_smooth_nonsmooth(x_star, smooth: Summand, nonsmooth: Summand) -> Verdict:
    """One smooth and one merely strongly convex summand: the smooth
    gradient ball must meet the negated strong-convexity half-space.

    margin = (L1-mu1)/2 |d1||d2| - mu2 |d2|^2 - (L1+mu1)/2 <d1, d2>.
    """
    return _member(ONE_NONSMOOTH, x_star, (), (smooth, nonsmooth))


def _check_moduli(mu1: float, mu2: float, divides: bool = True) -> None:
    """The one rule for a bounded pair's raw moduli: both finite and
    nonnegative, and, where the formula divides by it, a positive sum;
    ValueError otherwise."""
    if not (math.isfinite(mu1) and math.isfinite(mu2) and mu1 >= 0.0 and mu2 >= 0.0):
        raise ValueError(f"moduli must be finite and nonnegative, got {mu1} and {mu2}")
    if divides and mu1 + mu2 <= 0.0:
        raise ValueError("at least one modulus must be positive")


def min_bound_B(mu1: float, mu2: float, x1, x2) -> float:
    """Smallest gradient cap keeping the bounded two-nonsmooth set
    nonempty: mu1 mu2 / (mu1 + mu2) * |x1 - x2|."""
    _check_moduli(mu1, mu2)
    a1 = as_vec(x1)
    a2 = as_vec(x2, len(a1))
    return mu1 * mu2 / (mu1 + mu2) * float(np.linalg.norm(a1 - a2))


def member_two_nonsmooth_bounded(
    x_star, s1: Summand, s2: Summand, bound_b: float
) -> Verdict:
    """Two nonsmooth summands under a gradient cap |g_i| <= B (_bounded_pair)."""
    b = float(bound_b)
    if not math.isfinite(b) or b < 0.0:
        raise ValueError(f"bound must be finite and nonnegative, got {b}")
    return _member(TWO_NONSMOOTH_BOUNDED, x_star, (), (s1, s2), b)


def member_m_smooth(x_star, summands) -> Verdict:
    """Any number of smooth summands (_ball_chain without known ones)."""
    return _member(M_SMOOTH, x_star, (), summands)


def member_m_one_nonsmooth(x_star, summands) -> Verdict:
    """Smooth summands and one nonsmooth one (_ball_halfspace without known ones)."""
    return _member(ONE_NONSMOOTH, x_star, (), summands)


def member_with_known(x_star, known_functions, unknown_summands) -> Verdict:
    """Smooth unknown summands alongside exactly known ones (_ball_chain)."""
    return _member(KNOWN_SMOOTH, x_star, known_functions, unknown_summands)


def member_with_known_one_nonsmooth(
    x_star, known_functions, unknown_summands
) -> Verdict:
    """Known summands, smooth unknowns and one nonsmooth unknown last
    (_ball_halfspace)."""
    return _member(KNOWN_ONE_NONSMOOTH, x_star, known_functions, unknown_summands)


# ---------------------------------------------------------------------------
# routing


def route(scenario: Scenario) -> str:
    """The predicate matching the scenario's smoothness pattern, picked
    when the scenario was built."""
    if scenario.pattern is None:
        raise UnsupportedPatternError(
            "no predicate fits: known summands combine with at most one nonsmooth "
            "unknown, and two nonsmooth unknowns only come on their own"
        )
    return scenario.pattern


def _kernel(scenario: Scenario):
    """The kernel of the scenario's routed predicate, bound on first use
    and kept on the scenario (Scenario._bound_kernel)."""
    return scenario._bound_kernel


def evaluate(scenario: Scenario, x_star) -> Verdict:
    """Membership verdict for x_star under the scenario's routed predicate
    (route).  x_star is checked first: its faults come before the kernel's."""
    x = as_vec(x_star, scenario.dim)
    return _one_point(_kernel(scenario), x)


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
    # a power of two scales each normal weight exactly and keeps the sum finite
    k = math.frexp(max(weights))[1]
    weights = [math.ldexp(w, -k) for w in weights]
    total = sum(weights)
    return sum((w / total) * s.x_star for w, s in zip(weights, ss))


def witness_gradients(scenario: Scenario, x_star):
    """Subgradients g_i certifying membership of x_star, or None when
    x_star is outside the set.

    One gradient per summand, summing to zero: known summands give their
    exact gradient, the last unknown summand the remainder, and the
    others a point of their gradient set picked by the closed form that
    admitted x_star, written from the parts of the one kernel run that
    gave the verdict (d = x_star - x*; smooth sets are balls B(c, r)):
    - chain: g_i = c_i - (r_i/R) C, C = sum c_i + offset, R = sum r_i,
      as the balls sum to B(sum c_i, R) and admission means |C| <= R;
    - half-space: g_i = c_i - r_i d_m/|d_m|, the ball's point of least
      <g, d_m>, leaves the nonsmooth summand m the kernel's margin;
    - bounded pair: g_1 = -g_2 is the min-norm QP's argmin or, at an
      anchor (no clause fired), the other summand's base-cap gradient,
      which a point admitted only by the tolerance band also takes when
      the argmin exceeds the cap.
    """
    x = as_vec(x_star, scenario.dim)
    margins, eps, fired, parts = _kernel(scenario)(x[None, :])
    margin = margins.item()
    if classify(margin, eps.item()) == OUTSIDE:
        return None
    parts = [p[..., 0] for p in parts]
    # the known quadratics' exact gradients at the x checked above
    known = {id(s): s.known.matrix @ (x - s.known.center) for s in scenario.known_summands}
    offset = sum(known.values(), np.zeros_like(x))
    unknown = scenario.unknown_summands
    nonsmooth = _PATTERNS[scenario.pattern][1]
    if nonsmooth == 2:
        (s1, s2), (d, r) = unknown, parts
        g = _pair_qp(x[None, :], s1, s2)[1][0] if fired.item() & ~COND_BASE else None
        # admitted only by the tolerance band, x may have no gradient
        # meeting both constraints within the cap; keep the cap then
        if g is None or (margin < 0.0 and not np.linalg.norm(g) <= scenario.bound_B):
            g = -s2.params.mu * d[:, 1] if r[0] <= r[1] else s1.params.mu * d[:, 0]
        grads = [g]
    elif nonsmooth == 1:
        # c_i = -coef_i1 d_i and r_i = coef_i0 |d_i| for the smooth i
        d, norms, coef = parts
        u = d[:, 0] / norms[0] if norms[0] > 0.0 else np.zeros_like(x)
        grads = list((d[:, 1:] * -coef[1:, 1] - (coef[1:, 0] * norms[1:]) * u[:, None]).T)
    else:
        # the parts are doubled: 2 c_i, 2 r_i, 2 R and 2 C
        scaled, radii, radius, total = parts
        g = scaled[:, :-1]
        if radius > 0.0:
            g = g - (radii[:-1] / radius) * total[:, None]
        grads = list((0.5 * g).T)
    if unknown:
        grads.append(-offset - sum(grads, np.zeros_like(x)))
    gradient = {**known, **dict(zip(map(id, unknown), grads))}
    return [gradient[id(s)] for s in scenario.summands]


# ---------------------------------------------------------------------------
# rasters


def rasterize_region(scenario: Scenario, bbox, resolution) -> RegionRaster:
    """Evaluate the membership verdict on a grid of cell centers.

    bbox = (xmin, xmax, ymin, ymax), resolution = (nx, ny).  Cells are
    stored row-major from the (xmin, ymin) corner, x fastest.  All cells
    go through the routed kernel as one batch, so each equals `evaluate`
    at its center bit for bit; the raster's predicate is the routed name.
    """
    if scenario.dim != 2:
        raise DimensionMismatchError("rasters are 2-d only")
    xmin, xmax, ymin, ymax = bbox = tuple(map(float, bbox))
    nx, ny = resolution = tuple(map(int, resolution))
    if not np.all(np.isfinite(bbox)):
        raise ValueError("bbox values must be finite")
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("bbox must satisfy xmin < xmax and ymin < ymax")
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be at least 1x1")
    centers = _cell_centers(bbox, resolution)
    # a finite bbox can still be wider than the largest float
    if not np.all(np.isfinite(centers)):
        raise ValueError("cell centers must be finite")
    states, margins, fired = _batch(_kernel(scenario), centers)
    return RegionRaster(bbox, resolution, scenario.pattern, states, margins, fired)
