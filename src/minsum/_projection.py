"""Projection feasibility of balls and half-spaces.

Internal helper of the numerical feasibility oracle.  Two scalar
solvers project cyclically: a flat one (one unknown vector, a list of
sets) and a sum-constrained block one (several unknown vectors whose
sum must land in a coupled set).  They are the reference the batched
solver is tested against.

batch_block_projection decides many block problems of one shape at
once, one ball per block and one coupled ball or half-space per row of
the arrays in Balls and HalfSpaces: cross_check hands it every
projection problem of one run.  A sum of balls is a ball, so every row
is decided in closed form, with no iteration: a row infeasible by more
than the solver's margin is separated by its gap, and every other row
gets an explicit point, feasible when it lies within tol of every set.

Status strings: "feasible" when the explicit point (an iterate, for the
scalar solvers) lies within tol of every set; "separated" (batch only)
when the closed-form gap certifies an empty intersection; "undecided"
(batch only) when rounding leaves the closed-form point just beyond
tol; "stagnated" (scalar only) when the residual plateaus well above
tol (strong numerical evidence of an empty intersection, but not a
certificate); "cap" (scalar only) when the iteration budget runs out
undecided.
"""
from __future__ import annotations

import numpy as np

from .geometry import fold

# residual is re-checked every window; a relative drop below STALL_FRACTION
# over one window counts as a plateau.  1/k-style tails near tangency keep
# shrinking faster than this until far beyond any sane cap, so genuinely
# feasible-but-degenerate systems end in "cap", not "stagnated".
_WINDOW = 50
_STALL_FRACTION = 1e-5
_STALL_RESIDUAL_FACTOR = 10.0


def _stalled(res, prev, tol):
    """A plateau well above tol over one window."""
    return (res > _STALL_RESIDUAL_FACTOR * tol) & (prev - res < _STALL_FRACTION * res)


def _max_violation(sets, g) -> float:
    return max((s.distance(g) for s in sets), default=0.0)


def cyclic_projection(sets, dim: int, tol: float, max_iter: int):
    """Project one vector cyclically onto every set.

    Returns (status, point, residual, iterations).
    """
    g = np.zeros(dim)
    if sets:
        g = sets[0].project(g)
    prev = np.inf
    res = _max_violation(sets, g)
    if res <= tol:
        return "feasible", g, res, 0
    for it in range(1, max_iter + 1):
        for s in sets:
            g = s.project(g)
        res = _max_violation(sets, g)
        if res <= tol:
            return "feasible", g, res, it
        if it % _WINDOW == 0:
            if _stalled(res, prev, tol):
                return "stagnated", g, res, it
            prev = res
    return "cap", g, res, max_iter


def block_cyclic_projection(block_sets, coupled, dim: int, tol: float, max_iter: int):
    """Feasibility of z_1..z_k with z_i in every set of block_sets[i] and
    sum(z_i) in the coupled set.

    Returns (status, blocks, residual, iterations).  The sum constraint is
    handled as a projection in the product space: move the block sum to
    its projection onto the coupled set, spreading the correction evenly
    (the summation map has orthogonal rows, so this is the exact metric
    projection onto that constraint).
    """
    k = len(block_sets)
    z = [sets_i[0].project(np.zeros(dim)) if sets_i else np.zeros(dim) for sets_i in block_sets]

    def residual():
        r = coupled.distance(sum(z)) if k else 0.0
        for zi, sets_i in zip(z, block_sets):
            r = max(r, _max_violation(sets_i, zi))
        return r

    prev = np.inf
    res = residual()
    if res <= tol:
        return "feasible", z, res, 0
    for it in range(1, max_iter + 1):
        for i, sets_i in enumerate(block_sets):
            for s in sets_i:
                z[i] = s.project(z[i])
        total = sum(z)
        corr = (coupled.project(total) - total) / k
        z = [zi + corr for zi in z]
        res = residual()
        if res <= tol:
            return "feasible", z, res, it
        if it % _WINDOW == 0:
            if _stalled(res, prev, tol):
                return "stagnated", z, res, it
            prev = res
    return "cap", z, res, max_iter


# ---------------------------------------------------------------------------
# batched solver.  Its sets keep their data with the coordinate axis
# first and the row axis last: arrays are given row first, (N, n) or
# (N, k, n) with one set per row (and block), and stored transposed.


class Balls:
    """Closed balls |g - centre| <= radius."""

    def __init__(self, centres, radii):
        self.centres = np.ascontiguousarray(np.asarray(centres, dtype=float).T)
        self.radii = np.ascontiguousarray(np.asarray(radii, dtype=float).T)

    def signed_distance(self, g):
        """|g - centre| - radius, negative inside."""
        d = g - self.centres
        return np.sqrt(fold(d * d)) - self.radii

    def toward(self, g):
        """The unit vector from g toward the centre; zero at the centre."""
        d = self.centres - g
        n = np.sqrt(fold(d * d))
        return d / np.where(n > 0.0, n, 1.0)


class HalfSpaces:
    """Closed half-spaces <normal, g> <= offset.  A zero normal is vacuous
    when its offset is nonnegative and empty otherwise, as in
    geometry.HalfSpace."""

    def __init__(self, normals, offsets):
        self.normals = np.ascontiguousarray(np.asarray(normals, dtype=float).T)
        self.offsets = np.ascontiguousarray(np.asarray(offsets, dtype=float).T)
        n2 = fold(self.normals * self.normals)
        self._zero = n2 == 0.0
        # a zero normal has no direction: it divides by 1, so toward
        # gives 0.  Its signed distance is set apart: every point lies
        # infinitely deep in a vacuous set, and infinitely far from an
        # empty one
        self._norm = np.where(self._zero, 1.0, np.sqrt(n2))
        self._zero_signed = np.where(self.offsets >= 0.0, -np.inf, np.inf)

    def signed_distance(self, g):
        """(<normal, g> - offset) / |normal|, negative inside."""
        d = (fold(self.normals * g) - self.offsets) / self._norm
        return np.where(self._zero, self._zero_signed, d)

    def toward(self, g):
        """The unit vector -normal / |normal|, into the set from any g."""
        return -self.normals / self._norm


_STATUS = np.array(["feasible", "separated", "undecided"])


def _row_violation(balls, coupled, z):
    """Each row's largest distance: of the block sum from the coupled
    set, and of each block from its ball, each 0 inside its set."""
    outside = np.maximum(0.0, coupled.signed_distance(fold(z, -2)))
    return np.maximum(outside, np.maximum(0.0, balls.signed_distance(z)).max(axis=0))


def batch_block_projection(balls, coupled, tol: float):
    """block_cyclic_projection of N problems with one ball per block,
    decided at once in closed form.

    balls holds N rows of k balls, (N, k, n), and coupled N rows of one
    Balls or HalfSpaces set.  Row r is the problem with z_i in ball i of
    row r and z_1 + ... + z_k in row r of coupled.

    The block sum ranges over the ball B(C, R), C = sum c_i and
    R = sum r_i.  With s the coupled set's signed distance from C, a
    row's gap is s - R.  A row whose gap exceeds (k + 1) tol is
    "separated", with the gap as its residual.  Every other row gets an
    explicit point: each block moves from its centre along u, the unit
    vector from C toward the coupled set (coupled.toward), by

    * r_i delta / R, where delta = max(0, s) <= R.  Each z_i stays in its
      ball and the sum moves by delta, onto the coupled set: the point
      is exact;
    * r_i + gap / (k + 1) otherwise, where 0 < gap <= (k + 1) tol.  Each
      z_i lies gap / (k + 1) outside its ball, and the sum, moved by
      R + k gap / (k + 1), lies gap / (k + 1) outside the coupled set.

    A point with each z_i and the sum within tol of their sets has its
    sum within R + k tol of C, so its row's gap is at most (k + 1) tol;
    the second point reaches that bound.  So the margin separates just
    the rows that have no such point, and the point of every other row
    lies within gap / (k + 1) <= tol of every set.

    The certificate reads the row's own sets alone: a row is "feasible"
    when _row_violation of its point is at most tol, with that as its
    residual, and "undecided" when rounding leaves the point beyond tol.
    A zero R, C at a coupled ball's centre and a zero normal each give a
    zero move or a separated row.

    Returns (status, residual), arrays of N entries.
    """
    k = balls.radii.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        centre, radius = fold(balls.centres, -2), fold(balls.radii)
        signed = coupled.signed_distance(centre)
        gap = signed - radius
        delta = np.maximum(signed, 0.0)
        move = balls.radii * np.where(delta < radius, delta / radius, 1.0)
        move = move + np.maximum(gap, 0.0) / (k + 1)
        z = balls.centres + move * coupled.toward(centre)[:, None]
        res = _row_violation(balls, coupled, z)
    separated = gap > (k + 1) * tol
    status = np.where(separated, 1, np.where(res <= tol, 0, 2))
    return _STATUS[status], np.where(separated, gap, res)
