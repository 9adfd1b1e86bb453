"""Cyclic projection onto balls and half-spaces.

Internal helper of the numerical feasibility oracle.  Two scalar
solvers: a flat one (one unknown vector, a list of sets) and a
sum-constrained block one (several unknown vectors whose sum must land
in a coupled set).  The flat one serves feasibility_by_projection, and
both are the reference the batched solver is tested against.

batch_block_projection solves many block problems of one shape at once,
one ball per block and one coupled ball or half-space per row of the
arrays in Balls and HalfSpaces: cross_check hands it every projection
problem of one run.  A sum of balls is a ball, so each row's gap is
known in closed form before the loop, and a row infeasible by more
than the solver's margin leaves at once, separated.  Every other row
follows the scalar iteration step for step, with the flat problem as the
one-block case.  Every few iterations a row also tries points along its
last step, each followed by one plain step, and leaves when one of them
lies within tol of every set: near tangency the plain iterates crawl
toward the intersection, and such a point reaches it far sooner.  So a
row the scalar call finds feasible is feasible here in at most the
scalar's iterations, and a row the scalar call leaves at the cap may be
found feasible.  Single problems stay on the faster scalar solvers.

Status strings: "feasible" when the residual of the iterate, or of a
point tried along its step, drops below tol (an explicit point within
tol of every set); "separated" (batch only) when the closed-form gap
certifies an empty intersection; "stagnated" (scalar only) when the
residual plateaus well above tol (strong numerical evidence of an empty
intersection, but not a certificate); "cap" when the iteration budget
runs out undecided.
The batch needs no plateau test: a row the gap leaves in the loop is
infeasible by at most its margin, too little for a plateau.
"""
from __future__ import annotations

import numpy as np

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
# batched solver


def _dot(a, b):
    """<a, b> over the first (coordinate) axis, summed left to right, so
    a row's value does not depend on how many rows there are."""
    out = a[0] * b[0]
    for j in range(1, a.shape[0]):
        out = out + a[j] * b[j]
    return out


class _RowSets:
    """Set data with the row axis last, so rows can be dropped uniformly.
    Arrays are given row first, (N, n) or (N, k, n) with one set per row
    (and block), and stored transposed, coordinates first."""

    def _map(self, f):
        out = object.__new__(type(self))
        out.__dict__ = {name: f(a) for name, a in self.__dict__.items()}
        return out

    def take(self, keep):
        """The rows where the boolean mask keep is set."""
        return self._map(lambda a: np.compress(keep, a, axis=-1))

    def repeat(self, rows, count):
        """The rows in the slice rows, each repeated count times."""
        return self._map(lambda a: np.repeat(a[..., rows], count, axis=-1))

    def distance(self, g):
        return np.maximum(0.0, self.signed_distance(g))


class Balls(_RowSets):
    """Closed balls |g - centre| <= radius."""

    def __init__(self, centres, radii):
        self.centres = np.ascontiguousarray(np.asarray(centres, dtype=float).T)
        self.radii = np.ascontiguousarray(np.asarray(radii, dtype=float).T)

    def signed_distance(self, g):
        """|g - centre| - radius, negative inside."""
        d = g - self.centres
        return np.sqrt(_dot(d, d)) - self.radii

    def project(self, g):
        d = g - self.centres
        n = np.sqrt(_dot(d, d))
        return np.where(n > self.radii, self.centres + d * (self.radii / n), g)


class HalfSpaces(_RowSets):
    """Closed half-spaces <normal, g> <= offset.  A zero normal is vacuous
    when its offset is nonnegative and empty otherwise, as in
    geometry.HalfSpace."""

    def __init__(self, normals, offsets):
        self.normals = np.ascontiguousarray(np.asarray(normals, dtype=float).T)
        self.offsets = np.ascontiguousarray(np.asarray(offsets, dtype=float).T)
        n2 = _dot(self.normals, self.normals)
        self._norm = np.sqrt(n2)
        self._zero = n2 == 0.0
        # a zero normal makes every step, and so the projection, zero
        self._n2 = np.where(self._zero, 1.0, n2)
        # every point lies infinitely deep in a vacuous set, and
        # infinitely far from an empty one
        self._zero_signed = np.where(self.offsets >= 0.0, -np.inf, np.inf)

    def signed_distance(self, g):
        """(<normal, g> - offset) / |normal|, negative inside."""
        d = (_dot(self.normals, g) - self.offsets) / self._norm
        return np.where(self._zero, self._zero_signed, d)

    def project(self, g):
        v = _dot(self.normals, g) - self.offsets
        return g - (np.maximum(v, 0.0) / self._n2) * self.normals


_STATUS = np.array(["feasible", "separated", "cap"])

# every _EXTRAPOLATE iterations each row also tries the points one step
# after z + m (z - z_prev), m in _STRETCH: near tangency the steps shrink
# while keeping their direction, so one of these points comes within tol
# of every set long before the plain iterates do.  At most
# _CANDIDATE_FLOATS candidate coordinates are held at a time, so memory
# stays flat however many rows a batch has
_EXTRAPOLATE = 8
_STRETCH = 1.25 ** np.arange(1, 80)
_CANDIDATE_FLOATS = 1 << 16


def _block_sum(a):
    """a summed over its block axis (second to last), left to right."""
    out = a[..., 0, :]
    for i in range(1, a.shape[-2]):
        out = out + a[..., i, :]
    return out


def _step(balls, coupled, z):
    """One round of the block iteration: each block onto its ball, then
    the block sum onto the coupled set, the correction spread evenly over
    the k blocks.  With k = 1 the coupled projection replaces the block
    vector outright."""
    k = z.shape[1]
    z = balls.project(z)
    t = _block_sum(z)
    p = coupled.project(t)
    return p[:, None] if k == 1 else z + ((p - t) / k)[:, None]


def _row_violation(balls, coupled, z):
    """Each row's largest distance: of the block sum from the coupled
    set, and of each block from its ball."""
    return np.maximum(coupled.distance(_block_sum(z)), balls.distance(z).max(axis=0))


def _extrapolated(balls, coupled, z, step):
    """Each row's smallest _row_violation over the points one _step
    after z + m step, m in _STRETCH."""
    dim, k, n_rows = z.shape
    count = len(_STRETCH)
    chunk = max(1, _CANDIDATE_FLOATS // (count * dim * k))
    best = np.empty(n_rows)
    for lo in range(0, n_rows, chunk):
        rows = slice(lo, lo + chunk)
        w = (z[..., rows, None] + step[..., rows, None] * _STRETCH).reshape(dim, k, -1)
        b, c = balls.repeat(rows, count), coupled.repeat(rows, count)
        v = _row_violation(b, c, _step(b, c, w))
        best[rows] = v.reshape(-1, count).min(axis=1)
    return best


def batch_block_projection(balls, coupled, tol: float, max_iter: int):
    """block_cyclic_projection of N problems with one ball per block, at
    once.

    balls holds N rows of k balls, (N, k, n), and coupled N rows of one
    Balls or HalfSpaces set.  Row r is the problem with z_i in ball i of
    row r and z_1 + ... + z_k in row r of coupled.  With k = 1 the coupled
    projection replaces the block vector outright, which makes the
    one-block problem cyclic_projection over the ball and then coupled.

    Before the loop each row gets its gap in closed form: the block sum
    ranges over the ball B(sum c_i, sum r_i), so the gap is the coupled
    set's signed distance from sum c_i less sum r_i.  A row whose gap
    exceeds (k + 1) tol is "separated" at iteration 0, with the gap as its
    residual: the sets of a row the solver could still call feasible
    (each z_i and the sum within tol of their sets) lie within that
    margin.  Every other row stays in the loop until it is "feasible", or
    else ends at the "cap"; it leaves the batch once it is decided, and
    N = 0 returns at once.

    The loop's iterates are those of the scalar solver.  At every
    _EXTRAPOLATE-th iteration each row still in the loop also tries, with
    one vectorized call, the points one _step after z + m (z - z_prev)
    for m in _STRETCH, z_prev being its previous iterate.  A row whose
    best such point lies within tol of every set leaves as "feasible",
    with that point's residual: the same certificate as a plain iterate,
    from the oracle's own sets alone.  A row the scalar solver finds
    feasible is thus feasible in at most its iterations, and a row it
    leaves at the cap may be found feasible too.

    Returns (status, residual, iterations), arrays of N entries.
    """
    dim, k, _ = balls.centres.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = coupled.signed_distance(_block_sum(balls.centres)) - _block_sum(balls.radii)
        separated = gap > (k + 1) * tol
        # indices into _STATUS: a row not yet decided is at the cap
        status = np.where(separated, 1, 2)
        residual = np.where(separated, gap, 0.0)
        iterations = np.where(separated, 0, max_iter)
        rows = np.flatnonzero(~separated)
        if not len(rows):
            return _STATUS[status], residual, iterations
        balls, coupled = balls.take(~separated), coupled.take(~separated)
        z = balls.project(np.zeros((dim, k, len(rows))))
        res = _row_violation(balls, coupled, z)
        for it in range(max_iter + 1):
            if it:
                prev, z = z, _step(balls, coupled, z)
                res = _row_violation(balls, coupled, z)
            done = res <= tol
            if it and it % _EXTRAPOLATE == 0:
                best = _extrapolated(balls, coupled, z, z - prev)
                jump = ~done & (best <= tol)
                res = np.where(jump, best, res)
                done |= jump
            if np.count_nonzero(done):
                finished = rows[done]
                status[finished] = 0
                residual[finished] = res[done]
                iterations[finished] = it
                keep = ~done
                if not np.count_nonzero(keep):
                    break
                rows, res = rows[keep], res[keep]
                # compress keeps the arrays contiguous, unlike a[..., keep]
                z = np.compress(keep, z, axis=-1)
                balls, coupled = balls.take(keep), coupled.take(keep)
        else:
            # rows still undecided at the cap
            residual[rows] = res
    return _STATUS[status], residual, iterations
