"""Cyclic projection onto balls and half-spaces.

Internal helper of the numerical feasibility oracle.  Two scalar
solvers: a flat one (one unknown vector, a list of sets) and a
sum-constrained block one (several unknown vectors whose sum must land
in a coupled set).  The flat one serves feasibility_by_projection, and
both are the reference the batched solver is tested against.

batch_block_projection solves many block problems of one shape at once,
one per row of the set arrays in Balls and HalfSpaces: cross_check
hands it every projection problem of one run.  Each row follows the
scalar rules step for step, with the flat problem as the one-block
case, and so keeps the scalar call's status and iteration count, except
that a row the scalar call leaves stagnated or at the cap may leave
early, separated.  Single problems stay on the faster scalar solvers.

Status strings: "feasible" when the residual drops below tol;
"separated" (batch only) when a direction separates the block sum's
sets from the coupled set, a certificate of an empty intersection
(Bauschke & Borwein, SIAM Review 38, 1996); "stagnated" when the
residual plateaus well above tol (strong numerical evidence of an empty
intersection, but not a certificate); "cap" when the iteration budget
runs out undecided.
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
    """A plateau well above tol over one window; elementwise on arrays."""
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

    def take(self, keep):
        """The rows where the boolean mask keep is set."""
        out = object.__new__(type(self))
        out.__dict__ = {
            name: np.compress(keep, a, axis=-1) for name, a in self.__dict__.items()
        }
        return out

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


def _shape(sets):
    """(n, N) or (n, k, N): coordinates, blocks if any, rows."""
    return (sets.centres if isinstance(sets, Balls) else sets.normals).shape


def _separation(blocks, coupled, t, p):
    """Per row, sum_i min <u, z_i> over block i's sets minus max <u, g>
    over the coupled set, for a unit u: where it is positive, u separates
    the block sum's sets from the coupled set and the row is infeasible.
    u = n/|n| for a coupled half-space (max offset/|n|), else
    (t - p)/|t - p| for the block sum t and its projection p (max
    <centre, u> + radius).  Block i's min is at least the largest
    <centre, u> - radius of its Balls entries, and two disjoint Balls
    entries leave it empty, so their gap counts too.  The NaN of a
    zero normal or of t inside the coupled ball certifies nothing.
    """
    if isinstance(coupled, HalfSpaces):
        u = coupled.normals / coupled._norm
        top = coupled.offsets / coupled._norm
    else:
        u = t - p
        u = u / np.sqrt(_dot(u, u))
        top = _dot(coupled.centres, u) + coupled.radii
    balls = [s for s in blocks if isinstance(s, Balls)]
    low = apart = np.full(_shape(blocks[0])[1:], -np.inf)
    for a, s in enumerate(balls):
        low = np.maximum(low, _dot(s.centres, u[:, None]) - s.radii)
        for b in balls[:a]:
            apart = np.maximum(apart, s.signed_distance(b.centres) - b.radii)
    out = low[0]
    for i in range(1, len(low)):
        out = out + low[i]
    return np.fmax(out - top, apart.max(axis=0))


_STATUS = np.array(["feasible", "separated", "stagnated", "cap"])
_UNDECIDED = 3


def batch_block_projection(blocks, coupled, tol: float, max_iter: int):
    """block_cyclic_projection of N problems with k blocks each, at once.

    blocks lists the sets every block must meet, at least one, in
    projection order: each is a Balls or HalfSpaces holding N rows of k
    sets.  coupled holds N rows of one set.  Row r is the problem with
    z_i in the i-th set of row r of every entry of blocks, and
    z_1 + ... + z_k in row r of coupled.  With k = 1 the coupled projection
    replaces the block vector outright, which makes the one-block
    problem cyclic_projection over blocks followed by coupled.

    At iteration 0, every power of two and every stagnation window, an
    undecided row whose _separation exceeds (k + 1) tol is "separated",
    with that separation as its residual.  The sets of a row the solver
    could still call feasible (each z_i and the sum within tol of their
    sets) lie within that margin.  A row leaves the batch once it is
    decided, and N = 0 returns at once.

    Returns (status, residual, iterations), arrays of N entries.
    """
    dim, n_rows = _shape(coupled)
    k = _shape(blocks[0])[1]
    status = np.full(n_rows, _UNDECIDED)
    residual = np.zeros(n_rows)
    iterations = np.full(n_rows, max_iter)
    if not n_rows:
        return _STATUS[status], residual, iterations
    rows = np.arange(n_rows)
    prev = np.full(n_rows, np.inf)

    def total():
        out = z[:, 0]
        for i in range(1, k):
            out = out + z[:, i]
        return out

    def max_violation():
        r = coupled.distance(total())
        for s in blocks:
            r = np.maximum(r, s.distance(z).max(axis=0))
        return r

    with np.errstate(divide="ignore", invalid="ignore"):
        z = blocks[0].project(np.zeros((dim, k, n_rows)))
        t = total()
        p = coupled.project(t)
        res = max_violation()
        for it in range(max_iter + 1):
            if it:
                for s in blocks:
                    z = s.project(z)
                t = total()
                p = coupled.project(t)
                z = p[:, None] if k == 1 else z + ((p - t) / k)[:, None]
                res = max_violation()
            done = res <= tol
            code = 0  # without the tests below only feasibility decides a row
            if not it & (it - 1) or not it % _WINDOW:
                gap = _separation(blocks, coupled, t, p)
                code = np.where(done, 0, np.where(gap > (k + 1) * tol, 1, _UNDECIDED))
                if it and not it % _WINDOW:
                    code[(code == _UNDECIDED) & _stalled(res, prev, tol)] = 2
                    prev = res
                res = np.where(code == 1, gap, res)
                done = code != _UNDECIDED
            if np.count_nonzero(done):
                finished = rows[done]
                status[finished] = np.broadcast_to(code, done.shape)[done]
                residual[finished] = res[done]
                iterations[finished] = it
                keep = ~done
                if not np.count_nonzero(keep):
                    break
                rows, res, prev = rows[keep], res[keep], prev[keep]
                # compress keeps the arrays contiguous, unlike a[..., keep]
                z = np.compress(keep, z, axis=-1)
                blocks = [s.take(keep) for s in blocks]
                coupled = coupled.take(keep)
        else:
            # rows still undecided at the cap
            residual[rows] = res
    return _STATUS[status], residual, iterations
