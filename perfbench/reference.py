"""Independent reference for the benchmark's output checks.

The closed-form membership predicates, written again from their
published formulas with numpy over whole point arrays.  Nothing here
imports minsum, so a change to the program cannot also change what its
output is checked against.  The arithmetic order differs from the
program's scalar path, so margins agree to the last few ulps, far inside
the tolerance band `eps` (1e-9 * (1 + largest finite input magnitude),
the program's documented policy) that the checks allow.
"""
from __future__ import annotations

import math

import numpy as np

TOL_COEFFICIENT = 1e-9
COND_BASE, COND_FIRST, COND_SECOND, COND_DET = 1, 2, 4, 8
INSIDE, BOUNDARY, OUTSIDE = "inside", "boundary", "outside"
STATE_CODE = {INSIDE: 0, OUTSIDE: 1, BOUNDARY: 2}
# a state may differ from the reference only when the reference margin
# sits this close (relative) to the classification threshold +-eps
THRESHOLD_SHELL = 1e-6


class Model:
    """A scenario dict (inputs.scenario_dict) as arrays, split the way
    the program routes it."""

    def __init__(self, scenario: dict):
        ss = scenario["summands"]
        self.bound = scenario.get("bound_B")
        self.known = [
            (np.array(s["known"]["matrix"], float), np.array(s["known"]["center"], float))
            for s in ss
            if "known" in s
        ]
        unknown = [s for s in ss if "known" not in s]
        smooth = [s for s in unknown if s["L"] != "inf"]
        nonsmooth = [s for s in unknown if s["L"] == "inf"]
        self.smooth = [(np.array(s["x_star"], float), float(s["mu"]), float(s["L"])) for s in smooth]
        self.nonsmooth = [(np.array(s["x_star"], float), float(s["mu"])) for s in nonsmooth]
        if self.known:
            self.pattern = "known_smooth" if not nonsmooth else "known_one_nonsmooth"
        elif not nonsmooth:
            self.pattern = "two_smooth" if len(unknown) == 2 else "m_smooth"
        elif len(nonsmooth) == 1:
            self.pattern = "one_nonsmooth"
        else:
            self.pattern = "two_nonsmooth_bounded"
        self.dim = len(ss[0]["x_star"])

    def _known_grad(self, x):
        g = np.zeros_like(x)
        for a, c in self.known:
            g = g + (x - c) @ a.T
        return g

    def _static_scale(self) -> float:
        """Largest magnitude among the unknown summands' anchors and
        finite class constants, the inputs every predicate's eps sees."""
        vals = [0.0]
        vals += [float(np.abs(s[0]).max()) for s in self.smooth + self.nonsmooth]
        for _, mu, big_l in self.smooth:
            vals += [mu, big_l]
        vals += [mu for _, mu in self.nonsmooth]
        return max(vals)

    def classify(self, x):
        """(states, margins, eps, clause bits) for points x of shape (N, n)."""
        x = np.asarray(x, float)
        rowmax = np.abs(x).max(axis=1)
        bits = np.zeros(len(x), dtype=np.int64)
        if self.pattern in ("two_smooth", "m_smooth", "known_smooth"):
            total = np.zeros_like(x)
            slack = np.zeros(len(x))
            if self.known:
                total = total + 2.0 * self._known_grad(x)
            for xs, mu, big_l in self.smooth:
                d = x - xs
                total = total + (big_l + mu) * d
                slack = slack + (big_l - mu) * np.sqrt((d * d).sum(axis=1))
            margin = slack - np.sqrt((total * total).sum(axis=1))
            scale = np.maximum(rowmax, self._static_scale())
            if self.known:
                scale = np.maximum(scale, np.abs(total).max(axis=1))
        elif self.pattern in ("one_nonsmooth", "known_one_nonsmooth"):
            xm, mum = self.nonsmooth[0]
            dm = x - xm
            rm = np.sqrt((dm * dm).sum(axis=1))
            margin = -mum * rm * rm
            scale = np.maximum(rowmax, self._static_scale())
            if self.known:
                grad = self._known_grad(x)
                margin = margin - (grad * dm).sum(axis=1)
                scale = np.maximum(scale, np.abs(grad).max(axis=1))
            for xs, mu, big_l in self.smooth:
                d = x - xs
                margin = margin + 0.5 * (big_l - mu) * np.sqrt((d * d).sum(axis=1)) * rm
                margin = margin - 0.5 * (big_l + mu) * (d * dm).sum(axis=1)
        else:
            margin, scale, bits = self._bounded(x, rowmax)
        eps = TOL_COEFFICIENT * (1.0 + scale)
        states = np.where(margin > eps, INSIDE, np.where(margin < -eps, OUTSIDE, BOUNDARY))
        return states, margin, eps, bits

    def _bounded(self, x, rowmax):
        (x1, mu1), (x2, mu2) = self.nonsmooth
        b = float(self.bound)
        scale = np.maximum(rowmax, max(float(np.abs(x1).max()), float(np.abs(x2).max()), mu1, mu2, b))
        eps = TOL_COEFFICIENT * (1.0 + scale)
        d1 = x - x1
        d2 = x - x2
        r1 = np.sqrt((d1 * d1).sum(axis=1))
        r2 = np.sqrt((d2 * d2).sum(axis=1))
        base = np.minimum(b - mu1 * r1, b - mu2 * r2)
        dot = (d1 * d2).sum(axis=1)
        c1 = -mu1 * dot - mu2 * r2 * r2
        c2 = -mu2 * dot - mu1 * r1 * r1
        with np.errstate(divide="ignore", invalid="ignore"):
            c = dot / (r1 * r2)
        a = mu1 * r1
        bb = -mu2 * r2
        alpha = b * b
        c3 = (alpha - bb * bb) - c * (c * alpha - bb * a) + a * (c * bb - a)
        degenerate = (r1 <= eps) | (r2 <= eps)
        margin = np.where(degenerate, base, np.minimum(base, np.maximum(np.maximum(c1, c2), c3)))
        bits = np.where(base >= -eps, COND_BASE, 0)
        for bit, v in ((COND_FIRST, c1), (COND_SECOND, c2), (COND_DET, c3)):
            bits = bits | np.where(~degenerate & (v >= -eps), bit, 0)
        return margin, scale, bits

    def focal(self):
        """The focal point: (L+mu)-weighted anchor mean for all-smooth
        unknowns, mu-weighted for the bounded pair, else None."""
        if self.known:
            return None
        if not self.nonsmooth:
            w = [big_l + mu for _, mu, big_l in self.smooth]
            pts = [s[0] for s in self.smooth]
        elif len(self.nonsmooth) == 2 and not self.smooth:
            w = [mu for _, mu in self.nonsmooth]
            pts = [s[0] for s in self.nonsmooth]
        else:
            return None
        total = sum(w)
        return sum((wi / total) * p for wi, p in zip(w, pts))


def state_mismatches(states, margins, eps, ref_states, ref_margins):
    """Indices where the program's states or margins disagree with the
    reference beyond what last-ulp differences can explain."""
    states = np.asarray(states)
    margins = np.asarray(margins, float)
    margin_bad = ~(np.abs(margins - ref_margins) <= eps)
    near = np.abs(np.abs(ref_margins) - eps) <= THRESHOLD_SHELL * eps
    state_bad = (states != ref_states) & ~near
    return np.flatnonzero(margin_bad | state_bad)


def condition_mismatches(bits, ref_bits):
    """Indices whose clause bits differ (only the bounded pattern sets
    them; a clause value within ulps of -eps is vanishingly rare)."""
    return np.flatnonzero(np.asarray(bits) != ref_bits)


def witness_condition(x, g, x_star, mu, big_l) -> float:
    """Slack of <g, x - x*> >= (1 + mu/L)^-1 (|g|^2/L + mu |x - x*|^2),
    the one-point condition every witness gradient must meet."""
    dx = x - x_star
    if math.isinf(big_l):
        return float(g @ dx) - mu * float(dx @ dx)
    q = 1.0 / (1.0 + mu / big_l)
    return float(g @ dx) - q * (float(g @ g) / big_l + mu * float(dx @ dx))
