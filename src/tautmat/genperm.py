"""Lattice generalized permutohedra via integer submodular tables.

A polytope is stored as the full table S -> rk(S) of its support function
on indicator vectors, with rk(empty) = 0.  Base polytopes of matroids, the
standard simplices Delta_S, their negatives, dilates and Minkowski sums all
live here; support functions add under Minkowski sum.
"""

from __future__ import annotations

import os
from operator import sub

from .matroid import Matroid


class SubmodularityViolation(ValueError):
    """The given table is not submodular."""


class GuardrailExceeded(ValueError):
    """Ground set too large for factorial/exponential enumeration."""


DEFAULT_GUARDRAIL = 9


def guardrail_limit():
    env = os.environ.get("TAUTMAT_GUARDRAIL")
    return int(env) if env else DEFAULT_GUARDRAIL


def check_guardrail(n_elements, limit=None):
    cap = limit if limit is not None else guardrail_limit()
    if n_elements > cap:
        raise GuardrailExceeded(
            f"ground set size {n_elements} exceeds the guardrail {cap}; "
            "raise TAUTMAT_GUARDRAIL or pass a larger limit to override"
        )


class GenPermutohedron:
    __slots__ = ("n_elements", "rk")

    def __init__(self, n_elements, rk_table, validate=True):
        rk = list(rk_table)
        if len(rk) != 1 << n_elements:
            raise ValueError("rank table must have an entry per subset")
        if rk[0] != 0:
            raise SubmodularityViolation("rk(empty set) must be 0")
        if validate:
            _check_submodular(n_elements, rk)
        self.n_elements = n_elements
        self.rk = rk

    @property
    def full_mask(self):
        return (1 << self.n_elements) - 1

    def __eq__(self, other):
        return (
            isinstance(other, GenPermutohedron)
            and self.n_elements == other.n_elements
            and self.rk == other.rk
        )

    def __hash__(self):
        return hash((self.n_elements, tuple(self.rk)))

    def __repr__(self):
        return f"GenPermutohedron(n={self.n_elements}, rk(E)={self.rk[-1]})"

    # -- polytope algebra ---------------------------------------------------

    def negate(self):
        full = self.full_mask
        top = self.rk[full]
        rk = [self.rk[full ^ s] - top for s in range(1 << self.n_elements)]
        return GenPermutohedron(self.n_elements, rk, validate=False)

    def minkowski_sum(self, other):
        if self.n_elements != other.n_elements:
            raise ValueError("summands live on different ground sets")
        rk = [a + b for a, b in zip(self.rk, other.rk)]
        return GenPermutohedron(self.n_elements, rk, validate=False)

    def dilate(self, c):
        if c < 0 or c != int(c):
            raise ValueError("dilation factor must be a nonnegative integer")
        return GenPermutohedron(self.n_elements, [c * v for v in self.rk], validate=False)

    def __add__(self, other):
        return self.minkowski_sum(other)

    # -- vertices and lattice points -----------------------------------------

    def vertex_at(self, sigma, sense="max"):
        """The vertex extremal for the permutation order sigma.

        sense='max': coordinates are the greedy increments
        rk({sigma(0..i)}) - rk({sigma(0..i-1)}).  sense='min' is the max
        vertex of the reversed order.
        """
        if sense == "min":
            sigma = tuple(reversed(tuple(sigma)))
        elif sense != "max":
            raise ValueError("sense must be 'max' or 'min'")
        coords = [0] * self.n_elements
        prev = 0
        prefix = 0
        for j in sigma:
            prefix |= 1 << j
            cur = self.rk[prefix]
            coords[j] = cur - prev
            prev = cur
        return tuple(coords)

    def coordinate_bounds(self):
        """Per-coordinate [lo, hi] valid for every point of the polytope."""
        full = self.full_mask
        los, his = [], []
        for i in range(self.n_elements):
            his.append(self.rk[1 << i])
            los.append(self.rk[full] - self.rk[full ^ (1 << i)])
        return los, his

    def count_lattice_points(self, limit=None):
        """Exact number of integer points, counted without listing them.

        One depth-first walk fixes the coordinates 0..n-3 within the
        bounding box intersected with the hyperplane sum x_i = rk(E),
        checking every facet inequality <x, e_S> <= rk(S) incrementally (S
        ranging over the subsets whose largest element is the coordinate
        just fixed).  The last two coordinates a = n-2, b = n-1 are closed
        as an interval: with x_a = v and x_b = remaining - v, the facets
        whose largest element is a bound v above, those containing b but not
        a bound it below, and those containing both do not depend on v.
        """
        check_guardrail(self.n_elements, limit)
        n = self.n_elements
        los, his = self.coordinate_bounds()
        if any(lo > hi for lo, hi in zip(los, his)):
            return 0
        if n < 2:
            # the hyperplane fixes the only coordinate, if any
            return 1
        total = self.rk[self.full_mask]
        suf_lo = [0] * (n + 1)
        suf_hi = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suf_lo[i] = suf_lo[i + 1] + los[i]
            suf_hi[i] = suf_hi[i + 1] + his[i]
        subsum = [0] * (1 << n)
        rk = self.rk
        last = n - 2
        bit_a = 1 << last
        bit_b = bit_a << 1
        # rk(m | a), rk(m | b), rk(m | a | b) for every m below a
        rk_a = rk[bit_a : 2 * bit_a]
        rk_b = rk[bit_b : bit_b + bit_a]
        rk_ab = rk[bit_b + bit_a :]

        def slack(table):
            """min over m below a of rk(m | ...) - subsum[m]."""
            return min(map(sub, table, subsum))

        def descend(i, remaining):
            if i == last:
                if remaining > slack(rk_ab):
                    return 0
                vlo = remaining - slack(rk_b)
                vhi = slack(rk_a)
                return max(0, vhi - vlo + 1)
            lo = max(los[i], remaining - suf_hi[i + 1])
            hi = min(his[i], remaining - suf_lo[i + 1])
            bit = 1 << i
            masks = range(bit)
            count = 0
            for v in range(lo, hi + 1):
                ok = True
                for m in masks:
                    s = subsum[m] + v
                    if s > rk[m | bit]:
                        ok = False
                        break
                    subsum[m | bit] = s
                if ok:
                    count += descend(i + 1, remaining - v)
            return count

        return descend(0, total)


def _check_submodular(n_elements, rk):
    subsets = range(1 << n_elements)
    for s in subsets:
        for t in subsets:
            if rk[s] + rk[t] < rk[s | t] + rk[s & t]:
                raise SubmodularityViolation(
                    f"rk({s:b}) + rk({t:b}) < rk(union) + rk(intersection)"
                )


def base_polytope(m: Matroid) -> GenPermutohedron:
    """P(M), the convex hull of basis indicators; rk table is the rank function."""
    rk = [m.rank(s) for s in range(1 << m.n_elements)]
    return GenPermutohedron(m.n_elements, rk, validate=False)


def simplex(n_elements, subset=None) -> GenPermutohedron:
    """Delta_S = Conv(e_i : i in S); the full simplex when subset is None."""
    full = (1 << n_elements) - 1
    s = full if subset is None else subset
    if not s:
        raise ValueError("simplex needs a nonempty subset")
    rk = [1 if (a & s) else 0 for a in range(1 << n_elements)]
    return GenPermutohedron(n_elements, rk, validate=False)

