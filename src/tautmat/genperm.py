"""Lattice generalized permutohedra via integer submodular tables.

A polytope is stored as the full table S -> rk(S) of its support function
on indicator vectors, with rk(empty) = 0.  Base polytopes of matroids, the
standard simplices Delta_S, their negatives, dilates and Minkowski sums all
live here; support functions add under Minkowski sum.
"""

from __future__ import annotations

import os

from .matroid import Matroid


class SubmodularityViolation(ValueError):
    """The given table is not submodular."""


class GuardrailExceeded(ValueError):
    """Ground set too large for factorial/exponential enumeration."""


DEFAULT_GUARDRAIL = 9


def check_guardrail(n_elements):
    raw = os.environ.get("TAUTMAT_GUARDRAIL")
    try:
        cap = int(raw or DEFAULT_GUARDRAIL)
    except ValueError:
        raise ValueError(f"TAUTMAT_GUARDRAIL={raw!r} is not an integer") from None
    if n_elements > cap:
        raise GuardrailExceeded(
            f"ground set size {n_elements} exceeds the guardrail {cap}; "
            "raise TAUTMAT_GUARDRAIL or --max-ground to override"
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

    def vertex_at(self, sigma):
        """The vertex maximal for the permutation order sigma.

        Its coordinates are the greedy increments rk({sigma(0..i)}) -
        rk({sigma(0..i-1)}); the vertex minimal for sigma is minus the
        maximal vertex of negate().
        """
        coords = [0] * self.n_elements
        prev = 0
        prefix = 0
        for j in sigma:
            prefix |= 1 << j
            cur = self.rk[prefix]
            coords[j] = cur - prev
            prev = cur
        return tuple(coords)

    def count_lattice_points(self, memo=None):
        """Exact number of integer points, counted without listing them.

        The points are the integer x with x(S) <= rk(S) for every S and
        x(E) = rk(E).  Once x_0..x_{i-1} are fixed, what is left to count
        depends only on the table b(T) = min over fixed m of rk(m | T) - x(m)
        for T within {i..n-1}, indexed with coordinate i as bit 0; its last
        entry is the sum still to place.  Fixing x_i = v maps b to b'(t) =
        min(b[2t], b[2t+1] - v): the subsets without i and with it.  v ranges
        from b[-1] - b[-2] (the later coordinates must fit, which keeps
        b'[-1] = b[-1] - v) to b[1] (which keeps b'[0] >= 0, every facet on
        fixed coordinates alone).  The count is the backward recursion
        count(b) = sum over v of count(b'), which ends at the last two
        coordinates: x_{n-1} = b[3] - v fits iff v >= b[3] - b[2], so there
        are max(0, b[1] + b[2] - b[3] + 1) points.

        memo maps tables b to their counts.  A table alone fixes its
        completions: its length gives the coordinates left, and it holds
        every facet they still meet.  So a key means the same count whatever
        polytope or prefix reached it, and one memo may serve many
        polytopes, as it serves the Cameron-Fink grid (invariants.cf_check).
        Without one, each call uses a fresh dict.
        """
        check_guardrail(self.n_elements)
        if self.n_elements < 2:
            return 1
        return _count_completions(tuple(self.rk), {} if memo is None else memo)


def _count_completions(b, memo):
    """count(b) of GenPermutohedron.count_lattice_points, b of length >= 4."""
    if len(b) == 4:
        return max(0, b[1] + b[2] - b[3] + 1)
    ways = memo.get(b)
    if ways is None:
        pairs = tuple(zip(b[0::2], b[1::2]))
        ways = sum(
            _count_completions(tuple([e if e < o - v else o - v for e, o in pairs]), memo)
            for v in range(b[-1] - b[-2], b[1] + 1)
        )
        memo[b] = ways
    return ways


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
    return GenPermutohedron(m.n_elements, m.rank_table(), validate=False)


def simplex(n_elements, subset=None) -> GenPermutohedron:
    """Delta_S = Conv(e_i : i in S); the full simplex when subset is None."""
    full = (1 << n_elements) - 1
    s = full if subset is None else subset
    if not s:
        raise ValueError("simplex needs a nonempty subset")
    rk = [1 if (a & s) else 0 for a in range(1 << n_elements)]
    return GenPermutohedron(n_elements, rk, validate=False)

