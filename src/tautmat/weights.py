"""Minkowski weights on the permutohedral fan and the balancing condition.

A d-dimensional weight assigns an integer to every chain of d nonempty
proper subsets of E (the d-dimensional cones); only nonzero entries are
stored.  Balancing is checked with fraction-free Gauss-Jordan elimination
over the integers: for every (d-1)-chain, the weighted sum of inserted ray generators must
lie in the span of the chain's own rays (mod the all-ones vector).
"""

from __future__ import annotations

from .matroid import bits


class MinkowskiWeight:
    __slots__ = ("ground", "dim", "weights")

    def __init__(self, ground, dim, weights):
        self.ground = ground
        self.dim = dim
        self.weights = {tuple(ch): int(w) for ch, w in weights.items() if w}

    def value(self, chain):
        return self.weights.get(tuple(chain), 0)

    def __eq__(self, other):
        return (
            isinstance(other, MinkowskiWeight)
            and self.ground == other.ground
            and self.dim == other.dim
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"MinkowskiWeight(dim={self.dim}, nonzero={len(self.weights)})"

    def scaled(self, c):
        return MinkowskiWeight(
            self.ground, self.dim, {ch: c * w for ch, w in self.weights.items()}
        )

    def plus(self, other):
        if (self.ground, self.dim) != (other.ground, other.dim):
            raise ValueError("incompatible weights")
        out = dict(self.weights)
        for ch, w in other.weights.items():
            out[ch] = out.get(ch, 0) + w
        return MinkowskiWeight(self.ground, self.dim, out)

    def to_json(self):
        return {
            "ground_set": self.ground,
            "dim": self.dim,
            "weights": [
                {"chain": [sorted(bits(s)) for s in ch], "w": w}
                for ch, w in sorted(self.weights.items())
            ],
        }


def all_chains(n_elements, k):
    """Strictly nested chains of k nonempty proper subsets of {0..n}."""
    full = (1 << n_elements) - 1
    out = []

    def extend(chain, last):
        if len(chain) == k:
            out.append(tuple(chain))
            return
        # supersets of last: last | u for nonempty u inside the complement,
        # staying proper
        comp = full & ~last
        u = comp
        while u:
            s = last | u
            if s != full:
                chain.append(s)
                extend(chain, s)
                chain.pop()
            u = (u - 1) & comp
    if k == 0:
        return [()]
    extend([], 0)
    return sorted(out)


def chain_insertions(chain, n_elements):
    """All (position, subset) pairs refining a chain by one level."""
    full = (1 << n_elements) - 1
    levels = [0, *chain, full]
    out = []
    for g in range(len(levels) - 1):
        lo, hi = levels[g], levels[g + 1]
        diff = hi & ~lo
        u = (diff - 1) & diff
        while u:
            out.append((g, lo | u))
            u = (u - 1) & diff
    return out


def mw_balance_check(weight: MinkowskiWeight):
    """None if balanced, else a witness ((d-1)-chain, offending vector).

    Only (d-1)-chains refinable into the support need an elimination; all
    others receive a zero vector and pass trivially.
    """
    d, n = weight.dim, weight.ground
    if d <= 0:
        return None
    candidates = set()
    for ch in weight.weights:
        for i in range(d):
            candidates.add(ch[:i] + ch[i + 1 :])
    for sub in sorted(candidates):
        v = [0] * n
        nonzero = False
        for pos, s in chain_insertions(sub, n):
            w = weight.weights.get(sub[:pos] + (s,) + sub[pos:], 0)
            if w:
                nonzero = True
                for i in bits(s):
                    v[i] += w
        if not nonzero:
            continue
        rows = [[1] * n] + [_indicator(s, n) for s in sub]
        if not _in_span(rows, v):
            return (sub, tuple(v))
    return None


def _indicator(mask, n):
    return [1 if mask & (1 << i) else 0 for i in range(n)]


def _in_span(rows, v):
    """Exact membership of the integer vector v in the rational row span.

    Fraction-free Gauss-Jordan: a row update p*a - f*b scales the row by the
    nonzero pivot p instead of dividing by it, which keeps the row span and,
    for v, whether it reduces to zero.
    """
    mat = [list(r) for r in rows]
    vec = list(v)
    ncols = len(vec)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [p * a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    # reduce v against the echelon rows
    for row, c in zip(mat, pivots):
        if vec[c]:
            p, f = row[c], vec[c]
            vec = [p * a - f * b for a, b in zip(vec, row)]
    return not any(vec)
