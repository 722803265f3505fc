"""Minkowski weights on the permutohedral fan and the balancing condition.

A d-dimensional weight assigns an integer to every chain of d nonempty
proper subsets of E (the d-dimensional cones); only nonzero entries are
stored.  Balancing: for every (d-1)-chain, the weighted sum of inserted ray
generators must lie in the span of the chain's own rays and the all-ones
vector.  That span is exactly the vectors constant on each gap
S_{i+1}-S_i of the chain, so the check is a gap-constant test on sums
gathered in one pass over the support.
"""

from __future__ import annotations

from .matroid import bits


class MinkowskiWeight:
    __slots__ = ("ground", "dim", "weights")

    def __init__(self, ground, dim, weights):
        self.ground = ground
        self.dim = dim
        self.weights = {tuple(ch): int(w) for ch, w in weights.items() if w}

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


def mw_balance_check(weight: MinkowskiWeight):
    """None if balanced, else a witness ((d-1)-chain, offending vector).

    One pass over the support: each (chain, w) adds w times the indicator of
    S_i to the vector of the chain with S_i dropped.  A (d-1)-chain that no
    support chain refines receives a zero vector and passes, so only the
    accumulated vectors are tested, in sorted order.
    """
    d, n = weight.dim, weight.ground
    if d <= 0:
        return None
    vectors = {}
    for ch, w in weight.weights.items():
        for i in range(d):
            v = vectors.setdefault(ch[:i] + ch[i + 1 :], [0] * n)
            for e in bits(ch[i]):
                v[e] += w
    for sub, v in sorted(vectors.items()):
        if not _constant_on_gaps(sub, v):
            return (sub, tuple(v))
    return None


def _constant_on_gaps(chain, v):
    """Whether v is constant on every gap S_{i+1}-S_i of 0 < chain < E.

    Each gap's entries are compared with the entry of its lowest element,
    walking the gap's set bits lowest first.
    """
    levels = (0, *chain, (1 << len(v)) - 1)
    for lo, hi in zip(levels, levels[1:]):
        gap = hi & ~lo
        first = v[(gap & -gap).bit_length() - 1]
        gap &= gap - 1
        while gap:
            low = gap & -gap
            if v[low.bit_length() - 1] != first:
                return False
            gap ^= low
    return True
