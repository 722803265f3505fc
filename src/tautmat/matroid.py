"""Matroid combinatorics on ground sets {0, ..., n}.

A matroid is stored by its list of bases, each a bitmask over the ground
set.  The rank function is the memoized greedy max |B & S| over bases.
Minors relabel their ground set to {0, ..., k-1} and remember the original
labels in .labels; equality and hashing ignore labels.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class EmptyBases(ValueError):
    """A matroid needs at least one basis."""


class UnequalCardinality(ValueError):
    """All bases must have the same cardinality."""


class ExchangeAxiomViolation(ValueError):
    """The basis-exchange axiom fails; the message names a witnessing pair."""


class RankOutOfRange(ValueError):
    """Requested uniform-matroid rank is not within 0..|E|."""


class EmptyGroundSetResult(ValueError):
    """A minor operation would produce an empty ground set."""


class InvalidFlag(ValueError):
    """Constituents do not form a flag matroid."""


def popcount(x: int) -> int:
    return x.bit_count()


def bits(mask: int):
    """Indices of set bits, ascending."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(iterable) -> int:
    m = 0
    for i in iterable:
        m |= 1 << i
    return m


class Matroid:
    __slots__ = ("n_elements", "bases", "rank_value", "labels", "_rank_memo", "_flats")

    def __init__(self, n_elements, bases, labels=None, validate=True):
        bases = tuple(sorted(set(bases)))
        if validate:
            if n_elements < 1:
                raise EmptyGroundSetResult("matroids must have a nonempty ground set")
            if not bases:
                raise EmptyBases("no bases given")
            full = (1 << n_elements) - 1
            for b in bases:
                if b & ~full:
                    raise ValueError(f"basis {b:b} has elements outside the ground set")
            sizes = {popcount(b) for b in bases}
            if len(sizes) != 1:
                raise UnequalCardinality(f"basis cardinalities {sorted(sizes)} differ")
            _check_exchange(bases)
        self.n_elements = n_elements
        self.bases = bases
        self.rank_value = popcount(bases[0]) if bases else 0
        self.labels = tuple(labels) if labels is not None else tuple(range(n_elements))
        self._rank_memo = {}
        self._flats = None

    # -- basic structure ----------------------------------------------------

    @property
    def corank(self):
        return self.n_elements - self.rank_value

    @property
    def full_mask(self):
        return (1 << self.n_elements) - 1

    def rank(self, subset: int) -> int:
        """max |B & S| over bases, memoized."""
        memo = self._rank_memo
        r = memo.get(subset)
        if r is None:
            r = max(popcount(b & subset) for b in self.bases)
            memo[subset] = r
        return r

    def rank_table(self):
        """[rk(S) for every subset S], by a subset DP, and memoized as rank() is.

        The independent sets are the subsets of the bases; rk(S) = |S| for
        S independent, else the largest rk(S - e).
        """
        size = 1 << self.n_elements
        memo = self._rank_memo
        if len(memo) == size:
            return list(map(memo.__getitem__, range(size)))
        singles = [1 << e for e in range(self.n_elements)]
        independent = bytearray(size)
        for b in self.bases:
            independent[b] = 1
        for s in range(size - 1, 0, -1):
            if independent[s]:
                for e in singles:
                    if s & e:
                        independent[s ^ e] = 1
        rk = [0] * size
        for s in range(1, size):
            rk[s] = popcount(s) if independent[s] else max(rk[s ^ e] for e in singles if s & e)
        memo.update(enumerate(rk))
        return rk

    def loops(self) -> int:
        m = 0
        for b in self.bases:
            m |= b
        return self.full_mask & ~m

    def coloops(self) -> int:
        m = self.full_mask
        for b in self.bases:
            m &= b
        return m

    def is_loop(self, e: int) -> bool:
        return not any(b & (1 << e) for b in self.bases)

    def is_coloop(self, e: int) -> bool:
        return all(b & (1 << e) for b in self.bases)

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.n_elements == other.n_elements
            and self.bases == other.bases
        )

    def __hash__(self):
        return hash((self.n_elements, self.bases))

    def __repr__(self):
        return f"Matroid(n={self.n_elements}, r={self.rank_value}, bases={len(self.bases)})"

    def key(self):
        return (self.n_elements, self.bases)

    # -- duality, minors, sums ----------------------------------------------

    def dual(self):
        full = self.full_mask
        return Matroid(
            self.n_elements,
            [full ^ b for b in self.bases],
            labels=self.labels,
            validate=False,
        )

    def restrict(self, subset: int, allow_empty=False):
        """M|S, relabeled onto {0..|S|-1}."""
        return self._minor(subset, 0, allow_empty)

    def delete(self, subset: int, allow_empty=False):
        """M \\ S = M|(E-S)."""
        return self._minor(self.full_mask & ~subset, 0, allow_empty)

    def contract(self, subset: int, allow_empty=False):
        """M/S on E-S."""
        return self._minor(self.full_mask & ~subset, subset, allow_empty)

    def minor(self, upper: int, lower: int, allow_empty=False):
        """M|upper/lower for lower <= upper, on upper-lower."""
        if lower & ~upper:
            raise ValueError("lower set must be contained in upper set")
        return self._minor(upper & ~lower, lower, allow_empty)

    def _minor(self, keep: int, contracted: int, allow_empty):
        """M|(keep + contracted)/contracted on keep: B & keep, relabelled, for each basis B
        of M meeting both contracted and keep + contracted in a basis of the set."""
        if keep == 0:
            if allow_empty:
                return _empty_matroid()
            raise EmptyGroundSetResult("minor would have an empty ground set")
        keep_bits = list(bits(keep))
        rk_c = self.rank(contracted)
        rk_k = self.rank(keep | contracted) - rk_c
        kept = {b & keep for b in self.bases
                if (b & contracted).bit_count() == rk_c and (b & keep).bit_count() == rk_k}
        new_bases = [_compress(b, keep_bits) for b in kept]
        labels = tuple(self.labels[i] for i in keep_bits)
        return Matroid(len(keep_bits), new_bases, labels=labels, validate=False)

    def connected_components(self):
        """Finest partition of E into separators, sorted by minimum element.

        S is a union of components iff rank(S) + rank(E-S) = rank(E).
        """
        full = self.full_mask
        r = self.rank_value
        separators = [
            s
            for s in range(1 << self.n_elements)
            if self.rank(s) + self.rank(full ^ s) == r
        ]
        comps = {}
        for e in range(self.n_elements):
            m = full
            for s in separators:
                if s & (1 << e):
                    m &= s
            comps[m] = None
        return sorted(comps, key=lambda m: next(bits(m)))

    # -- flats ----------------------------------------------------------------

    def is_flat(self, subset: int) -> bool:
        rk = self.rank(subset)
        rest = self.full_mask & ~subset
        return all(self.rank(subset | (1 << e)) > rk for e in bits(rest))

    def flats(self):
        """All flats, including the closure of the empty set and E."""
        if self._flats is None:
            self._flats = tuple(
                s for s in range(1 << self.n_elements) if self.is_flat(s)
            )
        return self._flats

    def proper_nonempty_flats(self):
        return tuple(f for f in self.flats() if f and f != self.full_mask)

    # -- greedy bases -----------------------------------------------------------

    def lex_first_basis(self, sigma) -> int:
        """Greedy basis in the order sigma(0) < sigma(1) < ... (bitmask).

        Scans sigma, keeping the bases that contain the greedy prefix; at
        each element the prefix is extended iff some remaining basis allows.
        """
        cands = self.bases
        prefix = 0
        r = self.rank_value
        taken = 0
        for j in sigma:
            bit = 1 << j
            sub = [b for b in cands if b & bit]
            if sub:
                cands = sub
                prefix |= bit
                taken += 1
                if taken == r:
                    break
        return prefix


def _check_exchange(bases):
    bset = set(bases)
    for b1 in bases:
        for b2 in bases:
            if b1 == b2:
                continue
            only1 = b1 & ~b2
            for i in bits(only1):
                ok = any(
                    (b1 & ~(1 << i)) | (1 << j) in bset for j in bits(b2 & ~b1)
                )
                if not ok:
                    raise ExchangeAxiomViolation(
                        f"exchange fails for bases {sorted(bits(b1))} and "
                        f"{sorted(bits(b2))} at element {i}"
                    )


def _compress(mask: int, keep_bits) -> int:
    out = 0
    for new, old in enumerate(keep_bits):
        if mask & (1 << old):
            out |= 1 << new
    return out


@lru_cache(maxsize=1)
def _empty_matroid():
    m = Matroid.__new__(Matroid)
    m.n_elements = 0
    m.bases = (0,)
    m.rank_value = 0
    m.labels = ()
    m._rank_memo = {0: 0}
    m._flats = (0,)
    return m


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def matroid_from_bases(n_elements, bases):
    """Matroid from explicit bases; each basis an iterable of elements or a mask."""
    masks = []
    for b in bases:
        masks.append(b if isinstance(b, int) else mask_of(b))
    return Matroid(n_elements, masks)


def uniform(r, n_elements):
    """U_{r, n}: all r-subsets of an n-element ground set are bases."""
    if not 0 <= r <= n_elements:
        raise RankOutOfRange(f"rank {r} not in 0..{n_elements}")
    if n_elements < 1:
        raise EmptyGroundSetResult("ground set must be nonempty")
    bases = [mask_of(c) for c in itertools.combinations(range(n_elements), r)]
    return Matroid(n_elements, bases, validate=False)


def graphic(edges, n_vertices=None):
    """Cycle matroid of a multigraph; elements are edge indices."""
    edges = [tuple(e) for e in edges]
    if n_vertices is None:
        n_vertices = max((max(e) for e in edges), default=-1) + 1
    m = len(edges)
    if m < 1:
        raise EmptyGroundSetResult("graph needs at least one edge")

    def forest_rank(idx):
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        r = 0
        for i in idx:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    r = forest_rank(range(m))
    bases = [
        mask_of(c) for c in itertools.combinations(range(m), r) if forest_rank(c) == r
    ]
    return Matroid(m, bases, validate=False)


# ---------------------------------------------------------------------------
# flag matroids
# ---------------------------------------------------------------------------


def is_quotient(m1: Matroid, m2: Matroid) -> bool:
    """True iff every flat of m1 is a flat of m2 (m1 a quotient of m2)."""
    if m1.n_elements != m2.n_elements:
        return False
    f2 = set(m2.flats())
    return all(f in f2 for f in m1.flats())


class FlagMatroid:
    """A sequence of matroids on one ground set with nesting flats."""

    __slots__ = ("constituents",)

    def __init__(self, constituents, validate=True):
        constituents = tuple(constituents)
        if validate:
            if not constituents:
                raise InvalidFlag("a flag matroid needs at least one constituent")
            n = constituents[0].n_elements
            ranks = [m.rank_value for m in constituents]
            if any(m.n_elements != n for m in constituents):
                raise InvalidFlag("constituents live on different ground sets")
            if any(a > b for a, b in zip(ranks, ranks[1:])):
                raise InvalidFlag(f"ranks {ranks} are not weakly increasing")
            for i, (a, b) in enumerate(zip(constituents, constituents[1:])):
                if not is_quotient(a, b):
                    raise InvalidFlag(
                        f"constituent {i} is not a quotient of constituent {i + 1}"
                    )
        self.constituents = constituents

    @property
    def n_elements(self):
        return self.constituents[0].n_elements

    @property
    def ranks(self):
        return tuple(m.rank_value for m in self.constituents)

    def __iter__(self):
        return iter(self.constituents)

    def __len__(self):
        return len(self.constituents)

    def __repr__(self):
        return f"FlagMatroid(ranks={self.ranks}, n={self.n_elements})"


def higgs_lift(m: Matroid) -> FlagMatroid:
    """The full Higgs lift (M_0, ..., M_{n+1}) with M_i of rank i and M_r = M.

    M_i has as bases the i-subsets that contain or are contained in a basis.
    """
    n = m.n_elements
    lift = []
    for i in range(n + 1):
        bases = set()
        for s in itertools.combinations(range(n), i):
            sm = mask_of(s)
            if any((sm & b) == sm or (sm & b) == b for b in m.bases):
                bases.add(sm)
        lift.append(Matroid(n, bases, validate=False))
    return FlagMatroid(lift, validate=False)
