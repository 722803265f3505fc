"""Permutation enumeration with incremental greedy-basis maintenance.

No pushforward enumerates permutations any more: every path walks prefix
sets (`engine._prefix_sums`).  This enumerator backs the tests' per-permutation
oracles and the benchmark's traced passes.  For each permutation it yields
the greedy (lex-first) basis of one or more matroids.
Instead of recomputing it greedily per permutation (the tests' reference),
permutations are enumerated by inserting the largest element into
permutations of the smaller ground set, where the greedy basis takes only
two values along the insertion orbit, switching at a single position
determined by the deletion/contraction bases.
"""

from __future__ import annotations

import itertools


def all_perms(n_elements):
    return itertools.permutations(range(n_elements))


def iter_perm_bases(matroids):
    """Yields (sigma, bases) for every permutation, bases[i] = B_sigma(matroids[i]).

    matroids must all live on the same ground set {0..n}.
    """
    matroids = list(matroids)
    if not matroids:
        raise ValueError("need at least one matroid")
    n = matroids[0].n_elements
    if any(m.n_elements != n for m in matroids):
        raise ValueError("matroids on different ground sets")
    yield from _iter_level(tuple(matroids), n - 1)


def _iter_level(ms, k):
    if k == 0:
        yield (0,), tuple(m.bases[0] for m in ms)
        return
    bit = 1 << k
    # deduplicated deletion/contraction minors of the top element
    subs = []
    index = {}

    def intern(m):
        key = (m.n_elements, m.bases)
        i = index.get(key)
        if i is None:
            i = len(subs)
            index[key] = i
            subs.append(m)
        return i

    plan = []
    for m in ms:
        if m.is_loop(k):
            mm = m.delete(bit)
            plan.append(("fixed", intern(mm), 0))
        elif m.is_coloop(k):
            mm = m.contract(bit)
            plan.append(("fixed", intern(mm), bit))
        else:
            plan.append(("switch", intern(m.delete(bit)), intern(m.contract(bit))))
    pos = [0] * k
    for sigma, sub_bases in _iter_level(tuple(subs), k - 1):
        for i, e in enumerate(sigma):
            pos[e] = i
        # per matroid: (basis for insertion slot <= switch, basis for slot > switch, switch)
        rules = []
        for kind, a, b in plan:
            if kind == "fixed":
                basis = sub_bases[a] | b
                rules.append((basis, basis, k))
            else:
                bdel = sub_bases[a]
                bcon = sub_bases[b] | bit
                x = bdel & ~(bcon ^ bit)
                rules.append((bcon, bdel, pos[x.bit_length() - 1]))
        for j in range(k + 1):
            s = sigma[:j] + (k,) + sigma[j:]
            yield s, tuple(lo if j <= sw else hi for lo, hi, sw in rules)
