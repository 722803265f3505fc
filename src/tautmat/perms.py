"""Permutation enumeration with the greedy basis of each permutation.

No pushforward enumerates permutations any more: every path walks prefix
sets (`engine._prefix_sums`).  This enumerator backs the tests' per-permutation
oracles and the benchmark's traced passes.  For each permutation sigma it
yields the greedy basis of one or more matroids, read as the vertex of the
base polytope P(M) maximal for sigma (`GenPermutohedron.vertex_at`, the
rank increments along sigma).  The tests' reference recomputes it greedily
from the bases (`Matroid.lex_first_basis`).
"""

from __future__ import annotations

import itertools

from .genperm import base_polytope
from .matroid import mask_of


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
    polytopes = [base_polytope(m) for m in matroids]
    for sigma in all_perms(n):
        yield sigma, tuple(
            mask_of(i for i, x in enumerate(p.vertex_at(sigma)) if x) for p in polytopes
        )
