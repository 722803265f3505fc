import itertools
import random

import pytest

from tautmat.corpus import builtin_matroid
from tautmat.genperm import base_polytope
from tautmat.kclass import simplex_pair
from tautmat.matroid import mask_of, matroid_from_bases, uniform
from reference import naive_perm_bases, perm_keys
from tautmat.perms import all_perms, iter_perm_bases


def test_vertex_scan_matches_naive_exhaustively(small_corpus):
    for _, m in small_corpus:
        mats = [m, m.dual()]
        fast = dict(iter_perm_bases(mats))
        perms = list(all_perms(m.n_elements))
        assert len(fast) == len(perms)
        for sigma in perms:
            assert fast[sigma] == naive_perm_bases(mats, sigma)


def test_vertex_scan_matches_naive_sampled_on_vamos(vamos):
    fast = dict(iter_perm_bases([vamos]))
    assert len(fast) == 40320
    rng = random.Random(21)
    for _ in range(200):
        sigma = tuple(rng.sample(range(8), 8))
        assert fast[sigma] == naive_perm_bases([vamos], sigma)


def test_vertex_scan_joint_vector():
    # several matroids scanned simultaneously stay aligned
    m1 = uniform(2, 4)
    m2 = matroid_from_bases(4, [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    m3 = m1.dual()
    for sigma, bases in iter_perm_bases([m1, m2, m3]):
        assert bases == naive_perm_bases([m1, m2, m3], sigma)


def test_iter_perm_bases_rejects_no_matroids():
    with pytest.raises(ValueError, match="at least one matroid"):
        next(iter_perm_bases([]))


def test_iter_perm_bases_rejects_different_ground_sets():
    with pytest.raises(ValueError, match="different ground sets"):
        next(iter_perm_bases([uniform(2, 4), uniform(2, 5)]))


def test_perm_keys_match_per_permutation_atoms(u24):
    # the vertices of P(M), Delta and -Delta are the greedy basis, the first
    # element and minus the last
    k4 = uniform(3, 4)
    delta, nabla = simplex_pair(4)
    atoms = (base_polytope(u24), nabla, base_polytope(k4), delta)
    got = list(perm_keys(atoms, 4))
    assert sorted(sigma for sigma, _ in got) == list(all_perms(4))
    for sigma, (b_u24, last, b_k4, first) in got:
        assert mask_of(i for i, x in enumerate(b_u24) if x) == u24.lex_first_basis(sigma)
        assert mask_of(i for i, x in enumerate(b_k4) if x) == k4.lex_first_basis(sigma)
        assert last == tuple(-(i == sigma[-1]) for i in range(4))
        assert first == tuple(int(i == sigma[0]) for i in range(4))
