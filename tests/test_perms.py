import itertools
import random

from tautmat.corpus import builtin_matroid
from tautmat.genperm import base_polytope
from tautmat.kclass import atom_value
from tautmat.matroid import matroid_from_bases, uniform
from reference import naive_perm_bases, perm_keys
from tautmat.perms import all_perms, iter_perm_bases


def test_incremental_matches_naive_exhaustively(small_corpus):
    for _, m in small_corpus:
        mats = [m, m.dual()]
        fast = dict(iter_perm_bases(mats))
        perms = list(all_perms(m.n_elements))
        assert len(fast) == len(perms)
        for sigma in perms:
            assert fast[sigma] == naive_perm_bases(mats, sigma)


def test_incremental_matches_naive_sampled_on_vamos(vamos):
    fast = dict(iter_perm_bases([vamos]))
    assert len(fast) == 40320
    rng = random.Random(21)
    for _ in range(200):
        sigma = tuple(rng.sample(range(8), 8))
        assert fast[sigma] == naive_perm_bases([vamos], sigma)


def test_incremental_joint_vector():
    # several matroids scanned simultaneously stay aligned
    m1 = uniform(2, 4)
    m2 = matroid_from_bases(4, [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    m3 = m1.dual()
    for sigma, bases in iter_perm_bases([m1, m2, m3]):
        assert bases == naive_perm_bases([m1, m2, m3], sigma)


def test_perm_keys_match_per_permutation_atoms(u24):
    k4 = uniform(3, 4)
    atoms = (("vmax", base_polytope(k4)), ("basis", u24), ("last",), ("basis", k4), ("first",))
    got = list(perm_keys(atoms, 4))
    assert sorted(sigma for sigma, _ in got) == list(all_perms(4))
    for sigma, key in got:
        assert key == tuple(atom_value(a, sigma) for a in atoms)
    # no basis atom: the plain permutation enumerator
    assert [key for _, key in perm_keys((("first",),), 3)] == [(s[0],) for s in all_perms(3)]
