import itertools
import random

import pytest

from reference import direct_sum, flat_chains
from tautmat.genperm import base_polytope
from tautmat.matroid import (
    EmptyBases,
    EmptyGroundSetResult,
    ExchangeAxiomViolation,
    FlagMatroid,
    InvalidFlag,
    Matroid,
    RankOutOfRange,
    UnequalCardinality,
    bits,
    graphic,
    higgs_lift,
    is_quotient,
    mask_of,
    matroid_from_bases,
    uniform,
)
from tautmat.perms import all_perms
from tautmat.rat import Rat


def brute_force_spanning_trees(edges, n_vertices):
    """Independent oracle: count spanning trees by checking connectivity."""
    count = 0
    r = n_vertices - 1
    for combo in itertools.combinations(range(len(edges)), r):
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        merges = 0
        for i in combo:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merges += 1
        if merges == r:
            count += 1
    return count


def lex_first_oracle(m, sigma):
    """Brute force: the basis whose sorted position list is lex smallest."""
    pos = {e: i for i, e in enumerate(sigma)}
    best = min(sorted(pos[e] for e in bits(b)) for b in m.bases)
    for b in m.bases:
        if sorted(pos[e] for e in bits(b)) == best:
            return b
    raise AssertionError


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_uniform_and_loops():
    u24 = uniform(2, 4)
    assert len(u24.bases) == 6 and u24.rank_value == 2
    loopm = matroid_from_bases(3, [[0], [1]])
    assert loopm.rank_value == 1
    assert sorted(bits(loopm.loops())) == [2]
    assert uniform(0, 1).bases == (0,)
    with pytest.raises(RankOutOfRange):
        uniform(3, 2)


def test_construction_errors():
    with pytest.raises(EmptyBases):
        matroid_from_bases(2, [])
    with pytest.raises(UnequalCardinality):
        matroid_from_bases(2, [[0], [0, 1]])
    with pytest.raises(ExchangeAxiomViolation) as exc:
        matroid_from_bases(4, [[0, 1], [2, 3]])
    assert "0, 1" in str(exc.value) and "2, 3" in str(exc.value)


def test_graphic_k4_matches_spanning_tree_oracle():
    k4 = graphic(K4_EDGES)
    assert k4.rank_value == 3
    assert len(k4.bases) == brute_force_spanning_trees(K4_EDGES, 4) == 16


def test_rank_examples():
    u24 = uniform(2, 4)
    assert u24.rank(mask_of([0])) == 1
    assert u24.rank(mask_of([0, 1, 2])) == 2
    loopm = matroid_from_bases(3, [[0], [1]])
    assert loopm.rank(mask_of([2])) == 0


def test_rank_is_submodular_and_monotone(small_corpus):
    for _, m in small_corpus:
        full = m.full_mask
        assert m.rank(0) == 0
        for s in range(full + 1):
            for t in range(full + 1):
                assert m.rank(s) + m.rank(t) >= m.rank(s | t) + m.rank(s & t)
            if s:
                e = next(bits(s))
                assert m.rank(s) >= m.rank(s & ~(1 << e))


def test_lex_first_basis_examples():
    m = matroid_from_bases(3, [[0, 2], [1, 2]])
    assert m.lex_first_basis((2, 0, 1)) == mask_of([0, 2])
    assert uniform(2, 4).lex_first_basis((0, 1, 2, 3)) == mask_of([0, 1])


def test_lex_first_matches_oracle_on_vamos(vamos):
    rng = random.Random(13)
    assert len(vamos.bases) == 65
    for _ in range(40):
        sigma = tuple(rng.sample(range(8), 8))
        assert vamos.lex_first_basis(sigma) == lex_first_oracle(vamos, sigma)


def test_dual_minors_sums():
    assert uniform(1, 3).dual() == uniform(2, 3)
    assert uniform(2, 4).contract(mask_of([0])) == uniform(1, 3)
    ds = direct_sum(uniform(1, 2), uniform(1, 1))
    assert sorted(ds.bases) == [mask_of([0, 2]), mask_of([1, 2])]
    m = uniform(2, 4)
    assert m.dual().dual() == m
    for e in range(4):
        bit = 1 << e
        assert m.delete(bit).dual() == m.dual().contract(bit)
    with pytest.raises(EmptyGroundSetResult):
        m.delete(m.full_mask)


def test_minor_labels():
    m = uniform(2, 4).contract(mask_of([0]))
    assert m.labels == (1, 2, 3)


def polytope_dim(m):
    """Oracle: affine dimension of P(M) by exact Gaussian elimination."""
    verts = [[1 if b & (1 << i) else 0 for i in range(m.n_elements)] for b in m.bases]
    rows = [
        [Rat(a - b) for a, b in zip(v, verts[0])] for v in verts[1:]
    ]
    rank = 0
    cols = m.n_elements
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_connected_components(small_corpus):
    m = matroid_from_bases(3, [[0, 2], [1, 2]])
    assert [sorted(bits(c)) for c in m.connected_components()] == [[0, 1], [2]]
    assert sorted(bits(uniform(0, 1).loops())) == [0]
    assert len(uniform(2, 4).connected_components()) == 1
    # cross-check with the polytope-dimension criterion
    for _, mm in small_corpus:
        k = len(mm.connected_components())
        assert polytope_dim(mm) == mm.n_elements - k


def test_flats():
    u23 = uniform(2, 3)
    assert sorted(u23.proper_nonempty_flats()) == [1, 2, 4]
    assert not uniform(2, 4).is_flat(mask_of([0, 1]))
    assert len(flat_chains(u23, 1)) == 3


def test_higgs_lift_uniform():
    lift = higgs_lift(uniform(2, 4))
    assert [m.rank_value for m in lift] == [0, 1, 2, 3, 4]
    for i, m in enumerate(lift):
        assert m == uniform(i, 4)


def test_higgs_lift_k4(k4):
    lift = higgs_lift(k4)
    # oracle for the rank-2 constituent: 2-subsets contained in a basis
    expect = set()
    for s in itertools.combinations(range(6), 2):
        sm = mask_of(s)
        if any(b & sm == sm for b in k4.bases):
            expect.add(sm)
    assert set(lift.constituents[2].bases) == expect
    rng = random.Random(3)
    for _ in range(15):
        sigma = tuple(rng.sample(range(6), 6))
        chain = [m.lex_first_basis(sigma) for m in lift]
        for a, b in zip(chain, chain[1:]):
            assert a & b == a and a != b


def test_flag_matroid_validation():
    FlagMatroid([uniform(1, 3), uniform(2, 3)])
    with pytest.raises(InvalidFlag):
        FlagMatroid([uniform(2, 3), uniform(1, 3)])
    # loops block the quotient condition against U_{1,n}
    loopy = matroid_from_bases(3, [[0], [1]])
    assert not is_quotient(uniform(1, 3), loopy)
    with pytest.raises(InvalidFlag):
        FlagMatroid([uniform(1, 3), loopy])


def test_adjacent_transposition_property(small_corpus):
    for _, m in small_corpus:
        n = m.n_elements
        for sigma in all_perms(n):
            b = m.lex_first_basis(sigma)
            for i in range(n - 1):
                tau = list(sigma)
                tau[i], tau[i + 1] = tau[i + 1], tau[i]
                b2 = m.lex_first_basis(tuple(tau))
                diff = b ^ b2
                assert diff == 0 or diff == (1 << sigma[i]) | (1 << sigma[i + 1])


def test_duality_of_greedy_bases(small_corpus):
    for _, m in small_corpus:
        md = m.dual()
        for sigma in all_perms(m.n_elements):
            assert md.lex_first_basis(sigma) == m.full_mask ^ m.lex_first_basis(sigma[::-1])


def test_direct_sum_greedy_factorization():
    m1, m2 = uniform(1, 2), uniform(2, 3)
    m = direct_sum(m1, m2)
    for sigma in all_perms(5):
        b = m.lex_first_basis(sigma)
        sub1 = tuple(e for e in sigma if e < 2)
        sub2 = tuple(e - 2 for e in sigma if e >= 2)
        expect = m1.lex_first_basis(sub1) | (m2.lex_first_basis(sub2) << 2)
        assert b == expect


def test_vertex_matches_greedy_basis(small_corpus, vamos):
    for _, m in small_corpus:
        p = base_polytope(m)
        for sigma in all_perms(m.n_elements):
            v = p.vertex_at(sigma)
            assert mask_of([i for i, x in enumerate(v) if x]) == m.lex_first_basis(sigma)
    rng = random.Random(10)
    pv = base_polytope(vamos)
    for _ in range(20):
        sigma = tuple(rng.sample(range(8), 8))
        v = pv.vertex_at(sigma)
        assert mask_of([i for i, x in enumerate(v) if x]) == vamos.lex_first_basis(sigma)
