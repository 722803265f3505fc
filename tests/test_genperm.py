import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautmat.corpus import builtin_matroid, corpus
from tautmat.genperm import (
    GenPermutohedron,
    GuardrailExceeded,
    SubmodularityViolation,
    base_polytope,
    check_guardrail,
    simplex,
)
from tautmat.matroid import Matroid, bits, mask_of, popcount, uniform

from reference import coordinate_bounds, lattice_count_reference, level_walk_count
from test_walk import small_matroids


def brute_force_points(p):
    """Oracle: scan the whole bounding box and apply every constraint."""
    los, his = coordinate_bounds(p)
    out = []
    for pt in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if sum(pt) != p.rk[p.full_mask]:
            continue
        if all(
            sum(pt[i] for i in bits(s)) <= p.rk[s] for s in range(1, p.full_mask + 1)
        ):
            out.append(pt)
    return sorted(out)


def test_base_polytope_table():
    p = base_polytope(uniform(2, 4))
    assert all(p.rk[s] == min(popcount(s), 2) for s in range(16))


def _scanned_ranks(m):
    """[m.rank(s) for every s], read before any rank table fills m's rank memo."""
    fresh = Matroid(m.n_elements, m.bases, validate=False)
    return [fresh.rank(s) for s in range(1 << m.n_elements)]


def test_base_polytope_table_is_the_rank_function_on_the_corpus():
    # the subset DP against the scan of the bases, subset by subset
    for _, m in corpus():
        assert base_polytope(m).rk == _scanned_ranks(m)


@given(small_matroids())
@settings(max_examples=100, deadline=None)
def test_base_polytope_table_is_the_rank_function_on_random_matroids(m):
    assert base_polytope(m).rk == _scanned_ranks(m)
    # the table also fills the rank memo, with the same values
    assert [m.rank(s) for s in range(1 << m.n_elements)] == _scanned_ranks(m)


def test_negate_formula():
    nabla = simplex(3).negate()
    assert nabla.rk[nabla.full_mask] == -1
    assert all(nabla.rk[s] == 0 for s in range(1, 7))
    assert simplex(3).negate().negate() == simplex(3)


def test_minkowski_sum_adds_tables():
    p = base_polytope(uniform(2, 4))
    d = simplex(4)
    assert (p + d).rk == [a + b for a, b in zip(p.rk, d.rk)]
    assert p.dilate(3).rk == [3 * v for v in p.rk]
    with pytest.raises(ValueError):
        p.dilate(-1)


def test_submodularity_validation():
    # rk({0}) + rk({1}) < rk({0,1}) + rk({}) violates submodularity
    with pytest.raises(SubmodularityViolation):
        GenPermutohedron(2, [0, 0, 0, 1])
    GenPermutohedron(2, [0, 1, 1, 1])  # the simplex table is fine


def test_vertices():
    p = base_polytope(uniform(2, 4))
    assert p.vertex_at((0, 1, 2, 3)) == (1, 1, 0, 0)
    d = simplex(4)
    for sigma in itertools.permutations(range(4)):
        v = tuple(-x for x in d.negate().vertex_at(sigma))
        assert v == tuple(1 if i == sigma[-1] else 0 for i in range(4))


def test_lattice_points_hypersimplex():
    p = base_polytope(uniform(2, 4))
    pts = brute_force_points(p)
    assert p.count_lattice_points() == len(pts) == 6
    assert all(sorted(pt) == [0, 0, 1, 1] for pt in pts)


def test_lattice_points_small_simplex():
    assert simplex(3, mask_of([0, 1])).count_lattice_points() == 2


def test_dilated_simplex_binomial_count():
    # c-dilated standard simplex on k coordinates has C(c + k - 1, k - 1) points
    for k in (2, 3, 4):
        for c in (0, 1, 2, 3):
            n = simplex(k).dilate(c).count_lattice_points()
            assert n == math.comb(c + k - 1, k - 1)


def test_base_polytope_counts_bases(small_corpus):
    for _, m in small_corpus:
        assert base_polytope(m).count_lattice_points() == len(m.bases)


def test_lattice_points_match_brute_force():
    rng = random.Random(77)
    mats = [uniform(1, 3), uniform(2, 3), uniform(2, 4), uniform(3, 4)]
    for _ in range(12):
        p = base_polytope(rng.choice(mats))
        n = p.n_elements
        q = p
        for _ in range(rng.randrange(0, 3)):
            q = q + rng.choice([simplex(n), simplex(n).negate(), base_polytope(uniform(1, n))])
        assert q.count_lattice_points() == len(brute_force_points(q))


@st.composite
def cf_grid_polytopes(draw, n=None):
    """Minkowski sums of dilated P(U_{r,n}), Delta_S and -Delta on n = 1..5, or on n given."""
    if n is None:
        n = draw(st.integers(1, 5))
    summands = st.one_of(
        st.integers(0, n).map(lambda r: base_polytope(uniform(r, n))),
        st.integers(1, (1 << n) - 1).map(lambda s: simplex(n, s)),
        st.just(simplex(n).negate()),
    )
    p = simplex(n).dilate(0)
    for q, c in draw(st.lists(st.tuples(summands, st.integers(0, 2)), min_size=1, max_size=3)):
        p = p + q.dilate(c)
    return p


@st.composite
def raw_tables(draw, n=None):
    """Arbitrary small tables on n = 1..4, or on n given, submodular or not.

    The count must still be exact.
    """
    if n is None:
        n = draw(st.integers(1, 4))
    rk = draw(st.lists(st.integers(-1, 3), min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    return GenPermutohedron(n, [0] + rk, validate=False)


@settings(max_examples=120, deadline=None)
@given(st.one_of(cf_grid_polytopes(), raw_tables()))
@example(GenPermutohedron(0, [0]))
@example(simplex(1).dilate(2))
@example(simplex(2).negate().dilate(3))
# not submodular: x_0 <= 0 but x_0 >= rk(E) - rk({1}) = 1, an empty box
@example(GenPermutohedron(2, [0, 0, 0, 1], validate=False))
@example(GenPermutohedron(3, [0, 1, 0, 0, 1, 1, 0, 2], validate=False))
def test_lattice_count_matches_brute_force(p):
    expected = len(brute_force_points(p))
    assert p.count_lattice_points() == expected
    assert level_walk_count(p) == expected


@st.composite
def polytope_sequences(draw):
    """Polytopes on one ground size n = 1..5, grid-like and (n <= 4) raw tables mixed."""
    n = draw(st.integers(1, 5))
    kinds = st.one_of(cf_grid_polytopes(n), raw_tables(n)) if n <= 4 else cf_grid_polytopes(n)
    return draw(st.lists(kinds, min_size=2, max_size=6))


@settings(max_examples=60, deadline=None)
@given(polytope_sequences())
@example([simplex(3).dilate(2), GenPermutohedron(3, [0, 1, 0, 0, 1, 1, 0, 2], validate=False),
          simplex(3).dilate(2) + simplex(3).negate()])
def test_shared_memo_counts_every_polytope(polytopes):
    # one memo serves the whole sequence, as one serves a Cameron-Fink grid:
    # a table met before, from another polytope, must still count right
    memo = {}
    for p in polytopes:
        expected = len(brute_force_points(p))
        assert p.count_lattice_points(memo) == expected
        assert level_walk_count(p) == expected


@pytest.mark.parametrize("name", ["uniform_2_5", "k4"])
def test_lattice_count_matches_depth_first_walk(name):
    # every polytope P(M) + t*nabla + u*Delta of the Cameron-Fink grid, t, u <= n,
    # counted through one memo as cf_check counts them
    m = builtin_matroid(name)
    n1 = m.n_elements
    pm, nabla, delta = base_polytope(m), simplex(n1).negate(), simplex(n1)
    memo = {}
    for t in range(n1):
        for u in range(n1):
            p = pm + nabla.dilate(t) + delta.dilate(u)
            expected = lattice_count_reference(p)
            assert p.count_lattice_points(memo) == expected
            assert level_walk_count(p) == expected
    assert memo


def test_guardrail(monkeypatch):
    monkeypatch.delenv("TAUTMAT_GUARDRAIL", raising=False)
    big = simplex(10)
    with pytest.raises(GuardrailExceeded):
        big.count_lattice_points()
    monkeypatch.setenv("TAUTMAT_GUARDRAIL", "10")
    assert big.count_lattice_points() == 10


@pytest.mark.parametrize("raw", ["abc", "9.5"])
def test_guardrail_names_a_bad_setting(monkeypatch, raw):
    monkeypatch.setenv("TAUTMAT_GUARDRAIL", raw)
    with pytest.raises(ValueError, match=f"TAUTMAT_GUARDRAIL='{raw}' is not an integer"):
        check_guardrail(3)
