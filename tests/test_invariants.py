import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautmat import checks
from tautmat.corpus import builtin_matroid, corpus
from tautmat.genperm import base_polytope, simplex
from tautmat.invariants import (
    LoopOrColoopPresent,
    NotAQuotient,
    RouteMismatch,
    alpha_beta_degrees,
    beta_via_localization,
    cf_check,
    chi_both_routes,
    coalgebra_recursion_check,
    ehrhart,
    flag_kchi,
    flag_tutte_kt,
    fs_tutte,
    g_polynomial,
    lvt,
    minkowski_weights,
    mixed_degree_generating,
    taut_degree_polynomial,
    theorem_a_check,
    valuativity_demo,
)
import tautmat.invariants as invariants
from reference import (
    all_chains,
    comb_weight_reference,
    fs_classes,
    geometric_weight_reference,
    psi_inverse_reference,
)
from tautmat.kclass import restrict_to_chain, structure_sheaf
from tautmat.matroid import FlagMatroid, higgs_lift, matroid_from_bases, uniform
from tautmat.poly import SparsePoly, logconcave_unbroken_check, psi_transform
from tautmat.rat import Rat
from tautmat.tutte import beta_pair, t_transform, tutte_coranknullity, tutte_delcontr
from tautmat.weights import mw_balance_check
from test_walk import small_matroids


def P(vars, terms):
    return SparsePoly(vars, {e: Rat(c) for e, c in terms.items()})


def test_theorem_a_u12(rng):
    p = taut_degree_polynomial(uniform(1, 2), rng=rng)
    assert p == P(
        ("x", "y", "z", "w"),
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
    )
    assert p == t_transform(uniform(1, 2))


def test_theorem_a_small_corpus(rng, small_corpus):
    for _, m in small_corpus:
        theorem_a_check(m, rng=rng)


def test_beta_specialization(rng, small_corpus):
    for _, m in small_corpus:
        assert beta_via_localization(m, rng=rng) == beta_pair(m)


def test_alpha_beta_degrees_are_binomial(rng):
    # deg(alpha^i beta^j) = C(i+j, i); frozen from the hand computation at
    # n = 1, 2 and reproduced by the engine at every size
    import math

    for n1 in (2, 3, 4, 5):
        p = alpha_beta_degrees(n1, rng=rng)
        n = n1 - 1
        for i in range(n + 1):
            assert p.coeff((i, n - i)) == math.comb(n, i)


def test_mixed_degree_reduces_to_taut_degree(rng, u24):
    mixed = mixed_degree_generating([u24], [u24], rng=rng)
    single = taut_degree_polynomial(u24, rng=rng)
    renamed = SparsePoly(("x", "y", "z1", "w1"), dict(single.terms))
    assert mixed == renamed


def test_mixed_degree_pairs_logconcave(rng):
    pairs = [
        (uniform(2, 4), builtin_matroid("split_m1")),
        (uniform(1, 4), uniform(3, 4)),
        (builtin_matroid("split_m1"), builtin_matroid("split_m2")),
        (uniform(2, 4), uniform(2, 4).dual()),
        (builtin_matroid("split_m12"), uniform(2, 4)),
    ]
    for m1, m2 in pairs:
        p = mixed_degree_generating([m1], [m2], rng=rng)
        assert logconcave_unbroken_check(p, m1.n_elements - 1) is None


def test_bergman_csm_balance_small(rng, small_corpus):
    for _, m in small_corpus:
        bw, csms = minkowski_weights(m, rng=rng)
        assert mw_balance_check(bw) is None
        for cw in csms:
            assert mw_balance_check(cw) is None
        if m.rank_value >= 1:
            assert csms[-1] == bw


def test_walk_matches_per_chain_reference(rng):
    # the pruned walk gives the per-chain products' weights for every k
    for _, m0 in corpus(6):
        for m in (m0, m0.dual()):
            r = m.rank_value
            bw, csms = minkowski_weights(m, rng=rng)
            for k, cw in enumerate(csms):
                ref = geometric_weight_reference(m, k, rng)
                sign = (-1) ** (r - 1 - k)
                assert cw.weights == {ch: sign * v for ch, v in ref.items()}, (m, k)
            if r >= 1:
                assert bw.weights == geometric_weight_reference(m, r - 1, rng)


def test_corrupted_factor_degree_fails_the_walk(rng, monkeypatch):
    # the geometric route stays independent: one wrong factor polynomial
    # must show as a route mismatch, never be pruned away by a flat test.
    # In U_{2,3} the factor U_{2,2} = M|{0,1} sits only on chains of non-flats.
    m = uniform(2, 3)
    bad_key = m.minor(0b011, 0).key()
    honest = invariants._factor_degree_poly

    def corrupted(f, rng):
        p = honest(f, rng)
        return p + SparsePoly(p.vars, {(0, f.n_elements - 1): 1}) if f.key() == bad_key else p

    monkeypatch.setattr(invariants, "_FACTOR_DEGREE_MEMO", {})
    monkeypatch.setattr(invariants, "_factor_degree_poly", corrupted)
    with pytest.raises(RouteMismatch):
        minkowski_weights(m, rng=rng)


def test_flat_walk_matches_per_chain_reference():
    # every chain of flats at every depth, zeros included: the walk prunes nothing
    loopy = matroid_from_bases(3, [[0], [1]])
    for m in [loopy] + [mm for _, m0 in corpus(6) for mm in (m0, m0.dual())]:
        r = m.rank_value
        walk = invariants._flat_walk(m, r - 1, lambda lo, hi: m.minor(hi, lo))
        # the reference gives {} at every depth for the loopy matroid
        assert walk == [comb_weight_reference(m, k) for k in range(r)], m


def test_corrupted_beta_fails_the_flat_walk(rng, monkeypatch):
    # the combinatorial route stays independent: one wrong beta of a gap
    # minor must show as a route mismatch
    m = uniform(2, 4)
    bad_key = m.minor(0b1111, 0b0001).key()
    honest = invariants.beta_pair

    def corrupted(f):
        b1, b2 = honest(f)
        return (b1 + 1, b2) if f.key() == bad_key else (b1, b2)

    monkeypatch.setattr(invariants, "beta_pair", corrupted)
    with pytest.raises(RouteMismatch):
        minkowski_weights(m, rng=rng)


def test_restricted_degrees_zero_one(rng, u24):
    # deg c_j(Q)[Z] is 0 or 1, and 1 only in the loop/rank-one pattern
    for k in (1, 2):
        for chain in all_chains(4, k):
            factors = restrict_to_chain(u24, chain)
            p = SparsePoly(("u",), {(0,): 1})
            for f in factors:
                top = invariants._factor_degree_poly(f, rng).coeff((0, f.n_elements - 1))
                p = p * SparsePoly(("u",), {(f.n_elements - 1,): top})
            for (j,), c in p.terms.items():
                assert c in (0, 1)
                if c == 1:
                    loops = sum(
                        1 for f in factors if f.n_elements == 1 and f.rank_value == 0
                    )
                    assert loops == u24.corank - j
                    for f in factors:
                        assert (f.n_elements == 1 and f.rank_value == 0) or (
                            f.rank_value == 1 and not f.loops()
                        )


def test_fs_tutte_small(rng):
    assert fs_tutte(uniform(1, 2), rng=rng) == P(("u", "v"), {(1, 0): 1, (0, 1): 1})
    out = fs_tutte(uniform(2, 4), rng=rng)
    assert out == P(("u", "v"), {(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})


def test_integer_invariants_have_int_coefficients(rng, small_corpus):
    # ints stay ints end to end: no Rat layer under these integer invariants
    for name, m in small_corpus:
        polys = [tutte_delcontr(m), t_transform(m), taut_degree_polynomial(m, rng=rng)]
        polys.append(fs_tutte(m, rng=rng))
        if not m.loops() and not m.coloops():
            polys.append(g_polynomial(m, rng=rng))
        for p in polys:
            assert all(type(c) is int for c in p.terms.values()), (name, p.terms)


def test_fs_tutte_fano(rng, fano):
    # internal consistency assert does the comparison; reaching here is the test
    fs_tutte(fano, rng=rng)


def test_chi_routes_agree_on_fs_classes(rng):
    for m in (uniform(1, 2), uniform(2, 3), uniform(2, 4), builtin_matroid("split_m1")):
        for cls in fs_classes(m):
            chi_both_routes(cls, rng=rng)


def test_chi_structure_sheaf(rng):
    for n1 in (2, 3, 4, 5):
        assert chi_both_routes(structure_sheaf(n1), rng=rng) == 1
    assert chi_both_routes(structure_sheaf(6), rng=rng) == 1


def test_cf_u24(rng, u24):
    rep = cf_check(u24, rng=rng)
    assert rep.grid[0, 0] == 6
    # Q_M is symmetric in (t,u) under dualization of M
    repd = cf_check(u24.dual(), rng=rng)
    for (t, u), v in rep.grid.items():
        assert repd.grid[u, t] == v


def test_cf_memo_lives_for_one_call(rng, monkeypatch, u24):
    # one call's counts share one memo, which starts empty; the next call
    # makes another, and nothing outside the call keeps either
    real_count = invariants.GenPermutohedron.count_lattice_points
    memos = []

    def count(poly, memo=None):
        if not memos or memos[-1] is not memo:
            assert memo == {}
            memos.append(memo)
        return real_count(poly, memo)

    monkeypatch.setattr(invariants.GenPermutohedron, "count_lattice_points", count)
    first = cf_check(u24, rng=rng)
    assert cf_check(u24, rng=rng).grid == first.grid
    assert len(memos) == 2 and memos[0] is not memos[1]
    assert all(memos)
    for i in range(2):
        assert gc.get_referrers(memos[i]) == [memos]


@pytest.mark.parametrize("name", ["uniform_1_2", "uniform_2_4", "uniform_2_5", "k4", "fano"])
def test_q_poly_matches_term_by_term_psi_inverse(rng, name):
    # the same coefficients and the same variable order, so the same bytes
    rep = cf_check(builtin_matroid(name), rng=rng)
    assert rep.q_poly.to_json() == psi_inverse_reference(rep.psi_image).to_json()


@pytest.mark.parametrize("name", ["uniform_1_2", "uniform_2_4", "uniform_2_5", "k4", "fano"])
def test_psi_transform_of_q_poly_is_the_psi_image(rng, name):
    # the other direction of the round trip: Psi of the rational Q_M read
    # back off its own values equals the image read off the lattice counts
    rep = cf_check(builtin_matroid(name), rng=rng)
    assert psi_transform(rep.q_poly) == rep.psi_image


def test_cf_psi_identity_u12(rng):
    rep = cf_check(uniform(1, 2), rng=rng)
    assert rep.q_poly == P(("t", "u"), {(0, 0): 2, (1, 0): 1, (0, 1): 1})
    assert rep.psi_image == P(("x", "y"), {(0, 0): 2, (1, 0): 1, (0, 1): 1})


def test_cf_matches_duality_small(rng):
    for m in (uniform(1, 3), uniform(2, 3)):
        cf_check(m, rng=rng)


def test_ehrhart_values(rng, u24):
    assert ehrhart(base_polytope(u24), 1, rng=rng) == 6
    assert ehrhart(simplex(2), 3, rng=rng) == 4
    p = base_polytope(u24) + simplex(4)
    assert ehrhart(p, 1, rng=rng) == p.count_lattice_points()


# golden values frozen from the character-route oracle (see test body):
G_GOLDEN = {
    "uniform_1_2": {(1,): 1},
    "uniform_2_4": {(2,): 1, (1,): 2},
    "uniform_2_5": {(2,): 2, (1,): 3},
    "k4": {(3,): 1, (2,): 2, (1,): 2},
}


def test_g_polynomial_golden_and_routes(rng):
    for name, terms in G_GOLDEN.items():
        m = builtin_matroid(name)
        g = g_polynomial(m, rng=rng)
        assert g == SparsePoly(("s",), {e: Rat(c) for e, c in terms.items()}), name


def test_g_polynomial_rejects_loops_coloops(rng):
    with pytest.raises(LoopOrColoopPresent):
        g_polynomial(matroid_from_bases(3, [[0], [1]]), rng=rng)
    with pytest.raises(LoopOrColoopPresent):
        g_polynomial(uniform(3, 3), rng=rng)


def test_flag_kt_corollary(rng, small_corpus):
    for _, m in small_corpus:
        if m.loops() or m.rank_value < 1:
            continue
        flag = FlagMatroid([uniform(1, m.n_elements), m])
        kt = flag_tutte_kt(flag, rng=rng)
        assert kt.substitute("y", 0).with_vars(("x",)) == SparsePoly(
            ("x",), {(m.rank_value,): Rat(1)}
        )


def test_flag_kchi_alternates(rng):
    flag = FlagMatroid([uniform(1, 3), uniform(2, 3)])
    out = flag_kchi(flag, rng=rng)
    assert out == P(("q",), {(2,): -1, (1,): 2, (0,): -1})


def test_single_constituent_flag_is_fs_tutte(rng, u24):
    kt = flag_tutte_kt(FlagMatroid([u24]), rng=rng)
    assert kt.with_vars(("x", "y")) == tutte_delcontr(u24)


def test_lvt(rng, u24):
    out = lvt(uniform(1, 3), uniform(2, 3), rng=rng)
    # z-degree tracks the rank drop; LVT(M,M) collapses to the Tutte polynomial
    same = lvt(u24, u24, rng=rng)
    assert all(e[2] == 0 for e in same.terms)
    assert same.substitute("z", 0).with_vars(("x", "y")) == tutte_delcontr(u24)
    with pytest.raises(NotAQuotient):
        lvt(uniform(2, 3), uniform(1, 3), rng=rng)


def test_coalgebra_recursion(rng, u24, fano):
    assert coalgebra_recursion_check(u24, 0) is None
    assert coalgebra_recursion_check(fano, 3) is None
    assert coalgebra_recursion_check(uniform(1, 2), 1) is None


def test_coalgebra_detects_wrong_sign(u24):
    # flipping the sign of the convolution term breaks the identity
    from tautmat.invariants import T4_VARS

    t = t_transform(u24)
    x = SparsePoly.variable("x", T4_VARS)
    acc = t.substitute("x", 0).with_vars(T4_VARS)
    for s in range(1, 15):
        if s & 1:
            acc = acc - x * (
                t_transform(u24.restrict(s)).substitute("x", 0).with_vars(T4_VARS)
                * t_transform(u24.contract(s)).substitute("y", 0).with_vars(T4_VARS)
            )
    assert acc != t


def test_valuativity_demo(rng):
    out = valuativity_demo(rng=rng)
    assert all(v == "ok" for v in out.values())


def test_logconc_transform_corpus(small_corpus, fano):
    for _, m in small_corpus:
        assert logconcave_unbroken_check(t_transform(m), m.n_elements - 1) is None
    assert logconcave_unbroken_check(t_transform(fano), 6) is None


def test_fs_tutte_with_zeta_cross_check(rng):
    fs_tutte(uniform(2, 3), rng=rng, zeta_check=True)


def test_reduced_char_poly_degrees(rng, small_corpus, k4):
    # classical identity: for loopless M the degrees against the top Chern
    # class of Q recover the unsigned reduced characteristic polynomial,
    # deg(alpha^i beta^{r-1-i} c_crk(Q)) = [q^i] T_M(q+1, 0)/(q+1)
    mats = [m for _, m in small_corpus if not m.loops() and m.rank_value >= 1]
    mats.append(k4)
    for m in mats:
        t = tutte_delcontr(m)
        shifted = t.substitute(
            "x", SparsePoly(("q",), {(1,): Rat(1), (0,): Rat(1)})
        ).substitute("y", 0).with_vars(("q",))
        # exact synthetic division by (q + 1)
        r = m.rank_value
        coeffs = [shifted.coeff((i,)) for i in range(r + 1)]
        reduced = [Rat(0)] * r
        carry = Rat(0)
        for i in range(r, 0, -1):
            reduced[i - 1] = coeffs[i] - carry
            carry = reduced[i - 1]
        assert coeffs[0] - carry == 0  # (q+1) divides exactly
        p = taut_degree_polynomial(m, rng=rng)
        crk = m.corank
        for i in range(r):
            assert p.coeff((i, r - 1 - i, 0, crk)) == reduced[i], (m, i)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_theorem_a_on_random_minors(data):
    # random minors (and duals) of corpus matroids give non-uniform cases
    import random as _random

    from tautmat.corpus import corpus as _corpus
    from tautmat.matroid import bits as _bits, mask_of as _mask

    name, m = data.draw(
        st.sampled_from([nm for nm in _corpus() if nm[1].n_elements >= 2])
    )
    n1 = m.n_elements
    target = data.draw(st.integers(2, min(5, n1)))
    if target < n1:
        drop = n1 - target
        members = data.draw(
            st.permutations(list(range(n1))).map(lambda p: p[:drop])
        )
        split = data.draw(st.integers(0, drop))
        lower = _mask(members[:split])
        deleted = _mask(members[split:])
        m = m.minor(m.full_mask & ~deleted, lower)
    if data.draw(st.booleans()):
        m = m.dual()
    rng = _random.Random(7)
    assert taut_degree_polynomial(m, rng=rng) == t_transform(m)


@given(small_matroids(), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_lvt_of_a_matroid_with_itself_is_its_tutte_polynomial(m, seed):
    # LVT(M, M) at z = 1 is T_M by both subset counts and deletion-contraction,
    # loops, coloops and rank 0 included; lvt on the Higgs lift's pairs, (M_{r-1}, M)
    # among them, runs in test_graded_identities_on_random_matroids
    rng = random.Random(seed)
    same = lvt(m, m, rng=rng).substitute("z", 1).with_vars(("x", "y"))
    assert same == tutte_delcontr(m) == tutte_coranknullity(m)


@given(small_matroids(), st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_graded_identities_on_random_matroids(m, seed):
    # the ledger's graded identities on random sparse paving and graphic
    # matroids and their duals, at most 6 elements
    rng = random.Random(seed)
    checks._duality(m, rng)
    checks._beta(m, rng)
    # both LVT routes where the difference bundle is a line bundle, not zero
    lift = higgs_lift(m).constituents
    for m1, m2 in zip(lift, lift[1:]):
        lvt(m1, m2, rng=rng)
    if not m.loops() and m.rank_value >= 1:
        # KT(x, 0) = x^r on (U_{1,n}, M), K-chi signs and LVT(M, M) = T_M
        checks._flag(m, rng)
    if not m.loops() and not m.coloops():
        g_polynomial(m, rng=rng)
