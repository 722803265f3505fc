import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautmat.engine import euler_char_many, fixed_point_compatibility_check, sample_eval_point
from tautmat.genperm import base_polytope, simplex
from tautmat.kclass import (
    MixedSigns,
    alpha_class,
    beta_class,
    cremona,
    det_class,
    det_s_dual,
    dual_class,
    kc_negate,
    kc_sum,
    line_bundle,
    q_class,
    restrict_to_chain,
    s_class,
    simplex_pair,
    trivial_inverse_class,
)
from tautmat.invariants import theorem_a_check
from tautmat.matroid import bits, higgs_lift, mask_of, matroid_from_bases, uniform
from tautmat.perms import all_perms
from tautmat.rat import Rat

from reference import (
    all_chains,
    alpha_beta_twist,
    direct_sum,
    direct_sum_check,
    exterior_power,
    induced_subpermutation,
    kc_product,
    zeta_monomial_value,
)
from test_walk import small_matroids


def mono(*pairs):
    return {m: c for m, c in pairs}


def e(n, **kw):
    out = [0] * n
    for key, v in kw.items():
        out[int(key[1:])] = v
    return tuple(out)


def test_s_class_rank_one_sum():
    # M = U_{1,{0,1}} + U_{1,{2}}: the greedy basis is {0 or 1, 2}
    m = matroid_from_bases(3, [[0, 2], [1, 2]])
    s = s_class(m)
    assert s.at((2, 0, 1)) == mono((e(3, _0=-1), 1), (e(3, _2=-1), 1))
    assert s.at((1, 0, 2)) == mono((e(3, _1=-1), 1), (e(3, _2=-1), 1))


def test_s_plus_q_is_trivial(u24):
    s, q = s_class(u24), q_class(u24)
    total = kc_sum(s, q)
    triv = trivial_inverse_class(4)
    for sigma in all_perms(4):
        assert total.at(sigma) == triv.at(sigma)
    assert s.rank() == 2 and q.rank() == 2 and total.rank() == 4


def test_line_bundles_alpha_beta():
    d = simplex(4)
    lb = line_bundle(d)
    lbneg = line_bundle(d.negate())
    for sigma in all_perms(4):
        assert lb.at(sigma) == mono((e(4, **{f"_{sigma[-1]}": -1}), 1))
        assert lbneg.at(sigma) == mono((e(4, **{f"_{sigma[0]}": 1}), 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_alpha_beta_classes_are_the_twists(n):
    # the graded path's one-atom alpha and beta: T_{sigma(n)}^{-1} read at
    # -Delta alone, T_{sigma(0)} at Delta alone
    alpha, beta = alpha_class(n), beta_class(n)
    assert alpha.atoms == (simplex(n).negate(),) and beta.atoms == (simplex(n),)
    for sigma in all_perms(n):
        assert alpha.at(sigma) == alpha_beta_twist(n, 1, 0).at(sigma)
        assert beta.at(sigma) == alpha_beta_twist(n, 0, 1).at(sigma)
    assert fixed_point_compatibility_check(alpha) is None
    assert fixed_point_compatibility_check(beta) is None


def test_det_s_dual_is_minus_base_polytope_bundle(u24):
    lhs = det_s_dual(u24)
    rhs = line_bundle(base_polytope(u24).negate())
    det = det_class(dual_class(s_class(u24)))
    for sigma in all_perms(4):
        assert lhs.at(sigma) == rhs.at(sigma) == det.at(sigma)


def test_cremona_duality(u24):
    lhs = cremona(s_class(u24))
    rhs = dual_class(q_class(u24.dual()))
    lhs2 = cremona(q_class(u24))
    rhs2 = dual_class(s_class(u24.dual()))
    for sigma in all_perms(4):
        assert lhs.at(sigma) == rhs.at(sigma)
        assert lhs2.at(sigma) == rhs2.at(sigma)


@given(small_matroids(), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_vertex_atoms_on_random_matroids(m, seed):
    # classes reading the vertices of P(M), -P(M), Delta and -Delta on random
    # sparse paving and graphic matroids and their duals, at most 6 elements
    rng = random.Random(seed)
    n = m.n_elements
    theorem_a_check(m, rng=rng)
    pm, (delta, nabla) = base_polytope(m), simplex_pair(n)
    grid = [(1, 0), (0, 2)]
    chis = euler_char_many(
        [kc_product(alpha_beta_twist(n, t, u), det_s_dual(m)) for t, u in grid], rng=rng
    )
    polytopes = [pm + nabla.dilate(t) + delta.dilate(u) for t, u in grid]
    assert chis == [p.count_lattice_points() for p in polytopes]
    classes = [s_class(m), q_class(m), line_bundle(pm), alpha_beta_twist(n, 1, 2)]
    classes.append(kc_product(*classes))
    pairs = [
        (cremona(s_class(m)), dual_class(q_class(m.dual()))),
        (cremona(line_bundle(pm)), line_bundle(pm.negate())),
    ]
    pairs += [(cremona(cremona(c)), c) for c in classes]
    for sigma in all_perms(n):
        for lhs, rhs in pairs:
            assert lhs.at(sigma) == rhs.at(sigma)


def random_classes(rng, m):
    builders = [
        lambda: s_class(m),
        lambda: q_class(m),
        lambda: dual_class(s_class(m)),
        lambda: det_s_dual(m),
        lambda: line_bundle(base_polytope(m)),
        lambda: line_bundle(simplex(m.n_elements)),
        lambda: alpha_beta_twist(m.n_elements, rng.randrange(3), rng.randrange(3)),
    ]
    out = []
    for _ in range(10):
        parts = [rng.choice(builders)() for _ in range(rng.randrange(1, 3))]
        out.append(kc_product(*parts) if len(parts) > 1 else parts[0])
    return out


def test_cremona_is_involution(rng, u24):
    for cls in random_classes(rng, u24):
        back = cremona(cremona(cls))
        for sigma in all_perms(4):
            assert back.at(sigma) == cls.at(sigma)


def test_cremona_swaps_simplices():
    lhs = cremona(line_bundle(simplex(3)))
    rhs = line_bundle(simplex(3).negate())
    for sigma in all_perms(3):
        assert lhs.at(sigma) == rhs.at(sigma)


def test_exterior_powers(u24):
    sd = dual_class(s_class(u24))
    top = exterior_power(sd, 2)
    det = det_class(sd)
    assert exterior_power(sd, 0).at((0, 1, 2, 3)) == mono((e(4), 1))
    assert top.at((0, 1, 2, 3)) == mono((e(4, _0=1, _1=1), 1)) == det.at((0, 1, 2, 3))
    virtual = kc_sum(s_class(u24), kc_negate(q_class(u24)))
    with pytest.raises(MixedSigns):
        exterior_power(virtual, 1).at((0, 1, 2, 3))


def test_compatibility_check_passes_for_corpus(small_corpus):
    for _, m in small_corpus:
        assert fixed_point_compatibility_check(s_class(m)) is None
        assert fixed_point_compatibility_check(q_class(m)) is None


def test_every_constructed_class_is_compatible(rng, u24):
    zoo = random_classes(rng, u24) + [
        cremona(s_class(u24)),
        exterior_power(dual_class(s_class(u24)), 2),
        kc_sum(s_class(u24), q_class(u24)),
        kc_product(det_s_dual(u24), exterior_power(s_class(u24), 1)),
        alpha_beta_twist(4, 2, 1),
    ]
    for cls in zoo:
        assert fixed_point_compatibility_check(cls) is None, cls.name


def test_rank_is_permutation_independent(small_corpus):
    for _, m in small_corpus:
        for cls in (s_class(m), q_class(m), dual_class(q_class(m)), det_s_dual(m)):
            ranks = {
                sum(c for c, _ in cls.monomials(cls.key_at(sigma)))
                for sigma in all_perms(m.n_elements)
            }
            assert len(ranks) == 1


def test_higgs_chern_roots(rng, u24, k4):
    # the telescoping line-bundle differences recover [S_M] one T_j^{-1} at a time
    for m in (u24, k4):
        lift = higgs_lift(m).constituents
        r = m.rank_value
        for _ in range(12):
            sigma = tuple(rng.sample(range(m.n_elements), m.n_elements))
            total = {}
            for i in range(r):
                hi = lift[i + 1].lex_first_basis(sigma)
                lo = lift[i].lex_first_basis(sigma)
                diff = hi & ~lo
                assert diff.bit_count() == 1
                j = diff.bit_length() - 1
                key = tuple(-1 if p == j else 0 for p in range(m.n_elements))
                total[key] = total.get(key, 0) + 1
            assert total == s_class(m).at(sigma)


def test_simple_chern_identities_per_sigma(rng, u24):
    # sum_i zeta(wedge^i E) u^i = (u+1)^rk c^T(E, u/(u+1)) for E with simple roots
    m = u24
    sd = dual_class(s_class(m))
    n1 = 4
    tstar = sample_eval_point(n1, rng)
    for sigma in itertools.islice(all_perms(n1), 0, 24, 5):
        b = m.lex_first_basis(sigma)
        roots = [tstar[i] for i in bits(b)]
        for uval in (Rat(2), Rat(1, 3), Rat(5)):
            lhs = Rat(0)
            for i in range(m.rank_value + 1):
                for mm, c in exterior_power(sd, i).at(sigma).items():
                    lhs += c * zeta_monomial_value(mm, tstar) * uval**i
            rhs = (uval + 1) ** m.rank_value
            for root in roots:
                rhs *= 1 + Rat(root) * uval / (uval + 1)
            assert lhs == rhs
            # dual version: sum zeta(wedge^i E^v) u^i = (u+1)^rk c(E)^{-1} c(E, 1/(u+1))
            lhs2 = Rat(0)
            for i in range(m.rank_value + 1):
                for mm, c in exterior_power(s_class(m), i).at(sigma).items():
                    lhs2 += c * zeta_monomial_value(mm, tstar) * uval**i
            rhs2 = (uval + 1) ** m.rank_value
            for root in roots:
                rhs2 *= (1 + Rat(root) / (uval + 1)) / (1 + Rat(root))
            assert lhs2 == rhs2


def test_zeta_value_example():
    assert zeta_monomial_value((-1, 0, 0), (Rat(1, 2), Rat(1), Rat(2))) == Rat(2, 3)


def test_restrict_to_chain_minors(u24):
    factors = restrict_to_chain(u24, (mask_of([0]),))
    assert factors[0].n_elements == 1 and factors[0].rank_value == 1
    assert factors[1] == uniform(1, 3)
    full = restrict_to_chain(u24, (mask_of([1]), mask_of([1, 3]), mask_of([1, 2, 3])))
    assert all(f.n_elements == 1 for f in full)


def test_restriction_splits_greedy_basis(rng, small_corpus):
    # at a composite fixed point (chain gaps listed consecutively) the greedy
    # basis of M is the disjoint union of the factor greedy bases
    picks = [mm for _, mm in small_corpus if mm.n_elements >= 3]
    for _ in range(10):
        m = rng.choice(picks)
        n1 = m.n_elements
        chains = all_chains(n1, rng.randrange(1, n1 - 1))
        chain = rng.choice(chains)
        factors = restrict_to_chain(m, chain)
        levels = [0, *chain, m.full_mask]
        sigma = []
        for lo, hi in zip(levels, levels[1:]):
            gap_bits = sorted(bits(hi & ~lo))
            rng.shuffle(gap_bits)
            sigma.extend(gap_bits)
        sigma = tuple(sigma)
        got = 0
        for (lo, hi), f in zip(zip(levels, levels[1:]), factors):
            gap = hi & ~lo
            sub = induced_subpermutation(sigma, gap)
            sub_basis = f.lex_first_basis(sub)
            gap_bits = sorted(bits(gap))
            for i in bits(sub_basis):
                got |= 1 << gap_bits[i]
        assert got == m.lex_first_basis(sigma)


def test_direct_sum_check():
    assert direct_sum_check(uniform(1, 2), uniform(1, 1)) is None
    assert direct_sum_check(uniform(1, 2), uniform(1, 2)) is None
    m = matroid_from_bases(3, [[0, 2], [1, 2]])
    assert s_class(m).at((0, 1, 2)) == mono((e(3, _0=-1), 1), (e(3, _2=-1), 1))


def test_corrupted_direct_sum_detected():
    # a wrong factor pairing is caught by the per-permutation comparison
    assert direct_sum_check(uniform(1, 2), uniform(0, 1)) is None
    m = direct_sum(uniform(1, 2), uniform(1, 1))
    s = s_class(m)
    bad = {(-1, 0, 0): 1, (0, -1, 0): 1}
    assert s.at((0, 1, 2)) != bad
