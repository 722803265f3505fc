import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tautmat.engine
import tautmat.invariants
import tautmat.perms
from tautmat.corpus import builtin_matroid
from tautmat.engine import (
    GenericPointMismatch,
    GradedFactor,
    InterpolationInconsistent,
    NonIntegral,
    SubDegreeNonzero,
    chern_series,
    euler_char_ab,
    euler_char_many,
    integrate_graded,
    euler_char_grid,
    integrate_inhomogeneous,
    fixed_point_compatibility_check,
    forward_differences,
    _pairwise_diff_product,
    _point_steps,
    _kronecker_bits,
    _prefix_sums,
    _zeta_read_off,
    power_axis,
    power_series,
    wedge_axis,
)
from tautmat.kclass import (
    KClassLoc,
    MixedSigns,
    _dedup_atoms,
    alpha_class,
    beta_class,
    cremona,
    det_s_dual,
    dual_class,
    kc_negate,
    kc_sum,
    line_bundle,
    q_class,
    s_class,
    structure_sheaf,
)
from tautmat.genperm import DEFAULT_GUARDRAIL, GuardrailExceeded, base_polytope, simplex
from tautmat.invariants import cf_check, chi_both_routes, chi_via_zeta, fs_tutte
from tautmat.matroid import matroid_from_bases, uniform
from tautmat.perms import all_perms
from tautmat.poly import InconsistentSamples, SparsePoly, interpolate_univariate
from tautmat.rat import Rat

from reference import (
    alpha_beta_twist,
    chi_reference,
    exterior_power,
    fs_classes,
    graded_reference,
    grid_classes,
    kc_product,
    localization_denominator,
    zeta_monomial_value,
    zeta_numerator,
)


def test_localization_denominator():
    assert localization_denominator((0, 1), (0, 1)) == -1
    assert localization_denominator((0, 1, 2), (3, 1, 0)) == 2
    assert localization_denominator((0,), (5,)) == 1


def test_point_variety(rng):
    # one-element ground set: a single fixed point, empty denominator
    p = integrate_graded(1, [power_series(alpha_class(1), "x")], rng=rng)
    assert p.coeff((0,)) == 1
    assert euler_char_ab(structure_sheaf(1), rng=rng) == 1


def test_alpha_and_beta_top_powers(rng):
    # pi_E is birational onto P^n, so the top power of either pullback has degree 1
    for n1 in (2, 3, 4):
        pa = integrate_graded(n1, [power_series(alpha_class(n1), "x")], rng=rng)
        assert pa.coeff((n1 - 1,)) == 1
        pb = integrate_graded(n1, [power_series(beta_class(n1), "y")], rng=rng)
        assert pb.coeff((n1 - 1,)) == 1


def test_alpha_beta_mixed_degrees_small(rng):
    # hand-derived for n = 1: deg(alpha) = deg(beta) = 1
    p = integrate_graded(
        2, [power_series(beta_class(2), "y"), power_series(alpha_class(2), "x")], rng=rng
    )
    assert p.terms == {(0, 1): Rat(1), (1, 0): Rat(1)}
    # n = 2: the Cremona image of a line is a conic, so deg(alpha*beta) = 2
    p = integrate_graded(
        3, [power_series(beta_class(3), "y"), power_series(alpha_class(3), "x")], rng=rng
    )
    assert p.coeff((1, 1)) == 2 and p.coeff((2, 0)) == 1 and p.coeff((0, 2)) == 1


def test_callable_reference_path_agrees(rng, u24):
    factors = [
        chern_series(dual_class(s_class(u24)), "z"),
        chern_series(q_class(u24), "w"),
        power_series(beta_class(4), "y"),
        power_series(alpha_class(4), "x"),
    ]
    fast = integrate_graded(4, factors, rng=rng)

    def ev(sigma, t):
        b = u24.lex_first_basis(sigma)
        out = SparsePoly.constant(1, ("x", "y", "z", "w"))
        sz = SparsePoly.constant(1, ("x", "y", "z", "w"))
        for i in range(4):
            if b & (1 << i):
                sz = sz * SparsePoly(("x", "y", "z", "w"), {(0, 0, 0, 0): Rat(1), (0, 0, 1, 0): t[i]})
            else:
                sz = sz * SparsePoly(("x", "y", "z", "w"), {(0, 0, 0, 0): Rat(1), (0, 0, 0, 1): -t[i]})
        al = SparsePoly(
            ("x", "y", "z", "w"),
            {(i, 0, 0, 0): (-t[sigma[-1]]) ** i for i in range(4)},
        )
        be = SparsePoly(
            ("x", "y", "z", "w"),
            {(0, j, 0, 0): t[sigma[0]] ** j for j in range(4)},
        )
        return out * sz * al * be

    ref = graded_reference(ev, 4, ("x", "y", "z", "w"), rng=rng)
    assert ref == fast.with_vars(("x", "y", "z", "w"))


def test_grading_violation_detected(rng):
    # a degree-n value of t attached to formal degree 0 survives below the target
    bad = GradedFactor("x", beta_class(3), lambda roots: [(0, roots[0] ** 2)])
    with pytest.raises(SubDegreeNonzero):
        integrate_graded(3, [bad], rng=rng)

    # a degree-3 value at formal top degree leaves point-dependent residue
    bad2 = GradedFactor("x", beta_class(3), lambda roots: [(2, roots[0] ** 3)])
    with pytest.raises(GenericPointMismatch):
        integrate_graded(3, [bad2], rng=rng)


def _at_points(monkeypatch, *points):
    it = iter(points)
    monkeypatch.setattr(tautmat.engine, "sample_eval_point", lambda n, rng: next(it))


def test_graded_failures_in_order(rng, monkeypatch):
    # t0^2 at sigma(0) = 0 only breaks the fixed-point congruences: the sum is
    # t0^2/((t0 - t1)(t0 - t2)), 1/3 at (1, 2, 4) and 1/6 at (1, 3, 4)
    t0_at_first_0 = KClassLoc(3, (simplex(3),), lambda key: [(1, (1, 0, 0))] if key[0][0] else [])

    def first_only(roots):
        return [(2, roots[0] ** 2)] if roots else []

    def with_low_term(roots):
        return [(0, roots[0] ** 2), *first_only(roots)] if roots else []

    top = [GradedFactor("x", t0_at_first_0, first_only)]
    low = [GradedFactor("x", t0_at_first_0, with_low_term)]
    _at_points(monkeypatch, (1, 2, 4), (1, 2, 4))
    with pytest.raises(NonIntegral):
        integrate_graded(3, top, rng=rng)
    # a mismatch is named before the non-integral coefficients it also has
    _at_points(monkeypatch, (1, 2, 4), (1, 3, 4))
    with pytest.raises(GenericPointMismatch):
        integrate_graded(3, top, rng=rng)
    # a sub-degree term is named before both
    _at_points(monkeypatch, (1, 2, 4), (1, 3, 4))
    with pytest.raises(SubDegreeNonzero):
        integrate_graded(3, low, rng=rng)


def test_partition_independence(rng, fano):
    factors = [
        chern_series(dual_class(s_class(fano)), "z"),
        chern_series(q_class(fano), "w"),
        power_series(beta_class(7), "y"),
        power_series(alpha_class(7), "x"),
    ]
    atoms = _dedup_atoms(tuple(a for f in factors for a in f.cls.atoms))
    tstar = (3, 17, 5, 9, 2, 11, 7)
    d = _pairwise_diff_product(tstar)
    # oracle: every atom's vertex read off each permutation, no prefix-set walk
    naive = {}
    for sigma in all_perms(7):
        key = tuple(a.vertex_at(sigma) for a in atoms)
        naive[key] = naive.get(key, 0) + d // localization_denominator(sigma, tstar)
    assert _prefix_sums(atoms, 7, [_point_steps(tstar)]) == [naive]


def test_factor_values_at_literal_points():
    # c^T(S^v, z) at sigma = id with greedy basis {0} and t* = (2, 3)
    m = uniform(1, 2)
    f = chern_series(dual_class(s_class(m)), "z")
    assert f.at(((1, 0),), (2, 3)) == {0: 1, 1: 2}
    fq = chern_series(q_class(m), "w")
    assert fq.at(((1, 0),), (2, 3)) == {0: 1, 1: -3}
    # at sigma = id the vertex of -Delta is -e_1, that of Delta is e_0
    al = power_series(alpha_class(2), "x")
    assert al.at(((0, -1),), (2, 3)) == {0: 1, 1: -3}
    be = power_series(beta_class(2), "y")
    assert be.at(((1, 0),), (2, 3)) == {0: 1, 1: 2}


def test_difference_factor_of_a_non_quotient_raises():
    # (S2/S1)^v has Chern roots only if B1 lies in B2 at every fixed point;
    # here B1 = {2} and B2 = {0, 1} at sigma = (0, 1, 2), so T_2 has
    # multiplicity -1 and the factor raises instead of dropping it
    m1, m2 = matroid_from_bases(3, [[2]]), uniform(2, 3)
    sdiff = kc_sum(dual_class(s_class(m2)), kc_negate(dual_class(s_class(m1))))
    assert sdiff.at((0, 1, 2)) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}
    factor = chern_series(sdiff, "s")
    with pytest.raises(MixedSigns):
        factor.at(sdiff.key_at((0, 1, 2)), (1, 2, 4))
    with pytest.raises(MixedSigns):
        integrate_graded(3, [factor], rng=random.Random(0))


def test_zeta_route_weight_independent(rng):
    # two independent one-parameter directions give the same character
    import random

    from tautmat.corpus import builtin_matroid
    from tautmat.genperm import base_polytope as bp

    mats = [uniform(1, 3), uniform(2, 3), builtin_matroid("split_m12")]
    picks = []
    rr = random.Random(5)
    for _ in range(10):
        m = rr.choice(mats)
        p = bp(m)
        if rr.random() < 0.5:
            p = p + simplex(m.n_elements)
        picks.append(line_bundle(p))
    for cls in picks:
        a = chi_via_zeta(cls, rng=random.Random(101))
        b = chi_via_zeta(cls, rng=random.Random(707))
        assert a == b


def test_euler_structure_sheaf_and_segment(rng):
    # n = 1 by hand: 1/(1 - T1/T0) + 1/(1 - T0/T1) = 1
    assert euler_char_ab(structure_sheaf(2), rng=rng) == 1
    # [O(D_Delta)] on P^1 localizes to T_{sigma(1)}^{-1}; chi = 2 lattice points
    assert euler_char_ab(line_bundle(simplex(2)), rng=rng) == 2


def test_euler_cremona_invariance(rng, u24):
    for cls in (
        det_s_dual(u24),
        kc_product(det_s_dual(u24), exterior_power(s_class(u24), 1)),
        line_bundle(base_polytope(u24)),
    ):
        assert euler_char_ab(cls, rng=rng) == euler_char_ab(cremona(cls), rng=rng)


def test_euler_batch_matches_single(rng, u24):
    classes = [
        structure_sheaf(4),
        det_s_dual(u24),
        kc_product(det_s_dual(u24), exterior_power(dual_class(q_class(u24)), 1)),
    ]
    batch = euler_char_many(classes, rng=rng)
    singles = [euler_char_ab(c, rng=rng) for c in classes]
    assert batch == singles


def test_euler_char_many_matches_per_permutation_reference(rng, u24):
    classes = [structure_sheaf(n1) for n1 in (1, 2, 3, 4)]
    classes += [line_bundle(simplex(2)), line_bundle(base_polytope(u24))]
    classes += fs_classes(u24)
    classes.append(cremona(kc_product(det_s_dual(u24), exterior_power(s_class(u24), 1))))
    # one call per ground set, as euler_char_many requires
    for ground in sorted({c.ground for c in classes}):
        batch = [c for c in classes if c.ground == ground]
        assert euler_char_many(batch, rng=rng) == [chi_reference(c) for c in batch]


def _record_weights(monkeypatch):
    """The weights w that engine.sample_weight draws from now on, in order."""
    drawn = []
    real = tautmat.engine.sample_weight

    def record(n, rng):
        drawn.append(real(n, rng))
        return drawn[-1]

    monkeypatch.setattr(tautmat.engine, "sample_weight", record)
    return drawn


def _exponent_hull(cls, w):
    """(lo, hi): the smallest and largest m.w over every monomial of every fixed point.

    (0, 0) for a class without monomials, as in the character path.
    """
    es = [
        sum(x * y for x, y in zip(m, w))
        for sigma in all_perms(cls.ground)
        for _, m in cls.monomials(cls.key_at(sigma))
    ]
    return min(es, default=0), max(es, default=0)


def _span(p):
    """The highest nonzero digit's place minus the lowest's, -1 for p = 0."""
    places = [j for j, c in enumerate(p) if c]
    return places[-1] - places[0] if places else -1


def _record_reads(monkeypatch):
    """(K, spans) of every grid read-off at q = 2^K from now on, in order.

    spans lists, per point and rows first, the span of P_ab's nonzero
    digits, the degree of P_ab q^-s (-1 for P_ab = 0), or is None for a
    read that could not prove its P_ab and asks for 2K.
    """
    reads = []
    real = tautmat.engine._grid_interpolate

    def record(atoms, ground, w, base, rows, cols, bits, height):
        polys = real(atoms, ground, w, base, rows, cols, bits, height)
        spans = None if polys is None else tuple(_span(p) for row in polys for p in row)
        reads.append((bits, spans))
        return polys

    monkeypatch.setattr(tautmat.engine, "_grid_interpolate", record)
    return reads


def first_bits(base, rows, cols):
    """The K a grid is first read at: the least with 2^(K - 1) > n! 2^C(n - 1, 2) M.

    M is the largest coefficient mass of a point's class base * R_a * C_b
    at any fixed point: the sum of |base's coefficients| times the
    monomial counts of R_a and C_b, C(m, a) for wedge^a of m roots and 1
    for a power.
    """
    n = base.ground

    def count(axis, sigma):
        if not axis.wedge:
            return 1
        m = sum(axis.cls.merged(axis.cls.key_at(sigma)).values())
        return max(math.comb(m, k) for k in range(axis.size))

    mass = max(
        sum(abs(c) for c, _ in base.monomials(base.key_at(sigma)))
        * count(rows, sigma) * count(cols, sigma)
        for sigma in all_perms(n)
    )
    return ((math.factorial(n) << math.comb(n - 1, 2)) * mass).bit_length() + 1


def split_reads(reads):
    """reads cut into one list per grid: each grid's reads end at its first proven one."""
    grids, cur = [], []
    for read in reads:
        cur.append(read)
        if read[1] is not None:
            grids.append(cur)
            cur = []
    assert not cur
    return grids


def assert_escalation(reads, bits, bound):
    """One grid's reads run at bits, 2 bits, ..., and only the last proves
    every P_ab, each of span <= bound, the reference hull's width.  Returns
    its spans."""
    assert [k for k, _ in reads] == [bits << i for i in range(len(reads))]
    assert all(spans is None for _, spans in reads[:-1])
    spans = reads[-1][1]
    assert max(spans, default=-1) <= bound
    return spans


def _unit(n):
    return wedge_axis(structure_sheaf(n), 0)


def test_euler_escalation_recovers(rng, u24, monkeypatch):
    # a first K of 2 proves nothing (2^(K - 1) is below the bound on the
    # numerator's coefficients); the reads at 4 and 8 do not either, and 16
    # reads the same chi
    cls = line_bundle(base_polytope(u24))
    unforced = euler_char_ab(cls, rng=rng)
    weights = _record_weights(monkeypatch)
    reads = _record_reads(monkeypatch)
    monkeypatch.setattr(tautmat.engine, "_kronecker_bits", lambda height: 2)
    assert euler_char_ab(cls, rng=rng) == unforced
    lo, hi = _exponent_hull(cls, weights[0])
    assert first_bits(cls, _unit(4), _unit(4)) <= 16
    assert [bits for bits, _ in reads] == [2, 4, 8, 16]
    assert_escalation(reads, 2, hi - lo)


def test_euler_escalation_rereads_large_characters(monkeypatch):
    # O(40 Delta) on three elements: its character counts the lattice
    # points of 40 Delta per weight, up to 41 of them, more than half of
    # 2^K at the first K = 5, so the grid is walked again at 2K and reads
    # binom(42, 2) lattice points
    cls = line_bundle(simplex(3).dilate(40))
    weights = _record_weights(monkeypatch)
    reads = _record_reads(monkeypatch)
    assert euler_char_ab(cls, rng=random.Random(0)) == math.comb(42, 2)
    lo, hi = _exponent_hull(cls, weights[0])
    assert first_bits(cls, _unit(3), _unit(3)) == 5 and len(reads) == 2
    assert_escalation(reads, 5, hi - lo)


def test_euler_escalation_fails_cleanly(rng, u24, monkeypatch):
    # reads that prove nothing up to 8K give up
    reads = _record_reads(monkeypatch)
    monkeypatch.setattr(tautmat.engine, "_kronecker_bits", lambda height: 1)
    with pytest.raises(InterpolationInconsistent, match="no read-off up to 8 bits"):
        euler_char_ab(line_bundle(base_polytope(u24)), rng=rng)
    assert reads == [(1, None), (2, None), (4, None), (8, None)]


def _cf_twist_grid(m, *, rng):
    """chi(O(t alpha + u beta) det S^v) for t, u <= n on the character path: cf_check's grid."""
    n1 = m.n_elements
    twists = power_axis(beta_class(n1), n1 - 1), power_axis(alpha_class(n1), n1 - 1)
    return tautmat.invariants.euler_char_grid(det_s_dual(m), *twists, rng=rng)


@pytest.mark.parametrize(
    "name, run",
    [
        ("fano", fs_tutte),
        ("nonfano", fs_tutte),
        pytest.param("uniform_2_5", _cf_twist_grid, id="uniform_2_5-cf_check"),
    ],
)
def test_hull_bound_needs_no_escalation(rng, monkeypatch, name, run):
    # B = max_c (hi_c - lo_c) over the grid's classes is a true degree
    # bound: the grid is read once, at its first K, with every P_ab of
    # span at most B and some of span B; cf_check reads its twists by the
    # zeta route, so its grid is read here on the character path, whose
    # power axes the bound must also cover
    grids = []
    real_grid = tautmat.invariants.euler_char_grid

    def record_grid(base, rows, cols, *, rng):
        grids.append((base, rows, cols))
        return real_grid(base, rows, cols, rng=rng)

    weights = _record_weights(monkeypatch)
    reads = _record_reads(monkeypatch)
    monkeypatch.setattr(tautmat.invariants, "euler_char_grid", record_grid)
    run(builtin_matroid(name), rng=rng)
    [grid], [w] = grids, weights
    classes = grid_classes(*grid)
    bound = max(hi - lo for lo, hi in (_exponent_hull(c, w) for c in classes))
    [(bits, spans)] = reads
    assert bits == first_bits(*grid)
    assert len(spans) == len(classes) and max(spans) == bound


def test_one_sided_exponent_hull_matches_reference(rng, u24, monkeypatch):
    # twisting by T_i^-2 for every i moves every exponent m.w below 0 and
    # the dual above 0, so at one pinned w the shift q^-lo_c lowers some
    # classes' exponents and raises others'
    points = [line_bundle(simplex(4, 1 << i)) for i in range(4)]
    below = [kc_product(c, *points, *points) for c in fs_classes(u24)]
    above = [dual_class(c) for c in below]
    w = tautmat.engine.sample_weight(4, rng)
    monkeypatch.setattr(tautmat.engine, "sample_weight", lambda n, rng: w)
    chis = euler_char_many(below + above, rng=rng)
    assert all(_exponent_hull(c, w)[1] < 0 for c in below)
    assert all(_exponent_hull(c, w)[0] > 0 for c in above)
    assert chis == [chi_reference(c) for c in below + above]


def _poly_values(coeffs, q0, count):
    return [sum(c * q**i for i, c in enumerate(coeffs)) for q in range(q0, q0 + count)]


@given(
    st.integers(0, 12).flatmap(
        lambda d: st.tuples(
            st.just(d), st.lists(st.integers(-10**6, 10**6), max_size=d + 1)
        )
    ),
    st.integers(-6, 6),
)
@settings(max_examples=60, deadline=None)
def test_forward_differences_are_newton_coefficients(bound_coeffs, q0):
    # P(q0 + k) = sum_i binom(k, i) Delta^i P(q0) at every sample, verifying
    # ones included: the coefficients in the binomial basis that cf_check
    # reads Psi(Q_M) from
    degree_bound, coeffs = bound_coeffs
    values = _poly_values(coeffs, q0, degree_bound + 4)
    diffs = forward_differences(values, degree_bound)
    assert len(diffs) == degree_bound + 1
    for k, v in enumerate(values):
        assert sum(math.comb(k, i) * d for i, d in enumerate(diffs)) == v
    # a term of degree B + 1 leaves a difference of order B + 1 that does not vanish
    lead = [v + (q0 + k) ** (degree_bound + 1) for k, v in enumerate(values)]
    with pytest.raises(InconsistentSamples):
        forward_differences(lead, degree_bound)


def _zeta_reference(kcls):
    # the zeta pushforward summed per permutation in exact rationals along
    # t = q*(1, ..., n+1), scaled to a polynomial and interpolated at q = 0
    n1 = kcls.ground
    perms = list(all_perms(n1))
    monos = [m for sigma in perms for _, m in kcls.monomials(kcls.key_at(sigma))]
    pole = max(sum(-x for x in m if x < 0) for m in monos)
    bound = pole * n1 + max(0, max(sum(m) for m in monos))
    samples = []
    for q in range(1, bound + 5):
        t = tuple(Rat(q * (i + 1)) for i in range(n1))
        total = Rat(0)
        for sigma in perms:
            val = Rat(0)
            for c, m in kcls.monomials(kcls.key_at(sigma)):
                val += c * zeta_monomial_value(m, t)
            for i in sigma[:-1]:
                val *= 1 + t[i]
            total += val / localization_denominator(sigma, t)
        for ti in t:
            total *= (1 + ti) ** pole
        samples.append((q, total))
    return interpolate_univariate(samples, bound).evaluate({"q": Rat(0)})


def test_integrate_inhomogeneous_matches_per_permutation_reference(rng, u24):
    # each class as a 1x1 grid with both axes wedge^0 O = 1; ground 1 is
    # the single fixed point with empty products
    classes = [structure_sheaf(n1) for n1 in (1, 2, 3)] + fs_classes(u24)
    for cls in classes:
        unit = wedge_axis(structure_sheaf(cls.ground), 0)
        assert integrate_inhomogeneous(cls, unit, unit, rng=rng) == [[_zeta_reference(cls)]]


def test_integrate_inhomogeneous_batch_matches_per_class_reference(rng, u24):
    # one walk over the atoms of base and axes and -Delta serves every point
    # of a grid, each read off the same evaluation: wedge axes whose roots
    # need no lift (S) and a lift of 1 (Q^v), twist axes of one root, and
    # bases of zero, one and two atoms
    s, qd = s_class(u24), dual_class(q_class(u24))
    grids = [
        (structure_sheaf(4), wedge_axis(s, 2), wedge_axis(qd, 2)),
        (line_bundle(base_polytope(u24)), wedge_axis(qd, 1), power_axis(beta_class(4), 1)),
        (alpha_beta_twist(4, 1, 2), power_axis(alpha_class(4), 2), wedge_axis(s, 1)),
        (det_s_dual(u24), wedge_axis(s, 2), wedge_axis(qd, 2)),
    ]
    for base, rows, cols in grids:
        zeta = integrate_inhomogeneous(base, rows, cols, rng=rng)
        assert [z for row in zeta for z in row] == list(map(_zeta_reference, grid_classes(base, rows, cols)))
    unit = wedge_axis(structure_sheaf(4), 0)
    with pytest.raises(ValueError):
        integrate_inhomogeneous(structure_sheaf(3), unit, unit, rng=rng)


def test_zeta_check_makes_one_walk(rng, monkeypatch):
    # fs_tutte's zeta cross-check batches every class into one walk, after
    # the character path's value-free walk and its one-table walk at q =
    # 2^K; no permutation is enumerated
    table_sets = []
    walk = tautmat.engine._prefix_sums

    def counting(atoms, ground, tables):
        table_sets.append(len(tables))
        return walk(atoms, ground, tables)

    def no_scan(*args):
        raise AssertionError("a permutation scan ran")

    monkeypatch.setattr(tautmat.engine, "_prefix_sums", counting)
    for owner in (tautmat.perms, tautmat.engine):
        monkeypatch.setattr(owner, "all_perms", no_scan)
    monkeypatch.setattr(tautmat.perms, "iter_perm_bases", no_scan)
    assert not hasattr(tautmat.engine, "iter_perm_bases")
    fs_tutte(uniform(2, 4), rng=rng, zeta_check=True)
    assert table_sets == [0, 1, 1]


def test_cf_check_reads_its_grid_by_the_zeta_route(rng, monkeypatch):
    # every twist chi(O(t alpha + u beta) det S^v) comes off one zeta-route
    # grid, rows beta^u and columns alpha^t; the character walk never runs
    axes = []
    real = tautmat.invariants.integrate_inhomogeneous

    def counting(base, rows, cols, *, rng):
        axes.append((rows.cls.name, rows.size, cols.cls.name, cols.size))
        return real(base, rows, cols, rng=rng)

    def no_walk(*args):
        raise AssertionError("the character walk ran")

    monkeypatch.setattr(tautmat.invariants, "integrate_inhomogeneous", counting)
    monkeypatch.setattr(tautmat.engine, "_chi_walk", no_walk)
    cf_check(uniform(2, 4), t_max=4, rng=rng)
    assert axes == [("O(b)", 4, "O(a)", 5)]


def test_integrate_graded_makes_one_walk(rng, monkeypatch, u24):
    # both generic points are tables of one walk, not one walk each
    table_sets = []
    walk = tautmat.engine._prefix_sums

    def counting(atoms, ground, tables):
        table_sets.append(len(tables))
        return walk(atoms, ground, tables)

    monkeypatch.setattr(tautmat.engine, "_prefix_sums", counting)
    factors = [chern_series(dual_class(s_class(u24)), "z"), power_series(beta_class(4), "y")]
    integrate_graded(4, factors, rng=rng)
    assert table_sets == [2]


def _corrupted_s_class(m):
    # [S_M] with one fixed point replaced by a non-adjacent set
    good = s_class(m)

    def bad_monos(key):
        if key[0] == (1, 1, 0, 0):
            return [(1, (0, 0, -1, -1))]
        return good.monomials(key)

    return KClassLoc(4, good.atoms, bad_monos, name="corrupted")


def test_fixed_point_compatibility(rng, u24):
    assert fixed_point_compatibility_check(s_class(u24)) is None
    assert fixed_point_compatibility_check(line_bundle(base_polytope(u24))) is None
    assert fixed_point_compatibility_check(_corrupted_s_class(u24)) is not None


def test_character_path_rejects_non_gkm_class(u24, monkeypatch):
    # the w that random.Random(0) draws; along some other w (seeds 1-3) this
    # one-parameter restriction misses the fault and gives integral samples
    w = tautmat.engine.sample_weight(4, random.Random(0))
    monkeypatch.setattr(tautmat.engine, "sample_weight", lambda n, rng: w)
    with pytest.raises(NonIntegral):
        euler_char_many([_corrupted_s_class(u24)], rng=random.Random(1))


def test_exact_read_off_rejects_non_gkm_class_along_some_weights(u24):
    # exact along w, the read-off still sees only the restriction along w:
    # of seeds 0-5 it rejects the class at the w of seeds 0, 4 and 5, as
    # the sampled guard did, and reads a chi at the w of the others
    raised = []
    for seed in range(6):
        try:
            euler_char_many([_corrupted_s_class(u24)], rng=random.Random(seed))
        except NonIntegral:
            raised.append(seed)
    assert raised == [0, 4, 5]


def test_both_routes_reject_non_gkm_class(u24):
    # the character route alone misses the fault along some w, the zeta
    # route does not: the two-route check rejects the class for every seed
    for seed in range(12):
        with pytest.raises(NonIntegral):
            chi_both_routes(_corrupted_s_class(u24), rng=random.Random(seed))


def test_every_route_enforces_the_guardrail(monkeypatch):
    # a ground set above the default guardrail is refused by the zeta route
    # as by the character and graded paths, before any walk
    monkeypatch.delenv("TAUTMAT_GUARDRAIL", raising=False)
    n = DEFAULT_GUARDRAIL + 1
    for route in (chi_via_zeta, euler_char_ab):
        with pytest.raises(GuardrailExceeded):
            route(structure_sheaf(n), rng=random.Random(0))
    with pytest.raises(GuardrailExceeded):
        integrate_graded(n, [power_series(alpha_class(n), "x")], rng=random.Random(0))


@pytest.mark.parametrize("seed", range(12))
def test_zeta_route_rejects_non_gkm_class(seed, u24):
    # a class failing the fixed-point congruences has no integral pushforward:
    # the zeta route alone rejects it along the w of every seed, those at
    # which the character route reads a chi included
    with pytest.raises(NonIntegral):
        chi_via_zeta(_corrupted_s_class(u24), rng=random.Random(seed))
    # as the base of a grid, whose point (0, 0) is the class alone
    rows, cols = wedge_axis(s_class(u24), 2), wedge_axis(dual_class(q_class(u24)), 2)
    with pytest.raises(NonIntegral):
        integrate_inhomogeneous(_corrupted_s_class(u24), rows, cols, rng=random.Random(seed))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_zeta_read_off_matches_expansion(data):
    # N(q) = sum_e terms[e] prod_i (1 + q w_i)^(e_i + pole), a zeta grid
    # point's numerator, read off one evaluation at q = 2^K, 2^(K - 1) above
    # N(1) with every coefficient made positive, against N expanded term by
    # term: chi is [q^(n-1)] N / D', and NonIntegral is raised exactly when
    # a coefficient below q^(n-1) is nonzero or one does not divide by D'
    n = data.draw(st.integers(1, 6))
    w = tuple(data.draw(st.permutations(range(1, n + 1))))
    pole = data.draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(-pole, 3 - pole)] * n)
    terms = data.draw(st.dictionaries(exps, st.integers(-10**4, 10**4), max_size=5))
    dprime = _pairwise_diff_product(w)
    if data.draw(st.booleans()):
        # subtract, in the powers of 1 + q w_0 alone, the part of w_0^d N
        # that keeps N from being q^(n-1) D' times an integer polynomial,
        # then a drawn multiple of q^(n-1) D' and a slip at one degree
        # >= n - 1 that D' need not divide
        coeffs = zeta_numerator(terms, pole, w) + [0] * n
        d = len(coeffs) - 1
        rest = [c if j < n - 1 else c % dprime for j, c in enumerate(coeffs)]
        rest[n - 1] += dprime * data.draw(st.integers(-50, 50))
        rest[data.draw(st.integers(n - 1, d))] += data.draw(st.integers(-2, 2))
        terms = {e: c * w[0] ** d for e, c in terms.items()}
        for j, r in enumerate(rest):
            # w_0^d r q^j = r w_0^(d - j) (u - 1)^j with u = 1 + q w_0
            for k in range(j + 1):
                e = (k - pole,) + (-pole,) * (n - 1)
                c = r * w[0] ** (d - j) * math.comb(j, k) * (-1) ** (j - k)
                terms[e] = terms.get(e, 0) - c
    if data.draw(st.booleans()):
        # scale so that the height H sits just below a power of two
        height = sum(zeta_numerator({e: abs(c) for e, c in terms.items()}, pole, w))
        if height:
            top = (1 << height.bit_length() + data.draw(st.integers(0, 3))) - 1
            terms = {e: c * (top // height) for e, c in terms.items()}
    def value(q, coeffs):
        return sum(
            c * math.prod((1 + q * wi) ** (x + pole) for wi, x in zip(w, e))
            for e, c in zip(terms, coeffs)
        )

    bits = _kronecker_bits(value(1, map(abs, terms.values())))
    num = value(1 << bits, terms.values())
    coeffs = zeta_numerator(terms, pole, w) + [0] * n
    if any(coeffs[: n - 1]) or any(c % dprime for c in coeffs):
        with pytest.raises(NonIntegral):
            _zeta_read_off(num, bits, n, dprime, "drawn")
    else:
        assert _zeta_read_off(num, bits, n, dprime, "drawn") == coeffs[n - 1] // dprime
