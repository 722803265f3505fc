"""The prefix-set walk of the graded path, the zeta route and the character
path against the permutation scan, and the character grid against its
product classes read one at a time, on random sparse paving and graphic
matroids and their duals."""

import contextlib
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tautmat.engine
from tautmat.engine import (
    NonIntegral,
    _chi_walk,
    _frees,
    _grid_terms,
    _increments,
    _kronecker_bits,
    _pairwise_diff_product,
    _point_steps,
    _prefix_sums,
    chern_series,
    euler_char_grid,
    euler_char_many,
    integrate_graded,
    integrate_inhomogeneous,
    power_axis,
    power_series,
    sample_eval_point,
    sample_weight,
    wedge_axis,
)
from tautmat.genperm import base_polytope, simplex
from tautmat.invariants import chi_via_zeta
from tautmat.kclass import (
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
    simplex_pair,
    structure_sheaf,
)
from tautmat.matroid import Matroid, graphic, mask_of, uniform
from tautmat.poly import SparsePoly

from reference import (
    alpha_beta_twist,
    balanced_digits,
    chi_reference,
    fs_classes,
    graded_reference,
    grid_classes,
    kc_product,
    scan_character_sums,
    scan_class_sums,
    scan_pair_products,
)
from test_engine import (
    _corrupted_s_class,
    _exponent_hull,
    _record_reads,
    _record_weights,
    assert_escalation,
    first_bits,
    split_reads,
)


@st.composite
def sparse_paving(draw):
    """U_{r,n} minus r-subsets that pairwise share at most r - 2 elements."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    combos = list(itertools.combinations(range(n), r))
    removed = []
    if len(combos) > 1:
        for c in draw(st.lists(st.sampled_from(combos), max_size=5)):
            if all(len(set(c) & set(f)) <= r - 2 for f in removed):
                removed.append(c)
    return Matroid(n, [mask_of(c) for c in combos if c not in removed])


@st.composite
def graphic_matroids(draw):
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    return graphic(edges, nv)


@st.composite
def small_matroids(draw):
    m = draw(st.one_of(sparse_paving(), graphic_matroids()))
    return m.dual() if draw(st.booleans()) else m


def _atom_pool(m):
    # P(M) twice, once for the greedy basis and once as a polytope's max
    # vertex, so a walk may also see a repeated atom
    p = base_polytope(m)
    delta, nabla = simplex_pair(m.n_elements)
    return [p, base_polytope(m.dual()), delta, nabla, p.negate(), p, p + delta]


@given(small_matroids(), st.data(), st.integers(0, 2**16), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_walk_matches_scan(m, data, seed, npoints):
    pool = _atom_pool(m)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=4,
                               unique=True))
    atoms = tuple(pool[i] for i in picks)
    n = m.n_elements
    rng = random.Random(seed)
    points = [sample_eval_point(n, rng) for _ in range(npoints)]
    scans = [scan_class_sums(atoms, n, t, _pairwise_diff_product(t)) for t in points]
    # every point's table in one walk
    assert _prefix_sums(atoms, n, [_point_steps(t) for t in points]) == scans
    # the value-free walk, without last element or value, lists the same joint keys
    assert _prefix_sums(atoms, n, ()) == dict.fromkeys(scans[0], ())


@given(small_matroids(), st.data())
@settings(max_examples=80, deadline=None)
def test_walk_matches_pair_product_scan(m, data):
    # random integer tables, with zeros, negative and asymmetric entries, one
    # or two per walk
    pool = _atom_pool(m)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), max_size=3, unique=True))
    atoms = _dedup_atoms(tuple(pool[i] for i in picks))
    n = m.n_elements
    entry = st.integers(-3, 3)
    tables = data.draw(st.lists(
        st.tuples(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
                  st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n + 1, max_size=n + 1)),
        min_size=1, max_size=2,
    ))
    want = [scan_pair_products(atoms, n, pair, adj) for pair, adj in tables]
    assert _prefix_sums(atoms, n, tables) == want


@given(small_matroids(), st.data(), st.integers(0, 2**16),
       st.lists(st.integers(2, 7), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_character_walk_matches_scan(m, data, seed, qs):
    pool = _atom_pool(m)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), max_size=3, unique=True))
    atoms = tuple(pool[i] for i in picks)
    n = m.n_elements
    w = sample_weight(n, random.Random(seed))
    for q in qs:
        acc, dq = _chi_walk(atoms, n, w, q)
        assert acc == scan_character_sums(atoms, n, w, q)
        assert dq == math.prod(q ** abs(a - b) - 1 for a, b in itertools.combinations(w, 2))
    # the value-free walk reaches the same joint keys
    assert _prefix_sums(atoms, n, ()) == dict.fromkeys(acc, ())


@given(small_matroids(), st.data(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_kronecker_slot_matches_scan(m, data, seed):
    # a chain value has coefficient mass at most 2^C(n - 1, 2), so at the
    # a priori K of n! such chains each slot of the walk at q = 2^K is a
    # polynomial's value whose balanced base-2^K digits are its
    # coefficients; its values at q = 2, 3, 4 are the scan's sums
    pool = _atom_pool(m)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), max_size=3, unique=True))
    atoms = _dedup_atoms(tuple(pool[i] for i in picks))
    n = m.n_elements
    w = sample_weight(n, random.Random(seed))
    bits = _kronecker_bits(math.factorial(n) << math.comb(n - 1, 2))
    acc, _ = _chi_walk(atoms, n, w, 1 << bits)
    polys = {k: balanced_digits(v, bits) for k, v in acc.items()}
    for q in (2, 3, 4):
        want = scan_character_sums(atoms, n, w, q)
        assert {k: sum(c * q**j for j, c in enumerate(p)) for k, p in polys.items()} == want


def _factors_at(factors, vars, sigma, tstar):
    """The product of the factors at one fixed point, atoms read off sigma."""
    out = SparsePoly.constant(1, vars)
    for f in factors:
        key = f.cls.key_at(sigma)
        terms = {
            tuple(k if v == f.var else 0 for v in vars): c for k, c in f.at(key, tstar).items()
        }
        out = out * SparsePoly(vars, terms)
    return out


@given(small_matroids(), st.data(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_integrate_graded_matches_reference(m, data, seed):
    n = m.n_elements
    p = base_polytope(m)
    # the last two are 1 + (m.t) v + ... for the vertex m the atom reads
    pool = [
        chern_series(dual_class(s_class(m)), "z"),
        chern_series(q_class(m), "w"),
        power_series(beta_class(n), "y"),
        power_series(alpha_class(n), "x"),
        power_series(cremona(line_bundle(p)), "u"),
        power_series(dual_class(line_bundle(p + simplex(n))), "v"),
    ]
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=3,
                               unique=True))
    factors = [pool[i] for i in sorted(picks)]
    vars = tuple(f.var for f in factors)
    got = integrate_graded(n, factors, rng=random.Random(seed))
    ref = graded_reference(
        lambda sigma, t: _factors_at(factors, vars, sigma, t), n, vars, rng=random.Random(seed),
    )
    assert got == ref


def test_walk_reads_first_only_when_asked():
    # a state carries first only if an atom reads it: with -Delta alone,
    # keys are the vertices -e_last, summed over every first
    t = (3, 8, 1, 6)
    d = _pairwise_diff_product(t)
    nabla = (simplex_pair(4)[1],)
    scan = scan_class_sums(nabla, 4, t, d)
    assert _prefix_sums(nabla, 4, [_point_steps(t)]) == [scan]
    assert _prefix_sums((), 4, [_point_steps(t)]) == [{(): sum(scan.values())}]


@given(small_matroids(), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_walk_tables_are_built_once_per_atom(m, seed):
    # an atom equal to a cached one, built separately, reuses its table;
    # tables built again from a cleared cache give the same walk
    n = m.n_elements
    t = sample_eval_point(n, random.Random(seed))
    walk = [_point_steps(t)]
    cached = _prefix_sums((base_polytope(m), simplex_pair(n)[1]), n, walk)
    hits = _increments.cache_info().hits
    again = _prefix_sums((base_polytope(m), simplex_pair(n)[1]), n, walk)
    assert _increments.cache_info().hits == hits + 2
    _increments.cache_clear()
    _frees.cache_clear()
    cold = _prefix_sums((base_polytope(m), simplex_pair(n)[1]), n, walk)
    assert cached == again == cold


def _class_pool(m):
    """fs classes, alpha-beta twists times det S^v, line bundles and Cremona images."""
    n = m.n_elements
    p = base_polytope(m)
    fs = fs_classes(m)
    twists = [kc_product(alpha_beta_twist(n, t, u), det_s_dual(m)) for t in range(2) for u in range(2)]
    bundles = [line_bundle(p), line_bundle(p + simplex(n))]
    return fs + twists + bundles + [cremona(c) for c in (fs[-1], twists[-1], bundles[-1])]


def _table_class_pool(m):
    """_class_pool plus nested products, a dual and a negated product, and a
    product whose monomials cancel."""
    n = m.n_elements
    twist = alpha_beta_twist(n, 1, 1)
    s = s_class(m)
    nested = kc_product(kc_product(twist, s), line_bundle(base_polytope(m)))
    return _class_pool(m) + [
        nested,
        dual_class(nested),
        kc_negate(kc_product(det_s_dual(m), q_class(m))),
        kc_product(kc_sum(s, kc_negate(s)), twist),
    ]


@given(small_matroids(), st.data(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_euler_char_many_matches_reference_and_zeta_route(m, data, seed):
    # with nested, dual, negated and cancelling products; each class draws
    # its own w and is read off at its first K, or escalates from it, with
    # a span at most B_c = hi_c - lo_c, the hull of every one of its
    # monomials along that w, cancelled or not
    pool = _table_class_pool(m)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=4,
                               unique=True))
    batch = [pool[i] for i in picks]
    with _recorded_weights() as weights, _recorded_reads() as reads:
        chis = euler_char_many(batch, rng=random.Random(seed))
    assert chis == [chi_reference(c) for c in batch]
    assert chis == [chi_via_zeta(c, rng=random.Random(seed)) for c in batch]
    bounds = [hi - lo for lo, hi in map(_exponent_hull, batch, weights)]
    unit = wedge_axis(structure_sheaf(m.n_elements), 0)
    per_class = split_reads(reads)
    assert len(per_class) == len(batch)
    for c, b, class_reads in zip(batch, bounds, per_class):
        assert_escalation(class_reads, first_bits(c, unit, unit), b)


def test_euler_char_many_of_a_class_without_monomials():
    # a drawn case: on a rank-0 matroid S_M is 0, so the nested product has
    # no monomials; its numerator is bounded by 0, so K = 1, and chi is 0
    # (P = 0, span -1)
    m = Matroid(1, [0])
    cls = kc_product(kc_product(alpha_beta_twist(1, 1, 1), s_class(m)), line_bundle(base_polytope(m)))
    assert cls.monomials(cls.key_at((0,))) == ()
    _assert_table_matches_monomials(cls, sample_weight(1, random.Random(0)))
    with _recorded_reads() as reads:
        assert euler_char_many([cls], rng=random.Random(0)) == [0]
    assert reads == [(1, (-1,))]


def _assert_table_matches_monomials(cls, w):
    """The grouped sums that euler_char_many reads cls from (_grid_terms of
    its 1x1 grid), at distinct values per joint key: per m.w, the sum over
    joint keys of the value times the summed coefficient of cls's monomials
    there, cancelled or not, and the unit axes' one root, of exponent 0."""
    n = cls.ground
    unit = wedge_axis(structure_sheaf(n), 0)
    atoms = _dedup_atoms(cls.atoms)
    slot = [atoms.index(a) for a in cls.atoms]
    acc = {joint: 3 * i + 1 for i, joint in enumerate(_prefix_sums(atoms, n, ()))}

    def dot(m):
        return sum(map(operator.mul, m, w))

    by_pair, row_roots, col_roots = _grid_terms(acc, atoms, cls, unit, unit, lambda _, m: dot(m))
    assert row_roots == col_roots == [[(0,) * n]]
    want = {}
    for joint, v in acc.items():
        for c, mono in cls.monomials(tuple(joint[i] for i in slot)):
            want[dot(mono)] = want.get(dot(mono), 0) + v * c
    assert by_pair == {(0, 0): want}


@given(small_matroids(), st.data(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_chi_tables_match_monomials(m, data, seed):
    pool = _table_class_pool(m)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=4,
                               unique=True))
    w = sample_weight(m.n_elements, random.Random(seed))
    for i in picks:
        _assert_table_matches_monomials(pool[i], w)


@contextlib.contextmanager
def _recorded_reads():
    """(K, spans) of every grid read-off inside the block (see test_engine._record_reads)."""
    with pytest.MonkeyPatch.context() as mp:
        yield _record_reads(mp)


@contextlib.contextmanager
def _recorded_weights():
    """The weights w that engine.sample_weight draws inside the block, in order."""
    with pytest.MonkeyPatch.context() as mp:
        yield _record_weights(mp)


@contextlib.contextmanager
def _pinned_weight(w):
    """engine.sample_weight returns w inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tautmat.engine, "sample_weight", lambda n, rng: w)
        yield


def _assert_grid_matches_singles(base, rows, cols, seed, oracle):
    """The grid against euler_char_many on grid_classes, both at the w that
    random.Random(seed) draws: the same values as oracle(classes), the grid
    read from its first K on with every span at most B, the largest width
    hi_c - lo_c of a class's exponent hull, each single from its own first
    K on with its span at most its own width, and every P_ab of the
    single's span.  Returns the grid."""
    classes = grid_classes(base, rows, cols)
    w = sample_weight(base.ground, random.Random(seed))
    with _pinned_weight(w):
        with _recorded_reads() as grid_reads:
            grid = euler_char_grid(base, rows, cols, rng=random.Random(seed))
        with _recorded_reads() as single_reads:
            chis = euler_char_many(classes, rng=random.Random(seed))
    assert [chi for row in grid for chi in row] == chis == oracle(classes)
    widths = [hi - lo for lo, hi in (_exponent_hull(c, w) for c in classes)]
    [grid_reads] = split_reads(grid_reads)
    spans = assert_escalation(grid_reads, first_bits(base, rows, cols), max(widths))
    unit = wedge_axis(structure_sheaf(base.ground), 0)
    singles = split_reads(single_reads)
    assert len(singles) == len(classes)
    single_spans = [
        assert_escalation(reads, first_bits(c, unit, unit), b)
        for c, b, reads in zip(classes, widths, singles)
    ]
    assert list(spans) == [s for (s,) in single_spans]
    return grid


@given(small_matroids(), st.data(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_euler_char_grid_matches_class_list(m, data, seed):
    # every grid entry against the kc_product of base, row class and column
    # class read off alone at the same w and by the zeta route one class at
    # a time (the reference's Fraction interpolation takes about 12 s on
    # the 81 twist classes of U_{3,6} with axes up to 8), and the zeta
    # grid against the character grid; twist axes run up to n + 2, above
    # the degree n of the Cameron-Fink polynomial
    n = m.n_elements
    twist_top = st.integers(0, n + 2)
    axes = [
        lambda: wedge_axis(s_class(m), m.rank_value),
        lambda: wedge_axis(dual_class(q_class(m)), m.corank),
        lambda: wedge_axis(q_class(m), m.corank),
        lambda: power_axis(beta_class(n), data.draw(twist_top)),
        lambda: power_axis(alpha_class(n), data.draw(twist_top)),
    ]
    bases = [det_s_dual(m), structure_sheaf(n), line_bundle(base_polytope(m) + simplex(n))]
    base = bases[data.draw(st.integers(0, len(bases) - 1))]
    rows, cols = (axes[data.draw(st.integers(0, len(axes) - 1))]() for _ in range(2))
    grid = _assert_grid_matches_singles(
        base, rows, cols, seed, lambda cs: [chi_via_zeta(c, rng=random.Random(seed)) for c in cs]
    )
    assert integrate_inhomogeneous(base, rows, cols, rng=random.Random(seed)) == grid


def test_euler_char_grid_of_the_cf_and_fs_grids():
    # the grids of cf_check (twists, one axis above n) and of fs_tutte and
    # g_polynomial (wedge powers, base det S^v and O) on U_{2,4}, by the
    # character path and by the zeta route, which cf_check reads
    m = uniform(2, 4)
    s, qd = s_class(m), dual_class(q_class(m))
    grids = [
        (det_s_dual(m), power_axis(beta_class(4), 3), power_axis(alpha_class(4), 4)),
        (det_s_dual(m), wedge_axis(s, 2), wedge_axis(qd, 2)),
        (structure_sheaf(4), wedge_axis(s, 2), wedge_axis(qd, 2)),
    ]
    for base, rows, cols in grids:
        grid = _assert_grid_matches_singles(base, rows, cols, 0, lambda cs: list(map(chi_reference, cs)))
        assert integrate_inhomogeneous(base, rows, cols, rng=random.Random(0)) == grid


def test_euler_char_grid_rejects_a_non_gkm_base():
    # a base failing the fixed-point congruences, at the w of each seed:
    # along some, a single class raises NonIntegral and the grid raises
    # too; along the others neither raises and both give the same values
    m = uniform(2, 4)
    base = _corrupted_s_class(m)
    rows, cols = wedge_axis(s_class(m), 2), wedge_axis(dual_class(q_class(m)), 2)
    raised = []
    for seed in range(6):
        with _pinned_weight(sample_weight(4, random.Random(seed))):
            try:
                chis = euler_char_many(grid_classes(base, rows, cols), rng=random.Random(seed))
            except NonIntegral:
                raised.append(seed)
                with pytest.raises(NonIntegral):
                    euler_char_grid(base, rows, cols, rng=random.Random(seed))
            else:
                grid = euler_char_grid(base, rows, cols, rng=random.Random(seed))
                assert [chi for row in grid for chi in row] == chis
    assert 0 in raised and len(raised) < 6
