"""Reference oracles for the tests: plain per-permutation sums in exact rationals.

Each function here recomputes, the slow and obvious way, something the
library computes by a faster route, so the tests can compare the two.
"""

import itertools
import math
import operator
from fractions import Fraction
from itertools import zip_longest
from operator import sub

from tautmat.engine import sample_eval_point, wedge_axis
from tautmat.invariants import _factor_degree_poly
from tautmat.kclass import (
    KClassLoc,
    MixedSigns,
    _dedup_atoms,
    _zero,
    det_s_dual,
    dual_class,
    q_class,
    restrict_to_chain,
    s_class,
    simplex_pair,
)
from tautmat.matroid import Matroid, bits, popcount
from tautmat.perms import all_perms
from tautmat.poly import (
    SparsePoly,
    VariableMismatch,
    _falling_factorial_coeffs,
    interpolate_univariate,
    merge_vars,
)
from tautmat.tutte import beta_pair


def naive_perm_bases(matroids, sigma):
    """Greedy basis of each matroid at sigma, recomputed from scratch."""
    return tuple(m.lex_first_basis(sigma) for m in matroids)


def direct_sum(m1, m2):
    """M1 + M2 on the ground set of M1 followed by that of M2."""
    shift = m1.n_elements
    bases = [b1 | (b2 << shift) for b1 in m1.bases for b2 in m2.bases]
    return Matroid(m1.n_elements + m2.n_elements, bases, validate=False)


def localization_denominator(sigma, tstar):
    """prod_{i} (t_{sigma(i)} - t_{sigma(i+1)}); the empty product is 1."""
    d = 1
    for a, b in zip(sigma, sigma[1:]):
        d *= tstar[a] - tstar[b]
    return d


def perm_keys(atoms, ground):
    """Yields (sigma, joint atom key) for every permutation of range(ground).

    key[i] is the vertex of atoms[i] maximal for sigma.
    """
    for sigma in all_perms(ground):
        yield sigma, tuple(a.vertex_at(sigma) for a in atoms)


def scan_class_sums(atoms, ground, tstar, dprime):
    """acc[joint atom key] = sum over matching permutations of dprime/denominator.

    The oracle for `engine._prefix_sums` at a generic point: one pass over
    all permutations with their atom keys, each term divided out on its own.
    """
    acc = {}
    for sigma, key in perm_keys(atoms, ground):
        acc[key] = acc.get(key, 0) + dprime // localization_denominator(sigma, tstar)
    return acc


def scan_pair_products(atoms, ground, pair, adj):
    """acc[joint atom key] = sum over matching sigma of prod over its ordered pairs (b before e).

    The oracle for `engine._prefix_sums` with one table (pair, adj): a pair
    b before e contributes adj[b][j] if b immediately precedes e, else
    pair[b][e], and the first element e contributes adj[ground][e].
    """
    acc = {}
    for sigma, key in perm_keys(atoms, ground):
        value = 1
        for i, e in enumerate(sigma):
            value *= adj[sigma[i - 1] if i else ground][e]
            for b in sigma[: max(i - 1, 0)]:
                value *= pair[b][e]
        acc[key] = acc.get(key, 0) + value
    return acc


def scan_character_sums(atoms, ground, w, q):
    """acc[joint atom key] = sum over matching sigma of sign * q^neg * dq / prod (q^|delta| - 1).

    The oracle for `engine._chi_walk` at one sample q, from the
    denominator's shape per permutation: delta = w_b - w_a runs over the
    adjacent pairs (a, b) of sigma, each delta > 0 flips the sign, each
    delta < 0 adds |delta| to neg, and dq = prod_{a<b} (q^|w_a - w_b| - 1).
    """
    dq = math.prod(q ** abs(a - b) - 1 for i, a in enumerate(w) for b in w[i + 1 :])
    acc = {}
    for sigma, key in perm_keys(atoms, ground):
        sign, neg, den = 1, 0, 1
        for a, b in zip(sigma, sigma[1:]):
            delta = w[b] - w[a]
            if delta > 0:
                sign = -sign
            else:
                neg -= delta
            den *= q ** abs(delta) - 1
        acc[key] = acc.get(key, 0) + sign * q**neg * (dq // den)
    return acc


def graded_reference(ev, ground, formal_vars, *, rng):
    """Top-degree part of sum_sigma ev(sigma, t) / denominator, summed in Fractions.

    ev(sigma, tstar) -> SparsePoly in formal_vars.  Runs at two generic
    points drawn like the production path's, asserts that everything below
    degree n = ground - 1 vanishes, that the points agree and that the
    degree-n coefficients are integers.
    """
    n = ground - 1
    points = (sample_eval_point(ground, rng), sample_eval_point(ground, rng))
    results = []
    for tstar in points:
        total = {}
        for sigma in all_perms(ground):
            d = Fraction(localization_denominator(sigma, tstar))
            for e, c in ev(sigma, tstar).with_vars(formal_vars).terms.items():
                if sum(e) <= n:
                    total[e] = total.get(e, 0) + c / d
        results.append({e: c for e, c in total.items() if c})
    a, b = results
    assert all(sum(e) == n for e in a) and a == b
    assert all(c.denominator == 1 for c in a.values())
    return SparsePoly(formal_vars, {e: int(c) for e, c in a.items()})


def chi_reference(kcls):
    """chi of a K-class from its character, summed in Fractions.

    Along T_i = q^{w_i} with w = (0, 1, ..., n) the fixed point sigma
    contributes its localization over prod_k (1 - T_{sigma(k+1)}/T_{sigma(k)}),
    a denominator that depends only on the adjacent differences of w along
    sigma, so the numerators are gathered per sorted difference tuple.
    Scaled by q^-lo, [lo, hi] the hull of the exponents m.w ((0, 0) if
    there is no monomial), the character is a polynomial of degree at most
    hi - lo; it is sampled at q = 2, 3, ..., and its Lagrange interpolant,
    checked at five more samples, is read at q = 1.
    """
    w = tuple(range(kcls.ground))
    by_diffs = {}
    for sigma in all_perms(kcls.ground):
        diffs = tuple(sorted(w[b] - w[a] for a, b in zip(sigma, sigma[1:])))
        terms = by_diffs.setdefault(diffs, {})
        for c, m in kcls.monomials(kcls.key_at(sigma)):
            e = sum(x * y for x, y in zip(m, w))
            terms[e] = terms.get(e, 0) + c
    exps = [e for terms in by_diffs.values() for e in terms]
    lo, hi = min(exps, default=0), max(exps, default=0)
    samples = []
    for q in range(2, hi - lo + 8):
        total, scale = 0, 1  # the sample is total / scale
        for diffs, terms in by_diffs.items():
            # 1 - q^d, and (q^-d - 1) / q^-d for d < 0
            num, den = sum(c * q ** (e - lo) for e, c in terms.items()), 1
            for d in diffs:
                if d > 0:
                    den *= 1 - q**d
                else:
                    num *= q**-d
                    den *= q**-d - 1
            total, scale = total * den + num * scale, scale * den
        samples.append((q, Fraction(total, scale)))
    nodes = samples[: hi - lo + 1]
    assert all(lagrange_at(nodes, q) == y for q, y in samples[hi - lo + 1 :])
    return lagrange_at(nodes, 1)


def lagrange_at(samples, x):
    """The value at x of the interpolant through samples (x_j, y_j), the x_j distinct integers."""
    total = Fraction(0)
    for j, (xj, yj) in enumerate(samples):
        num = den = 1
        for k, (xk, _) in enumerate(samples):
            if k != j:
                num *= x - xk
                den *= xj - xk
        total += yj * Fraction(num, den)
    return total


def balanced_digits(x, bits):
    """The digits of x in balanced base 2^bits, each in [-2^(bits - 1), 2^(bits - 1)), lowest first."""
    base = 1 << bits
    out = []
    while x:
        x, d = divmod(x, base)
        if 2 * d >= base:
            d -= base
            x += 1
        out.append(d)
    return out


def alpha_beta_twist(n, t_pow, u_pow):
    """[O(t alpha + u beta)] with localization T_{sigma(0)}^{u} T_{sigma(n)}^{-t}.

    Reads the vertices e_sigma(0) of Delta and -e_sigma(n) of -Delta, the
    same two atoms for every (t, u).
    """

    def mono(key):
        first, last = key
        return [(1, tuple([u_pow * a + t_pow * b for a, b in zip(first, last)]))]

    return KClassLoc(n, simplex_pair(n), mono, name=f"O({t_pow}a+{u_pow}b)")


def kc_product(*classes) -> KClassLoc:
    """The product class, every monomial of each factor times every one of the others."""
    ground = classes[0].ground
    atoms = _dedup_atoms(tuple(a for c in classes for a in c.atoms))
    factors = tuple((c, tuple(atoms.index(a) for a in c.atoms)) for c in classes)

    def mono(key):
        acc = [(1, _zero(ground))]
        for c, sl in factors:
            factor = c.monomials(tuple(key[i] for i in sl))
            acc = [
                (ca * cb, tuple(map(operator.add, ma, mb)))
                for ca, ma in acc
                for cb, mb in factor
            ]
        return acc

    return KClassLoc(ground, atoms, mono, name="*".join(c.name for c in classes))


def exterior_power(cls: KClassLoc, j: int) -> KClassLoc:
    """j-th exterior power, every j-subset of the roots; requires all localization signs to be +1."""

    def mono(key):
        ms = []
        for c, m in cls.monomials(key):
            if c < 0 or c != int(c):
                raise MixedSigns(f"exterior power of a class with sign {c}")
            ms.extend([m] * int(c))
        out = []
        for combo in itertools.combinations(range(len(ms)), j):
            tot = [0] * cls.ground
            for i in combo:
                for p, x in enumerate(ms[i]):
                    tot[p] += x
            out.append((1, tuple(tot)))
        return out

    return KClassLoc(cls.ground, cls.atoms, mono, name=f"wedge^{j}({cls.name})")


def axis_class(axis, k):
    """The class E_k of an engine.GridAxis: wedge^k of its class, or its line bundle to the k."""
    if axis.wedge:
        return exterior_power(axis.cls, k)
    line = axis.cls

    def mono(key):
        ((c, m),) = line.monomials(key)
        return [(c**k, tuple(k * x for x in m))]

    return KClassLoc(line.ground, line.atoms, mono, name=f"{line.name}^{k}")


def grid_classes(base, rows, cols):
    """kc_product(base, R_a, C_b) for every point of a chi grid, rows first."""
    return [
        kc_product(base, axis_class(rows, a), axis_class(cols, b))
        for a in range(rows.size)
        for b in range(cols.size)
    ]


def fs_classes(m):
    """[det S^v][wedge^i S][wedge^j Q^v] for 0<=i<=r, 0<=j<=crk: fs_tutte's grid as product classes, rows first."""
    return grid_classes(
        det_s_dual(m), wedge_axis(s_class(m), m.rank_value), wedge_axis(dual_class(q_class(m)), m.corank)
    )


def zeta_monomial_value(mono, tpoint):
    """Value of the zeta image prod_i (1 + t_i)^{m_i} at an exact point."""
    val = Fraction(1)
    for i, e in enumerate(mono):
        if e:
            val = val * (1 + Fraction(tpoint[i])) ** e
    return val


def zeta_numerator(terms, pole, w):
    """The coefficients of N(q) = sum_e terms[e] prod_i (1 + q w_i)^(e_i + pole), lowest first.

    The oracle for `engine._zeta_read_off`: each product expanded one factor
    1 + q w_i at a time.
    """
    out = [0]
    for e, c in terms.items():
        poly = [c]
        for wi, x in zip(w, e):
            for _ in range(x + pole):
                poly = [a + wi * b for a, b in zip(poly + [0], [0] + poly)]
        out = [a + b for a, b in zip_longest(out, poly, fillvalue=0)]
    return out


def induced_subpermutation(sigma, subset_mask):
    """Order of the subset elements within sigma, relabeled by ascending label."""
    members = [e for e in sigma if subset_mask & (1 << e)]
    labels = sorted(members)
    return tuple(labels.index(e) for e in members)


def direct_sum_check(m1, m2):
    """Verify [S_{M1 + M2}] = pullback of [S_{M1}] plus pullback of [S_{M2}].

    Checks every permutation of the combined ground set; the pullback along
    the coordinate projection evaluates a factor class at the induced
    subpermutation.  Returns None on success, else the witnessing sigma.
    """
    m = direct_sum(m1, m2)
    s = s_class(m)
    n1, n2 = m1.n_elements, m2.n_elements
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    s1, s2 = s_class(m1), s_class(m2)
    for sigma in all_perms(n1 + n2):
        expect = {}
        sub1 = induced_subpermutation(sigma, mask1)
        sub2 = induced_subpermutation(sigma, mask2)
        for mm, c in s1.at(sub1).items():
            expect[mm + (0,) * n2] = c
        for mm, c in s2.at(sub2).items():
            expect[(0,) * n1 + mm] = c
        if s.at(sigma) != expect:
            return sigma
    return None


def all_chains(n_elements, k):
    """Strictly nested chains of k nonempty proper subsets of {0..n}, sorted."""
    full = (1 << n_elements) - 1
    out = []

    def extend(chain, last):
        if len(chain) == k:
            out.append(tuple(chain))
            return
        # supersets of last: last | u for nonempty u inside the complement,
        # staying proper
        comp = full & ~last
        u = comp
        while u:
            s = last | u
            if s != full:
                chain.append(s)
                extend(chain, s)
                chain.pop()
            u = (u - 1) & comp

    extend([], 0)
    return sorted(out)


def geometric_weight_reference(m, k, rng):
    """Unsigned geometric csm_k weights, one chain at a time.

    For every chain of k nonempty proper subsets, the product of the factor
    degree polynomials of M|S_{i+1}/S_i in full, read at z^(r-1-k) w^(n1-r).
    Returns {chain: value} with the nonzero values only.
    """
    r, n1 = m.rank_value, m.n_elements
    out = {}
    for chain in all_chains(n1, k):
        prod = None
        for factor in restrict_to_chain(m, chain):
            w = _factor_degree_poly(factor, rng)
            prod = w if prod is None else prod * w
        val = prod.coeff((r - 1 - k, n1 - r))
        if val:
            out[chain] = val
    return out


def flat_chains(m, k):
    """Strictly nested chains of k nonempty proper flats of m."""
    flats = sorted(m.proper_nonempty_flats(), key=popcount)
    out = []

    def extend(chain, start):
        if len(chain) == k:
            out.append(tuple(chain))
            return
        for idx in range(start, len(flats)):
            f = flats[idx]
            if not chain or (chain[-1] & f) == chain[-1] and chain[-1] != f:
                chain.append(f)
                extend(chain, idx + 1)
                chain.pop()

    extend([], 0)
    return out


def comb_weight_reference(m, k):
    """Unsigned combinatorial csm_k weights, one chain at a time.

    For every chain of k nonempty proper flats of a loopless m, the product
    of beta(M|F_{i+1}/F_i) over its gaps, zeros included; {} if m has a loop.
    """
    if m.loops():
        return {}
    full = m.full_mask
    return {
        ch: math.prod(beta_pair(m.minor(hi, lo))[0] for lo, hi in zip((0, *ch), (*ch, full)))
        for ch in flat_chains(m, k)
    }


def chain_insertions(chain, n_elements):
    """All (position, subset) pairs refining a chain by one level."""
    full = (1 << n_elements) - 1
    levels = [0, *chain, full]
    out = []
    for g in range(len(levels) - 1):
        lo, hi = levels[g], levels[g + 1]
        diff = hi & ~lo
        u = (diff - 1) & diff
        while u:
            out.append((g, lo | u))
            u = (u - 1) & diff
    return out


def constant_on_gaps_reference(chain, v):
    """Whether v takes at most one value on every gap S_{i+1}-S_i of the chain."""
    levels = (0, *chain, (1 << len(v)) - 1)
    return all(len({v[i] for i in bits(hi & ~lo)}) < 2 for lo, hi in zip(levels, levels[1:]))


def balance_reference(weight):
    """mw_balance_check candidate by candidate: every (d-1)-chain refinable
    into the support, its vector rebuilt from all of its one-level
    refinements.  None if balanced, else ((d-1)-chain, offending vector)."""
    d, n = weight.dim, weight.ground
    if d <= 0:
        return None
    candidates = set()
    for ch in weight.weights:
        for i in range(d):
            candidates.add(ch[:i] + ch[i + 1 :])
    for sub in sorted(candidates):
        v = [0] * n
        for pos, s in chain_insertions(sub, n):
            w = weight.weights.get(sub[:pos] + (s,) + sub[pos:], 0)
            if w:
                for i in bits(s):
                    v[i] += w
        if not constant_on_gaps_reference(sub, v):
            return (sub, tuple(v))
    return None


def coordinate_bounds(p):
    """Per-coordinate [lo, hi] valid for every point of the polytope p."""
    full = p.full_mask
    los, his = [], []
    for i in range(p.n_elements):
        his.append(p.rk[1 << i])
        los.append(p.rk[full] - p.rk[full ^ (1 << i)])
    return los, his


def lattice_count_reference(p):
    """Integer points of p by a depth-first walk over its coordinates.

    One depth-first walk fixes the coordinates 0..n-3 within the
    bounding box intersected with the hyperplane sum x_i = rk(E),
    checking every facet inequality <x, e_S> <= rk(S) incrementally (S
    ranging over the subsets whose largest element is the coordinate
    just fixed).  The last two coordinates a = n-2, b = n-1 are closed
    as an interval: with x_a = v and x_b = remaining - v, the facets
    whose largest element is a bound v above, those containing b but not
    a bound it below, and those containing both do not depend on v.
    """
    n = p.n_elements
    los, his = coordinate_bounds(p)
    if any(lo > hi for lo, hi in zip(los, his)):
        return 0
    if n < 2:
        # the hyperplane fixes the only coordinate, if any
        return 1
    total = p.rk[p.full_mask]
    suf_lo = [0] * (n + 1)
    suf_hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf_lo[i] = suf_lo[i + 1] + los[i]
        suf_hi[i] = suf_hi[i + 1] + his[i]
    subsum = [0] * (1 << n)
    rk = p.rk
    last = n - 2
    bit_a = 1 << last
    bit_b = bit_a << 1
    # rk(m | a), rk(m | b), rk(m | a | b) for every m below a
    rk_a = rk[bit_a : 2 * bit_a]
    rk_b = rk[bit_b : bit_b + bit_a]
    rk_ab = rk[bit_b + bit_a :]

    def slack(table):
        """min over m below a of rk(m | ...) - subsum[m]."""
        return min(map(sub, table, subsum))

    def descend(i, remaining):
        if i == last:
            if remaining > slack(rk_ab):
                return 0
            vlo = remaining - slack(rk_b)
            vhi = slack(rk_a)
            return max(0, vhi - vlo + 1)
        lo = max(los[i], remaining - suf_hi[i + 1])
        hi = min(his[i], remaining - suf_lo[i + 1])
        bit = 1 << i
        masks = range(bit)
        count = 0
        for v in range(lo, hi + 1):
            ok = True
            for m in masks:
                s = subsum[m] + v
                if s > rk[m | bit]:
                    ok = False
                    break
                subsum[m | bit] = s
            if ok:
                count += descend(i + 1, remaining - v)
        return count

    return descend(0, total)


def level_walk_count(p):
    """Integer points of p by a level-by-level walk over the slice states.

    The state after fixing x_0..x_{i-1} is (remaining, b): the sum still
    to place and the table b of GenPermutohedron.count_lattice_points.  The
    walk goes forward: a level is a dict {state: ways}, the number of
    prefixes reaching each state, and level i + 1 is built from level i
    alone.  The last coordinate takes what remains, which fits iff
    remaining <= b[1].
    """
    n = p.n_elements
    if n == 0:
        return 1
    level = {(p.rk[-1], tuple(p.rk)): 1}
    for _ in range(n - 1):
        nxt = {}
        for (remaining, b), ways in level.items():
            pairs = tuple(zip(b[0::2], b[1::2]))
            for v in range(remaining - b[-2], b[1] + 1):
                key = (remaining - v, tuple([e if e < o - v else o - v for e, o in pairs]))
                nxt[key] = nxt.get(key, 0) + ways
        level = nxt
    return sum(ways for (remaining, b), ways in level.items() if remaining <= b[1])


def psi_inverse_reference(poly, var_map=(("t", "x"), ("u", "y"))):
    """poly.psi_inverse term by term: each x^i y^j becomes a product of binomial polynomials."""
    src = tuple(v for v, _ in var_map)
    dst = tuple(v for _, v in var_map)
    p = poly.with_vars(merge_vars(poly.vars, dst))
    idx = [p.vars.index(v) for v in dst]
    out = SparsePoly.zero(src)
    for exp, c in p.terms.items():
        for j, v in enumerate(p.vars):
            if v not in dst and exp[j]:
                raise VariableMismatch(f"unexpected variable {v!r} in psi_inverse input")
        term = SparsePoly.constant(c, src)
        for v, i in zip(src, (exp[k] for k in idx)):
            coeffs = _falling_factorial_coeffs(i)
            binom = SparsePoly(
                (v,), {(d,): Fraction(cc, math.factorial(i)) for d, cc in enumerate(coeffs) if cc}
            )
            term = term * binom
        out = out + term
    return out
