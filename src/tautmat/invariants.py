"""Derived matroid invariants and their cross-validating routes.

Every invariant that the theory derives in two ways is computed by both
and compared, with a hard error on mismatch: the 4-variable degree
polynomial against the Tutte transform, Bergman/CSM weights by chain
combinatorics against factor-variety localization, Euler-characteristic
formulas against the zeta substitution, lattice counts against zeta-route chi,
and the Las Vergnas / flag Tutte polynomials against their defining sums.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .engine import (
    euler_char_ab,
    euler_char_grid,
    integrate_graded,
    integrate_inhomogeneous,
    power_axis,
    wedge_axis,
)
from .genperm import GenPermutohedron, base_polytope, simplex
from .kclass import (
    KClassLoc,
    alpha_class,
    beta_class,
    det_s_dual,
    dual_class,
    kc_negate,
    kc_sum,
    line_bundle,
    q_class,
    s_class,
    structure_sheaf,
)
from .matroid import FlagMatroid, Matroid, bits, is_quotient, popcount
from .poly import InconsistentSamples, SparsePoly, psi_from_samples, psi_inverse, shift
from .tutte import beta_pair, t_transform, tutte_delcontr
from .weights import MinkowskiWeight


class RouteMismatch(AssertionError):
    """Two independent derivations of the same invariant disagree."""


class CountMismatch(AssertionError):
    """A character value disagrees with a lattice-point count."""


class IdentityFailure(AssertionError):
    """A polynomial identity required by the theory fails."""


class ChiRouteMismatch(AssertionError):
    """Euler characteristics by localization and by zeta disagree."""


class LoopOrColoopPresent(ValueError):
    """The g-polynomial needs a loopless and coloopless matroid."""


class NotAQuotient(ValueError):
    """The pair of matroids is not a matroid morphism."""


class IndicatorIdentityFails(AssertionError):
    """The hard-coded subdivision's indicator identity fails."""


class ValuativityFails(AssertionError):
    """An invariant fails inclusion-exclusion over the subdivision."""


T4_VARS = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# Theorem-A style degree polynomials
# ---------------------------------------------------------------------------


def taut_degree_polynomial(m: Matroid, *, rng) -> SparsePoly:
    """sum of (deg alpha^i beta^j c_k(S^v) c_l(Q)) x^i y^j z^k w^l."""
    n1 = m.n_elements
    p = integrate_graded(
        n1,
        [
            (wedge_axis(dual_class(s_class(m)), n1 - 1), "z"),
            (wedge_axis(q_class(m), n1 - 1), "w"),
            (power_axis(beta_class(n1), n1 - 1), "y"),
            (power_axis(alpha_class(n1), n1 - 1), "x"),
        ],
        rng=rng,
    )
    return p.with_vars(T4_VARS)


def mixed_degree_generating(subs, quots, *, rng) -> SparsePoly:
    """Generating polynomial of mixed degrees for several S/Q factors.

    Variables: x (alpha), y (beta), z1..zm for the dual sub classes,
    w1..wm' for the quotient classes.
    """
    mats = list(subs) + list(quots)
    if not mats:
        raise ValueError("need at least one matroid to fix the ground set")
    n1 = mats[0].n_elements
    if any(m.n_elements != n1 for m in mats):
        raise ValueError("matroids on different ground sets")
    factors = []
    vars_out = ["x", "y"]
    for i, m in enumerate(subs, start=1):
        factors.append((wedge_axis(dual_class(s_class(m)), n1 - 1), f"z{i}"))
        vars_out.append(f"z{i}")
    for i, m in enumerate(quots, start=1):
        factors.append((wedge_axis(q_class(m), n1 - 1), f"w{i}"))
        vars_out.append(f"w{i}")
    factors.append((power_axis(beta_class(n1), n1 - 1), "y"))
    factors.append((power_axis(alpha_class(n1), n1 - 1), "x"))
    return integrate_graded(n1, factors, rng=rng).with_vars(tuple(vars_out))


def alpha_beta_degrees(n1, *, rng) -> SparsePoly:
    """sum (deg alpha^i beta^j) x^i y^j on the ground set of size n1."""
    top = n1 - 1
    factors = [(power_axis(beta_class(n1), top), "y"), (power_axis(alpha_class(n1), top), "x")]
    return integrate_graded(n1, factors, rng=rng).with_vars(("x", "y"))


def theorem_a_check(m: Matroid, *, rng, jobs=1):
    """Assert the degree polynomial equals the Tutte transform; returns it."""
    del jobs  # ignored; kept only because bench/worker.py passes jobs=1
    lhs = taut_degree_polynomial(m, rng=rng)
    rhs = t_transform(m)
    if lhs != rhs:
        raise IdentityFailure(f"degree polynomial differs from Tutte transform for {m!r}")
    return lhs


def beta_via_localization(m: Matroid, *, rng):
    """(beta(M), beta(M dual)) read from the degree polynomial."""
    p = taut_degree_polynomial(m, rng=rng)
    r, crk = m.rank_value, m.corank
    b1 = p.coeff((0, 0, r - 1, crk)) if r >= 1 else 0
    b2 = p.coeff((0, 0, r, crk - 1)) if crk >= 1 else 0
    return b1, b2


# ---------------------------------------------------------------------------
# Minkowski weights: Bergman and CSM classes
# ---------------------------------------------------------------------------

_FACTOR_DEGREE_MEMO = {}


def _factor_degree_poly(m: Matroid, rng) -> SparsePoly:
    """Top-degree polynomial sum (deg c_a(S^v) c_b(Q)) z^a w^b for one factor."""
    key = m.key()
    got = _FACTOR_DEGREE_MEMO.get(key)
    if got is None:
        n1 = m.n_elements
        factors = [(wedge_axis(dual_class(s_class(m)), n1 - 1), "z"),
                   (wedge_axis(q_class(m), n1 - 1), "w")]
        got = integrate_graded(n1, factors, rng=rng).with_vars(("z", "w"))
        _FACTOR_DEGREE_MEMO[key] = got
    return got


def _geometric_walk(m: Matroid, top, rng):
    """Unsigned geometric weights of the chains of 0..top nonempty proper subsets.

    One depth-first walk over chains S_1 < ... < S_d carries the product of
    the factor degree polynomials of the gaps M|S_{i+1}/S_i closed so far,
    truncated to the exponents a weight at depth d or deeper can still read
    (z <= r-1-d, w <= n1-r); an empty prefix is a zero of this route and
    prunes its subtree.  Closing with the gap E-S_d gives the depth-d weight,
    the z^(r-1-d) w^(n1-r) coefficient of the whole product.  Returns the
    per-call minor table minor(lower, upper) and one {chain: value} per depth.
    """
    r, full = m.rank_value, m.full_mask
    wmax = m.n_elements - r
    minor = lru_cache(maxsize=None)(lambda lower, upper: m.minor(upper, lower))
    out = [{} for _ in range(top + 1)]
    chain = []

    def walk(last, prefix):
        d = len(chain)
        zmax = r - 1 - d
        val = 0
        for (a, b), c in _factor_degree_poly(minor(last, full), rng).terms.items():
            val += c * prefix.get((zmax - a, wmax - b), 0)
        if val:
            out[d][tuple(chain)] = val
        comp = full & ~last
        u = (comp - 1) & comp if d < top else 0
        while u:  # proper supersets last | u, as in the chain enumeration
            s = last | u
            u = (u - 1) & comp
            nxt = {}
            for (i, j), e in _factor_degree_poly(minor(last, s), rng).terms.items():
                for (a, b), c in prefix.items():
                    if a + i < zmax and b + j <= wmax:
                        nxt[a + i, b + j] = nxt.get((a + i, b + j), 0) + c * e
            nxt = {e: c for e, c in nxt.items() if c}
            if nxt:
                chain.append(s)
                walk(s, nxt)
                chain.pop()

    if top >= 0:
        walk(0, {(0, 0): 1})
    return minor, out


def _flat_walk(m: Matroid, top, minor):
    """Combinatorial weights of the chains of 0..top nonempty proper flats.

    One depth-first walk over chains F_1 < ... < F_d of flats of a loopless
    M, each flat's strictly larger proper flats tabulated once, carries the
    product of beta(M|F_{i+1}/F_i) over the gaps closed so far.  Closing with
    the gap E-F_d gives the depth-d value; every chain is recorded, zeros
    included, so depth r-1 lists every maximal chain.  Returns one
    {chain: value} per depth, all empty for a loopy M.
    """
    out = [{} for _ in range(top + 1)]
    if m.loops() or top < 0:
        return out
    full, flats = m.full_mask, m.proper_nonempty_flats()
    above = {f: [g for g in flats if g != f and g & f == f] for f in (0, *flats)}
    chain = []

    def walk(last, prod):
        out[len(chain)][tuple(chain)] = prod * beta_pair(minor(last, full))[0]
        if len(chain) < top:
            for s in above[last]:
                chain.append(s)
                walk(s, prod * beta_pair(minor(last, s))[0])
                chain.pop()

    walk(0, 1)
    return out


def _csm(m: Matroid, k, comb_k, geom_k) -> MinkowskiWeight:
    """csm_k: the two routes' depth-k weights signed by (-1)^(r-1-k);
    RouteMismatch unless they agree."""
    sign = (-1) ** (m.rank_value - 1 - k)
    csm = MinkowskiWeight(m.n_elements, k, {ch: sign * v for ch, v in comb_k.items()})
    if csm != MinkowskiWeight(m.n_elements, k, {ch: sign * v for ch, v in geom_k.items()}):
        raise RouteMismatch(f"CSM weight routes disagree for {m!r}, k={k}")
    return csm


def minkowski_weights(m: Matroid, *, rng):
    """(Bergman weight, [csm_0, ..., csm_{r-1}]) of M, each derived twice.

    Combinatorial route, one `_flat_walk`: the Bergman weight is 1 on the
    maximal chains of nonempty proper flats of a loopless M, and csm_k is
    (-1)^(r-1-k) prod beta(M|F_{i+1}/F_i) over its chains of k flats.
    Geometric route, one `_geometric_walk`: localization on the factor
    varieties of every chain; the Bergman class is the top Chern class of
    Q_M, the depth-(r-1) weight.  RouteMismatch on any disagreement.
    """
    r, n1 = m.rank_value, m.n_elements
    minor, geom = _geometric_walk(m, r - 1, rng)
    comb = _flat_walk(m, r - 1, minor)
    bergman = MinkowskiWeight(n1, r - 1, dict.fromkeys(comb[-1], 1) if r else {})
    if bergman != MinkowskiWeight(n1, r - 1, geom[-1] if r else {}):
        raise RouteMismatch(f"Bergman weight routes disagree for {m!r}")
    return bergman, [_csm(m, k, comb[k], geom[k]) for k in range(r)]


def bergman_weight(m: Matroid, *, rng) -> MinkowskiWeight:
    """Bergman class as a Minkowski weight of dimension rank-1, both routes."""
    return minkowski_weights(m, rng=rng)[0]


def csm_weight(m: Matroid, k: int, *, rng) -> MinkowskiWeight:
    """k-dimensional CSM class as a Minkowski weight; both walks stop at depth k."""
    if not 0 <= k <= m.rank_value - 1:
        raise ValueError(f"need 0 <= k <= rank-1, got k={k}")
    minor, geom = _geometric_walk(m, k, rng)
    return _csm(m, k, _flat_walk(m, k, minor)[k], geom[k])


# ---------------------------------------------------------------------------
# K-theory bridge: Euler characteristics two ways
# ---------------------------------------------------------------------------


def chi_via_zeta(kcls: KClassLoc, *, rng):
    """chi via the substitution T_i -> 1 + t_i and the deg_alpha weight.

    The zeta image of the class times the equivariant total Chern class of
    the corank-one tautological dual is pushed forward with the Chow-side
    localization formula; the value at t = 0 is the Euler characteristic.
    The class is a 1x1 grid with both axes wedge^0 O = 1, as in
    euler_char_many.
    """
    unit = wedge_axis(structure_sheaf(kcls.ground), 0)
    return integrate_inhomogeneous(kcls, unit, unit, rng=rng)[0][0]


def chi_both_routes(kcls: KClassLoc, *, rng):
    """Euler characteristic with the fixed-point and zeta routes compared."""
    ab = euler_char_ab(kcls, rng=rng)
    zz = chi_via_zeta(kcls, rng=rng)
    if ab != zz:
        raise ChiRouteMismatch(f"chi routes disagree on {kcls.name}: {ab} vs {zz}")
    return ab


# ---------------------------------------------------------------------------
# Fink-Speyer Tutte via characters
# ---------------------------------------------------------------------------


def _wedge_axes(m: Matroid):
    """The grid axes wedge^i S, 0<=i<=r, and wedge^j Q^v, 0<=j<=crk."""
    return wedge_axis(s_class(m), m.rank_value), wedge_axis(dual_class(q_class(m)), m.corank)


def fs_tutte(m: Matroid, *, rng, jobs=1, zeta_check=False) -> SparsePoly:
    """Tutte polynomial assembled from Euler characteristics.

    T(u, v) = sum chi([det S^v][wedge^i S][wedge^j Q^v]) (u-1)^i (v-1)^j,
    computed as one character grid and verified against
    deletion-contraction.  With zeta_check the zeta route reads the same
    grid, and the two must agree at every point (i, j).
    """
    del jobs  # ignored; kept only because bench/worker.py passes jobs=1
    base, axes = det_s_dual(m), _wedge_axes(m)
    grid = euler_char_grid(base, *axes, rng=rng)
    chis = {(i, j): chi for i, row in enumerate(grid) for j, chi in enumerate(row)}
    if zeta_check:
        zetas = integrate_inhomogeneous(base, *axes, rng=rng)
        for i, row in enumerate(zetas):
            for j, zz in enumerate(row):
                if zz != chis[i, j]:
                    raise ChiRouteMismatch(f"fs class {(i, j)}: chi {chis[i, j]} vs zeta {zz}")
    out = shift(shift(SparsePoly(("u", "v"), chis), "u", -1), "v", -1)
    expected = tutte_delcontr(m).with_vars(("x", "y"))
    renamed = SparsePoly(("u", "v"), dict(expected.terms))
    if out != renamed:
        raise ChiRouteMismatch(f"character Tutte differs from deletion-contraction for {m!r}")
    return out


# ---------------------------------------------------------------------------
# Cameron-Fink lattice-point Tutte
# ---------------------------------------------------------------------------


class CfReport:
    """cf_check's result: the matroid, its grid {(t, u): count}, Q_M and Psi(Q_M)."""

    __slots__ = ("matroid", "grid", "q_poly", "psi_image")

    def __init__(self, matroid: Matroid, grid: dict, q_poly: SparsePoly, psi_image: SparsePoly):
        self.matroid = matroid
        self.grid = grid
        self.q_poly = q_poly
        self.psi_image = psi_image


def cf_check(m: Matroid, t_max=None, u_max=None, *, rng, jobs=1) -> CfReport:
    """Cameron-Fink polynomial Q_M computed two ways, then Psi vs the transform.

    Q_M(t, u) is sampled on the grid 0..t_max x 0..u_max (default n each)
    both as chi(O(t alpha + u beta) det S^v), every twist read off one
    zeta-route grid (integrate_inhomogeneous), and as the number of lattice
    points of P(M) + t*nabla + u*Delta; the samples must agree.  The grid's
    polytopes share one memo of lattice-count states (count_lattice_points),
    made for this call and dropped with it.  Psi maps
    binom(t,i) binom(u,j) to x^i y^j, so Psi(Q_M) is read off the integer
    grid (psi_from_samples): its x^i y^j coefficient is the forward
    difference Delta_t^i Delta_u^j Q_M(0, 0), i, j <= n.  Differences of
    higher order must vanish, else the grid is not of degree <= n per
    variable (IdentityFailure).  Psi(Q_M) must equal the Tutte transform
    specialized at (x+1, y, 1, 0); the report's Q_M is psi_inverse of it,
    the one rational step.
    """
    del jobs  # ignored; kept only because bench/worker.py passes jobs=1
    n1 = m.n_elements
    n = n1 - 1
    ts = range((n if t_max is None else t_max) + 1)
    us = range((n if u_max is None else u_max) + 1)
    if len(ts) < n + 1 or len(us) < n + 1:
        raise ValueError(f"grid must contain at least {n + 1} points per axis")
    pm = base_polytope(m)
    nabla = simplex(n1).negate()
    delta = simplex(n1)
    # rows beta^u, columns alpha^t: chis[u][t] = chi(O(t alpha + u beta) det S^v)
    chis = integrate_inhomogeneous(
        det_s_dual(m), power_axis(beta_class(n1), us[-1]), power_axis(alpha_class(n1), ts[-1]),
        rng=rng,
    )
    grid = {}
    memo = {}
    for t, u in itertools.product(ts, us):
        chi = chis[u][t]
        poly = pm + nabla.dilate(t) + delta.dilate(u)
        count = poly.count_lattice_points(memo)
        if count != chi:
            raise CountMismatch(
                f"Q_{{{m!r}}}({t},{u}): chi {chi} != lattice count {count}"
            )
        grid[t, u] = chi
    try:
        psi = psi_from_samples(chis, n, n)
    except InconsistentSamples as exc:
        raise IdentityFailure(f"Q_M grid of {m!r} is not of degree <= {n}: {exc}") from exc
    shifted = shift(t_transform(m), "x", 1).substitute("z", 1).substitute("w", 0)
    shifted = shifted.with_vars(("x", "y"))
    if psi != shifted:
        raise IdentityFailure(f"Psi(Q_M) differs from the Tutte transform for {m!r}")
    return CfReport(m, grid, psi_inverse(psi), psi)


def ehrhart(p: GenPermutohedron, c: int, *, rng) -> int:
    """Lattice points of c*P via chi(O(D_{cP})), checked against enumeration."""
    if c < 0:
        raise ValueError("dilation must be nonnegative")
    dilated = p.dilate(c)
    chi = euler_char_ab(line_bundle(dilated), rng=rng)
    count = dilated.count_lattice_points()
    if chi != count:
        raise CountMismatch(f"ehrhart: chi {chi} != enumeration {count}")
    return chi


# ---------------------------------------------------------------------------
# Speyer's g-polynomial
# ---------------------------------------------------------------------------


def g_polynomial(m: Matroid, *, rng) -> SparsePoly:
    """g_M(s) by the Chow route, cross-checked against the character route.

    Chow route: (-1)^comp sum_i deg_alpha(c(Q^v) c_{r-i}(S^v) c_crk(Q)) (-s)^i.
    Character route: the double character sum of wedge powers of S and Q^v
    specialized to one variable.  Hard error if the routes disagree.
    """
    if m.loops() or m.coloops():
        raise LoopOrColoopPresent(f"{m!r} has a loop or coloop")
    r, crk, n1 = m.rank_value, m.corank, m.n_elements
    comp_sign = (-1) ** len(m.connected_components())

    top = integrate_graded(
        n1,
        [
            (wedge_axis(dual_class(q_class(m)), n1 - 1), "u"),
            (wedge_axis(dual_class(s_class(m)), n1 - 1), "z"),
            (wedge_axis(q_class(m), crk, crk), "w"),
            (power_axis(alpha_class(n1), n1 - 1), "x"),
        ],
        rng=rng,
    )
    collapsed = top.substitute("x", 1).substitute("u", 1).substitute("w", 1).with_vars(("z",))
    g_chow = SparsePoly(("s",), {
        (i,): comp_sign * (-1) ** i * collapsed.coeff((r - i,)) for i in range(r + 1)
    })

    # comp_sign * P(-s-1, -1), P(a, b) = sum chi_ij a^i b^j
    chis = euler_char_grid(structure_sheaf(n1), *_wedge_axes(m), rng=rng)
    p = SparsePoly(("s", "y"), {
        (i, j): chi for i, row in enumerate(chis) for j, chi in enumerate(row)
    })
    p = p.substitute("y", -1).substitute("s", SparsePoly(("s",), {(1,): -1, (0,): -1}))
    g_char = p * comp_sign
    if g_chow != g_char:
        raise RouteMismatch(f"g-polynomial routes disagree for {m!r}")
    return g_chow


# ---------------------------------------------------------------------------
# Flag matroids
# ---------------------------------------------------------------------------


def flag_tutte_kt(flag: FlagMatroid, *, rng) -> SparsePoly:
    """Flag-geometric Tutte polynomial KT(x, y) via localization degrees."""
    mats = flag.constituents
    k = len(mats)
    n1 = flag.n_elements
    r_top = mats[-1].rank_value
    r_bot = mats[0].rank_value
    factors = [(wedge_axis(dual_class(s_class(mm)), n1 - 1), "v") for mm in mats[:-1]]
    factors.append((wedge_axis(dual_class(s_class(mats[-1])), n1 - 1), "z"))
    factors.append((wedge_axis(q_class(mats[0]), n1 - 1), "w"))
    factors.append((power_axis(alpha_class(n1), n1 - 1), "x"))
    top = integrate_graded(n1, factors, rng=rng)
    collapsed = top.substitute("x", 1)
    if k > 1:
        collapsed = collapsed.substitute("v", 1)
    collapsed = collapsed.with_vars(("z", "w"))
    # d x^(r_top-i) y^(n-r_bot-j) w^j, then w -> 1 - y
    kt = SparsePoly(("x", "y", "w"), {
        (r_top - i, n1 - r_bot - j, j): d for (i, j), d in collapsed.terms.items()
    })
    return kt.substitute("w", SparsePoly(("y",), {(0,): 1, (1,): -1}))


def flag_kchi(flag: FlagMatroid, *, rng) -> SparsePoly:
    """K-theoretic characteristic polynomial; asserts alternating signs."""
    return kchi_from_kt(flag, flag_tutte_kt(flag, rng=rng))


def kchi_from_kt(flag: FlagMatroid, kt: SparsePoly) -> SparsePoly:
    """(-1)^(sum of ranks) KT(1 - q, 0) from the flag's KT; asserts alternating signs."""
    one_minus_q = SparsePoly(("q",), {(0,): 1, (1,): -1})
    out = kt.substitute("x", one_minus_q).substitute("y", 0).with_vars(("q",))
    out = out * ((-1) ** sum(flag.ranks))
    signs = {(-1) ** e[0] * (1 if c > 0 else -1) for e, c in out.terms.items()}
    if len(signs) > 1:
        raise IdentityFailure(f"K-characteristic signs do not alternate: {out.render()}")
    return out


def lvt(m1: Matroid, m2: Matroid, *, rng) -> SparsePoly:
    """Las Vergnas Tutte polynomial of a matroid morphism, two routes.

    Route (a): the defining corank-nullity style subset sum, its subsets
    counted by their three exponents.  Route (b): localization degrees of
    c_i(S_{M1}^v) c_j(Q_{M2}^v) c_k((S2/S1)^v) against the deg_alpha
    weight.  Hard error if they disagree.
    """
    if not is_quotient(m1, m2):
        raise NotAQuotient("every flat of the first matroid must be a flat of the second")
    n1 = m1.n_elements
    r1, r2 = m1.rank_value, m2.rank_value
    # subsets counted by their exponents of (x-1), (y-1) and z
    counts = {}
    for a in range(1 << n1):
        ra1, ra2 = m1.rank(a), m2.rank(a)
        e = (r1 - ra1, popcount(a) - ra2, r2 - r1 - ra2 + ra1)
        counts[e] = counts.get(e, 0) + 1
    direct = shift(shift(SparsePoly(("x", "y", "z"), counts), "x", -1), "y", -1)

    # (S2/S1)^v: the dual of S_{M2} minus the dual of S_{M1}
    sdiff = kc_sum(dual_class(s_class(m2)), kc_negate(dual_class(s_class(m1))))
    top = integrate_graded(
        n1,
        [
            (wedge_axis(dual_class(s_class(m1)), n1 - 1), "u"),
            (wedge_axis(dual_class(q_class(m2)), n1 - 1), "v"),
            (wedge_axis(sdiff, n1 - 1), "s"),
            (power_axis(alpha_class(n1), n1 - 1), "x"),
        ],
        rng=rng,
    )
    collapsed = top.substitute("x", 1).with_vars(("u", "v", "s"))
    # d x^(r1-i) y^(n-r2-j) (y-1)^j (z+1)^(r2-r1-k), with v for y - 1
    local = SparsePoly(("x", "y", "z", "v"), {
        (r1 - i, n1 - r2 - j, r2 - r1 - kk, j): d for (i, j, kk), d in collapsed.terms.items()
    })
    local = shift(local, "z", 1).substitute("v", SparsePoly(("y",), {(1,): 1, (0,): -1}))
    if direct != local:
        raise RouteMismatch(f"LVT routes disagree for ({m1!r}, {m2!r})")
    return direct


# ---------------------------------------------------------------------------
# coalgebra recursion and valuativity
# ---------------------------------------------------------------------------


def coalgebra_recursion_check(m: Matroid, pivot: int):
    """Verify both convolution recursions of the Tutte transform at a pivot.

    t_M = t_M|_{x=0} + x * sum over proper S containing the pivot of
    t_{M|S}(0,y,z,w) t_{M/S}(x,0,z,w), and the mirrored y-version over
    proper nonempty S avoiding the pivot.  Returns None or a witness string.
    """
    n1 = m.n_elements
    if n1 < 2:
        raise ValueError("need at least two elements")
    full = m.full_mask
    t = t_transform(m)
    x = SparsePoly.variable("x", T4_VARS)
    y = SparsePoly.variable("y", T4_VARS)

    def tx0(mm):
        return t_transform(mm).substitute("x", 0).with_vars(T4_VARS)

    def ty0(mm):
        return t_transform(mm).substitute("y", 0).with_vars(T4_VARS)

    acc1 = t.substitute("x", 0).with_vars(T4_VARS)
    acc2 = t.substitute("y", 0).with_vars(T4_VARS)
    bit = 1 << pivot
    for s in range(1, full):
        if s & bit:
            acc1 = acc1 + x * tx0(m.restrict(s)) * ty0(m.contract(s))
        else:
            acc2 = acc2 + y * tx0(m.restrict(s)) * ty0(m.contract(s))
    if acc1 != t:
        return f"x-recursion fails for {m!r} at pivot {pivot}"
    if acc2 != t:
        return f"y-recursion fails for {m!r} at pivot {pivot}"
    return None


def hypersimplex_split():
    """The hard-coded valuative subdivision of the hypersimplex Delta(2,4).

    1_{P(U_{2,4})} = 1_{P(M1)} + 1_{P(M2)} - 1_{P(M12)} with M1 making 0,1
    parallel, M2 making 2,3 parallel, and M12 their common face matroid
    U_{1,{0,1}} + U_{1,{2,3}}.
    """
    from .matroid import matroid_from_bases, uniform

    u24 = uniform(2, 4)
    pairs = list(itertools.combinations(range(4), 2))
    m1 = matroid_from_bases(4, [p for p in pairs if p != (0, 1)])
    m2 = matroid_from_bases(4, [p for p in pairs if p != (2, 3)])
    m12 = matroid_from_bases(4, [(i, j) for i in (0, 1) for j in (2, 3)])
    return u24, m1, m2, m12


def _membership(polytope: GenPermutohedron, point, scale):
    """Whether point / scale lies in the polytope, tested in integers."""
    full = polytope.full_mask
    if sum(point) != scale * polytope.rk[full]:
        return False
    for s in range(1, full + 1):
        tot = sum(point[i] for i in bits(s))
        if tot > scale * polytope.rk[s]:
            return False
    return True


def valuativity_demo(*, rng):
    """Brute-force the split's indicator identity, then three invariants.

    The indicator identity is checked at every point of the cube whose
    coordinates are multiples of 1/4, scaled by 4 to the integer points of
    {0..4}^4 with coordinate sum 8; then
    inclusion-exclusion is asserted for the degree polynomial, the Bergman
    weight, and the beta pair.
    """
    u24, m1, m2, m12 = hypersimplex_split()
    polys = [base_polytope(mm) for mm in (u24, m1, m2, m12)]
    d = 4
    for pt in itertools.product(range(d + 1), repeat=4):
        if sum(pt) != 2 * d:
            continue
        inside = [_membership(p, pt, d) for p in polys]
        if inside[0] != inside[1] + inside[2] - inside[3]:
            raise IndicatorIdentityFails(f"indicator identity fails at {pt}/{d}")
    t0 = taut_degree_polynomial(u24, rng=rng)
    t1 = taut_degree_polynomial(m1, rng=rng)
    t2 = taut_degree_polynomial(m2, rng=rng)
    t12 = taut_degree_polynomial(m12, rng=rng)
    if t0 != t1 + t2 - t12:
        raise ValuativityFails("degree polynomial is not valuative on the split")
    b0 = bergman_weight(u24, rng=rng)
    combo = bergman_weight(m1, rng=rng).plus(bergman_weight(m2, rng=rng)).plus(
        bergman_weight(m12, rng=rng).scaled(-1)
    )
    if b0 != combo:
        raise ValuativityFails("Bergman weight is not valuative on the split")
    beta0 = beta_pair(u24)
    betas = [beta_pair(mm) for mm in (m1, m2, m12)]
    if (
        beta0[0] != betas[0][0] + betas[1][0] - betas[2][0]
        or beta0[1] != betas[0][1] + betas[1][1] - betas[2][1]
    ):
        raise ValuativityFails("beta invariant is not valuative on the split")
    return {
        "indicator": "ok",
        "degree_polynomial": "ok",
        "bergman": "ok",
        "beta": "ok",
    }
