"""Fixed-point pushforward machinery.

Three pushforward paths:

* a graded path for top-degree extraction: sum over all permutations of
  (localized class value)/(product of adjacent differences) at an integer
  generic point, run at two independent points as a guard.  The sum is
  fraction-free: every per-permutation denominator divides the product D
  of all pairwise coordinate differences, so integer numerators scaled by
  D are accumulated and one exact integer division (divmod) per
  coefficient ends the sum.  Both points are tables of one walk over
  prefix sets (`_prefix_sums`), and the factors are folded in per atom
  value.  Each factor is a Chern-class functional of a K-class
  (`GradedFactor`): a monomial T^m of the class at a fixed point is a
  Chern root m.t.

* a character path for Euler characteristics: restrict to a one-parameter
  subgroup T_i = q^{w_i}; the character times a power of q is an integer
  polynomial P, and chi = P(1).  A value-free walk lists the joint keys,
  and one valued walk carries a single integer per key, scaled by dq =
  prod_{a<b} (q^|w_a - w_b| - 1), at q = Q = 2^K (Kronecker substitution):
  every such sum is the value at Q of an integer polynomial, so P's
  coefficients are read exactly off one quotient by dq(Q) as its digits in
  balanced base 2^K.  K is set a priori by a bound A on the coefficients
  of P's numerator, and the read-off is proven by bounding those of P
  times dq, or rerun at 2K.  Every chi is a point of a grid of
  classes base * R_a * C_b (`euler_char_grid`): the Fink-Speyer wedges
  wedge^i S wedge^j Q^v, or a single class with both axes wedge^0 O = 1
  (`euler_char_many`).  A point's numerator is a bilinear form in the
  axes' values at the roots Q^{m.w}, so no product class is built.

* a zeta route, the Chow-side Euler characteristic of the same grids:
  zeta images T_i -> 1 + t_i are pushed forward along t = q*w.  A point's
  scaled numerator N(q) is the same bilinear form, in powers of 1 + q w_i,
  whose coefficients are nonnegative, so the form at q = 1 with every
  coefficient made positive bounds N's, and they are read exactly off
  N(2^K) as its digits in balanced base 2^K.  N must be q^(n - 1) D'(w)
  times an integer polynomial, whose value at q = 0 is chi.  The
  Cameron-Fink twists beta^u alpha^t of det S^v are read this way.

All three walk prefix sets: `_prefix_sums` sums over chains S_1 < ... <
S_n, growing each atom's value one element at a time, so no permutation
is enumerated.  A chain's value is a product over its ordered pairs, one
tabulated factor for an adjacent pair and another for the rest, so each
step multiplies the state's integer by one tabulated product and no step
divides.  All computation is single-process.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .genperm import check_guardrail
from .kclass import KClassLoc, MixedSigns, _dedup_atoms, simplex_pair, structure_sheaf
from .matroid import bits
from .perms import all_perms
# interpolate_univariate is unused here; bench/tests asserts engine's binding of it
from .poly import InconsistentSamples, SparsePoly, interpolate_univariate  # noqa: F401


class GenericPointMismatch(AssertionError):
    """Degree sums at two independent generic points disagree."""


class SubDegreeNonzero(AssertionError):
    """A formal coefficient of total degree below the target did not vanish."""


class NonIntegral(AssertionError):
    """A quantity that must be an integer came out fractional."""


class InterpolationInconsistent(AssertionError):
    """A character grid's read-off is still unproven after escalation."""


# ---------------------------------------------------------------------------
# points and weights
# ---------------------------------------------------------------------------


def sample_eval_point(n, rng):
    """Pairwise distinct small integers plus a random offset."""
    offset = rng.randrange(0, 3)
    coords = rng.sample(range(1, 5 * n + 2), n)
    return tuple(c + offset for c in coords)


def sample_weight(n, rng):
    """A pairwise-distinct integer direction with small spread."""
    w = list(range(n))
    rng.shuffle(w)
    return tuple(w)


# ---------------------------------------------------------------------------
# graded factors
# ---------------------------------------------------------------------------


class GradedFactor:
    """One multiplicative factor of a graded integrand: a Chern-class functional of a K-class.

    var:    formal variable tracking this factor's degree
    cls:    the KClassLoc whose Chern roots the factor reads
    coeffs: Chern roots -> (exponent, integer value) pairs, where the value
            of the coefficient of var**k is t-homogeneous of degree k.

    At an atom key of cls, a merged monomial T^m of multiplicity c > 0
    gives c roots m.t*; a negative multiplicity raises MixedSigns.
    """

    __slots__ = ("var", "cls", "coeffs", "_vectors")

    def __init__(self, var, cls, coeffs):
        self.var = var
        self.cls = cls
        self.coeffs = coeffs
        self._vectors = {}  # key -> each m repeated c times, shared by both generic points

    def at(self, key, tstar):
        """{exponent: nonzero value} at an atom-value key of cls and the point tstar."""
        vectors = self._vectors.get(key)
        if vectors is None:
            vectors = self._vectors[key] = _root_vectors(self.cls, key)
        roots = [sum(map(operator.mul, m, tstar)) for m in vectors]
        return {k: v for k, v in self.coeffs(roots) if v}


def _root_vectors(cls, key):
    """The roots of cls at an atom key: each merged monomial T^m, c times for c > 0."""
    vectors = []
    for m, c in cls.merged(key).items():
        if c < 0:
            raise MixedSigns(f"{cls.name} has a monomial of multiplicity {c}")
        vectors += [m] * c
    return vectors


def _elem_sym(values):
    """All elementary symmetric functions e_0..e_len of a value list."""
    out = [1]
    for v in values:
        out.append(0)
        for j in range(len(out) - 1, 0, -1):
            out[j] += out[j - 1] * v
    return out


def chern_series(cls, var):
    """Full Chern polynomial factor: coefficient of var^j is Elem_j of the roots."""
    return GradedFactor(var, cls, lambda roots: enumerate(_elem_sym(roots)))


def chern_fixed(cls, k, var):
    """Single graded Chern coefficient c_k as a factor (exponent k in var)."""

    def coeffs(roots):
        es = _elem_sym(roots)
        return [(k, es[k])] if k < len(es) else ()

    return GradedFactor(var, cls, coeffs)


def power_series(line, var):
    """1 + b var + ... + b^n var^n for the Chern root b of a line-bundle class, n = ground - 1.

    With kclass.alpha_class or beta_class the factor reads one atom, -Delta
    or Delta.
    """

    def coeffs(roots):
        (base,) = roots
        return ((i, base**i) for i in range(line.ground))

    return GradedFactor(var, line, coeffs)


# ---------------------------------------------------------------------------
# graded integration
# ---------------------------------------------------------------------------


def integrate_graded(ground, factors, *, rng):
    """Non-equivariant degrees of a product of GradedFactors, as an integer polynomial.

    The polynomial's variables are the factors' vars in factor order.  The
    fixed-point sum runs at two independent generic points, each a table
    (_point_steps) of one prefix-set walk; each gives integer numerators
    over the point's common denominator D'.  In order:
    numerators of total degree below n = ground - 1 must vanish
    (SubDegreeNonzero), the two points must give the same rationals
    (GenericPointMismatch), and each degree-n numerator must divide by D'
    exactly (NonIntegral).  Returns the degree-n part.
    """
    target = ground - 1
    check_guardrail(ground)
    vars = tuple(dict.fromkeys(f.var for f in factors))
    atoms = _dedup_atoms(tuple(a for f in factors for a in f.cls.atoms))
    points = (sample_eval_point(ground, rng), sample_eval_point(ground, rng))
    accs = _prefix_sums(atoms, ground, [_point_steps(t) for t in points])
    (num_a, d_a), (num_b, d_b) = (
        (_fold_factors(factors, vars, atoms, acc, t, target), _pairwise_diff_product(t))
        for acc, t in zip(accs, points)
    )
    for e in itertools.chain(num_a, num_b):
        if sum(e) < target:
            raise SubDegreeNonzero(
                f"coefficient of {e} (degree {sum(e)} < {target}) is nonzero"
            )
    if num_a.keys() != num_b.keys() or any(
        c * d_b != num_b[e] * d_a for e, c in num_a.items()
    ):
        raise GenericPointMismatch(
            f"degree-{target} coefficients differ between generic points"
        )
    out = {}
    for e, c in num_a.items():
        out[e], rem = divmod(c, d_a)
        if rem:
            raise NonIntegral(f"degree of {e} is {c}/{d_a}, not an integer")
    return SparsePoly(vars, out)


def _pairwise_diff_product(tstar):
    d = 1
    for a, b in itertools.permutations(tstar, 2):
        d *= a - b
    return d


def _point_steps(t):
    """The walk table (pair, adj) whose chain values are D'(t)/d_sigma(t) (see _prefix_sums).

    d_sigma(t) is the product of adjacent differences t_sigma(i) -
    t_sigma(i+1) and D'(t) = _pairwise_diff_product(t), which holds each
    unordered pair {b, e} as (t_b - t_e)(t_e - t_b): a pair b before e
    multiplies by pair[b][e] = -(t_b - t_e)^2, or, adjacent, by that over
    t_b - t_e, adj[b][e] = t_e - t_b.  The first element takes 1.
    """
    pair = [[-(tb - te) ** 2 for te in t] for tb in t]
    adj = [[te - tb for te in t] for tb in t]
    return pair, adj + [[1] * len(t)]


def _prefix_sums(atoms, ground, tables):
    """[{joint atom key: sum over matching sigma of the chain value}, one per table].

    A table is (pair, adj).  A permutation's chain value is the product,
    over its ordered pairs (b before e), of adj[b][e] if b immediately
    precedes e and of pair[b][e] otherwise; the first element e takes
    adj[ground][e], a row for the empty prefix.  A permutation is a chain of
    prefix sets, so the sum is a walk over prefix sets S, one size at a
    time.  A state is (S, last element a, the atoms' vertices on the prefix)
    and holds, per table, one int: the sum of its prefixes' chain values.
    Appending e multiplies by adj[a][e] and by P[S - a][e], where P[T][e] =
    prod_{b in T} pair[b][e] is tabulated once per table by a subset DP, so
    no step divides.  Appending e to S also sets coordinate e of an atom's
    vertex to its increment rk(S + e) - rk(S).  A state's key is one packed
    int: last in the low bits, then S, then a field per atom and
    coordinate, as wide as the atom's increments less their least, each
    step OR-ing in one tabulated move for the element appended.  The
    free-element lists (`_frees`) and each atom's increment table
    (`_increments`) are built once per ground size and per atom and
    cached; a walk only moves each atom's table to its field offset, and
    every table of a call shares the moves and the key decoder.  Each table
    has its own level dict; all hold the same keys, so one pass over the
    first's keys steps every table.

    With no tables the walk only lists the reachable joint keys, {key: ()};
    keys do not depend on last, so its states are the packed prefixes alone.
    """
    full = (1 << ground) - 1
    frees = _frees(ground)
    delta = [[1 << e for e in es] for es in frees]  # delta[S][i]: appending frees[S][i]
    fields = []
    off = ground
    for a in atoms:
        incs, lo, width = _increments(a)
        delta = [[d | v << off for d, v in zip(ds, vs)] for ds, vs in zip(delta, incs)]
        fields.append((off, width, lo))
        off += width * ground
    decode = _key_decoder(fields, ground)
    if not tables:
        level = {0}
        for _ in range(ground):
            level = {p | de for p in level for de in delta[p & full]}
        return dict.fromkeys(map(decode, level), ())
    lb = ground.bit_length()
    lmask = (1 << lb) - 1
    moves = [tuple((e, de << lb | e) for e, de in zip(es, ds)) for es, ds in zip(frees, delta)]
    walks = [(_pair_products(pair, ground), adj) for pair, adj in tables]
    levels = [{ground: 1} for _ in tables]
    for _ in range(ground):
        nexts = [{} for _ in tables]
        for key in levels[0]:
            a = key & lmask
            s = key >> lb & full
            prefix, steps, rest = key ^ a, moves[s], s & ~(1 << a)
            for (prods, adj), level, nxt in zip(walks, levels, nexts):
                v, row, p = level[key], adj[a], prods[rest]
                for e, mv in steps:
                    k2 = prefix | mv
                    x = v * (row[e] * p[e])
                    cur = nxt.get(k2)
                    nxt[k2] = x if cur is None else cur + x
        levels = nexts
    sums = [{} for _ in tables]  # per table, packed prefix -> sum over last
    for level, acc in zip(levels, sums):
        for key, v in level.items():
            acc[key >> lb] = acc.get(key >> lb, 0) + v
    joints = list(map(decode, sums[0]))
    return [dict(zip(joints, acc.values())) for acc in sums]


def _pair_products(pair, ground):
    """P[T][e] = prod_{b in T} pair[b][e] for every subset T of range(ground), by a subset DP."""
    prods = [[1] * ground]
    for t in range(1, 1 << ground):
        low = t & -t
        prods.append(list(map(operator.mul, prods[t ^ low], pair[low.bit_length() - 1])))
    return prods


def _key_decoder(fields, ground):
    """packed prefix -> joint key: per atom, its field read back as a vertex."""
    vertices = [{} for _ in fields]  # per atom: packed field -> vertex

    def decode(packed):
        jk = []
        for (o, w, lo), vs in zip(fields, vertices):
            f = packed >> o & ((1 << w * ground) - 1)
            v = vs.get(f)
            if v is None:
                v = vs[f] = tuple(((f >> w * e) & ((1 << w) - 1)) + lo for e in range(ground))
            jk.append(v)
        return tuple(jk)

    return decode


@functools.lru_cache(maxsize=16)
def _frees(ground):
    """frees[S]: the elements outside S, ascending, for each subset S of range(ground)."""
    full = (1 << ground) - 1
    return tuple(tuple(bits(full ^ s)) for s in range(full + 1))


@functools.lru_cache(maxsize=256)
def _increments(atom):
    """(incs, lo, width): an atom's increments as _prefix_sums packs them.

    incs[S][i] is rk(S + e) - rk(S) - lo shifted to coordinate e's place,
    e = frees[S][i], in fields of width bits; lo is the least increment.
    The cache holds 256 atoms, more than the 180 distinct atoms of a full
    `check`; an entry is 2^n * n ints, about 50 KB at n = 9 with its atom.
    """
    rk = atom.rk
    frees = _frees(atom.n_elements)
    incs = [[rk[s | 1 << e] - rk[s] for e in es] for s, es in enumerate(frees)]
    lo = min(map(min, incs[:-1]))
    width = (max(map(max, incs[:-1])) - lo).bit_length() or 1
    shifted = tuple(
        tuple((v - lo) << width * e for e, v in zip(es, vs))
        for es, vs in zip(frees, incs)
    )
    return shifted, lo, width


def _fold_factors(factors, vars, atoms, acc, tstar, cap):
    """Integer numerators {exponent: num} of the graded sum at tstar, up to total degree cap.

    acc[joint key] is the class sum at tstar.  Factors are multiplied
    in one at a time, each key projected afterwards onto the atoms later
    factors read.  A factor is tabulated once per distinct value of its
    class's atoms, and an exponent vector is one packed int: a field of
    cap.bit_length() bits per variable and the total degree in the top
    field, so a term is kept iff the packed sum is below (cap + 1) << top.
    """
    vidx = {v: i for i, v in enumerate(vars)}
    width = max(cap.bit_length(), 1)
    top = width * len(vidx)
    limit = (cap + 1) << top
    state = {key: {0: v} for key, v in acc.items() if v}
    layout = list(atoms)
    for fi, factor in enumerate(factors):
        needed = [a for g in factors[fi + 1 :] for a in g.cls.atoms]
        keep = [i for i, a in enumerate(layout) if a in needed]
        project, fkey = _getter(keep), _getter([layout.index(a) for a in factor.cls.atoms])
        unit = (1 << width * vidx[factor.var]) + (1 << top)
        table = {}
        new_state = {}
        for key, poly in state.items():
            fk = fkey(key)
            fp = table.get(fk)
            if fp is None:
                fp = table[fk] = [(k * unit, c) for k, c in factor.at(fk, tstar).items()]
            tgt = new_state.setdefault(project(key), {})
            for e, c in poly.items():
                for de, fc in fp:
                    e2 = e + de
                    if e2 < limit:
                        tgt[e2] = tgt.get(e2, 0) + c * fc
        state = new_state
        layout = [layout[i] for i in keep]
    # every atom is folded away: one key () is left, unless every sum was 0
    mask = (1 << width) - 1
    return {
        tuple((e >> width * i) & mask for i in range(len(vidx))): c
        for e, c in state.get((), {}).items() if c
    }


def _getter(slots):
    """key -> tuple(key[i] for i in slots), one C call where itemgetter allows."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    if slots:
        (i,) = slots
        return lambda key: (key[i],)
    return lambda key: ()


# ---------------------------------------------------------------------------
# K-theoretic Euler characteristics
# ---------------------------------------------------------------------------


def euler_char_ab(kclass: KClassLoc, *, rng):
    """chi of a K-class via the fixed-point sum with denominators 1 - T/T."""
    return euler_char_many([kclass], rng=rng)[0]


def euler_char_many(kclasses, *, rng):
    """chi of several K-classes sharing one ground set, each a 1x1 grid.

    Class c is the grid base c with the axes wedge^0 O = 1 (one root, of
    exponent 0, on no atom), so it draws its own w and is read off at its
    own K (see euler_char_grid).
    """
    unit = wedge_axis(structure_sheaf(kclasses[0].ground), 0)
    return [euler_char_grid(c, unit, unit, rng=rng)[0][0] for c in kclasses]


def _chi_walk(atoms, ground, w, q):
    """(acc, dq): the character sums of _prefix_sums at T_i = q^{w_i}, one int per key.

    A chain value is dq = prod_{a<b} (q^|w_a - w_b| - 1) times prod 1/(1 -
    q^delta) over the adjacent pairs, delta = w_e - w_b for b just before e:
    a pair b before e multiplies by pair[b][e] = q^|delta| - 1 or, adjacent,
    by adj[b][e] = -1 if delta > 0, else q^-delta.

    As a polynomial in q, a chain value is +-q^k times the C(n - 1, 2)
    factors q^|delta| - 1 of the chain's non-adjacent pairs, of degree at
    most deg dq, so its coefficients' absolute values sum to at most
    2^C(n - 1, 2), and every key's sum is an integer polynomial N(q).
    euler_char_grid walks the single sample q = 2^K, where N's coefficients
    are N(2^K)'s digits in balanced base 2^K once they are all below
    2^(K - 1) in absolute value.
    """
    dq = math.prod(q ** abs(a - b) - 1 for a, b in itertools.combinations(w, 2))
    pair = [[q ** abs(we - wb) - 1 for we in w] for wb in w]
    adj = [[-1 if we > wb else q ** (wb - we) for we in w] for wb in w]
    adj.append([1] * ground)
    (acc,) = _prefix_sums(atoms, ground, [(pair, adj)])
    return acc, dq


class GridAxis:
    """One axis of a chi grid: classes E_0, ..., E_top read off the roots of one K-class.

    The roots are cls's, as a GradedFactor reads them; along T_i = q^{w_i}
    a root T^m is q^{m.w}.  wedge: E_k = wedge^k cls, whose value is the
    elementary symmetric function e_k of the roots (0 for k above their
    number), as chern_series reads them.  Otherwise cls is a line bundle
    with one root L and E_k = L^k, as power_series reads it.
    """

    __slots__ = ("cls", "size", "wedge")

    def __init__(self, cls, top, wedge):
        self.cls = cls
        self.size = top + 1
        self.wedge = wedge

    def roots(self, key):
        """The roots' exponent vectors m at an atom key of cls."""
        ms = _root_vectors(self.cls, key)
        if not self.wedge and len(ms) != 1:
            raise ValueError(f"{self.cls.name} is not a line bundle")
        return ms

    def width(self, key):
        """The most monomials of any E_k at an atom key of cls: C(m, k) for m roots, 1 for L^k."""
        if not self.wedge:
            return 1
        m = len(_root_vectors(self.cls, key))
        return math.comb(m, min(m // 2, self.size - 1))

    def values(self, roots):
        """[E_0, ..., E_top] at integer root values."""
        if not self.wedge:
            (x,) = roots
            return list(itertools.accumulate([x] * (self.size - 1), operator.mul, initial=1))
        es = _elem_sym(roots)[: self.size]
        return es + [0] * (self.size - len(es))


def wedge_axis(cls, top):
    """wedge^k cls for k = 0..top."""
    return GridAxis(cls, top, True)


def power_axis(line, top):
    """L^k for k = 0..top, L a line-bundle class such as kclass.alpha_class or beta_class."""
    return GridAxis(line, top, False)


def euler_char_grid(base, rows, cols, *, rng):
    """[[chi(base * R_a * C_b) for C_b in cols] for R_a in rows], rows and cols GridAxes.

    One drawn w serves the whole grid.  A value-free walk lists the joint
    keys, which bound the numerators (_numerator_height), and one valued
    walk at q = Q = 2^K carries a single integer per key (_chi_walk).  No
    product class is built: the walk's sums are grouped per (row key,
    column key) and base exponent m.w (_grid_terms), and the numerator
    Num_ab(Q) at (a, b) is a bilinear form in those sums (_bilinear_grid)
    and R_a's and C_b's values, each an elementary symmetric function or a
    power of the roots Q^{m.w}.  Each exponent is lowered by its least
    value, lb for base's and lr, lc for the axes' roots, so every term of
    Num_ab is a chain value times a power q^e, e >= 0.

    The read-off is exact (_grid_interpolate).  K is the least integer
    with 2^(K - 1) > A, where A bounds every coefficient of every Num_ab.
    P_ab is taken as the digits of Num_ab(Q) / dq(Q) in balanced base 2^K,
    which is proven once every coefficient of P_ab dq is also below
    2^(K - 1): at once if sum_j |P_ab,j| times dq's largest coefficient is,
    else by computing P_ab dq.  Where that fails the grid is walked again
    at 2K, at most three times, before InterpolationInconsistent.  chi_ab
    = P_ab(1).  No degree check is needed: with [lo, hi] the hull of the
    exponents m.w of every product of a monomial of base, of R_a and of
    C_b, every term of Num_ab has degree in [s, deg dq + s + hi - lo], s =
    lo - (lb + a lr + b lc) >= 0, and dq(0) = +-1, so Num_ab = dq P_ab
    makes P_ab q^-s a polynomial of degree at most hi - lo, for any class.

    The NonIntegral guard (Num_ab must divide by dq) is necessary but not
    sufficient.  Exactness along w does not remove the dependence on w:
    the guard sees only the restriction along the drawn w, so a class
    failing the fixed-point congruences can pass it.
    fixed_point_compatibility_check or the zeta route
    (integrate_inhomogeneous), which reads the Cameron-Fink twist grid, is
    the full check.
    """
    ground = base.ground
    if any(c.ground != ground for c in (rows.cls, cols.cls)):
        raise ValueError("classes on different ground sets")
    check_guardrail(ground)
    w = sample_weight(ground, rng)
    atoms = _dedup_atoms(base.atoms + rows.cls.atoms + cols.cls.atoms)
    height = _numerator_height(base, rows, cols, atoms, _prefix_sums(atoms, ground, ()))
    bits = _kronecker_bits(height)
    for _ in range(4):
        polys = _grid_interpolate(atoms, ground, w, base, rows, cols, bits, height)
        if polys is not None:
            return [[sum(p) for p in row] for row in polys]
        bits *= 2
    raise InterpolationInconsistent(
        f"no read-off up to {bits // 2} bits bounds the characters' coefficients"
    )


def _kronecker_bits(height):
    """The least K with 2^(K - 1) > height."""
    return height.bit_length() + 1


def _numerator_height(base, rows, cols, atoms, joints):
    """A = n! 2^C(n - 1, 2) M, a bound on every coefficient of every grid numerator Num_ab(q).

    Num_ab sums the n! chain values (_chi_walk), each of coefficient mass
    (sum of |coefficients|) at most 2^C(n - 1, 2), times the class base *
    R_a * C_b at the chain's joint key.  M bounds that class's mass at any
    joint key and any (a, b): base's sum of |coefficients| times the most
    monomials of R_a and of C_b (GridAxis.width).
    """
    bkey, rkey, ckey = (_getter([atoms.index(a) for a in c.atoms]) for c in (base, rows.cls, cols.cls))
    base_mass = functools.cache(lambda key: sum(abs(c) for c, _ in base.monomials(key)))
    row_width, col_width = functools.cache(rows.width), functools.cache(cols.width)
    mass = max(base_mass(bkey(j)) * row_width(rkey(j)) * col_width(ckey(j)) for j in joints)
    n = base.ground
    return (math.factorial(n) << math.comb(n - 1, 2)) * mass


def _grid_terms(acc, atoms, base, rows, cols, exponents):
    """(by_pair, row_roots, col_roots): a walk's sums grouped as a grid reads them.

    Each axis numbers its atom keys in the order the walk meets them, and
    row_roots[r], col_roots[c] are the roots of key r, c (GridAxis.roots).
    by_pair[r, c][e] sums acc[joint] times the coefficient of every
    monomial T^m of base at each joint key of row key r and column key c
    with exponents(joint, m) = e.
    """
    slots = [_getter([atoms.index(a) for a in cls.atoms]) for cls in (base, rows.cls, cols.cls)]
    row_keys, col_keys = {}, {}
    by_pair = {}
    for joint, v in acc.items():
        bkey, rkey, ckey = (s(joint) for s in slots)
        rc = (row_keys.setdefault(rkey, len(row_keys)), col_keys.setdefault(ckey, len(col_keys)))
        terms = by_pair.setdefault(rc, {})
        for c, m in base.monomials(bkey):
            e = exponents(joint, m)
            terms[e] = terms.get(e, 0) + v * c
    return by_pair, list(map(rows.roots, row_keys)), list(map(cols.roots, col_keys))


def _grid_interpolate(atoms, ground, w, base, rows, cols, bits, height):
    """[[P_ab]]: each point's Num_ab / dq, coefficients lowest first, from one walk at q = 2^bits.

    With Q = 2^bits, Num_ab(Q) must divide by dq(Q), else NonIntegral;
    P_ab is the quotient's digits in balanced base Q.  Num_ab and P_ab dq
    are then integer polynomials equal at Q, so they are equal if all
    their coefficients lie in [-Q / 2, Q / 2), where balanced digits are
    unique: Num_ab's if height < Q / 2, height bounding them
    (_numerator_height), and P_ab dq's if sum_j |P_ab,j| times dq's
    largest |coefficient| is below Q / 2, or else if P_ab dq, computed,
    has every |coefficient| below Q / 2.  None if either bound fails at any
    point.
    """
    half = 1 << bits - 1
    if height >= half:
        return None
    acc, dq = _chi_walk(atoms, ground, w, 1 << bits)
    dot = functools.cache(lambda m: sum(map(operator.mul, m, w)))
    by_pair, row_roots, col_roots = _grid_terms(acc, atoms, base, rows, cols, lambda _, m: dot(m))
    row_exps, col_exps = ([list(map(dot, ms)) for ms in roots] for roots in (row_roots, col_roots))
    lb = min((e for terms in by_pair.values() for e in terms), default=0)
    lr, lc = (min((e for es in exps for e in es), default=0) for exps in (row_exps, col_exps))
    pair_sums = {
        rc: sum(v << bits * (e - lb) for e, v in terms.items()) for rc, terms in by_pair.items()
    }
    rvals = [rows.values([1 << bits * (e - lr) for e in es]) for es in row_exps]
    cvals = [cols.values([1 << bits * (e - lc) for e in es]) for es in col_exps]
    dq_coeffs = _dq_coefficients(w)
    dq_height = max(map(abs, dq_coeffs))
    out = []
    for nums in _bilinear_grid(pair_sums, rvals, cvals, cols.size):
        row = []
        for x in nums:
            num, rem = divmod(x, dq)
            if rem:
                raise NonIntegral(
                    f"scaled character at q=2^{bits} is not divisible by the common denominator"
                )
            p = _balanced_digits(num, bits)
            total = sum(map(abs, p)) * dq_height
            if total >= half and max(map(abs, _product(p, dq_coeffs, total))) >= half:
                return None
            row.append(p)
        out.append(row)
    return out


def _bilinear_grid(pair_sums, rvals, cvals, size):
    """[[sum_{r, c} rvals[r][a] pair_sums[r, c] cvals[c][b] for b < size] for each a].

    rvals[r] and cvals[c] are an axis's classes at the roots of key r or c.
    Reduced over c once per b into Y[r][b], each point is one dot product.
    """
    ys = [[0] * size for _ in rvals]
    for (r, c), p in pair_sums.items():
        if p:
            y = ys[r]
            for b, v in enumerate(cvals[c]):
                y[b] += p * v
    by_col = list(zip(*ys))
    return [[sum(map(operator.mul, rv, y)) for y in by_col] for rv in zip(*rvals)]


def _balanced_digits(x, bits):
    """x's digits in balanced base 2^bits, lowest first, each in [-2^(bits - 1), 2^(bits - 1))."""
    half = 1 << bits - 1
    mask = (1 << bits) - 1
    out = []
    while x:
        d = ((x + half) & mask) - half
        out.append(d)
        x = (x - d) >> bits
    return out


def _product(p, r, total):
    """The coefficients of the polynomial product p * r, both coefficient lists
    lowest first, from one integer product at q = 2^k, 2^(k - 1) > total >=
    every |coefficient|."""
    k = total.bit_length() + 1
    return _balanced_digits(
        sum(c << k * j for j, c in enumerate(p)) * sum(c << k * j for j, c in enumerate(r)), k
    )


def _dq_coefficients(w):
    """The coefficients of dq(q) = prod_{a<b} (q^|w_a - w_b| - 1), lowest first."""
    coeffs = [1]
    for a, b in itertools.combinations(w, 2):
        d = abs(a - b)
        coeffs = [x - y for x, y in itertools.zip_longest([0] * d + coeffs, coeffs, fillvalue=0)]
    return coeffs


def forward_differences(values, degree_bound):
    """Delta^0 P(q0), ..., Delta^degree_bound P(q0) of an integer polynomial P.

    values are P(q0), P(q0 + 1), ... at consecutive integers, and
    P(q0 + k) = sum_i binom(k, i) Delta^i P(q0) (Newton's forward formula).
    Every sample past the first degree_bound + 1 verifies the bound: each
    must make one more difference of order degree_bound + 1 vanish, else
    InconsistentSamples.
    """
    diffs = list(values)
    out = []
    for _ in range(degree_bound + 1):
        out.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if any(diffs):
        raise InconsistentSamples(
            f"order-{degree_bound + 1} differences of the samples do not vanish"
        )
    return out


# ---------------------------------------------------------------------------
# zeta route
# ---------------------------------------------------------------------------


def integrate_inhomogeneous(base, rows, cols, *, rng):
    """The grid of euler_char_grid by the zeta route: Chow-side pushforwards at t = 0.

    zeta substitutes T_i -> 1 + t_i; the image times the total Chern class
    prod_{i != sigma(n)} (1 + t_i) of the corank-one tautological dual is
    pushed forward along t = q*w (w a shuffle of 1..n), where a fixed
    point's denominator is q^(n - 1) d_sigma(w).  One walk over the atoms
    and -Delta, whose vertex places the Chern factor, sums D'(w)/d_sigma(w)
    per joint key.  zeta is a ring map, so N_ab(q) is a bilinear form in the
    zeta images prod_i (1 + q w_i)^{m_i}, each exponent raised by the least
    k making it nonnegative (_lift): that scales the pushforward by prod_i
    (1 + t_i)^k, 1 at t = 0.  The form at q = 1, with the sums and base's
    coefficients made positive, is a height H bounding N_ab's coefficients,
    and N_ab is read off at q = 2^K, 2^(K - 1) > H (_zeta_read_off).
    """
    ground = base.ground
    if any(c.ground != ground for c in (rows.cls, cols.cls)):
        raise ValueError("classes on different ground sets")
    check_guardrail(ground)
    w = tuple(x + 1 for x in sample_weight(ground, rng))
    nabla = simplex_pair(ground)[1]
    atoms = _dedup_atoms(base.atoms + rows.cls.atoms + cols.cls.atoms + (nabla,))
    (acc,) = _prefix_sums(atoms, ground, [_point_steps(w)])
    ilast = atoms.index(nabla)
    # base's T^m times the Chern factor: 1 + t_i for every i but sigma(n),
    # where -Delta's vertex is -1; by_pair[r, c][e] is prod_i (1 + t_i)^e_i's coefficient
    by_pair, row_roots, col_roots = _grid_terms(
        acc, atoms, base, rows, cols,
        lambda joint, m: tuple(x + y + 1 for x, y in zip(m, joint[ilast])),
    )
    kb = _lift(e for terms in by_pair.values() for e in terms)
    kr, kc = (_lift(m for ms in roots for m in ms) for roots in (row_roots, col_roots))

    def form(q, sign):
        zeta = functools.cache(
            lambda m, k: math.prod((1 + q * wi) ** (x + k) for wi, x in zip(w, m))
        )
        pair_sums = {
            rc: sum(sign(c) * zeta(e, kb) for e, c in terms.items())
            for rc, terms in by_pair.items()
        }
        rvals = [rows.values([zeta(m, kr) for m in ms]) for ms in row_roots]
        cvals = [cols.values([zeta(m, kc) for m in ms]) for ms in col_roots]
        return _bilinear_grid(pair_sums, rvals, cvals, cols.size)

    bits = _kronecker_bits(max(map(max, form(1, abs))))
    dprime = _pairwise_diff_product(w)
    return [
        [
            _zeta_read_off(num, bits, ground, dprime, f"({a}, {b}) of {base.name}")
            for b, num in enumerate(row)
        ]
        for a, row in enumerate(form(1 << bits, operator.pos))
    ]


def _lift(vectors):
    """The least k >= 0 with every entry of every vector at least -k."""
    return max(0, -min((x for m in vectors for x in m), default=0))


def _zeta_read_off(num, bits, n, dprime, name):
    """P(0) of N = q^(n - 1) D' P from num = N(2^bits), N's coefficients below 2^(bits - 1).

    Every digit below q^(n - 1) must vanish and every digit divide by D' =
    dprime, else NonIntegral.
    """
    digits = _balanced_digits(num, bits) + [0] * n
    if any(digits[: n - 1]) or any(d % dprime for d in digits):
        raise NonIntegral(f"zeta pushforward at {name} is not an integer polynomial")
    return digits[n - 1] // dprime


# ---------------------------------------------------------------------------
# compatibility check
# ---------------------------------------------------------------------------


def fixed_point_compatibility_check(kclass: KClassLoc):
    """Check the adjacent-transposition congruences of a localized class.

    For sigma' = sigma o (i, i+1) the localizations must agree after the
    substitution T_{sigma(i)} = T_{sigma(i+1)}.  Every permutation and every
    position is checked.  Returns None on success, else a witness tuple
    (sigma, position).
    """
    n1 = kclass.ground
    for sigma in all_perms(n1):
        for i in range(n1 - 1):
            tau = list(sigma)
            tau[i], tau[i + 1] = tau[i + 1], tau[i]
            tau = tuple(tau)
            if _merged(kclass.at(sigma), sigma[i], sigma[i + 1]) != _merged(
                kclass.at(tau), sigma[i], sigma[i + 1]
            ):
                return (sigma, i)
    return None


def _merged(value, a, b):
    """Laurent monomial dict after substituting T_a = T_b."""
    out = {}
    for m, c in value.items():
        e = list(m)
        e[b] += e[a]
        e[a] = 0
        e = tuple(e)
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out
