"""Tutte polynomials by three routes, and the 4-variable transform.

Routes: the deletion-contraction recursion (memoized on the basis system),
the corank-nullity subset sum (integer counts, expanded by one shift of each
variable), and the minor-convolution identity
(N_{(a,b)} * N_{(c,d)})(M) = a^rk d^crk T_M(1 + c/a, 1 + b/d), where
(f * g)(M) = sum_A f(M|A) g(M/A) over all subsets including the empty
matroid.  All three must agree; tests enforce it corpus-wide.
"""

from __future__ import annotations

import functools

from .matroid import Matroid, popcount
from .poly import SparsePoly, shift


class InexactDivision(ArithmeticError):
    """The 4-variable transform met a Tutte polynomial with a constant term."""


_TUTTE_MEMO = {}


def tutte_delcontr(m: Matroid) -> SparsePoly:
    """Tutte polynomial T_M(x, y) by deletion-contraction."""
    key = m.key()
    got = _TUTTE_MEMO.get(key)
    if got is not None:
        return got
    n = m.n_elements
    if n == 1:
        out = SparsePoly(("x", "y"), {(1, 0): 1} if m.rank_value else {(0, 1): 1})
    else:
        e = n - 1
        bit = 1 << e
        if m.is_loop(e):
            out = SparsePoly.variable("y", ("x", "y")) * tutte_delcontr(m.delete(bit))
        elif m.is_coloop(e):
            out = SparsePoly.variable("x", ("x", "y")) * tutte_delcontr(m.contract(bit))
        else:
            out = tutte_delcontr(m.delete(bit)) + tutte_delcontr(m.contract(bit))
    _TUTTE_MEMO[key] = out
    return out


def tutte_coranknullity(m: Matroid) -> SparsePoly:
    """T_M(x, y) = sum_S (x-1)^(r - rk S) (y-1)^(|S| - rk S).

    The subsets are counted by (r - rk S, |S| - rk S), then x and y shifted by -1.
    """
    r = m.rank_value
    counts = {}
    for s in range(1 << m.n_elements):
        rk = m.rank(s)
        e = (r - rk, popcount(s) - rk)
        counts[e] = counts.get(e, 0) + 1
    return shift(shift(SparsePoly(("x", "y"), counts), "x", -1), "y", -1)


# -- minor convolution -------------------------------------------------------


def convolve(f, g, m: Matroid):
    """(f * g)(M) = sum over subsets A of f(M|A) g(M/A), empty matroid allowed."""
    total = None
    for a in range(1 << m.n_elements):
        va = f(m.restrict(a, allow_empty=True))
        vb = g(m.contract(a, allow_empty=True))
        term = va * vb
        total = term if total is None else total + term
    return total


def n_ab(a, b):
    """The multiplicative function M -> a^rk(M) b^crk(M); values SparsePoly."""

    def f(m: Matroid):
        av = a if isinstance(a, SparsePoly) else SparsePoly.constant(a, ())
        bv = b if isinstance(b, SparsePoly) else SparsePoly.constant(b, ())
        return av ** m.rank_value * bv ** (m.n_elements - m.rank_value)

    return f


def tutte_convolution(m: Matroid) -> SparsePoly:
    """T_M(x, y) recovered from (N_{(1, y-1)} * N_{(x-1, 1)})(M)."""
    b = SparsePoly(("x", "y"), {(0, 1): 1, (0, 0): -1})
    c = SparsePoly(("x", "y"), {(1, 0): 1, (0, 0): -1})
    value = convolve(n_ab(SparsePoly.constant(1, ("x", "y")), b), n_ab(c, SparsePoly.constant(1, ("x", "y"))), m)
    return value


# -- the 4-variable transform ------------------------------------------------


_T4_VARS = ("x", "y", "z", "w")


def t_transform(m: Matroid) -> SparsePoly:
    """t_M(x,y,z,w) = (x+y)^{-1} (y+z)^r (x+w)^{|E|-r} T_M((x+y)/(y+z), (x+y)/(x+w)).

    Expanded exactly: the Tutte coefficient of x^a y^b contributes
    (x+y)^{a+b-1} (y+z)^{r-a} (x+w)^{crk-b}; T_M has no constant term, so
    the division by (x+y) is exact.
    """
    t = tutte_delcontr(m)
    if t.coeff((0, 0)):
        raise InexactDivision("Tutte polynomial has a constant term")
    r = m.rank_value
    crk = m.n_elements - r
    pow_xy, pow_yz, pow_xw = _transform_powers(m.n_elements, r)
    out = SparsePoly.zero(_T4_VARS)
    for (a, b), coeff in t.terms.items():
        out = out + coeff * (pow_xy[a + b - 1] * pow_yz[r - a] * pow_xw[crk - b])
    return out


@functools.lru_cache(maxsize=None)
def _transform_powers(n, r):
    """(x+y)^k for k <= n, (y+z)^k for k <= r and (x+w)^k for k <= n - r; shared, never mutated."""
    xy = SparsePoly(_T4_VARS, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    yz = SparsePoly(_T4_VARS, {(0, 1, 0, 0): 1, (0, 0, 1, 0): 1})
    xw = SparsePoly(_T4_VARS, {(1, 0, 0, 0): 1, (0, 0, 0, 1): 1})
    return _powers(xy, n), _powers(yz, r), _powers(xw, n - r)


def _powers(p, top):
    out = [SparsePoly.constant(1, p.vars)]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


def beta_pair(m: Matroid):
    """(beta(M), beta(M dual)): the x and y coefficients of T_M."""
    t = tutte_delcontr(m)
    return t.coeff((1, 0)), t.coeff((0, 1))


def char_polynomial(m: Matroid) -> SparsePoly:
    """Characteristic polynomial chi_M(q) = (-1)^r T_M(1-q, 0)."""
    t = tutte_delcontr(m)
    q1 = SparsePoly(("q",), {(0,): 1, (1,): -1})
    out = t.substitute("x", q1).substitute("y", 0)
    return out * ((-1) ** m.rank_value)
