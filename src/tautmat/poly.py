"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map {exponent vector -> nonzero coefficient} together
with an ordered tuple of variable names.  Coefficients are stored as given:
ints stay ints under + - * and substitution, and a Rat appears only where a
division made one: psi_inverse (the rational Cameron-Fink polynomial Q_M),
"p/q" input, and the public interpolate_univariate, which no computation
path calls (the library reads polynomials off one integer's digits,
`engine._grid_interpolate` and `engine._zeta_read_off`, or off integer samples
by forward differences, `engine.forward_differences`).  The canonical
term order used for serialization and rendering is graded lexicographic
(total degree first).
Also houses exact univariate Lagrange interpolation, the binomial-basis
transform sending binom(t,i)binom(u,j) -> x^i y^j, and the log-concave
unbroken-array test for coefficient arrays of homogeneous polynomials.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .rat import Rat, parse_rat, rat_str


class VariableMismatch(ValueError):
    """A variable name is unknown, or two polynomials cannot be aligned."""


class InconsistentSamples(ValueError):
    """Interpolation samples are not consistent with the degree bound."""


class NotHomogeneous(ValueError):
    """Input polynomial is not homogeneous of the stated degree."""


# Preferred embedding order for the formal bookkeeping variables.
_VAR_ORDER = ["x", "y", "z", "w", "u", "v", "s", "q", "p", "a", "b", "c", "d"]


def _var_key(name: str):
    try:
        return (0, _VAR_ORDER.index(name), name)
    except ValueError:
        return (1, 0, name)


def merge_vars(vars_a, vars_b):
    """Deterministic union of two variable tuples."""
    return tuple(sorted(set(vars_a) | set(vars_b), key=_var_key))


class SparsePoly:
    """Exact sparse polynomial in named variables.

    The constructor checks and canonicalizes its input: every exponent
    vector must have len(vars) entries (VariableMismatch), duplicate
    exponents are merged and zero terms dropped.  The results of + - *,
    with_vars and substitute are built canonical and wrapped by _trusted,
    which takes their fresh dict as it is.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        tt = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    e = tuple(exp)
                    if len(e) != len(self.vars):
                        raise VariableMismatch(
                            f"exponent vector {e} does not match vars {self.vars}"
                        )
                    tt[e] = tt.get(e, 0) + c
        self.terms = {e: c for e, c in tt.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars=()):
        return cls(vars, {})

    @classmethod
    def constant(cls, c, vars=()):
        vars = tuple(vars)
        if not c:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars=None):
        vars = (name,) if vars is None else tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): 1})

    # -- bookkeeping -------------------------------------------------------

    def is_homogeneous(self, d=None):
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if d is None:
            return len(degs) == 1
        return degs == {d}

    def with_vars(self, newvars):
        """Embed into a superset of variables (raises if a var would be lost)."""
        newvars = tuple(newvars)
        missing = [v for v in self.vars if v not in newvars]
        if missing:
            raise VariableMismatch(f"cannot drop variables {missing}")
        idx = [newvars.index(v) for v in self.vars]
        out = {}
        for exp, c in self.terms.items():
            e = [0] * len(newvars)
            for j, pos in enumerate(idx):
                e[pos] = exp[j]
            out[tuple(e)] = c
        return _trusted(newvars, out)

    def _aligned(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(other, self.vars)
        if self.vars == other.vars:
            return self, other
        vv = merge_vars(self.vars, other.vars)
        return self.with_vars(vv), other.with_vars(vv)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._aligned(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _trusted(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.constant(-other, self.vars))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            if not other:
                return _trusted(self.vars, {})
            return _trusted(self.vars, {e: c * other for e, c in self.terms.items()})
        a, b = self._aligned(other)
        out = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(map(operator.add, ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _trusted(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePoly.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return self.terms == SparsePoly.constant(other, self.vars).terms
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- evaluation / extraction -------------------------------------------

    def _var_index(self, name):
        try:
            return self.vars.index(name)
        except ValueError:
            raise VariableMismatch(f"unknown variable {name!r} (vars: {self.vars})")

    def evaluate(self, assignment):
        """Full evaluation; assignment maps every variable to an exact number."""
        vals = [assignment[v] if v in assignment else None for v in self.vars]
        if any(v is None for v in vals):
            missing = [v for v, x in zip(self.vars, vals) if x is None]
            raise VariableMismatch(f"missing values for {missing}")
        acc = 0
        for e, c in self.terms.items():
            t = c
            for x, k in zip(vals, e):
                if k:
                    t = t * x**k
            acc = acc + t
        return acc

    def substitute(self, name, value):
        """Substitute a polynomial or scalar for one variable.

        One pass: each power of the value is computed once, and every term
        times its power is accumulated into one dict.
        """
        i = self._var_index(name)
        if not isinstance(value, SparsePoly):
            value = SparsePoly.constant(value, ())
        vv = merge_vars(tuple(v for v in self.vars if v != name), value.vars)
        val = value.with_vars(vv) if value.vars != vv else value
        pos = [vv.index(v) for v in self.vars if v != name]
        powers = [SparsePoly.constant(1, vv)]
        out = {}
        for e, c in sorted(self.terms.items()):
            while len(powers) <= e[i]:
                powers.append(powers[-1] * val)
            base = [0] * len(vv)
            for p, x in zip(pos, e[:i] + e[i + 1 :]):
                base[p] = x
            for pe, pc in powers[e[i]].terms.items():
                e2 = tuple(map(operator.add, base, pe))
                out[e2] = out.get(e2, 0) + c * pc
        return _trusted(vv, {e: c for e, c in out.items() if c})

    def coeff(self, exp):
        """Coefficient of one monomial, given as an exponent tuple."""
        return self.terms.get(tuple(exp), 0)

    # -- canonical form ----------------------------------------------------

    def sorted_terms(self):
        """Graded-lex order, highest degree first."""
        return sorted(
            self.terms.items(), key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0]))
        )

    def render(self):
        """Human-readable form, e.g. 'x^2 + y^2 + 2*x + 2*y'."""
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.vars, exp):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            if not factors:
                body = rat_str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = rat_str(c) + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"SparsePoly({self.render()!r})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coeff": rat_str(c)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj):
        vars = tuple(obj["vars"])
        return cls(
            vars, {tuple(t["exp"]): parse_rat(str(t["coeff"])) for t in obj["terms"]}
        )


def _trusted(vars, terms):
    """A SparsePoly on terms that are already canonical, without the constructor's checks.

    terms must be a dict no other object holds, of nonzero coefficients
    keyed by exponent tuples of length len(vars), and vars a tuple.
    """
    p = object.__new__(SparsePoly)
    p.vars = vars
    p.terms = terms
    return p


# ---------------------------------------------------------------------------
# Exact univariate interpolation
# ---------------------------------------------------------------------------


def interpolate_univariate(samples, degree_bound, var="q"):
    """Unique interpolant of degree <= degree_bound through exact samples.

    samples: iterable of (point, value) pairs with pairwise distinct points.
    Uses the first degree_bound+1 samples to build the Lagrange interpolant;
    every remaining sample must match it exactly, else InconsistentSamples.
    """
    samples = [(Rat(x), Rat(y)) for x, y in samples]
    if len(samples) < degree_bound + 1:
        raise InconsistentSamples(
            f"need {degree_bound + 1} samples, got {len(samples)}"
        )
    base = samples[: degree_bound + 1]
    xs = [x for x, _ in base]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    # coeffs[k] accumulates the coefficient of var**k
    coeffs = [0] * (degree_bound + 1)
    for j, (xj, yj) in enumerate(base):
        # numerator polynomial prod_{k != j} (q - x_k), by incremental mult
        num = [1]
        den = 1
        for k, (xk, _) in enumerate(base):
            if k == j:
                continue
            den = den * (xj - xk)
            num = [0] + num
            for i in range(len(num) - 1):
                num[i] = num[i] - xk * num[i + 1]
        scale = yj / den
        for i, c in enumerate(num):
            coeffs[i] = coeffs[i] + c * scale
    poly = SparsePoly((var,), {(i,): c for i, c in enumerate(coeffs) if c})
    for x, y in samples[degree_bound + 1 :]:
        if poly.evaluate({var: x}) != y:
            raise InconsistentSamples(
                f"extra sample at {rat_str(x)} does not match degree-{degree_bound} interpolant"
            )
    return poly


# ---------------------------------------------------------------------------
# Binomial-basis transform
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def _falling_factorial_coeffs(i):
    """Coefficients of binom(t, i)*i! = t(t-1)...(t-i+1) as a dense list."""
    coeffs = [1]
    for m in range(i):
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= m * c
        coeffs = nxt
    return tuple(coeffs)


def psi_transform(poly, var_map=(("t", "x"), ("u", "y"))):
    """Expand in the product binomial basis and map binom(t,i)binom(u,j) -> x^i y^j.

    The input must be a polynomial in the source variables of var_map.  The
    change of basis uses t^a = sum_i S(a,i) i! binom(t,i) with S the Stirling
    numbers of the second kind; the map is an invertible linear map.
    """
    var_map = tuple(var_map)
    src = tuple(v for v, _ in var_map)
    dst = tuple(v for _, v in var_map)
    p = poly.with_vars(merge_vars(poly.vars, src))
    idx = [p.vars.index(v) for v in src]
    out = {}
    for exp, c in p.terms.items():
        for j, v in enumerate(p.vars):
            if v not in src and exp[j]:
                raise VariableMismatch(f"unexpected variable {v!r} in psi input")
        pows = [exp[i] for i in idx]
        ranges = [range(a + 1) for a in pows]
        for combo in itertools.product(*ranges):
            f = c
            for a, i in zip(pows, combo):
                s = _stirling2(a, i)
                if not s:
                    f = 0
                    break
                fact = 1
                for m in range(2, i + 1):
                    fact *= m
                f = f * (s * fact)
            if f:
                e = tuple(combo)
                out[e] = out.get(e, 0) + f
    return SparsePoly(dst, {e: c for e, c in out.items() if c})


def psi_inverse(poly, var_map=(("t", "x"), ("u", "y"))):
    """Inverse of psi_transform: x^i y^j -> binom(t,i)binom(u,j).

    binom(t, i) is the falling factorial t(t-1)...(t-i+1) over i!, written
    over the common denominator top!, top the largest exponent of its
    variable: times top!/i! its coefficients are integers.  So each
    coefficient of the result is an integer sum over one denominator, the
    product of the tops' factorials, made a Rat once.  The variables come in
    merge_vars order.
    """
    var_map = tuple(var_map)
    src = tuple(v for v, _ in var_map)
    dst = tuple(v for _, v in var_map)
    p = poly.with_vars(merge_vars(poly.vars, dst))
    idx = [p.vars.index(v) for v in dst]
    tops = [max((exp[k] for exp in p.terms), default=0) for k in idx]
    # rows[k][i]: (degree, coefficient) of binom(v_k, i) times tops[k]!
    rows = [
        [
            [(d, c * (math.factorial(top) // math.factorial(i)))
             for d, c in enumerate(_falling_factorial_coeffs(i)) if c]
            for i in range(top + 1)
        ]
        for top in tops
    ]
    sums = {}
    for exp, c in p.terms.items():
        for j, v in enumerate(p.vars):
            if v not in dst and exp[j]:
                raise VariableMismatch(f"unexpected variable {v!r} in psi_inverse input")
        for combo in itertools.product(*(row[exp[k]] for row, k in zip(rows, idx))):
            e = tuple(d for d, _ in combo)
            sums[e] = sums.get(e, 0) + c * math.prod(cc for _, cc in combo)
    den = math.prod(math.factorial(top) for top in tops)
    out = SparsePoly(src, {e: Rat(s, den) for e, s in sums.items() if s})
    return out.with_vars(merge_vars(src, ()))


# ---------------------------------------------------------------------------
# Log-concave unbroken arrays
# ---------------------------------------------------------------------------


def logconcave_unbroken_check(poly, degree):
    """Check the coefficient array of a homogeneous polynomial.

    For every pair of variables (i, j) and every monomial pattern m in the
    remaining variables, the coefficient sequence along x_i^k x_j^{D-k} x^m
    must be nonnegative, log-concave, and have no internal zeros.  Returns
    None on success, else a dict describing the first violated line.
    """
    if not poly.is_homogeneous(degree):
        raise NotHomogeneous(f"expected homogeneous of degree {degree}")
    for c in poly.terms.values():
        if c < 0:
            return {"reason": "negative coefficient", "coeff": rat_str(c)}
    nv = len(poly.vars)
    # group exponents by their pattern outside a chosen variable pair
    for i in range(nv):
        for j in range(i + 1, nv):
            patterns = {}
            for exp in poly.terms:
                key = tuple(x for k, x in enumerate(exp) if k not in (i, j))
                patterns.setdefault(key, []).append(exp)
            for key, exps in patterns.items():
                dd = degree - sum(key)
                seq = []
                for k in range(dd + 1):
                    e = list(key)
                    e.insert(i, k)
                    e.insert(j, dd - k)
                    seq.append(poly.terms.get(tuple(e), 0))
                viol = _check_sequence(seq)
                if viol is not None:
                    return {
                        "pair": (poly.vars[i], poly.vars[j]),
                        "pattern": key,
                        "sequence": [rat_str(c) for c in seq],
                        "reason": viol,
                    }
    return None


def _check_sequence(seq):
    support = [k for k, c in enumerate(seq) if c]
    if not support:
        return None
    lo, hi = support[0], support[-1]
    for k in range(lo, hi + 1):
        if not seq[k]:
            return f"internal zero at position {k}"
    for k in range(1, len(seq) - 1):
        if seq[k] * seq[k] < seq[k - 1] * seq[k + 1]:
            return f"log-concavity fails at position {k}"
    return None
