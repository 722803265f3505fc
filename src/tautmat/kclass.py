"""Localized K-classes on the permutohedral variety.

A class is stored intensionally: a tuple of atoms, each a lattice
generalized permutohedron P read at a permutation sigma as its vertex
maximal for sigma (P.vertex_at), plus a function from atom values to a
signed list of Laurent monomial exponent vectors.  [S_M] and [Q_M] read the
0/1 vertex of the base polytope P(M), the greedy basis; O(alpha) and
O(beta) read the vertices -e_sigma(n) of -Delta and e_sigma(0) of Delta;
O(D_P) reads the vertex of -P, which is its monomial.  Pushforwards read a
class only at its distinct atom-value keys, which are cached per class.
The same classes serve the Chow side: a Chern-class factor of the graded
path reads a class's merged monomials, each T^m of multiplicity c > 0
giving c Chern roots m.t (engine.GridAxis).
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .genperm import GenPermutohedron, base_polytope, simplex
from .matroid import Matroid


class MixedSigns(ValueError):
    """Exterior powers need a class whose localizations all have sign +1."""


def _dedup_atoms(atoms):
    seen = []
    for a in atoms:
        if a not in seen:
            seen.append(a)
    return tuple(seen)


@lru_cache(maxsize=None)
def simplex_pair(n):
    """(Delta, -Delta) on n elements, one shared pair per size: the atoms
    whose vertices are e_sigma(0) and -e_sigma(n)."""
    delta = simplex(n)
    return delta, delta.negate()


class KClassLoc:
    """sigma |-> signed list of exponent vectors (a Laurent polynomial)."""

    __slots__ = ("ground", "atoms", "_mono", "_cache", "name")

    def __init__(self, ground, atoms, mono_fn, name=""):
        self.ground = ground
        self.atoms = _dedup_atoms(atoms)
        self._mono = mono_fn
        self._cache = {}
        self.name = name

    def monomials(self, key):
        """Signed monomials ((coeff, exponent vector), ...) for an atom-value key."""
        out = self._cache.get(key)
        if out is None:
            out = tuple(self._mono(key))
            self._cache[key] = out
        return out

    def key_at(self, sigma):
        return tuple(a.vertex_at(sigma) for a in self.atoms)

    def merged(self, key):
        """Merged monomials at an atom-value key: dict {exponent vector: nonzero int}."""
        out = {}
        for c, m in self.monomials(key):
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return out

    def at(self, sigma):
        """Merged localization at one fixed point: dict {exponent vector: int}."""
        return self.merged(self.key_at(sigma))

    def rank(self):
        """Sum of monomial coefficients; sigma-independent for a valid class."""
        sigma = tuple(range(self.ground))
        return sum(c for c, _ in self.monomials(self.key_at(sigma)))

    def __repr__(self):
        return f"KClassLoc({self.name or 'anonymous'}, ground={self.ground})"


@lru_cache(maxsize=None)
def _unit(i, n, sign=1):
    """The exponent vector T_i^sign, one shared tuple per (i, n, sign)."""
    e = [0] * n
    e[i] = sign
    return tuple(e)


def _zero(n):
    return (0,) * n


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------


def s_class(m: Matroid) -> KClassLoc:
    """[S_M]: sum of T_i^{-1} over the greedy basis."""
    n = m.n_elements

    def mono(key):
        return [(1, _unit(i, n, -1)) for i, x in enumerate(key[0]) if x]

    return KClassLoc(n, (base_polytope(m),), mono, name=f"S({m!r})")


def q_class(m: Matroid) -> KClassLoc:
    """[Q_M]: sum of T_i^{-1} over the complement of the greedy basis."""
    n = m.n_elements

    def mono(key):
        return [(1, _unit(i, n, -1)) for i, x in enumerate(key[0]) if not x]

    return KClassLoc(n, (base_polytope(m),), mono, name=f"Q({m!r})")


def trivial_inverse_class(n) -> KClassLoc:
    """The trivial bundle with inverted action: sum of all T_i^{-1}."""
    return KClassLoc(
        n, (), lambda key: [(1, _unit(i, n, -1)) for i in range(n)], name="Cinv"
    )


def structure_sheaf(n) -> KClassLoc:
    return KClassLoc(n, (), lambda key: [(1, _zero(n))], name="O")


def dual_class(cls: KClassLoc) -> KClassLoc:
    def mono(key):
        return [(c, tuple(map(operator.neg, m))) for c, m in cls.monomials(key)]

    return KClassLoc(cls.ground, cls.atoms, mono, name=f"dual({cls.name})")


def kc_sum(*classes) -> KClassLoc:
    ground = classes[0].ground
    atoms = _dedup_atoms(tuple(a for c in classes for a in c.atoms))
    slots = [tuple(atoms.index(a) for a in c.atoms) for c in classes]

    def mono(key):
        out = []
        for c, sl in zip(classes, slots):
            out.extend(c.monomials(tuple(key[i] for i in sl)))
        return out

    return KClassLoc(ground, atoms, mono, name="+".join(c.name for c in classes))


def kc_negate(cls: KClassLoc) -> KClassLoc:
    def mono(key):
        return [(-c, m) for c, m in cls.monomials(key)]

    return KClassLoc(cls.ground, cls.atoms, mono, name=f"-({cls.name})")


def det_class(cls: KClassLoc) -> KClassLoc:
    def mono(key):
        tot = [0] * cls.ground
        count = 0
        for c, m in cls.monomials(key):
            if c < 0:
                raise MixedSigns("determinant of a class with mixed signs")
            count += c
            for p, x in enumerate(m):
                tot[p] += c * x
        return [(1, tuple(tot))]

    return KClassLoc(cls.ground, cls.atoms, mono, name=f"det({cls.name})")


def _vertex_class(p: GenPermutohedron, name) -> KClassLoc:
    """The line bundle whose monomial at sigma is the vertex of p maximal for sigma."""
    return KClassLoc(p.n_elements, (p,), lambda key: [(1, key[0])], name=name)


def line_bundle(p: GenPermutohedron) -> KClassLoc:
    """[O(D_P)]: the monomial T^{-m} at the vertex m of P minimal for sigma,
    which is the vertex of -P maximal for sigma."""
    return _vertex_class(p.negate(), "O(D_P)")


def alpha_class(n) -> KClassLoc:
    """[O(alpha)] = O(D_Delta), read at -Delta alone: T_{sigma(n)}^{-1}.

    Its one monomial is the root that engine.power_axis raises to powers:
    alpha^t at its Chern root on the graded path, O(t alpha) on the t axis
    of the Cameron-Fink grid.
    """
    return _vertex_class(simplex_pair(n)[1], "O(a)")


def beta_class(n) -> KClassLoc:
    """[O(beta)] = O(D_{-Delta}), read at Delta alone: T_{sigma(0)}.

    Its one monomial is the root that engine.power_axis raises to powers:
    beta^u at its Chern root on the graded path, O(u beta) on the u axis
    of the Cameron-Fink grid.
    """
    return _vertex_class(simplex_pair(n)[0], "O(b)")


def det_s_dual(m: Matroid) -> KClassLoc:
    """[det S_M^v] = [O(D_{-P(M)})]: the monomial prod_{i in B} T_i."""
    return _vertex_class(base_polytope(m), f"detSdual({m!r})")


def cremona(cls: KClassLoc) -> KClassLoc:
    """crem[E]: value at sigma is the value at reversed sigma with T -> T^{-1}.

    The vertex of P maximal for reversed sigma is minus the vertex of -P
    maximal for sigma, so each atom P becomes -P and each vertex read is
    negated back.
    """

    def mono(key):
        orig_key = tuple(tuple(map(operator.neg, v)) for v in key)
        return [(c, tuple(map(operator.neg, m))) for c, m in cls.monomials(orig_key)]

    return KClassLoc(
        cls.ground, tuple(a.negate() for a in cls.atoms), mono, name=f"crem({cls.name})"
    )


# ---------------------------------------------------------------------------
# derived helpers
# ---------------------------------------------------------------------------


def restrict_to_chain(m: Matroid, chain):
    """Factor matroids of M along a chain of nonempty proper subsets.

    Returns the list of minors M|S_{i+1}/S_i on the gap ground sets
    S_{i+1}-S_i (with S_0 = empty, S_{k+1} = E).  The alpha class restricts
    to the last factor and beta to the first.
    """
    full = m.full_mask
    levels = [0, *chain, full]
    factors = []
    for lo, hi in zip(levels, levels[1:]):
        if lo == hi:
            raise ValueError("chain subsets must be strictly nested")
        if lo & ~hi:
            raise ValueError("chain subsets must be nested")
        factors.append(m.minor(hi, lo))
    return factors
