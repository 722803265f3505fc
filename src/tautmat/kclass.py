"""Localized K-classes on the permutohedral variety.

A class is stored intensionally: a tuple of "atoms" saying which data of a
permutation the fixed-point value depends on (a greedy basis of some
matroid, the first or last element, or an extremal vertex of a lattice
generalized permutohedron), plus a function from atom values to a signed
list of Laurent monomial exponent vectors.  Pushforwards read a class only
at its distinct atom-value keys, which are cached per class.  The same
classes serve the Chow side: a Chern-class factor of the graded path reads
a class's merged monomials, each T^m of multiplicity c > 0 giving c Chern
roots m.t (engine.GradedFactor).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from .genperm import GenPermutohedron
from .matroid import Matroid, bits


class MixedSigns(ValueError):
    """Exterior powers need a class whose localizations all have sign +1."""


# Atom kinds: ("basis", Matroid) | ("first",) | ("last",) | ("vmin", P) | ("vmax", P)


def atom_value(atom, sigma):
    kind = atom[0]
    if kind == "basis":
        return atom[1].lex_first_basis(sigma)
    if kind == "first":
        return sigma[0]
    if kind == "last":
        return sigma[-1]
    if kind == "vmin":
        return atom[1].vertex_at(sigma, "min")
    if kind == "vmax":
        return atom[1].vertex_at(sigma, "max")
    raise ValueError(f"unknown atom kind {kind}")


def _dedup_atoms(atoms):
    seen = []
    for a in atoms:
        if a not in seen:
            seen.append(a)
    return tuple(seen)


class KClassLoc:
    """sigma |-> signed list of exponent vectors (a Laurent polynomial)."""

    __slots__ = ("ground", "atoms", "_mono", "_cache", "name", "factors")

    def __init__(self, ground, atoms, mono_fn, name="", factors=()):
        self.ground = ground
        self.atoms = _dedup_atoms(atoms)
        self._mono = mono_fn
        self._cache = {}
        self.name = name
        # kc_product's ((factor, slots), ...), slots picking the factor's key
        self.factors = factors

    def monomials(self, key):
        """Signed monomials ((coeff, exponent vector), ...) for an atom-value key."""
        out = self._cache.get(key)
        if out is None:
            out = tuple(self._mono(key))
            self._cache[key] = out
        return out

    def key_at(self, sigma):
        return tuple(atom_value(a, sigma) for a in self.atoms)

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
        return [(1, _unit(i, n, -1)) for i in bits(key[0])]

    return KClassLoc(n, (("basis", m),), mono, name=f"S({m!r})")


def q_class(m: Matroid) -> KClassLoc:
    """[Q_M]: sum of T_i^{-1} over the complement of the greedy basis."""
    n = m.n_elements
    full = m.full_mask

    def mono(key):
        return [(1, _unit(i, n, -1)) for i in bits(full ^ key[0])]

    return KClassLoc(n, (("basis", m),), mono, name=f"Q({m!r})")


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


def kc_product(*classes) -> KClassLoc:
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

    return KClassLoc(ground, atoms, mono, name="*".join(c.name for c in classes), factors=factors)


def exterior_power(cls: KClassLoc, j: int) -> KClassLoc:
    """j-th exterior power; requires all localization signs to be +1."""

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


def line_bundle(p: GenPermutohedron) -> KClassLoc:
    """[O(D_P)]: the single monomial T^{-m_sigma} at the min vertex."""
    n = p.n_elements

    def mono(key):
        return [(1, tuple(-x for x in key[0]))]

    return KClassLoc(n, (("vmin", p),), mono, name="O(D_P)")


def alpha_beta_twist(n, t_pow, u_pow) -> KClassLoc:
    """[O(t alpha + u beta)] with localization T_{sigma(0)}^{u} T_{sigma(n)}^{-t}."""

    def mono(key):
        first, last = key
        e = [0] * n
        e[first] += u_pow
        e[last] -= t_pow
        return [(1, tuple(e))]

    return KClassLoc(n, (("first",), ("last",)), mono, name=f"O({t_pow}a+{u_pow}b)")


def alpha_class(n) -> KClassLoc:
    """[O(alpha)] read at the last element alone: T_{sigma(n)}^{-1}."""
    return KClassLoc(n, (("last",),), lambda key: [(1, _unit(key[0], n, -1))], name="O(a)")


def beta_class(n) -> KClassLoc:
    """[O(beta)] read at the first element alone: T_{sigma(0)}."""
    return KClassLoc(n, (("first",),), lambda key: [(1, _unit(key[0], n))], name="O(b)")


def det_s_dual(m: Matroid) -> KClassLoc:
    """[det S_M^v] = [O(D_{-P(M)})]: the monomial prod_{i in B} T_i."""
    n = m.n_elements

    def mono(key):
        e = [0] * n
        for i in bits(key[0]):
            e[i] = 1
        return [(1, tuple(e))]

    return KClassLoc(n, (("basis", m),), mono, name=f"detSdual({m!r})")


def cremona(cls: KClassLoc) -> KClassLoc:
    """crem[E]: value at sigma is the value at reversed sigma with T -> T^{-1}.

    Implemented by transporting the atoms: the greedy basis of M at the
    reversed permutation is the complement of the greedy basis of the dual
    matroid, the first and last elements swap, and min/max vertices swap.
    """
    new_atoms = []
    translators = []
    for a in cls.atoms:
        kind = a[0]
        if kind == "basis":
            m = a[1]
            full = m.full_mask
            new_atoms.append(("basis", m.dual()))
            translators.append(lambda v, full=full: full ^ v)
        elif kind == "first":
            new_atoms.append(("last",))
            translators.append(lambda v: v)
        elif kind == "last":
            new_atoms.append(("first",))
            translators.append(lambda v: v)
        elif kind == "vmin":
            new_atoms.append(("vmax", a[1]))
            translators.append(lambda v: v)
        elif kind == "vmax":
            new_atoms.append(("vmin", a[1]))
            translators.append(lambda v: v)
        else:
            raise ValueError(f"cannot transport atom {a}")

    def mono(key):
        orig_key = tuple(tr(v) for tr, v in zip(translators, key))
        return [(c, tuple(-x for x in m)) for c, m in cls.monomials(orig_key)]

    return KClassLoc(cls.ground, tuple(new_atoms), mono, name=f"crem({cls.name})")


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
