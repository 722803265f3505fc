import pytest

from reference import direct_sum
from tautmat.matroid import matroid_from_bases, uniform
from tautmat.poly import SparsePoly
from tautmat.rat import Rat
from tautmat.tutte import (
    InexactDivision,
    _TUTTE_MEMO,
    beta_pair,
    char_polynomial,
    convolve,
    n_ab,
    t_transform,
    tutte_convolution,
    tutte_coranknullity,
    tutte_delcontr,
)


def P2(terms):
    return SparsePoly(("x", "y"), {e: Rat(c) for e, c in terms.items()})


def test_base_cases():
    assert tutte_delcontr(uniform(1, 1)) == P2({(1, 0): 1})
    assert tutte_delcontr(uniform(0, 1)) == P2({(0, 1): 1})


def test_u24_all_three_routes():
    expect = P2({(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})
    m = uniform(2, 4)
    assert tutte_delcontr(m) == expect
    assert tutte_coranknullity(m) == expect
    assert tutte_convolution(m) == expect


def test_triple_agreement_and_t22(small_corpus, fano, vamos):
    mats = [m for _, m in small_corpus] + [fano, vamos]
    for m in mats:
        t = tutte_delcontr(m)
        assert t == tutte_coranknullity(m)
        assert t == tutte_convolution(m)
        assert t.evaluate({"x": Rat(2), "y": Rat(2)}) == Rat(2) ** m.n_elements


def test_direct_sum_multiplies():
    m1, m2 = uniform(1, 2), uniform(2, 3)
    assert tutte_delcontr(direct_sum(m1, m2)) == tutte_delcontr(m1) * tutte_delcontr(m2)


def nu(m):
    """Identity of the minor convolution: 1 on the empty matroid, else 0."""
    return SparsePoly.constant(1 if m.n_elements == 0 else 0, ())


def test_convolution_identity_and_inverse_laws():
    # nu is the identity for the minor convolution
    m = uniform(2, 3)
    a = SparsePoly.variable("a", ("a", "b"))
    b = SparsePoly.variable("b", ("a", "b"))
    n = n_ab(a, b)
    assert convolve(nu, n, m) == n(m)
    assert convolve(n, nu, m) == n(m)
    # N_{(a,b)} * N_{(-a,-b)} = nu
    m2 = uniform(1, 2)
    conv = convolve(n_ab(a, b), n_ab(-a, -b), m2)
    assert conv == SparsePoly.zero(("a", "b"))
    empty_case = convolve(n_ab(a, b), n_ab(-a, -b), uniform(1, 1))
    assert empty_case == SparsePoly.zero(("a", "b"))


def test_transform_base_cases():
    one = SparsePoly.constant(1, ("x", "y", "z", "w"))
    assert t_transform(uniform(1, 1)) == one
    assert t_transform(uniform(0, 1)) == one
    expect = SparsePoly(
        ("x", "y", "z", "w"),
        {
            (1, 0, 0, 0): Rat(1),
            (0, 1, 0, 0): Rat(1),
            (0, 0, 1, 0): Rat(1),
            (0, 0, 0, 1): Rat(1),
        },
    )
    assert t_transform(uniform(1, 2)) == expect


def test_transform_homogeneous_and_dual(small_corpus):
    for _, m in small_corpus:
        t = t_transform(m)
        assert t.is_homogeneous(m.n_elements - 1)
        td = t_transform(m.dual())
        swapped = SparsePoly(
            ("x", "y", "z", "w"),
            {(b, a, d, c): v for (a, b, c, d), v in t.terms.items()},
        )
        assert td == swapped


def test_transform_divides_exactly_sanity(small_corpus):
    xy = SparsePoly(("x", "y", "z", "w"), {(1, 0, 0, 0): Rat(1), (0, 1, 0, 0): Rat(1)})
    for _, m in small_corpus:
        t4 = t_transform(m)
        prod = xy * t4
        # multiplying back by (x+y) recovers the unreduced transform
        tm = tutte_delcontr(m)
        r, crk = m.rank_value, m.corank
        yz = SparsePoly(("x", "y", "z", "w"), {(0, 1, 0, 0): Rat(1), (0, 0, 1, 0): Rat(1)})
        xw = SparsePoly(("x", "y", "z", "w"), {(1, 0, 0, 0): Rat(1), (0, 0, 0, 1): Rat(1)})
        direct = SparsePoly.zero(("x", "y", "z", "w"))
        for (a, b), c in tm.terms.items():
            direct = direct + c * xy ** (a + b) * yz ** (r - a) * xw ** (crk - b)
        assert prod == direct


def test_inexact_division_guard():
    # a Tutte polynomial with a constant term is impossible for a valid
    # matroid; injecting one through the memo must trip the guard
    fake = matroid_from_bases(2, [[0]])
    _TUTTE_MEMO[fake.key()] = P2({(0, 0): 1, (1, 0): 1})
    try:
        with pytest.raises(InexactDivision):
            t_transform(fake)
    finally:
        del _TUTTE_MEMO[fake.key()]


def test_beta_values():
    assert beta_pair(uniform(2, 4)) == (2, 2)
    assert beta_pair(uniform(1, 1)) == (1, 0)
    loopy = matroid_from_bases(3, [[0], [1]])
    assert beta_pair(loopy)[0] == 0
    assert beta_pair(uniform(2, 3)) == (1, 1)


def test_char_polynomial():
    # chi_{U_{2,3}}(q) = (q-1)(q-2)
    assert char_polynomial(uniform(2, 3)) == SparsePoly(
        ("q",), {(2,): Rat(1), (1,): Rat(-3), (0,): Rat(2)}
    )
