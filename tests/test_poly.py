import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautmat.poly import (
    InconsistentSamples,
    NotHomogeneous,
    SparsePoly,
    VariableMismatch,
    interpolate_univariate,
    logconcave_unbroken_check,
    psi_inverse,
    psi_transform,
)
from tautmat.rat import Rat, parse_rat, rat_str

from reference import psi_inverse_reference


def P(vars, terms):
    return SparsePoly(vars, {e: Rat(c) for e, c in terms.items()})


def test_product_difference_of_squares():
    x_plus_y = P(("x", "y"), {(1, 0): 1, (0, 1): 1})
    x_minus_y = P(("x", "y"), {(1, 0): 1, (0, 1): -1})
    assert x_plus_y * x_minus_y == P(("x", "y"), {(2, 0): 1, (0, 2): -1})


def test_evaluate_rational_point():
    p = P(("x",), {(2,): 1, (0,): 1})
    assert p.evaluate({"x": Rat(3, 2)}) == Rat(13, 4)


def test_variable_mismatch():
    p = P(("x",), {(1,): 1})
    with pytest.raises(VariableMismatch):
        p.evaluate({"y": Rat(1)})
    with pytest.raises(VariableMismatch):
        p.substitute("q", 1)


def test_substitute_polynomial():
    p = P(("x", "y"), {(2, 0): 1, (0, 1): 1})
    shifted = p.substitute("x", P(("x",), {(1,): 1, (0,): 1}))
    assert shifted == P(("x", "y"), {(2, 0): 1, (1, 0): 2, (0, 0): 1, (0, 1): 1})


def test_render_and_json_roundtrip():
    p = P(("x", "y"), {(2, 0): 1, (0, 2): 1, (1, 0): 2, (0, 1): Rat(-3, 2)})
    assert p.render() == "x^2 + y^2 + 2*x - 3/2*y"
    assert SparsePoly.from_json(p.to_json()) == p
    assert rat_str(Rat(-3, 2)) == "-3/2"


@given(
    st.integers(-10**30, 10**30)
    | st.builds(Rat, st.integers(-10**30, -1), st.integers(1, 10**12))
    | st.fractions()
)
@example(7)
@example(Rat(-8, 4))
@settings(max_examples=200, deadline=None)
def test_parse_rat_inverts_rat_str(x):
    text = rat_str(x)
    back = parse_rat(text)
    assert back == x
    # an integral value prints as "p" and comes back as an int, else as a Rat
    assert ("/" in text) == (x.denominator != 1)
    assert type(back) is (int if x.denominator == 1 else Rat)


@st.composite
def polys(draw, vars=("x", "y"), max_deg=3):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in vars)
        terms[exp] = Rat(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
    return SparsePoly(vars, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@st.composite
def int_polys(draw, vars=("x", "y"), max_deg=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in vars])
    return SparsePoly(vars, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))


def with_rat_coeffs(p):
    return SparsePoly(p.vars, {e: Rat(c) for e, c in p.terms.items()})


def assert_same_poly(a, b):
    assert a == b and hash(a) == hash(b)
    assert a.to_json() == b.to_json() and a.render() == b.render()


@given(int_polys(), int_polys(), int_polys(("x",)))
@settings(max_examples=60, deadline=None)
def test_int_and_rat_coefficients_are_interchangeable(a, b, c):
    ra, rb, rc = with_rat_coeffs(a), with_rat_coeffs(b), with_rat_coeffs(c)
    assert_same_poly(a, ra)
    assert_same_poly(a * b, ra * rb)
    assert_same_poly(a + b, ra + rb)
    assert_same_poly(a.substitute("y", c), ra.substitute("y", rc))
    assert_same_poly(a * rb + c, ra * b + rc)
    int_result = (a * b + a - c).substitute("x", c) * 3
    assert all(type(k) is int for k in int_result.terms.values())


@given(int_polys(("x", "y", "z")), int_polys(("x", "w")), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_substitute_matches_term_by_term_sum(p, c, k):
    # the one-pass substitution against the sum of monomial * value^e_x,
    # for a value that holds the substituted variable itself and for a scalar
    for value in (c, k):
        expect = SparsePoly.zero(("y", "z"))
        for e, coeff in p.terms.items():
            expect = expect + SparsePoly(("y", "z"), {e[1:]: coeff}) * value ** e[0]
        assert p.substitute("x", value) == expect


def assert_canonical(r, operands):
    # what the public constructor would make of r, in a dict of r's own
    assert type(r.vars) is tuple
    assert r.terms == SparsePoly(r.vars, r.terms).terms
    assert all(r.terms.values())
    assert all(type(e) is tuple and len(e) == len(r.vars) for e in r.terms)
    assert all(r.terms is not p.terms for p in operands)


@given(int_polys(), polys(), int_polys(("x", "w")), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_operation_results_are_canonical(a, b, c, k):
    operands = (a, b, c)
    results = [
        a + b, a + c, a + k, k + a, a + a, a + -a, a - b, a - c, a - a, a - k, k - a, -a,
        a * b, a * c, a * (b - b), a * k, k * a, a * 0, a ** 2, a ** 0,
        a.with_vars(("x", "y", "w")), a.with_vars(a.vars),
        a.substitute("x", c), a.substitute("y", b), a.substitute("x", k), a.substitute("y", a),
    ]
    for r in results:
        assert_canonical(r, operands)


class _Pairs(list):
    """Term pairs as the constructor reads them, duplicate exponents allowed."""

    def items(self):
        return iter(self)


def test_constructor_checks_and_canonicalizes():
    p = SparsePoly(["x", "y"], _Pairs([([1, 0], 2), ((0, 1), 0), ((1, 0), -2), ((0, 2), 3)]))
    assert p.vars == ("x", "y") and p.terms == {(0, 2): 3}
    assert SparsePoly(("x",), {(1,): 0}).terms == {}
    with pytest.raises(VariableMismatch):
        SparsePoly(("x", "y"), {(1,): 1})


# -- interpolation -----------------------------------------------------------


def test_interpolate_square():
    samples = [(Rat(q), Rat(q) ** 2) for q in (0, 1, 2)]
    assert interpolate_univariate(samples, 2) == P(("q",), {(2,): 1})


def test_interpolate_constant():
    samples = [(Rat(q), Rat(5)) for q in (0, 1, 2)]
    assert interpolate_univariate(samples, 2) == P(("q",), {(0,): 5})


def test_interpolate_rejects_low_degree_bound():
    samples = [(Rat(q), Rat(q) ** 3) for q in range(5)]
    with pytest.raises(InconsistentSamples):
        interpolate_univariate(samples, 2)


def test_interpolate_reproduces_random_polys():
    rng = random.Random(99)
    for _ in range(25):
        d = rng.randrange(0, 6)
        coeffs = [Rat(rng.randrange(-20, 20), rng.randrange(1, 7)) for _ in range(d + 1)]
        poly = SparsePoly(("q",), {(i,): c for i, c in enumerate(coeffs) if c})
        pts = rng.sample(range(-15, 15), d + 3)
        samples = [(Rat(x), poly.evaluate({"q": Rat(x)})) for x in pts]
        assert interpolate_univariate(samples, d) == poly


# -- binomial-basis transform ---------------------------------------------------


def test_psi_linear_term():
    assert psi_transform(P(("t", "u"), {(1, 0): 1})) == P(("x", "y"), {(1, 0): 1})


def test_psi_square():
    # t^2 = 2*binom(t,2) + binom(t,1)
    assert psi_transform(P(("t", "u"), {(2, 0): 1})) == P(
        ("x", "y"), {(2, 0): 2, (1, 0): 1}
    )


def test_psi_constant():
    assert psi_transform(P(("t", "u"), {(0, 0): 1})) == P(("x", "y"), {(0, 0): 1})


def test_psi_bijection_on_random_polys():
    rng = random.Random(4242)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            terms[(rng.randrange(0, 7), rng.randrange(0, 7))] = Rat(
                rng.randrange(-30, 30), rng.randrange(1, 4)
            )
        p = SparsePoly(("t", "u"), terms)
        psi = psi_transform(p)
        assert psi_inverse(psi) == p
        assert psi_inverse(psi).to_json() == psi_inverse_reference(psi).to_json()


# -- log-concave unbroken arrays ---------------------------------------------


def seq_poly(seq):
    return SparsePoly(("x", "y"), {(k, len(seq) - 1 - k): Rat(c) for k, c in enumerate(seq)})


def test_logconc_pass():
    assert logconcave_unbroken_check(seq_poly([1, 2, 1]), 2) is None


def test_logconc_violation():
    viol = logconcave_unbroken_check(seq_poly([1, 1, 2]), 2)
    assert viol is not None and "log-concavity" in viol["reason"]


def test_logconc_internal_zero():
    viol = logconcave_unbroken_check(seq_poly([1, 0, 1]), 2)
    assert viol is not None and "internal zero" in viol["reason"]


def test_logconc_negative():
    viol = logconcave_unbroken_check(seq_poly([1, -1, 1]), 2)
    assert viol is not None and viol["reason"] == "negative coefficient"


def test_logconc_requires_homogeneous():
    with pytest.raises(NotHomogeneous):
        logconcave_unbroken_check(P(("x", "y"), {(1, 0): 1, (0, 0): 1}), 1)
