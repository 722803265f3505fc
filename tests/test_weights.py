import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import all_chains, balance_reference, chain_insertions
from test_walk import small_matroids
from tautmat.checks import _logconc, _weights
from tautmat.corpus import corpus
from tautmat.matroid import bits, mask_of, matroid_from_bases, uniform
from tautmat.invariants import bergman_weight, csm_weight, minkowski_weights
from tautmat.weights import MinkowskiWeight, _constant_on_gaps, mw_balance_check


def test_all_chains_counts():
    assert all_chains(3, 0) == [()]
    assert len(all_chains(3, 1)) == 6
    # ordered pairs of nested proper subsets of a 4-set
    assert len(all_chains(4, 2)) == sum(
        1 for a in all_chains(4, 1) for b in all_chains(4, 1)
        if a[0] != b[0] and a[0] & b[0] == a[0]
    )


def test_chain_insertions():
    ins = chain_insertions((mask_of([0, 1]),), 3)
    assert (0, mask_of([0])) in ins and (0, mask_of([1])) in ins
    assert all(s != mask_of([0, 1]) for _, s in ins)


def test_bergman_u23(rng):
    w = bergman_weight(uniform(2, 3), rng=rng)
    assert w.dim == 1
    assert w.weights == {(1,): 1, (2,): 1, (4,): 1}
    assert mw_balance_check(w) is None


def test_bergman_u34(rng):
    w = bergman_weight(uniform(3, 4), rng=rng)
    assert len(w.weights) == 12
    assert all(v == 1 for v in w.weights.values())
    assert mw_balance_check(w) is None


def test_bergman_loopy_is_zero(rng):
    loopy = matroid_from_bases(3, [[0], [1]])
    w = bergman_weight(loopy, rng=rng)
    assert w.weights == {}


def test_bergman_rank_zero(rng):
    w = bergman_weight(uniform(0, 2), rng=rng)
    assert w.dim == -1 and w.weights == {}
    assert mw_balance_check(w) is None


def test_csm_values(rng):
    u23 = uniform(2, 3)
    w0 = csm_weight(u23, 0, rng=rng)
    assert w0.weights == {(): -1}
    assert csm_weight(u23, 1, rng=rng) == bergman_weight(u23, rng=rng)
    loopy = matroid_from_bases(3, [[0], [1]])
    assert csm_weight(loopy, 0, rng=rng).weights == {}
    with pytest.raises(ValueError):
        csm_weight(u23, 2, rng=rng)


def test_balance_detects_perturbation(rng):
    w = bergman_weight(uniform(2, 3), rng=rng)
    bad = dict(w.weights)
    bad[(1,)] = 2
    witness = mw_balance_check(MinkowskiWeight(3, 1, bad))
    assert witness is not None
    sub, vec = witness
    assert sub == ()


def test_weight_json():
    w = MinkowskiWeight(3, 1, {(1,): 1, (2,): 0})
    js = w.to_json()
    assert js["weights"] == [{"chain": [[0]], "w": 1}]


def _in_span_fraction_reference(rows, v):
    """Gauss-Jordan over Fraction with unit pivots."""
    mat = [[Fraction(x) for x in r] for r in rows]
    vec = [Fraction(x) for x in v]
    r = 0
    for c in range(len(vec)):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a - mat[i][c] * b for a, b in zip(mat[i], mat[r])]
        if vec[c]:
            vec = [a - vec[c] * b for a, b in zip(vec, mat[r])]
        r += 1
    return not any(vec)


@st.composite
def chain_vector_cases(draw):
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    chain, last = [], 0
    # a random nested chain of nonempty proper subsets
    while draw(st.booleans()):
        rest = [i for i in range(n) if not last >> i & 1]
        nxt = last | mask_of(draw(st.sets(st.sampled_from(rest), min_size=1)))
        if nxt == full:
            break
        chain.append(nxt)
        last = nxt
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        # constant on every gap by construction
        v = [0] * n
        levels = [0, *chain, full]
        for lo, hi in zip(levels, levels[1:]):
            c = draw(entry)
            for i in bits(hi & ~lo):
                v[i] = c
    else:
        v = draw(st.lists(entry, min_size=n, max_size=n))
    return n, tuple(chain), v


@given(chain_vector_cases())
@settings(max_examples=300, deadline=None)
def test_gap_test_matches_fraction_reference(case):
    # span(ones, indicators of a nested chain) = the vectors constant on its gaps
    n, chain, v = case
    rows = [[1] * n] + [[s >> i & 1 for i in range(n)] for s in chain]
    assert _constant_on_gaps(chain, v) == _in_span_fraction_reference(rows, v)


@functools.cache
def _corpus_weights():
    """Every Bergman and csm_k weight of the corpus matroids on at most 6 elements."""
    rng = random.Random(0xA5A5)
    out = []
    for _, m in corpus(6):
        bw, csms = minkowski_weights(m, rng=rng)
        out += [bw, *csms]
    return out


@st.composite
def perturbed_weights(draw):
    weights = _corpus_weights()
    w = weights[draw(st.integers(0, len(weights) - 1))]
    support, n, d = dict(w.weights), w.ground, w.dim
    change = draw(st.sampled_from(["as is", "entry", "chain"]))
    if change == "entry" and support:
        support[draw(st.sampled_from(sorted(support)))] = draw(st.integers(-3, 3))
    elif change == "chain" and 0 < d < n:
        # the prefix sets of a random order, cut at d distinct places
        order = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=d, max_size=d, unique=True)))
        support[tuple(mask_of(order[:c]) for c in cuts)] = draw(st.integers(1, 3))
    return MinkowskiWeight(n, d, support)


@given(perturbed_weights())
@settings(max_examples=300, deadline=None)
def test_one_pass_balance_matches_reference(weight):
    # the same verdict and the same witness as the candidate-by-candidate check
    assert mw_balance_check(weight) == balance_reference(weight)


@given(small_matroids(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_minkowski_routes_and_log_concavity_on_random_matroids(m, seed):
    # the ledger's minkowski and logconc checks on random matroids: the
    # geometric and combinatorial routes agree, every weight is balanced,
    # csm_(r-1) is the Bergman weight, and the Tutte transform is log-concave
    assert _weights(m, random.Random(seed)) == ""
    assert _logconc(m) == ""
