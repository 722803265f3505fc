"""The builtin corpus builds and validates only the entries a cap keeps."""

import pytest

import tautmat.serialize
from tautmat.corpus import _raw, builtin_matroid, corpus, corpus_names
from tautmat.serialize import ParseError, ground_set_size, matroid_from_json


def test_ground_set_size_reads_every_entry():
    assert len(corpus_names()) == 42
    for name in corpus_names():
        obj = _raw()[name]
        assert ground_set_size(obj) == matroid_from_json(obj).n_elements, name


def test_ground_set_size_rejects_what_matroid_from_json_rejects():
    # ground_set must be a nonnegative JSON integer: not a string, a float or a bool
    bad_sizes = [{"ground_set": n, "bases": [[0]]} for n in ("x", 2.5, True, -1)]
    # and so must a uniform matroid's n
    bad_sizes += [{"type": "uniform", "r": 1, "n": n} for n in ("4", 4.0, True, -1)]
    # a graphic matroid's edges must be a list
    bad_sizes.append({"type": "graphic", "edges": 5})
    for bad in ([4], {"type": "uniform", "r": 2}, {"type": "graphic"}, {"bases": []},
                {"type": "paving", "n": 4}, *bad_sizes):
        with pytest.raises(ParseError):
            matroid_from_json(bad)
        with pytest.raises(ParseError):
            ground_set_size(bad)


@pytest.mark.parametrize("cap", [*range(1, 9), None])
def test_capped_corpus_equals_build_all_then_filter(cap):
    built = [(name, matroid_from_json(_raw()[name])) for name in corpus_names()]
    expect = [(name, m) for name, m in built if cap is None or m.n_elements <= cap]
    assert corpus(cap) == expect


@pytest.fixture
def cold_corpus():
    builtin_matroid.cache_clear()
    yield
    builtin_matroid.cache_clear()


def test_cap_builds_no_entry_above_it(cold_corpus, monkeypatch):
    real = tautmat.serialize.matroid_from_json
    sizes = []

    def recording(obj, *args, **kw):
        m = real(obj, *args, **kw)
        sizes.append(m.n_elements)
        return m

    monkeypatch.setattr(tautmat.serialize, "matroid_from_json", recording)
    kept = corpus(5)
    assert sorted(sizes) == sorted(m.n_elements for _, m in kept)
    assert kept and max(sizes) == 5
