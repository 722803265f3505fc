"""Builtin matroid corpus, shipped as a data file.

Contains every uniform matroid on up to 7 elements, the graphic matroid of
K4, the Fano and non-Fano planes, the Vamos matroid, and the three
matroids of the hard-coded hypersimplex subdivision.  Loading validates
the exchange axiom once and caches the instances.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

ALIASES = {
    "u24": "uniform_2_4",
    "m(k4)": "k4",
    "f7": "fano",
    "v8": "vamos",
}


@lru_cache(maxsize=1)
def _raw():
    with resources.files("tautmat.data").joinpath("corpus.json").open() as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def corpus_names():
    return tuple(sorted(_raw()))


@lru_cache(maxsize=None)
def builtin_matroid(name):
    """The named corpus matroid, or None if the name is unknown."""
    from .serialize import matroid_from_json

    key = ALIASES.get(name.lower(), name.lower())
    obj = _raw().get(key)
    if obj is None:
        return None
    return matroid_from_json(obj)


def corpus(max_elements=None):
    """(name, matroid) pairs, optionally capped by ground-set size."""
    out = []
    for name in corpus_names():
        m = builtin_matroid(name)
        if max_elements is None or m.n_elements <= max_elements:
            out.append((name, m))
    return out
