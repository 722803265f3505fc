"""Builtin matroid corpus, shipped as a data file.

Contains every uniform matroid on up to 7 elements, the graphic matroid of
K4, the Fano and non-Fano planes, the Vamos matroid, and the three
matroids of the hard-coded hypersimplex subdivision.  An entry is built,
and its exchange axiom validated, the first time it is asked for; the
instance is cached.
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
    """(name, matroid) pairs, optionally capped by ground-set size.

    The size is read off each entry's JSON object, so only the entries
    within the cap are built and validated.
    """
    from .serialize import ground_set_size

    raw = _raw()
    return [
        (name, builtin_matroid(name))
        for name in corpus_names()
        if max_elements is None or ground_set_size(raw[name]) <= max_elements
    ]
