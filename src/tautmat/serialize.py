"""JSON parsing and canonical emission for matroids, polytopes, reports.

Matroid files: {"ground_set": 4, "bases": [[0,1],[0,2],...]} or the
symbolic forms {"type":"uniform","r":2,"n":4} and
{"type":"graphic","vertices":4,"edges":[[0,1],...]}.  Generalized
permutohedra: {"ground_set": n, "rk": {"[0,1]": 2, ...}} or symbolic
constructors (base_polytope / simplex / negate / dilate / minkowski_sum /
hypersimplex).  Emission is canonical and byte-stable: sorted keys, fixed
separators, no floats anywhere.
"""

from __future__ import annotations

import hashlib
import json

from .genperm import GenPermutohedron, base_polytope, simplex
from .matroid import FlagMatroid, Matroid, bits, graphic, mask_of, matroid_from_bases, uniform


class ParseError(ValueError):
    """Malformed input file or shorthand."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


# -- matroids ----------------------------------------------------------------


def matroid_to_json(m: Matroid):
    return {
        "ground_set": m.n_elements,
        "bases": [sorted(bits(b)) for b in m.bases],
    }


def matroid_from_json(obj, validate=True) -> Matroid:
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    kind = obj.get("type", "bases")
    try:
        if kind == "uniform":
            return uniform(int(obj["r"]), int(obj["n"]))
        if kind == "graphic":
            return _graphic(obj)
        if kind == "bases":
            return matroid_from_bases(
                int(obj["ground_set"]), obj["bases"], validate=validate
            )
    except KeyError as exc:
        raise ParseError(f"missing field {exc} in matroid input") from exc
    raise ParseError(f"unknown matroid type {kind!r}")


def _elements(values, n, what):
    """values, each an int in range(n) (n None: any int >= 0), else ParseError naming what."""
    values = list(values)
    if not all(isinstance(i, int) and 0 <= i and (n is None or i < n) for i in values):
        where = "a nonnegative int" if n is None else f"in 0..{n - 1}"
        raise ParseError(f"{what} {values} has an entry not {where}")
    return values


def _graphic(obj):
    """The cycle matroid of obj's edges on its vertices, each endpoint checked to be one."""
    n = obj.get("vertices")
    n = None if n is None else int(n)
    return graphic([tuple(_elements(e, n, "graphic edge")) for e in obj["edges"]], n)


def ground_set_size(obj) -> int:
    """matroid_from_json(obj).n_elements, read off the object without building it."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    kind = obj.get("type", "bases")
    try:
        if kind == "uniform":
            return int(obj["n"])
        if kind == "graphic":
            return len(obj["edges"])
        if kind == "bases":
            return int(obj["ground_set"])
    except KeyError as exc:
        raise ParseError(f"missing field {exc} in matroid input") from exc
    raise ParseError(f"unknown matroid type {kind!r}")


# -- generalized permutohedra --------------------------------------------------


def genperm_to_json(p: GenPermutohedron):
    rk = {}
    for s in range(1, 1 << p.n_elements):
        rk[json.dumps(sorted(bits(s)))] = p.rk[s]
    return {"ground_set": p.n_elements, "rk": rk}


def genperm_from_json(obj) -> GenPermutohedron:
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    kind = obj.get("type", "rk")
    try:
        if kind == "rk":
            n = int(obj["ground_set"])
            rk = [0] * (1 << n)
            for key, v in obj["rk"].items():
                rk[mask_of(_elements(json.loads(key), n, "rk key"))] = int(v)
            return GenPermutohedron(n, rk)
        if kind == "base_polytope":
            return base_polytope(matroid_from_json(obj["matroid"]))
        if kind == "hypersimplex":
            return base_polytope(uniform(int(obj["r"]), int(obj["n"])))
        if kind == "simplex":
            n = int(obj["ground_set"])
            sub = mask_of(_elements(obj["subset"], n, "simplex subset")) if "subset" in obj else None
            return simplex(n, sub)
        if kind == "negate":
            return genperm_from_json(obj["of"]).negate()
        if kind == "dilate":
            return genperm_from_json(obj["of"]).dilate(int(obj["c"]))
        if kind == "minkowski_sum":
            parts = [genperm_from_json(o) for o in obj["summands"]]
            out = parts[0]
            for q in parts[1:]:
                out = out + q
            return out
    except KeyError as exc:
        raise ParseError(f"missing field {exc} in polytope input") from exc
    raise ParseError(f"unknown polytope type {kind!r}")


# -- file / shorthand front end -------------------------------------------------


def load_json_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def parse_matroid(source) -> Matroid:
    """A matroid from a file path, an inline shorthand, or a builtin name."""
    from .corpus import builtin_matroid

    if isinstance(source, dict):
        return matroid_from_json(source)
    if source.startswith("uniform:"):
        try:
            _, r, n = source.split(":")
            return uniform(int(r), int(n))
        except ValueError as exc:
            raise ParseError(f"bad uniform shorthand {source!r}") from exc
    if source.startswith("graphic:@"):
        obj = load_json_file(source[len("graphic:@") :])
        if "edges" not in obj:
            raise ParseError("graphic file needs an 'edges' field")
        return _graphic(obj)
    builtin = builtin_matroid(source)
    if builtin is not None:
        return builtin
    return matroid_from_json(load_json_file(source))


def parse_flag(specs) -> FlagMatroid:
    """A flag matroid from a list of matroid specs, validated on construction."""
    return FlagMatroid([parse_matroid(s) for s in specs])


def parse_genperm(source) -> GenPermutohedron:
    if isinstance(source, dict):
        return genperm_from_json(source)
    if source.startswith("hypersimplex:"):
        try:
            _, r, n = source.split(":")
            return base_polytope(uniform(int(r), int(n)))
        except ValueError as exc:
            raise ParseError(f"bad hypersimplex shorthand {source!r}") from exc
    if source.startswith("simplex:"):
        try:
            _, n = source.split(":")
            return simplex(int(n))
        except ValueError as exc:
            raise ParseError(f"bad simplex shorthand {source!r}") from exc
    from .corpus import builtin_matroid

    builtin = builtin_matroid(source)
    if builtin is not None:
        return base_polytope(builtin)
    if source.startswith("uniform:"):
        return base_polytope(parse_matroid(source))
    return genperm_from_json(load_json_file(source))
