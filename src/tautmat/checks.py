"""Cross-validation ledger used by the CLI `check` verb.

Each check returns a list of ledger entries {"name", "status", "detail"};
an entry fails by raising nothing here: failures are caught and recorded so
the ledger is complete and the exit code reflects any failure.
"""

from __future__ import annotations

import random

from .corpus import corpus
from .genperm import base_polytope, simplex
from .invariants import (
    beta_via_localization,
    cf_check,
    coalgebra_recursion_check,
    ehrhart,
    flag_tutte_kt,
    fs_tutte,
    g_polynomial,
    kchi_from_kt,
    lvt,
    minkowski_weights,
    taut_degree_polynomial,
    theorem_a_check,
    valuativity_demo,
)
from .matroid import FlagMatroid, uniform
from .poly import SparsePoly, logconcave_unbroken_check
from .tutte import beta_pair, t_transform, tutte_convolution, tutte_coranknullity, tutte_delcontr
from .weights import mw_balance_check


def _entry(name, fn):
    try:
        detail = fn()
        return {"name": name, "status": "pass", "detail": detail or ""}
    except Exception as exc:  # ledger completeness beats fail-fast here
        return {"name": name, "status": "fail", "detail": f"{type(exc).__name__}: {exc}"}


def _sections(items, rng):
    """Each ledger section's (entry name, check) pairs, in ledger order."""

    def each(label, fn, keep=lambda name, m: True):
        return [(f"{label}:{name}", lambda m=m: fn(m)) for name, m in items if keep(name, m)]

    def quiet(fn):  # a check whose returned value stays out of the ledger
        return lambda m: bool(fn(m, rng=rng)) and ""

    cf_names = ("uniform_1_4", "uniform_2_4", "uniform_3_4", "k4")
    return {
        "tutte": each("tutte-triple", _triple_tutte),
        "theorem-a": each("theorem-a", quiet(theorem_a_check)),
        "duality": each("duality", lambda m: _duality(m, rng)),
        "beta": each("beta", lambda m: _beta(m, rng)),
        "minkowski": each("minkowski", lambda m: _weights(m, rng)),
        "logconc": each("logconc", _logconc),
        "fs-tutte": each("fs-tutte", quiet(fs_tutte), lambda name, m: m.n_elements <= 7),
        "cf": each("cf", quiet(cf_check), lambda name, m: name in cf_names),
        "gpoly": each(
            "gpoly",
            lambda m: g_polynomial(m, rng=rng).render(),
            lambda name, m: m.n_elements <= 6 and not m.loops() and not m.coloops(),
        ),
        "flag": each(
            "flag",
            lambda m: _flag(m, rng),
            lambda name, m: m.n_elements <= 5 and not m.loops() and m.rank_value >= 1,
        ),
        "coalgebra": each(
            "coalgebra",
            lambda m: _none_ok(coalgebra_recursion_check(m, 0)),
            lambda name, m: 2 <= m.n_elements <= 5,
        ),
        "valuativity": [
            ("valuativity:hypersimplex-split", lambda: str(valuativity_demo(rng=rng)))
        ],
        "chi-routes": each(
            "chi-routes", lambda m: _chi_routes(m, rng), lambda name, m: m.n_elements <= 4
        ),
        "ehrhart": [
            (
                "ehrhart:hypersimplex-2-4",
                lambda: str(ehrhart(base_polytope(uniform(2, 4)), 1, rng=rng)),
            ),
            ("ehrhart:segment-c3", lambda: str(ehrhart(simplex(2), 3, rng=rng))),
        ],
    }


def run_check_ledger(seed=0, max_elements=8, only=None):
    """Run the ledger sections whose names start with a prefix in only (all if None)."""
    sections = _sections(corpus(max_elements), random.Random(seed))
    if only is not None:
        unknown = [o for o in only if not any(s.startswith(o) for s in sections)]
        if unknown or not only:
            what = f"prefixes {unknown} match no section" if unknown else "no prefix given"
            raise ValueError(f"--only: {what}; sections: {', '.join(sections)}")
    ledger = []
    for section, entries in sections.items():
        if only is None or any(section.startswith(o) for o in only):
            ledger.extend(_entry(name, fn) for name, fn in entries)
    return ledger


def _none_ok(witness):
    if witness is not None:
        raise AssertionError(str(witness))
    return ""


def _triple_tutte(m):
    a = tutte_delcontr(m)
    if a != tutte_coranknullity(m) or a != tutte_convolution(m):
        raise AssertionError("Tutte routes disagree")
    if a.evaluate({"x": 2, "y": 2}) != 2**m.n_elements:
        raise AssertionError("T(2,2) != 2^|E|")
    return ""


def _duality(m, rng):
    p = taut_degree_polynomial(m, rng=rng)
    pd = taut_degree_polynomial(m.dual(), rng=rng)
    swapped = SparsePoly(
        ("x", "y", "z", "w"), {(b, a, d, c): v for (a, b, c, d), v in p.terms.items()}
    )
    if pd != swapped:
        raise AssertionError("degree polynomial duality fails")
    return ""


def _beta(m, rng):
    b1, b2 = beta_pair(m)
    loc = beta_via_localization(m, rng=rng)
    if (b1, b2) != loc:
        raise AssertionError(f"beta mismatch: tutte {(b1, b2)} vs degrees {loc}")
    return f"beta={b1}, beta_dual={b2}"


def _weights(m, rng):
    bw, csms = minkowski_weights(m, rng=rng)
    if mw_balance_check(bw) is not None:
        raise AssertionError("bergman weight unbalanced")
    for k, cw in enumerate(csms):
        if mw_balance_check(cw) is not None:
            raise AssertionError(f"csm_{k} unbalanced")
    if csms and csms[-1] != bw:
        raise AssertionError("csm_(r-1) differs from bergman")
    return ""


def _logconc(m):
    viol = logconcave_unbroken_check(t_transform(m), m.n_elements - 1)
    if viol is not None:
        raise AssertionError(str(viol))
    return ""


def _flag(m, rng):
    flag = FlagMatroid([uniform(1, m.n_elements), m])
    kt = flag_tutte_kt(flag, rng=rng)
    at_y0 = kt.substitute("y", 0)
    expect = SparsePoly(("x",), {(m.rank_value,): 1})
    if at_y0.with_vars(("x",)) != expect:
        raise AssertionError(f"KT(x,0) = {at_y0.render()} != x^{m.rank_value}")
    kchi_from_kt(flag, kt)
    if lvt(m, m, rng=rng).substitute("z", 1).with_vars(("x", "y")) != tutte_delcontr(m):
        raise AssertionError("LVT(M,M) != T_M")
    return ""


def _chi_routes(m, rng):
    # fs_tutte's zeta check compares every class of its grid with the zeta route
    fs_tutte(m, rng=rng, zeta_check=True)
    return f"{(m.rank_value + 1) * (m.corank + 1)} classes"
