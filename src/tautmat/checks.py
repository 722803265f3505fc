"""Cross-validation ledger used by the CLI `check` verb.

Each check returns a list of ledger entries {"name", "status", "detail"};
an entry fails by raising nothing here: failures are caught and recorded so
the ledger is complete and the exit code reflects any failure.
"""

from __future__ import annotations

import random

from .corpus import corpus
from .engine import euler_char_many
from .genperm import base_polytope, simplex
from .invariants import (
    bergman_weight,
    cf_check,
    chi_via_zeta,
    coalgebra_recursion_check,
    csm_weight,
    ehrhart,
    flag_kchi,
    flag_tutte_kt,
    fs_classes,
    fs_tutte,
    g_polynomial,
    lvt,
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


def run_check_ledger(seed=0, max_elements=8, only=None):
    rng = random.Random(seed)
    items = corpus(max_elements)
    ledger = []

    def want(name):
        return only is None or any(name.startswith(o) for o in only)

    if want("tutte"):
        for name, m in items:
            ledger.append(_entry(f"tutte-triple:{name}", lambda m=m: _triple_tutte(m)))
    if want("theorem-a"):
        for name, m in items:
            ledger.append(
                _entry(f"theorem-a:{name}", lambda m=m: bool(theorem_a_check(m, rng=rng)) and "")
            )
    if want("duality"):
        for name, m in items:
            ledger.append(_entry(f"duality:{name}", lambda m=m: _duality(m, rng)))
    if want("beta"):
        for name, m in items:
            ledger.append(_entry(f"beta:{name}", lambda m=m: _beta(m, rng)))
    if want("minkowski"):
        for name, m in items:
            ledger.append(_entry(f"minkowski:{name}", lambda m=m: _weights(m, rng)))
    if want("logconc"):
        for name, m in items:
            ledger.append(_entry(f"logconc:{name}", lambda m=m: _logconc(m)))
    if want("fs-tutte"):
        for name, m in items:
            if m.n_elements <= 7:
                ledger.append(
                    _entry(f"fs-tutte:{name}", lambda m=m: bool(fs_tutte(m, rng=rng)) and "")
                )
    if want("cf"):
        for name, m in items:
            if name in ("uniform_1_4", "uniform_2_4", "uniform_3_4", "k4"):
                ledger.append(
                    _entry(f"cf:{name}", lambda m=m: bool(cf_check(m, rng=rng)) and "")
                )
    if want("gpoly"):
        for name, m in items:
            if m.n_elements <= 6 and not m.loops() and not m.coloops():
                ledger.append(
                    _entry(f"gpoly:{name}", lambda m=m: g_polynomial(m, rng=rng).render())
                )
    if want("flag"):
        for name, m in items:
            if m.n_elements <= 5 and not m.loops() and m.rank_value >= 1:
                ledger.append(_entry(f"flag:{name}", lambda m=m: _flag(m, rng)))
    if want("coalgebra"):
        for name, m in items:
            if 2 <= m.n_elements <= 5:
                ledger.append(
                    _entry(
                        f"coalgebra:{name}",
                        lambda m=m: _none_ok(coalgebra_recursion_check(m, 0)),
                    )
                )
    if want("valuativity"):
        ledger.append(_entry("valuativity:hypersimplex-split", lambda: str(valuativity_demo(rng=rng))))
    if want("chi-routes"):
        for name, m in items:
            if m.n_elements <= 4:
                ledger.append(_entry(f"chi-routes:{name}", lambda m=m: _chi_routes(m, rng)))
    if want("ehrhart"):
        ledger.append(_entry("ehrhart:hypersimplex-2-4", lambda: str(ehrhart(base_polytope(uniform(2, 4)), 1, rng=rng))))
        ledger.append(_entry("ehrhart:segment-c3", lambda: str(ehrhart(simplex(2), 3, rng=rng))))
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
    p = taut_degree_polynomial(m, rng=rng)
    r, crk = m.rank_value, m.corank
    g1 = p.coeff((0, 0, r - 1, crk)) if r else 0
    g2 = p.coeff((0, 0, r, crk - 1)) if crk else 0
    if (b1, b2) != (g1, g2):
        raise AssertionError(f"beta mismatch: tutte {(b1, b2)} vs degrees {(g1, g2)}")
    return f"beta={b1}, beta_dual={b2}"


def _weights(m, rng):
    bw = bergman_weight(m, rng=rng)
    if mw_balance_check(bw) is not None:
        raise AssertionError("bergman weight unbalanced")
    for k in range(m.rank_value):
        cw = csm_weight(m, k, rng=rng)
        if mw_balance_check(cw) is not None:
            raise AssertionError(f"csm_{k} unbalanced")
    # the loop's last weight is csm_(r-1)
    if m.rank_value >= 1 and cw != bw:
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
    flag_kchi(flag, rng=rng)
    if lvt(m, m, rng=rng).substitute("z", 1).with_vars(("x", "y")) != tutte_delcontr(m):
        raise AssertionError("LVT(M,M) != T_M")
    return ""


def _chi_routes(m, rng):
    classes = list(fs_classes(m).values())
    chis = euler_char_many(classes, rng=rng)
    for cls, chi in zip(classes, chis):
        zz = chi_via_zeta(cls, rng=rng)
        if zz != chi:
            raise AssertionError(f"chi {chi} vs zeta {zz} on {cls.name}")
    return f"{len(classes)} classes"
