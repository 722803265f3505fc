"""Command-line interface: exact matroid invariants with reproducible reports.

Every command prints one canonical JSON (or text) report to stdout; all
randomness is driven by --seed, so identical invocations produce identical
bytes.  Wall-clock timing goes to stderr only, keeping stdout byte-stable.
The exit code is 0 iff every cross-check requested by the command passed.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time

from . import __version__
from .corpus import corpus_names
from .invariants import (
    bergman_weight,
    beta_via_localization,
    cf_check,
    csm_weight,
    ehrhart,
    flag_tutte_kt,
    fs_tutte,
    g_polynomial,
    kchi_from_kt,
    lvt,
    minkowski_weights,
    taut_degree_polynomial,
)
from .matroid import bits
from .poly import SparsePoly
from .serialize import (
    canonical_json,
    digest,
    genperm_to_json,
    matroid_to_json,
    parse_flag,
    parse_genperm,
    parse_matroid,
)
from .tutte import beta_pair, t_transform, tutte_convolution, tutte_coranknullity, tutte_delcontr

DEFAULT_SEED = 2718281828


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built on the first call and shared by every later one.

    parse_args fills a fresh namespace from the defaults on each call, so one
    parser serves any number of main() calls in a process.
    """
    p = argparse.ArgumentParser(
        prog="tautmat",
        description="Exact tautological-class invariants of matroids on permutohedral varieties.",
    )
    p.add_argument("--version", action="version", version=f"tautmat {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and echoed in the report; "
                        "all computation is single-process")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--max-ground", type=int, default=None,
                        help="override the ground-set guardrail")
        return sp

    m_help = "matroid: file path, uniform:r:n, graphic:@file, or a builtin name"
    common(sub.add_parser("info", help="basic matroid data")).add_argument("matroid", help=m_help)
    common(sub.add_parser("tutte", help="Tutte polynomial, three routes cross-checked")).add_argument("matroid", help=m_help)
    common(sub.add_parser("tautdeg", help="4-variable degree polynomial (checked against the Tutte transform)")).add_argument("matroid", help=m_help)
    common(sub.add_parser("beta", help="beta invariants via Tutte and localization")).add_argument("matroid", help=m_help)
    common(sub.add_parser("bergman", help="Bergman Minkowski weight, both routes")).add_argument("matroid", help=m_help)
    sp = common(sub.add_parser("csm", help="CSM Minkowski weights"))
    sp.add_argument("matroid", help=m_help)
    sp.add_argument("--k", type=int, default=None, help="single dimension (default: all)")
    common(sub.add_parser("gpoly", help="g-polynomial, Chow and character routes")).add_argument("matroid", help=m_help)
    sp = common(sub.add_parser("fstutte", help="Tutte polynomial via Euler characteristics"))
    sp.add_argument("matroid", help=m_help)
    sp.add_argument("--zeta-check", action="store_true", help="also cross-check each character against the zeta route")
    sp = common(sub.add_parser("cf", help="lattice-point Tutte polynomial identities"))
    sp.add_argument("matroid", help=m_help)
    sp.add_argument("--t-range", type=int, default=None, help="grid maximum in t (default: dimension)")
    sp.add_argument("--u-range", type=int, default=None, help="grid maximum in u")
    sp = common(sub.add_parser("ehrhart", help="lattice count via chi(O(D_P))"))
    sp.add_argument("polytope", help="polytope: file path, hypersimplex:r:n, simplex:n, or builtin matroid name")
    sp.add_argument("--c", type=int, default=1, help="dilation factor")
    sp = common(sub.add_parser("flag-tutte", help="flag-geometric Tutte polynomial"))
    sp.add_argument("matroids", nargs="+", help="constituents, smallest rank first")
    sp = common(sub.add_parser("lvt", help="Las Vergnas Tutte polynomial of a morphism"))
    sp.add_argument("matroids", nargs=2, help="quotient then matroid")
    sp = common(sub.add_parser("check", help="run the full cross-validation ledger"))
    sp.add_argument("--max-elements", type=int, default=8)
    sp.add_argument("--only", nargs="*", default=None, help="restrict to ledger sections by prefix")
    common(sub.add_parser("corpus", help="list builtin corpus names"))
    return p


def _poly_json(p: SparsePoly):
    return p.to_json()


def _dispatch(args, rng, checks, results, inputs):
    """Compute one verb's results, appending each cross-check to checks."""

    def check(name, cond, detail=""):
        checks.append(
            {"name": name, "status": "pass" if cond else "fail", "detail": detail}
        )
        return cond

    verb = args.verb
    if verb == "corpus":
        results["names"] = list(corpus_names())
    elif verb == "check":
        from .checks import run_check_ledger

        checks.extend(
            run_check_ledger(
                seed=args.seed,
                max_elements=args.max_elements,
                only=args.only,
            )
        )
    elif verb in ("flag-tutte", "lvt"):
        mats = [parse_matroid(s) for s in args.matroids]
        inputs["matroids"] = [matroid_to_json(m) for m in mats]
        if verb == "flag-tutte":
            flag = parse_flag(args.matroids)
            kt = flag_tutte_kt(flag, rng=rng)
            kchi = kchi_from_kt(flag, kt)
            results["flag_tutte"] = _poly_json(kt)
            results["k_characteristic"] = _poly_json(kchi)
            check("kchi-alternating-signs", True)
        else:
            out = lvt(mats[0], mats[1], rng=rng)
            results["lvt"] = _poly_json(out)
            check("lvt-route-agreement", True)
    elif verb == "ehrhart":
        p = parse_genperm(args.polytope)
        inputs["polytope"] = genperm_to_json(p)
        count = ehrhart(p, args.c, rng=rng)
        results["dilation"] = args.c
        results["lattice_points"] = count
        check("chi-equals-enumeration", True)
    else:
        m = parse_matroid(args.matroid)
        inputs["matroid"] = matroid_to_json(m)
        if verb == "info":
            comps = m.connected_components()
            results.update(
                {
                    "ground_set": m.n_elements,
                    "rank": m.rank_value,
                    "n_bases": len(m.bases),
                    "loops": sorted(bits(m.loops())),
                    "coloops": sorted(bits(m.coloops())),
                    "components": [sorted(bits(c)) for c in comps],
                    "n_flats": len(m.flats()),
                }
            )
        elif verb == "tutte":
            from .tutte import char_polynomial

            t = tutte_delcontr(m)
            results["tutte"] = _poly_json(t)
            results["transform"] = _poly_json(t_transform(m))
            results["char_polynomial"] = _poly_json(char_polynomial(m))
            b1, b2 = beta_pair(m)
            results["beta"] = b1
            results["beta_dual"] = b2
            check("delcontr-equals-coranknullity", t == tutte_coranknullity(m))
            check("delcontr-equals-convolution", t == tutte_convolution(m))
        elif verb == "tautdeg":
            p = taut_degree_polynomial(m, rng=rng)
            results["degree_polynomial"] = _poly_json(p)
            check("equals-tutte-transform", p == t_transform(m))
        elif verb == "beta":
            b1, b2 = beta_pair(m)
            results["beta"] = b1
            results["beta_dual"] = b2
            loc = beta_via_localization(m, rng=rng)
            check("tutte-equals-localization", (b1, b2) == loc, f"{loc}")
        elif verb == "bergman":
            w = bergman_weight(m, rng=rng)
            results["bergman"] = w.to_json()
            check("route-agreement", True)
            from .weights import mw_balance_check

            check("balanced", mw_balance_check(w) is None)
        elif verb == "csm":
            from .weights import mw_balance_check

            if args.k is None:
                weights = enumerate(minkowski_weights(m, rng=rng)[1])
            else:
                weights = [(args.k, csm_weight(m, args.k, rng=rng))]
            results["csm"] = {}
            for k, w in weights:
                results["csm"][str(k)] = w.to_json()
                check(f"csm-{k}-balanced", mw_balance_check(w) is None)
        elif verb == "gpoly":
            g = g_polynomial(m, rng=rng)
            results["g_polynomial"] = _poly_json(g)
            check("route-agreement", True)
        elif verb == "fstutte":
            t = fs_tutte(m, rng=rng, zeta_check=args.zeta_check)
            results["fs_tutte"] = _poly_json(t)
            check("equals-deletion-contraction", True)
        elif verb == "cf":
            rep = cf_check(m, args.t_range, args.u_range, rng=rng)
            results["q_polynomial"] = _poly_json(rep.q_poly)
            results["psi_image"] = _poly_json(rep.psi_image)
            results["grid"] = {f"{t},{u}": v for (t, u), v in sorted(rep.grid.items())}
            check("counts-match-characters", True)
            check("psi-identity", True)
        else:
            raise SystemExit(f"unhandled verb {verb}")


def run(args):
    """Dispatch one parsed command; returns (report dict, ok flag)."""
    rng = random.Random(args.seed)
    checks = []
    results = {}
    inputs = {}

    try:
        _dispatch(args, rng, checks, results, inputs)
    except AssertionError as exc:
        # a cross-check that raised is a failed check, not an input error
        checks.append({"name": type(exc).__name__, "status": "fail", "detail": str(exc)})
    report = {
        "command": args.verb,
        "command_line": getattr(args, "argv_echo", None),
        "inputs": inputs,
        "inputs_digest": digest(inputs),
        "seed": getattr(args, "seed", None),
        "jobs": getattr(args, "jobs", None),
        "results": results,
        "checks": checks,
    }
    ok = all(c["status"] == "pass" for c in checks)
    return report, ok


def emit(report, fmt="json"):
    """Canonical, byte-stable rendering of a report."""
    if fmt == "json":
        return canonical_json(report) + "\n"
    lines = [f"# tautmat {report['command']}"]
    for key, val in sorted(report["results"].items()):
        if isinstance(val, dict) and "terms" in val and "vars" in val:
            lines.append(f"{key}: {SparsePoly.from_json(val).render()}")
        else:
            lines.append(f"{key}: {val}")
    for c in report["checks"]:
        mark = "ok" if c["status"] == "pass" else "FAIL"
        detail = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"[{mark}] {c['name']}{detail}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv_echo = list(argv)
    saved_guardrail = os.environ.get("TAUTMAT_GUARDRAIL")
    if args.max_ground is not None:
        os.environ["TAUTMAT_GUARDRAIL"] = str(args.max_ground)
    t0 = time.monotonic()
    try:
        report, ok = run(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if saved_guardrail is None:
            os.environ.pop("TAUTMAT_GUARDRAIL", None)
        else:
            os.environ["TAUTMAT_GUARDRAIL"] = saved_guardrail
    sys.stdout.write(emit(report, getattr(args, "format", "json")))
    print(f"# elapsed {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
