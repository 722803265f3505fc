"""One pass of one benchmark workload, in a fresh Python process.

Run by ``run.py``; not meant to be called by hand, except with
``--digests`` (see README.md).  A fresh process per pass is deliberate: a
command-line user pays the cold memos (``tutte._TUTTE_MEMO``,
``invariants._FACTOR_DEGREE_MEMO``, the corpus ``lru_cache``) on every
invocation, so a change to a memo has to show its effect cold.

Modes:
  pass    set up, then run every operation of the workload once;
  trace   the same pass with every layer wrapped by ``layers.Tracer``;
  full-ledger   time each section of ``tautmat check --max-elements 8``.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from layers import SECTIONS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("graded", "character", "weights", "ledger")
LEDGER_MAX_ELEMENTS = 5
FULL_LEDGER_MAX_ELEMENTS = 8


def import_tautmat():
    """Import the tautmat of this checkout, never an installed copy."""
    if not (SRC / "tautmat" / "__init__.py").is_file():
        raise SystemExit(f"error: no tautmat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tautmat
    import tautmat.checks
    import tautmat.cli
    import tautmat.invariants

    if Path(tautmat.__file__).resolve().parent != SRC / "tautmat":
        raise SystemExit(f"error: imported tautmat from {tautmat.__file__}")
    return tautmat


def build_inputs(workload):
    """The workload's matroids (the corpus JSON is loaded for every workload)."""
    from tautmat.corpus import builtin_matroid, corpus_names
    from tautmat.matroid import uniform

    corpus_names()
    if workload == "graded":
        vamos = builtin_matroid("vamos")
        return {"uniform_4_9": uniform(4, 9), "vamos": vamos, "vamos_dual": vamos.dual()}
    if workload == "character":
        return {name: builtin_matroid(name) for name in ("fano", "nonfano", "uniform_2_5")}
    if workload == "weights":
        return {name: builtin_matroid(name) for name in ("vamos", "uniform_5_7")}
    if workload == "ledger":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload, inputs, rng, seed, times=None):
    """[(name, thunk)]; each thunk returns the operation's canonical result.

    The ``ledger`` operation puts the wall time of each section in ``times``.
    """
    from tautmat.invariants import bergman_weight, cf_check, csm_weight, fs_tutte, theorem_a_check
    from tautmat.weights import mw_balance_check

    if workload == "graded":
        return [
            (f"theorem-a:{name}", lambda m=m: theorem_a_check(m, rng=rng, jobs=1).to_json())
            for name, m in inputs.items()
        ]
    if workload == "character":

        def cf(m):
            rep = cf_check(m, rng=rng, jobs=1)
            grid = sorted([t, u, v] for (t, u), v in rep.grid.items())
            return {"q": rep.q_poly.to_json(), "psi": rep.psi_image.to_json(), "grid": grid}

        return [
            ("fs-tutte:fano", lambda: fs_tutte(inputs["fano"], rng=rng, jobs=1).to_json()),
            ("fs-tutte:nonfano", lambda: fs_tutte(inputs["nonfano"], rng=rng, jobs=1).to_json()),
            ("cf:uniform_2_5", lambda: cf(inputs["uniform_2_5"])),
        ]
    if workload == "weights":

        def balanced(weight):
            witness = mw_balance_check(weight)
            if witness is not None:
                raise AssertionError(f"unbalanced at {witness}")
            return weight.to_json()

        ops = []
        for name, m in inputs.items():
            ops.append((f"bergman:{name}", lambda m=m: balanced(bergman_weight(m, rng=rng))))
            for k in range(m.rank_value):
                ops.append((f"csm{k}:{name}", lambda m=m, k=k: balanced(csm_weight(m, k, rng=rng))))
        return ops
    if workload == "ledger":
        return [(f"check:max-elements-{LEDGER_MAX_ELEMENTS}", lambda: ledger_checks(seed, times=times))]
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(argv):
    """tautmat.cli.main on argv; returns (exit code, parsed report)."""
    from tautmat import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, (json.loads(out.getvalue()) if code in (0, 1) else None)


def ledger_checks(seed, max_elements=LEDGER_MAX_ELEMENTS, times=None):
    """The ``checks`` list of ``tautmat check``, one ``check --only`` call per section.

    Each section's wall time goes to ``times``.  The concatenated lists
    equal the list of a single ``check`` call, because results do not
    depend on the seed.
    """
    base = ["check", "--max-elements", str(max_elements), "--seed", str(seed)]
    checks = []
    for only in SECTIONS:
        t0 = time.perf_counter()
        code, report = run_cli(base + ["--only", only])
        if times is not None:
            times[only] = time.perf_counter() - t0
        if code != 0:
            failing = [c["name"] for c in report["checks"] if c["status"] != "pass"] if report else []
            raise AssertionError(f"tautmat check exited {code}; failing: {failing[:5]}")
        checks.extend(report["checks"])
    return checks


def digest(result):
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_ops(ops, expected):
    """Run each operation once; a raise or a digest mismatch is a failure."""
    results = []
    for name, thunk in ops:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            got = digest(thunk())
            error = None if got == expected.get(name) else f"digest {got[:16]} != expected"
        except Exception as exc:  # a failing operation is counted, not fatal
            got = None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        results.append({"name": name, "wall_s": time.perf_counter() - t0,
                        "cpu_s": cpu_seconds() - cpu0, "digest": got, "error": error})
    return results


def backend():
    from tautmat.rat import Rat

    return "gmpy2" if type(Rat(1)).__module__.startswith("gmpy2") else "fractions"


def peak_rss_mb():
    """Peak resident set of this process and its children (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def cpu_seconds():
    """CPU seconds of this process and of its children that have ended."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def one_pass(workload, seed, expected, traced=False):
    """Run the workload once in this process; returns the pass record."""
    inputs = build_inputs(workload)
    ready = time.monotonic()
    rng = random.Random(seed)
    tracer = None
    sections = {}
    if traced:
        tracer = Tracer()
        tracer.install()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        results = run_ops(operations(workload, inputs, rng, seed, sections), expected)
    finally:
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    record = {"ready_monotonic": ready, "wall_s": wall, "cpu_s": cpu, "ops": results}
    if tracer is not None:
        tracer.replay_perms()
        layers = tracer.metrics()
        layers.update({f"checks.{s}.wall_s": t for s, t in sections.items()})
        record["layers"] = layers
    return record


def full_ledger(seed):
    """Wall time of each section of ``tautmat check``, run in ledger order.

    A failing entry raises, as in every ledger pass.
    """
    times = {}
    t0 = time.perf_counter()
    checks = ledger_checks(seed, FULL_LEDGER_MAX_ELEMENTS, times)
    return {
        "max_elements": FULL_LEDGER_MAX_ELEMENTS,
        "entries": len(checks),
        "sections_s": times,
        "total_s": time.perf_counter() - t0,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("pass", "trace", "full-ledger"), default="pass")
    p.add_argument("--digests", action="store_true",
                   help="print the digests of every operation as expected.json would hold them")
    args = p.parse_args(argv)
    import_tautmat()
    if args.digests:
        table = {}
        for w in WORKLOADS:
            ops = operations(w, build_inputs(w), random.Random(args.seed), args.seed)
            table[w] = {r["name"]: r["digest"] for r in run_ops(ops, {})}
        print(json.dumps(table, indent=1, sort_keys=True))
        return 0
    if args.mode == "full-ledger":
        record = full_ledger(args.seed)
    else:
        if args.workload is None:
            p.error("--workload is required")
        expected = json.loads(EXPECTED.read_text())[args.workload]
        record = one_pass(args.workload, args.seed, expected, traced=args.mode == "trace")
    record["peak_rss_mb"] = peak_rss_mb()
    record["backend"] = backend()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
