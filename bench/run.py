"""tautmat benchmark: time to a verified invariant, per workload.

    python3 bench/run.py --workload character --seed 1 --seconds 60 --trace 0
    python3 bench/run.py                  # every workload in BENCHMARK.json
    python3 bench/run.py --full-ledger                    # each section of `tautmat check`

Each pass of a workload runs in a fresh Python process (``worker.py``), as a
single-threaded closed loop: one operation after another, each result
checked against the digest stored in ``expected.json``.  Passes repeat until
the next one would overrun ``--seconds``; every pass runs at least once.

``--trace 0`` prints the end-to-end metrics: wall_s and cpu_s are means
over the run's passes, setup_s and peak_rss_mb medians (set-up is sampled
once per pass).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``layers.py``; the tracing overhead and the
interpolation retries are printed above the result line.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS, REPORTED_ONLY, SECTIONS
from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# A run must end well within three minutes, whatever --seconds says.
RUN_LIMIT_S = 170
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    """A worker crashed or overran its time; the run prints no result."""


def spawn(workload, seed, mode, timeout):
    """Run one worker process; returns its record plus its set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--seed", str(seed), "--mode", mode]
    if workload is not None:
        cmd += ["--workload", workload]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} pass of {workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if "ready_monotonic" in record:
        record["setup_s"] = record["ready_monotonic"] - t0
    record["process_s"] = time.monotonic() - t0
    return record


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload, seed, seconds, trace):
    """All passes of one run: {"pass": [...], "trace": [...]}."""
    start = time.monotonic()

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    runs = {"pass": [], "trace": []}
    modes = ("pass", "trace") if trace else ("pass",)
    i = 0
    while True:
        mode = modes[i % len(modes)]
        done = [r["process_s"] for m in modes for r in runs[m]]
        if all(runs[m] for m in modes) and (
            time.monotonic() - start + max(done) > seconds or max(done) > remaining()
        ):
            break
        runs[mode].append(spawn(workload, seed, mode, remaining()))
        i += 1
    return runs


def summarize(workload, runs, trace):
    """(metrics, attempted, failed, report lines) of one run."""
    untraced, passes = runs["pass"], runs["pass"] + runs["trace"]
    ops = [op for r in passes for op in r["ops"]]
    failed = [op for op in ops if op["error"]]
    lines = [f"{workload}: FAILED {op['name']}: {op['error']}" for op in failed]
    samples = {
        "wall_s": [r["wall_s"] for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in passes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    for (name, unit), values in zip(END_TO_END, samples.values()):
        q1, med, q3 = quartiles(values)
        lines.append(f"{workload}: {name} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                     f"mean {statistics.mean(values):.4f} n {len(values)} {unit}")
    for name in dict.fromkeys(op["name"] for op in ops):
        walls = [o["wall_s"] for r in untraced for o in r["ops"] if o["name"] == name]
        lines.append(f"{workload}: op {name} median {statistics.median(walls):.4f} s")
    lines.append(f"{workload}: ops_failed_frac {len(failed) / len(ops):.4f} ({len(ops)} operations "
                 f"in {len(untraced)} untraced and {len(runs['trace'])} traced passes)")
    # A pass's time is the mean over the run: the host has slow spells that
    # last tens of seconds (README.md), and the median of a few passes snaps
    # to whichever state held most of them.
    statistic = {"wall_s": statistics.mean, "cpu_s": statistics.mean,
                 "setup_s": statistics.median, "peak_rss_mb": statistics.median}
    metrics = {name: {"value": statistic[name](samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    if trace:
        traced = [r["layers"] for r in runs["trace"]]
        layer = {}
        for name, unit in METRICS + REPORTED_ONLY:
            if name == "trace.overhead_s":
                value = (statistics.mean(r["wall_s"] for r in runs["trace"])
                         - statistics.mean(samples["wall_s"]))
            else:
                value = statistics.median(t.get(name, 0) for t in traced)
                if unit == "count":
                    value = int(value)
            layer[name] = {"value": value, "unit": unit}
        for name, unit in REPORTED_ONLY:
            lines.append(f"{workload}: {name} {layer[name]['value']:.6g} {unit}")
        metrics = {name: layer[name] for name, _ in METRICS}
        agree = len({tuple(o["digest"] for o in r["ops"]) for r in passes}) == 1
        lines.append(f"{workload}: traced and untraced digests {'agree' if agree else 'DIFFER'}")
        if not agree:
            failed.append({"name": "traced-digests"})
    return metrics, len(ops), len(failed), lines


def environment(backend):
    """What a result depends on besides the code: interpreter, backend, host."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="tautmat benchmark")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=60, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full-ledger", action="store_true",
                   help="time each section of `tautmat check` once instead")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tautmat" / "__init__.py").is_file():
        print(f"error: no tautmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.full_ledger:
            rec = spawn(None, args.seed, "full-ledger", None)
            print("env " + json.dumps(environment(rec["backend"]), sort_keys=True))
            for section in SECTIONS:
                print(f"section {section} {rec['sections_s'][section]:.2f} s")
            print(f"total {rec['total_s']:.2f} s, {rec['entries']} entries, all pass")
            print(json.dumps(rec, sort_keys=True))
            return 0
        if args.workload == "all":
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            workloads = [w["name"] for w in spec["workloads"]]
        else:
            workloads = [args.workload]
        metrics, attempted, failed, backend = {}, 0, 0, None
        for w in workloads:
            runs = measure(w, args.seed, args.seconds, args.trace)
            backend = runs["pass"][0]["backend"]
            m, a, f, lines = summarize(w, runs, args.trace)
            print("\n".join(lines), flush=True)
            prefix = "" if len(workloads) == 1 else f"{w}."
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(backend), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
