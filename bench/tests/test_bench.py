"""Self-tests of the benchmark (about two minutes; not part of the tier-1 suite).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# The layer metrics each workload exists to move (README.md, "Per-layer
# metrics").  ``poly.interpolate_univariate.retries`` is listed there too,
# but no interpolation escalates on any workload at this commit, so it is 0.
MOVES_ON = {
    "graded": [
        "perms.iter_perm_bases.self_s", "perms.iter_perm_bases.items",
        "engine.integrate_graded.self_s", "engine.integrate_graded.calls",
    ],
    "character": [
        "engine.euler_char_many.self_s", "engine.euler_char_many.calls",
        "engine.euler_char_many.classes",
        "poly.interpolate_univariate.self_s", "poly.interpolate_univariate.calls",
        "poly.interpolate_univariate.samples", "poly.interpolate_univariate.degree_max",
        "genperm.GenPermutohedron.count_lattice_points.self_s",
        "genperm.GenPermutohedron.count_lattice_points.points",
    ],
    "weights": [
        "matroid.Matroid.minor.self_s", "matroid.Matroid.minor.calls",
        "matroid.Matroid.minor.distinct_ratio",
        "kclass.restrict_to_chain.self_s", "kclass.restrict_to_chain.calls",
        "weights.mw_balance_check.self_s", "weights.mw_balance_check.calls",
    ],
    "ledger": [
        "engine.integrate_inhomogeneous.self_s", "engine.integrate_inhomogeneous.calls",
        "poly.interpolate_univariate.self_s", "poly.interpolate_univariate.calls",
        "poly.interpolate_univariate.samples", "poly.interpolate_univariate.degree_max",
        "tutte.t_transform.self_s", "tutte.tutte_delcontr.calls", "tutte.beta_pair.calls",
        *(f"checks.{s}.wall_s" for s in layers.SECTIONS),
    ],
}
COUNTS = [name for name, unit in layers.METRICS if unit == "count"]


@pytest.fixture(scope="module")
def passes():
    """Fresh-process passes: untraced and traced at seed 1, traced at seed 2."""
    out = {}
    for w in worker.WORKLOADS:
        for mode, seed in (("pass", 1), ("trace", 1), ("trace", 2)):
            out[w, mode, seed] = run.spawn(w, seed, mode, timeout=600)
    return out


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_traced_and_untraced_digests_agree(passes, workload):
    plain = [(o["name"], o["digest"], o["error"]) for o in passes[workload, "pass", 1]["ops"]]
    traced = [(o["name"], o["digest"], o["error"]) for o in passes[workload, "trace", 1]["ops"]]
    assert plain == traced
    assert all(error is None for _, _, error in plain)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_listed_layer_metrics_are_nonzero(passes, workload):
    got = passes[workload, "trace", 1]["layers"]
    assert [m for m in MOVES_ON[workload] if not got.get(m)] == []


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_count_metrics_repeat_across_seeds(passes, workload):
    a = passes[workload, "trace", 1]["layers"]
    b = passes[workload, "trace", 2]["layers"]
    assert {m: a.get(m, 0) for m in COUNTS} == {m: b.get(m, 0) for m in COUNTS}


def test_dominant_layers_match_the_design(passes):
    def share(workload, *names):
        rec = passes[workload, "trace", 1]
        return sum(rec["layers"].get(f"{n}.self_s", 0) for n in names) / rec["wall_s"]

    assert share("graded", "engine.integrate_graded", "perms.iter_perm_bases") > 0.7
    assert share("character", "poly.interpolate_univariate") > 0.6
    assert share("weights", "matroid.Matroid.minor", "kclass.restrict_to_chain",
                 "weights.mw_balance_check") > 0.5


def test_wrong_expected_digest_is_a_failure_not_a_crash():
    def boom():
        raise ValueError("broken")

    results = worker.run_ops(
        [("right", lambda: [1]), ("wrong", lambda: [2]), ("raises", boom)],
        {"right": worker.digest([1]), "wrong": worker.digest([3]), "raises": "x"},
    )
    assert [r["error"] is None for r in results] == [True, False, False]
    assert results[2]["error"] == "ValueError: broken"


def test_failed_operations_are_counted():
    op = {"name": "a", "wall_s": 1.0, "cpu_s": 1.0, "digest": None, "error": "bad"}
    rec = {"wall_s": 1.0, "cpu_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0, "ops": [op, dict(op, name="b", error=None)]}
    metrics, attempted, failed, _ = run.summarize("graded", {"pass": [rec], "trace": []}, 0)
    assert (attempted, failed) == (2, 1)
    assert metrics["wall_s"]["value"] == 1.0


def test_retries_count_inconsistent_samples():
    worker.import_tautmat()
    from tautmat import engine, poly
    from tautmat.poly import InconsistentSamples

    original = poly.interpolate_univariate
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert engine.interpolate_univariate.__wrapped__ is original
        with pytest.raises(InconsistentSamples):
            engine.interpolate_univariate([(0, 0), (1, 1), (2, 5)], 1)
        poly.interpolate_univariate([(0, 0), (1, 1), (2, 2)], 1)
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    assert got["poly.interpolate_univariate.retries"] == 1
    assert got["poly.interpolate_univariate.calls"] == 2
    assert got["poly.interpolate_univariate.samples"] == 6
    assert engine.interpolate_univariate is original


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert {w["name"] for w in spec["workloads"]} <= set(worker.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graded", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
