import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tautmat.cli import main
from tautmat.genperm import base_polytope, simplex
from tautmat.matroid import uniform
from tautmat.poly import SparsePoly
from tautmat.serialize import (
    ParseError,
    genperm_from_json,
    genperm_to_json,
    matroid_from_json,
    matroid_to_json,
    parse_genperm,
    parse_matroid,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matroid_json_roundtrip(u24, k4, vamos):
    for m in (u24, k4, vamos):
        assert matroid_from_json(matroid_to_json(m)) == m
    assert matroid_from_json({"type": "uniform", "r": 2, "n": 4}) == u24


def test_flag_roundtrip(u24):
    from tautmat.matroid import FlagMatroid
    from tautmat.serialize import parse_flag

    flag = parse_flag(["uniform:1:4", "uniform:2:4"])
    assert flag.ranks == (1, 2)
    back = FlagMatroid([matroid_from_json(matroid_to_json(m)) for m in flag])
    assert list(back) == list(flag)


def test_polytope_json_roundtrip(u24):
    for p in (base_polytope(u24), simplex(4), simplex(4).negate(), base_polytope(u24) + simplex(4)):
        assert genperm_from_json(genperm_to_json(p)) == p
    sym = {"type": "minkowski_sum", "summands": [
        {"type": "base_polytope", "matroid": {"type": "uniform", "r": 2, "n": 4}},
        {"type": "dilate", "of": {"type": "simplex", "ground_set": 4}, "c": 2},
    ]}
    assert genperm_from_json(sym) == base_polytope(u24) + simplex(4).dilate(2)


def test_shorthand_parsing(u24):
    assert parse_matroid("uniform:2:4") == u24
    assert parse_matroid("vamos").n_elements == 8
    assert parse_genperm("hypersimplex:2:4") == base_polytope(u24)
    assert parse_genperm("simplex:3") == simplex(3)
    with pytest.raises(ParseError):
        parse_matroid("uniform:2")
    with pytest.raises(ParseError):
        parse_matroid("/nonexistent/file.json")


@pytest.mark.parametrize("source", ["simplex:x", "simplex:", "simplex:3:4"])
def test_bad_simplex_shorthand_names_the_input(source):
    with pytest.raises(ParseError, match=repr(source)):
        parse_genperm(source)


@pytest.mark.parametrize(
    "obj, name",
    [
        ({"type": "simplex", "ground_set": 3, "subset": [5]}, "simplex subset [5]"),
        ({"type": "simplex", "ground_set": 3, "subset": [0, 5]}, "simplex subset [0, 5]"),
        ({"type": "simplex", "ground_set": 3, "subset": [-1]}, "simplex subset [-1]"),
        ({"ground_set": 2, "rk": {"[0,5]": 1}}, "rk key [0, 5]"),
        ({"ground_set": 2, "rk": {"[-1]": 1}}, "rk key [-1]"),
        ({"type": "simplex", "ground_set": 3, "subset": [True]}, "simplex subset [True]"),
        ({"ground_set": 2, "rk": {"[true]": 1}}, "rk key [True]"),
        ({"ground_set": 2, "rk": {"[0,0]": 1}}, "rk key [0, 0]"),
        ({"type": "simplex", "ground_set": 2.5}, "ground_set 2.5"),
    ],
    ids=["subset-5", "subset-0-5", "subset-negative", "rk-0-5", "rk-negative", "subset-bool",
         "rk-bool", "rk-repeated", "ground-float"],
)
def test_polytope_element_outside_the_ground_set_names_the_input(obj, name):
    with pytest.raises(ParseError, match=re.escape(name)):
        parse_genperm(obj)


@pytest.mark.parametrize(
    "obj, name",
    [
        ({"type": "graphic", "vertices": 2, "edges": [[0, 1], [0, 2]]}, "graphic edge [0, 2]"),
        ({"type": "graphic", "vertices": 2, "edges": [[0, 1], [0, -1]]}, "graphic edge [0, -1]"),
        ({"type": "graphic", "edges": [[0, 1], [0, -1]]}, "graphic edge [0, -1]"),
        ({"type": "graphic", "vertices": 2, "edges": [[True, 0]]}, "graphic edge [True, 0]"),
        ({"type": "graphic", "edges": 5}, "edges 5"),
    ],
    ids=["endpoint-2", "endpoint-negative", "endpoint-negative-no-vertices", "endpoint-bool",
         "edges-int"],
)
def test_graphic_endpoint_outside_the_vertices_names_the_input(obj, name, tmp_path):
    with pytest.raises(ParseError, match=re.escape(name)):
        parse_matroid(obj)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=re.escape(name)):
        parse_matroid(f"graphic:@{path}")


@pytest.mark.parametrize(
    "obj, name",
    [
        ({"ground_set": 2, "bases": [[0, -1]]}, "basis [0, -1]"),
        ({"ground_set": 2, "bases": [["a"]]}, "basis ['a']"),
        ({"ground_set": 2, "bases": [[True]]}, "basis [True]"),
        ({"ground_set": 2, "bases": [[0, 0]]}, "basis [0, 0]"),
        ({"ground_set": 2, "bases": [0]}, "basis 0"),
        ({"ground_set": 2, "bases": 7}, "bases 7"),
        ({"ground_set": "x", "bases": [[0]]}, "ground_set 'x'"),
        ({"ground_set": 2.5, "bases": [[0]]}, "ground_set 2.5"),
        ({"type": "uniform", "r": 2.5, "n": 4}, "r 2.5"),
        ({"type": "uniform", "r": True, "n": 4}, "r True"),
        ({"type": "uniform", "r": -1, "n": 4}, "r -1"),
        ({"type": "uniform", "r": 2, "n": "4"}, "n '4'"),
        ({"type": "graphic", "vertices": 2.5, "edges": [[0, 1]]}, "vertices 2.5"),
        ({"type": "graphic", "vertices": -1, "edges": [[0, 1]]}, "vertices -1"),
        ({"type": "graphic", "edges": 5}, "edges 5"),
    ],
    ids=["negative", "string", "bool", "repeated", "int-basis", "int-bases", "ground-string",
         "ground-float", "uniform-r-float", "uniform-r-bool", "uniform-r-negative",
         "uniform-n-string", "graphic-vertices-float", "graphic-vertices-negative",
         "graphic-edges-int"],
)
def test_malformed_bases_name_the_input(obj, name, tmp_path, capsys):
    with pytest.raises(ParseError, match=re.escape(name)):
        matroid_from_json(obj)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert main(["info", str(path)]) == 2
    assert f"ParseError: {name}" in capsys.readouterr().err


def test_ehrhart_of_a_subset_outside_the_ground_set_exits_2(tmp_path, capsys):
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"type": "simplex", "ground_set": 3, "subset": [5]}))
    assert main(["ehrhart", str(path)]) == 2
    assert "ParseError: simplex subset [5]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, name",
    [
        ({"type": "hypersimplex", "r": 1.5, "n": 3}, "r 1.5"),
        ({"type": "hypersimplex", "r": 1, "n": True}, "n True"),
        ({"type": "dilate", "c": 1.5, "of": {"type": "simplex", "ground_set": 3}}, "c 1.5"),
        ({"type": "dilate", "c": -1, "of": {"type": "simplex", "ground_set": 3}}, "c -1"),
        ({"ground_set": 2, "rk": {"[0]": 1.5}}, "rk value of [0] 1.5"),
        ({"ground_set": 2, "rk": {"[0]": "1"}}, "rk value of [0] '1'"),
        ({"ground_set": 2, "rk": {"[0": 1}}, "rk key '[0'"),
        ({"ground_set": 2, "rk": {"0": 1}}, "rk key 0"),
        ({"ground_set": 2, "rk": [1]}, "rk [1]"),
        ({"type": "minkowski_sum", "summands": []}, "summands []"),
        ({"type": "minkowski_sum", "summands": 5}, "summands 5"),
    ],
    ids=["hypersimplex-r-float", "hypersimplex-n-bool", "dilate-float", "dilate-negative",
         "rk-value-float", "rk-value-string", "rk-key-not-json", "rk-key-not-a-list",
         "rk-not-an-object", "summands-empty", "summands-int"],
)
def test_malformed_polytope_names_the_input(obj, name, tmp_path, capsys):
    with pytest.raises(ParseError, match=re.escape(name)):
        genperm_from_json(obj)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    assert main(["ehrhart", str(path), "--c", "1"]) == 2
    assert f"ParseError: {name}" in capsys.readouterr().err


def test_validation_error_from_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ground_set": 4, "bases": [[0, 1], [2, 3]]}))
    from tautmat.matroid import ExchangeAxiomViolation

    with pytest.raises(ExchangeAxiomViolation):
        parse_matroid(str(bad))


def test_cli_tautdeg_and_determinism(capsys):
    code1, out1 = run_cli(capsys, "tautdeg", "uniform:2:4")
    code2, out2 = run_cli(capsys, "tautdeg", "uniform:2:4")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["checks"][0]["status"] == "pass"
    poly = SparsePoly.from_json(rep["results"]["degree_polynomial"])
    assert {sum(e) for e in poly.terms} == {3}


def test_cli_jobs_bit_identical(capsys):
    _, out1 = run_cli(capsys, "tautdeg", "uniform:2:5", "--jobs", "1")
    _, out8 = run_cli(capsys, "tautdeg", "uniform:2:5", "--jobs", "8")
    def norm(s):
        return s.replace('"jobs":8', '"jobs":_').replace('"jobs":1', '"jobs":_').replace('"8"', '"_"').replace('"1"', '"_"')
    assert norm(out1) == norm(out8)


def test_cli_max_ground_does_not_leak(capsys, monkeypatch):
    monkeypatch.delenv("TAUTMAT_GUARDRAIL", raising=False)
    code, _ = run_cli(capsys, "info", "uniform:1:3", "--max-ground", "12")
    assert code == 0
    assert "TAUTMAT_GUARDRAIL" not in os.environ
    assert main(["tautdeg", "uniform:1:10"]) == 2  # default guardrail again
    monkeypatch.setenv("TAUTMAT_GUARDRAIL", "7")
    run_cli(capsys, "info", "uniform:1:3", "--max-ground", "12")
    assert os.environ["TAUTMAT_GUARDRAIL"] == "7"


def test_import_loads_no_process_pool():
    # the CLI is single-process; a process pool import would be paid by every call
    probe = (
        "import sys, tautmat.cli, tautmat.checks; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def _alone(*argv):
    """(exit code, stdout) of one tautmat call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("TAUTMAT_GUARDRAIL", None)
    proc = subprocess.run(
        [sys.executable, "-m", "tautmat.cli", *argv], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_one_parser_serves_many_calls(capsys, monkeypatch):
    # the parser is built once per process; no option of one call may leak
    # into the next, so each call prints what it prints when run alone
    monkeypatch.delenv("TAUTMAT_GUARDRAIL", raising=False)
    calls = [
        ("cf", "uniform_2_4", "--t-range", "5", "--u-range", "4"),
        ("cf", "uniform_2_4"),
        ("tutte", "uniform:2:4", "--format", "text"),
        ("csm", "uniform:2:4", "--k", "1", "--seed", "7", "--jobs", "3"),
        ("csm", "uniform:2:4"),
        ("info", "/nonexistent.json"),
        ("check", "--only", "ehrhart"),
    ]
    together = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _ in together] == [0, 0, 0, 0, 0, 2, 0]
    assert [_alone(*argv) for argv in calls] == together
    from tautmat.cli import build_parser

    assert build_parser() is build_parser()
    assert build_parser.cache_info().maxsize == 1


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    from tautmat import __version__

    assert out == f"tautmat {__version__}\n"
    assert _alone("--version") == (0, out)


def test_results_are_seed_independent(capsys):
    # generic points differ with the seed, but exact values cannot
    _, out1 = run_cli(capsys, "tautdeg", "uniform:2:4", "--seed", "1")
    _, out2 = run_cli(capsys, "tautdeg", "uniform:2:4", "--seed", "999")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]
    assert r1["checks"] == r2["checks"]


def test_cli_ehrhart(capsys):
    code, out = run_cli(capsys, "ehrhart", "hypersimplex:2:4", "--c", "1")
    assert code == 0
    assert json.loads(out)["results"]["lattice_points"] == 6


def test_cli_text_mode(capsys):
    code, out = run_cli(capsys, "tutte", "uniform:2:4", "--format", "text")
    assert code == 0
    assert "x^2 + y^2 + 2*x + 2*y" in out
    assert "[ok]" in out


def test_cli_info_and_corpus(capsys):
    code, out = run_cli(capsys, "info", "k4")
    assert code == 0 and json.loads(out)["results"]["rank"] == 3
    code, out = run_cli(capsys, "corpus")
    assert code == 0 and "vamos" in json.loads(out)["results"]["names"]


def test_cli_error_exit_code(capsys):
    assert main(["info", "/nonexistent.json"]) == 2
    assert main(["gpoly", "uniform:3:3"]) == 2  # coloops rejected
    assert main(["ehrhart", "simplex:12", "--c", "1"]) == 2  # guardrail


def test_cli_check_failure_exit_code(capsys, monkeypatch):
    import tautmat.checks

    monkeypatch.setattr(
        tautmat.checks,
        "run_check_ledger",
        lambda **kw: [{"name": "stub", "status": "fail", "detail": "boom"}],
    )
    assert main(["check"]) == 1


def test_cli_cross_check_exception_is_a_failed_check(capsys, monkeypatch):
    import tautmat.cli
    from tautmat.engine import NonIntegral

    def broken(m, **kw):
        raise NonIntegral("chi of test is 1/2")

    monkeypatch.setattr(tautmat.cli, "fs_tutte", broken)
    code, out = run_cli(capsys, "fstutte", "uniform:2:4")
    assert code == 1
    rep = json.loads(out)
    assert {"name": "NonIntegral", "status": "fail", "detail": "chi of test is 1/2"} in rep["checks"]


@pytest.mark.parametrize("axis", ["t", "u"])
def test_cf_grid_above_degree_n_is_a_failed_identity(capsys, monkeypatch, axis):
    # both oracles agree on Q_M(t, u) + axis^(n+1), so every count matches
    # its character, but on a grid with n + 2 samples along axis they are
    # not of degree <= n: a failed identity, exit 1, not a crash
    import tautmat.invariants as inv
    from tautmat.invariants import IdentityFailure, cf_check

    m = uniform(2, 4)
    n = m.n_elements - 1
    real_grid = inv.integrate_inhomogeneous
    real_count = inv.GenPermutohedron.count_lattice_points

    def bump(t, u):
        return (t if axis == "t" else u) ** (n + 1)

    def chis(base, rows, cols, *, rng):
        # rows beta^u, columns alpha^t
        assert rows.cls.name == "O(b)" and cols.cls.name == "O(a)"
        grid = real_grid(base, rows, cols, rng=rng)
        return [[v + bump(t, u) for t, v in enumerate(row)] for u, row in enumerate(grid)]

    def count(poly, memo=None):
        # P(M) + t*nabla + u*Delta: rk({0}) = rk_M({0}) + u, rk(E) = r - t + u
        u = poly.rk[1] - m.rank(1)
        t = m.rank_value + u - poly.rk[poly.full_mask]
        return real_count(poly, memo) + bump(t, u)

    monkeypatch.setattr(inv, "integrate_inhomogeneous", chis)
    monkeypatch.setattr(inv.GenPermutohedron, "count_lattice_points", count)
    with pytest.raises(IdentityFailure, match=f"not of degree <= {n}"):
        cf_check(m, **{f"{axis}_max": n + 1}, rng=random.Random(0))
    code, out = run_cli(capsys, "cf", "uniform:2:4", f"--{axis}-range", str(n + 1))
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert failed == ["IdentityFailure"]


def test_cli_fstutte_zeta_check_on_fano(capsys):
    # every Fink-Speyer class of the Fano plane by both Euler-characteristic routes
    code, out = run_cli(capsys, "fstutte", "fano", "--zeta-check")
    _, plain = run_cli(capsys, "fstutte", "fano")
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"] and all(c["status"] == "pass" for c in rep["checks"])
    assert rep["results"] == json.loads(plain)["results"]


def test_zeta_grid_mismatch_is_a_named_failure(capsys, monkeypatch):
    # one point of the zeta grid off by one: fs_tutte and chi_both_routes
    # raise ChiRouteMismatch naming it, and in the ledger every chi-routes
    # entry is a failed check, exit 1, not a crash
    import tautmat.invariants as inv
    from tautmat.invariants import ChiRouteMismatch, chi_both_routes, fs_tutte
    from tautmat.kclass import s_class

    real = inv.integrate_inhomogeneous

    def off_by_one(base, rows, cols, *, rng):
        grid = real(base, rows, cols, rng=rng)
        grid[-1][-1] += 1
        return grid

    monkeypatch.setattr(inv, "integrate_inhomogeneous", off_by_one)
    m = uniform(2, 4)
    with pytest.raises(ChiRouteMismatch, match=r"fs class \(2, 2\): chi 0 vs zeta 1"):
        fs_tutte(m, rng=random.Random(0), zeta_check=True)
    fs_tutte(m, rng=random.Random(0))
    with pytest.raises(ChiRouteMismatch, match="chi routes disagree"):
        chi_both_routes(s_class(m), rng=random.Random(0))
    code, out = run_cli(capsys, "check", "--max-elements", "4", "--only", "chi-routes")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks and all(c["name"].startswith("chi-routes:") for c in checks)
    assert all(c["status"] == "fail" for c in checks)
    assert all(c["detail"].startswith("ChiRouteMismatch: fs class (") for c in checks)


def test_check_max_elements_5_stdout_is_pinned(capsys):
    # every result, check and their order, byte for byte; a change that
    # moves this hash changes what tautmat prints and must say why
    code, out = run_cli(capsys, "check", "--max-elements", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "db15ed9a84213d451713704a0c4b227ade961545e151db18df3b798a44ab08ff"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("csm", "vamos"), "8654fa0fc1be9c4741fb0609da8090c5d61b93146a68beea801520528ce331f0"),
        (("bergman", "vamos"), "de0d6add00c8953ab62ba45b938ad020f844d9199f4c167216cc938b915e349c"),
        (("csm", "fano"), "25d870558fa24b0288de670256ebce740e6b4c80092531c1a81478b6017cd012"),
        (("fstutte", "fano"), "37b2c0e6cda04c789308364685b08da6ba6c54e9ee79087e611c723240b8a660"),
        (("fstutte", "nonfano"), "0d865777b5b50bc584fc029108bf325c7ef42c63766f8102d8d4b07fb15b35a5"),
        (("cf", "uniform_2_5"), "c7eb763c30608b98134495b4c4aaf515babb059a38ab42e5c72b62f029909aec"),
        # a non-square grid: its extra samples in t verify the degree bound
        (
            ("cf", "uniform_2_4", "--t-range", "5", "--u-range", "4"),
            "7412919fe93e303c44ea88df8c1727c26de25619088f290d4ec1bec98a500d72",
        ),
        (("ehrhart", "hypersimplex:2:4", "--c", "3"), "812f15eeabb0ac730f284d4f6500c0138f3ce819602325e9084996c3ab75e37a"),
        (("gpoly", "fano"), "a4aa57a18f4f318c1ab66251ef34644d939f0e695f4b7e437d320ba5d6bb080e"),
        (("tautdeg", "vamos"), "c5f9037b548f65a7b3b6e1cea44ed45e53acb80d8f9ae37a74022bb2f4c88cef"),
        (("gpoly", "vamos"), "34c8a221f7cbce9f2407aa663527f36384110b1dc8d37054396cfd8647ecbd22"),
        (("fstutte", "fano", "--zeta-check"), "5aa43c40fd2a8d7d42ff78e3a8d8449de6b241f0aeb5d018a2543cc8b2e4f9b7"),
        (("fstutte", "vamos"), "bfb2645034e66f2b67422dfee6e3f585132d4da8ac54f2e92e3da9baee4adfd0"),
        # the zeta route on non-uniform 8-element matroids, past the chi-routes section's 4
        (("fstutte", "vamos", "--zeta-check"), "cddb822048ecd05c161aaec6ccb348c414ba4f8b4d8ec2cad01228efcf4b4fbe"),
        (("fstutte", "nonfano", "--zeta-check"), "474cbe22c02b413d3c4584d2b03c0496ede915be18e6e9a4209df7b44c93d593"),
        (("lvt", "uniform:2:8", "vamos"), "e50419c7f12035ddec91a348ee0323ab27da4e87fff8479546ae1a9cf287a6e6"),
        (
            ("flag-tutte", "uniform:1:8", "uniform:2:8", "vamos"),
            "c3dc5b77a831f92ab64095e89952dd80628b564a57583281cbb34ccc1bf5e866",
        ),
    ],
    ids=[
        "csm-vamos", "bergman-vamos", "csm-fano", "fstutte-fano", "fstutte-nonfano", "cf-u25",
        "cf-u24-t5-u4", "ehrhart-h24-c3", "gpoly-fano", "tautdeg-vamos", "gpoly-vamos",
        "fstutte-fano-zeta", "fstutte-vamos", "fstutte-vamos-zeta", "fstutte-nonfano-zeta",
        "lvt-u28-vamos", "flag-tutte-u18-u28-vamos",
    ],
)
def test_weight_stdout_is_pinned(capsys, argv, digest):
    # the ledger prints only pass/fail, not the weights or the polynomials
    # of the character verbs, so these pin them byte for byte
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_check_subset(capsys):
    code, out = run_cli(
        capsys, "check", "--max-elements", "3", "--only", "tutte", "theorem-a"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"] and all(c["status"] == "pass" for c in rep["checks"])


def test_cli_check_rejects_prefixes_that_select_nothing(capsys):
    # a typo must not run an empty ledger and pass
    for only in (["nosuch"], [], ["tutte", "nosuch"]):
        assert main(["check", "--max-elements", "3", "--only", *only]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "minkowski" in captured.err


def test_cli_flag_and_lvt(capsys):
    code, out = run_cli(capsys, "flag-tutte", "uniform:1:3", "uniform:2:3")
    assert code == 0
    code, out = run_cli(capsys, "lvt", "uniform:1:3", "uniform:2:3")
    assert code == 0
