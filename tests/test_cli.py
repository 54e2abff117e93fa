import json
from fractions import Fraction
import math
import subprocess
import sys

import pytest

from fproot.algebra import algebra_to_json, dual_numbers_algebra, sqrt2_algebra
from fproot.cli import run, scan_candidates
from fproot.quiver import cycle_quiver, kronecker_quiver, quiver_to_json
from fproot.repmod import module_to_json, regular_brick


@pytest.fixture()
def sqrt2_file(tmp_path):
    p = tmp_path / "alg.json"
    p.write_text(algebra_to_json(sqrt2_algebra()))
    return str(p)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "fproot.cli"] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_spectral_subcommand(tmp_path):
    f = tmp_path / "m.json"
    f.write_text('[["1", "-inf"], [0, 2]]')
    code, out, _ = run_cli(["spectral", str(f)])
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == 2 and payload["certified"] is True


def test_spectral_sqrt2(tmp_path):
    f = tmp_path / "m.json"
    f.write_text('[[0, 2], [1, 0]]')
    code, out, _ = run_cli(["spectral", str(f)])
    payload = json.loads(out)
    assert abs(payload["rho"] - math.sqrt(2)) <= 1e-12
    assert payload["certified"] is True


def test_spectral_empty_matrix(tmp_path):
    f = tmp_path / "m.json"
    f.write_text('[]')
    code, out, _ = run_cli(["spectral", str(f)])
    assert code == 0 and json.loads(out)["rho"] == 0


def test_spectral_parse_error_exit_2(tmp_path):
    f = tmp_path / "m.json"
    f.write_text('[[1, "zap"]]')
    code, _, err = run_cli(["spectral", str(f)])
    assert code == 2
    assert "row 0, column 1" in err


def _reject_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def test_spectral_infinite_radius_is_strict_json(tmp_path):
    f = tmp_path / "m.json"
    f.write_text('[["inf"]]')
    code, out, _ = run_cli(["spectral", str(f)])
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["rho"] is None and payload["certified"] is True


@pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN", "Infinity"])
def test_spectral_non_finite_number_exit_2(tmp_path, entry):
    f = tmp_path / "m.json"
    f.write_text(f"[[{entry}, 1], [0, 2]]")
    code, out, err = run_cli(["spectral", str(f)])
    assert code == 2 and out == ""
    assert "row 0, column 0" in err


def test_quiver_subcommands(tmp_path):
    f = tmp_path / "k2.json"
    f.write_text(quiver_to_json(kronecker_quiver()))
    code, out, _ = run_cli(["quiver", str(f), "fpdim"])
    assert code == 0 and json.loads(out)["fpdim"]["rho"] == 0

    f2 = tmp_path / "loop.json"
    f2.write_text(quiver_to_json(cycle_quiver(3)))
    code, out, _ = run_cli(["quiver", str(f2), "cycles"])
    assert json.loads(out)["theta"] == 1

    code, out, _ = run_cli(["quiver", str(f2), "classify"])
    assert json.loads(out) == {"family": "~A", "rank": 2}

    code, out, _ = run_cli(["quiver", str(f), "dot"])
    assert out.startswith("digraph")


def test_fp_scan_finds_sqrt2(sqrt2_file):
    code, out, _ = run_cli(["fp-scan", sqrt2_file, "--budget-dim", "4",
                            "--budget-set-size", "3", "--seed", "0"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["aggregates"]["fpdim"] - math.sqrt(2)) <= 1e-9
    assert payload["aggregates"]["stabilization_index"] == 2
    assert payload["budgets"]["seed"] == 0
    assert payload["tool"]["name"] == "fproot"


def test_fp_scan_deterministic(sqrt2_file):
    a = run_cli(["fp-scan", sqrt2_file, "--seed", "3"])
    b = run_cli(["fp-scan", sqrt2_file, "--seed", "3"])
    assert a == b


def test_fp_scan_budget_exhaustion_exit_3(sqrt2_file):
    code, out, _ = run_cli(["fp-scan", sqrt2_file, "--max-candidates", "3",
                            "--budget-dim", "3"])
    assert code == 3
    assert json.loads(out)["truncated"] is True


def test_fp_scan_csv_format(sqrt2_file):
    code, out, _ = run_cli(["fp-scan", sqrt2_file, "--format", "csv",
                            "--budget-dim", "3"])
    assert code == 0
    assert out.splitlines()[0].startswith("set_size,")


def test_resolve_simple(sqrt2_file):
    code, out, _ = run_cli(["resolve", sqrt2_file, "--simple", "1",
                            "--depth", "4"])
    assert code == 0
    payload = json.loads(out)
    mults = payload["resolution"]["multiplicities"]
    assert mults == [{"1": 1}, {"2": 2}, {"1": 2}, {"2": 4}, {"1": 4}]
    assert payload["ext_simple_pairs"]["1->2"][:4] == [0, 2, 0, 4]
    assert payload["complexity"]["estimate"] == math.inf or \
        payload["complexity"]["estimate"] is None or \
        payload["complexity"]["estimate"] > 1e9


def test_resolve_module_file(tmp_path, sqrt2_file):
    m = regular_brick(sqrt2_algebra(), 2)
    f = tmp_path / "mod.json"
    f.write_text(module_to_json(m))
    code, out, _ = run_cli(["resolve", sqrt2_file, "--module", str(f),
                            "--depth", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["resolution"]["multiplicities"] == \
        [{"1": 1}, {"2": 1}, {"1": 1}]


def test_resolve_projective_depth_zero(tmp_path):
    alg = dual_numbers_algebra()
    f = tmp_path / "alg.json"
    f.write_text(algebra_to_json(alg))
    from fproot.repmod import projective
    mf = tmp_path / "p.json"
    mf.write_text(module_to_json(projective(alg, "1")))
    code, out, _ = run_cli(["resolve", str(f), "--module", str(mf),
                            "--depth", "5"])
    payload = json.loads(out)
    assert payload["resolution"]["finite_length"] == 0


def test_resolve_relation_violation_exit_2(tmp_path, sqrt2_file):
    mf = tmp_path / "bad.json"
    mf.write_text(json.dumps({
        "dimvec": {"1": 1, "2": 1},
        "maps": {"a": [["1"]], "b": [["1"]], "c": [["0"]]},
    }))
    code, _, err = run_cli(["resolve", sqrt2_file, "--module", str(mf)])
    assert code == 2
    assert "relation" in err


@pytest.mark.parametrize("doc, message", [
    ({"dimvec": {"1": 2, "2": 1}, "maps": {"a": [["1"], ["1", "2"]]}}, "arrow 'a'"),
    ({"dimvec": {"1": 1, "2": 1}, "maps": {"a": [["1/0"]]}}, "arrow 'a'"),
    ({"dimvec": [1, 1]}, "malformed module file"),
    ({"dimvec": {"1": 1, "2": 1}, "maps": [[["1"]]]}, "malformed module file"),
], ids=["ragged_rows", "zero_denominator", "dimvec_list", "maps_list"])
def test_resolve_malformed_module_exit_2(tmp_path, sqrt2_file, doc, message):
    mf = tmp_path / "bad.json"
    mf.write_text(json.dumps(doc))
    code, out, err = run_cli(["resolve", sqrt2_file, "--module", str(mf)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_tables_subcommand():
    code, out, _ = run_cli(["tables", "p1-serre", "--range", "3"])
    assert code == 0
    # row a=1, column b=0 must be 1
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    col = header.index("0")
    row = [l for l in lines[1:] if l.split(",")[0] == "1"][0]
    assert float(row.split(",")[col]) == 1.0

    code, out, _ = run_cli(["tables", "a2", "--range", "3"])
    row = [l for l in out.strip().splitlines()[1:] if l.split(",")[0] == "1"][0]
    assert float(row.split(",")[col]) == 0.0

    code, out, _ = run_cli(["tables", "polyring", "--genus", "3"])
    assert out.strip().splitlines()[1] == "g=3,1,3,3,1"


def test_out_flag_writes_file(tmp_path, sqrt2_file):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["fp-scan", sqrt2_file, "--budget-dim", "2",
                            "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["assignment"] == "Ext"


def test_scan_candidates_contains_simples_and_projectives():
    cands, truncated = scan_candidates(sqrt2_algebra(), dim_budget=3, seed=0)
    names = {c.name for c in cands}
    assert {"S1", "S2", "P1", "P2"} <= names
    assert not truncated


def test_invariant_violation_exit_code():
    import argparse
    from fproot.cli import EXIT_INVARIANT, InvariantViolation, dispatch

    def boom(args):
        raise InvariantViolation("hook")

    ns = argparse.Namespace(func=boom)
    assert dispatch(ns) == EXIT_INVARIANT


def test_resolve_unknown_simple_exit_2(sqrt2_file):
    code, out, err = run_cli(["resolve", sqrt2_file, "--simple", "9",
                              "--depth", "2"])
    assert code == 2 and out == ""
    assert "unknown vertex '9'" in err


def test_squarefree_division_check_exit_4(tmp_path, monkeypatch, capsys):
    from fproot import spectral
    from fproot.cli import EXIT_INVARIANT

    def leaves_a_remainder(a, b):
        q, r = real_divmod(a, b)
        return q, [Fraction(1)]

    real_divmod = spectral._poly_divmod
    monkeypatch.setattr(spectral, "_poly_divmod", leaves_a_remainder)
    f = tmp_path / "m.json"
    # K4 adjacency: irreducible, characteristic polynomial (x - 3)(x + 1)^3
    f.write_text('[[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]')
    assert run(["spectral", str(f)]) == EXIT_INVARIANT
    assert "squarefree division must be exact" in capsys.readouterr().err
