import contextlib
import io
import json
from fractions import Fraction
import math
import pathlib
import subprocess
import sys

import pytest

from fproot.algebra import (algebra_from_json, algebra_to_json, build_algebra,
                            dual_numbers_algebra, local_two_loop_algebra,
                            sqrt2_algebra)
from fproot.cli import run, scan_candidates
from fproot.quiver import Quiver, cycle_quiver, kronecker_quiver, quiver_to_json
from fproot.repmod import direct_sum, module_to_json, regular_brick, simple

DATA = pathlib.Path(__file__).parent / "data"


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


def test_fp_scan_truncated_when_the_cap_refuses_a_simple():
    """With no dimension budget the scan only pushes simples and projectives;
    a cap that refuses S2 and P1 must still set the truncated flag."""
    kronecker = pathlib.Path(__file__).parent / "data" / "kronecker_algebra.json"
    code, out, _ = run_cli(["fp-scan", str(kronecker),
                            "--budget-dim", "0", "--max-candidates", "1"])
    assert code == 3
    payload = json.loads(out)
    assert payload["truncated"] is True and payload["candidates"] == ["S1"]


def test_fp_scan_not_truncated_when_the_refused_brick_is_a_candidate():
    """P2 of the Kronecker algebra is S2: with S1, S2 and P1 listed, a cap
    of 3 refuses nothing new, so the scan is complete and exits 0."""
    kronecker = pathlib.Path(__file__).parent / "data" / "kronecker_algebra.json"
    code, out, _ = run_cli(["fp-scan", str(kronecker),
                            "--budget-dim", "0", "--max-candidates", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is False
    assert payload["candidates"] == ["S1", "S2", "P1"]


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


def test_input_errors_share_one_base_and_one_json_reader(capsys):
    """Each layer's input error is an InputError, the one class dispatch
    maps to exit 2, and load_json raises the class it is given with the
    decoder's message."""
    import argparse
    from fproot.algebra import AlgebraError
    from fproot.cli import EXIT_PARSE, dispatch
    from fproot.exactlin import InputError, load_json
    from fproot.quiver import QuiverError
    from fproot.repmod import RepresentationError
    from fproot.spectral import SpectralError

    try:
        json.loads("[1,")
    except json.JSONDecodeError as e:
        want = f"invalid JSON: {e}"
    for cls in (SpectralError, QuiverError, AlgebraError, RepresentationError):
        assert issubclass(cls, InputError)
        with pytest.raises(cls) as info:
            load_json("[1,", cls)
        assert str(info.value) == want

    def bad_input(args):
        raise InputError("hook")

    assert dispatch(argparse.Namespace(func=bad_input)) == EXIT_PARSE
    assert capsys.readouterr().err == "error: hook\n"


@pytest.mark.parametrize("which", [[], ["--module", "m.json", "--simple", "1"]],
                         ids=["neither", "both"])
def test_resolve_needs_exactly_one_of_module_and_simple(tmp_path, sqrt2_file, which):
    """argparse rejects resolve without --module or --simple, or with both:
    exit 2, a named error, empty stdout and no traceback."""
    mf = tmp_path / "m.json"
    mf.write_text(module_to_json(regular_brick(sqrt2_algebra(), 0)))
    argv = [str(mf) if a == "m.json" else a for a in which]
    code, out, err = run_cli(["resolve", sqrt2_file, "--depth", "2"] + argv)
    assert code == 2 and out == ""
    assert "--module" in err and "--simple" in err and "Traceback" not in err


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


LOOP_ALGEBRA = ('{"vertices": ["1"], "arrows": [{"label": "x", "from": "1", "to": "1"}], '
                '"relations": %s}')


@pytest.mark.parametrize("relations, message", [
    ('[[{"coeff": "1/0", "path": ["x", "x"]}]]', "malformed relation"),
    ('[[{"coeff": 1e400, "path": ["x", "x"]}]]', "malformed relation"),
    ('7', "malformed relations 7"),
], ids=["zero_denominator", "float_overflow", "relations_not_a_list"])
def test_fp_scan_malformed_relations_exit_2(tmp_path, relations, message):
    f = tmp_path / "alg.json"
    f.write_text(LOOP_ALGEBRA % relations)
    code, out, err = run_cli(["fp-scan", str(f), "--budget-dim", "2"])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_quiver_vertices_not_a_list_exit_2(tmp_path):
    f = tmp_path / "q.json"
    f.write_text('{"vertices": 5}')
    code, out, err = run_cli(["quiver", str(f), "classify"])
    assert code == 2 and out == ""
    assert "malformed quiver file" in err and "Traceback" not in err


def test_resolve_module_with_a_map_into_zero(tmp_path):
    """Kronecker S1 has 0 x 1 arrow maps, written as [] (no rows)."""
    from fproot.algebra import kronecker_algebra
    from fproot.repmod import simple
    alg = kronecker_algebra()
    af, mf = tmp_path / "alg.json", tmp_path / "s1.json"
    af.write_text(algebra_to_json(alg))
    mf.write_text(module_to_json(simple(alg, "1")))
    code, out, err = run_cli(["resolve", str(af), "--module", str(mf), "--depth", "2"])
    assert code == 0, err
    assert json.loads(out)["ext_module_to_simples"] == {"1": [1, 0, 0], "2": [0, 2, 0]}


# a directory where a file is read or written, and a file that is not UTF-8
UNREADABLE = {
    "spectral_directory": ["spectral", "DIR"],
    "module_directory": ["resolve", "ALG", "--module", "DIR"],
    "non_utf8_matrix": ["spectral", "LATIN1"],
    "out_directory": ["fp-scan", "ALG", "--budget-dim", "2", "--out", "DIR"],
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_or_unwritable_file_exit_2(tmp_path, sqrt2_file, case):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'[["1/2", "\xff"]]')
    paths = {"DIR": str(tmp_path), "ALG": sqrt2_file, "LATIN1": str(latin1)}
    code, out, err = run_cli([paths.get(a, a) for a in UNREADABLE[case]])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# each count option with the arguments its subcommand needs around it
COUNT_OPTIONS = {
    "--budget-dim": ["fp-scan", "ALG"],
    "--budget-set-size": ["fp-scan", "ALG"],
    "--budget-power": ["fp-scan", "ALG"],
    "--max-candidates": ["fp-scan", "ALG"],
    "--depth": ["resolve", "ALG", "--simple", "1"],
    "--range": ["tables", "a2"],
    "--genus": ["tables", "polyring"],
}


@pytest.mark.parametrize("option", list(COUNT_OPTIONS))
def test_negative_count_exit_2(sqrt2_file, option):
    argv = [sqrt2_file if a == "ALG" else a for a in COUNT_OPTIONS[option]]
    code, out, err = run_cli(argv + [option, "-1"])
    assert code == 2 and out == ""
    assert f"argument {option}: must be >= 0" in err


def test_spectral_radius_beyond_the_double_range_exit_2(tmp_path):
    f = tmp_path / "m.json"
    f.write_text(json.dumps([[0, 10 ** 400], [10 ** 400, 0]]))
    code, out, err = run_cli(["spectral", str(f)])
    assert code == 2 and out == ""
    assert "double range" in err and "Traceback" not in err


def test_spectral_1x1_int_beyond_the_double_range_exit_2(tmp_path):
    # the entry stays an int up to the float conversion of the 1x1 radius
    f = tmp_path / "m.json"
    f.write_text(json.dumps([[10 ** 400]]))
    code, out, err = run_cli(["spectral", str(f)])
    assert code == 2 and out == ""
    assert "out of the double range" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"dimvec": {"1": 1e400}}', "vertex '1'"),
    ('{"dimvec": {"1": 1.5}}', "vertex '1'"),
    ('{"dimvec": {"1": true}}', "vertex '1'"),
    ('{"dimvec": {"9": 1}, "maps": {"zz": [[1]]}}', "unknown vertex '9'"),
    ('{"dimvec": {"1": 1}, "maps": {"zz": [[1]]}}', "unknown arrow 'zz'"),
], ids=["dimension_1e400", "dimension_1.5", "dimension_true", "unknown_vertex",
        "unknown_arrow"])
def test_resolve_strict_module_file_exit_2(tmp_path, sqrt2_file, text, message):
    mf = tmp_path / "bad.json"
    mf.write_text(text)
    code, out, err = run_cli(["resolve", sqrt2_file, "--module", str(mf)])
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def _kronecker_file(tmp_path):
    from fproot.algebra import kronecker_algebra
    p = tmp_path / "kronecker.json"
    p.write_text(algebra_to_json(kronecker_algebra()))
    return str(p)


@pytest.mark.parametrize("fmt", ["matrix", "algebra", "module"])
def test_boolean_entries_exit_2(tmp_path, fmt):
    """JSON true and false are not numbers in any file format."""
    f = tmp_path / "input.json"
    if fmt == "matrix":
        f.write_text("[[true, 0], [0, false]]")
        argv, message = ["spectral", str(f)], "bad matrix entry at row 0, column 0"
    elif fmt == "algebra":
        f.write_text(LOOP_ALGEBRA % '[[{"coeff": true, "path": ["x", "x"]}]]')
        argv, message = ["fp-scan", str(f), "--budget-dim", "1"], "malformed relation"
    else:
        f.write_text('{"dimvec": {"1": 1, "2": 1}, "maps": {"b": [[true]]}}')
        argv = ["resolve", _kronecker_file(tmp_path), "--module", str(f), "--depth", "1"]
        message = "malformed map for arrow 'b'"
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_dimension_vectors_match_a_product_reference():
    from itertools import product
    from fproot.repmod import _dimension_vectors
    for n in range(1, 5):
        vertices = [str(v) for v in range(n)]
        for budget in range(4):
            dvs = _dimension_vectors(vertices, budget)
            assert all(all(dv.values()) for dv in dvs)  # supports: no zero counts
            got = [tuple(dv.get(v, 0) for v in vertices) for dv in dvs]
            want = {d for d in product(range(budget + 1), repeat=n)
                    if 1 <= sum(d) <= budget}
            assert len(got) == len(want) and set(got) == want


def test_dimension_vectors_of_many_vertices():
    from fproot.repmod import _dimension_vectors
    vertices = [f"v{i}" for i in range(2000)]
    seen = []
    for dv in _dimension_vectors(vertices, 1):  # each a support of one vertex
        assert len(dv) == 1 and sum(dv.values()) == 1
        seen += dv
    assert len(seen) == 2000 and set(seen) == set(vertices)


def test_resolve_module_dimension_beyond_the_size_cap_exit_2(tmp_path, sqrt2_file):
    mf = tmp_path / "huge.json"
    mf.write_text(json.dumps({"dimvec": {"1": 10 ** 400}}))
    code, out, err = run_cli(["resolve", sqrt2_file, "--module", str(mf)])
    assert code == 2 and out == ""
    assert "exceeds the size cap" in err and "Traceback" not in err


# a JSON string or object where a format needs an array (or a string where it
# needs a name) would be read as its characters or keys
NOT_AN_ARRAY = {
    "quiver_vertices_string": (
        "quiver", '{"vertices": "12", "arrows": []}',
        "malformed quiver file: vertices is not a JSON array"),
    "quiver_vertices_object": (
        "quiver", '{"vertices": {"1": 0, "2": 0}}',
        "malformed quiver file: vertices is not a JSON array"),
    "algebra_vertices_string": (
        "algebra", '{"vertices": "12", "arrows": []}',
        "malformed algebra file: vertices is not a JSON array"),
    "algebra_vertices_object": (
        "algebra", '{"vertices": {"1": 0, "2": 0}}',
        "malformed algebra file: vertices is not a JSON array"),
    "relation_path_string": (
        "algebra", LOOP_ALGEBRA % '[[{"coeff": 1, "path": "xx"}]]',
        "path is not a JSON array"),
    "module_map_string": (
        "module", '{"dimvec": {"1": 1, "2": 2}, "maps": {"b": "12"}}',
        "malformed map for arrow 'b': map is not a JSON array"),
    "module_row_string": (
        "module", '{"dimvec": {"1": 2, "2": 1}, "maps": {"b": ["12"]}}',
        "malformed map for arrow 'b': row is not a JSON array"),
    "module_name_number": (
        "module", '{"dimvec": {"1": 1, "2": 1}, "name": 5}',
        "malformed module file: name is not a JSON string"),
}


@pytest.mark.parametrize("case", list(NOT_AN_ARRAY))
def test_string_or_object_where_an_array_is_needed_exit_2(tmp_path, case):
    fmt, text, message = NOT_AN_ARRAY[case]
    f = tmp_path / "input.json"
    f.write_text(text)
    if fmt == "quiver":
        argv = ["quiver", str(f), "cycles"]
    elif fmt == "algebra":
        argv = ["fp-scan", str(f), "--budget-dim", "1"]
    else:
        argv = ["resolve", _kronecker_file(tmp_path), "--module", str(f), "--depth", "1"]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_resolve_on_an_algebra_without_vertices(tmp_path):
    af, mf = tmp_path / "alg.json", tmp_path / "zero.json"
    af.write_text('{"vertices": []}')
    mf.write_text('{"dimvec": {}}')
    code, out, err = run_cli(["resolve", str(af), "--module", str(mf)])
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["ext_simple_pairs"] == {}
    assert payload["complexity"]["agc_holds"] is True


def test_quiver_cycles_beyond_the_enumeration_cap(tmp_path):
    """A 30-cycle with one chord: every vertex sees two cycles."""
    q = cycle_quiver(30)
    f = tmp_path / "q.json"
    doc = json.loads(quiver_to_json(q))
    doc["arrows"].append({"label": "chord", "from": "1", "to": "15"})
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(["quiver", str(f), "cycles"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["theta"] == 2 and set(payload["per_vertex"].values()) == {2}


def test_resolve_sqrt2_at_depth_2200_is_strict_json(sqrt2_file):
    """Ext counts past the double range: logs are taken of the exact ints."""
    code, out, err = run_cli(["resolve", sqrt2_file, "--simple", "1",
                              "--depth", "2200"])
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["ext_simple_pairs"]["1->2"][2199] == 2 ** 1100
    assert payload["complexity"]["estimate"] is None      # +inf
    assert 1.414 < payload["complexity"]["curvature"] < 1.42


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-string limit")
def test_resolve_past_the_int_string_limit_exit_2(tmp_path, sqrt2_file):
    """An Ext count longer than Python's int-to-string limit (here lowered
    to its minimum, 640 digits) is refused: over the sqrt2 algebra the
    simples' table reaches it near depth 4250.  Over kQ/J^2 with 10 loops
    only the module's rows do: Ext^639(S1^10, S1) = 10^640, while the
    simples' table peaks at 10^639, which --simple still prints."""
    loops = [(f"x{i}", "1", "1") for i in range(10)]
    alg = build_algebra(Quiver(["1"], loops),
                        [[(1, (b, a))] for a, _, _ in loops for b, _, _ in loops])
    alg_file, mod_file = tmp_path / "loops.json", tmp_path / "s1x10.json"
    alg_file.write_text(algebra_to_json(alg))
    mod_file.write_text(module_to_json(direct_sum([simple(alg, "1")] * 10)))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv in ([sqrt2_file, "--simple", "1", "--depth", "4400"],
                     [str(alg_file), "--module", str(mod_file), "--depth", "639"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["resolve", *argv])
            assert code == 2 and out.getvalue() == ""
            assert "more than 640 digits" in err.getvalue()
        code, out = _run_captured(["resolve", str(alg_file), "--simple", "1", "--depth", "639"])
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 0
    assert json.loads(out)["ext_simple_pairs"]["1->1"][639] == 10 ** 639


def _run_captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def test_in_process_runs_leak_no_options(tmp_path, sqrt2_file):
    """One parser serves every in-process run: options given to one call
    must not reach the next."""
    from fproot.cli import build_parser
    mod = tmp_path / "mod.json"
    mod.write_text(module_to_json(regular_brick(sqrt2_algebra(), 2)))
    pairs = [
        (["resolve", sqrt2_file, "--module", str(mod), "--depth", "3"],
         ["resolve", sqrt2_file, "--simple", "1"]),
        (["fp-scan", sqrt2_file, "--budget-dim", "2", "--seed", "5",
          "--max-candidates", "3", "--budget-power", "1", "--format", "csv"],
         ["fp-scan", sqrt2_file, "--budget-dim", "2"]),
    ]
    for first, second in pairs:
        alone = _run_captured(second)
        _run_captured(first)
        assert _run_captured(second) == alone
        assert vars(build_parser().parse_args(second)) == \
            vars(build_parser.__wrapped__().parse_args(second))


def test_in_process_run_calls_the_current_subcommand(monkeypatch, sqrt2_file):
    """A subcommand wrapped after the parser was built is the one called."""
    import fproot.cli as cli
    assert _run_captured(["resolve", sqrt2_file, "--simple", "2"])[0] == 0
    monkeypatch.setattr(cli, "cmd_resolve", lambda args: 7)
    assert run(["resolve", sqrt2_file, "--simple", "2"]) == 7


RESOLVE_ALGEBRAS = {
    **{p.name: p.read_text() for p in sorted(DATA.glob("*_algebra.json"))},
    "dual_numbers": algebra_to_json(dual_numbers_algebra()),
    "two_loop_3_2": algebra_to_json(local_two_loop_algebra(3, 2)),
}


@pytest.mark.parametrize("name", sorted(RESOLVE_ALGEBRAS))
def test_resolve_module_of_a_simple_matches_resolve_simple(tmp_path, name):
    """resolve --module S_v resolves linearly and resolve --simple v counts
    Anick chains on a monomial algebra; both read Ext into the simples off
    the multiplicities, so they print the same payload at every depth."""
    text = RESOLVE_ALGEBRAS[name]
    alg_file, mod_file = tmp_path / "alg.json", tmp_path / "mod.json"
    alg_file.write_text(text)
    alg = algebra_from_json(text)
    for v in alg.quiver.vertices:
        mod_file.write_text(module_to_json(simple(alg, v)))
        for depth in map(str, range(7)):
            by_module = _run_captured(["resolve", str(alg_file), "--module",
                                       str(mod_file), "--depth", depth])
            by_simple = _run_captured(["resolve", str(alg_file), "--simple", v,
                                       "--depth", depth])
            assert by_module == by_simple, (name, v, depth)


def _full_parser_run(argv=None):
    """run as it was before the one-pass parse: every argv through a freshly
    built full parser, cmd_* looked up per call."""
    import fproot.cli as cli
    args = cli.build_parser.__wrapped__().parse_args(argv)
    args.func = getattr(cli, "cmd_" + args.command.replace("-", "_"))
    return cli.dispatch(args)


PARSE_CORPUS = [
    [], ["--version"], ["-h"], ["--help"], ["resolve", "-h"], ["fp-scan", "--help"],
    ["bogus"], ["bogus", "a.json"], ["resol", "a.json", "--simple", "1"],
    ["resolve", "a.json", "--simple", "1", "--bogus"],
    ["resolve", "a.json", "--simple", "1", "--version"],
    ["resolve", "a.json", "extra", "--simple", "1"],
    ["resolve", "a.json", "--simple", "1", "--depth", "x"],
    ["resolve", "a.json", "--simple", "1", "--depth", "-1"],
    ["resolve", "a.json", "--module", "m.json", "--simple", "1"],
    ["resolve", "a.json"], ["resolve"],
    ["resolve", "a.json", "--simple", "1", "--dep", "3"],
    ["resolve", "a.json", "--simple=1", "--depth=0"],
    ["resolve", "a.json", "--module", "m.json", "--depth", "5"],
    ["--", "resolve", "a.json", "--simple", "1"],
    ["resolve", "--", "a.json", "--simple", "1"],
    ["resolve", "--simple", "1", "--", "a.json"],
    ["spectral", "m.json"], ["spectral", "m.json", "--out", "o.json"],
    ["quiver", "q.json", "cycles"], ["quiver", "q.json", "fpdim", "--out", "o.json"],
    ["quiver", "q.json", "nope"],
    ["fp-scan", "a.json", "--out", "o.json"],
    ["fp-scan", "a.json", "--budget-dim", "2", "--seed", "-3", "--format", "csv"],
    ["fp-scan", "a.json", "--format", "xml"],
    ["resolve", "a.json", "--simple", "1", "--out", "o.json"],
    ["tables", "a2", "--out", "o.csv"], ["tables", "a2", "--range", "2", "--genus", "4"],
    ["tables", "p1-twist", "--out"],
]


def _parse_outcome(run_fn, argv, monkeypatch):
    """(exit code, stdout, stderr, namespace items) of run_fn(argv), with every
    cmd_* replaced by one that records its namespace and returns 0."""
    import fproot.cli as cli
    seen = []
    for name in ["spectral", "quiver", "fp_scan", "resolve", "tables"]:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(
            [(k, v) for k, v in vars(args).items() if k != "func"]) or 0)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_fn(list(argv))
        except SystemExit as e:
            code = ("exit", e.code)
    return code, out.getvalue(), err.getvalue(), seen


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_one_pass_parse_matches_the_full_parser(argv, monkeypatch):
    """run parses through the sub-parser argv[0] names and falls back to the
    full parser on an unknown name or left-over arguments: exit code, stdout,
    stderr and the namespace handed to cmd_* are the full parser's."""
    want = _parse_outcome(_full_parser_run, argv, monkeypatch)
    assert _parse_outcome(run, argv, monkeypatch) == want
