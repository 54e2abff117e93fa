"""Fuzz the four input file formats through the CLI.

Generated matrix, quiver, algebra and module files mix valid data with
wrong types, booleans, huge and non-finite numbers, unknown labels and
ragged rows.  Whatever the file, `fproot` must keep its contract: exit 0, 2
or 3, no traceback, and strict JSON on stdout when it exits 0.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fproot.algebra import algebra_to_json, kronecker_algebra
from fproot.cli import run

JUNK = st.one_of(
    st.booleans(), st.none(),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, -1, 1.5, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/0", "1/2", "-3", "inf", "-inf", "x", "", "1e400"]),
    st.just([]), st.just({}), st.just([[1]]), st.just({"a": 1}))


def maybe(strategy):
    """strategy, or (one time in ten) a junk value in its place"""
    return st.integers(0, 9).flatmap(lambda k: JUNK if k == 0 else strategy)


NUMBERS = maybe(st.one_of(st.integers(0, 4), st.sampled_from(["1/2", "3", "0"])))
KEYS = st.sampled_from(["1", "2", "3", "a", "b", "c", "x", "", "true"])
LABELS = maybe(KEYS)

SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

ENTRIES = maybe(st.one_of(st.integers(0, 4),
                          st.sampled_from(["1/2", "3", "inf", "-inf", -1])))
SQUARE = st.integers(0, 4).flatmap(lambda n: st.lists(
    maybe(st.lists(ENTRIES, min_size=n, max_size=n)), min_size=n, max_size=n))
MATRICES = maybe(st.one_of(SQUARE, st.lists(st.lists(ENTRIES, max_size=4), max_size=4)))

ARROWS = st.fixed_dictionaries(
    {}, optional={"label": LABELS, "from": LABELS, "to": LABELS})
QUIVERS = st.fixed_dictionaries(
    {"vertices": maybe(st.lists(LABELS, max_size=3))},
    optional={"arrows": maybe(st.lists(maybe(ARROWS), max_size=4))})

TERMS = st.fixed_dictionaries(
    {}, optional={"coeff": NUMBERS, "path": maybe(st.lists(LABELS, max_size=3))})
ALGEBRAS = st.fixed_dictionaries(
    {"vertices": maybe(st.lists(LABELS, max_size=2))},
    optional={"arrows": maybe(st.lists(maybe(ARROWS), max_size=3)),
              "relations": maybe(st.lists(maybe(st.lists(maybe(TERMS), max_size=2)),
                                          max_size=2))})

MODULES = maybe(st.fixed_dictionaries(
    {"dimvec": maybe(st.dictionaries(KEYS, NUMBERS, max_size=3))},
    optional={"maps": maybe(st.dictionaries(
        KEYS, maybe(st.lists(maybe(st.lists(NUMBERS, max_size=2)), max_size=2)),
        max_size=3)),
        "name": LABELS}))


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def check_cli(argv_of, docs):
    """Write docs (name -> JSON document) to files, run the CLI on
    argv_of(paths) and check the exit code, stderr and stdout.  An exception
    that escapes `run` would be a traceback, and fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv_of(paths))
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and not out.getvalue()
    else:
        json.loads(out.getvalue(), parse_constant=_strict)


@SETTINGS
@given(MATRICES)
def test_matrix_files(doc):
    check_cli(lambda p: ["spectral", p["m.json"]], {"m.json": doc})


@SETTINGS
@given(QUIVERS, st.sampled_from(["fpdim", "cycles", "classify"]))
def test_quiver_files(doc, action):
    check_cli(lambda p: ["quiver", p["q.json"], action], {"q.json": doc})


@SETTINGS
@given(ALGEBRAS)
def test_algebra_files(doc):
    check_cli(lambda p: ["fp-scan", p["a.json"], "--budget-dim", "2",
                         "--max-candidates", "3", "--budget-set-size", "2",
                         "--budget-power", "1"], {"a.json": doc})


KRONECKER = json.loads(algebra_to_json(kronecker_algebra()))


@SETTINGS
@given(MODULES)
def test_module_files(doc):
    check_cli(lambda p: ["resolve", p["a.json"], "--module", p["m.json"],
                         "--depth", "2"], {"a.json": KRONECKER, "m.json": doc})
