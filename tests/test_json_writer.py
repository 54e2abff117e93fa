"""fproot writes all its JSON, the CLI's reports and the quiver, algebra and
module files, by one writer, exactlin.dump_json; it must give what
json.dumps(indent=2, sort_keys=True) gives on the strict payload
(json_reference), byte for byte.  The quiver and algebra files share one
vertices/arrows block, read and written the same way by both."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot import cli
from fproot.algebra import (AlgebraError, algebra_from_json, algebra_to_json,
                            dual_numbers_algebra, kronecker_algebra,
                            local_two_loop_algebra, sqrt2_algebra)
from fproot.exactlin import dump_json
from fproot.quiver import Quiver, QuiverError, quiver_from_json, quiver_to_json
from fproot.repmod import (minimal_resolution, module_from_json, module_to_json,
                           projective, simples)

from json_reference import reference_json
from test_algebra import rational_algebras
from test_hom_rank import ALGEBRAS, modules

DATA = Path(__file__).parent / "data"

ESCAPES = ['"', "\\", "\n", "\t", "\x00", "\x7f", "\u00e9", "\u00a0", "\u2028", "\U0001f600", "/"]
FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e300, -1e300, 0.1, 1.5, 2.0 ** 53, 1e-7,
          math.inf, -math.inf, math.nan]
CASES = [
    {}, [], (), "", 0, None, True, False,
    {"a": {}, "b": [], "c": ()}, [[], {}, [[]]], {"": {"": [{}]}},
    {s: s for s in ESCAPES}, [f"x{s}y" for s in ESCAPES],
    [2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1, 10 ** 40, -1],
    [True, False, None, {"t": True, "f": False, "n": None}],
    FLOATS, {f"k{i}": x for i, x in enumerate(FLOATS)},
    {"b": 1, "a": 2, "B": 3, "aa": 4, "\u00e9": 5, "": 6},
    ({"x": (1, [2, (3,)])},),
]


@pytest.mark.parametrize("x", CASES, ids=range(len(CASES)))
def test_writer_matches_json_dumps_on_cases(x):
    assert dump_json(x) == reference_json(x)


keys = st.text(alphabet=st.sampled_from("ab\"\\\n\t\u00e9\u00a0\u2028\U0001f600"), max_size=4)
leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
          | st.floats() | st.sampled_from(FLOATS) | st.text(max_size=6) | keys)
payloads = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.lists(inner, max_size=3).map(tuple)
                        | st.dictionaries(keys, inner, max_size=4), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_writer_matches_json_dumps(x):
    assert dump_json(x) == reference_json(x)


@pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}, frozenset(), b"x", object(),
                                 complex(1, 2)])
def test_a_value_json_cannot_hold_raises_type_error(bad):
    for payload in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            reference_json(payload)
        with pytest.raises(TypeError):
            dump_json(payload)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_a_key_that_is_not_a_str_raises_type_error(key):
    # every payload key is a str; json.dumps would turn 1 into "1"
    with pytest.raises(TypeError):
        dump_json({key: 0})


def test_emit_writes_the_payload_and_a_newline(tmp_path, capsys):
    payload = {"z": [1.5, math.inf], "a": {"\u00e9": None}}
    cli._emit(payload, str(tmp_path / "out.json"))
    cli._emit(payload, None)
    assert (tmp_path / "out.json").read_text() == reference_json(payload) + "\n"
    assert capsys.readouterr().out == reference_json(payload) + "\n"
    cli._emit("a,b\n", None)
    assert capsys.readouterr().out == "a,b\n"


# -- the quiver, algebra and module files --------------------------------------
# Each expected document is built here from the object's attributes, and
# json.dumps(indent=2, sort_keys=True) is the format every file writer keeps.

def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def quiver_doc(q):
    return {"vertices": list(q.vertices),
            "arrows": [{"label": a.label, "from": a.source, "to": a.target}
                       for a in q.arrows]}


def algebra_doc(alg):
    return {**quiver_doc(alg.quiver),
            "relations": [[{"coeff": str(c), "path": list(p.arrows)} for c, p in rel]
                          for rel in alg.relations]}


def module_doc(m):
    return {"dimvec": m.dimvec, "name": m.name,
            "maps": {label: [[str(x) for x in row] for row in f.data]
                     for label, f in m.maps.items()}}


def assert_files_match_json_dumps(alg, mods=()):
    assert quiver_to_json(alg.quiver) == dumps(quiver_doc(alg.quiver))
    assert algebra_to_json(alg) == dumps(algebra_doc(alg))
    for m in mods:
        assert module_to_json(m) == dumps(module_doc(m))


def fixture_algebras():
    algs = [sqrt2_algebra(), kronecker_algebra(), dual_numbers_algebra(),
            local_two_loop_algebra(2, 3)]
    return algs + [algebra_from_json(p.read_text()) for p in sorted(DATA.glob("*_algebra.json"))]


@pytest.mark.parametrize("alg", fixture_algebras(), ids=repr)
def test_file_writers_match_json_dumps_on_fixtures(alg):
    # simples, projectives and their syzygies to depth 3
    mods = simples(alg) + [projective(alg, v) for v in alg.quiver.vertices]
    mods += [step.module for m in list(mods) for step in minimal_resolution(m, 3).steps]
    assert_files_match_json_dumps(alg, mods)


def test_module_writer_matches_json_dumps_on_the_data_module():
    alg = algebra_from_json((DATA / "sqrt2_algebra.json").read_text())
    m = module_from_json(alg, (DATA / "sqrt2_regular_brick2.json").read_text())
    assert module_to_json(m) == dumps(module_doc(m))


@settings(max_examples=60, deadline=None)
@given(rational_algebras())
def test_file_writers_match_json_dumps_on_p_q_relations(alg):
    # the projectives carry the relations' p/q normal forms in their maps
    assume(alg is not None)
    assert_files_match_json_dumps(alg, [projective(alg, v) for v in alg.quiver.vertices])
    assert algebra_from_json(algebra_to_json(alg)).relations == alg.relations


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_module_writer_matches_json_dumps_on_p_q_maps(data):
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    m = data.draw(modules(alg))
    assert module_to_json(m) == dumps(module_doc(m))
    assert module_from_json(alg, module_to_json(m)).maps == m.maps


names = st.text(alphabet=st.sampled_from("ab\"\\\n\u00e9\u2028\U0001f600/"), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(names, min_size=1, max_size=4, unique=True), st.data())
def test_quiver_writer_matches_json_dumps_on_escaped_names(vertices, data):
    labels = data.draw(st.lists(names, max_size=4, unique=True))
    q = Quiver(vertices, [(l, data.draw(st.sampled_from(vertices)),
                           data.draw(st.sampled_from(vertices))) for l in labels])
    assert quiver_to_json(q) == dumps(quiver_doc(q))
    back = quiver_from_json(quiver_to_json(q))
    assert (back.vertices, back.arrows) == (q.vertices, q.arrows)


# -- one quiver block, two readers ---------------------------------------------

@pytest.mark.parametrize("block", [
    [], "quiver", None, 5,
    {"vertices": "12"}, {"vertices": {"1": 1}},
    {"vertices": ["1"], "arrows": {"a": 1}}, {"vertices": ["1"], "arrows": "a"},
    {"vertices": ["1"], "arrows": [["a", "1", "1"]]}, {"vertices": ["1"], "arrows": ["a"]},
])
def test_a_malformed_block_reads_the_same_through_both_readers(block):
    # a block that is no JSON object, or whose vertices or arrows are the
    # wrong kind of value, raises one TypeError in both readers; each names
    # it after its own prefix
    with pytest.raises(QuiverError) as q:
        quiver_from_json(json.dumps(block))
    with pytest.raises(AlgebraError) as a:
        algebra_from_json(json.dumps(block))
    prefix = "malformed quiver file: "
    assert str(q.value).startswith(prefix)
    assert str(a.value) == "malformed algebra file: " + str(q.value)[len(prefix):]


@pytest.mark.parametrize("block, key", [
    ({}, "vertices"), ({"arrows": []}, "vertices"),
    ({"vertices": ["1"], "arrows": [{"label": "a", "from": "1"}]}, "to"),
    ({"vertices": ["1"], "arrows": [{"from": "1", "to": "1"}]}, "label"),
])
def test_a_missing_key_is_named_by_both_readers(block, key):
    with pytest.raises(QuiverError, match=f"^malformed quiver file: missing '{key}'$"):
        quiver_from_json(json.dumps(block))
    with pytest.raises(AlgebraError, match=f"^malformed algebra file: '{key}'$"):
        algebra_from_json(json.dumps(block))
