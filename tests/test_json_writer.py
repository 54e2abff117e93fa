"""The CLI writes its JSON by its own writer, cli._json; it must give what
json.dumps(indent=2, sort_keys=True) gives on the strict payload
(json_reference), byte for byte."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot import cli

from json_reference import reference_json

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
    assert cli._json(x) == reference_json(x)


keys = st.text(alphabet=st.sampled_from("ab\"\\\n\t\u00e9\u00a0\u2028\U0001f600"), max_size=4)
leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
          | st.floats() | st.sampled_from(FLOATS) | st.text(max_size=6) | keys)
payloads = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                        | st.lists(inner, max_size=3).map(tuple)
                        | st.dictionaries(keys, inner, max_size=4), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_writer_matches_json_dumps(x):
    assert cli._json(x) == reference_json(x)


@pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}, frozenset(), b"x", object(),
                                 complex(1, 2)])
def test_a_value_json_cannot_hold_raises_type_error(bad):
    for payload in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            reference_json(payload)
        with pytest.raises(TypeError):
            cli._json(payload)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_a_key_that_is_not_a_str_raises_type_error(key):
    # every payload key is a str; json.dumps would turn 1 into "1"
    with pytest.raises(TypeError):
        cli._json({key: 0})


def test_emit_writes_the_payload_and_a_newline(tmp_path, capsys):
    payload = {"z": [1.5, math.inf], "a": {"\u00e9": None}}
    cli._emit(payload, str(tmp_path / "out.json"))
    cli._emit(payload, None)
    assert (tmp_path / "out.json").read_text() == reference_json(payload) + "\n"
    assert capsys.readouterr().out == reference_json(payload) + "\n"
    cli._emit("a,b\n", None)
    assert capsys.readouterr().out == "a,b\n"
