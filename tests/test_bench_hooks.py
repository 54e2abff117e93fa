"""The benchmark tracer (bench/spans.py) patches fproot functions by name.
Every name it lists must resolve on the package, or `bench/run.py --trace 1`
breaks; this fails first when a refactor removes or renames one of them."""

import importlib
import inspect
import pathlib

from fproot.algebra import BoundAlgebra
from fproot.repmod import Representation

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrapped():
    # executed from its source text, so no bytecode is written under bench/
    ns = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), ns)
    return ns["WRAPPED"]


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for modname, attr, *_ in wrapped:
        obj = importlib.import_module(f"fproot.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"fproot.{modname}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"fproot.{modname}.{attr} is not callable"


def test_the_tracers_other_two_contracts_hold():
    """Besides WRAPPED, the tracer calls Representation.__init__ positionally
    as (self, algebra, dimvec, maps, name, check) and counts calls of
    BoundAlgebra.left_multiply."""
    params = inspect.signature(Representation.__init__).parameters
    assert list(params) == ["self", "algebra", "dimvec", "maps", "name", "check"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert callable(getattr(BoundAlgebra, "left_multiply", None))


def test_the_scan_has_one_name_in_both_namespaces():
    """The tracer patches a function in every namespace that binds it, so the
    one cli.scan_candidates span also covers cmd_fp_scan's call only while
    cli binds the very function repmod defines."""
    import fproot.cli
    import fproot.repmod
    assert fproot.cli.scan_candidates is fproot.repmod.scan_candidates
