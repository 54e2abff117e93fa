"""Every job of the benchmark's scan/resolve universe (bench/gen.py), run
through `cli.run` and checked against its recorded reference output in
bench/refs/ by the benchmark's own oracle (bench/oracle.py).  A refactor of
the scan or of the resolutions must keep each exit code and each
mathematical field, not only pass on the few algebras of the other tests.

The two bench modules are executed from their source text, so no bytecode
is written under bench/; the input files go to a temporary directory."""

import contextlib
import io
import json
import pathlib
import types

import pytest

from fproot import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["scan", "resolve"])
def test_the_job_universe_matches_the_recorded_references(workload, tmp_path):
    gen, oracle = _load("gen"), _load("oracle")
    universe = gen.scan_universe() if workload == "scan" else gen.resolve_universe()
    jobs = sorted({job["id"]: job for _, job in universe}.values(), key=lambda j: j["id"])
    refs = oracle.load_refs(workload)
    assert jobs and {job["id"] for job in jobs} == set(refs)
    faults = []
    for job, argv in zip(jobs, gen.write_inputs(jobs, str(tmp_path))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(argv)
        why = oracle.check_reference(workload, refs[job["id"]], rc, json.loads(out.getvalue()))
        if why:
            faults.append(f"{job['id']}: {why}")
    assert not faults, faults[:5]
