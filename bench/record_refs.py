"""Record the reference outputs of every scan and resolve job any workload
seed can draw (the job universe in gen.py), into refs/<workload>.json.

  python3 bench/record_refs.py [scan] [resolve]

Run it from the root of a checkout.  Only the mathematical fields are kept
(oracle.math_fields).  Resolve jobs that have a closed form are checked
against it before they are recorded.  Re-record only when the job universe
changes, never to make a changed result pass.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
from worker import run_job  # noqa: E402


def record(workload):
    import fproot.cli as cli
    universe = gen.scan_universe() if workload == "scan" else gen.resolve_universe()
    jobs = {job["id"]: job for _, job in universe}
    workdir = os.path.join(".bench_work", "refs")
    ordered = sorted(jobs.values(), key=lambda j: j["id"])
    argvs = gen.write_inputs(ordered, workdir)
    refs = {}
    for job, argv in zip(ordered, argvs):
        dt, rc, text = run_job(cli, argv)
        payload = json.loads(text)
        if job["check"]["kind"] == "reference+closed_form":
            labels = [str(i + 1) for i in range(len(job["check"]["tables"]))]
            why = oracle.check_closed_form(job["check"], payload, labels)
            if why:
                raise SystemExit(f"{job['id']}: {why}")
        refs[job["id"]] = {"rc": rc, "fields": oracle.math_fields(workload, payload)}
        print(f"{job['id']:<40} rc={rc} {dt:7.3f} s", flush=True)
    path = os.path.join(oracle.REF_DIR, f"{workload}.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(refs)} references to {path}")


def main():
    os.chdir(ROOT)
    for workload in sys.argv[1:] or ["scan", "resolve"]:
        record(workload)


if __name__ == "__main__":
    main()
