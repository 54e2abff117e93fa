"""Oracle self-check: every perturbed result must be counted as failed.

  python3 bench/selfcheck.py [--seed N]

Run it from the root of a checkout.  For each workload it runs one job per
stratum of the seed's mix in process, checks that the real outputs pass, then
feeds the checker perturbed copies (rho + 1e-6, one multiplicity + 1, one
grid value changed, ...) and checks that each is rejected.  Replacing a
non-finite number by null must still pass.  Exits 1 if any case goes the
wrong way.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
from oracle import Checker  # noqa: E402
from worker import run_job  # noqa: E402


def _bump_rho(p, path, delta):
    sv = p if path is None else p[path]
    if not isinstance(sv["rho"], float) or math.isinf(sv["rho"]):
        return None
    sv["rho"] = sv["rho"] + delta(sv["rho"])
    return p


def _first_nonzero(rows):
    for step in rows:
        for v in sorted(step):
            if step[v]:
                return step, v
    return None, None


def _bump_mult(p):
    step, v = _first_nonzero(p["resolution"]["multiplicities"])
    step[v] += 1
    return p


def _bump_ext_pair(p):
    key = sorted(p["ext_simple_pairs"])[0]
    p["ext_simple_pairs"][key][0] += 1
    return p


def _null_complexity(p):
    est = p["complexity"]["estimate"]
    if not math.isinf(est):
        return None
    p["complexity"]["estimate"] = None
    return p


def _bump_grid(p):
    cell = p["grid"][-1]
    cell["value"] = cell["value"] * (1 + 1e-9) + 1e-9
    return p


def _drop_candidate(p):
    p["candidates"] = p["candidates"][:-1]
    return p


def _flip_certified(p):
    p["grid"][0]["certified"] = not p["grid"][0]["certified"]
    return p


# name -> (applies to check kinds, perturb(payload) -> payload or None, must fail)
PERTURBATIONS = {
    "spectral": [
        ("rho + 1e-6", ("spectral",), lambda p: _bump_rho(p, None, lambda r: 1e-6), True),
        ("certified rho * (1 + 1e-10)", ("spectral",),
         lambda p: _bump_rho(p, None, lambda r: 1e-10 * r + 1e-300)
         if p["certified"] else None, True),
        ("finite rho for an infinite radius", ("spectral",),
         lambda p: (p.update(rho=5.0) or p) if p["rho"] == math.inf else None, True),
        ("fpdim rho + 1e-6", ("quiver_fpdim",),
         lambda p: _bump_rho(p, "fpdim", lambda r: 1e-6), True),
        ("theta + 1", ("quiver_cycles",),
         lambda p: (p.update(theta=(p["theta"] + 1) % 3) or p), True),
        ("rank + 1", ("quiver_classify",),
         lambda p: (p.update(rank=(p["rank"] or 0) + 1) or p), True),
        ("null for +inf rho", ("spectral",),
         lambda p: (p.update(rho=None) or p) if p["rho"] == math.inf else None, False),
    ],
    "resolve": [
        ("one multiplicity + 1", ("reference", "reference+closed_form"), _bump_mult, True),
        ("one Ext dimension + 1", ("reference", "reference+closed_form"), _bump_ext_pair, True),
        ("null for infinite complexity", ("reference", "reference+closed_form"),
         _null_complexity, False),
    ],
    "scan": [
        ("one grid value changed", ("reference",), _bump_grid, True),
        ("one candidate fewer", ("reference",), _drop_candidate, True),
        ("certified flag flipped", ("reference",), _flip_certified, True),
    ],
}


def selfcheck(workload, seed, cli):
    jobs = gen.make_jobs(workload, seed)
    picked = {}
    for job in jobs:
        picked.setdefault(job["stratum"], job)
    picked = list(picked.values())
    argvs = gen.write_inputs(picked, os.path.join(".bench_work", "selfcheck"))
    checker = Checker(workload)
    wrong = 0
    tally = {}
    for job, argv in zip(picked, argvs):
        _, rc, text = run_job(cli, argv)
        why = checker.check(job, rc, text)
        if why:
            print(f"  real output rejected: {job['id']}: {why}")
            wrong += 1
        why = checker.check(job, rc + 1 if isinstance(rc, int) else 1, text)
        tally.setdefault(("exit code changed", True), [0, 0])
        tally[("exit code changed", True)][0] += 1
        tally[("exit code changed", True)][1] += why is not None
        for name, kinds, perturb, must_fail in PERTURBATIONS[workload]:
            if job["check"]["kind"] not in kinds:
                continue
            payload = perturb(copy.deepcopy(json.loads(text)))
            if payload is None:
                continue
            why = checker.check(job, rc, json.dumps(payload))
            counts = tally.setdefault((name, must_fail), [0, 0])
            counts[0] += 1
            counts[1] += why is not None
    for (name, must_fail), (tried, rejected) in tally.items():
        ok = rejected == tried if must_fail else rejected == 0
        wrong += not ok
        want = "rejected" if must_fail else "accepted"
        print(f"  {workload:<8} {name:<36} {tried:3d} tried, "
              f"{rejected if must_fail else tried - rejected:3d} {want}"
              f"{'' if ok else '  <-- WRONG'}")
    return wrong


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    os.chdir(ROOT)
    import fproot.cli as cli
    wrong = sum(selfcheck(w, args.seed, cli) for w in gen.WORKLOADS)
    print("oracle self-check:", "FAILED" if wrong else "ok")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
