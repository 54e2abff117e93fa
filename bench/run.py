"""The fproot benchmark: seeded CLI jobs, checked by oracles, timed end to
end, or traced per layer.

  python3 bench/run.py --workload scan|resolve|spectral --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it reads the program from `src/` and
writes only under `.bench_work/<workload>/`.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  End-to-end
times are scaled to the reference machine speed of calib.py.  The lines
before it repeat the metrics by name and unit, give the unscaled wall-time
figures, and give the share of each input property in the workload.  See
NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
from oracle import Checker, blocks, is_strict_json, quiver_matrix  # noqa: E402

SETUP_RUNS = 15         # fresh interpreters timed per run for setup_s
MIN_SAMPLES = 100       # leaves >= 10 samples above p90
WORKER_TIMEOUT_S = 150


def unit_of(name):
    if name in ("jobs_per_s", "peak_rss_mb"):
        return {"jobs_per_s": "1/s", "peak_rss_mb": "MB"}[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_setup(env):
    """(scaled, wall) median time to `import fproot.cli` in a fresh
    interpreter (setup_child.py); each import is scaled by the import-like
    calibration the same interpreter runs around it.  One untimed import
    first writes the bytecode caches."""
    scaled, wall = [], []
    for k in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py")],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        if k:
            dt, exec_s = map(float, out.stdout.split())
            scaled.append(dt * calib.REF_EXEC_S / exec_s)
            wall.append(dt)
    return statistics.median(scaled), statistics.median(wall)


def run_worker(workdir, argvs, warmup, args, env):
    jobs_path = os.path.join(workdir, "jobs.json")
    out_path = os.path.join(workdir, "result.json")
    with open(jobs_path, "w") as fh:
        json.dump({"argv": argvs, "warmup": warmup}, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--jobs", jobs_path,
           "--seconds", str(args.seconds), "--min-samples", str(MIN_SAMPLES),
           "--trace", str(args.trace), "--out", out_path,
           "--spans", os.path.join(workdir, "spans.jsonl")]
    subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True)
    with open(out_path) as fh:
        return json.load(fh)


def check_all(workload, jobs, result):
    """(failed executions, nonstrict-JSON executions, first failure reasons)."""
    checker = Checker(workload)
    verdicts, reasons = {}, Counter()
    failed = nonstrict = 0
    for i, _, rc, oid, _ in result["records"]:
        key = (i, rc, oid)
        if key not in verdicts:
            text = result["outputs"][str(i)][oid]
            verdicts[key] = (checker.check(jobs[i], rc, text),
                             not is_strict_json(text) if text.strip() else False)
        why, loose = verdicts[key]
        if why:
            failed += 1
            reasons[f"{jobs[i]['id']}: {why}"] += 1
        nonstrict += loose
    return failed, nonstrict, reasons


def time_metrics(times):
    """jobs_per_s, job_p50_s and job_p90_s of the given job times."""
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
    }


def property_shares(workload, jobs):
    """Lines giving the share of each input property over one pass of the mix."""
    n = len(jobs)
    shares = Counter()
    for job in jobs:
        if workload != "spectral":
            shares[f"family={job['props']['family']}"] += 1 / n
            continue
        shares[f"kind={job['stratum'].split('-')[0].rstrip('0123456789')}"] += 1 / n
        check = job["check"]
        if check["kind"] not in ("spectral", "quiver_fpdim"):
            continue
        rows = check.get("matrix") or quiver_matrix(check["quiver"])[1]
        diag, inf_on_cycle = blocks(rows)
        shares["has_inf_entry"] += any("inf" in map(str, r) for r in rows) / n
        shares["inf_on_cycle"] += inf_on_cycle / n
        shares["certified_path(all blocks n<=6)"] += (
            not inf_on_cycle and max(map(len, diag)) <= 6) / n
    lines = [f"  {k:<34} {v:.3f}" for k, v in sorted(shares.items())]
    if workload == "resolve":
        totals = [job["props"]["total_multiplicity"] for job in jobs]
        lines.append(f"  total multiplicity per job: {totals}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fproot", "cli.py")):
        print(f"error: no fproot sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    jobs = gen.make_jobs(args.workload, args.seed)
    workdir = os.path.join(".bench_work", args.workload)
    os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    argvs = gen.write_inputs(jobs, workdir)
    first_of_stratum = {}
    for i, job in enumerate(jobs):
        first_of_stratum.setdefault(job["stratum"], i)
    warmup = sorted(first_of_stratum.values())

    env = dict(os.environ, PYTHONPATH=SRC)
    setup_s, setup_wall_s = measure_setup(env) if not args.trace else (None, None)
    result = run_worker(workdir, argvs, warmup, args, env)
    failed, nonstrict, reasons = check_all(args.workload, jobs, result)
    attempted = len(result["records"])
    for why, count in reasons.most_common(10):
        print(f"FAILED x{count}: {why}", file=sys.stderr)

    times = [dt for _, dt, _, _, _ in result["records"]]
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} jobs, {attempted / len(jobs):.2f} passes of {len(jobs)}, "
          f"{sum(times):.2f} s in jobs, {failed} failed, "
          f"{nonstrict} with bare Infinity/NaN in stdout")
    if args.trace:
        metrics = dict(result["trace"])
        metrics["cli.nonstrict_json_jobs"] = nonstrict / result["passes"]
    else:
        # every job time scaled to the reference speed by the calibration
        # units around it
        speed = calib.Speed(result["units"])
        scaled = [dt * speed.factor(t) for _, dt, _, _, t in result["records"]]
        metrics = {
            **time_metrics(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "correct_ratio": (attempted - failed) / attempted,
        }
        p90 = metrics["job_p90_s"]
        wall = time_metrics(times)
        units = [u for _, u in result["units"]]
        print(f"  samples {len(times)}, above p90 {sum(t > p90 for t in scaled)}; "
              f"failed_ratio {failed / attempted:.4g} ({failed}/{attempted}); "
              f"setup_s is the median of {SETUP_RUNS} fresh imports")
        print(f"  unscaled wall time: jobs_per_s {wall['jobs_per_s']:.6g}, "
              f"job_p50_s {wall['job_p50_s']:.6g}, job_p90_s {wall['job_p90_s']:.6g}, "
              f"setup_s {setup_wall_s:.6g}; {len(units)} calibration units, "
              f"median {statistics.median(units) * 1e3:.3f} ms "
              f"(reference {calib.REF_UNIT_S * 1e3:g} ms)")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit_of(name)}")
    print("input property shares (one pass of the mix):")
    for line in property_shares(args.workload, jobs):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
