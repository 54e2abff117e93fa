"""Runs one workload's jobs in process through `fproot.cli.run(argv)`.

Started by run.py in a fresh interpreter (PYTHONPATH=src), so that its peak
resident memory is the workload's own.  One closed-loop client: each job
starts when the previous one has returned.

  python3 bench/worker.py --jobs JOBS.json --seconds S --trace 0|1 --out OUT.json

JOBS.json holds {"argv": [...], "warmup": [job indices]}.  The warm-up pass
runs those jobs once, untimed.  With --trace 0 the timed part cycles through
the mix, job by job, until the jobs have taken --seconds and at least
--min-samples have run; after a job, whenever 25 ms have passed since the
last one, it runs a calibration unit (calib.py), outside the job times, and
OUT.json gets the unit times too.  With --trace 1 untraced and traced passes
alternate until the untraced ones add up to 3 s, and OUT.json gets the
per-layer metrics per traced pass; the spans go to --spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import calib

TRACE_MIN_S = 3.0   # untraced time the trace overhead ratio is measured over
CALIB_EVERY_S = 0.025


def run_job(cli, argv):
    """(wall seconds, exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as e:          # argparse rejects the arguments
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:                # a traceback is a wrong result
            traceback.print_exc(file=err)
            rc = "traceback"
    return time.perf_counter() - start, rc, out.getvalue()


class Recorder:
    """Per execution (job index, seconds, exit code, output id, midpoint
    time); each job's distinct outputs are stored once.  With calibrate,
    also (midpoint time, seconds) of the calibration units run between jobs,
    outside the job times."""

    def __init__(self, calibrate=False):
        self.records = []
        self.outputs = {}
        self.units = [] if calibrate else None
        self.last_unit = -CALIB_EVERY_S

    def run(self, cli, i, argv):
        start = time.perf_counter()
        dt, rc, text = run_job(cli, argv)
        texts = self.outputs.setdefault(i, [])
        if text not in texts:
            texts.append(text)
        self.records.append((i, dt, rc, texts.index(text), start + dt / 2))
        now = time.perf_counter()
        if self.units is not None and now - self.last_unit >= CALIB_EVERY_S:
            u = calib.unit()
            self.units.append((now + u / 2, u))
            self.last_unit = now + u


def one_pass(cli, jobs, recorder):
    start = time.perf_counter()
    for i, argv in enumerate(jobs):
        recorder.run(cli, i, argv)
    return time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-samples", type=int, default=100)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(args.jobs) as fh:
        spec = json.load(fh)
    jobs = spec["argv"]

    import fproot.cli as cli

    for i in spec["warmup"]:
        run_job(cli, jobs[i])

    result = {}
    if args.trace:
        from spans import Tracer
        tracer, recorder = Tracer(), Recorder()
        untraced_s = traced_s = 0.0
        passes = 0
        # untraced and traced passes alternate, so that a slow spell of the
        # machine tends to hit both sides of the overhead ratio
        while passes == 0 or untraced_s < TRACE_MIN_S:
            untraced_s += one_pass(cli, jobs, Recorder())
            tracer.install()
            try:
                traced_s += one_pass(cli, jobs, recorder)
            finally:
                tracer.uninstall()
            passes += 1
        metrics = tracer.metrics(traced_s, passes)
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        result["trace"] = metrics
        if args.spans:
            tracer.write(args.spans)
        result["passes"] = passes
    else:
        # stopping between jobs, not passes, keeps a run near --seconds
        # however long a pass is
        recorder = Recorder(calibrate=True)
        job_s = 0.0
        while job_s < args.seconds or len(recorder.records) < args.min_samples:
            i = len(recorder.records) % len(jobs)
            recorder.run(cli, i, jobs[i])
            job_s += recorder.records[-1][1]
        result["units"] = recorder.units

    result.update({
        "records": recorder.records,
        "outputs": recorder.outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
