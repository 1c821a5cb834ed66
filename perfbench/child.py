"""One workload run in a fresh process; started by run.py, not by hand.

The parent passes ``--spawned-at`` (its ``time.monotonic()`` just before the
spawn; the clock is system-wide) so that set-up time covers interpreter
start, ``import qflag`` and the construction of the Cartan data and algebra
objects.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext

import workloads


def _suite_spans() -> list:
    """Every per-suite span any public workload can record, so that each
    traced run reports the same metric names."""
    names = {f"suites.{t}.{s}" for w in workloads.PUBLIC
             for t, s in workloads.suite_plan(w, 0)}
    return sorted(names)


REF_PERIOD_S = 0.25
# sparse Laurent-polynomial-like dicts for the reference loop: the shape of
# the work in qflag's scalar layer, in code that shares nothing with it
_REF_POLYS = [{e: (e * 31 + k) % 97 + 1 for e in range(k % 9 + 1)}
              for k in range(700)]


def reference_loop() -> float:
    """Seconds taken by a fixed ~3 ms loop multiplying the dicts above.
    Of the loops tried, its time tracked qflag's own speed drift best."""
    t0 = time.perf_counter()
    for a, b in zip(_REF_POLYS, _REF_POLYS[1:]):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return time.perf_counter() - t0


class SpeedProbe:
    """Times ``reference_loop`` every REF_PERIOD_S seconds while the workload
    runs (a SIGALRM handler in the same process, no thread), so that the
    run's wall time can also be given in reference loops.  The shared
    machine's speed drifts by tens of percent over seconds to minutes, and
    the workload and the loop slow down together."""

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def _tick(self, _signum, _frame):
        self.samples.append(reference_loop())

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(reference_loop())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    ctx = workloads.setup(args.workload)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    span = lambda _name: nullcontext()  # noqa: E731
    if args.trace:
        from spans import Tracer
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
        span = tracer.span
    probe = SpeedProbe() if tracer is None else nullcontext()
    t0 = time.perf_counter()
    try:
        with probe, span(f"workload.{args.workload}"):
            checks = workloads.run(args.workload, args.seed, ctx, span)
    except Exception as exc:  # a raising workload is a failed check
        checks = [workloads.raised(f"{args.workload}: raised", exc)]
    wall_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"setup_s": setup_s, "wall_s": wall_s,
           "peak_rss_mb": peak_kib / 1024, "checks": checks}
    if tracer is None:
        out["wall_s"] = wall_s - sum(probe.samples)
        out["ref_s"] = statistics.median(probe.samples)
    if tracer is not None:
        tracer.uninstall()
        from spans import layer_metrics
        metrics = layer_metrics(tracer, _suite_spans())
        metrics["trace.wall_s"] = (wall_s, "s")
        metrics["trace.spans"] = (len(tracer.name), "count")
        out["metrics"] = metrics
        if args.workload == "center-A2" and \
                metrics["center.solves_computed"][0] != 1:
            checks.append({"id": "center-A2: second suite hits the solve memo",
                           "pass": False, "digest": ""})
        if args.spans:
            tracer.write(args.spans)
    out["control"] = workloads.negative_control()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
