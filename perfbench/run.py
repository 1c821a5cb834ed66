"""The qflag benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout (no install needed; children get
``PYTHONPATH=src``):

    python3 perfbench/run.py --workload center-A2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, with
                                                      # tracing overhead
    python3 perfbench/run.py --pin                    # re-pin digests (seed 0)

Every workload run is a fresh child process; one child runs at a time.  With
``--trace 0`` the run reports wall_ref, setup_s and peak_rss_mb (and prints
wall_s); with
``--trace 1`` one traced child reports the per-layer metrics and writes its
spans under ``.bench_out/``.  Each check is gated on its ``pass`` flag and on
the digest of its output pinned in ``digests.json``; the last stdout line is
one JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
SPANS_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3     # set-up-only children before and again after the
                      # workload children; machine speed drifts over seconds
CHILD_LIMIT_S = 170   # a run must end within 180 s
ALL_REPEAT = 3        # untraced runs per workload with --workload all
PRINTED_ONLY = ("wall_s",)


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, *, trace: bool = False,
          setup_only: bool = False, spans: Path = None,
          timeout: float = CHILD_LIMIT_S) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} child exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def gate(checks: list, pinned: dict) -> tuple:
    """(attempted, failed ids) over the checks run and the checks pinned.
    A check fails when it reported pass false, is missing (its suite
    raised), is not pinned, or its output digest differs from the pin."""
    seen = {c["id"]: c for c in checks}
    ids = sorted(set(seen) | set(pinned))
    failed = [cid for cid in ids
              if cid not in seen or not seen[cid]["pass"]
              or seen[cid]["digest"] != pinned.get(cid)]
    return len(ids), failed


def load_pins() -> dict:
    """Pinned digests per workload, plus those of the negative control: the
    clean A1 relations suite, part of selftest-A1."""
    with open(DIGESTS, encoding="utf-8") as fh:
        pins = json.load(fh)
    pins["negative-control"] = {k: v for k, v in pins["selftest-A1"].items()
                                if k.startswith("A1/relations/")}
    return pins


def measure(workload: str, seed: int, seconds: float, pins: dict) -> dict:
    """Untraced run: set-up samples, workload children until the next one
    would overrun ``seconds`` (at least one), set-up samples again."""
    deadline = time.monotonic() + CHILD_LIMIT_S

    def setup_samples():
        return [spawn(workload, seed, setup_only=True)["setup_s"]
                for _ in range(SETUP_SAMPLES)]

    setups = setup_samples()
    children = []
    t0 = time.monotonic()
    while True:
        children.append(spawn(workload, seed,
                              timeout=deadline - time.monotonic()))
        elapsed = time.monotonic() - t0
        per_child = elapsed / len(children)
        if elapsed + per_child > seconds or \
                time.monotonic() + 1.5 * per_child > deadline:
            break
    setups += [c["setup_s"] for c in children] + setup_samples()
    return summarize(workload, children, pins, {
        "wall_s": (median([c["wall_s"] for c in children]), "s"),
        "wall_ref": (median([c["wall_s"] / c["ref_s"] for c in children]),
                     "refloop"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([c["peak_rss_mb"] for c in children]), "MB"),
    })


def traced(workload: str, seed: int, pins: dict) -> dict:
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{workload}-seed{seed}.spans.tsv"
    child = spawn(workload, seed, trace=True, spans=spans)
    metrics = {k: tuple(v) for k, v in child["metrics"].items()}
    out = summarize(workload, [child], pins, metrics)
    out["spans_file"] = str(spans.relative_to(ROOT))
    return out


def summarize(workload: str, children: list, pins: dict,
              metrics: dict) -> dict:
    attempted = failed = 0
    failures = set()
    control_caught = True
    for c in children:
        n, bad = gate(c["checks"], pins[workload])
        attempted += n
        failed += len(bad)
        failures.update(bad)
        control_caught &= bool(gate(c["control"], pins["negative-control"])[1])
    return {"workload": workload, "children": len(children),
            "attempted": attempted, "failed": failed,
            "failures": sorted(failures), "control_caught": control_caught,
            "metrics": metrics}


def report(res: dict, seed: int) -> None:
    print(f"workload {res['workload']}  seed {seed}  children "
          f"{res['children']}  random choices: "
          f"{workloads.WORKLOADS[res['workload']][1]}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':34s} {frac:>14.6g} ratio "
          f"({res['failed']}/{res['attempted']} checks)")
    for cid in res["failures"]:
        print(f"    failed: {cid}")
    print("  negative control (A1 relations, corrupt=True): "
          + ("caught" if res["control_caught"] else "NOT CAUGHT"))


def result_line(res: dict) -> dict:
    """The result object printed as the last line.  Raw wall_s is printed
    but left out of it: its spread over runs on a shared machine exceeds any
    usable bound, and wall_ref carries the same time in reference loops."""
    return {"correct": res["failed"] == 0 and res["control_caught"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in res["metrics"].items()
                        if k not in PRINTED_ONLY}}


def run_all(seed: int, seconds: float, pins: dict) -> int:
    """Every public workload: ALL_REPEAT untraced runs and one traced run,
    then the medians and the tracing overhead (traced wall_s minus the
    median untraced wall_s)."""
    ok = True
    summary = {}
    for w in workloads.PUBLIC:
        runs = []
        for k in range(ALL_REPEAT):
            runs.append(measure(w, seed + k, seconds, pins))
            report(runs[-1], seed + k)
        tr = traced(w, seed, pins)
        ok &= all(result_line(r)["correct"] for r in runs + [tr])
        summary[w] = {name: {"value": median(r["metrics"][name][0]
                                             for r in runs), "unit": unit}
                      for name, (_v, unit) in runs[0]["metrics"].items()}
        traced_wall = tr["metrics"]["trace.wall_s"][0]
        overhead = traced_wall - summary[w]["wall_s"]["value"]
        summary[w]["tracing_overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{w}: medians over {ALL_REPEAT} runs: " + ", ".join(
            f"{n} {m['value']:.4g} {m['unit']}"
            for n, m in summary[w].items()))
        print(f"{w}: traced wall_s {traced_wall:.3f} s, "
              f"{tr['metrics']['trace.spans'][0]} spans in {tr['spans_file']}")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def pin() -> int:
    pins = {}
    for w in list(workloads.PUBLIC) + ["selftest-A1"]:
        child = spawn(w, 0)
        bad = [c["id"] for c in child["checks"] if not c["pass"]]
        if bad:
            print(f"refusing to pin {w}: failing checks {bad}",
                  file=sys.stderr)
            return 1
        pins[w] = {c["id"]: c["digest"] for c in child["checks"]}
        print(f"pinned {len(pins[w])} checks of {w}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="re-pin the output digests at seed 0")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qflag" / "__init__.py").is_file():
        print("no qflag sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.pin:
            return pin()
        pins = load_pins()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, pins)
        if args.trace:
            res = traced(args.workload, args.seed, pins)
        else:
            res = measure(args.workload, args.seed, args.seconds, pins)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(res, args.seed)
    line = result_line(res)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
