"""The benchmark workloads and the canonical outputs of their checks.

Each workload is a list of checks.  A check has an id, the ``pass`` flag the
library reported, and the sha256 digest of its canonical output (sorted-key
JSON).  ``run.py`` compares the digests with those pinned at seed 0 in
``digests.json``.

This module imports qflag only inside functions, so ``run.py`` can load it
in a checkout that has no ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from typing import Callable, Dict, List, Tuple

# suites left out of suite-sweep, with the reason (see README.md)
_SWEEP_SKIP = {
    "A2": {"annihilator", "center"},            # the center-A2 workload
    "B2": {"annihilator", "center", "rmatrix",  # 32 s, empty window, 150 s
           "bimodule", "theta",                 # 39 s, covered by G2 theta
           "ore"},                              # 7 s, run budget; A2 ore stays
}
_SWEEP_G2 = ("theta", "weyl-character")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def check(cid: str, ok: bool, output) -> dict:
    return {"id": cid, "pass": bool(ok), "digest": digest(output)}


def suite_plan(name: str, seed: int) -> List[Tuple[str, str]]:
    """The (type, suite) calls of a workload, in run order."""
    from qflag.suites import SUITES
    if name == "center-A2":
        return [("A2", "annihilator"), ("A2", "center")]
    if name == "suite-sweep":
        plan = [(t, s) for t in ("A2", "B2") for s in sorted(SUITES)
                if s not in _SWEEP_SKIP[t]]
        plan += [("G2", s) for s in _SWEEP_G2]
        random.Random(seed).shuffle(plan)
        return plan
    if name == "selftest-A1":
        return [("A1", s) for s in sorted(SUITES)]
    return []


def suite_checks(typ: str, suite: str, report: dict) -> List[dict]:
    """One check per report entry.  The seed is echoed in the report
    (``config.seed`` and the coord suite's random trials); it is left out of
    the canonical output so that digests pinned at seed 0 hold at any seed."""
    out = []
    seen: Dict[str, int] = {}
    for entry in report["results"]:
        inst = str(entry.get("instance", ""))
        n = seen[inst] = seen.get(inst, 0) + 1
        cid = f"{typ}/{suite}/{inst}" + (f"#{n}" if n > 1 else "")
        body = {k: v for k, v in entry.items() if k != "seed"}
        out.append(check(cid, entry.get("pass") is True, body))
    return out


def raised(cid: str, exc: Exception) -> dict:
    """A check for a call that raised; its traceback goes to stderr."""
    traceback.print_exception(exc, file=sys.stderr)
    return {"id": cid, "pass": False, "digest": "", "error": repr(exc)}


def run_suites(plan, seed: int, span: Callable) -> List[dict]:
    from qflag.config import RunConfig
    from qflag.suites import run_suite
    checks: List[dict] = []
    for typ, suite in plan:
        try:
            with span(f"suites.{typ}.{suite}"):
                report = run_suite(suite, RunConfig(type=typ, seed=seed))
        except Exception as exc:  # a raising suite is a failed check
            checks.append(raised(f"{typ}/{suite}", exc))
            continue
        checks.extend(suite_checks(typ, suite, report))
    return checks


def _root_degrees(rank: int, max_ht: int) -> List[Tuple[int, ...]]:
    from itertools import product
    return sorted((g for g in product(range(max_ht + 1), repeat=rank)
                   if 0 < sum(g) <= max_ht), key=lambda g: (sum(g), g))


def run_hexagon_b2(ctx: dict) -> List[dict]:
    """The B2 rmatrix checks through the public rmatrix API, with the
    hexagon on V(w2) (x) V(w1) (x) V(w2) (dims 4, 5, 4)."""
    from qflag import linalg
    from qflag.rmatrix import hexagon_check, r_operator
    from qflag.weightmod import module_map_commutes, simple
    datum, pairing = ctx["B2"]["datum"], ctx["B2"]["pairing"]
    alg = pairing.algebra
    checks = []
    for beta in _root_degrees(datum.rank, 4):
        mat = pairing.table(beta)
        try:
            linalg.inverse(mat)
            ok = True
        except ArithmeticError:
            ok = False
        checks.append(check(f"nondegenerate {datum.root_str(beta)}", ok,
                            [[x.to_str() for x in row] for row in mat]))
    v1 = simple(alg, datum.fundamental(0))
    v2 = simple(alg, datum.fundamental(1))
    for a, b in [(v1, v1), (v1, v2)]:
        r = r_operator(pairing, a, b, "R")
        rinv = r_operator(pairing, a, b, "R-inverse")
        ident = linalg.identity(a.dim * b.dim, datum.l0)
        checks.append(check(
            f"R Rinv = id on {a.name}x{b.name}",
            linalg.mat_eq(linalg.mat_mul(r.matrix, rinv.matrix), ident),
            [r.describe(), rinv.describe()]))
        rc = r_operator(pairing, a, b, "R-check")
        checks.append(check(
            f"Rcheck intertwines on {a.name}x{b.name}",
            module_map_commutes(rc.source, rc.target, rc.matrix),
            rc.describe()))
    hx = hexagon_check(pairing, v2, v1, v2)
    checks.append(check("hexagon " + hx["instance"], hx["pass"], hx))
    return checks


# workload -> (Cartan types set up before the clock starts, the random
# choices its seed makes)
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "center-A2": (("A2",), "none"),
    "hexagon-B2": (("B2",), "none"),
    "suite-sweep": (("A2", "B2", "G2"), "suite order, coord Schubert pairs"),
    "selftest-A1": (("A1",), "coord Schubert pairs"),
}

# the workloads BENCHMARK.json lists; selftest-A1 serves the benchmark's test
PUBLIC = ("center-A2", "hexagon-B2", "suite-sweep")


def setup(name: str) -> dict:
    """Cartan data and algebra objects for every type the workload uses."""
    from qflag import CoordRing, DrinfeldPairing, UAlgebra, preset
    ctx = {}
    for typ in WORKLOADS[name][0]:
        datum = preset(typ)
        alg = UAlgebra(datum)
        ctx[typ] = {"datum": datum, "algebra": alg, "ring": CoordRing(alg),
                    "pairing": DrinfeldPairing(alg)}
    return ctx


def run(name: str, seed: int, ctx: dict, span: Callable) -> List[dict]:
    """The workload's checks; ``span(name)`` brackets each suite call."""
    if name == "hexagon-B2":
        return run_hexagon_b2(ctx)
    return run_suites(suite_plan(name, seed), seed, span)


def negative_control() -> List[dict]:
    """The A1 relations suite with corrupted degree operators; its checks
    are gated against the digests of the clean suite and must fail."""
    from qflag.config import RunConfig
    from qflag.suites import run_suite
    report = run_suite("relations", RunConfig(type="A1", corrupt=True))
    return suite_checks("A1", "relations", report)

