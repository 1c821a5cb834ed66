"""In-memory span recording for the traced benchmark run.

The tracer wraps public functions and methods of the qflag layers from the
outside: nothing under ``src/`` knows it exists.  Each call becomes a span
(name, start, end, parent) kept in flat arrays and written out once the run
has finished.  Per-call probes record the counts that ratios are built from
(trivial gcds, matrix shapes, repeated cache keys) where the work happens.

QScalar arithmetic is deliberately not wrapped: it runs millions of times
per workload and a wrapper there would dominate the traced time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

perf_counter = time.perf_counter


# -- probes: per-call counts, run after the span has closed ------------------

def _probe_gcd(tr: "Tracer", args, out) -> None:
    a, b = args[0], args[1]
    tr.count["scalars.gcd_terms"] += len(a) + len(b)
    span = max((max(p) - min(p) for p in (a, b) if p), default=0)
    tr.maximum("scalars.gcd_span_max", span)
    if out == {0: 1}:
        tr.count["scalars.gcd_trivial"] += 1


def _probe_rref(tr: "Tracer", args, out) -> None:
    rows = args[0]
    if not rows:
        return
    nrows, ncols = len(rows), len(rows[0])
    tr.count["linalg.rref_cells"] += nrows * ncols
    tr.count["linalg.rref_nonzero"] += sum(
        1 for row in rows for x in row if not x.is_zero())
    tr.maximum("linalg.rref_rows_max", nrows)
    tr.maximum("linalg.rref_cols_max", ncols)


def _probe_nullspace(tr: "Tracer", args, out) -> None:
    # blocks of the center solve: nullspace calls made inside center_solve;
    # a center_solve span with no block under it was served by the memo
    solve = tr.innermost("center.solve")
    if solve is not None and args[0]:
        tr.count["center.blocks"] += 1
        tr.count["center.unknowns"] += len(args[0][0])
        if not tr.seen("center.solves_computed", solve):
            tr.count["center.solves_computed"] += 1


def _repeat_probe(counter: str, key_of: Callable) -> Callable:
    def probe(tr: "Tracer", args, out) -> None:
        if tr.seen(counter, key_of(args)):
            tr.count[counter] += 1
    return probe


def _probe_xi(tr: "Tracer", args, out) -> None:
    tr.maximum("rmatrix.xi_dim_max", len(out))


# span name -> (module, attribute paths, probe).  An attribute path with a
# dot is a method, patched on its class; a bare name is a module function,
# patched in every qflag namespace that bound it.
SPAN_TARGETS: Dict[str, Tuple[str, Tuple[str, ...], Optional[Callable]]] = {
    "scalars.gcd": ("scalars", ("lp_gcd",), _probe_gcd),
    "scalars.exact_div": ("scalars", ("lp_exact_div",), None),
    "linalg.rref": ("linalg", ("rref",), _probe_rref),
    "linalg.inverse": ("linalg", ("inverse",), None),
    "linalg.nullspace": ("linalg", ("nullspace",), _probe_nullspace),
    "linalg.solve": ("linalg", ("solve",), None),
    "linalg.mat_mul": ("linalg", ("mat_mul",), None),
    "linalg.mat_add": ("linalg", ("mat_add",), None),
    "linalg.kron": ("linalg", ("kron",), None),
    "enveloping.basis": ("enveloping", ("UAlgebra.basis",), _repeat_probe(
        "enveloping.basis_repeat", lambda a: (id(a[0]), tuple(a[1])))),
    "enveloping.normal_form": ("enveloping",
                               ("UAlgebra.normal_form_word",), None),
    "enveloping.braid": ("enveloping", (
        "UAlgebra.braid_on_element", "UAlgebra.braid_word_on_element",
        "UAlgebra.braid_generator_image", "UAlgebra.braid_inverse_image"),
        None),
    "weightmod.simple": ("weightmod", ("simple",), None),
    "weightmod.act": ("weightmod", ("WeightModule.act",), None),
    "weightmod.tensor": ("weightmod", ("tensor",), None),
    "weightmod.braid": ("weightmod", (
        "braid_on_module", "braid_word", "transpose_braid"), None),
    "rmatrix.pair_words": ("rmatrix", ("DrinfeldPairing.pair_words",),
                           _repeat_probe("rmatrix.pair_words_repeat",
                                         lambda a: (id(a[0]), a[1], a[2]))),
    "rmatrix.table": ("rmatrix", ("DrinfeldPairing.table",), None),
    "rmatrix.xi": ("rmatrix", ("DrinfeldPairing.xi_coefficients",),
                   _probe_xi),
    "rmatrix.r_operator": ("rmatrix", ("r_operator",), None),
    "center.solve": ("center", ("center_solve",), None),
    "center.annihilator": ("center", ("annihilator_check",), None),
    "coordring.mult": ("coordring", ("CoordRing.mult",), None),
    "coordring.eval_solver": ("coordring", ("CoordRing.eval_solver",), None),
    "coordring.ore_witness": ("coordring", ("CoordRing.ore_witness",), None),
    "cartan.weyl_character": ("cartan", ("weyl_character",), None),
    "diffops.check": ("diffops", (
        "relations_check", "lemma_rl_check", "z_w_check",
        "extremal_transport_check"), None),
    "thetarep.build": ("thetarep", ("theta_build",), None),
    "bimodule.check": ("bimodule", (
        "EBimodule.unit_check", "EBimodule.bimodule_check",
        "EBimodule.flag_stability_check", "EBimodule.total_character_check",
        "key_lemma_characters"), None),
}


class Tracer:
    """Spans of one child process, all sharing ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: List[int] = []
        self.count: Counter = Counter()
        self.maxima: Dict[str, int] = {}
        self._seen: Dict[str, set] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- bookkeeping used by probes ------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def innermost(self, name: str) -> Optional[int]:
        """Index of the innermost open span called ``name``, if any."""
        nid = self._ids.get(name)
        if nid is None or not self._depth[nid]:
            return None
        for idx in reversed(self._stack):
            if self.name[idx] == nid:
                return idx
        return None

    def maximum(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def seen(self, key: str, item) -> bool:
        bucket = self._seen.setdefault(key, set())
        if item in bucket:
            return True
        bucket.add(item)
        return False

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, nid: int, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(nid, idx)

    def wrap(self, fn: Callable, name: str,
             probe: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(nid, idx)
            if probe is not None:
                probe(tracer, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in ``SPAN_TARGETS``."""
        for span_name, (modname, paths, probe) in SPAN_TARGETS.items():
            module = importlib.import_module(f"qflag.{modname}")
            for path in paths:
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original,
                                self.wrap(original, span_name, probe))
                else:
                    original = getattr(module, path)
                    wrapper = self.wrap(original, span_name, probe)
                    for ns in _qflag_modules():
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time sums only spans with no enclosing span of the same
        name, so recursion is not counted twice; self time subtracts the
        time covered by direct children."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            if self.outer[i]:
                incl[nid] += dur
            self_s[nid] += dur - child[i]
        return {name: (calls[k], incl[k], self_s[k])
                for k, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """One line per span: index, parent index, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# run_id={self.run_id} spans={len(self.name)}\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\n")


def _qflag_modules() -> Iterable[object]:
    return [m for name, m in sorted(sys.modules.items()) if m is not None
            and (name == "qflag" or name.startswith("qflag."))]


def read_spans(path: str) -> List[Tuple[int, int, str, float, float]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            i, p, name, s, e = line.rstrip("\n").split("\t")
            out.append((int(i), int(p), name, float(s), float(e)))
    return out


def layer_metrics(tr: Tracer,
                  suite_spans: Iterable[str]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    tot = tr.totals()
    cnt, mx = tr.count, tr.maxima

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    gcds = calls("scalars.gcd")
    m: Dict[str, Tuple[float, str]] = {
        "scalars.gcd_calls": (gcds, "count"),
        "scalars.gcd_s": (incl("scalars.gcd"), "s"),
        "scalars.gcd_trivial_frac": (
            ratio(cnt["scalars.gcd_trivial"], gcds), "ratio"),
        "scalars.gcd_terms_mean": (
            ratio(cnt["scalars.gcd_terms"], gcds), "terms"),
        "scalars.gcd_span_max": (mx.get("scalars.gcd_span_max", 0), "count"),
        "scalars.exact_div_calls": (calls("scalars.exact_div"), "count"),
        "scalars.exact_div_s": (incl("scalars.exact_div"), "s"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "linalg.rref_s": (incl("linalg.rref"), "s"),
        "linalg.rref_self_s": (self_time("linalg.rref"), "s"),
        "linalg.rref_cells": (cnt["linalg.rref_cells"], "count"),
        "linalg.rref_density": (
            ratio(cnt["linalg.rref_nonzero"], cnt["linalg.rref_cells"]),
            "ratio"),
        "linalg.rref_rows_max": (mx.get("linalg.rref_rows_max", 0), "count"),
        "linalg.rref_cols_max": (mx.get("linalg.rref_cols_max", 0), "count"),
        "linalg.inverse_calls": (calls("linalg.inverse"), "count"),
        "linalg.inverse_s": (incl("linalg.inverse"), "s"),
        "linalg.nullspace_s": (incl("linalg.nullspace"), "s"),
        "linalg.solve_calls": (calls("linalg.solve"), "count"),
        "linalg.solve_s": (incl("linalg.solve"), "s"),
        "linalg.mat_mul_calls": (calls("linalg.mat_mul"), "count"),
        "linalg.mat_mul_s": (incl("linalg.mat_mul"), "s"),
        "linalg.mat_add_s": (incl("linalg.mat_add"), "s"),
        "linalg.kron_s": (incl("linalg.kron"), "s"),
        "enveloping.basis_calls": (calls("enveloping.basis"), "count"),
        "enveloping.basis_repeat_frac": (
            ratio(cnt["enveloping.basis_repeat"], calls("enveloping.basis")),
            "ratio"),
        "enveloping.normal_form_calls": (
            calls("enveloping.normal_form"), "count"),
        "enveloping.normal_form_s": (incl("enveloping.normal_form"), "s"),
        "enveloping.braid_s": (incl("enveloping.braid"), "s"),
        "weightmod.simple_calls": (calls("weightmod.simple"), "count"),
        "weightmod.simple_s": (incl("weightmod.simple"), "s"),
        "weightmod.act_calls": (calls("weightmod.act"), "count"),
        "weightmod.act_s": (incl("weightmod.act"), "s"),
        "weightmod.tensor_s": (incl("weightmod.tensor"), "s"),
        "weightmod.braid_s": (incl("weightmod.braid"), "s"),
        "rmatrix.pair_words_calls": (calls("rmatrix.pair_words"), "count"),
        "rmatrix.pair_words_repeat_frac": (
            ratio(cnt["rmatrix.pair_words_repeat"],
                  calls("rmatrix.pair_words")), "ratio"),
        "rmatrix.table_s": (incl("rmatrix.table"), "s"),
        "rmatrix.xi_s": (incl("rmatrix.xi"), "s"),
        "rmatrix.xi_dim_max": (mx.get("rmatrix.xi_dim_max", 0), "count"),
        "rmatrix.r_operator_s": (incl("rmatrix.r_operator"), "s"),
        "center.solve_s": (incl("center.solve"), "s"),
        "center.unknowns": (cnt["center.unknowns"], "count"),
        "center.blocks": (cnt["center.blocks"], "count"),
        "center.solves_computed": (cnt["center.solves_computed"], "count"),
        "center.annihilator_s": (incl("center.annihilator"), "s"),
        "coordring.mult_calls": (calls("coordring.mult"), "count"),
        "coordring.mult_s": (incl("coordring.mult"), "s"),
        "coordring.eval_solver_s": (incl("coordring.eval_solver"), "s"),
        "coordring.ore_witness_s": (incl("coordring.ore_witness"), "s"),
        "cartan.weyl_character_calls": (
            calls("cartan.weyl_character"), "count"),
        "cartan.weyl_character_s": (incl("cartan.weyl_character"), "s"),
        "diffops.check_s": (incl("diffops.check"), "s"),
        "thetarep.build_s": (incl("thetarep.build"), "s"),
        "bimodule.check_s": (incl("bimodule.check"), "s"),
    }
    for name in suite_spans:
        m[f"{name}_s"] = (incl(name), "s")
    return m
