"""The traced path of the benchmark, run twice on the seconds-long A1
self-test workload: counts repeat exactly, every span name is seen, spans
nest, outputs match their pins and the negative control is caught."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def _traced_child(out: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "selftest-A1",
         "--trace", "1", "--spans", str(out),
         "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), \
        spans.read_spans(str(out))


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spans")
    return [_traced_child(tmp / f"run{k}.tsv") for k in range(2)]


def test_counts_repeat_exactly(two_runs):
    (first, _), (second, _) = two_runs
    exact = [name for name, (_v, unit) in first["metrics"].items()
             if unit != "s"]
    assert "scalars.gcd_calls" in exact and "linalg.rref_cells" in exact
    assert {n: first["metrics"][n] for n in exact} == \
        {n: second["metrics"][n] for n in exact}


def test_every_span_name_seen(two_runs):
    for _result, recorded in two_runs:
        names = {s[2] for s in recorded}
        assert set(spans.SPAN_TARGETS) <= names
        assert "workload.selftest-A1" in names
        assert any(n.startswith("suites.A1.") for n in names)


def test_child_spans_nest_inside_parents(two_runs):
    for _result, recorded in two_runs:
        by_index = {s[0]: s for s in recorded}
        roots = 0
        for _i, parent, _name, start, end in recorded:
            assert start <= end
            if parent < 0:
                roots += 1
                continue
            _pi, _pp, _pn, pstart, pend = by_index[parent]
            assert pstart <= start and end <= pend
        assert roots == 1


def test_outputs_match_pins_and_control_is_caught(two_runs):
    pins = run.load_pins()
    for result, _spans in two_runs:
        assert run.gate(result["checks"], pins["selftest-A1"])[1] == []
        assert run.gate(result["control"], pins["negative-control"])[1]


def test_gate_counts_missing_and_changed_outputs():
    pinned = {"a": "1", "b": "2"}
    assert run.gate([{"id": "a", "pass": True, "digest": "1"},
                     {"id": "b", "pass": True, "digest": "2"}],
                    pinned) == (2, [])
    assert run.gate([{"id": "a", "pass": True, "digest": "1"}],
                    pinned) == (2, ["b"])
    assert run.gate([{"id": "a", "pass": True, "digest": "x"},
                     {"id": "b", "pass": False, "digest": "2"},
                     {"id": "c", "pass": True, "digest": "3"}],
                    pinned) == (3, ["a", "b", "c"])
