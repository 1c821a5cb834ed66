import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qflag
from qflag import cli
from qflag.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cartan_json(capsys):
    code, out = run_cli(["cartan", "--type", "A2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["l0"] == 3 and data["weyl_order"] == 6


def test_custom_cartan_matrix(capsys):
    code, out = run_cli(["cartan", "--cartan-matrix", "[[2,-1],[-1,2]]",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_basis_dimension(capsys):
    code, out = run_cli(["basis", "--type", "A2", "--degree", "<1,1>",
                         "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 2


def test_basis_at_height_twelve(capsys):
    # each degree is built from the one below, so a deep degree costs a
    # few small eliminations, not one over every word (924 at <6,6>)
    code, out = run_cli(["basis", "--type", "A2", "--degree", "<6,6>",
                         "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 7 == len(data["words"])


def test_basis_minus_sign(capsys):
    code, out = run_cli(["basis", "--type", "A1", "--degree", "<2>",
                         "--sign", "minus", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["words"] == ["f[1]*f[1]"]


def test_pairing_table(capsys):
    code, out = run_cli(["pairing", "--type", "A1", "--degree", "<1>",
                         "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["matrix"]) == 1


def test_rmatrix_export(capsys):
    code, out = run_cli(["rmatrix", "--type", "A1", "--hw", "[1]",
                         "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["flavor"] == "R"
    assert len(data["matrix"]) == 4
    # scalars rendered as grammar strings, never floats
    assert all(isinstance(x, str) for row in data["matrix"] for x in row)


def test_module_description(capsys):
    code, out = run_cli(["module", "--type", "A2", "--hw", "[1,1]",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["dim"] == 8
    code, out = run_cli(["module", "--type", "A1", "--hw", "[0]", "--verma",
                         "--depth", "<3>", "--side", "right", "--json"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["side"] == "right" and data["dim"] == 4


def test_coord_summary(capsys):
    code, out = run_cli(["coord", "--type", "A1", "--cutoff", "[2]",
                         "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["graded_dimensions"] == {"[0]": 1, "[1]": 2, "[2]": 3}


def test_verify_pass_and_exit_codes(capsys):
    code, out = run_cli(["verify", "pbw", "--type", "A1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_weyl_character_to_six(capsys):
    code, out = run_cli(["verify", "weyl-character", "--type", "A1",
                         "--max", "6", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and len(data["results"]) == 7


def test_verify_suite_flag_form(capsys):
    code, out = run_cli(["verify", "--suite", "pbw", "--type", "A1",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["suite"] == "pbw"


def test_verify_negative_control(capsys):
    code, out = run_cli(["verify", "relations", "--type", "A1",
                         "--cutoff", "[2]", "--corrupt", "--json"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    bad = [r for r in data["results"] if not r["pass"]]
    assert bad and "counterexample" in bad[0]
    cex = bad[0]["counterexample"]
    assert {"grade", "input", "output", "lhs", "rhs"} <= set(cex)
    # all runs the control through relations, and every other suite as is
    code, out = run_cli(["verify", "all", "--type", "A1", "--corrupt",
                         "--json"], capsys)
    assert code == 1
    assert [rep["suite"] for rep in json.loads(out)["results"]
            if not rep["pass"]] == ["relations"]


@pytest.mark.parametrize("argv", [
    ["verify", "braid", "--type", "A2"],
    *(["verify", suite, "--type", "A1"]
      for suite in ("rmatrix", "zw", "center", "theta")),
])
def test_corrupt_is_refused_where_no_suite_reads_it(argv, capsys):
    # only relations has a negative control
    assert main(argv + ["--corrupt"]) == 2
    assert "only relations reads --corrupt" in capsys.readouterr().err


def test_invalid_inputs_exit_2(capsys):
    assert main(["verify", "nonsense", "--type", "A1"]) == 2
    code = main(["basis", "--type", "A1", "--degree", "bad"])
    assert code == 2
    assert main(["cartan", "--type", "E8"]) == 2
    assert main([]) == 2
    # non-dominant highest weight is invalid input
    assert main(["rmatrix", "--type", "A1", "--hw", "[-1]"]) == 2
    assert main(["verify", "--type", "A1"]) == 2


@pytest.mark.parametrize("argv", [
    ["rmatrix", "--type", "A2", "--hw", "[1]"],        # too few coordinates
    ["rmatrix", "--type", "A2", "--hw", "[1,x]"],      # not an integer
    ["module", "--type", "A2", "--hw", "[0,-1]"],      # not dominant
    ["basis", "--type", "A2", "--degree", "<1,-1>"],   # not in Q^+
    ["cartan", "--cartan-matrix", "[[2,-1],[-1"],       # not JSON
    ["cartan", "--cartan-matrix", "[]"],                # rank 0
    ["cartan", "--cartan-matrix", "{}"],                # not a matrix
    ["cartan", "--cartan-matrix", "2"],                 # not a matrix
    ["cartan", "--cartan-matrix", "[[2.0,-1],[-1,2]]"],  # not an integer
    ["cartan", "--cartan-matrix", '[["2",-1],[-1,2]]'],  # not an integer
    ["cartan", "--cartan-matrix", "[[true,-1],[-1,2]]"],  # not an integer
    ["verify", "no-such-suite", "--type", "A2"],
])
def test_bad_input_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "pbw", "--suite", "weyl-character", "--type", "A1"],
    ["verify", "relations", "--type", "A1", "--cutoff", "[-1]"],
    ["verify", "coord", "--type", "A2", "--cutoff", "[-1,0]"],
    ["verify", "weyl-character", "--type", "A1", "--max", "-1"],
])
def test_bad_verify_input_exits_2(argv, capsys):
    # input that a suite would otherwise run on: two different suites, a
    # negative window coordinate, a negative bound
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("exc", [KeyError("injected"),
                                 ArithmeticError("injected"),
                                 ValueError("injected")])
def test_internal_error_exits_4(monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc

    # a bug deep inside a suite, not an input error
    monkeypatch.setattr(cli, "run_suite", broken)
    assert main(["verify", "pbw", "--type", "A1"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert f"internal error: {type(exc).__name__}" in err


def test_determinism_byte_identical():
    cmd = [sys.executable, "-m", "qflag.cli", "verify", "coord",
           "--type", "A1", "--seed", "5", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second


def test_max_height_env(monkeypatch):
    monkeypatch.setenv("QFLAG_MAX_HEIGHT", "3")
    from qflag.cartan import preset
    assert preset("A1").max_height == 3
    monkeypatch.delenv("QFLAG_MAX_HEIGHT")
    assert preset("A1").max_height == 8


@pytest.mark.parametrize("raw", ["abc", "", "2.5", "0", "-3"])
def test_max_height_env_rejects_bad_values(monkeypatch, capsys, raw):
    monkeypatch.setenv("QFLAG_MAX_HEIGHT", raw)
    assert main(["cartan", "--type", "A1"]) == 2
    assert "QFLAG_MAX_HEIGHT" in capsys.readouterr().err


def test_height_cap_exits_three(monkeypatch, capsys):
    monkeypatch.setenv("QFLAG_MAX_HEIGHT", "2")
    assert main(["module", "--type", "A2", "--hw", "[2,2]"]) == 3
    assert "error: height cap:" in capsys.readouterr().err


# sha256 of each report's stdout by "suite/type/cap" (see
# tests/test_report_pins.py, which checks every key and rewrites the table)
REPORT_PINS = json.loads(
    Path(__file__).with_name("report_pins.json").read_text())


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
def test_verify_all_reaches_a_verdict_at_a_low_cap(monkeypatch, capsys, typ):
    """At a cap of 3 many modules do not fit; every check that needs one
    is reported skipped, and none fails or crashes.  The report is pinned
    byte for byte, so a module route that drops the cap (and reaches a
    different verdict or skips other checks) fails here."""
    monkeypatch.setenv("QFLAG_MAX_HEIGHT", "3")
    code, out = run_cli(["verify", "all", "--type", typ, "--json"], capsys)
    assert code == 0
    entries = [r for rep in json.loads(out)["results"]
               for r in rep["results"]]
    assert all(r["pass"] is True for r in entries)
    assert any(r.get("note") == "skipped: above height cap" for r in entries)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        REPORT_PINS[f"all/{typ}/3"]


# the suites that read the plus part's layout (theta), walk words on every
# module (presentation) and solve for central elements by nullspaces
# (center, annihilator), run alone
@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2"])
@pytest.mark.parametrize("suite", ["theta", "presentation", "center",
                                   "annihilator"])
def test_module_suite_reports_are_pinned(monkeypatch, capsys, suite, typ):
    monkeypatch.delenv("QFLAG_MAX_HEIGHT", raising=False)
    code, out = run_cli(["verify", suite, "--type", typ, "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        REPORT_PINS[f"{suite}/{typ}/default"]


# sha256 of `qflag rmatrix --flavor R-inverse --json`: the exact R-inverse
# matrices behind the rmatrix reports, B2 on the pair the hexagon reads
R_INVERSE_SHA256 = {
    "A2": "2c46527c2f2d740dab6fe4a4de26057fffd655833b41dac172092b7fa42989be",
    "B2": "afb5b6d97fca9f4704cb1755cbbd98bdf3ece781563aa612cb1ed5b38f480f50",
    "G2": "35f6afb12409383c23b8f6487511852737f576c883ea6b40be83dd2d96008c45",
}


@pytest.mark.parametrize("typ, weights", [
    ("A2", ["--hw", "[1,0]", "--hw2", "[0,1]"]),
    ("B2", ["--hw", "[1,0]", "--hw2", "[0,1]"]),
    ("G2", ["--hw", "[0,1]"])], ids=["A2", "B2", "G2"])
def test_r_inverse_exports_are_pinned(monkeypatch, capsys, typ, weights):
    monkeypatch.delenv("QFLAG_MAX_HEIGHT", raising=False)
    code, out = run_cli(["rmatrix", "--type", typ, "--flavor", "R-inverse",
                         *weights, "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == R_INVERSE_SHA256[typ]


B2_MATRIX = "[[2,-2],[-1,2]]"
A3_MATRIX = "[[2,-1,0],[-1,2,-1],[0,-1,2]]"


@pytest.mark.parametrize("matrix", [B2_MATRIX, A3_MATRIX])
@pytest.mark.parametrize("suite", ["center", "annihilator"])
def test_center_verdicts_follow_the_datum(monkeypatch, capsys, suite, matrix):
    # B2 and A3 have highest roots of height 3, so height 2 holds no
    # nontrivial central element whatever the type label says
    monkeypatch.delenv("QFLAG_MAX_HEIGHT", raising=False)
    code, out = run_cli(["verify", suite, "--cartan-matrix", matrix,
                         "--json"], capsys)
    assert code == 0
    if matrix == B2_MATRIX:
        ref_code, ref = run_cli(["verify", suite, "--type", "B2", "--json"],
                                capsys)
        assert ref_code == 0
        assert json.loads(out)["results"] == json.loads(ref)["results"]


def test_pbw_window_follows_the_datum(capsys):
    # B2 and C2 are one datum, so they get one window (up to height 5),
    # and a report on a matrix names no type
    degrees, types = [], []
    for args in (["--type", "B2"], ["--type", "C2"],
                 ["--cartan-matrix", B2_MATRIX]):
        code, out = run_cli(["verify", "pbw", *args, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        degrees.append([r["instance"] for r in report["results"]])
        types.append(report["config"]["type"])
    assert degrees[0] == degrees[1] == degrees[2]
    assert len(degrees[0]) == 21
    assert types == ["B2", "C2", None]


def test_verify_all_on_a3_reaches_a_verdict(monkeypatch, capsys):
    monkeypatch.delenv("QFLAG_MAX_HEIGHT", raising=False)
    code, out = run_cli(["verify", "all", "--cartan-matrix", A3_MATRIX,
                         "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["config"]["type"] is None


def test_cap_error_is_a_skip_not_a_failure(monkeypatch, capsys):
    # two A2 Ore witnesses need a word of f-height 4 under a cap of 3
    monkeypatch.setenv("QFLAG_MAX_HEIGHT", "3")
    code, out = run_cli(["verify", "ore", "--type", "A2", "--json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    skipped = [r["instance"] for r in results
               if r.get("note") == "skipped: above height cap"]
    assert skipped == ["left w=[1, 0] wt=[0,-1]", "right w=[1, 0] wt=[0,-1]"]
    assert len(results) == 36 and all(r["pass"] is True for r in results)


def test_coord_with_an_empty_window_reaches_a_verdict(capsys):
    # no nonzero grade in [0,0]: the checks have nothing to compare
    code, out = run_cli(["verify", "coord", "--type", "A2", "--cutoff",
                         "[0,0]", "--json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["instance"] for r in results] == [
        "associativity", "covering threshold found", "domain spot check",
        "schubert evaluation multiplicative"]
    assert all(r["pass"] is True and r["note"] == "skipped: above height cap"
               for r in results)


@pytest.mark.parametrize("typ, window", [("A1", "[0]"), ("A2", "[0,0]"),
                                         ("B2", "[0,0]"), ("G2", "[0,0]")])
def test_all_with_an_empty_window_reaches_a_verdict(capsys, typ, window):
    # the extremal transport of zw and lemma-rl read a fundamental grade,
    # which the window does not hold: skipped, not a crash or a failure
    code, out = run_cli(["verify", "all", "--type", typ, "--cutoff", window,
                         "--json"], capsys)
    assert code == 0
    reports = {rep["suite"]: rep["results"]
               for rep in json.loads(out)["results"]}
    assert all(r["pass"] is True for rs in reports.values() for r in rs)
    grade_reads = reports["lemma-rl"] + [
        r for r in reports["zw"] if r["instance"].startswith("w=[]")]
    assert len(grade_reads) == 1 + (1 if typ == "A1" else 2)
    assert all(r["note"] == "skipped: above height cap" for r in grade_reads)


def test_coord_covering_with_no_candidate_is_skipped(capsys):
    # in [1] no grade lam has lam + omega inside the window
    code, out = run_cli(["verify", "coord", "--type", "A1", "--cutoff",
                         "[1]", "--json"], capsys)
    assert code == 0
    covering = [r for r in json.loads(out)["results"]
                if r["instance"].startswith("covering")]
    assert covering == [{"instance": "covering threshold found",
                         "pass": True, "note": "skipped: nothing to compare "
                                               "in window [1]"}]


def test_suite_context_follows_height_cap(monkeypatch):
    """The suites' shared context is keyed on the cap in force: after
    QFLAG_MAX_HEIGHT changes, a suite gets a datum with the new cap."""
    from qflag import suites
    from qflag.config import RunConfig
    config = RunConfig(type="A2")
    monkeypatch.delenv("QFLAG_MAX_HEIGHT", raising=False)
    assert suites._ctx(config)[0].max_height == 8
    monkeypatch.setenv("QFLAG_MAX_HEIGHT", "2")
    assert suites._ctx(config)[0].max_height == 2
    monkeypatch.delenv("QFLAG_MAX_HEIGHT")
    assert suites._ctx(config)[0].max_height == 8


def test_text_output_mode(capsys):
    code, out = run_cli(["verify", "pbw", "--type", "A1"], capsys)
    assert code == 0
    assert out.startswith("suite pbw: PASS")
    assert "[ok]" in out


def _run_entry_point(cmd):
    # PYTHONPATH points the child at the qflag package under test
    src = Path(qflag.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(cmd + ["cartan", "--type", "A1", "--json"],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["l0"] == 2, proc.stderr.decode()


def test_console_script_entry_point():
    # `python -m qflag` is the uninstalled form of the `qflag` script
    _run_entry_point([sys.executable, "-m", "qflag"])
    script = shutil.which("qflag")
    if script is not None:
        _run_entry_point([script])


def test_cli_import_loads_no_dataclasses():
    # start-up: RunConfig is a named tuple, so importing the CLI in a
    # fresh interpreter loads no dataclasses, and with it no inspect or ast
    src = Path(qflag.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, qflag.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("args, status", [
    (["cartan", "--type", "A1", "--json"], 0),
    (["verify", "pbw", "--type", "A1"], 0),
    (["verify", "relations", "--type", "A1", "--cutoff", "[2]",
      "--corrupt", "--json"], 1),
])
def test_closed_stdout_exits_quietly_with_status(args, status):
    # `qflag ... | head`: the reader is gone before the first write
    src = Path(qflag.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qflag"] + args,
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == status, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
