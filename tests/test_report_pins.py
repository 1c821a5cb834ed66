"""Every default report pinned: one sha256 table keyed by suite, type and
height cap, read by one test that names every key whose digest moved.

A suite's digest is that of ``qflag verify SUITE --type T --json``'s
stdout, which equals the suite's part of ``verify all`` dumped the same
way; the key ``all/T/cap`` is the digest of ``verify all`` itself.  The
caps are the default one and ``QFLAG_MAX_HEIGHT=3``.  After a change that
is meant to move reports, rewrite the table with

    PYTHONPATH=src python tests/test_report_pins.py

and list each moved key with its reason in CHANGES.md.
"""

import hashlib
import json
import os
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from qflag.cli import main

PINS_PATH = Path(__file__).with_name("report_pins.json")
TYPES = ("A1", "A2", "B2", "G2")
CAPS = ("default", "3")


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_text(report: dict) -> str:
    """A report as ``qflag verify ... --json`` prints it."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def current_digests() -> dict:
    """``{"suite/type/cap": sha256}`` for ``verify all`` on every preset
    type at both caps, run in this process through the CLI."""
    saved = os.environ.get("QFLAG_MAX_HEIGHT")
    out = {}
    try:
        for cap in CAPS:
            if cap == "default":
                os.environ.pop("QFLAG_MAX_HEIGHT", None)
            else:
                os.environ["QFLAG_MAX_HEIGHT"] = cap
            for typ in TYPES:
                buf = StringIO()
                with redirect_stdout(buf):
                    code = main(["verify", "all", "--type", typ, "--json"])
                text = buf.getvalue()
                report = json.loads(text)
                assert code == (0 if report["pass"] else 1)
                out[f"all/{typ}/{cap}"] = report_digest(text)
                for rep in report["results"]:
                    out[f"{rep['suite']}/{typ}/{cap}"] = \
                        report_digest(suite_text(rep))
    finally:
        if saved is None:
            os.environ.pop("QFLAG_MAX_HEIGHT", None)
        else:
            os.environ["QFLAG_MAX_HEIGHT"] = saved
    return out


def test_every_report_matches_its_pin():
    want, got = pins(), current_digests()
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    assert not moved, f"reports moved: {moved}"
    assert sorted(got.keys() - want.keys()) == [], "reports not pinned"
    assert sorted(want.keys() - got.keys()) == [], "pins with no report"


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(current_digests(), indent=1,
                                    sort_keys=True) + "\n")
