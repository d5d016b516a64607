"""The ROADMAP failure table as a test: which checks may fail where.

``envelope.json`` pins one ``opuc verify`` run per row of the failure
table, and the cases that pass.  Each case pins the exit code and, for
exit 1, the failing ``(name, n, z)`` triples.  A run may do better than
its pin, never worse:

* ``failing``: the exit code is the pinned one or better (0 before 1
  before 3), and every check that fails is pinned, so a fix passes without
  an edit and a new failure fails the test;
* ``must_fail`` (the ``--perturb`` cases): the run exits 1 and at least the
  pinned checks fail, so a perturbed table is still seen.

A case with ``moments_argv`` first writes that ``opuc moments`` table and
passes it as ``--moments``.  A change that fixes checks shrinks the pinned
sets; one that adds an entry loosens the test.
"""

import json
from pathlib import Path

import pytest

from opuc.cli import main

CASES = json.loads((Path(__file__).with_name("envelope.json")).read_text())["cases"]
# better exit codes rank lower; exit 2, a usage error, is no outcome of a pinned run
RANK = {0: 0, 1: 1, 3: 2}


def _failing(report: Path) -> set[tuple]:
    return {(c["name"], c["n"], c["z"])
            for c in json.loads(report.read_text())["checks"] if not c["pass"]}


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_failures_stay_within_the_pinned_envelope(case, tmp_path, capsys):
    report = tmp_path / "r.json"
    argv = ["verify", *case["argv"], "--report", str(report)]
    if "moments_argv" in case:
        table = tmp_path / "m.csv"
        assert main(["moments", *case["moments_argv"], "--out", str(table)]) == 0
        argv += ["--moments", str(table)]
    code = main(argv)
    if "must_fail" in case:
        assert code == 1
        assert {tuple(t) for t in case["must_fail"]} <= _failing(report)
        return
    assert code in RANK and RANK[code] <= RANK[case["exit"]], capsys.readouterr().err
    if code == 1:
        new = _failing(report) - {tuple(t) for t in case["failing"]}
        assert not new, f"checks failing outside the envelope: {sorted(new)}"
