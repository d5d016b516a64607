"""The smallest defect ``verify`` catches: a ledger beside the envelope.

The envelope guards against false failures; this guards against false
passes.  ``sensitivity.json`` pins, per case and Verblunsky index i, the
smallest decade eps at which ``verify`` sees ``--perturb i:eps``: the
perturbed run exits 1, and at least one check fails that passes on the
clean table.  A change may catch smaller defects and re-pin a lower eps;
raising one loosens the test.
"""

import json
from pathlib import Path

import pytest

from opuc.cli import main

CASES = json.loads((Path(__file__).with_name("sensitivity.json")).read_text())["cases"]


def _run(argv, report: Path) -> tuple[int, set[tuple]]:
    """The exit code of one verify run and the (name, n, z) of each check
    that fails."""
    code = main(["verify", *argv, "--report", str(report)])
    failing = {(c["name"], c["n"], c["z"])
               for c in json.loads(report.read_text())["checks"] if not c["pass"]}
    return code, failing


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The failing checks of each clean case, one run per case."""
    runs = {}

    def failing(argv: tuple) -> set[tuple]:
        if argv not in runs:
            runs[argv] = _run(argv, tmp_path_factory.mktemp("clean") / "r.json")[1]
        return runs[argv]

    return failing


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_perturbation_at_the_pinned_size_is_caught(case, clean, tmp_path):
    argv = tuple(case["argv"])
    code, failing = _run([*argv, "--perturb", f"{case['index']}:{case['eps']!r}"],
                         tmp_path / "r.json")
    assert code == 1
    assert failing - clean(argv), "the perturbation fails no check the clean run passes"
