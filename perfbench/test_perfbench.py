"""Tests of the benchmark itself: python3 -m pytest perfbench (about three minutes)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_output
from layertrace import COUNTERS, PER_LAYER
from run import END_TO_END
from workloads import WORKLOADS, Op, make_round, poisson_moments

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_list_is_deterministic_per_seed(workload):
    assert make_round(workload, 7, 3) == make_round(workload, 7, 3)
    assert make_round(workload, 7, 3) != make_round(workload, 8, 3)
    assert make_round(workload, 7, 3) != make_round(workload, 7, 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_two_ops_share_a_weight(workload):
    keys = []
    for seed in (1, 2):
        for k in range(40):
            for op in make_round(workload, seed, k):
                keys += [op.weight_key, op.twin().weight_key]
    keys = [k for k in keys if k is not None]
    assert keys and len(set(keys)) == len(keys)


def test_output_checks_catch_a_wrong_table(tmp_path):
    op = Op("moments", "custom", (0.5, 1.0), 3)
    for scale, correct in ((1.0, True), (1.0 + 1e-9, False)):
        out = tmp_path / "moments.csv"
        out.write_text("j,re,im\n" + "".join(
            f"{j},{c.real * scale!r},{c.imag!r}\n" for j, c in poisson_moments(0.5, 1.0, 5)))
        assert (check_output(op, 0, str(out))[3] == []) is correct

    op = Op("verblunsky", "bessel", (2.0,), 2)
    out = tmp_path / "alphas.csv"
    out.write_text("n,re_alpha,im_alpha,kappa2,b,re_phi1,im_phi1\n"
                   "0,0.6,0.0,1,1,0,0\n1,0.1,0.0,1,1,0,0\n")
    assert any("alpha_0" in p for p in check_output(op, 0, str(out))[3])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, 3, trace=0))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["verify-bessel", "tables"])
def test_traced_counters_repeat_exactly(workload):
    first, second = (_result(_run(workload, 5, trace=1)) for _ in range(2))
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == {**PER_LAYER, "trace.overhead_s": "s"}
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload == "tables":
        assert first["metrics"]["cauchy.transforms"]["value"] == 0
        assert first["metrics"]["moments.quad_nodes"]["value"] > 0
    else:
        assert first["metrics"]["structure.fd_M_evals"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("tables", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
