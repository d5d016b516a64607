import csv
import json
import math

import pytest

from opuc.cli import TOLERANCES, main, standard_grid
from opuc.weights import WeightSpec

I1_2 = 1.5906368546
ALPHA0_BESSEL2 = 0.6977746580


def run(argv):
    return main(argv)


def test_moments_lebesgue(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["moments", "--weight", "lebesgue", "--jmax", "4",
                "--out", str(out)]) == 0
    rows = {int(r["j"]): complex(float(r["re"]), float(r["im"]))
            for r in csv.DictReader(out.read_text().splitlines())}
    assert rows[0].real == pytest.approx(2.0 * math.pi)
    assert all(rows[j] == 0 for j in rows if j != 0)


def test_moments_bessel_value(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["moments", "--weight", "bessel", "--ell", "2",
                "--jmax", "3", "--out", str(out)]) == 0
    rows = {int(r["j"]): float(r["re"])
            for r in csv.DictReader(out.read_text().splitlines())}
    assert rows[1] == pytest.approx(2.0 * math.pi * I1_2, abs=1e-7)


def test_missing_ell_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["moments", "--weight", "bessel", "--jmax", "3"])
    assert exc.value.code == 2


def test_verblunsky_csv(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["verblunsky", "--weight", "bessel", "--ell", "2",
                "--n", "6", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 6
    assert float(rows[0]["re_alpha"]) == pytest.approx(ALPHA0_BESSEL2, abs=1e-9)
    assert float(rows[0]["im_alpha"]) == 0.0


def test_verblunsky_lebesgue_zero(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["verblunsky", "--weight", "lebesgue", "--n", "5",
                "--out", str(out)]) == 0
    for r in csv.DictReader(out.read_text().splitlines()):
        assert abs(float(r["re_alpha"])) < 1e-13


def test_dpii_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    assert run(["dpii", "--ell", "2.0", "--n", "10", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 11
    assert all(float(r["residual"]) < 1e-8 for r in rows)


def test_verify_all_lebesgue_passes(tmp_path):
    rpt = tmp_path / "r.json"
    assert run(["verify", "all", "--weight", "lebesgue", "--n", "6",
                "--report", str(rpt)]) == 0
    report = json.loads(rpt.read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == len(report["checks"])


def test_verify_bessel_suite_size(tmp_path):
    rpt = tmp_path / "r.json"
    assert run(["verify", "all", "--weight", "bessel", "--ell", "2",
                "--n", "10", "--report", str(rpt)]) == 0
    report = json.loads(rpt.read_text())
    assert report["summary"]["total"] >= 60
    assert report["summary"]["failed"] == 0


def test_verify_perturbation_fails_near_index(tmp_path):
    rpt = tmp_path / "r.json"
    assert run(["verify", "all", "--weight", "bessel", "--ell", "2",
                "--n", "8", "--perturb", "5:1e-3", "--report", str(rpt)]) == 1
    report = json.loads(rpt.read_text())
    fails = [c for c in report["checks"] if not c["pass"]]
    assert fails
    assert all(c["n"] >= 4 for c in fails)
    assert any(c["n"] in (4, 5, 6) for c in fails)


def test_verify_perturbation_seen_by_closed_forms_at_ell_zero(tmp_path):
    # ell = 0 is the constant weight; the closed forms are still computed
    rpt = tmp_path / "r.json"
    assert run(["verify", "structure", "--weight", "bessel", "--ell", "0",
                "--n", "5", "--perturb", "2:1e-3", "--report", str(rpt)]) == 1
    checks = json.loads(rpt.read_text())["checks"]
    failed = {c["name"] for c in checks if not c["pass"]}
    assert {"curvature_closed", "structure_relation_three_term",
            "structure_relation_weighted"} <= failed


def test_verify_reports_sorted(tmp_path):
    rpt = tmp_path / "r.json"
    run(["verify", "rh", "--weight", "bessel", "--ell", "2", "--n", "4",
         "--report", str(rpt)])
    checks = json.loads(rpt.read_text())["checks"]
    keys = [(c["name"], c["n"], c["z"] or "") for c in checks]
    assert keys == sorted(keys)


def test_standard_grid_avoids_singularities():
    grid = standard_grid(WeightSpec.jacobi(1.0))
    assert len(grid) == 16
    assert all(abs(z - 1.0) >= 0.05 for z in grid)
    radii = {round(abs(z), 6) for z in grid}
    assert radii == {0.4, 2.5}


@pytest.mark.parametrize("n", ["1", "0"])
def test_verify_degree_below_minimum_is_usage_error(n, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "all", "--weight", "bessel", "--ell", "2", "--n", n])
    assert exc.value.code == 2
    assert "--n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["moments", "--weight", "bessel", "--ell", "2", "--jmax", "200"],
    ["verblunsky", "--weight", "bessel", "--ell", "2", "--n", "169"],
    ["dpii", "--ell", "2", "--n", "168"],
], ids=["moments", "verblunsky", "dpii"])
def test_bessel_order_beyond_series_limit_exits_3(argv, capsys):
    assert run(argv) == 3
    assert "|j| <= 170" in capsys.readouterr().err


def test_bessel_ell_beyond_analytic_range_exits_3(capsys):
    assert run(["moments", "--weight", "bessel", "--ell", "60", "--jmax", "4"]) == 3
    assert "ell <= 50" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--weight", "bessel", "--ell", "-1"],
                                   ["--weight", "jacobi", "--lambda", "-0.7"]],
                         ids=["bessel", "jacobi"])
def test_weight_parameter_out_of_family_is_usage_error(flags):
    with pytest.raises(SystemExit) as exc:
        run(["moments", *flags, "--jmax", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--weight", "bessel", "--ell", "2"],
                                   ["--weight", "jacobi", "--lambda", "1", "--eta", "0.5"]],
                         ids=["bessel", "jacobi"])
def test_verblunsky_csv_fields_are_plain_numbers(tmp_path, flags):
    out = tmp_path / "a.csv"
    assert run(["verblunsky", *flags, "--n", "5", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(rows) == 5
    for row in rows:
        for field in row:
            float(field)


@pytest.mark.parametrize("argv", [
    ["moments", "--jmax", "-1"],
    ["verblunsky", "--n", "-3"],
    ["dpii", "--ell", "2", "--n", "-1"],
    ["verify", "all", "--n", "4", "--rtol", "0"],
    ["verify", "all", "--n", "4", "--rtol", "-1e-9"],
    ["verify", "all", "--n", "4", "--rtol", "nan"],
    ["verify", "all", "--n", "4", "--rtol", "inf"],
], ids=["jmax", "verblunsky-n", "dpii-n", "rtol-zero", "rtol-negative", "rtol-nan",
        "rtol-inf"])
def test_out_of_range_number_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_missing_moment_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verblunsky", "--weight", "custom", "--moments",
             str(tmp_path / "missing.csv"), "--n", "4"])
    assert exc.value.code == 2
    assert "cannot read --moments" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["a,b,c\n0,1,2\n", "j,re,im\n0,6.28\n"],
                         ids=["missing-column", "short-row"])
def test_malformed_moment_file_is_usage_error(tmp_path, text, capsys):
    table = tmp_path / "bad.csv"
    table.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run(["moments", "--weight", "custom", "--moments", str(table), "--jmax", "0"])
    assert exc.value.code == 2
    assert "lacks j, re or im" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["moments", "--jmax", "2"],
                                  ["verblunsky", "--n", "4"],
                                  ["verify", "all", "--n", "2"]],
                         ids=["moments", "verblunsky", "verify"])
def test_custom_table_too_short_is_usage_error(tmp_path, argv, capsys):
    table = tmp_path / "short.csv"
    table.write_text(f"j,re,im\n-1,0,0\n0,{2 * math.pi!r},0\n1,0,0\n")
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--weight", "custom", "--moments", str(table)])
    assert exc.value.code == 2
    assert "must cover |j| <=" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["dpii", "--ell", "2", "--from-moments"],
                                  ["verify", "all", "--grid", "default"]],
                         ids=["from-moments", "grid"])
def test_removed_noop_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


# The tolerance tests/test_acceptance.py pins for the identity behind each
# verify check; the CLI may not be looser (or tighter) than the gate.
ACCEPTANCE_TOLERANCES = {
    "det_unimodular": 1e-8,                     # criterion 4
    "transfer_relation": 1e-8,                  # criterion 4
    "recurrence_phi": 1e-8,                     # criterion 4
    "recurrence_phistar": 1e-8,                 # criterion 4
    "recurrence_g": 1e-8,                       # criterion 4
    "recurrence_gstar": 1e-8,                   # criterion 4
    "value_g_origin": 1e-9,                     # criterion 5
    "value_gstar_origin": 1e-9,                 # criterion 5
    "jump_condition": {"lebesgue": 1e-6, "bessel": 1e-6, "jacobi": 1e-5},  # 4
    "tail_g_leading": 1e-6,                     # criterion 5
    "tail_g_subleading": 1e-6,                  # criterion 5
    "tail_gstar_leading": 1e-6,                 # criterion 5
    "tail_gstar_subleading": 1e-6,              # criterion 5
    "closed_structure_matrix": 1e-6,            # criterion 3
    "curvature_closed": 1e-9,                   # criterion 8
    "curvature_generic": 1e-7,                  # criterion 8
    "curvature_second": 1e-6,                   # criterion 8
    "second_order_generic": 1e-5,               # criterion 7
    "first_order_traceback": 1e-5,              # criterion 7
    "structure_relation_three_term": 1e-9,      # criterion 6
    "structure_relation_weighted": 1e-9,        # criterion 6
    "first_order_phi": 1e-9,                    # criterion 6
    "first_order_phistar": 1e-9,                # criterion 6
    "first_order_g": 1e-7,                      # criterion 7
    "first_order_gstar": 1e-7,                  # criterion 7
    "second_order_phi": 1e-9,                   # criterion 6
    "second_order_phistar": 1e-9,               # criterion 6
    "second_order_g": 1e-6,                     # criterion 7
    "second_order_gstar": 1e-6,                 # criterion 7
    "dpii_relation": 1e-7,                      # criterion 2
}


def test_tolerances_equal_the_acceptance_gate():
    assert TOLERANCES == ACCEPTANCE_TOLERANCES


def test_every_tolerance_belongs_to_a_reported_check(tmp_path):
    rpt = tmp_path / "r.json"
    assert run(["verify", "all", "--weight", "bessel", "--ell", "2", "--n", "3",
                "--report", str(rpt)]) == 0
    assert {c["name"] for c in json.loads(rpt.read_text())["checks"]} == set(TOLERANCES)
