import csv
import json
import math
import warnings

import pytest

from opuc import cli, verify
from opuc.cli import main
from opuc.moments import moments_for
from opuc.szego import verblunsky_from_moments
from opuc.verify import SUITES, TOLERANCES, Suite, standard_grid
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


@pytest.mark.parametrize("flags", [["--lambda", "0.85", "--eta", "0.3", "--n", "8"],
                                   ["--lambda", "-0.3", "--eta", "0", "--n", "6"]],
                         ids=["lambda0.85", "lambda-0.3"])
def test_verify_jacobi_below_lambda_one_passes(tmp_path, flags):
    rpt = tmp_path / "r.json"
    assert run(["verify", "all", "--weight", "jacobi", *flags,
                "--report", str(rpt)]) == 0
    assert json.loads(rpt.read_text())["summary"]["failed"] == 0


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
    # sorted, each check once: the tail checks run at n = 2 and n = nmax,
    # once when they coincide
    rpt = tmp_path / "r.json"
    for n in ("2", "4"):
        run(["verify", "rh", "--weight", "bessel", "--ell", "2", "--n", n,
             "--report", str(rpt)])
        checks = json.loads(rpt.read_text())["checks"]
        keys = [(c["name"], c["n"], c["z"] or "") for c in checks]
        assert keys == sorted(set(keys)), n
        assert {name for name, m, _ in keys if m == 2 and name.startswith("tail_")} == {
            "tail_g_leading", "tail_g_subleading", "tail_gstar_leading", "tail_gstar_subleading"}


def test_standard_grid_avoids_singularities():
    grid = standard_grid(WeightSpec.jacobi(1.0))
    assert len(grid) == 16
    assert all(abs(z - 1.0) >= 0.05 for z in grid)
    radii = {round(abs(z), 6) for z in grid}
    assert radii == {0.4, 2.5}


@pytest.mark.parametrize("spec", ["-1:1e-3", "5:nan", "5:inf", "6:1e-3"],
                         ids=["negative-index", "nan-eps", "inf-eps", "index-past-table"])
def test_perturbation_outside_the_table_or_not_finite_is_usage_error(spec, tmp_path, capsys):
    # the table of --n 4 holds alpha_0..alpha_5; a negative index would
    # count from its end, and a NaN eps would write NaN residuals
    rpt = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run(["verify", "rh", "--weight", "bessel", "--ell", "2", "--n", "4",
             f"--perturb={spec}", "--report", str(rpt)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--perturb expects" in err
    assert "n in 0..5" in err
    assert not rpt.exists()


@pytest.mark.parametrize("n", ["1", "0"])
def test_verify_degree_below_minimum_is_usage_error(n, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "all", "--weight", "bessel", "--ell", "2", "--n", n])
    assert exc.value.code == 2
    assert "--n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["moments", "--weight", "bessel", "--ell", "2", "--jmax", "200"],
    ["verblunsky", "--weight", "bessel", "--ell", "2", "--n", "171"],
    ["dpii", "--ell", "2", "--n", "170"],
], ids=["moments", "verblunsky", "dpii"])
def test_bessel_order_beyond_series_limit_exits_3(argv, capsys):
    assert run(argv) == 3
    assert "|j| <= 170" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verblunsky", "--weight", "bessel", "--ell", "2", "--n", "170"],
    ["dpii", "--ell", "2", "--n", "169"],
], ids=["verblunsky", "dpii"])
def test_bessel_tables_reach_the_series_limit(argv, tmp_path):
    # the tables of degree 170 read the moments up to order 170 only
    assert run([*argv, "--out", str(tmp_path / "t.csv")]) == 0


def test_custom_table_at_the_requested_degree(tmp_path, capsys):
    # a table of |j| <= 12 was refused for --n 12 as not covering |j| <= 14
    table, a, b = tmp_path / "m.csv", tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["moments", "--weight", "bessel", "--ell", "2", "--jmax", "12",
                "--out", str(table)]) == 0
    for n in ("12", "10"):
        assert run(["verblunsky", "--weight", "custom", "--moments", str(table),
                    "--n", n, "--out", str(a)]) == 0
        assert run(["verblunsky", "--weight", "bessel", "--ell", "2",
                    "--n", n, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    with pytest.raises(SystemExit) as exc:
        run(["verblunsky", "--weight", "custom", "--moments", str(table), "--n", "13"])
    assert exc.value.code == 2
    assert "must cover |j| <= 13" in capsys.readouterr().err
    # verify --n 10 builds a table of degree 12, which reads |j| <= 12; it
    # was refused as not covering |j| <= 14, and now reaches the suites,
    # which refuse a moment-only weight
    assert run(["verify", "all", "--weight", "custom", "--moments", str(table),
                "--n", "10"]) == 3
    assert "moment-only" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["verify", "all", "--weight", "custom", "--moments", str(table), "--n", "11"])
    assert exc.value.code == 2
    assert "must cover |j| <= 13" in capsys.readouterr().err


@pytest.mark.parametrize("argv, degree", [
    (["verblunsky", "--weight", "lebesgue", "--n", "100000"], 100000),
    (["verblunsky", "--weight", "jacobi", "--lambda", "1", "--n", "299999"], 299999),
    (["dpii", "--ell", "2", "--n", "4096"], 4097),
    (["verify", "all", "--weight", "bessel", "--ell", "2", "--n", "4095"], 4097),
], ids=["verblunsky", "jacobi-verblunsky", "dpii", "verify"])
def test_table_degree_past_the_bound_is_usage_error(argv, degree, monkeypatch, capsys):
    # the coefficient matrices of such a table would not fit in memory; the
    # bound is checked before any moment is computed
    def refused(w, jmax):
        raise AssertionError("moments computed")

    monkeypatch.setattr(cli, "moments_for", refused)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"table of degree {degree}, above the bound of 4096" in err
    assert "MAX_DEGREE" in err and "Traceback" not in err


def test_table_degree_bound_counts_the_table_each_command_builds(tmp_path, monkeypatch):
    # verblunsky --n n builds degree n, dpii n + 1 and verify n + 2
    monkeypatch.setattr(cli, "MAX_DEGREE", 10)
    out = str(tmp_path / "t")
    bessel = ["--weight", "bessel", "--ell", "2"]
    assert run(["verblunsky", *bessel, "--n", "10", "--out", out]) == 0
    assert run(["dpii", "--ell", "2", "--n", "9", "--out", out]) == 0
    assert run(["verify", "painleve", *bessel, "--n", "8", "--report", out]) == 0
    for argv in (["verblunsky", *bessel, "--n", "11"], ["dpii", "--ell", "2", "--n", "10"],
                 ["verify", "painleve", *bessel, "--n", "9"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


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


@pytest.mark.parametrize("argv", [
    ["moments", "--weight", "bessel", "--ell", "nan", "--jmax", "2"],
    ["moments", "--weight", "bessel", "--ell", "inf", "--jmax", "2"],
    ["moments", "--weight", "jacobi", "--lambda", "nan", "--jmax", "2"],
    ["moments", "--weight", "jacobi", "--lambda", "1", "--eta", "nan", "--jmax", "2"],
    ["verify", "all", "--weight", "jacobi", "--lambda", "inf", "--n", "4"],
    ["dpii", "--ell", "nan", "--n", "4"],
    ["dpii", "--ell", "inf", "--n", "4"],
    ["moments", "--weight", "jacobi", "--lambda", "1", "--eta", "1e3", "--jmax", "2"],
    ["moments", "--weight", "jacobi", "--lambda", "1e308", "--jmax", "2"],
    ["verblunsky", "--weight", "jacobi", "--lambda", "1", "--eta", "800", "--n", "2"],
], ids=["moments-ell-nan", "moments-ell-inf", "moments-lambda-nan", "moments-eta-nan",
        "verify-lambda-inf", "dpii-ell-nan", "dpii-ell-inf", "moments-eta-overflow",
        "moments-lambda-overflow", "verblunsky-eta-overflow"])
def test_non_finite_weight_parameter_is_usage_error(argv, capsys):
    # a NaN ell never met the Bessel series' stop test, a NaN lambda or eta
    # reached the circle rule or 2^20 quadrature nodes, and so did a finite
    # lambda or eta whose weight values overflow, with numpy warnings
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as exc:
        warnings.simplefilter("always")
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["moments", "--weight", "jacobi", "--lambda", "1", "--jmax", "300000"],
], ids=["moments"])
def test_jacobi_degree_beyond_the_node_limit_exits_3(argv, capsys):
    # it raised a ValueError with a traceback (exit 1, the code of failed checks)
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "up to 131072" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--weight", "lebesgue"], ["--weight", "bessel", "--ell", "0"]],
                         ids=["lebesgue", "bessel-0"])
def test_constant_weight_degree_beyond_the_node_limit_exits_3(flags, capsys):
    # the analytic route of the constant weight had no bound: --jmax 10**6
    # wrote a 33 MB table, and memory grew with --jmax
    assert run(["moments", *flags, "--jmax", "131073"]) == 3
    err = capsys.readouterr().err
    assert "up to 131072" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "rh", "--weight", "jacobi", "--lambda", "300", "--eta", "2", "--n", "3"],
    ["verify", "all", "--weight", "jacobi", "--lambda", "400", "--n", "4"],
], ids=["rh", "all"])
def test_overflowing_residual_exits_3(argv, capsys):
    # Matrix2C.frobenius squares entries past 1e154 as Python floats; the
    # OverflowError exited 1, the code of failed checks, with a traceback
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "numerical degeneracy" in err and "Traceback" not in err
    # the message names the command and the weight whose values overflow
    assert f"verify {argv[1]} at weight jacobi(lambda={argv[5]}" in err


@pytest.mark.parametrize("argv, table", [
    (["verify", "rh", "--weight", "bessel", "--ell", "2", "--n", "2", "--perturb", "0:1e308"],
     None),
    (["verblunsky", "--weight", "custom", "--n", "1"],
     "j,re,im\n-1,1e308,0\n0,6.28,0\n1,1e308,0\n"),
], ids=["perturbed", "custom-table"])
def test_alpha_far_outside_the_disk_exits_3_naming_alpha(argv, table, tmp_path, capsys):
    # squaring |alpha_0| overflowed: the Python float of --perturb exited 3
    # with "(34, 'Numerical result out of range')", and the numpy float of
    # the moment route warned
    if table:
        path = tmp_path / "m.csv"
        path.write_text(table)
        argv = [*argv, "--moments", str(path)]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "|alpha_0| = " in err and "leaves the unit disk" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--lambda", "1", "--n", "8"],
    ["moments", "--weight", "lebesgue", "--ell", "2"],
    ["moments", "--weight", "bessel", "--ell", "2", "--eta", "0.5"],
    ["verblunsky", "--weight", "jacobi", "--lambda", "1", "--ell", "2"],
    ["verblunsky", "--weight", "jacobi", "--lambda", "1", "--moments", "table.csv"],
    ["verify", "rh", "--weight", "custom", "--moments", "table.csv", "--lambda", "1"],
], ids=["lebesgue-lambda", "lebesgue-ell", "bessel-eta", "jacobi-ell", "jacobi-moments",
        "custom-lambda"])
def test_weight_flag_the_family_does_not_read_is_usage_error(argv, capsys):
    # with --weight forgotten, verify all --lambda 1 verified the Lebesgue weight
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "does not read" in capsys.readouterr().err


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
], ids=["jmax", "verblunsky-n", "dpii-n"])
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


@pytest.mark.parametrize("content", [f"j,re,im\n0,{'1' * 131073},0\n".encode(), b"\xff\xfej,re"],
                         ids=["field-past-the-csv-limit", "not-utf8"])
def test_moment_file_the_csv_reader_refuses_is_usage_error(content, tmp_path, capsys):
    # the csv module's field limit raised an uncaught _csv.Error (exit 1), and
    # the decoding error of a binary file exited 2 without naming the file
    table = tmp_path / "bad.csv"
    table.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        run(["moments", "--weight", "custom", "--moments", str(table), "--jmax", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(table) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["moments", "--jmax", "2", "--out"],
    ["verblunsky", "--n", "2", "--out"],
    ["dpii", "--ell", "2", "--n", "2", "--out"],
    ["verify", "rh", "--weight", "bessel", "--ell", "2", "--n", "2", "--report"],
], ids=["moments", "verblunsky", "dpii", "verify"])
def test_output_path_that_cannot_be_written_is_usage_error(argv, tmp_path, capsys):
    # a FileNotFoundError ended in a traceback with exit 1, the code of
    # failed checks
    path = tmp_path / "missing" / "out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write {argv[-1]}" in err and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_report_path_that_cannot_be_written_is_refused_before_the_suites(
        where, tmp_path, monkeypatch, capsys):
    # the path was opened only after every suite had run: seconds of work
    # at --n 128 before the exit 2
    def no_suites(*args):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(verify, "run", no_suites)
    monkeypatch.setattr(cli, "run", no_suites)
    path = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    with pytest.raises(SystemExit) as exc:
        run(["verify", "all", "--weight", "lebesgue", "--n", "128", "--report", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write --report" in err and str(path) in err


def test_run_that_fails_leaves_an_existing_report_as_it_was(tmp_path, capsys):
    # the path is checked, not opened, before the suites
    report = tmp_path / "r.json"
    report.write_text("earlier report\n")
    assert run(["verify", "rh", "--weight", "jacobi", "--lambda", "300", "--eta", "2",
                "--n", "3", "--report", str(report)]) == 3
    assert report.read_text() == "earlier report\n"


@pytest.mark.parametrize("argv, message", [
    (["moments", "--weight", "jacobi", "--jmax", "2"], "--weight jacobi requires --lambda"),
    (["moments", "--weight", "custom", "--jmax", "2"],
     "--weight custom requires --moments <file.csv>"),
    (["moments", "--weight", "custom", "--moments", "EMPTY", "--jmax", "2"],
     "empty moment file"),
    (["moments", "--weight", "bessel", "--ell", "2", "--jmax", "6"], None),
    (["verblunsky", "--weight", "jacobi", "--lambda", "1.3", "--eta", "0.4", "--n", "6"], None),
    (["dpii", "--ell", "2", "--n", "6"], None),
], ids=["jacobi-without-lambda", "custom-without-moments", "empty-moment-file",
        "moments-to-stdout", "verblunsky-to-stdout", "dpii-to-stdout"])
def test_weight_flag_errors_and_csv_to_stdout(argv, message, tmp_path, capsysbinary):
    # a missing weight flag or an empty moment file is a usage error; a table
    # without --out goes to stdout, the bytes --out writes
    empty = tmp_path / "empty.csv"
    empty.write_text("j,re,im\n")
    argv = [str(empty) if a == "EMPTY" else a for a in argv]
    if message is not None:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"error: {message}\n" in capsysbinary.readouterr().err.decode()
        return
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 0
    assert run(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_repeated_moment_index_is_usage_error(tmp_path, capsys):
    # a second row for j = 0 replaced the first, and the command printed
    # c_0 = 1.0 and exited 0
    table = tmp_path / "dup.csv"
    table.write_text(f"j,re,im\n0,{2 * math.pi!r},0\n0,1.0,0\n")
    with pytest.raises(SystemExit) as exc:
        run(["moments", "--weight", "custom", "--moments", str(table), "--jmax", "0"])
    assert exc.value.code == 2
    assert "lists index 0 twice" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [["verblunsky", "--n", "2"],
                                  ["verify", "all", "--n", "2"]],
                         ids=["verblunsky", "verify"])
@pytest.mark.parametrize("c0, cm1, message", [
    (2 * math.pi, 0.5 - 0.5j, "not Hermitian"),     # c_1 = 0.5 - 0.5j
    (-1.0, 0.5 + 0.5j, "not positive"),
], ids=["not-hermitian", "c0-not-positive"])
def test_table_not_from_a_positive_measure_is_usage_error(tmp_path, argv, c0, cm1,
                                                          message, capsys):
    values = {j: 0j for j in range(-6, 7)}
    values.update({-1: cm1, 0: complex(c0), 1: 0.5 - 0.5j})
    table = tmp_path / "bad.csv"
    table.write_text("j,re,im\n" + "".join(f"{j},{c.real!r},{c.imag!r}\n"
                                          for j, c in values.items()))
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--weight", "custom", "--moments", str(table)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_quadrature_table_read_back_is_accepted(tmp_path):
    # a Jacobi table from the moment quadrature differs from Hermitian by
    # rounding only, and runs as a custom weight
    table = tmp_path / "jacobi.csv"
    assert run(["moments", "--weight", "jacobi", "--lambda", "1.3", "--eta", "0.4",
                "--jmax", "20", "--out", str(table)]) == 0
    assert run(["verblunsky", "--weight", "custom", "--moments", str(table),
                "--n", "18", "--out", str(tmp_path / "a.csv")]) == 0


# --rtol: the quadrature tolerance is the module constant cauchy.RTOL
@pytest.mark.parametrize("argv", [["dpii", "--ell", "2", "--from-moments"],
                                  ["verify", "all", "--grid", "default"],
                                  ["verify", "all", "--n", "4", "--rtol", "1e-12"]],
                         ids=["from-moments", "grid", "rtol"])
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
    # each check is declared in exactly one entry of one suite's table
    names = [name for table in SUITES.values() for check in table for name in check.names]
    assert sorted(names) == sorted(set(names)) == sorted(TOLERANCES)


@pytest.mark.parametrize("name", ["rh", "structure", "painleve"])
def test_library_suite_equals_the_cli_report(name, capsys):
    # opuc.verify runs a suite without argparse; its report is the CLI's
    w, nmax = WeightSpec.bessel(2.0), 3
    suite = Suite(verify.meta(w, nmax, name), w.kind)
    verify.run(suite, name, verblunsky_from_moments(moments_for(w, nmax + 2), nmax + 2),
               w, nmax)
    assert suite.checks
    assert run(["verify", name, "--weight", "bessel", "--ell", "2", "--n", str(nmax)]) == 0
    assert capsys.readouterr().out == cli._report_json(suite.report()) + "\n"


@pytest.mark.parametrize("argv", [
    ["rh", "--weight", "bessel", "--ell", "2", "--n", "3"],
    ["structure", "--weight", "jacobi", "--lambda", "1.3", "--eta", "0.4", "--n", "3"],
    ["painleve", "--weight", "bessel", "--ell", "2", "--n", "4"],
    ["painleve", "--weight", "jacobi", "--lambda", "1.3", "--eta", "0.4", "--n", "4"],
    ["all", "--weight", "bessel", "--ell", "2", "--n", "3", "--perturb", "2:1e-3"],
], ids=["rh", "structure", "painleve", "painleve_no_checks", "all_failing"])
def test_report_writer_equals_json_dumps(argv, tmp_path, capsys, monkeypatch):
    reports = []
    writer = cli._report_json
    monkeypatch.setattr(cli, "_report_json", lambda r: reports.append(r) or writer(r))
    rpt = tmp_path / "r.json"
    code = run(["verify", *argv, "--report", str(rpt)])
    assert run(["verify", *argv]) == code
    text = json.dumps(reports[0], sort_keys=True, indent=2) + "\n"
    assert rpt.read_text() == text
    assert capsys.readouterr().out == text
    assert reports[0] == reports[1]


def test_report_writer_spells_special_floats_as_json_does():
    suite = Suite({"weight": "bessel(ell=2)", "nmax": 2, "rtol": 1e-12}, "bessel")
    for residual, z in ((math.nan, None), (math.inf, 0.4 + 0j), (-math.inf, None),
                        (-0.0, -2.5 - 1e-17j), (5e-324, None), (1e16, 1j)):
        suite.add("det_unimodular", 1, residual, z)
    report = suite.report()
    assert cli._report_json(report) == json.dumps(report, sort_keys=True, indent=2)


def test_report_template_has_the_keys_a_check_has():
    suite = Suite({}, "bessel")
    suite.add("dpii_relation", 2, 0.0)
    assert json.loads(cli._check_json(suite.checks[0])) == suite.checks[0]
