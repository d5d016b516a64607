"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Tolerances here are pinned; loosening them is a release
decision, not a test fix."""

import cmath
import json
import math

import numpy as np
import pytest

from opuc.cauchy import cauchy_G, cauchy_Gstar, g_recurrence_residuals, laurent_tail
from opuc.cli import main as cli_main
from opuc.painleve import dpii_residual
from opuc.rh import (
    assemble_Y,
    transfer_recurrence_residuals,
    jump_residual,
    structure_matrix_numeric,
    transfer_residual,
)
from opuc.structure import (
    curvature_residual_closed,
    curvature_residual_generic,
    first_order_residuals,
    generic_second_order_residual,
    mtilde,
    second_curvature_residual,
    second_order_residuals,
    structure_relation_residuals,
    traceback_residual,
)
from opuc.szego import jacobi_alpha_ratio_residual, phi1_closed_jacobi, phi_pair
from opuc.verify import standard_grid

JACOBI_CASES = (("jacobi1", 1.0 + 0.0j), ("jacobi_complex", 1.0 + 0.5j))


@pytest.fixture
def announce(capsys, request):
    label = {"test_criterion_" + k: v for k, v in {
        "01_lebesgue_oracle": "criterion 1 (Lebesgue oracle)",
        "02_bessel_dpii": "criterion 2 (Bessel dPII residuals)",
        "03_closed_vs_numeric": "criterion 3 (closed vs numeric structure matrix)",
        "04_rh_identities": "criterion 4 (RH identities and jump)",
        "05_values_and_tails": "criterion 5 (origin values and Laurent tails)",
        "06_polynomial_identities": "criterion 6 (polynomial differential identities)",
        "07_g_identities": "criterion 7 (second-kind differential identities)",
        "08_zero_curvature": "criterion 8 (zero-curvature and sensitivity)",
        "09_jacobi_closed_forms": "criterion 9 (Jacobi closed forms)",
        "10_determinism": "criterion 10 (report determinism)",
    }.items()}[request.node.originalname or request.node.name]

    yield
    with capsys.disabled():
        print(f"[PASS] {label}")


def grid_for(w):
    return standard_grid(w)


def test_criterion_01_lebesgue_oracle(lebesgue, announce):
    w, _, v = lebesgue
    assert max(abs(a) for a in v.alphas[:13]) < 1e-12
    for n in range(13):
        p = phi_pair(v, n)
        target = np.zeros(n + 1, dtype=complex)
        target[-1] = 1.0
        assert np.max(np.abs(p.phi - target)) < 1e-13
    zin, zout = 0.4 * cmath.exp(0.9j), 2.5 * cmath.exp(2.2j)
    for n in (1, 6, 12):
        assert abs(cauchy_G(v, w, n, zin) - 1.0) < 1e-10
        assert abs(cauchy_G(v, w, n, zout)) < 1e-10
        assert abs(cauchy_Gstar(v, w, n, zout) + zout ** -n) < 1e-10
        assert abs(assemble_Y(v, w, n, zout).det() - 1.0) < 1e-10


def test_criterion_02_bessel_dpii(bessel2, bessel_half, announce):
    for (_, _, v), ell in ((bessel_half, 0.5), (bessel2, 2.0)):
        alphas = [a.real for a in v.alphas]
        for n in range(2, 13):
            assert dpii_residual(alphas, ell, n) < 1e-7


def test_criterion_03_closed_vs_numeric(bessel2, jacobi1, jacobi_complex,
                                        announce, request):
    w, _, v = bessel2
    for n in range(2, 9):
        for z in grid_for(w):
            M = structure_matrix_numeric(v, w, n, z)
            assert (mtilde(v, w, n, z) - M.scale(z * z)).frobenius() < 1e-6
    for fixture, b in JACOBI_CASES:
        w, _, v = request.getfixturevalue(fixture)
        for n in range(2, 9):
            for z in grid_for(w):
                M = structure_matrix_numeric(v, w, n, z)
                diff = mtilde(v, w, n, z) - M.scale(z * (1.0 - z))
                assert diff.frobenius() < 1e-6


def test_criterion_04_rh_identities(bessel2, jacobi_complex, announce):
    jump_points = [cmath.exp(1j * (k + 0.5) * math.pi / 4) for k in range(8)]
    for w, _, v in (bessel2, jacobi_complex):
        zs = (grid_for(w)[1], grid_for(w)[9])
        jump_tol = 1e-5 if w.kind == "jacobi" else 1e-6
        for n in range(1, 11):
            for z in zs:
                assert abs(assemble_Y(v, w, n, z).det() - 1.0) < 1e-8
                assert transfer_residual(v, w, n, z) < 1e-8
                assert max(transfer_recurrence_residuals(v, w, n, z)) < 1e-8
        for n in (1, 5, 10):
            for t in jump_points:
                assert jump_residual(v, w, n, t) < jump_tol


def test_criterion_05_values_and_tails(bessel2, announce):
    w, _, v = bessel2
    for n in range(1, 11):
        assert abs(cauchy_G(v, w, n, 0.0) - 1.0 / v.b[n]) < 1e-9
        assert abs(cauchy_Gstar(v, w, n, 0.0)
                   - v.alphas[n - 1] / v.b[n - 1]) < 1e-9
    for n in (2, 6, 10):
        g, gs = laurent_tail(v, w, n)
        an, an1 = v.alpha(n).conjugate(), v.alpha(n + 1).conjugate()
        assert abs(g[0] + an / v.b[n]) < 1e-6
        assert abs(g[1] - (an / v.b[n] * v.phi1[n + 1] - an1 / v.b[n + 1])) < 1e-6
        assert abs(gs[0] + 1.0 / v.b[n - 1]) < 1e-6
        assert abs(gs[1] - v.phi1[n] / v.b[n - 1]) < 1e-6


def test_criterion_06_polynomial_identities(bessel2, jacobi1, jacobi_complex,
                                            announce, request):
    w, _, v = bessel2
    z = 2.5 * cmath.exp(0.6j)
    for n in range(2, 11):
        assert max(structure_relation_residuals(v, w, n)) < 1e-9
        fo = first_order_residuals(v, w, n, z)
        so = second_order_residuals(v, w, n, z)
        assert fo[0] < 1e-9 and fo[2] < 1e-9
        assert so[0] < 1e-9 and so[2] < 1e-9
    for fixture, b in JACOBI_CASES:
        w, _, v = request.getfixturevalue(fixture)
        for n in range(1, 11):
            assert max(structure_relation_residuals(v, w, n)) < 1e-9
            fo = first_order_residuals(v, w, n, z)
            hg = second_order_residuals(v, w, n, z)
            assert fo[0] < 1e-9 and fo[2] < 1e-9
            assert hg[0] < 1e-9 and hg[2] < 1e-9


def test_criterion_07_g_identities(bessel2, jacobi_complex, announce):
    w, _, v = bessel2
    for n in (2, 5, 8):
        for z in grid_for(w):
            fo = first_order_residuals(v, w, n, z)
            so = second_order_residuals(v, w, n, z)
            assert fo[1] < 1e-7 and fo[3] < 1e-7
            assert so[1] < 1e-6 and so[3] < 1e-6
    wj, _, vj = jacobi_complex
    for n in (2, 5, 8):
        for z in grid_for(wj):
            fo = first_order_residuals(vj, wj, n, z)
            hg = second_order_residuals(vj, wj, n, z)
            assert fo[1] < 1e-7 and fo[3] < 1e-7
            assert hg[1] < 1e-6 and hg[3] < 1e-6
    for w, _, v in (bessel2, jacobi_complex):
        for z in (grid_for(w)[2], grid_for(w)[10]):
            assert generic_second_order_residual(v, w, 4, z) < 1e-5
            assert traceback_residual(v, w, 4, z) < 1e-5


def test_criterion_08_zero_curvature(bessel2, jacobi_complex, announce):
    w, _, v = bessel2
    for n in (2, 5, 8):
        for z in (grid_for(w)[3], grid_for(w)[11]):
            assert curvature_residual_generic(v, w, n, z) < 1e-7
            assert curvature_residual_closed(v, w, n, z) < 1e-9
            assert second_curvature_residual(v, w, n, z) < 1e-6
    wj, _, vj = jacobi_complex
    for n in (2, 5, 8):
        for z in (grid_for(wj)[3], grid_for(wj)[11]):
            assert curvature_residual_closed(vj, wj, n, z) < 1e-9
    # sensitivity: a 1e-3 shift in one alpha must be visible
    vp = v.perturbed(5, 1e-3)
    z = grid_for(w)[3]
    worst = max(curvature_residual_closed(vp, w, n, z) for n in (4, 5, 6))
    assert worst > 1e-4


def test_criterion_09_jacobi_closed_forms(jacobi1, jacobi_complex, announce,
                                          request):
    for fixture, b in JACOBI_CASES:
        _, _, v = request.getfixturevalue(fixture)
        for n in range(1, 11):
            assert jacobi_alpha_ratio_residual(v, b, n) < 1e-9
            assert phi1_closed_jacobi(v, b, n) < 1e-9


def test_criterion_10_determinism(tmp_path, announce):
    flags = ["verify", "all", "--weight", "bessel", "--ell", "2", "--n", "6"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(flags + ["--report", str(a)]) == 0
    assert cli_main(flags + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["summary"]["failed"] == 0
