import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opuc import moments
from opuc.errors import AccuracyError, OpucError, ParameterRangeError
from opuc.moments import (
    BESSEL_MAX_ORDER,
    MomentTable,
    bessel_i_series,
    bessel_moments_analytic,
    moments_for,
    moments_quadrature,
)
from opuc.szego import verblunsky_from_moments
from opuc.weights import WeightSpec

# reference values, 10-digit: I_0(2), I_1(2), I_0(0.5)
I0_2 = 2.2795853023
I1_2 = 1.5906368546
I0_HALF = 1.0634833707


def test_bessel_series_reference_values():
    assert bessel_i_series(0, 2.0) == pytest.approx(I0_2, abs=1e-10)
    assert bessel_i_series(1, 2.0) == pytest.approx(I1_2, abs=1e-10)
    assert bessel_i_series(0, 0.5) == pytest.approx(I0_HALF, abs=1e-10)
    assert bessel_i_series(-1, 2.0) == bessel_i_series(1, 2.0)


def test_lebesgue_moments():
    c = moments_for(WeightSpec.lebesgue(), 4)
    assert c.c0 == pytest.approx(2.0 * math.pi)
    assert all(c.get(j) == 0.0 for j in range(-4, 5) if j != 0)


def test_bessel_analytic_vs_quadrature():
    w = WeightSpec.bessel(2.0)
    ca = bessel_moments_analytic(2.0, 8)
    cq = moments_quadrature(w, 8)
    for j in range(-8, 9):
        assert abs(ca.get(j) - cq.get(j)) < 1e-10 * abs(ca.c0)


def test_bessel_first_moment_value():
    c = moments_for(WeightSpec.bessel(2.0), 2)
    assert c.get(1).real == pytest.approx(2.0 * math.pi * I1_2, abs=1e-8)
    assert abs(c.get(1).imag) < 1e-12


def test_jacobi_quadrature_hermitian():
    w = WeightSpec.jacobi(1.0 + 0.5j)
    c = moments_quadrature(w, 10)
    assert c.hermitian_defect() == 0.0          # c_{-j} = conj(c_j) by construction
    # T_6 is positive definite iff c_0 > 0 and |alpha_k| < 1 for k < 6
    assert c.c0 > 0
    verblunsky_from_moments(c, 6)


@pytest.mark.parametrize("b", [-0.49 + 0.3j, -0.38 + 0.4j, -0.12 - 0.7j, 0.13 + 0.2j,
                               0.5 + 0.3j, 0.86 - 0.3j, 1.9 + 0.6j])
def test_jacobi_moments_match_gamma_ratio(b):
    # c_j = (-1)^j 2 pi Gamma(1+b+conj b) / (Gamma(1+b-j) Gamma(1+conj b+j))
    mpmath = pytest.importorskip("mpmath")
    jmax = 141
    c = moments_for(WeightSpec.jacobi(b), jmax)
    bb = b.conjugate()
    with mpmath.workdps(30):
        mass = 2 * mpmath.pi * mpmath.gamma(1 + b + bb)
        exact = {j: (-1) ** j * complex(mass / (mpmath.gamma(1 + b - j)
                                                * mpmath.gamma(1 + bb + j)))
                 for j in range(-jmax, jmax + 1)}
    assert max(abs(c.get(j) - e) for j, e in exact.items()) < 1e-12 * c.c0


def test_quadrature_matches_slow_sum():
    # direct midpoint sum as an independent oracle for the moment pass
    w = WeightSpec.bessel(1.0)
    c = moments_quadrature(w, 3)
    N = 4096
    theta = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
    vals = np.exp(np.cos(theta))
    for j in (-2, 0, 3):
        direct = (2.0 * math.pi / N) * np.sum(np.exp(-1j * j * theta) * vals)
        assert abs(c.get(j) - direct) < 1e-10


def test_table_validation():
    with pytest.raises(ValueError):
        MomentTable(1, 3, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        MomentTable(-1, 1, (1.0, 2.0))
    t = MomentTable(-1, 1, (1.0, 2.0, 1.0))
    with pytest.raises(IndexError):
        t.get(5)


def test_csv_round_trip(tmp_path):
    w = WeightSpec.bessel(2.0)
    c = moments_for(w, 5)
    path = tmp_path / "moments.csv"
    c.to_csv(path)
    back = MomentTable.from_csv(path)
    assert back.jmin == c.jmin and back.jmax == c.jmax
    assert all(back.get(j) == c.get(j) for j in range(-5, 6))


def test_csv_gap_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("j,re,im\n0,6.28,0.0\n2,1.0,0.0\n")
    with pytest.raises(ValueError):
        MomentTable.from_csv(path)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 5.0), st.integers(0, 6))
def test_moment_symmetry_bessel(ell, j):
    # real even weight: c_{-j} = c_j, real
    c = bessel_moments_analytic(ell, 8)
    assert c.get(-j) == c.get(j)
    assert c.get(j).imag == 0.0


def _jacobi_mass(lam: float) -> float:
    return 2.0 * math.pi * math.gamma(1.0 + 2.0 * lam) / math.gamma(1.0 + lam) ** 2


@pytest.mark.parametrize("lam, jmax, nodes", [(-0.499, 0, 512), (-0.499, 1, 1024),
                                              (-0.49, 0, 512), (-0.49, 1, 512)])
def test_low_lambda_table_is_a_pass_compared_with_half_its_nodes(lam, jmax, nodes):
    # the weight is mirror-symmetric, so c_0 sums to the same over the even
    # and the odd nodes of a pass; each pass is compared with a pass of half
    # the nodes, and the table returned is the pass at the pinned count
    w = WeightSpec.jacobi(lam)
    c = moments_quadrature(w, jmax)
    assert c.source == f"quadrature({nodes})"
    assert c.values == tuple(moments._quadrature_pass(w, jmax, nodes))
    assert abs(c.c0 - _jacobi_mass(lam)) < 1e-12 * _jacobi_mass(lam)


def test_unconverged_first_pass_of_a_symmetric_weight_is_not_returned(monkeypatch):
    # from 16 nodes, the pass at 32, the first that may be returned, is off
    # by 4e-7 in c_0 and is compared with the pass at 16; doubling goes on
    # until c_0 is right
    monkeypatch.setattr(moments, "DEFAULT_N", 16)
    w = WeightSpec.jacobi(-0.45)
    mass = _jacobi_mass(-0.45)
    assert abs(moments._quadrature_pass(w, 0, 32)[0] - mass) > 1e-7 * mass
    c = moments_quadrature(w, 0)
    assert c.source == "quadrature(256)"
    assert abs(c.c0 - mass) < 1e-14 * mass


def test_accuracy_error_reported(monkeypatch):
    # a weight this rough cannot converge to an absurd tolerance; the passes
    # double up to NMAX_NODES and no further, and the error names the node
    # count of the last pass, the one it measured
    monkeypatch.setattr(moments, "MOMENT_RTOL", 1e-16)
    monkeypatch.setattr(moments, "NMAX_NODES", 1 << 12)
    passes = []
    run_pass = moments._quadrature_pass

    def recorded(w, jmax, N):
        passes.append(N)
        return run_pass(w, jmax, N)

    monkeypatch.setattr(moments, "_quadrature_pass", recorded)
    with pytest.raises(AccuracyError, match="at N=4096") as exc:
        moments_quadrature(WeightSpec.jacobi(-0.49), 4)
    assert passes == [256, 512, 1024, 2048, 4096]
    assert exc.value.nodes == 4096


def test_node_limit_below_the_starting_count_rejected(monkeypatch):
    # one comparison takes two passes, so the largest degree is the one
    # whose starting count, 4 jmax nodes, fits half the limit
    monkeypatch.setattr(moments, "NMAX_NODES", 1 << 12)
    w = WeightSpec.jacobi(1.0)
    with pytest.raises(ParameterRangeError, match="up to 512, got 513.*at 4096 nodes, above 2048"):
        moments_quadrature(w, 513)
    assert moments_quadrature(w, 512).jmax == 512
    # a start equal to the limit is refused; at half the limit it takes
    # one doubling
    monkeypatch.setattr(moments, "NMAX_NODES", 256)
    with pytest.raises(ParameterRangeError, match="start at 256 nodes, above 128"):
        moments_quadrature(w, 4)
    monkeypatch.setattr(moments, "NMAX_NODES", 512)
    assert moments_quadrature(w, 4).source == "quadrature(512)"


@pytest.mark.parametrize("ell", [math.nan, -1.0])
def test_bessel_analytic_rejects_ell_not_at_least_zero(ell):
    # a NaN ell never met the series' stop test
    with pytest.raises(ValueError, match="ell"):
        bessel_moments_analytic(ell, 2)


def test_bessel_series_order_limit():
    assert 0.0 < bessel_i_series(BESSEL_MAX_ORDER, 2.0) < 1e-300
    with pytest.raises(ParameterRangeError, match="170"):
        bessel_i_series(BESSEL_MAX_ORDER + 1, 2.0)
    with pytest.raises(OpucError):
        bessel_moments_analytic(60.0, 4)


def test_bessel_ell_zero_past_the_order_limit_is_the_lebesgue_table():
    # I_j(0) = [j == 0] at every order, so ell = 0 has no order limit
    jmax = BESSEL_MAX_ORDER + 30
    c = moments_for(WeightSpec.bessel(0.0), jmax)
    assert c == moments_for(WeightSpec.lebesgue(), jmax)
    assert c.values == tuple(2.0 * math.pi if j == 0 else 0.0 for j in range(-jmax, jmax + 1))
