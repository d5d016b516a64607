import cmath
import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opuc import szego
from opuc.errors import DegenerateMeasureError, ParameterRangeError
from opuc.moments import MomentTable, moments_for
from opuc.szego import (
    MAX_DEGREE,
    VerblunskyTable,
    jacobi_alpha_ratio_residual,
    orthogonality_defect,
    phi_pair,
    verblunsky_from_moments,
)
from opuc.verify import standard_grid
from opuc.weights import WeightSpec

# alpha_0 = c_1 / c_0 = I_1(2)/I_0(2) for the exponential-of-cosine weight
ALPHA0_BESSEL2 = 0.6977746579640080


def test_lebesgue_alphas_vanish():
    v = verblunsky_from_moments(moments_for(WeightSpec.lebesgue(), 14), 12)
    assert max(abs(a) for a in v.alphas) < 1e-14
    p = phi_pair(v, 5)
    assert np.allclose(p.phi, [0, 0, 0, 0, 0, 1])
    assert np.allclose(p.phistar, [1, 0, 0, 0, 0, 0])


def test_bessel_alpha0_reference(bessel2):
    _, _, v = bessel2
    assert v.alphas[0].real == pytest.approx(ALPHA0_BESSEL2, abs=1e-12)
    assert all(abs(a.imag) < 1e-12 for a in v.alphas)


def test_kappa_recursion(bessel2):
    _, c, v = bessel2
    assert v.kappa2[0] == pytest.approx(1.0 / c.c0)
    for n, a in enumerate(v.alphas):
        assert v.kappa2[n] / v.kappa2[n + 1] == pytest.approx(1.0 - abs(a) ** 2)
        assert v.b[n] == pytest.approx(2.0 * math.pi * v.kappa2[n])


def test_orthogonality(bessel2):
    _, c, v = bessel2
    for n in range(6):
        for m in range(n + 1):
            assert orthogonality_defect(v, c, n, m) < 1e-9


def test_alpha_from_constant_coefficient(bessel2):
    # the recurrence coefficient is minus the conjugated constant coefficient
    _, _, v = bessel2
    for n in range(1, 8):
        p = phi_pair(v, n)
        assert abs(v.alphas[n - 1] + p.phi[0].conjugate()) < 1e-12


def test_subleading_coefficient_table(bessel2):
    _, _, v = bessel2
    for n in range(1, 8):
        p = phi_pair(v, n)
        assert abs(v.phi1[n] - p.phi[n - 1]) < 1e-12


def _phi1_sum(alphas):
    """Phi_1^n = sum_{j<n} conj(alpha_j) alpha_{j-1}, alpha_{-1} = -1, for
    n = 0..len(alphas), summed in index order."""
    phi1, acc = [0j], 0j
    for j, a in enumerate(alphas):
        acc += a.conjugate() * (-1.0 if j == 0 else alphas[j - 1])
        phi1.append(acc)
    return phi1


PHI1_TABLES = {
    "bessel(2.2)": lambda: verblunsky_from_moments(moments_for(WeightSpec.bessel(2.2), 40), 40),
    "jacobi(1.3+0.4i)": lambda: verblunsky_from_moments(
        moments_for(WeightSpec.jacobi(1.3 + 0.4j), 40), 40),
    "from_alphas": lambda: VerblunskyTable.from_alphas(
        [0.6 * cmath.exp(0.7j * k) / (1.0 + k / 10.0) for k in range(40)], 1.0),
    "perturbed": lambda: verblunsky_from_moments(
        moments_for(WeightSpec.jacobi(0.5 + 0.3j), 40), 40).perturbed(5, 1e-3 + 2e-3j),
}


@pytest.mark.parametrize("case", list(PHI1_TABLES))
def test_phi1_is_read_off_the_coefficient_rows(case):
    # Phi_1^n is the entry of z^{n-1} in row n of the coefficient matrix; it
    # equals the sum over the alphas that the recursion adds up in that entry
    v = PHI1_TABLES[case]()
    assert v.nmax == 40 and len(v.phi1) == 41
    assert v.phi1[0] == 0
    sums = _phi1_sum(v.alphas)
    for n in range(1, v.nmax + 1):
        assert v.phi1[n] == phi_pair(v, n).phi[n - 1]
        assert type(v.phi1[n]) is complex
        assert abs(v.phi1[n] - sums[n]) < 1e-14


def test_degree_above_the_bound_refused_before_allocation(monkeypatch):
    # two (nmax + 1)^2 complex matrices: 0.5 GiB at MAX_DEGREE, 550 GB at
    # the Jacobi moment quadrature's limit
    c = moments_for(WeightSpec.lebesgue(), MAX_DEGREE + 1)
    alphas = [0j] * (MAX_DEGREE + 1)

    def allocate(*args, **kwargs):
        raise AssertionError("coefficient matrices allocated")

    monkeypatch.setattr(szego.np, "zeros", allocate)
    with pytest.raises(ParameterRangeError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        verblunsky_from_moments(c, MAX_DEGREE + 1)
    with pytest.raises(ParameterRangeError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        VerblunskyTable.from_alphas(alphas, 1.0)


def test_reciprocal_is_reversed_conjugate(jacobi_complex):
    _, _, v = jacobi_complex
    for n in range(7):
        p = phi_pair(v, n)
        assert np.allclose(p.phistar, np.conj(p.phi[::-1]))


def test_jacobi_closed_forms(jacobi_complex):
    from opuc.szego import jacobi_alpha_ratio_residual, phi1_closed_jacobi
    _, _, v = jacobi_complex
    b = 1.0 + 0.5j
    for n in range(1, 11):
        assert jacobi_alpha_ratio_residual(v, b, n) < 1e-9
        assert phi1_closed_jacobi(v, b, n) < 1e-9


def test_scale_invariance():
    # scaling the measure leaves the recurrence coefficients unchanged
    c = moments_for(WeightSpec.bessel(1.0), 10)
    v1 = verblunsky_from_moments(c, 6)
    scaled = MomentTable(c.jmin, c.jmax, tuple(7.5 * x for x in c.values))
    v2 = verblunsky_from_moments(scaled, 6)
    assert max(abs(a - b) for a, b in zip(v1.alphas, v2.alphas)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=6))
def test_from_alphas_round_trip(alphas):
    v = VerblunskyTable.from_alphas(alphas, 1.0 / (2.0 * math.pi))
    assert v.nmax == len(alphas)
    p = phi_pair(v, len(alphas))
    assert abs(p.phi[-1] - 1.0) < 1e-12  # monic
    # szego recurrence reproduces the stored alphas
    for n in range(len(alphas)):
        assert abs(v.alphas[n] + phi_pair(v, n + 1).phi[0].conjugate()) < 1e-9


def test_perturbed_table(bessel2):
    _, _, v = bessel2
    vp = v.perturbed(3, 1e-3)
    assert abs(vp.alphas[3] - v.alphas[3] - 1e-3) < 1e-15
    assert vp.alphas[2] == v.alphas[2]
    assert vp.kappa2[3] == v.kappa2[3]
    assert vp.kappa2[4] != v.kappa2[4]


@pytest.mark.parametrize("n", [-1, 2])
def test_perturbation_index_outside_the_table_rejected(n):
    # a negative n used to perturb alpha_{nmax + n}
    v = VerblunskyTable.from_alphas([0.3, 0.2], 1.0)
    with pytest.raises(IndexError):
        v.perturbed(n, 0.1)
    assert v.perturbed(1, 0.1).alphas == (0.3, 0.2 + 0.1)


@pytest.mark.parametrize("c0", [0.0, -1.0])
def test_table_without_positive_mass_rejected(c0):
    with pytest.raises(ValueError, match="c_0"):
        verblunsky_from_moments(MomentTable(-2, 2, (0, 0, c0, 0, 0)), 2)


def test_degenerate_alpha_rejected():
    with pytest.raises(DegenerateMeasureError):
        VerblunskyTable.from_alphas([0.5, 1.0], 1.0)


def test_nan_alpha_rejected_by_from_alphas():
    with pytest.raises(DegenerateMeasureError):
        VerblunskyTable.from_alphas([0.3, math.nan], 1.0)


@pytest.mark.parametrize("alpha, spelled", [(1.5, "1.5"), (1e100, "1e+100"), (1e308, "1e+308")])
def test_alpha_outside_the_disk_is_named_in_bounded_digits(alpha, spelled):
    # |alpha|^2 of a Python float overflowed past about 1.3e154, with a message
    # that did not name alpha, and :.15f spelled 1e100 with 101 integer digits
    with pytest.raises(DegenerateMeasureError, match=re.escape(f"|alpha_1| = {spelled} leaves")):
        VerblunskyTable.from_alphas([0.5, alpha], 1.0)


def test_moment_route_alpha_far_outside_the_disk_rejected_without_a_warning():
    # c_0 > 0 and Hermitian, so the table passes as a positive measure's;
    # alpha_0 = c_1 / c_0 = 1.6e307, whose numpy square warned of an overflow
    table = MomentTable(-1, 1, (1e308, 6.28, 1e308))
    with pytest.raises(DegenerateMeasureError, match=r"\|alpha_0\| = 1.5923566878980891e\+307"):
        verblunsky_from_moments(table, 1)


def test_nan_perturbation_rejected():
    v = VerblunskyTable.from_alphas([0.3, 0.2], 1.0)
    with pytest.raises(DegenerateMeasureError):
        v.perturbed(0, math.nan)


def test_nan_moments_rejected():
    # c_0 = 1 passes the mass check; alpha_0 comes out as nan + nanj
    with pytest.raises(DegenerateMeasureError):
        verblunsky_from_moments(MomentTable(-2, 2, (0.1, math.nan, 1.0, math.nan, 0.1)), 2)


def test_alpha_seed():
    v = VerblunskyTable.from_alphas([0.2], 1.0)
    assert v.alpha(-1) == -1.0
    assert v.alpha(0) == 0.2


def _pairs_from_alphas(alphas):
    """Reference: the from-alphas loop phi_pair ran before tables kept pairs."""
    phi = np.array([1.0 + 0.0j])
    phistar = np.array([1.0 + 0.0j])
    pairs = [(phi, phistar)]
    for a in alphas:
        phi_next = np.concatenate(([0.0], phi)) - a.conjugate() * np.pad(phistar, (0, 1))
        phistar_next = np.pad(phistar, (0, 1)) - a * np.concatenate(([0.0], phi))
        phi, phistar = phi_next, phistar_next
        pairs.append((phi, phistar))
    return pairs


@pytest.mark.parametrize("perturb", [False, True], ids=["moments", "perturbed"])
def test_stored_pairs_equal_reference_loop(bessel2, perturb):
    _, _, v = bessel2
    if perturb:
        v = v.perturbed(5, 1e-3)
    reference = _pairs_from_alphas(v.alphas)
    assert len(reference) == v.nmax + 1
    for n, (phi, phistar) in enumerate(reference):
        p = phi_pair(v, n)
        assert p.n == n
        assert np.array_equal(p.phi, phi)
        assert np.array_equal(p.phistar, phistar)


def test_stored_pairs_are_read_only(bessel2):
    _, _, v = bessel2
    p = phi_pair(v, 4)
    with pytest.raises(ValueError):
        p.phi[0] = 0.0
    with pytest.raises(ValueError):
        p.phistar[-1] = 0.0


def test_phi_pair_range_checked(bessel2):
    _, _, v = bessel2
    phi_pair(v, v.nmax)
    for n in (-1, v.nmax + 1):
        with pytest.raises(ValueError):
            phi_pair(v, n)


# -- the recursion on arrays against the scalar loop ------------------------

HIGH_DEGREE = 160


def _poisson_moments(r, phi, jmax):
    # c_j = 2 pi r^|j| e^{-i j phi} for the Poisson kernel centred at e^{i phi}
    return MomentTable(-jmax, jmax, tuple(2.0 * math.pi * r ** abs(j) * complex(
        math.cos(j * phi), -math.sin(j * phi)) for j in range(-jmax, jmax + 1)))


HIGH_DEGREE_CASES = {
    "bessel(2.2)": lambda: moments_for(WeightSpec.bessel(2.2), HIGH_DEGREE),
    "jacobi(1.3+0.4i)": lambda: moments_for(WeightSpec.jacobi(1.3 + 0.4j), HIGH_DEGREE),
    "jacobi(-0.3+0.5i)": lambda: moments_for(WeightSpec.jacobi(-0.3 + 0.5j), HIGH_DEGREE),
    "jacobi(0.5+0.3i)": lambda: moments_for(WeightSpec.jacobi(0.5 + 0.3j), HIGH_DEGREE),
    "jacobi(1.9-0.6i)": lambda: moments_for(WeightSpec.jacobi(1.9 - 0.6j), HIGH_DEGREE),
    "lebesgue": lambda: moments_for(WeightSpec.lebesgue(), HIGH_DEGREE),
    "poisson(0.5, 1)": lambda: _poisson_moments(0.5, 1.0, HIGH_DEGREE),
    # signed zeros: the scalar sum's start from 0 turns -0.0 into 0.0
    "negative zeros": lambda: MomentTable(-HIGH_DEGREE, HIGH_DEGREE, tuple(
        2.0 * math.pi if j == 0 else -0.0 - 0.0j
        for j in range(-HIGH_DEGREE, HIGH_DEGREE + 1))),
}


@functools.lru_cache(maxsize=None)
def _high_degree(case):
    c = HIGH_DEGREE_CASES[case]()
    return c, verblunsky_from_moments(c, HIGH_DEGREE)


def _scalar_loop(c, nmax):
    """Reference: the scalar moment sums and padded-array steps
    verblunsky_from_moments ran before the recursion moved onto arrays.
    Returns the alphas, kappa^2 and the (Phi_n, Phi_n^*) arrays."""
    kappa2 = [1.0 / c.c0]
    alphas = []
    phi = phistar = np.array([1.0 + 0.0j])
    pairs = [(phi, phistar)]
    for n in range(nmax):
        s = sum(phi[k] * c.get(-(k + 1)) for k in range(n + 1))
        alpha = (kappa2[-1] * s).conjugate()
        shifted, padded = np.concatenate(([0.0], phi)), np.pad(phistar, (0, 1))
        phi, phistar = shifted - alpha.conjugate() * padded, padded - alpha * shifted
        pairs.append((phi, phistar))
        alphas.append(complex(alpha))
        kappa2.append(kappa2[-1] / (1.0 - abs(alpha) ** 2))
    return alphas, kappa2, pairs


def _assert_table_equals(v, alphas, kappa2, pairs):
    assert v.alphas == tuple(alphas)
    assert repr(v.alphas) == repr(tuple(alphas))    # signs of zeros too
    assert v.kappa2 == tuple(kappa2)
    assert v.b == tuple(2.0 * math.pi * k for k in kappa2)
    assert v.phi1 == tuple(_phi1_sum(alphas))
    assert len(pairs) == v.nmax + 1
    for n, (phi, phistar) in enumerate(pairs):
        p = phi_pair(v, n)
        assert np.array_equal(p.phi, phi)
        assert np.array_equal(p.phistar, phistar)


@pytest.mark.parametrize("case", ["bessel(2.2)", "jacobi(1.3+0.4i)", "jacobi(-0.3+0.5i)",
                                  "lebesgue", "poisson(0.5, 1)", "negative zeros"])
def test_high_degree_table_equals_scalar_loop(case):
    c, v = _high_degree(case)
    _assert_table_equals(v, *_scalar_loop(c, HIGH_DEGREE))


def test_each_constructor_keeps_its_scalar_types():
    # every constructor gives kappa^2 and b as Python floats: the moment
    # path's recursion runs in numpy scalars, and a numpy float left in the
    # table would make every product with b_n downstream a numpy scalar
    c, v = _high_degree("bessel(2.2)")
    tables = {"verblunsky_from_moments": v,
              "from_alphas": VerblunskyTable.from_alphas(v.alphas, v.kappa2[0]),
              "perturbed": v.perturbed(5, 1e-3)}
    for name, table in tables.items():
        assert all(type(k) is float for k in table.kappa2 + table.b), name
    assert tables["from_alphas"].kappa2 == v.kappa2 and tables["from_alphas"].b == v.b


def test_high_degree_perturbed_table_equals_scalar_loop():
    _, v = _high_degree("bessel(2.2)")
    vp = v.perturbed(5, 1e-3)
    alphas = list(v.alphas)
    alphas[5] += 1e-3
    kappa2 = [v.kappa2[0]]
    for a in alphas:
        kappa2.append(kappa2[-1] / (1.0 - abs(a) ** 2))
    _assert_table_equals(vp, alphas, kappa2, _pairs_from_alphas(alphas))


@pytest.mark.parametrize("b", [1.3 + 0.4j, 0.5 + 0.3j, -0.3 + 0.5j, 1.9 - 0.6j])
def test_jacobi_alpha_ratio_at_high_degree(b):
    _, v = _high_degree(f"jacobi({b.real:g}{b.imag:+g}i)")
    assert max(jacobi_alpha_ratio_residual(v, b, n) for n in range(1, HIGH_DEGREE)) < 1e-10


@pytest.mark.parametrize("fixture", ["bessel2", "jacobi_complex"])
def test_derivative_evaluation_equals_polyval(fixture, request):
    w, _, v = request.getfixturevalue(fixture)
    P = np.polynomial.polynomial
    for n in range(v.nmax + 1):
        p = phi_pair(v, n)
        for z in standard_grid(w):    # inner and outer radii
            for order in (0, 1, 2):
                assert p.eval_phi_deriv(z, order) == complex(
                    P.polyval(z, P.polyder(p.phi, order)))
                assert p.eval_phistar_deriv(z, order) == complex(
                    P.polyval(z, P.polyder(p.phistar, order)))


def test_derivative_cache_outside_equality_and_repr():
    alphas = [0.3 + 0.1j, -0.2j, 0.4]
    v1 = VerblunskyTable.from_alphas(alphas, 1.0)
    v2 = VerblunskyTable.from_alphas(alphas, 1.0)
    for p in v1.polys:
        p.eval_phi_deriv(0.5, 2)
    assert [f.name for f in dataclasses.fields(v1.polys[0])] == ["n", "phi", "phistar"]
    assert v1 == v2 and repr(v1) == repr(v2)
    assert v1.polys[0] == v2.polys[0]
    assert repr(v1.polys[3]) == repr(v2.polys[3])


def test_pair_equality_compares_coefficients():
    v1 = VerblunskyTable.from_alphas([0.3, 0.2j, 0.1], 1.0)
    v2 = VerblunskyTable.from_alphas([0.3, 0.2j, 0.1], 1.0)
    vp = v1.perturbed(1, 1e-3)
    for n in range(4):
        assert v1.polys[n] == v2.polys[n]
        assert v1.polys[n] is not v2.polys[n]
    assert v1.polys[2] != vp.polys[2]
    assert v1.polys[2] != v1.polys[1]
    assert (v1.polys[2] == v1.polys[2].phi) is False
    assert (v1.polys[2] == "Phi_2") is False
    with pytest.raises(TypeError):
        hash(v1.polys[2])
    # the table's equality and repr still leave the pairs out
    assert v1 == v2 and repr(v1) == repr(v2)
    assert "polys" not in repr(v1)
