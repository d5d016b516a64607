import cmath
import collections
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from opuc import cauchy, cli
from opuc.cauchy import (
    N0,
    NMAX,
    SUBTRACT_BAND,
    cauchy_G,
    cauchy_Gstar,
    g_recurrence_residuals,
    laurent_tail,
)
from opuc.errors import AccuracyError, NearBoundaryError
from opuc.moments import moments_for, moments_quadrature
from opuc.rh import jump_residual
from opuc.szego import phi_pair, verblunsky_from_moments
from opuc.weights import WeightSpec, circle_rule, eval_nu

_P = np.polynomial.polynomial

INSIDE = 0.4 * cmath.exp(1j * 0.7)
OUTSIDE = 2.5 * cmath.exp(1j * 2.1)


def test_lebesgue_closed_forms(lebesgue):
    # with unit weight the transform is 1 inside, 0 outside, and the
    # reciprocal transform is -z^{-n} outside
    _, _, v = lebesgue
    w = lebesgue[0]
    for n in (1, 4, 9):
        assert abs(cauchy_G(v, w, n, INSIDE) - 1.0) < 1e-12
        assert abs(cauchy_G(v, w, n, OUTSIDE)) < 1e-12
        assert abs(cauchy_Gstar(v, w, n, OUTSIDE) + OUTSIDE ** -n) < 1e-12


def test_origin_values(bessel2):
    w, _, v = bessel2
    for n in range(1, 11):
        assert abs(cauchy_G(v, w, n, 0.0) - 1.0 / v.b[n]) < 1e-12
        assert abs(cauchy_Gstar(v, w, n, 0.0) - v.alphas[n - 1] / v.b[n - 1]) < 1e-12


def test_recurrences(bessel2, jacobi_complex):
    for w, _, v in (bessel2, jacobi_complex):
        for z in (INSIDE, OUTSIDE):
            for n in (1, 3, 6):
                r1, r2 = g_recurrence_residuals(v, w, n, z)
                assert r1 < 1e-12
                assert r2 < 1e-12


def test_derivatives_against_finite_differences(bessel2):
    w, _, v = bessel2
    n, z, h = 4, OUTSIDE, 1e-5
    dG, dGs = cauchy_G(v, w, n, z, order=1), cauchy_Gstar(v, w, n, z, order=1)
    fd_G = (cauchy_G(v, w, n, z + h) - cauchy_G(v, w, n, z - h)) / (2 * h)
    fd_Gs = (cauchy_Gstar(v, w, n, z + h) - cauchy_Gstar(v, w, n, z - h)) / (2 * h)
    assert abs(dG - fd_G) < 1e-8
    assert abs(dGs - fd_Gs) < 1e-8


def test_second_derivatives_against_finite_differences(jacobi1):
    w, _, v = jacobi1
    n, z, h = 3, INSIDE, 1e-4
    d2G, d2Gs = cauchy_G(v, w, n, z, order=2), cauchy_Gstar(v, w, n, z, order=2)
    fd = (cauchy_G(v, w, n, z + h) - 2 * cauchy_G(v, w, n, z)
          + cauchy_G(v, w, n, z - h)) / h ** 2
    fds = (cauchy_Gstar(v, w, n, z + h) - 2 * cauchy_Gstar(v, w, n, z)
           + cauchy_Gstar(v, w, n, z - h)) / h ** 2
    assert abs(d2G - fd) < 1e-6
    assert abs(d2Gs - fds) < 1e-6


def test_laurent_tail_lebesgue(lebesgue):
    w, _, v = lebesgue
    g, gs = laurent_tail(v, w, 3)
    assert np.allclose(g, 0.0, atol=1e-12)           # alphas vanish
    assert abs(gs[0] + 1.0) < 1e-12                  # -z^{-n} leading term
    assert np.allclose(gs[1:], 0.0, atol=1e-12)


def test_laurent_tail_bessel(bessel2):
    w, _, v = bessel2
    n = 3
    g, gs = laurent_tail(v, w, n)
    an = v.alphas[n].conjugate()
    an1 = v.alphas[n + 1].conjugate()
    assert abs(g[0] + an / v.b[n]) < 1e-9
    assert abs(g[1] - (an / v.b[n] * v.phi1[n + 1] - an1 / v.b[n + 1])) < 1e-9
    assert abs(gs[0] + 1.0 / v.b[n - 1]) < 1e-9
    assert abs(gs[1] - v.phi1[n] / v.b[n - 1]) < 1e-9
    # the leading and subleading coefficients only, those the rh suite reads
    assert g.shape == gs.shape == (2,)


def _sampled_tail(w, nmax, n, R=3.0, kmax=1, samples=128):
    """Reference Laurent coefficients from transforms sampled on |z| = R,
    converged to 1e-14 on a fresh table of degree nmax: the memo does not
    key on the tolerance, so a shared table would return 1e-12 values.

    The coefficient c_m of z^{-m} is R^m times the m-th discrete Fourier
    coefficient of the samples; the factor R^m amplifies every sample error.
    """
    zs = R * np.exp(2j * math.pi * np.arange(samples) / samples)

    def coeff(values, m):
        phase = np.exp(2j * math.pi * m * np.arange(samples) / samples)
        return complex(R ** m * np.mean(values * phase))

    v = _fresh(w, nmax)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cauchy, "RTOL", 1e-14)
        gv = np.array([cauchy_G(v, w, n, z) for z in zs])
        gsv = np.array([cauchy_Gstar(v, w, n, z) for z in zs])
    return (np.array([coeff(gv, n + 1 + k) for k in range(kmax + 1)]),
            np.array([coeff(gsv, n + k) for k in range(kmax + 1)]))


def test_laurent_tail_matches_sampled_reference(bessel2, jacobi_complex):
    for w, _, v in (bessel2, jacobi_complex):
        g, gs = laurent_tail(v, w, 3)
        g_ref, gs_ref = _sampled_tail(w, v.nmax, 3)
        assert np.max(np.abs(g - g_ref)) < 1e-10
        assert np.max(np.abs(gs - gs_ref)) < 1e-10


@pytest.mark.parametrize("w", [WeightSpec.bessel(2.0), WeightSpec.jacobi(1.3 + 0.4j)],
                         ids=["bessel2", "jacobi_complex"])
@pytest.mark.parametrize("n", [16, 20, 24, 28])
def test_laurent_tail_high_degree(w, n):
    # the leading and subleading tail identities of the rh suite
    v = verblunsky_from_moments(moments_for(w, n + 2), n + 2)
    g, gs = laurent_tail(v, w, n)
    a_n, a_n1 = v.alphas[n].conjugate(), v.alphas[n + 1].conjugate()
    residuals = (
        abs(g[0] + a_n / v.b[n]),
        abs(g[1] - (a_n / v.b[n] * v.phi1[n + 1] - a_n1 / v.b[n + 1])),
        abs(gs[0] + 1.0 / v.b[n - 1]),
        abs(gs[1] - v.phi1[n] / v.b[n - 1]),
    )
    assert max(residuals) < 1e-6


@pytest.mark.parametrize("ell", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [16, 24, 32, 40])
def test_szego_limit_of_the_bessel_weight(ell, n):
    # the Szego function of e^{ell cos theta} is D(z) = e^{ell z/2}, D(0) = 1:
    # Phi*_n -> 1/D, 2 pi kappa_n^2 -> 1 and G_n -> D inside, with errors like
    # sum_{k >= n} |alpha_k|, below rounding here.  G*_{n-1} -> -D(1/z) z^-n
    # outside is not checked: the quadrature's absolute floor swamps it
    w = WeightSpec.bessel(ell)
    v = verblunsky_from_moments(moments_for(w, n), n)
    z = 0.4 * cmath.exp(1j * math.pi / 4)
    d = cmath.exp(ell * z / 2.0)
    residuals = (abs(phi_pair(v, n).eval_phistar_deriv(z, 0) * d - 1.0),
                 abs(2.0 * math.pi * v.kappa2[n] - 1.0),
                 abs(cauchy_G(v, w, n, z) / d - 1.0))
    assert max(residuals) <= (1e-15 if ell <= 2.0 else 5e-14)


@dataclass(frozen=True)
class RotatedBesselFactor:
    """e^{ell cos(theta - phi)} = exp(ell (z/a + a/z) / 2), a = e^{i phi}: the
    Bessel factor rotated by phi, duck-typed as a weights factor."""

    ell: float
    phi: float
    kind = "rotated-bessel"
    label = property(lambda self: f"rotated-bessel(ell={self.ell:g}, phi={self.phi:g})")
    singular_points = (0j,)
    mirror_symmetric = False

    def values(self, theta, dist):
        return np.exp(self.ell * np.cos(theta - self.phi))

    def nu(self, z):
        a = cmath.exp(1j * self.phi)
        return cmath.exp(self.ell * (z / a + a / z) / 2.0)


def test_rotated_weight_is_covariant():
    # rotating the weight by phi: alpha_n -> e^{-i(n+1)phi} alpha_n, Phi_n(z) ->
    # e^{in phi} Phi_n(e^{-i phi} z), G_n(z) -> G_n(e^{-i phi} z) and G*_{n-1}(z) ->
    # e^{-in phi} G*_{n-1}(e^{-i phi} z).  phi = 0.3 maps no node onto a node; the
    # rotated weight's moments come from the quadrature, the weight's from its series
    ell, phi, nmax = 2.0, 0.3, 16
    w = WeightSpec.bessel(ell)
    v = verblunsky_from_moments(moments_for(w, nmax), nmax)
    w_rot = WeightSpec((RotatedBesselFactor(ell, phi),))
    v_rot = verblunsky_from_moments(moments_quadrature(w_rot, nmax), nmax)
    turn = cmath.exp(-1j * phi)
    for n in range(nmax):
        assert abs(v_rot.alphas[n] - turn ** (n + 1) * v.alphas[n]) <= 5e-15
    for n in range(nmax + 1):
        phi_n, phi_rot = phi_pair(v, n).phi, phi_pair(v_rot, n).phi
        assert np.max(np.abs(phi_rot - turn ** -(n - np.arange(n + 1)) * phi_n)) <= 1e-14
    for n in (4, 8, 12):     # G_n outside sits on the quadrature's floor by n = 8
        inside = cauchy_G(v, w, n, turn * INSIDE)
        assert abs(cauchy_G(v_rot, w_rot, n, INSIDE) - inside) <= 1e-11 * abs(inside)
        outside = turn ** n * cauchy_Gstar(v, w, n, turn * OUTSIDE)
        assert abs(cauchy_Gstar(v_rot, w_rot, n, OUTSIDE) - outside) <= 1e-11 * abs(outside)


@pytest.mark.parametrize("z", [2.5 * cmath.exp(1j * math.pi / 4),
                               (1 + 5e-5) * cmath.exp(1j * math.pi / 8),
                               (1 - 5e-5) * cmath.exp(1j * math.pi / 8)],
                         ids=["outside", "jump_outer", "jump_inner"])
def test_graded_transform_matches_mpmath_quad(z):
    # the Jacobi weight at lambda = 1/2 vanishes like |theta| at theta = 0,
    # where the midpoint rule converges only like N^-2
    mpmath = pytest.importorskip("mpmath")
    b, n = 0.5 + 0.3j, 3
    w = WeightSpec.jacobi(b)
    v = _fresh(w, 8)
    phi = phi_pair(v, n).phi
    with mpmath.workdps(30):
        def integrand(theta):
            t = mpmath.expj(theta)
            weight = (abs(2 * mpmath.sin(theta / 2)) ** (2 * b.real)
                      * mpmath.exp(-b.imag * (theta - mpmath.pi)))
            return mpmath.polyval(phi[::-1].tolist(), t) * weight * t ** (1 - n) / (t - z)

        a = math.pi / 8
        exact = complex(mpmath.quad(integrand, [0, a - 0.01, a, a + 0.01, 2 * mpmath.pi])
                        / (2 * mpmath.pi))
    assert abs(cauchy_G(v, w, n, z) - exact) < 1e-14 * max(1.0, abs(exact))


def test_region_classification_and_refusal(bessel2):
    # a value next to the circle is admitted and computed by subtraction;
    # only the circle itself is refused
    w, _, v = bessel2
    for z in (1.001, 0.99 * cmath.exp(2.0j)):
        assert cauchy_G(v, w, 2, z) == _reference_transform(
            w, phi_pair(v, 2).phi, 2, z, subtract=True)[0]
        assert cauchy_Gstar(v, w, 2, z) == _reference_transform(
            w, phi_pair(v, 1).phistar, 2, z, subtract=True)[0]
    for transform in (cauchy_G, cauchy_Gstar):
        with pytest.raises(NearBoundaryError):
            transform(v, w, 2, cmath.exp(0.3j))


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_in_the_band_refused_in_boundary_mode(bessel2, order):
    # derivatives have no singularity subtraction, so they are refused next
    # to the circle, where values are admitted
    w, _, v = bessel2
    for transform in (cauchy_G, cauchy_Gstar):
        for z in (1.001, 0.99 * cmath.exp(2.0j)):
            with pytest.raises(NearBoundaryError):
                transform(v, w, 2, z, order=order)


@pytest.mark.parametrize("order", [-1, 3])
def test_derivative_order_outside_range_rejected(bessel2, order):
    w, _, v = bessel2
    for transform in (cauchy_G, cauchy_Gstar):
        with pytest.raises(ValueError, match="order"):
            transform(v, w, 2, OUTSIDE, order=order)


def _reference_samples(w, coeffs, n, N):
    """The nodes t, Jacobians J and integrand samples p(t) nu(t) J / t^n of
    one polynomial on the N-point circle rule, by polyval."""
    theta, nu, jac = circle_rule(w, N)
    t = np.exp(1j * theta)
    return t, jac, _P.polyval(t, coeffs) * nu / t ** n


def _reference_transform(w, coeffs, n, z, order=0, subtract=None, nmax=NMAX, halved=None):
    """Reference: the uncached transform of one polynomial on the circle rule,
    or its z-derivative of the given order, with node doubling: each level
    from N0 nodes on is checked against the level before, and the first one
    with halved=True against the sum over its even nodes instead;
    halved=False is the two-level rule, whose first level, N0 / 2 nodes, is
    only compared with.  By default halved holds for a weight without mirror
    symmetry.  Returns (value, nodes, residual); value is None for a
    transform that does not converge by nmax nodes."""
    z = complex(z)
    if subtract is None:
        subtract = order == 0 and SUBTRACT_BAND[0] < abs(z) < SUBTRACT_BAND[1]
    gz = 0.0 + 0.0j
    if subtract:
        gz = complex(_P.polyval(z, coeffs)) * eval_nu(w, z) / z ** n

    def eval_at(N):
        """The N-point value and its even-node half, the sum over the even
        nodes divided by N / 2."""
        t, jac, g = _reference_samples(w, coeffs, n, N)
        if subtract:
            prod = (g - gz * jac) * t / (t - z)
            sums = np.sum(prod) / N, np.sum(prod[::2]) / (N // 2)
            return tuple(complex(s + gz) if abs(z) < 1.0 else complex(s) for s in sums)
        scale = 2.0 if order == 2 else 1.0
        # the kernel is named, not a temporary: numpy computes a product with
        # a temporary operand of 256 KiB or more in place, which can round
        # differently, as the program's product with a stored kernel does not
        kernel = t / (t - z) ** (order + 1)
        prod = g * kernel
        return (complex(scale * np.sum(prod) / N),
                complex(scale * np.sum(prod[::2]) / (N // 2)))

    if halved is None:
        halved = not w.mirror_symmetric()
    if halved:
        N = N0
        cur, prev = eval_at(N)
    else:
        N = N0 // 2
        prev = eval_at(N)[0]
        N *= 2
        cur = eval_at(N)[0]
    while True:
        resid = abs(cur - prev)
        if resid <= cauchy.RTOL * max(1.0, abs(cur)):
            return cur, N, resid
        if N >= nmax:
            return None, N, resid
        N *= 2
        prev, cur = cur, eval_at(N)[0]


def _coefficients(v, kind, n):
    return phi_pair(v, n).phi if kind == "G" else phi_pair(v, n - 1).phistar


def _degrees(v, kind):
    """Every degree of kind the table holds: G_0..G_nmax, G*_0..G*_nmax."""
    first = 0 if kind == "G" else 1
    return range(first, first + v.nmax + 1)


def _swept(v):
    """The keys n a pass off the subtraction band converges for both kinds,
    the ones verify reads: G_n and G*_{n-1} for n = 1..nmax - 1."""
    return range(1, v.nmax)


def _fresh(w, nmax=10):
    return verblunsky_from_moments(moments_for(w, nmax + 2), nmax)


BAND = 1.1 * cmath.exp(1j * 0.9)   # inside the subtraction band, off the refusal band


@pytest.mark.parametrize("z", [INSIDE, OUTSIDE, BAND, OUTSIDE + 1e-4, BAND - 1e-4],
                         ids=["inside", "outside", "band", "outside_fd", "band_fd"])
def test_transforms_equal_uncached_reference(z):
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    n = 4
    phi, star = phi_pair(v, n).phi, phi_pair(v, n - 1).phistar
    G = _reference_transform(w, phi, n, z)[0]
    Gs = _reference_transform(w, star, n, z)[0]
    d = tuple(_reference_transform(w, p, n, z, order=1, subtract=False)[0] for p in (phi, star))
    d2 = tuple(_reference_transform(w, p, n, z, order=2, subtract=False)[0] for p in (phi, star))
    for _ in ("cold", "warm"):
        assert cauchy_G(v, w, n, z) == G
        assert cauchy_Gstar(v, w, n, z) == Gs
        assert (cauchy_G(v, w, n, z, order=1), cauchy_Gstar(v, w, n, z, order=1)) == d
        assert (cauchy_G(v, w, n, z, order=2), cauchy_Gstar(v, w, n, z, order=2)) == d2
    q = v.quadrature[w]
    # every request off the subtraction band converged the swept keys of both
    # kinds at (z, order); a subtracted value, its own degree of both kinds
    band = SUBTRACT_BAND[0] < abs(z) < SUBTRACT_BAND[1]
    z = complex(z)
    columns = {(kind, m, z, order)
               for kind in ("G", "Gstar") for m in _swept(v)
               for order in ((1, 2) if band else (0, 1, 2))}
    subtracted = {(kind, n, z, 0) for kind in ("G", "Gstar")}
    assert set(q.memo) == (columns | subtracted if band else columns)
    # recomputed from the stored integrand samples, the only arrays stored:
    # one block per level, the 22 interleaved rows of both kinds
    assert q.integrands and all(m.shape == (2 * (v.nmax + 1), N)
                                for (N, _), m in q.integrands.items())
    q.memo.clear()
    assert cauchy_G(v, w, n, z) == G
    assert cauchy_Gstar(v, w, n, z) == Gs
    assert (cauchy_G(v, w, n, z, order=1), cauchy_Gstar(v, w, n, z, order=1)) == d
    assert (cauchy_G(v, w, n, z, order=2), cauchy_Gstar(v, w, n, z, order=2)) == d2


def _jump_points(t):
    """The four points of the jump check at circle point t."""
    return [z for d in (5e-5, 2.5e-5) for z in ((1.0 - d) * t, (1.0 + d) * t)]


def test_interleaved_rows_equal_polyval_rows_across_blocks(monkeypatch):
    # with three rows a block, blocks start at even and at odd rows, and the
    # rows G*_{n-1} and G_n, which share the power t^n, fall in two blocks
    # for n = 3 (rows 5 and 6) and in one for n = 4 (rows 7 and 8)
    monkeypatch.setattr(cauchy, "_rows_per_pass", lambda N: 3)
    w = WeightSpec.jacobi(1.0 + 0.5j)
    v = _fresh(w, 8)
    q = cauchy._quadrature(v, w)
    for N in (256, 512):
        for kind in ("G", "Gstar"):
            for n in _degrees(v, kind):
                reference = _reference_samples(w, _coefficients(v, kind, n), n, N)[2]
                assert q.row(kind, n, N).tobytes() == reference.tobytes(), (kind, n, N)
        assert [len(q.integrands[N, b]) for b in range(6)] == [3] * 6


@pytest.mark.parametrize("w", [WeightSpec.bessel(2.0), WeightSpec.jacobi(1.0 + 0.5j)],
                         ids=["bessel2", "jacobi_complex"])
def test_batched_band_memo_equals_reference(monkeypatch, w):
    # one pass converges G_n and G*_{n-1} at band points inside and outside
    # the circle, the jump check's four among them, and each memoized result
    # is that of the transform converged alone
    monkeypatch.setattr(cauchy, "_rows_per_pass", lambda N: 3)
    calls = _counting_transforms(monkeypatch)
    v = _fresh(w, 8)
    zs = _jump_points(cmath.exp(0.9j)) + [BAND, 0.9 * cmath.exp(2.0j)]
    for n in (3, 4):
        cauchy.converge_band(v, w, n, zs)
        assert len(calls[-1]) == 2 * len(zs)
        for z in zs:
            for kind in ("G", "Gstar"):
                reference = _reference_transform(w, _coefficients(v, kind, n), n, z,
                                                 subtract=True)
                assert v.quadrature[w].memo[kind, n, complex(z), 0] == reference
        cauchy.converge_band(v, w, n, zs)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="band"):
        cauchy.converge_band(v, w, 3, [OUTSIDE])
    with pytest.raises(NearBoundaryError):
        cauchy.converge_band(v, w, 3, [cmath.exp(0.3j)])


def test_jump_check_is_one_pass(monkeypatch):
    # the jump check converges its four points in one pass, and reads them
    calls = _counting_transforms(monkeypatch)
    w = WeightSpec.jacobi(1.0 + 0.5j)
    v = _fresh(w)
    t, n = cmath.exp(1j * 2.3), 6
    r = jump_residual(v, w, n, t)
    assert len(calls) == 1
    assert calls[0] == [(kind, n, z) for z in _jump_points(t) for kind in ("Gstar", "G")]
    assert jump_residual(v, w, n, t) == r and len(calls) == 1


def test_perturbed_copy_does_not_reuse_original_values():
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    before = cauchy_G(v, w, 6, OUTSIDE)
    vp = v.perturbed(5, 1e-3)
    assert vp.quadrature == {}
    after = cauchy_G(vp, w, 6, OUTSIDE)
    assert after == _reference_transform(w, phi_pair(vp, 6).phi, 6, OUTSIDE)[0]
    assert after != before


def test_evaluation_state_outside_equality_and_repr():
    w = WeightSpec.bessel(2.0)
    v1, v2 = _fresh(w), _fresh(w)
    cauchy_G(v1, w, 2, OUTSIDE)
    assert v1 == v2
    assert repr(v1) == repr(v2)


def test_integrand_store_stays_within_one_finest_pass():
    # the order-1 kernel next to the circle needs 2^12 nodes, so the
    # integrand matrix of both kinds, 22 rows at 256..4096 nodes, fills
    # 174592 samples, more than the store holds; the store keeps the most
    # recent blocks that fit: the one at 4096 nodes
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    z = 1.021 * cmath.exp(0.4j)
    for n in range(2, 11):
        cauchy_G(v, w, n, z, order=1)
        cauchy_Gstar(v, w, n, z, order=1)
    q = v.quadrature[w]
    assert q.samples == sum(g.size for g in q.integrands.values())
    assert q.samples <= NMAX
    assert list(q.integrands) == [(4096, 0)]
    phi = phi_pair(v, 2).phi
    reference = _reference_transform(w, phi, 2, z, order=1, subtract=False)[0]
    assert cauchy_G(v, w, 2, z, order=1) == reference
    q.memo.clear()
    assert cauchy_G(v, w, 2, z, order=1) == reference
    assert q.samples == sum(g.size for g in q.integrands.values())
    assert q.samples <= NMAX


@pytest.mark.parametrize("flags", [["--weight", "bessel", "--ell", "2", "--n", "8"],
                                   ["--weight", "jacobi", "--lambda", "1.3", "--n", "8"],
                                   ["--weight", "jacobi", "--lambda", "-0.45",
                                    "--eta", "0.3", "--n", "12"]],
                         ids=["bessel2-n8", "jacobi-eta0-n8", "jacobi-low-lambda-n12"])
def test_verify_memo_equals_per_row_reference(flags, tmp_path, monkeypatch):
    # every transform a verify run memoizes, at every point of its grid, has
    # the value, nodes and residual of the same transform converged alone,
    # and the value and nodes of the two-level rule, whose first level,
    # N0 / 2 nodes, is only compared with; a mirror-symmetric weight keeps
    # that rule
    tables = []

    def build(*args):
        tables.append(verblunsky_from_moments(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "verblunsky_from_moments", build)
    assert cli.main(["verify", "all", *flags, "--report", str(tmp_path / "r.json")]) == 0
    (v,) = tables
    ((w, q),) = v.quadrature.items()
    columns = collections.defaultdict(dict)
    # the memo also holds Y_n, M_n, M_n', the transfer defect, the
    # closed-form Mtilde_n and its first-order system P, keyed apart
    assert {key[0] for key in q.memo} == {"G", "Gstar", "Y", "M", "dM", "Tdefect",
                                          "Mtilde", "P"}
    for key, result in q.memo.items():
        if key[0] not in ("G", "Gstar"):
            continue
        kind, n, z, order = key
        reference = _reference_transform(w, _coefficients(v, kind, n), n, z, order)
        assert result == reference, key
        two_level = _reference_transform(w, _coefficients(v, kind, n), n, z, order,
                                         halved=False)
        assert result[:2] == two_level[:2], key
        # a level after the first is compared with the level before by both
        if result[1] >= 2 * N0:
            assert result[2] == two_level[2], key
        columns[kind, z, order][n] = result[1]
    # without mirror symmetry no pass evaluated fewer than N0 = 512 nodes:
    # every level's nodes are kept, and no integrand block below them was
    # built; with it each pass started at N0 / 2
    first = N0 // 2 if w.mirror_symmetric() else N0
    assert N0 == 512 and min(q.nodes) == first
    assert all(N >= first for N, _ in q.integrands)
    # off the band a pass converges the keys verify reads, and no other
    for (kind, z, order), rows in columns.items():
        if not (order == 0 and SUBTRACT_BAND[0] < abs(z) < SUBTRACT_BAND[1]):
            assert set(rows) == set(_swept(v))
    if w.kind == "jacobi" and w.factors[0].lam < 0:
        # rows of one column converge at different levels
        assert {512, 1024} in [set(rows.values()) for rows in columns.values()]


@pytest.mark.parametrize("flags", [["--weight", "bessel", "--ell", "2", "--n", "8"],
                                   ["--weight", "jacobi", "--lambda", "1", "--eta", "0.5",
                                    "--n", "8"],
                                   ["--weight", "jacobi", "--lambda", "-0.45",
                                    "--eta", "0.3", "--n", "12"]],
                         ids=["bessel2-n8", "jacobi-n8", "jacobi-low-lambda-n12"])
def test_check_lines_do_not_depend_on_shared_passes(flags, tmp_path):
    # run alone, the suites share quadrature passes between other sets of
    # transforms than verify all does; every check line is the same either way
    def checks(suite):
        report = tmp_path / f"{suite}.json"
        cli.main(["verify", suite, *flags, "--report", str(report)])
        return json.loads(report.read_text())["checks"]

    alone = checks("rh") + checks("structure") + checks("painleve")
    alone.sort(key=lambda c: (c["name"], c["n"], c["z"] or ""))
    assert alone == checks("all")


def test_row_that_does_not_converge_fails_alone(monkeypatch):
    # with the finest level lowered to 512 nodes, the three top rows of this
    # G* column, which need 1024, cannot converge: G*_14 in the swept pass,
    # whose fourteen other G* rows can, and G*_15 and G*_16 in passes of their own
    monkeypatch.setattr(cauchy, "NMAX", 512)
    w = WeightSpec.jacobi(-0.45 + 0.3j)
    v = _fresh(w, 16)
    z = 0.4 * cmath.exp(1j * math.pi / 4)
    references = {n: _reference_transform(w, _coefficients(v, "Gstar", n), n, z, nmax=512)
                  for n in _degrees(v, "Gstar")}
    failing = [n for n, (value, _, _) in references.items() if value is None]
    assert failing == [v.nmax - 1, v.nmax, v.nmax + 1]
    for _ in ("cold", "warm"):
        for n, (value, nodes, residual) in references.items():
            if n in failing:
                with pytest.raises(AccuracyError) as exc:
                    cauchy_Gstar(v, w, n, z)
                assert (exc.value.residual, exc.value.nodes) == (residual, nodes)
                assert residual > cauchy.RTOL
            else:
                assert cauchy_Gstar(v, w, n, z) == value
    # the errors are memoized with the values: every G* key was asked for,
    # G_1..G_{nmax - 1} with the swept pass and G_nmax with G*_nmax
    memo = v.quadrature[w].memo
    assert {key[1] for key in memo if key[0] == "Gstar"} == set(references)
    assert {key[1] for key in memo if key[0] == "G"} == set(range(1, v.nmax + 1))
    assert [key[1] for key, result in memo.items()
            if isinstance(result, AccuracyError)] == failing


@pytest.mark.parametrize("w, nmax, z", [(WeightSpec.bessel(15.0), 10, 2.5),
                                        (WeightSpec.jacobi(-0.45 + 0.3j), 16,
                                         0.4 * cmath.exp(1j * math.pi / 4))],
                         ids=["bessel15", "jacobi-low-lambda"])
def test_first_level_that_is_also_the_last(monkeypatch, w, nmax, z):
    # with the finest level lowered to the first, each row is checked once,
    # against the level of N0 / 2 nodes or, without mirror symmetry, its
    # even-node half; a row that misses there fails with that level's
    # residual and node count (the loop once raised UnboundLocalError)
    monkeypatch.setattr(cauchy, "NMAX", N0)
    v = _fresh(w, nmax)
    z = complex(z)
    cauchy_G(v, w, 3, z)
    memo = v.quadrature[w].memo
    failed = []
    for kind in ("G", "Gstar"):
        for n in _swept(v):
            value, nodes, residual = _reference_transform(w, _coefficients(v, kind, n), n, z,
                                                          nmax=N0)
            result = memo[kind, n, z, 0]
            if value is None:
                failed.append((kind, n))
                assert (result.residual, result.nodes) == (residual, N0)
                assert residual > cauchy.RTOL
            else:
                assert result == (value, nodes, residual) and nodes == N0
    assert failed and ("G", 3) not in failed


def test_column_at_the_finest_level_is_chunked(monkeypatch):
    # without the subtraction, a transform 5e-4 outside the circle converges
    # only at NMAX nodes, where a pass takes one row at a time
    monkeypatch.setattr(cauchy, "SUBTRACT_BAND", (1.0, 1.0))
    w = WeightSpec.bessel(2.0)
    v = _fresh(w, 4)
    z = 1.0005 * cmath.exp(0.9j)
    assert len(_swept(v)) > NMAX // (NMAX // 2)
    cauchy_G(v, w, 2, z)
    q = v.quadrature[w]
    for kind in ("G", "Gstar"):
        for n in _swept(v):
            reference = _reference_transform(w, _coefficients(v, kind, n), n, z,
                                             subtract=False)
            assert reference[1] == NMAX
            assert q.memo[kind, n, complex(z), 0] == reference
    assert q.samples == sum(g.size for g in q.integrands.values())
    assert q.samples <= NMAX
    blocks = {key: len(a) for key, a in q.integrands.items()}
    assert blocks and all(rows <= max(1, NMAX // N) for (N, _), rows in blocks.items())


def _counting_transforms(monkeypatch):
    """Count the calls of cauchy._transform, one per quadrature pass."""
    calls = []
    transform = cauchy._transform

    def counted(q, rows, *args):
        calls.append(list(rows))
        return transform(q, rows, *args)

    monkeypatch.setattr(cauchy, "_transform", counted)
    return calls


@pytest.mark.parametrize("order", [0, 1, 2])
def test_one_pass_converges_both_kinds_off_the_band(monkeypatch, order):
    # one request converges the swept keys of G and of G* at (z, order), in
    # one pass, and stores integrand blocks only, within the sample budget
    calls = _counting_transforms(monkeypatch)
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    cauchy_G(v, w, 3, OUTSIDE, order=order)
    q = v.quadrature[w]
    z = complex(OUTSIDE)
    rows = {(kind, m, z) for kind in ("G", "Gstar") for m in _swept(v)}
    assert len(calls) == 1 and set(calls[0]) == rows
    assert set(q.memo) == {(kind, m, z, order) for kind, m, _ in rows}
    for kind, m, _ in rows:
        reference = _reference_transform(w, _coefficients(v, kind, m), m, z, order,
                                         subtract=False)
        assert q.memo[kind, m, z, order] == reference
    for kind, m, _ in rows:
        transform = cauchy_G if kind == "G" else cauchy_Gstar
        assert transform(v, w, m, OUTSIDE, order=order) == q.memo[kind, m, z, order][0]
    assert len(calls) == 1
    # a key outside the sweep converges on its own, with its degree of the
    # other kind, in row order
    for m, own in ((0, [("G", 0, z)]), (v.nmax, [("Gstar", v.nmax, z), ("G", v.nmax, z)]),
                   (v.nmax + 1, [("Gstar", v.nmax + 1, z)])):
        transform = cauchy_G if own[-1][0] == "G" else cauchy_Gstar
        value = transform(v, w, m, OUTSIDE, order=order)
        assert calls[-1] == own
        for kind, k, _ in own:
            reference = _reference_transform(w, _coefficients(v, kind, k), k, z, order,
                                             subtract=False)
            assert q.memo[kind, k, z, order] == reference
        assert value == q.memo[own[-1][0], m, z, order][0]
    assert len(calls) == 4
    assert all(a.shape[0] == 2 * (v.nmax + 1) for a in q.integrands.values())
    assert q.samples == sum(a.size for a in q.integrands.values()) <= NMAX


@pytest.mark.parametrize("kind, n, rows", [("G", 4, [("Gstar", 4), ("G", 4)]),
                                           ("Gstar", 4, [("Gstar", 4), ("G", 4)]),
                                           ("G", 0, [("G", 0)]),
                                           ("Gstar", 11, [("Gstar", 11)])],
                         ids=["G", "Gstar", "G0", "Gstar-top"])
def test_one_pass_converges_both_kinds_in_the_band(monkeypatch, kind, n, rows):
    # a subtracted value converges its own degree of both kinds, where the
    # table holds it: G_0 has no G* row, G*_{nmax} no G row
    calls = _counting_transforms(monkeypatch)
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    transform = cauchy_G if kind == "G" else cauchy_Gstar
    transform(v, w, n, BAND)
    q = v.quadrature[w]
    assert calls == [[(k, m, complex(BAND)) for k, m in rows]]
    assert set(q.memo) == {(k, m, complex(BAND), 0) for k, m in rows}
    for k, m in rows:
        reference = _reference_transform(w, _coefficients(v, k, m), m, BAND, subtract=True)
        assert q.memo[k, m, complex(BAND), 0] == reference
        (cauchy_G if k == "G" else cauchy_Gstar)(v, w, m, BAND)
    assert len(calls) == 1


def test_failure_is_memoized_and_raised_again(monkeypatch):
    # the setup of test_row_that_does_not_converge_fails_alone: G*_{nmax-2}
    # fails at NMAX = 512, in the pass a request for G_3 runs; every later
    # request raises the same error, with a traceback of its own, and
    # converges nothing again
    monkeypatch.setattr(cauchy, "NMAX", 512)
    calls = _counting_transforms(monkeypatch)
    w = WeightSpec.jacobi(-0.45 + 0.3j)
    v = _fresh(w, 16)
    z = 0.4 * cmath.exp(1j * math.pi / 4)
    n = v.nmax - 1
    _, nodes, residual = _reference_transform(w, _coefficients(v, "Gstar", n), n, z, nmax=512)
    cauchy_G(v, w, 3, z)
    tracebacks = []
    for _ in ("first", "second", "third"):
        with pytest.raises(AccuracyError) as exc:
            cauchy_Gstar(v, w, n, z)
        assert (exc.value.residual, exc.value.nodes) == (residual, nodes)
        tracebacks.append(len(exc.traceback))
    assert len(calls) == 1
    assert tracebacks[0] == tracebacks[1] == tracebacks[2]
    assert cauchy_G(v, w, n - 1, z) == v.quadrature[w].memo["G", n - 1, complex(z), 0][0]
    assert len(calls) == 1


def test_laurent_tail_is_one_pass(monkeypatch, bessel2):
    # the G and G* coefficients are converged together
    w, _, v = bessel2
    passes = []
    converged = cauchy._converged

    def counted(eval_at, rows, *args):
        passes.append(list(rows))
        return converged(eval_at, rows, *args)

    monkeypatch.setattr(cauchy, "_converged", counted)
    laurent_tail(v, w, 3)
    assert passes == [[("G", 4), ("G", 5), ("Gstar", 3), ("Gstar", 4)]]
    g, gs = laurent_tail(v, w, 0)
    assert len(g) == 2 and len(gs) == 0 and len(passes) == 2


@pytest.mark.parametrize("order", [0, 1, 2])
def test_warm_request_reads_the_key_the_miss_stored(order):
    # the memo key holds the derivative order the caller passes, on the miss
    # that stores an entry and on every request after it
    w = WeightSpec.bessel(2.0)
    v = _fresh(w)
    memo = cauchy._quadrature(v, w).memo
    for z in (OUTSIDE, BAND if order == 0 else INSIDE):
        for transform, kind in ((cauchy_G, "G"), (cauchy_Gstar, "Gstar")):
            value = transform(v, w, 4, z, order=order)
            key = (kind, 4, complex(z), order)
            assert memo[key][0] == value
            memo[key] = (value + 1.0, 0, 0.0)     # marked: a warm request reads it
            assert transform(v, w, 4, z, order=order) == value + 1.0
        assert {key[3] for key in memo if key[2] == complex(z)} == {order}


@pytest.mark.parametrize("w", [WeightSpec.bessel(2.0), WeightSpec.jacobi(1.0 + 0.5j)],
                         ids=["bessel2", "jacobi_complex"])
def test_warm_memo_masks_no_validation(w):
    # the transforms read the memo before they check their arguments; an
    # entry exists only for arguments that passed, so a warm table refuses
    # what a cold one refuses
    v = _fresh(w)
    z, near = 2.5j, 1.01j
    last = {cauchy_G: v.nmax, cauchy_Gstar: v.nmax + 1}
    for transform in (cauchy_G, cauchy_Gstar):
        for order in (0, 1, 2):
            transform(v, w, 3, z, order=order)
        transform(v, w, 3, near)      # a value next to the circle is admitted
        transform(v, w, last[transform], z)
    memo = dict(v.quadrature[w].memo)
    for transform in (cauchy_G, cauchy_Gstar):
        with pytest.raises(ValueError, match="order"):
            transform(v, w, 3, z, order=3)
        with pytest.raises(ValueError):
            transform(v, w, last[transform] + 1, z)
        for order in (1, 2):
            with pytest.raises(NearBoundaryError):
                transform(v, w, 3, near, order=order)
        with pytest.raises(NearBoundaryError):
            transform(v, w, 3, 1j)
    with pytest.raises(ValueError, match="n >= 1"):
        cauchy_Gstar(v, w, 0, z)
    assert v.quadrature[w].memo == memo
    # a hit, whatever number type z comes as, is the cold table's value
    cold = _fresh(w)
    for transform in (cauchy_G, cauchy_Gstar):
        for order in (0, 1, 2):
            assert transform(v, w, 3, z, order=order) == transform(cold, w, 3, z, order=order)
        assert transform(v, w, 3, 0.0) == transform(cold, w, 3, 0j)
        assert transform(v, w, 3, 0) == transform(v, w, 3, 0.0)
    assert set(v.quadrature[w].memo) == set(memo) | set(cold.quadrature[w].memo)
