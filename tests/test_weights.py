import cmath
import math
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opuc import verify
from opuc.errors import PoleError, UnsupportedWeightError
from opuc.moments import MomentTable, moments_for
from opuc.rh import JUMP_DELTA
from opuc.szego import verblunsky_from_moments
from opuc.verify import circle_grid, standard_grid
from opuc.weights import (
    HERMITIAN_RTOL,
    BesselFactor,
    JacobiFactor,
    WeightSpec,
    circle_rule,
    eval_nu,
    eval_weight,
    log_derivative,
    pearson_data,
    weight_values,
)


def test_lebesgue_is_one():
    w = WeightSpec.lebesgue()
    theta = np.linspace(0.1, 6.0, 7)
    assert np.allclose(weight_values(w, theta), 1.0)


def test_bessel_circle_values():
    w = WeightSpec.bessel(2.0)
    # e^{l cos theta} at theta = 0 is e^l
    assert eval_weight(w, 0.0).real == pytest.approx(math.exp(2.0))
    assert eval_weight(w, math.pi).real == pytest.approx(math.exp(-2.0))


def test_bessel_nu_matches_weight_on_circle():
    w = WeightSpec.bessel(1.5)
    for theta in (0.3, 2.0, 4.5):
        z = cmath.exp(1j * theta)
        assert eval_nu(w, z) == pytest.approx(eval_weight(w, theta))


def test_jacobi_circle_form_real_positive():
    w = WeightSpec.jacobi(1.0 + 0.5j)
    theta = np.linspace(0.2, 6.0, 9)
    vals = weight_values(w, theta)
    assert np.all(np.abs(vals.imag) < 1e-14)
    assert np.all(vals.real > 0)


def test_jacobi_nu_continuation_matches_circle():
    w = WeightSpec.jacobi(1.0 + 0.5j)
    for theta in (0.5, 2.5, 5.0):
        z = cmath.exp(1j * theta)
        assert eval_nu(w, z) == pytest.approx(complex(eval_weight(w, theta)),
                                              rel=1e-10)


def test_jacobi_real_parameter_symmetric_weight():
    # for real b the weight is (2 sin(theta/2))^{2 lambda}
    w = WeightSpec.jacobi(1.0)
    for theta in (0.7, 2.0):
        expected = (2.0 * math.sin(theta / 2.0)) ** 2
        assert eval_weight(w, theta).real == pytest.approx(expected)


@given(st.floats(0.1, 5.0), st.floats(-0.9, 0.9), st.floats(0.1, 6.0))
def test_bessel_log_derivative_is_fd_limit(ell, r, theta):
    w = WeightSpec.bessel(ell)
    z = (1.5 + r) * cmath.exp(1j * theta)
    h = 1e-6
    fd = (cmath.log(eval_nu(w, z + h)) - cmath.log(eval_nu(w, z - h))) / (2 * h)
    assert abs(log_derivative(w, z) - fd) < 1e-6 * max(1.0, abs(fd))


def test_jacobi_log_derivative_fd():
    w = WeightSpec.jacobi(1.0 + 0.5j)
    z = 0.4 * cmath.exp(0.9j)
    h = 1e-6
    fd = (cmath.log(eval_nu(w, z + h)) - cmath.log(eval_nu(w, z - h))) / (2 * h)
    assert abs(log_derivative(w, z) - fd) < 1e-7


@pytest.mark.parametrize("w", [WeightSpec.lebesgue(), WeightSpec.bessel(2.0)],
                         ids=["lebesgue", "bessel"])
def test_circle_rule_without_singular_point_is_the_midpoint_rule(w):
    theta, nu, jac = circle_rule(w, 64)
    assert np.array_equal(theta, (np.arange(64) + 0.5) * (2.0 * math.pi / 64))
    assert np.array_equal(nu, weight_values(w, theta))
    assert np.array_equal(jac, np.ones(64))


@pytest.mark.parametrize("lam", [-0.3, 0.5, 1.9])
def test_graded_rule_clusters_at_the_singular_point(lam):
    w = WeightSpec.jacobi(lam + 0.3j)
    theta, nu, jac = circle_rule(w, 512)
    assert np.all(np.diff(theta) >= 0)     # nodes next to 2 pi round to 2 pi
    assert 0.0 < theta[0] < 1e-10 and 2.0 * math.pi - theta[-1] < 1e-10
    assert abs(np.mean(jac) - 1.0) < 1e-14                 # integrates d theta
    first = slice(0, 256)                                  # J folded into nu
    assert np.allclose(nu[first], weight_values(w, theta[first]) * jac[first],
                       rtol=1e-14, atol=0.0)
    # the nodes next to 2 pi mirror those next to 0; their weight values come
    # from the distance to theta = 0, which 2 pi - theta would have rounded
    mirror = weight_values(w, 2.0 * math.pi - theta[first], dist=theta[first])
    assert np.allclose(nu[::-1][first], mirror * jac[first], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("lam", [-0.49, -0.499])
def test_graded_rule_next_to_lambda_minus_half(lam):
    # the orders p = 400 and 4000 drive the first nodes' distance to
    # theta = 0 below the smallest float; nu J keeps its value there
    w = WeightSpec.jacobi(lam)
    theta, nu, _ = circle_rule(w, 2048)
    assert theta[0] == 0.0 and nu[0].real > 0.0
    assert np.all(np.isfinite(nu))
    c = moments_for(w, 1)
    mass = 2.0 * math.pi * math.gamma(1.0 + 2.0 * lam) / math.gamma(1.0 + lam) ** 2
    assert abs(c.c0 - mass) < 1e-12 * mass
    assert abs(c.get(1) + mass * lam / (1.0 + lam)) < 1e-12 * mass


def _jacobi_moment(b: complex, j: int) -> complex:
    """c_j = (-1)^j 2 pi Gamma(1+b+conj b) / (Gamma(1+b-j) Gamma(1+conj b+j))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return (-1) ** j * complex(2 * mpmath.pi * mpmath.gamma(1 + 2 * b.real)
                                   / (mpmath.gamma(1 + b - j) * mpmath.gamma(1 + b.conjugate() + j)))


def _moment_sums(w: WeightSpec, j: int, N: int) -> tuple[complex, complex]:
    """c_j by the N-point circle rule and by its even nodes alone."""
    theta, nu, _ = circle_rule(w, N)
    f = 2.0 * math.pi * np.exp(-1j * j * theta) * nu
    return f.sum() / N, f[::2].sum() / (N // 2)


@pytest.mark.parametrize("lam", [-0.45, 0.5, 1.9])
def test_even_node_half_of_the_graded_rule_bounds_its_error(lam):
    # a transform of a weight without mirror symmetry checks its first level
    # against the even nodes: Kress's map of the midpoints shifted by a
    # quarter step, a rule of the same order (Kress, Numer. Math. 58, 1990).
    # On c_0, c_1 and c_3 of jacobi(lam + 0.3i), a level whose error is
    # above rounding differs from its half by at least that error, and the
    # half is as accurate as the full rule once both converge
    w = WeightSpec.jacobi(lam + 0.3j)
    mass = _jacobi_moment(w.factors[0].b, 0).real
    for j in (0, 1, 3):
        exact = _jacobi_moment(w.factors[0].b, j)
        for N in (16, 32, 64, 128):
            full, half = _moment_sums(w, j, N)
            if abs(full - exact) > 1e-14 * mass:
                assert abs(half - full) >= abs(full - exact), (j, N)
        for N in (512, 1024, 2048, 4096):
            assert abs(_moment_sums(w, j, N)[1] - exact) < 1e-14 * mass, (j, N)


@pytest.mark.parametrize("lam", [-0.45, 0.5])
def test_even_node_half_of_a_mirror_symmetric_weight_checks_nothing(lam):
    # node N - 1 - k mirrors node k, so for eta = 0 the even nodes give c_0
    # to rounding whatever the rule's error: such weights keep the two-level
    # rule
    w = WeightSpec.jacobi(lam)
    mass = _jacobi_moment(w.factors[0].b, 0).real
    full, half = _moment_sums(w, 0, 16)
    assert abs(full - mass) > 1e-6 * mass
    assert abs(half - full) < 1e-15 * mass
    assert w.mirror_symmetric() and not WeightSpec.jacobi(lam + 0.3j).mirror_symmetric()


def test_log_derivative2_fd():
    for w in (WeightSpec.bessel(2.0), WeightSpec.jacobi(1.0)):
        z = 2.5 * cmath.exp(0.6j)
        h = 1e-5
        fd = (log_derivative(w, z + h) - log_derivative(w, z - h)) / (2 * h)
        assert abs(log_derivative(w, z, order=1) - fd) < 1e-7


def test_pearson_data_bessel():
    A, q = pearson_data(WeightSpec.bessel(2.0))
    # A = z, q = (z^2 - 1)
    assert np.allclose(A, [0.0, 1.0])
    assert np.allclose(q, [-1.0, 0.0, 1.0])


def test_pearson_data_jacobi():
    A, q = pearson_data(WeightSpec.jacobi(1.0 + 0.5j))
    assert np.allclose(A, [1.0, -1.0])
    assert np.allclose(q, [-(1.0 - 0.5j), -(1.0 + 0.5j)])


def test_singular_points():
    assert WeightSpec.bessel(1.0).singular_points() == (0.0,)
    assert set(WeightSpec.jacobi(1.0).singular_points()) == {0.0, 1.0}
    assert WeightSpec.lebesgue().singular_points() == ()


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WeightSpec.bessel(-1.0)
    with pytest.raises(ValueError):
        WeightSpec.jacobi(-0.6)


@pytest.mark.parametrize("kind, ell, b", [
    ("bessel", math.nan, 0.0),
    ("bessel", math.inf, 0.0),
    ("jacobi", 0.0, complex(math.nan, 0.0)),
    ("jacobi", 0.0, complex(1.0, math.nan)),
    ("jacobi", 0.0, complex(math.inf, 0.0)),
], ids=["bessel-nan", "bessel-inf", "jacobi-lambda-nan", "jacobi-eta-nan",
        "jacobi-lambda-inf"])
def test_non_finite_parameters_rejected(kind, ell, b):
    with pytest.raises(ValueError, match="finite"):
        WeightSpec.bessel(ell) if kind == "bessel" else WeightSpec.jacobi(b)


@pytest.mark.parametrize("eta", [218.3, -218.3])
def test_jacobi_weight_values_stay_finite_up_to_the_bound(eta):
    # at lambda = 1 the bound 2^(2 lambda) e^(pi |eta|) <= 2^-32 DBL_MAX
    # lies between |eta| = 218.3 and 218.5; below it the moment quadrature
    # runs without an overflow, beyond it the weight is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = moments_for(WeightSpec.jacobi(complex(1.0, eta)), 4)
    assert all(map(cmath.isfinite, c.values)) and c.c0 > 1e290
    with pytest.raises(ValueError, match="finite"):
        WeightSpec.jacobi(complex(1.0, math.copysign(218.5, eta)))


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("w", [WeightSpec.bessel(2.0), WeightSpec.jacobi(1.0 + 0.5j)],
                         ids=["bessel", "jacobi"])
def test_log_derivative_raises_at_each_singular_point(w, order):
    for s in w.singular_points():
        for z in (s, s + 1e-14j):
            with pytest.raises(PoleError):
                log_derivative(w, z, order)
    assert cmath.isfinite(log_derivative(w, 0.5 + 0.5j, order))


def test_log_derivative_order_outside_range_rejected():
    w = WeightSpec.jacobi(1.0 + 0.5j)
    for order in (-1, 2):
        with pytest.raises(ValueError, match="order"):
            log_derivative(w, 2.0, order)
    for order in (0, 1):
        with pytest.raises(UnsupportedWeightError):
            log_derivative(WeightSpec.custom(_table(0.5)), 2.0, order)


def _table(c1, c0=2.0 * math.pi, cm1=None):
    """A |j| <= 1 table; c_{-1} defaults to conj(c_1)."""
    cm1 = complex(c1).conjugate() if cm1 is None else cm1
    return MomentTable(-1, 1, (cm1, c0, c1))


@pytest.mark.parametrize("table", [
    None,
    _table(0.5, c0=0.0),
    _table(0.5, c0=-1.0),
    _table(0.5, c0=2.0 * math.pi + 1e-6j),
    _table(0.5 + 0.5j, cm1=0.5 + 0.5j),
    _table(0.5, cm1=0.5 + 3.0 * HERMITIAN_RTOL * 2.0 * math.pi),
    _table(0.5, cm1=math.nan),
], ids=["no-table", "c0-zero", "c0-negative", "c0-complex", "not-hermitian",
        "just-beyond-bound", "not-finite"])
def test_custom_table_not_from_a_positive_measure_rejected(table):
    with pytest.raises(ValueError):
        WeightSpec.custom(table)


def test_custom_table_within_rounding_accepted():
    c0 = 2.0 * math.pi
    w = WeightSpec.custom(_table(0.5 + 0.5j, cm1=0.5 - 0.5j + 0.5 * HERMITIAN_RTOL * c0))
    assert w.moments.hermitian_defect() <= HERMITIAN_RTOL * c0


def test_weight_hash_follows_equality_across_processes():
    # the hash is computed once, when the weight is made; a pickled copy is
    # rebuilt by the constructor, so in a process whose string hashes differ
    # it still hashes as an equal weight made there, and finds its table state
    w = WeightSpec.jacobi(1.3 + 0.4j)
    assert hash(w) == hash(WeightSpec.jacobi(1.3 + 0.4j))
    code = ("import pickle, sys; from opuc.weights import WeightSpec; "
            "w = pickle.loads(sys.stdin.buffer.read()); fresh = WeightSpec.jacobi(1.3 + 0.4j); "
            "print(w == fresh, hash(w) == hash(fresh))")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(w), env=env,
                         capture_output=True, check=True, timeout=60)
    assert out.stdout.split() == [b"True", b"True"]


# -- bit identity against the closed formulas, one per family ----------------
# The weight quantities below are written out per family as reference
# formulas.  The library computes them as products of factors; with one
# factor, or none, every value must keep its bits, signed zeros included.

GUARDED = [WeightSpec.lebesgue()] + [WeightSpec.bessel(ell) for ell in (0.5, 2.0, 10.0)] + [
    WeightSpec.jacobi(b) for b in (-0.45 + 0.3j, 0.5, 1.0 + 0.5j, 1.3 + 0.4j)]


def _ref_values(w, theta, dist=None):
    theta = np.asarray(theta, dtype=float)
    if w.kind == "lebesgue":
        return np.ones_like(theta, dtype=complex)
    if w.kind == "bessel":
        return np.exp(w.factors[0].ell * np.cos(theta)).astype(complex)
    s = 2.0 * np.sin((theta if dist is None else dist) / 2.0)
    b = w.factors[0].b
    return (np.power(np.abs(s), 2.0 * b.real) * np.exp(-b.imag * (theta - math.pi))).astype(complex)


def _ref_circle_rule(w, N):
    if w.kind != "jacobi":
        s = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
        return s, _ref_values(w, s), np.ones(N)
    lam = w.factors[0].b.real
    p = max(10, math.ceil(8.0 / (1.0 + 2.0 * lam)))
    c = 0.5 - 1.0 / p
    t = (np.arange(N) + 0.5) * (2.0 / N)
    x = t - 1.0
    v = t * (c * x * (x - 1.0) + 0.5)
    u = v[::-1]
    dv = (3.0 * c * x ** 2 + 1.0 / p) / math.pi
    m = np.maximum(v, u)
    log_rho = np.log(np.minimum(v, u) / m)
    r = np.exp(p * log_rho)
    log_dist = math.log(2.0 * math.pi) + p * log_rho - np.log1p(r)
    dist = np.exp(log_dist)
    theta = np.where(v < u, dist, 2.0 * math.pi - dist)
    log_jac = np.log(2.0 * math.pi * p * dv) + (p - 1) * log_rho - 2.0 * np.log(m * (1.0 + r))
    floor = np.maximum(log_dist, math.log(1e-100))
    nu = _ref_values(w, theta, np.exp(floor)) * np.exp(2.0 * lam * (log_dist - floor) + log_jac)
    return theta, nu, np.exp(log_jac)


def _ref_nu(w, z):
    if w.kind == "lebesgue":
        return 1.0 + 0.0j
    if w.kind == "bessel":
        return cmath.exp(w.factors[0].ell * (z + 1.0 / z) / 2.0)
    b = w.factors[0].b
    bb = b + b.conjugate()
    return cmath.exp(-b.conjugate() * cmath.log(-z) + bb * cmath.log(1.0 - z))


def _ref_log_derivative(w, z, order):
    if w.kind == "lebesgue":
        return 0j
    if w.kind == "bessel":
        ell = w.factors[0].ell
        return (ell / 2.0) * (1.0 - z ** -2) if order == 0 else ell * z ** -3
    b = w.factors[0].b
    bb = b + b.conjugate()
    if order == 0:
        return -b.conjugate() / z - bb / (1.0 - z)
    return b.conjugate() / z ** 2 - bb / (1.0 - z) ** 2


def _ref_pearson(w):
    if w.kind == "lebesgue":
        return np.array([1.0 + 0j]), np.array([0.0 + 0j])
    if w.kind == "bessel":
        ell = w.factors[0].ell
        return (np.array([0.0, 1.0], dtype=complex),
                np.array([-ell / 2.0, 0.0, ell / 2.0], dtype=complex))
    b = w.factors[0].b
    return np.array([1.0, -1.0], dtype=complex), np.array([-b.conjugate(), -b], dtype=complex)


def _same_bits(a, b) -> bool:
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _guard_points(w):
    band = [s * t for t in circle_grid() for d in (JUMP_DELTA, JUMP_DELTA / 2.0)
            for s in (1.0 - d, 1.0 + d)]
    return list(standard_grid(w)) + band


@pytest.mark.parametrize("w", GUARDED, ids=[w.label() for w in GUARDED])
def test_circle_rule_keeps_its_bits(w):
    for N in (256, 512, 1024, 2048, 4096):
        for got, want in zip(circle_rule(w, N), _ref_circle_rule(w, N)):
            assert _same_bits(got, want), N


@pytest.mark.parametrize("w", GUARDED, ids=[w.label() for w in GUARDED])
def test_pointwise_weight_quantities_keep_their_bits(w):
    for t in circle_grid():
        theta = cmath.phase(t) % (2.0 * math.pi)
        assert _same_bits(eval_weight(w, theta), complex(_ref_values(w, np.array([theta]))[0]))
    for z in _guard_points(w):
        assert _same_bits(eval_nu(w, z), _ref_nu(w, z)), z
        for order in (0, 1):
            assert _same_bits(log_derivative(w, z, order), _ref_log_derivative(w, z, order)), z
    for got, want in zip(pearson_data(w), _ref_pearson(w)):
        assert _same_bits(got, want)


def test_product_of_two_factors_keeps_the_pearson_relation():
    # bessel(2) x jacobi(1 + 0.5i), the generalized modified Jacobi weight:
    # nu multiplies, nu'/nu adds, and the Pearson pairs combine to
    # A_p = z (1 - z), q = (ell/2)(1 - z)(z^2 - 1) - z (conj(b) + b z)
    ell, b = 2.0, 1.0 + 0.5j
    w = WeightSpec((BesselFactor(ell), JacobiFactor(b)))
    assert w.singular_points() == (0j, 1 + 0j)
    A, q = pearson_data(w)
    assert np.allclose(A, [0.0, 1.0, -1.0], rtol=0.0, atol=1e-15)
    assert np.allclose(q, [-ell / 2, ell / 2 - b.conjugate(), ell / 2 - b, -ell / 2],
                       rtol=0.0, atol=1e-15)
    polyval = np.polynomial.polynomial.polyval
    for z in (r * cmath.exp(1j * (k + 0.5) * math.pi / 2) for r in (0.4, 2.5) for k in range(4)):
        nu = eval_nu(w, z)
        assert nu == BesselFactor(ell).nu(z) * JacobiFactor(b).nu(z)
        lhs = z * polyval(z, A) * log_derivative(w, z) * nu      # z A_p nu'
        rhs = polyval(z, q) * nu
        assert abs(lhs - rhs) <= 1e-14 * abs(rhs), z


def test_verify_refuses_a_product_weight_naming_its_roadmap_item():
    # the suites' tolerances are set per family; a product has none yet, and
    # the rh suite's jump check ended in a KeyError
    w = WeightSpec((BesselFactor(2.0), JacobiFactor(1.0 + 0.5j)))
    v = verblunsky_from_moments(moments_for(w, 6), 6)
    for name in verify.SUITES:
        with pytest.raises(UnsupportedWeightError, match="ROADMAP item 12"):
            verify.run(name, v, w, 4)


@pytest.mark.parametrize("w", [WeightSpec.lebesgue(), WeightSpec.bessel(2.0),
                               WeightSpec.jacobi(1.0 + 0.5j)],
                         ids=["lebesgue", "bessel(2)", "jacobi(1+0.5i)"])
def test_moment_mass_is_the_mean_of_the_pointwise_weight(w):
    # moments_for's route (the analytic series or the quadrature) and the
    # pointwise values describe one weight: c_0 = 2 pi mean(nu J)
    _, nu, _ = circle_rule(w, 4096)
    mass = 2.0 * math.pi * nu.mean()
    assert abs(moments_for(w, 4).c0 - mass) <= 1e-12 * abs(mass)


@pytest.mark.parametrize("factors", [(), (BesselFactor(2.0),)], ids=["lebesgue", "bessel"])
def test_only_a_custom_weight_has_a_moment_table(factors):
    table = moments_for(WeightSpec.bessel(2.0), 4)
    with pytest.raises(ValueError, match="only a custom weight"):
        WeightSpec(factors, table)
    assert WeightSpec(None, table) == WeightSpec.custom(table)
