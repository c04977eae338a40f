"""Mittag-Leffler evaluation against closed forms and a high-precision oracle."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from fracspec import MLParams, mittag_leffler, ml_array
from fracspec.fraccalc import ml, recip_gamma

from oracles import ml_reference


def test_exponential_case():
    # E_1(z) = e^z
    assert ml(1.0, 1.0) == pytest.approx(math.e, rel=1e-12, abs=0)


def test_beta_only_term_at_zero():
    # z = 0 leaves only the k = 0 term, 1/Gamma(beta)
    assert ml(0.5, 0.0, 1.5) == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)


def test_erfc_oracle_point():
    # E_{1/2}(z) = exp(z^2) erfc(-z); erfc from the C library is independent
    # of the series/integral evaluation paths under test
    assert ml(0.5, -1.0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-12)


@pytest.mark.parametrize("x", np.linspace(0.0, 5.0, 21).tolist())
def test_erfc_identity_on_segment(x):
    expected = math.exp(x * x) * math.erfc(x)
    assert ml(0.5, -x) == pytest.approx(expected, rel=1e-11)


def test_exponential_identity_segment():
    zs = np.linspace(-30.0, 30.0, 101)
    worst = max(abs(ml(1.0, z) - math.exp(z)) / math.exp(z) for z in zs)
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        # curated so the exact-series reference stays feasible
        # (cancellation size |z|**(1/alpha) <= ~650)
        (0.3, 1.3, -2.0),
        (0.3, 0.4, -5.0),
        (0.5, 1.5, -12.0),
        (0.5, 2.5, -20.0),
        (0.7, 1.7, -25.0),
        (0.7, 2.7, 6.0),
        (0.9, 1.0, -30.0),
        (0.95, 0.4, -25.0),
        (0.96, 2.0, -12.0),
        (0.999, 2.0, -39.0),
        (1.0, 2.0, -25.0),
        (0.6, 1.6, 25.0),
        (0.9, 1.0, 39.0),
        (0.95, 1.0, 45.0),
    ],
)
def test_against_extended_precision_reference(alpha, beta, z):
    assert ml(alpha, z, beta) == pytest.approx(ml_reference(alpha, beta, z), rel=5e-12)


def test_deep_negative_axis_via_independent_erfc():
    # beyond the feasible series range, alpha = 1/2 still has the scaled
    # erfc identity; mpmath's erfc is an independent implementation
    import mpmath

    for z in (-39.0, -45.0, -300.0, -2000.0):
        with mpmath.workdps(60):
            expected = float(mpmath.exp(mpmath.mpf(z) ** 2) * mpmath.erfc(mpmath.mpf(-z)))
        assert ml(0.5, z) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
@pytest.mark.parametrize("beta", [1.0, 1.5])
def test_branch_agreement_near_switch(alpha, beta):
    # the algebraic asymptotic (used below -40) and the kernel-integral route
    # (used above) must agree where both are valid
    from fracspec.fraccalc import _algebraic_tail, _ml_negative_robust

    for z in (-41.0, -55.0):
        asym = _algebraic_tail(alpha, beta, z, 1e-12)
        robust = _ml_negative_robust(alpha, beta, z, 1e-12)
        assert asym == pytest.approx(robust, rel=5e-11)


def test_monotone_decreasing_on_negative_axis():
    # E_alpha(-s) strictly decreasing in s >= 0 with values in (0, 1]
    for alpha in (0.3, 0.5, 0.7, 0.9):
        s = np.concatenate([np.linspace(0.0, 30.0, 40), np.geomspace(31.0, 2000.0, 15)])
        vals = np.array([ml(alpha, -si) for si in s])
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        MLParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MLParams(1.2, 1.0)
    with pytest.raises(ValueError):
        MLParams(0.5, -1.0)
    with pytest.raises(ValueError):
        MLParams(0.5, 1.0, tol=1.5)
    with pytest.raises(ValueError):
        mittag_leffler(MLParams(0.5, 1.0), math.inf)


def test_overflow_signalled():
    # z**(1/alpha) far beyond the double range must raise, not return inf
    with pytest.raises(OverflowError):
        ml(0.3, 50.0)
    with pytest.raises(OverflowError):
        ml(0.5, 1.0e6)


def test_recip_gamma_poles_and_reflection():
    assert recip_gamma(0.0) == 0.0
    assert recip_gamma(-3.0) == 0.0
    assert recip_gamma(0.5) == pytest.approx(1.0 / math.gamma(0.5), rel=1e-15)
    # reflection branch: Gamma(-0.5) = -2 sqrt(pi)
    assert recip_gamma(-0.5) == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)


def test_exponential_identity_deep_negative_axis():
    # alpha = 1 below -40 runs the mpmath series, whose sum lies exp(-2|z|)
    # below its largest term: the precision must cover twice |z|/ln(10) digits
    for z in (-45.0, -300.0):
        assert ml(1.0, z) == pytest.approx(math.exp(z), rel=1e-12, abs=0)


def _half_order_reference(beta: float, z: float) -> float:
    """E_{1/2,beta}(z), beta in {1, 1.5, 2}: exp(z^2) erfc(-z) for beta = 1,
    then E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z, all in mpmath."""
    with mpmath.workdps(60):
        zz = mpmath.mpf(z)
        val = mpmath.exp(zz**2) * mpmath.erfc(-zz)
        b = mpmath.mpf(1)
        while b < beta:
            val = (val - mpmath.rgamma(b)) / zz
            b += mpmath.mpf(1) / 2
        return float(val)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_ml_array_keeps_shape(shape):
    z = -np.linspace(0.0, 50.0, math.prod(shape)).reshape(shape)
    out = ml_array(0.6, z, 1.2)
    assert isinstance(out, np.ndarray) and out.shape == shape
    expected = [ml(0.6, zi, 1.2) for zi in z.ravel()]
    np.testing.assert_allclose(out.ravel(), expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_ml_array_mixed_branches(alpha, beta):
    # one array through every branch open at alpha: z = 0, the positive
    # series, the exponential asymptotic (where exp(z**(1/alpha)) fits a
    # double), the float series, the kernel integral (alpha <= 0.95) or the
    # mpmath series, and below -40 the algebraic tail or, at alpha = 1, the
    # mpmath series
    z = [0.0, 2.5, -0.2, -1.2, -3.0, -8.0, -15.0, -45.0, -300.0]
    if 45.0 ** (1.0 / alpha) < 700.0:
        z.append(45.0)
    z = np.array(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = ml_array(alpha, z, beta)
    for zi, gi in zip(z, got):
        if abs(zi) ** (1.0 / alpha) <= 650.0:
            assert gi == pytest.approx(ml_reference(alpha, beta, zi), rel=5e-12, abs=0), zi
        elif alpha == 0.5:
            assert gi == pytest.approx(_half_order_reference(beta, zi), rel=1e-12, abs=0), zi


def test_cancelled_float_series_takes_robust_route():
    # E_{0.9,0.4}(-0.678) lies ~1e-4 below the largest term of its series:
    # the float sum is handed to the robust route, also inside a batch
    from fracspec.fraccalc import _ml_negative_robust

    z = np.array([-0.2, -0.677947, -0.5])
    got = ml_array(0.9, z, 0.4)
    assert got[1] == _ml_negative_robust(0.9, 0.4, z[1], 1e-12)
    for zi, gi in zip(z, got):
        assert gi == pytest.approx(ml_reference(0.9, 0.4, zi), rel=5e-12, abs=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ml_array_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        ml_array(0.5, [[-1.0, 0.0], [bad, 2.0]])


def test_ml_array_overflow_signalled():
    # one overflowing positive element fails the whole array, as in ml
    with pytest.raises(OverflowError):
        ml_array(0.3, [-1.0, 1.0, 50.0])
    with pytest.raises(OverflowError):
        ml_array(0.3, [-1.0, 8.0])  # below the asymptotic cut, 8**(1/0.3) > 709
    with pytest.raises(OverflowError):
        ml_array(0.5, [-3.0, 1.0e6])


def test_ml_array_memory_bounded():
    # the kernel integral takes ~1200 quadrature nodes per point; they are
    # held a block at a time, so only arrays of a few doubles per point
    # grow with the point count
    def peak(n):
        z = -np.linspace(5.0, 35.0, n)
        tracemalloc.start()
        try:
            ml_array(0.5, z)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10_000), peak(100_000)
    assert large <= 8 * 2**20
    assert large - small <= 10 * 8 * 90_000


@pytest.mark.parametrize("alpha,beta,z", [(0.7, 0.4, -1.0), (0.9, 0.7, -3.4822), (0.9, 0.7, -3.4775)])
def test_float_series_rounding_model(alpha, beta, z):
    # regression: the float series was kept when eps max|term| <= tol/4 |sum|,
    # as if each term were correct to one ulp; exp(k ln|z| - lgamma(a k + b))
    # carries several, and E_{0.9,0.7}(-3.4775) was off by 1.3e-12.
    # E_{0.7,0.4}(-1) = -1.5e-4 lies near a zero, where the kernel integral
    # (accurate to its integrand's scale) was off by 1.2e-12
    assert abs(ml(alpha, z, beta) / ml_reference(alpha, beta, z) - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.7, 0.9, 1.0])
def test_float_series_region_sweep(alpha):
    # every z < 0 with |z|^(1/alpha) <= 4 starts on the float series: whether
    # it keeps the sum or hands the point on, the result is within tol
    z = -np.linspace(0.02, 1.0, 30) * 4.0**alpha
    for beta in (0.3, 0.7, 1.0, 1.9):
        got = ml_array(alpha, z, beta)
        for zi, gi in zip(z, got):
            assert abs(gi / ml_reference(alpha, beta, zi) - 1.0) <= 1e-12, (beta, zi)
