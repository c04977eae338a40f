"""Mittag-Leffler evaluation against closed forms and a high-precision oracle."""

import math
import subprocess
import sys
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from fracspec import ml_array
from fracspec.fraccalc import ml, recip_gamma

from oracles import _SERIES_REACH, _ml_series, algebraic_tail_full_table, ml_laplace_reference, ml_reference


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


def test_reference_past_the_series_reach():
    # ml_reference(0.7, 2.0, -1000.0) (the Yosida kernel at n = 1000, t = 1)
    # would start its series at 8748 digits and ~27,600 terms; past
    # |z|^(1/alpha) = _SERIES_REACH it inverts the Laplace transform instead
    start = time.perf_counter()
    got = ml_reference(0.7, 2.0, -1000.0)
    assert time.perf_counter() - start < 5.0
    assert got == ml_laplace_reference(0.7, 2.0, 1000.0)
    # and agrees with the algebraic expansion -sum_k z^-k / Gamma(2 - 0.7 k),
    # cut after eight terms: the ninth is ~1e-23 of the sum
    tail = -math.fsum((-1000.0) ** -k / math.gamma(2.0 - 0.7 * k) for k in range(1, 9))
    assert abs(got / tail - 1.0) <= 1e-14


@pytest.mark.parametrize("alpha, beta, z", [(0.9, 0.9, -300.0), (0.5, 1.0, -23.0)])
def test_reference_route_just_past_the_reach(alpha, beta, z):
    # |z|^(1/alpha) = 565 and 529: the series still runs in about a second
    # here, and the Laplace inversion rounds to its double
    assert abs(z) ** (1.0 / alpha) > _SERIES_REACH
    assert ml_reference(alpha, beta, z) == _ml_series(alpha, beta, z)


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
    # the algebraic asymptotic (valid past |z|^(1/alpha) = 50) and the contour
    # must agree where both are valid
    from fracspec.fraccalc import _algebraic_tail, _contour

    for z in (-41.0, -55.0):
        asym, converged = _algebraic_tail(alpha, beta, z)
        assert converged
        robust, certified = _contour(alpha, beta, np.array([z]))
        assert certified[0]
        assert asym == pytest.approx(robust[0], rel=5e-11)


def test_monotone_decreasing_on_negative_axis():
    # E_alpha(-s) strictly decreasing in s >= 0 with values in (0, 1]
    for alpha in (0.3, 0.5, 0.7, 0.9):
        s = np.concatenate([np.linspace(0.0, 30.0, 40), np.geomspace(31.0, 2000.0, 15)])
        vals = np.array([ml(alpha, -si) for si in s])
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_parameter_validation():
    for evaluate in (ml, ml_array):
        with pytest.raises(ValueError, match="alpha"):
            evaluate(0.0, -1.0)
        with pytest.raises(ValueError, match="alpha"):
            evaluate(1.2, -1.0)
        with pytest.raises(ValueError, match="beta"):
            evaluate(0.5, -1.0, -1.0)
        with pytest.raises(ValueError, match="finite"):
            evaluate(0.5, math.inf)


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


# recip_gamma and rows of the tail table as float.hex, recorded when each
# had its own copy of the reflection formula; sharing _log_recip_gamma keeps
# the bits of every branch (x > 0, a pole, the reflection with either sign,
# the underflow and overflow ranges)
RECIP_GAMMA_HEX = {
    0.5: "0x1.20dd750429b6dp-1",
    2.5: "0x1.812746b0379e6p-1",
    171.5: "0x0.7951f58fd6320p-1022",
    171.7: "0x0.0p+0",
    -0.5: "-0x1.20dd750429b6cp-2",
    -1.5: "0x1.b14c2f863e927p-2",
    -2.25: "-0x1.25c711fa6a830p-1",
    -7.3: "0x1.2ac40d699a19bp+11",
    -170.6: "-0x1.11794e23374c7p+1022",
    -3.0: "0x0.0p+0",
    0.0: "0x0.0p+0",
}

# (alpha, beta) -> k -> (env, log_r, sign_r) at x = beta - alpha k
TAIL_TABLE_HEX = {
    (0.5, 1.25): {
        2: ("-0x1.e20598405c102p-1", "-0x1.49bbd81c16efap+0", "0x1.0000000000000p+0"),
        3: ("-0x1.3e355c6206cafp+0", "-0x1.96ee685defb2bp+0", "-0x1.0000000000000p+0"),
        5: ("-0x1.05156cd2d196dp+0", "-0x1.5dce78ceba7e9p+0", "0x1.0000000000000p+0"),
        399: ("0x1.aa68c447ebeaap+9", "0x1.aa3c67c1edf63p+9", "-0x1.0000000000000p+0"),
    },
    (0.3, 1.0): {
        1: ("-0x1.0b20c891cde79p-2", "-0x1.0b20c891cde79p-2", "0x1.0000000000000p+0"),
        5: ("-0x1.43f89a3f0edd7p+0", "-0x1.43f89a3f0edd7p+0", "-0x1.0000000000000p+0"),
        10: ("-0x1.ce6bb25aa131cp-2", "-inf", "0x0.0p+0"),
        399: ("0x1.c2720f65c71a8p+8", "0x1.c23bce008a5d1p+8", "-0x1.0000000000000p+0"),
    },
    (0.75, 0.5): {
        2: ("-0x1.250d048e7a1bdp+0", "-inf", "0x0.0p+0"),
        3: ("-0x1.56cab2e2fedf6p-1", "-0x1.041e656d68576p+0", "0x1.0000000000000p+0"),
        4: ("0x1.ccbf9f5ed0ee0p-5", "0x1.ccbf9f5ed0ee0p-5", "-0x1.0000000000000p+0"),
        399: ("0x1.5fa8714434038p+10", "0x1.5f92430135094p+10", "-0x1.0000000000000p+0"),
    },
}


def test_recip_gamma_recorded_values():
    for x, want in RECIP_GAMMA_HEX.items():
        assert recip_gamma(x).hex() == want, x
    with pytest.raises(OverflowError):
        recip_gamma(-180.5)


@pytest.mark.parametrize("params", TAIL_TABLE_HEX, ids=str)
def test_tail_table_recorded_rows(params):
    from fracspec.fraccalc import _tail_table

    table = _tail_table(*params)
    for k, want in TAIL_TABLE_HEX[params].items():
        assert tuple(float(v).hex() for v in table[:, k - 1]) == want, k


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
    # double), the contour, past |z|^(1/alpha) = 50 the algebraic tail
    # (alpha < 1) where the contour's bound rejects a point, and the mpmath
    # series where neither settles it
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
    # E_{0.9,0.4}(-0.678) lies ~1e-4 below the largest term of its series
    # and near a zero of E: the contour's rounding bound does not certify
    # it, and inside a batch it takes the mpmath series while its
    # neighbours keep the contour's values
    from fracspec.fraccalc import _contour, _series_mp

    z = np.array([-0.2, -0.677947, -0.5])
    got = ml_array(0.9, z, 0.4)
    robust, certified = _contour(0.9, 0.4, z)
    assert certified.tolist() == [True, False, True]
    assert got[::2].tobytes() == robust[::2].tobytes()
    assert got[1] == _series_mp(0.9, 0.4, z[1:2])[0]
    for zi, gi in zip(z, got):
        assert gi == pytest.approx(ml_reference(0.9, 0.4, zi), rel=5e-12, abs=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ml_array_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        ml_array(0.5, [[-1.0, 0.0], [bad, 2.0]])


def test_ml_array_rejects_complex():
    # regression: the cast to float dropped the imaginary part with only a
    # ComplexWarning, so E_0.5(-1 + 1j) returned E_0.5(-1)
    with pytest.raises(ValueError, match="real"):
        ml_array(0.5, np.array([-1.0 + 1.0j]))


def test_ml_array_overflow_signalled():
    # one overflowing positive element fails the whole array, as in ml
    with pytest.raises(OverflowError):
        ml_array(0.3, [-1.0, 1.0, 50.0])
    with pytest.raises(OverflowError):
        ml_array(0.3, [-1.0, 8.0])  # below the asymptotic cut, 8**(1/0.3) > 709
    with pytest.raises(OverflowError):
        ml_array(0.5, [-3.0, 1.0e6])


def test_ml_array_memory_bounded():
    # the contour takes 30 complex nodes per point, held a block at a time,
    # so only arrays of a few doubles per point grow with the point count.
    # At alpha = 0.5, beta = 1 the contour certifies every one of these
    # points: the reject path (algebraic tail, mpmath series) is bounded by
    # the test below
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


def test_ml_array_memory_bounded_on_contour_rejects():
    # at beta = alpha the contour certifies none of these points (all past
    # the cut), so every one goes on to the algebraic tail: the tail's
    # arguments and values add a few doubles a point, no more.  The rejects
    # are boolean masks, one byte a point; int64 indices for them (the
    # rejects, those past the cut, those the tail settled) grew the peak by
    # 67 bytes a point, against 52 with masks (numpy 2.4.6, Python 3.11): 34
    # for the negative points, their indices, values and flags and the
    # result, then the tail's arguments, sums and flags.  The bound, 60, sits
    # between the two, so it still tells masks from indices while leaving
    # room for another numpy's temporaries
    def peak(n):
        z = -np.linspace(40.0, 100.0, n)
        tracemalloc.start()
        try:
            ml_array(0.9, z, 0.9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10_000), peak(100_000)
    assert large <= 8 * 2**20
    assert large - small <= 10 * 8 * 90_000
    assert large - small <= 60 * 90_000


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
    # every z < 0 with |z|^(1/alpha) <= 4, zeros of E for beta < alpha
    # among them: the contour, or the mpmath series where its rounding bound
    # hands a point on, is within tol
    z = -np.linspace(0.02, 1.0, 30) * 4.0**alpha
    for beta in (0.3, 0.7, 1.0, 1.9):
        got = ml_array(alpha, z, beta)
        for zi, gi in zip(z, got):
            assert abs(gi / ml_reference(alpha, beta, zi) - 1.0) <= 1e-12, (beta, zi)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.97, 0.995, 1.0])
def test_contour_library_betas(alpha):
    # the betas the library evaluates (E_alpha in the relaxations, alpha + 1
    # and alpha + 2 in variation_of_constants, 2 and 3 in the Yosida
    # kernel's antiderivatives) over the contour's range |z|^(1/alpha) <= 50,
    # alpha close to 1 included
    for beta in (1.0, 2.0, 3.0, alpha + 1.0, alpha + 2.0):
        for s in (1e-6, 0.02, 0.7, 3.0, 9.0, 20.0, 35.0, 49.9):
            z = -(s**alpha)
            assert abs(ml(alpha, z, beta) / ml_reference(alpha, beta, z) - 1.0) <= 1e-12, (beta, z)


@pytest.mark.parametrize("beta", [3.0, 4.0, 6.0, 8.0, 10.0])
def test_contour_reduces_large_beta(beta):
    # the contour's own error grows with beta: unreduced, it reads 3e-15 at
    # beta = 6, 1e-11 at 8 and 7e-8 at 10 on these points; the recurrence
    # brings beta to <= 3 first
    for alpha in (0.3, 0.5, 0.9):
        for z in (-0.5, -2.0, -3.0):
            assert abs(ml(alpha, z, beta) / ml_reference(alpha, beta, z) - 1.0) <= 1e-12, (alpha, z)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 0.99])
def test_tail_just_past_the_cut(alpha):
    # past |z|^(1/alpha) = 50 the contour, or the algebraic tail where the
    # contour does not certify a point; at the cut the tail's truncation
    # error is ~exp(-50)
    for beta in (0.05, 1.0, alpha + 1.0, 4.0):
        for s in (50.001, 52.0):
            z = -(s**alpha)
            assert abs(ml(alpha, z, beta) / ml_reference(alpha, beta, z) - 1.0) <= 1e-12, (beta, z)


@pytest.mark.parametrize("alpha,beta", [(0.01, 1.0), (0.02, 0.05)])
def test_tail_just_past_the_cut_small_alpha(alpha, beta):
    # below alpha ~ 0.13 the tail needs more than 399 terms at the cut (its
    # smallest lies near k = 50/alpha), so its table grows to 50/alpha
    # terms (399 leave E_{0.01,0.05}(-50.001^0.01) 4e-6 off).  The tail
    # itself converges; ml_array takes the contour's value here, which the
    # contour certifies at both parameters
    from fracspec.fraccalc import _algebraic_tail

    z = -(50.001**alpha)
    expected = ml_reference(alpha, beta, z)
    asym, converged = _algebraic_tail(alpha, beta, z)
    assert converged
    assert abs(asym / expected - 1.0) <= 1e-12
    assert abs(ml(alpha, z, beta) / expected - 1.0) <= 1e-12


def test_contour_rejects_take_the_tail_then_the_series(monkeypatch):
    # at beta = alpha the contour certifies no point past the cut: in a
    # batch, a reject the tail reports converged takes the tail's value bit
    # for bit, and one it does not goes to the mpmath series; the tail's
    # unconverged values are never used
    from fracspec import fraccalc

    tail = fraccalc._algebraic_tail
    series_mp = fraccalc._series_mp
    taken = []

    def half_converged(a, b, z):
        val, converged = tail(a, b, z)
        converged[::2] = False
        return val * 2.0, converged  # the unconverged values must not be used

    monkeypatch.setattr(fraccalc, "_algebraic_tail", half_converged)
    monkeypatch.setattr(fraccalc, "_series_mp", lambda a, b, zz: taken.append(zz) or series_mp(a, b, zz))
    z = -np.array([60.0, 70.0, 80.0, 90.0]) ** 0.9
    assert not fraccalc._contour(0.9, 0.9, z)[1].any()
    got = ml_array(0.9, z, 0.9)
    assert got[1::2].tobytes() == (2.0 * tail(0.9, 0.9, z)[0][1::2]).tobytes()
    assert len(taken) == 1 and taken[0].tobytes() == z[::2].tobytes()
    for zi, gi in zip(z[::2], got[::2]):
        assert abs(gi / ml_reference(0.9, 0.9, zi) - 1.0) <= 1e-12


def test_tail_table_built_once_per_parameters():
    # the tail's 1/Gamma(beta - alpha k) table depends on (alpha, beta) only:
    # a second call at the same parameters reuses it and returns the same bits
    from fracspec.fraccalc import _contour, _tail_table

    _tail_table.cache_clear()
    z = -np.linspace(40.0, 100.0, 50)  # |z|^(1/alpha) >= 60, past the cut
    assert not _contour(0.9, 0.9, z)[1].any()  # all contour rejects: on the tail
    first = ml_array(0.9, z, 0.9)
    second = ml_array(0.9, z, 0.9)
    info = _tail_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.tobytes() == second.tobytes()
    assert not _tail_table(0.9, 0.9).flags.writeable


# points sent to _series_mp by ml_array(alpha, -linspace(0, 45, 2000), beta)
# for beta in {1, alpha, alpha + 1}, recorded when the tail came before the
# contour; every (alpha, beta) not listed sends none
BASELINE_MP_POINTS = {
    (0.8, 0.8): 91,
    (0.9, 0.9): 894,
    (0.95, 0.95): 1398,
    (0.99, 0.99): 1683,
    (0.995, 1.0): 1621,
    (0.995, 0.995): 1693,
    (1.0, 1.0): 1702,
}


def test_series_mp_points_on_the_baseline_sweep(monkeypatch):
    # a point reaches the mpmath series only if neither float route settles
    # it, in whichever order they run: the count per (alpha, beta) is the
    # recorded one.  The series is stubbed out; only its points are counted
    from fracspec import fraccalc

    counts = {}

    def count(a, b, z):
        counts[a, b] = counts.get((a, b), 0) + np.size(z)
        return np.zeros(np.shape(z))

    monkeypatch.setattr(fraccalc, "_series_mp", count)
    z = -np.linspace(0.0, 45.0, 2000)
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 1.0):
        for beta in {1.0, alpha, alpha + 1.0}:
            ml_array(alpha, z, beta)
    assert counts == BASELINE_MP_POINTS


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_contour_agrees_with_tail_past_the_cut(alpha):
    # on the tail's domain, |z|^(1/alpha) from the cut to 1e6, the contour
    # certifies every point at the betas the library evaluates, and its
    # values agree with the converged tail's
    from fracspec.fraccalc import _TAIL_CUT, _algebraic_tail, _contour

    z = -np.geomspace(_TAIL_CUT * (1.0 + 1e-12), 1e6, 1000) ** alpha
    for beta in (1.0, 2.0, 3.0, alpha + 1.0, alpha + 2.0):
        robust, certified = _contour(alpha, beta, z)
        asym, converged = _algebraic_tail(alpha, beta, z)
        assert certified.all() and converged.all(), beta
        assert np.abs(robust / asym - 1.0).max() <= 1e-13, beta


def test_tiny_arguments_after_the_beta_reduction():
    # reducing beta > 3 divides by z twice or more: at a tiny |z| the
    # contour's value and bound overflow to inf, and an infinite value with
    # an infinite bound was certified (E_{0.5,4}(-1e-200) read inf).  Such
    # points are not certified and take the mpmath series, E ~ 1/Gamma(beta)
    for z in (-1e-320, -1e-200, -1e-160):
        for beta in (4.0, 5.0, 7.0):
            got = ml(0.5, z, beta)
            assert got == pytest.approx(1.0 / math.gamma(beta), rel=1e-14), (z, beta)


def test_tail_matches_full_table_reference():
    # the chunked envelope scan truncates every point at the term the whole
    # table's scan picks: values and converged flags bit for bit, over
    # |z|^(1/alpha) from the cut to 1e8, on both sides of the axis.  At
    # alpha = 0.5, beta = 1 every even term sits on a Gamma pole; below
    # alpha ~ 0.13 the table grows to 50/alpha terms, and E_{0.02,0.01045}
    # cancels to a small fraction of its terms there, so its tail points
    # converge neither way.  E_{0.25,0.19} has a zero at |z|^4 = 51.7034...,
    # where no term falls below _TOL of the sum before the smallest, k ~ 207,
    # seven chunks of the scan in
    from fracspec.fraccalc import _algebraic_tail

    rng = np.random.default_rng(15)
    cases = [
        (0.02, 1.0), (0.02, 0.01045), (0.05, 0.05), (0.25, 1.25), (0.25, 0.19), (0.5, 1.0), (0.9, 1.9), (0.999, 1.0)
    ]
    unconverged = 0
    for alpha, beta in cases:
        n = 200 if alpha < 0.1 else 2000  # the reference scans 50/alpha terms a point
        s = np.exp(rng.uniform(math.log(50.0), math.log(1e8), n))
        s[:4] = (50.0 * (1.0 + 1e-12), 50.5, 51.70344853800368, 1e8)
        z = -(s**alpha)
        z[1::4] *= -1.0
        got = _algebraic_tail(alpha, beta, z)
        ref = algebraic_tail_full_table(alpha, beta, z)
        assert got[0].tobytes() == ref[0].tobytes(), (alpha, beta)
        assert got[1].tobytes() == ref[1].tobytes(), (alpha, beta)
        unconverged += np.count_nonzero(~ref[1])
    assert unconverged > 0


def test_tail_memory_bounded():
    # the envelope is scanned a chunk of terms at a time, in blocks whose
    # temporaries fit _BLOCK_BYTES: beyond them only the sums and flags
    # (9 bytes a point) grow with the point count.  Scanning every point's
    # whole 399-term table needed 2.3 MiB here
    from fracspec.fraccalc import _BLOCK_BYTES, _algebraic_tail

    n = 100_000
    z = -np.linspace(5.0, 35.0, n)  # |z|^(1/alpha) from 25 to 1225
    _algebraic_tail(0.5, 1.0, z[:8])  # the table, cached per (alpha, beta)
    tracemalloc.start()
    try:
        _algebraic_tail(0.5, 1.0, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _BLOCK_BYTES + 10 * n


@pytest.mark.parametrize("alpha,beta,z", [(0.7, 0.4, -1.0), (0.999, 1.0, -39.0)])
def test_escalated_points(alpha, beta, z, monkeypatch):
    # the contour's rounding bound hands these to the mpmath series: one
    # sits near a zero of E, and E_{0.999}(-39) ~ 2.6e-5 lies far below the
    # contour's terms
    from fracspec import fraccalc

    taken = []
    series_mp = fraccalc._series_mp
    monkeypatch.setattr(fraccalc, "_series_mp", lambda a, b, zz: taken.append(zz) or series_mp(a, b, zz))
    got = ml(alpha, z, beta)
    assert len(taken) == 1
    assert abs(got / ml_reference(alpha, beta, z) - 1.0) <= 1e-12


def test_mpmath_imported_only_by_the_fallback():
    # import fracspec and an oracle-shaped sweep (relaxations, the
    # variation-of-constants weights, the Yosida kernels, alpha = 0.9 among
    # them) run without mpmath; the first point the contour hands on
    # imports it
    code = """
import sys
import numpy as np
import fracspec
from fracspec import fode
from fracspec.fraccalc import GridSeries, Kernel, TimeGrid, convolve, ml_array

print("mpmath" in sys.modules)
g = TimeGrid(1.0, 1024)
f = GridSeries(g, np.ones(g.M + 1))
for k in range(1, 5):
    lam = (k * np.pi) ** 2
    ml_array(0.5, -lam * g.nodes**0.5)
    fode.variation_of_constants(lam, f, 0.5)
for n in (10, 100, 1000):
    convolve(f, Kernel.kn(0.5, n))
convolve(f, Kernel.kn(0.9, 10))  # alpha near 1: |z|^(1/alpha) up to 13
convolve(f, Kernel.kn(0.05, 1000))  # |z|^(1/alpha) up to 1e60
ml_array(0.9, -4 * np.pi**2 * g.nodes**0.9)
fode.variation_of_constants(np.pi**2, GridSeries(TimeGrid(1.0, 128), np.ones(129)), 0.97)
fode.variation_of_constants(1e-6, f, 0.5)  # |z| <= 1e-6 at beta = alpha + 2
print("mpmath" in sys.modules)
ml_array(0.7, -1.0, 0.4)
print("mpmath" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "True"]
