"""Discrete fractional-calculus operators: closed-form oracles and invariants."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracspec import fode, fraccalc
from fracspec.fode import FractionalIVP, l1_solve, picard_solve
from fracspec import (
    GridSeries,
    Kernel,
    TimeGrid,
    caputo_derivative,
    convolve,
    integration_by_parts_residual,
    rl_derivative,
    rl_integral,
    rl_integral_left,
)
from fracspec.fraccalc import (
    _BLOCK_BYTES,
    _DIRECT_ROWS,
    _KERNEL_BYTES,
    _KERNEL_ENTRIES,
    _KERNELS,
    _antiderivative_weights,
    _causal_conv,
    _conv_tail,
    _fft_rows,
    _max_norm,
    _ml_kernel_weights,
    _pl_weights,
    ml_array,
)
from oracles import ml_laplace_reference


def series(T, M, fn):
    g = TimeGrid(T, M)
    return GridSeries(g, fn(g.nodes))


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(2.0, 4)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.dt == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            GridSeries(TimeGrid(1.0, 4), np.ones(4))
        with pytest.raises(ValueError):
            GridSeries(TimeGrid(1.0, 4), np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
        # regressions: True passed as one step, and 0-d values failed with
        # an IndexError at vals.shape[0]
        for M in (True, 2.5):
            with pytest.raises(ValueError, match="step count M must be a positive integer"):
                TimeGrid(1.0, M)
        with pytest.raises(ValueError, match=r"values of shape \(\)"):
            GridSeries(TimeGrid(1.0, 4), 1.0)

    @pytest.mark.parametrize("T", ["2", b"2", True, 1 + 0j, None])
    def test_rejects_a_horizon_that_is_not_real(self, T):
        # regression: "2" failed with a TypeError from the comparison, and
        # True was taken as T = 1
        with pytest.raises(ValueError, match="horizon T must be a positive real"):
            TimeGrid(T, 4)

    def test_horizon_stored_as_float(self):
        # regression: TimeGrid(1, 2).T stayed the int 1; dt keeps its bits
        for T in (1, np.float64(1.0), np.array(1.0)):
            g = TimeGrid(T, 3)
            assert type(g.T) is float and g.T == 1.0
            assert g.dt.hex() == (1.0 / 3).hex()

    def test_rejects_complex_values(self):
        # regression: the cast to float dropped the imaginary part with only
        # a ComplexWarning
        with pytest.raises(ValueError, match="real"):
            GridSeries(TimeGrid(1.0, 4), np.ones(5) + 1e-3j)

    def test_values_immutable(self):
        s = series(1.0, 8, lambda t: t)
        with pytest.raises(ValueError):
            s.values[0] = 1.0


class TestRLIntegral:
    def test_constant(self):
        # I^alpha 1 = t^alpha / Gamma(alpha + 1)
        s = series(1.0, 512, lambda t: np.ones_like(t))
        out = rl_integral(s, 0.5)
        t1 = out.values[-1]
        assert t1 == pytest.approx(1.0 / math.gamma(1.5), abs=1e-6)
        assert out.values[0] == 0.0

    def test_zero(self):
        s = series(1.0, 64, lambda t: np.zeros_like(t))
        assert np.all(rl_integral(s, 0.5).values == 0.0)

    def test_linear_exact(self):
        # piecewise-linear data integrate exactly: I^0.5 t = Gamma(2)/Gamma(2.5) t^1.5
        s = series(1.0, 64, lambda t: t)
        out = rl_integral(s, 0.5)
        expected = math.gamma(2.0) / math.gamma(2.5)
        assert out.values[-1] == pytest.approx(expected, rel=1e-13)

    def test_power_rule_convergence(self):
        # I^alpha t^mu = Gamma(mu+1)/Gamma(mu+1+alpha) t^(mu+alpha), and
        # mirrored I^alpha_{T-} (T-t)^mu, at every node; M = 4096 convolves
        # by FFT, where the second-order error must keep falling (x256)
        errs = []
        for M in (128, 256, 4096):
            t = TimeGrid(1.0, M).nodes
            exact = math.gamma(3.0) / math.gamma(3.3) * t**2.3
            out = rl_integral(series(1.0, M, lambda t: t**2), 0.3).values
            left = rl_integral_left(series(1.0, M, lambda t: (1.0 - t) ** 2), 0.3).values
            errs.append(max(np.max(np.abs(out - exact)), np.max(np.abs(left - exact[::-1]))))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-5
        assert errs[2] <= errs[1] / 200.0

    def test_semigroup(self):
        # I^a I^b x ~ I^(a+b) x within O(dt) on smooth data
        for fn in (lambda t: t**2, lambda t: np.sin(np.pi * t), lambda t: np.exp(t)):
            for a, b in ((0.3, 0.45), (0.25, 0.5)):
                prev = None
                for M in (128, 256):
                    s = series(1.0, M, fn)
                    lhs = rl_integral(rl_integral(s, a), b).values
                    rhs = rl_integral(s, a + b).values
                    err = np.max(np.abs(lhs - rhs))
                    assert err <= 2.0 * (1.0 / M)
                    if prev is not None:
                        assert err < prev
                    prev = err


class TestLeftIntegral:
    def test_constant_reflection(self):
        s = series(4.0, 256, lambda t: np.ones_like(t))
        out = rl_integral_left(s, 0.5)
        # at t = 0 the left integral of 1 equals T^0.5 / Gamma(1.5)
        assert out.values[0] == pytest.approx(2.0 / math.gamma(1.5), abs=1e-5)
        assert out.values[-1] == 0.0

    def test_zero(self):
        s = series(1.0, 32, lambda t: np.zeros_like(t))
        assert np.all(rl_integral_left(s, 0.7).values == 0.0)

    def test_reflection_identity(self):
        # I_left^a[x](t) = I^a[x o reflect](T - t), exactly on the mirrored grid
        g = TimeGrid(1.0, 128)
        x = GridSeries(g, g.nodes**2)
        xr = GridSeries(g, (1.0 - g.nodes) ** 2)
        left = rl_integral_left(x, 0.5).values
        right = rl_integral(xr, 0.5).values[::-1]
        assert np.array_equal(left, right)


class TestCaputo:
    def test_constant_is_zero(self):
        s = series(1.0, 128, lambda t: np.full_like(t, 3.7))
        assert np.all(caputo_derivative(s, 0.5).values == 0.0)

    def test_linear_power_rule(self):
        # D^0.5 t = t^0.5 / Gamma(1.5); error O(dt^1.5)
        s = series(1.0, 512, lambda t: t)
        out = caputo_derivative(s, 0.5)
        assert out.values[-1] == pytest.approx(1.0 / math.gamma(1.5), abs=1e-4)

    def test_quadratic_power_rule(self):
        # D^0.3 t^2 = 2 t^1.7 / Gamma(2.7); Gamma(2.7) = 1.5446858458505937650
        # to 20 digits (reference value), so the routed gamma is cross-checked
        assert math.gamma(2.7) == pytest.approx(1.5446858458505937650, rel=1e-13)
        s = series(1.0, 512, lambda t: t**2)
        out = caputo_derivative(s, 0.3)
        assert out.values[-1] == pytest.approx(2.0 / math.gamma(2.7), abs=1e-4)

    def test_rejects_tiny_grid(self):
        s = series(1.0, 1, lambda t: t)
        with pytest.raises(ValueError):
            caputo_derivative(s, 0.5)

    def test_left_inverse_rate(self):
        # D^a I^a x = x with sup error O(dt^(2-a)) for smooth x, x(0) = 0
        alpha = 0.4
        errs = {}
        for M in (128, 256):
            s = series(1.0, M, lambda t: t**2)
            rec = caputo_derivative(rl_integral(s, alpha), alpha)
            errs[M] = np.max(np.abs(rec.values[1:] - s.values[1:]))
        rate = math.log2(errs[128] / errs[256])
        assert rate >= 0.9 * (2.0 - alpha)
        assert errs[256] < 1e-4


class TestRLDerivative:
    def test_zero_start_matches_caputo_exactly(self):
        s = series(1.0, 128, lambda t: np.sin(t))
        a = rl_derivative(s, 0.5).values
        b = caputo_derivative(s, 0.5).values
        assert np.array_equal(a, b)

    def test_constant_singular_term(self):
        # RL D^0.5 1 at t = 4 equals 1/(Gamma(0.5) * 2)
        g = TimeGrid(8.0, 1024)
        s = GridSeries(g, np.ones(1025))
        out = rl_derivative(s, 0.5)
        assert out.values[512] == pytest.approx(1.0 / (math.gamma(0.5) * 2.0), rel=1e-12)

    def test_linear(self):
        s = series(1.0, 512, lambda t: t)
        out = rl_derivative(s, 0.5)
        assert out.values[-1] == pytest.approx(1.0 / math.gamma(1.5), abs=1e-4)


class TestConvexityInequality:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_linear_case_nonnegative(self, alpha):
        # 2 x D^a x - D^a(x^2) >= 0 for x(t) = t; closed form
        # 2 t^(2-a) (1/Gamma(2-a) - 1/Gamma(3-a)) >= 0, reproduced by the
        # discrete operators within scheme tolerance
        g = TimeGrid(1.0, 256)
        x = GridSeries(g, g.nodes.copy())
        x2 = GridSeries(g, g.nodes**2)
        dx = caputo_derivative(x, alpha).values
        dx2 = caputo_derivative(x2, alpha).values
        expr = 2.0 * x.values * dx - dx2
        exact = 2.0 * g.nodes ** (2.0 - alpha) * (
            1.0 / math.gamma(2.0 - alpha) - 1.0 / math.gamma(3.0 - alpha)
        )
        assert np.all(exact >= 0.0)
        tol_scheme = g.dt ** (2.0 - alpha)
        assert np.min(expr[1:]) >= -tol_scheme
        assert np.max(np.abs(expr[1:] - exact[1:])) <= 10.0 * tol_scheme


class TestCausalConv:
    @pytest.mark.parametrize("shape", [(9,), (9, 3), (9, 2, 4)])
    def test_matches_full_convolution_per_column(self, shape):
        # kernels as long as the data and longer (the I^alpha weights carry
        # one entry more than the data they act on)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape)
        n = shape[0]
        for kernel in (rng.standard_normal(n), _pl_weights(0.4, n)[1]):
            got = _causal_conv(kernel, x)
            assert got.shape == x.shape
            cols = x.reshape(n, -1)
            want = np.stack([np.convolve(kernel, cols[:, c])[:n] for c in range(cols.shape[1])], axis=1)
            assert np.array_equal(got.reshape(n, -1), want)

    @pytest.mark.parametrize("shape", [(_DIRECT_ROWS + 1,), (4096, 3), (3000, 2, 3)])
    def test_fft_side_matches_full_convolution(self, shape):
        # above _DIRECT_ROWS rows every column goes through one rfft product;
        # its rounding is normwise, so each column's error is bounded by the
        # largest entry of |kernel| * |x|.  Kernels as long as the data and
        # one entry longer, as the I^alpha weights are.
        rng = np.random.default_rng(9)
        x = rng.standard_normal(shape)
        n = shape[0]
        for kernel in (rng.standard_normal(n), _pl_weights(0.4, n)[1]):
            got = _causal_conv(kernel, x)
            assert got.shape == x.shape
            cols = x.reshape(n, -1)
            for c in range(cols.shape[1]):
                want = np.convolve(kernel, cols[:, c])[:n]
                scale = np.convolve(np.abs(kernel), np.abs(cols[:, c]))[:n].max()
                assert np.max(np.abs(got.reshape(n, -1)[:, c] - want)) <= 1e-14 * scale

    def test_fft_side_memory_bounded(self):
        # the columns pass through the FFT a block at a time: beyond the
        # output, the peak holds at most _BLOCK_BYTES of column temporaries
        # and the kernel spectrum.  All columns at once would hold the
        # (L/2+1) x 8 spectrum and L x 8 inverse, 4 MiB at L = 32768.
        n, cols = 16384, 8
        L = 2 * n
        x = np.random.default_rng(10).standard_normal((n, cols))
        kernel = _pl_weights(0.5, n)[1]
        tracemalloc.start()
        try:
            _causal_conv(kernel, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + _BLOCK_BYTES + 16 * (L // 2 + 1)

    @pytest.mark.parametrize("k, n", [(1, 1), (5, 8), (64, 63), (257, 300)])
    def test_tail_matches_direct_convolution(self, k, n):
        # the FFT block product equals the rows k..k+n-1 of the direct
        # convolution of the kernel with x padded by n zeros
        rng = np.random.default_rng(8)
        x = rng.standard_normal((k, 3))
        kernel = _pl_weights(0.4, k + n)[1]
        got = _conv_tail(kernel, x, n)
        want = np.stack([np.convolve(kernel, x[:, c])[k : k + n] for c in range(3)], axis=1)
        assert got.shape == (n, 3)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 37, 64])
    def test_fft_rows_one_kernel_per_column(self, n):
        # the leaf resolvents of a diagonal march: column c is convolved with
        # kernel[:, c], the same values as its own one-column product bit for
        # bit, and the direct convolution's up to rounding
        rng = np.random.default_rng(13)
        x = rng.standard_normal((n, 5))
        kernel = rng.standard_normal((n, 5))
        L = 1 << (2 * n - 2).bit_length()
        kspec = np.fft.rfft(kernel, n=L, axis=0)
        got = _fft_rows(kspec, x, L, 0, n)
        for c in range(5):
            want = np.convolve(kernel[:, c], x[:, c])[:n]
            scale = np.convolve(np.abs(kernel[:, c]), np.abs(x[:, c]))[:n].max()
            assert np.max(np.abs(got[:, c] - want)) <= 1e-14 * scale
            one = np.fft.rfft(kernel[:, c], n=L)
            assert np.array_equal(got[:, c], _fft_rows(one, x[:, c : c + 1], L, 0, n)[:, 0])

    @pytest.mark.parametrize("order", [0.05, 0.35, 0.9, 1.0])
    def test_pl_weights_accurate(self, order):
        # regression: the closed-form second differences cancel down from
        # ~r^(order+1) to ~r^(order-1) and lost 5e-10 relative at r = 1000;
        # here the closed forms are evaluated in 50-digit arithmetic
        import mpmath

        rs = [1, 2, 3, 4, 7, 100, 999, 4999]
        a0, W = _pl_weights(order, 5000)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(order), mpmath.mpf(order) + 1
            for r in rs:
                x = mpmath.mpf(r)
                w_ref = (x + 1) ** b - 2 * x**b + (x - 1) ** b
                a0_ref = (x - 1) ** b - x**a * (x - b)
                assert abs(W[r] / float(w_ref) - 1.0) <= 1e-14
                assert abs(a0[r] / float(a0_ref) - 1.0) <= 1e-14

    @pytest.mark.parametrize("order", [0.05, 0.35, 0.9, 1.0])
    @pytest.mark.parametrize("dt", [1e-3, 0.37])
    def test_antiderivative_weights_match_power_weights(self, order, dt):
        # the power kernel s^(order-1) / Gamma(order) from its antiderivatives
        # gives _pl_weights at scale dt^order / Gamma(order + 2), which pins
        # the node each cell's weights reach.  A weight ~order r^(order-1)
        # is a second difference of terms ~r^(order+1), so the rounding of u
        # and v grows to ~eps r^2 / order of it (1.6e-8 at order 0.05, r =
        # 1000; at most 8.1 eps (r+1)^2 / order over 9 orders in [0.05, 1]
        # and 7 steps in [1e-5, 1.7]): the reason I^alpha keeps _pl_weights'
        # series
        M = 1000
        s = np.arange(M + 1) * dt
        u = s**order / math.gamma(order + 1.0)
        v = s ** (order + 1.0) / math.gamma(order + 2.0)
        a0, W = _antiderivative_weights(u, v, dt)
        ref_a0, ref_W = _pl_weights(order, M)
        scale = dt**order / math.gamma(order + 2.0)
        assert a0[0] == 0.0 and len(a0) == M + 1 and len(W) == M
        bound = 16.0 * np.finfo(float).eps * (np.arange(M) + 1.0) ** 2 / order
        assert np.all(np.abs(a0[1:] / (scale * ref_a0[1:]) - 1.0) <= bound)  # a0[m], m = 1..M
        assert np.all(np.abs(W / (scale * ref_W[:M]) - 1.0) <= bound)  # W[r], r = 0..M-1


class TestConvolve:
    def test_l_kernel_is_fractional_integral(self):
        # l * 1 = t^alpha / Gamma(alpha + 1), exact for constant data
        g = TimeGrid(1.0, 256)
        one = GridSeries(g, np.ones(257))
        for a in (0.3, 0.5, 0.7):
            got = convolve(one, Kernel.l(a)).values
            exact = g.nodes**a / math.gamma(a + 1.0)
            assert np.max(np.abs(got - exact)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_lk_identity_cumulative(self, alpha):
        # (l * k)(t) = 1 checked through its antiderivative: l * k * 1 = t.
        # Both factors are singular at 0, so the identity is certified on the
        # cumulative form where every convolution has piecewise-linear data.
        res = {}
        for M in (1024, 2048):
            g = TimeGrid(1.0, M)
            u = convolve(GridSeries(g, np.ones(M + 1)), Kernel.k(alpha))
            v = convolve(u, Kernel.l(alpha))
            res[M] = np.max(np.abs(v.values - g.nodes))
        assert res[1024] <= 2e-3
        assert res[2048] <= 0.5 * res[1024]

    @pytest.mark.parametrize("alpha,n", [(0.5, 1), (0.5, 10), (0.3, 100), (0.7, 1000), (0.05, 1000)])
    def test_kn_kernel_against_closed_form(self, alpha, n):
        # k_n is integrated exactly against each linear piece, so k_n * 1 =
        # n t E_{alpha,2}(-n t^alpha) and k_n * t = n t^2 E_{alpha,3}(-n
        # t^alpha) hold to rounding however thin the layer n^(-1/alpha).
        # Regression: two-point Gauss with a graded diagonal cell read 1.3e-4
        # relative at alpha = 0.7, n = 1000.  The reference inverts the
        # Laplace transform: the series cannot cancel |z|^(1/alpha) = 1e60
        g = TimeGrid(1.0, 512)
        one = convolve(GridSeries(g, np.ones(513)), Kernel.kn(alpha, n)).values
        lin = convolve(GridSeries(g, g.nodes.copy()), Kernel.kn(alpha, n)).values
        for m in (1, 2, 37, 256, 512):
            t = g.nodes[m]
            x = n * t**alpha
            assert abs(one[m] / (n * t * ml_laplace_reference(alpha, 2.0, x)) - 1.0) <= 1e-12, m
            assert abs(lin[m] / (n * t * t * ml_laplace_reference(alpha, 3.0, x)) - 1.0) <= 1e-12, m

    @pytest.mark.parametrize("alpha,n", [(0.5, 10), (0.7, 1000), (0.05, 1000)])
    def test_kn_kernel_second_order(self, alpha, n):
        # k_n * t^2 = 2 n t^3 E_{alpha,4}(-n t^alpha): the error at T is the
        # interpolation error of the data alone, second order from the first
        # grid on (the Gauss rule's ratios were 1.28-1.92)
        exact = 2.0 * n * ml_laplace_reference(alpha, 4.0, n)
        errs = []
        for M in (256, 512, 1024, 2048):
            g = TimeGrid(1.0, M)
            errs.append(abs(convolve(GridSeries(g, g.nodes**2), Kernel.kn(alpha, n)).values[-1] - exact))
        assert all(coarse >= 3.8 * fine for coarse, fine in zip(errs, errs[1:])), errs

    @pytest.mark.parametrize("M", [256, 4096])
    def test_kn_kernel_columns(self, M):
        # a two-column series equals its columns bit for bit (M = 4096
        # convolves by FFT)
        g = TimeGrid(1.0, M)
        cols = np.stack([np.exp(g.nodes), np.cos(3.0 * g.nodes)], axis=1)
        both = convolve(GridSeries(g, cols), Kernel.kn(0.6, 100)).values
        for c in range(2):
            assert np.array_equal(both[:, c], convolve(GridSeries(g, cols[:, c]), Kernel.kn(0.6, 100)).values)

    def test_yosida_identity_resolved_layer(self):
        # s + n (l * s) = 1 via the discrete convolution; accurate once the
        # kernel layer n^(-1/alpha) is resolved by the grid (here n = 1)
        for alpha in (0.5, 0.7):
            g = TimeGrid(1.0, 1024)
            s = GridSeries(g, ml_array(alpha, -(g.nodes**alpha)))
            resid = s.values + convolve(s, Kernel.l(alpha)).values - 1.0
            assert np.max(np.abs(resid)) <= 1e-3

    def test_yosida_identity_refines(self):
        # under-resolved layers converge as the grid refines
        alpha, n = 0.5, 10
        res = {}
        for M in (512, 1024, 2048):
            g = TimeGrid(1.0, M)
            s = GridSeries(g, ml_array(alpha, -n * g.nodes**alpha))
            resid = s.values + n * convolve(s, Kernel.l(alpha)).values - 1.0
            res[M] = np.max(np.abs(resid))
        assert res[2048] < res[1024] < res[512]

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("q", 0.5)
        with pytest.raises(ValueError):
            Kernel.l(1.5)
        with pytest.raises(ValueError):
            Kernel.kn(0.5, 0)
        # regression: n < 1 is False for NaN, and convolve then failed inside
        # ml_array ("arguments must be finite")
        for n in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="index n"):
                Kernel.kn(0.5, n)
        # regression: True was taken as n = 1, and convolve gave k_1
        for n in (True, np.True_):
            with pytest.raises(ValueError, match="index n must be a finite real >= 1, got True"):
                Kernel.kn(0.5, n)

    def test_kernel_index_as_a_0d_array(self):
        # a 0-d array n is its float: same cache entry, same bits
        g = TimeGrid(1.0, 64)
        f = GridSeries(g, np.sin(g.nodes))
        want = convolve(f, Kernel.kn(0.5, 20.0)).values
        assert convolve(f, Kernel.kn(0.5, np.array(20.0))).values.tobytes() == want.tobytes()


class TestIntegrationByParts:
    def test_zero(self):
        g = TimeGrid(1.0, 64)
        z = GridSeries(g, np.zeros(65))
        f = GridSeries(g, g.nodes.copy())
        assert integration_by_parts_residual(z, f, 0.5) == 0.0

    def test_linear_pair(self):
        g = TimeGrid(1.0, 256)
        f = GridSeries(g, g.nodes.copy())
        h = GridSeries(g, 1.0 - g.nodes)
        assert integration_by_parts_residual(f, h, 0.5) < 1e-4

    def test_self_convergence(self):
        # residual halves (or better) with each grid doubling
        prev = None
        for M in (128, 256, 512):
            g = TimeGrid(1.0, M)
            f = GridSeries(g, np.sin(np.pi * g.nodes))
            r = integration_by_parts_residual(f, f, 0.7)
            if prev is not None:
                assert r <= 0.5 * prev + 1e-14
            prev = r

    def test_asymmetric_pair_decay(self):
        # an asymmetric pair exercises genuine quadrature error
        prev = None
        for M in (128, 256, 512):
            g = TimeGrid(1.0, M)
            f = GridSeries(g, np.exp(g.nodes))
            h = GridSeries(g, np.cos(3.0 * g.nodes))
            r = integration_by_parts_residual(f, h, 0.5)
            if prev is not None:
                assert r <= 0.6 * prev
            prev = r
        assert r < 1e-4

    @pytest.mark.parametrize("M", [256, 4096])
    def test_one_product_integration(self, monkeypatch, M):
        # both sides run as two columns of one product integration, with one
        # set of weights, bit for bit the two-call form (M = 4096 convolves
        # by FFT)
        from fracspec import fraccalc

        g = TimeGrid(1.0, M)
        f = GridSeries(g, np.exp(g.nodes))
        h = GridSeries(g, np.cos(3.0 * g.nodes))
        lhs = np.trapezoid(rl_integral(f, 0.5).values * h.values, g.nodes)
        rhs = np.trapezoid(f.values * rl_integral_left(h, 0.5).values, g.nodes)
        pl_weights = fraccalc._pl_weights
        calls = []
        monkeypatch.setattr(fraccalc, "_pl_weights", lambda *a: calls.append(a) or pl_weights(*a))
        assert integration_by_parts_residual(f, h, 0.5) == float(abs(lhs - rhs))
        assert calls == [(0.5, M)]

    def test_rejects_bad_alpha(self):
        f = series(1.0, 64, lambda t: t)
        with pytest.raises(ValueError, match="alpha"):
            integration_by_parts_residual(f, f, 1.5)

    def test_grid_mismatch(self):
        f = series(1.0, 64, lambda t: t)
        h = series(1.0, 128, lambda t: t)
        with pytest.raises(ValueError):
            integration_by_parts_residual(f, h, 0.5)

    def test_rejects_vector_series(self):
        # regression: two vector series failed with a TypeError in float(),
        # their trapezoids having run along the last axis instead of time
        f = series(1.0, 64, lambda t: np.stack([t, t * t], axis=1))
        h = series(1.0, 64, lambda t: t)
        for a, b in ((f, f), (f, h), (h, f)):
            with pytest.raises(ValueError, match="scalar series"):
                integration_by_parts_residual(a, b, 0.5)


class TestMaxNorm:
    # the one overflow-safe max_m ||v_m||_2: the Picard residual check and the
    # sampled sup bounds of the paper's constants

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 7.5e5, 1e300])
    def test_one_component_is_max_abs(self, scale):
        v = scale * np.random.default_rng(4).standard_normal(1001)
        assert _max_norm(v[:, None]) == np.abs(v).max()

    def test_rows(self):
        v = np.random.default_rng(5).standard_normal((300, 7))
        ref = np.linalg.norm(v, axis=1).max()
        assert _max_norm(v) == pytest.approx(ref, rel=4 * np.finfo(float).eps)

    def test_finite_on_huge_rows(self):
        # the squares overflow; the scaled norm does not
        got = _max_norm(np.full((5, 3), 1e200))
        assert math.isfinite(got)
        assert got == pytest.approx(math.sqrt(3.0) * 1e200, rel=1e-15)

    def test_non_finite(self):
        v = np.ones((4, 2))
        v[2, 1] = math.inf
        assert _max_norm(v) == math.inf
        v[1, 0] = math.nan
        assert math.isnan(_max_norm(v))

    def test_zeros(self):
        assert _max_norm(np.zeros((6, 3))) == 0.0
        assert _max_norm(np.zeros((6, 0))) == 0.0


def clear_kernels():
    _pl_weights.cache_clear()
    fode._l1_pair.cache_clear()
    _ml_kernel_weights.cache_clear()


class TestKernelCache:
    # _pl_weights, fode._l1_pair and _ml_kernel_weights keep their kernels,
    # and the FFT spectra formed of them, in one LRU (_KERNELS) bounded by
    # entries and by bytes; cached or not, every result has the same bits

    @staticmethod
    def outputs(M):
        """I^alpha (by FFT above _DIRECT_ROWS), the IBP residual, both
        solvers (history tails by FFT), variation_of_constants and k_n (by
        FFT above _DIRECT_ROWS) on a grid of M steps, as arrays."""
        g = TimeGrid(1.0, M)
        t = g.nodes
        x = GridSeries(g, np.column_stack([np.sin(3.0 * t), t**1.5]))
        f, h = GridSeries(g, x.values[:, 0]), GridSeries(g, x.values[:, 1])
        ivp = FractionalIVP(0.4, g, (2.0 + np.sin(t))[:, None, None], np.cos(t)[:, None])
        return [
            rl_integral(x, 0.4).values,
            np.array(integration_by_parts_residual(f, h, 0.4)),
            picard_solve(ivp)[0].values,
            l1_solve(ivp).values,
            fode.variation_of_constants(2.0, f, 0.4).values,
            convolve(x, Kernel.kn(0.4, 50)).values,
        ]

    def test_cold_warm_and_uncached_agree(self, monkeypatch):
        M = 3000
        assert M > _DIRECT_ROWS
        clear_kernels()
        cold = self.outputs(M)
        a0, W = _pl_weights(0.4, M)
        kn = _ml_kernel_weights(0.4, 1.0, 50.0, M, 1.0 / M)
        warm = self.outputs(M)
        assert _pl_weights(0.4, M)[1] is W  # served from the cache
        assert _ml_kernel_weights(0.4, 1.0, 50.0, M, 1.0 / M)[1] is kn[1]
        for fn, args in ((_pl_weights, (0.4, M)), (_ml_kernel_weights, (0.4, 1.0, 50.0, M, 1.0 / M))):
            assert len(_KERNELS._table[(fn.__wrapped__, args)][1]) >= 1  # with a spectrum
        uncached_pl = _pl_weights.__wrapped__
        assert all(a.tobytes() == b.tobytes() for a, b in zip(uncached_pl(0.4, M), (a0, W)))
        uncached_ml = _ml_kernel_weights.__wrapped__
        assert all(a.tobytes() == b.tobytes() for a, b in zip(uncached_ml(0.4, 1.0, 50.0, M, 1.0 / M), kn))
        monkeypatch.setattr(fraccalc, "_pl_weights", uncached_pl)
        monkeypatch.setattr(fode, "_pl_weights", uncached_pl)
        monkeypatch.setattr(fode, "_l1_pair", fode._l1_pair.__wrapped__)
        monkeypatch.setattr(fraccalc, "_ml_kernel_weights", uncached_ml)
        uncached = self.outputs(M)
        for c, w, u in zip(cold, warm, uncached):
            assert c.tobytes() == w.tobytes() == u.tobytes()

    def test_clear_drops_the_mittag_leffler_kernels(self):
        clear_kernels()
        g = TimeGrid(1.0, 64)
        f = GridSeries(g, np.cos(g.nodes))
        fode.variation_of_constants(3.0, f, 0.5)
        convolve(f, Kernel.kn(0.5, 10))
        held = [key for key in _KERNELS._table if key[0] is _ml_kernel_weights.__wrapped__]
        assert len(held) == 2
        clear_kernels()
        assert not _KERNELS._table

    def test_repeated_sweep_skips_ml_array(self, monkeypatch):
        # the second identical sweep of variation_of_constants and k_n finds
        # every weight in the cache: no Mittag-Leffler evaluation at all
        g = TimeGrid(1.0, 256)
        f = GridSeries(g, 1.0 + g.nodes)

        def sweep():
            out = [fode.variation_of_constants(lam, f, 0.6).values for lam in (0.0, 1.0, 40.0)]
            return out + [convolve(f, Kernel.kn(0.6, n)).values for n in (10, 1000)]

        calls = []
        ml = fraccalc.ml_array
        monkeypatch.setattr(fraccalc, "ml_array", lambda *a: calls.append(a) or ml(*a))
        clear_kernels()
        first = sweep()
        assert len(calls) == 10  # two a kernel
        calls.clear()
        second = sweep()
        assert calls == []
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize(
        "name, a, b",
        [
            ("n", 7, 7.0),
            ("lam", 0.0, -0.0),
            ("lam", 2.5, np.float64(2.5)),
            ("lam", 2.5, np.array(2.5)),
            ("alpha", 0.45, np.float64(0.45)),
            ("alpha", 0.45, np.array(0.45)),
        ],
        ids=["int-n", "signed-zero-lam", "float64-lam", "0d-lam", "float64-alpha", "0d-alpha"],
    )
    def test_key_equal_inputs_share_the_uncached_bits(self, name, a, b, reverse, monkeypatch):
        # inputs whose floats are equal share one cache entry, whichever
        # comes first, and every one of them gets the bits of the uncached
        # weights of the plain float
        g = TimeGrid(1.0, 200)
        f = GridSeries(g, np.exp(-g.nodes))
        args = {"n": 7.0, "lam": 2.5, "alpha": 0.45}

        def run(value):
            kw = dict(args, **{name: value})
            if name == "n":
                return convolve(f, Kernel.kn(kw["alpha"], kw["n"])).values
            return fode.variation_of_constants(kw["lam"], f, kw["alpha"]).values

        with monkeypatch.context() as m:
            m.setattr(fraccalc, "_ml_kernel_weights", _ml_kernel_weights.__wrapped__)
            ref = run(float(a))
        clear_kernels()
        outs = [run(v) for v in ((b, a) if reverse else (a, b))]
        assert len(_KERNELS._table) == 1
        for out in outs:
            assert out.tobytes() == ref.tobytes()

    def test_cached_arrays_are_read_only(self):
        a0, W = _pl_weights(0.3, 100)
        _, kernel = fode._l1_pair(0.3, 100, 0.01)
        b0, V = _ml_kernel_weights(0.3, 0.3, 2.0, 100, 0.01)
        spectrum = _KERNELS.spectrum(W, 100, 256)
        for array in (a0, W, kernel, b0, V, spectrum):
            with pytest.raises(ValueError):
                array[1] = 0.0

    def test_entries_bounded(self):
        clear_kernels()
        for M in range(10, 10 + 2 * _KERNEL_ENTRIES):
            _pl_weights(0.5, M)
            fode._l1_pair(0.5, M, 1.0 / M)
        assert len(_KERNELS._table) == _KERNEL_ENTRIES

    def test_retained_memory_bounded(self):
        # each grid keeps (a0, W) and the spectrum of W, ~2 MiB at M = 2^16:
        # past the byte bound the oldest entries leave, so what stays is
        # within _KERNEL_BYTES plus a little bookkeeping; one call first loads
        # the modules it imports on first use
        rl_integral(GridSeries(TimeGrid(1.0, 2 * _DIRECT_ROWS), np.ones(2 * _DIRECT_ROWS + 1)), 0.5)
        clear_kernels()
        formed = 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(_KERNEL_ENTRIES):
                M = 2**16 + i
                rl_integral(GridSeries(TimeGrid(1.0, M), np.ones(M + 1)), 0.5)
                formed += 16 * (M + 1) + 16 * ((1 << (2 * M - 2).bit_length()) // 2 + 1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert formed > 2 * _KERNEL_BYTES
        assert held <= _KERNEL_BYTES + 64 * 1024

    def test_threads_on_two_grids_match_serial(self):
        # distinct solves may run concurrently; they share the cached kernels
        grids = (2500, 3000) * 3
        clear_kernels()
        serial = {M: self.outputs(M) for M in set(grids)}
        clear_kernels()
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(self.outputs, grids))
        for M, out in zip(grids, runs):
            for a, b in zip(serial[M], out):
                assert a.tobytes() == b.tobytes()

    def test_stress_keeps_the_books(self):
        # more threads than cores on more grids than the cache holds, with a
        # short switch interval: every kernel and spectrum has the uncached
        # bits, and the byte count and the id table still match the entries.
        # The grids are small, so the threads spend their time in the cache
        grids = [(0.3 + 0.01 * (i % 5), 8 + i) for i in range(2 * _KERNEL_ENTRIES)]

        def work(start):
            for order, M in grids[start:] * 15:
                a0, W = _pl_weights(order, M)
                L = 1 << (2 * M - 2).bit_length()
                spectrum = _KERNELS.spectrum(W, M, L)
                ref = _pl_weights.__wrapped__(order, M)
                assert a0.tobytes() == ref[0].tobytes() and W.tobytes() == ref[1].tobytes()
                assert spectrum.tobytes() == np.fft.rfft(ref[1][:M], n=L).tobytes()

        clear_kernels()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for future in [pool.submit(work, i) for i in range(4)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        table = _KERNELS._table
        held = [v for entry in table.values() for v in entry[0] if isinstance(v, np.ndarray)]
        spectra = [spec for entry in table.values() for spec in entry[1].values()]
        assert _KERNELS._bytes == sum(a.nbytes for a in held + spectra) == sum(e[2] for e in table.values())
        assert set(_KERNELS._owner) == {id(a) for a in held}
        assert len(table) <= _KERNEL_ENTRIES and _KERNELS._bytes <= _KERNEL_BYTES
