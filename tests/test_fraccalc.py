"""Discrete fractional-calculus operators: closed-form oracles and invariants."""

import math
import tracemalloc

import numpy as np
import pytest

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
from fracspec.fraccalc import _BLOCK_BYTES, _DIRECT_ROWS, _causal_conv, _conv_tail, _max_norm, _pl_weights, ml_array


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

    @pytest.mark.parametrize("alpha,n", [(0.5, 1), (0.5, 10), (0.3, 100), (0.7, 1000)])
    def test_kn_kernel_against_closed_form(self, alpha, n):
        # k_n * t = n t^2 E_{alpha,3}(-n t^alpha)
        g = TimeGrid(1.0, 512)
        f = GridSeries(g, g.nodes.copy())
        got = convolve(f, Kernel.kn(alpha, n)).values
        exact = n * g.nodes**2 * ml_array(alpha, -n * g.nodes**alpha, 3.0)
        assert np.max(np.abs(got - exact)) < 2e-4

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

    def test_grid_mismatch(self):
        f = series(1.0, 64, lambda t: t)
        h = series(1.0, 128, lambda t: t)
        with pytest.raises(ValueError):
            integration_by_parts_residual(f, h, 0.5)


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
