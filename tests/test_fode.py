"""Fractional ODE solvers against the closed-form scalar oracle."""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import l1_march, ml_reference, pi_march

from fracspec import fode
from fracspec.fraccalc import _BLOCK_BYTES, GridSeries, TimeGrid, ml, ml_array, rl_integral
from fracspec.fode import (
    _LEAF,
    _STRIDE,
    FractionalIVP,
    PicardDivergenceError,
    SingularStepError,
    _is_diagonal,
    l1_solve,
    max_operator_norm,
    picard_apply,
    picard_solve,
    variation_of_constants,
)

# The scalar benchmark D^alpha c + lam c = q, c(0) = 0, has the closed form
# c(t) = (q/lam) (1 - E_alpha(-lam t^alpha)).  The uniform L1 scheme carries
# an initial-layer error ~ 0.24 dt^(1/2) at alpha = 1/2, so the 5e-3
# cross-scheme window at M = 512 requires dt <= ~4e-4, hence T = 0.15 here.
T_BENCH = 0.15


def scalar_ivp(T=T_BENCH, M=512, lam=1.0, alpha=0.5, q=1.0):
    g = TimeGrid(T, M)
    A = np.full((M + 1, 1, 1), lam)
    f = np.full((M + 1, 1), q)
    return FractionalIVP(alpha, g, A, f)


def scalar_exact(g, lam=1.0, alpha=0.5, q=1.0):
    return (q / lam) * (1.0 - ml_array(alpha, -lam * g.nodes**alpha))


def dense_system(M=1000):
    """A dense non-symmetric time-dependent A on M nodes, T = 2, alpha = 0.35:
    the history splitting recurses several levels deep."""
    N = 5
    g = TimeGrid(2.0, M)
    rng = np.random.default_rng(11)
    B0, B1 = rng.standard_normal((2, N, N))
    A = 3.0 * np.eye(N) + B0 + np.cos(3.0 * g.nodes)[:, None, None] * B1
    f = np.cos(np.outer(g.nodes, rng.uniform(0.5, 4.0, N))) + rng.standard_normal(N)
    return FractionalIVP(0.35, g, A, f)


def node_rel_err(got, ref):
    """max over nodes 1..M of ||got_m - ref_m|| / ||ref_m||."""
    return (np.linalg.norm(got - ref, axis=1)[1:] / np.linalg.norm(ref, axis=1)[1:]).max()


# The diagonal shift sigma of each implicit step, sigma I + A_m: w0 for the
# L1 scheme, Gamma(alpha+2)/dt^alpha for product integration
def l1_sigma(g, alpha):
    return g.dt ** (-alpha) / math.gamma(2.0 - alpha)


def pi_sigma(g, alpha):
    return math.gamma(alpha + 2.0) / g.dt**alpha


def check_singular_step(solve, sigma):
    g = TimeGrid(1.0, 4)
    A = np.full((5, 1, 1), -sigma(g, 0.5))  # eigenvalue exactly -sigma
    ivp = FractionalIVP(0.5, g, A, np.ones((5, 1)))
    with pytest.raises(SingularStepError) as exc:
        solve(ivp)
    assert exc.value.node == 1


def check_singular_step_at_late_node(solve, sigma, dense):
    # the step matrix sigma I + A is exactly singular at node 700 only: the
    # error names that node on the diagonal and on the dense path
    M, N, bad = 1000, 4, 700
    g = TimeGrid(1.0, M)
    s = sigma(g, 0.5)
    A = np.tile(np.diag([1.0, 2.0, 3.0, 4.0]), (M + 1, 1, 1))
    if dense:
        A += 0.1 * np.random.default_rng(5).standard_normal((M + 1, N, N))
    A[bad, 1, :] = 0.0  # row 1 of sigma I + A vanishes exactly
    A[bad, 1, 1] = -s
    ivp = FractionalIVP(0.5, g, A, np.ones((M + 1, N)))
    with pytest.raises(SingularStepError) as exc:
        solve(ivp)
    assert exc.value.node == bad
    assert exc.value.eigenvalue_estimate == pytest.approx(-s, rel=1e-9)


# (node, mode) pairs whose diagonal step denominator sigma + A_m[k, k]
# vanishes; at M = 4 _LEAF the march's leaves hold nodes 1.._LEAF,
# _LEAF+1..2 _LEAF, 2 _LEAF+1..3 _LEAF and 3 _LEAF+1..4 _LEAF
LEAF_SINGULAR_CASES = {
    "first node of a leaf": [(_LEAF + 1, 0)],
    "last node of a leaf": [(2 * _LEAF, 0)],
    "a later mode": [(_LEAF + 7, 2)],
    "two nodes of one leaf": [(2 * _LEAF + 30, 0), (2 * _LEAF + 9, 3)],
    "two modes of one node": [(3 * _LEAF + 5, 3), (3 * _LEAF + 5, 1)],
}


def check_singular_diagonal_step(solve, sigma, singular):
    # the diagonal path checks a leaf's denominators before its first step:
    # the error names what a check before each step would, the first
    # singular node and, at it, the first singular mode's eigenvalue
    M, N = 4 * _LEAF, 4
    g = TimeGrid(1.0, M)
    s = sigma(g, 0.5)
    A = np.tile(np.diag([1.0, 2.0, 3.0, 4.0]), (M + 1, 1, 1))
    for m, k in singular:
        A[m, k, k] = -s
    node = min(m for m, _ in singular)
    mode = min(k for m, k in singular if m == node)
    ivp = FractionalIVP(0.5, g, A, np.ones((M + 1, N)))
    with pytest.raises(SingularStepError, match=f"node {node}: eigenvalue") as exc:
        solve(ivp)
    assert exc.value.node == node
    assert exc.value.eigenvalue_estimate == A[node, mode, mode] == -s


class TestOperatorNorm:
    def test_against_svd(self):
        # independent oracle: ||A||_2 = sqrt(max eigenvalue of A^T A)
        rng = np.random.default_rng(3)
        M, N = 9, 6
        A = rng.standard_normal((M + 1, N, N))
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, np.zeros((M + 1, N)))
        oracle = max(math.sqrt(np.linalg.eigvalsh(a.T @ a).max()) for a in A)
        assert max_operator_norm(ivp) == pytest.approx(oracle, rel=1e-12)

    def test_zero(self):
        M, N = 4, 3
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), np.zeros((M + 1, N, N)), np.zeros((M + 1, N)))
        assert max_operator_norm(ivp) == 0.0

    def test_diagonal_matrix_norm(self):
        A = np.zeros((5, 2, 2))
        A[:, 0, 0] = math.pi**2
        A[:, 1, 1] = 4.0 * math.pi**2
        ivp = FractionalIVP(0.25, TimeGrid(1.0, 4), A, np.zeros((5, 2)))
        assert max_operator_norm(ivp) == pytest.approx(4.0 * math.pi**2, rel=1e-7)

    # The cases below check the pruned evaluation (one SVD per _STRIDE nodes
    # bounds the rest) against the same eigvalsh oracle, node by node.

    @staticmethod
    def oracle_norms(A):
        return np.array([math.sqrt(np.linalg.eigvalsh(a.T @ a).max()) for a in A])

    def check(self, A):
        M = A.shape[0] - 1
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, np.zeros((M + 1, A.shape[1])))
        norms = self.oracle_norms(A)
        assert max_operator_norm(ivp) == pytest.approx(norms.max(), rel=1e-13, abs=0.0)
        return norms

    def test_smooth_peak_off_the_anchors(self):
        # a banded A smooth in t, its largest norm at node 517, which no
        # anchor (one per _STRIDE nodes, mid-group) sits on
        M, N = 1000, 8
        t = np.linspace(0.0, 1.0, M + 1)
        bump = 1.0 + 0.5 * np.exp(-(((t - 0.517) / 0.05) ** 2))
        A = np.zeros((M + 1, N, N))
        idx = np.arange(N)
        A[:, idx, idx] = bump[:, None] * (1.0 + idx) ** 2
        A[:, idx[:-1], idx[1:]] = np.cos(3.0 * t)[:, None]
        A[:, idx[1:], idx[:-1]] = -0.5
        norms = self.check(A)
        peak = int(np.argmax(norms))
        assert peak == 517 and peak % _STRIDE not in (_STRIDE // 2 - 1, _STRIDE // 2)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-565], ids=["unit", "tiny"])
    def test_spike_between_anchors(self, scale):
        # one node far above all others, its anchor's norm below the largest
        # anchor norm: only its distance to the anchor sends it to the
        # survivor SVD.  At the tiny scale every square of a difference
        # underflows to 0.
        M, N = 200, 4
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.0, M + 1)
        B = (1.0 + 0.2 * t)[:, None, None] * rng.standard_normal((N, N))
        B[40] += 10.0 * rng.standard_normal((N, N))
        norms = self.oracle_norms(B)
        assert int(np.argmax(norms)) == 40
        assert norms[40] > 2.0 * np.delete(norms, 40).max()
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), scale * B, np.zeros((M + 1, N)))
        assert max_operator_norm(ivp) == pytest.approx(scale * norms.max(), rel=1e-13, abs=0.0)

    def test_random_non_smooth(self):
        # neighbouring nodes differ by more than the spread of the norms:
        # almost every node survives to the exact SVD
        rng = np.random.default_rng(8)
        self.check(rng.standard_normal((1001, 6, 6)))

    def test_broadcast(self):
        M, N = 300, 5
        band = np.diag(np.full(N, 2.0 * N)) + np.diag(np.ones(N - 1), 1)
        self.check(np.broadcast_to(band, (M + 1, N, N)))

    def test_broadcast_reads_one_node(self, monkeypatch):
        # regression: a broadcast A was pruned over all its nodes, forming
        # 65537 differences of identical matrices (~1 s) for one SVD's answer
        M, N = 65536, 64
        A0 = np.random.default_rng(11).standard_normal((N, N))
        A = np.broadcast_to(A0, (M + 1, N, N))
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, np.broadcast_to(np.zeros(N), (M + 1, N)))
        nodes = []
        distances = fode._distances

        def spy(A, anchor):
            nodes.append(len(A))
            return distances(A, anchor)

        monkeypatch.setattr(fode, "_distances", spy)
        assert max_operator_norm(ivp) == np.linalg.norm(A0, 2)
        assert nodes == [1]

    @pytest.mark.parametrize("M", [1, 2])
    def test_fewer_nodes_than_stride(self, M):
        rng = np.random.default_rng(M)
        self.check(rng.standard_normal((M + 1, 3, 3)))

    def test_memory_bounded(self):
        # A is 67 MB; the pruning forms its differences in blocks, so the
        # peak is one block plus a few doubles per node
        M, N = 8192, 32
        t = np.linspace(0.0, 1.0, M + 1)
        band = np.diag(np.full(N, 2.0 * N)) + np.diag(np.ones(N - 1), 1)
        A = band + np.sin(4.0 * t)[:, None, None] * band.T
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, np.zeros((M + 1, N)))
        tracemalloc.start()
        try:
            got = max_operator_norm(ivp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _BLOCK_BYTES + 8 * 8 * (M + 1)
        assert got == pytest.approx(np.linalg.norm(A, 2, axis=(1, 2)).max(), rel=1e-13, abs=0.0)


class TestDiagonalTest:
    # the march's test whether every node of A is diagonal

    @staticmethod
    def diagonal_nodes(M=9, N=3):
        A = np.zeros((M + 1, N, N))
        A[:, np.arange(N), np.arange(N)] = 1.0 + np.arange(M + 1)[:, None]
        return A

    @pytest.mark.parametrize("where", [None, 0, 4, 9])
    def test_off_diagonal_at_any_node(self, where):
        A = self.diagonal_nodes()
        if where is not None:
            A[where, 2, 0] = 1e-300
        assert _is_diagonal(A) is (where is None)

    def test_broadcast(self):
        assert _is_diagonal(np.broadcast_to(np.diag([1.0, 2.0]), (7, 2, 2)))
        assert not _is_diagonal(np.broadcast_to(np.ones((2, 2)), (7, 2, 2)))

    @pytest.mark.parametrize("where", [0, 5, 600])
    def test_stops_near_the_first_off_diagonal_node(self, monkeypatch, where):
        # an off-diagonal entry at node `where` decides after reading at
        # most twice that many nodes, not all 1001
        A = self.diagonal_nodes(M=1000)
        A[where, 0, 1] = 1.0
        read = []
        count_nonzero = np.count_nonzero

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 3:
                read.append(len(a))
            return count_nonzero(a, *args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", spy)
        assert not _is_diagonal(A)
        assert sum(read) <= max(1, 2 * where)


class TestFractionalIVP:
    @pytest.mark.parametrize(
        "a_shape, f_shape", [((5, 3), (5, 3)), ((5, 3, 3, 1), (5, 3)), ((5, 3, 3), (5, 3, 1))]
    )
    def test_rejects_wrong_rank(self, a_shape, f_shape):
        # regression: (M+1, N) raised IndexError, the others were accepted
        with pytest.raises(ValueError):
            FractionalIVP(0.5, TimeGrid(1.0, 4), np.zeros(a_shape), np.zeros(f_shape))

    def test_broadcast_a_is_not_materialised(self):
        # regression: a time-constant A passed as a broadcast view was copied
        # to (M+1) N^2 doubles; the problem now holds a read-only view
        M, N = 8192, 32
        band = np.diag(np.full(N, 2.0 * N)) + np.diag(np.ones(N - 1), 1)
        A = np.broadcast_to(band, (M + 1, N, N))
        f = np.ones((M + 1, N))
        tracemalloc.start()
        try:
            ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(ivp.A, band) and not ivp.A.flags.writeable
        assert not ivp.f.flags.writeable
        assert peak < A.size * 8 / 4
        # regression: the finite check built an (M+1) N^2 mask, 8 MiB here
        assert peak < 2**20

    def test_broadcast_a_read_once(self):
        # regression: the finite check and the march's diagonal test reduced
        # over every node of a time-constant A, 0.8 s and 2.8 s at this size.
        # A = -w0 I makes the first L1 step singular, so l1_solve stops just
        # after the diagonal test.
        M, N, alpha = 2**18, 64, 0.5
        grid = TimeGrid(1.0, M)
        w0 = grid.dt ** (-alpha) / math.gamma(2.0 - alpha)
        A = np.broadcast_to(-w0 * np.eye(N), (M + 1, N, N))
        f = np.broadcast_to(np.ones(N), (M + 1, N))
        start = time.perf_counter()
        ivp = FractionalIVP(alpha, grid, A, f)
        with pytest.raises(SingularStepError, match="node 1: eigenvalue"):
            l1_solve(ivp)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["A", "f"])
    def test_rejects_non_finite(self, bad, where):
        M = 6
        A, f = np.ones((M + 1, 2, 2)), np.ones((M + 1, 2))
        (A if where == "A" else f)[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            FractionalIVP(0.5, TimeGrid(1.0, M), A, f)


class TestPicard:
    def test_zero_forcing_one_iteration(self):
        ivp = scalar_ivp(q=0.0)
        traj, log = picard_solve(ivp)
        assert np.all(traj.values == 0.0)
        assert log.iterations == 1

    def test_scalar_benchmark(self):
        ivp = scalar_ivp(T=1.0)
        traj, log = picard_solve(ivp)
        # c(1) = 1 - E_{0.5}(-1) = 0.5724164238...
        assert traj.values[-1, 0] == pytest.approx(1.0 - ml(0.5, -1.0), abs=2e-3)
        assert abs(1.0 - ml(0.5, -1.0) - 0.5724164238) < 1e-9

    def test_no_feedback_exact(self):
        # A = 0: the solution is I^alpha f, up to the rounding of the march's
        # history sums
        g = TimeGrid(1.0, 128)
        ivp = FractionalIVP(0.5, g, np.zeros((129, 1, 1)), np.ones((129, 1)))
        traj, log = picard_solve(ivp)
        expected = rl_integral(GridSeries(g, np.ones(129)), 0.5).values
        assert np.max(np.abs(traj.values[1:, 0] / expected[1:] - 1.0)) <= 1e-14
        assert log.iterations == 1

    def test_fixed_point_consistency(self):
        ivp = scalar_ivp(T=1.0)
        traj, log = picard_solve(ivp)
        resid = traj.values - picard_apply(ivp, traj.values)
        assert np.max(np.abs(resid)) <= 2.0 * 1e-10
        assert log.residual == pytest.approx(np.max(np.abs(resid)), rel=1e-12, abs=0.0)

    def test_stiff_long_horizon_matches_closed_form(self):
        # regression: D^0.5 c + pi^2 c = 1 on T = 1 reported convergence with
        # c(1) ~ -6e15; c(1) = (1 - E_0.5(-pi^2)) / pi^2
        lam = math.pi**2
        traj, _ = picard_solve(scalar_ivp(T=1.0, lam=lam))
        exact = (1.0 - ml_reference(0.5, 1.0, -lam)) / lam
        assert traj.values[-1, 0] == pytest.approx(exact, rel=1e-3)

    def test_stiff_galerkin_system(self):
        # regression: diag(k^2 pi^2), k = 1..4, the 1-D Galerkin system at
        # M = 512, raised (before that, it returned O(1) errors as converged).
        # c_k(1) = (1 - E_0.5(-k^2 pi^2)) / (k^2 pi^2), with E_0.5(-x) =
        # exp(x^2) erfc(x) from mpmath; the error is the discretization's.
        g = TimeGrid(1.0, 512)
        lam = np.array([(k * math.pi) ** 2 for k in range(1, 5)])
        A = np.broadcast_to(np.diag(lam), (513, 4, 4))
        ivp = FractionalIVP(0.5, g, A, np.ones((513, 4)))
        got = picard_solve(ivp)[0].values
        with mpmath.workdps(60):
            e_half = [float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(mpmath.mpf(x))) for x in lam]
        exact = (1.0 - np.array(e_half)) / lam
        assert np.max(np.abs(got[-1] / exact - 1.0)) <= 1e-4
        ref = pi_march(0.5, 1.0, np.asarray(A), np.ones((513, 4)))
        assert np.max(np.abs(got[1:] / ref[1:] - 1.0)) <= 1e-12

    def test_matches_plain_march(self):
        # the fixed point is the product-integration march of an independent
        # O(M^2) oracle with its own weights, node by node; at M = 4096 the
        # residual check convolves by FFT
        for M in (1000, 4096):
            ivp = dense_system(M)
            got, log = picard_solve(ivp)
            ref = pi_march(ivp.alpha, ivp.grid.T, np.asarray(ivp.A), np.asarray(ivp.f))
            assert node_rel_err(got.values, ref) <= 1e-12
            assert log.residual <= 1e-13 * np.abs(got.values).max()

    def test_divergence_reported(self, monkeypatch):
        # the fixed-point residual check is the verification: a tolerance
        # below rounding fails it
        monkeypatch.setattr("fracspec.fode._PICARD_TOL", 1e-300)
        with pytest.raises(PicardDivergenceError):
            picard_solve(scalar_ivp(T=1.0))

    def test_singular_step_reported(self):
        check_singular_step(picard_solve, pi_sigma)

    @pytest.mark.parametrize("singular", LEAF_SINGULAR_CASES.values(), ids=LEAF_SINGULAR_CASES.keys())
    def test_singular_diagonal_step_named(self, singular):
        check_singular_diagonal_step(picard_solve, pi_sigma, singular)

    @pytest.mark.parametrize("dense", [False, True])
    def test_singular_step_at_late_node(self, dense):
        check_singular_step_at_late_node(picard_solve, pi_sigma, dense)

    def test_huge_forcing_does_not_overflow(self):
        # regression: the sup norm squared the entries, so f = 1e200 raised
        # "non-finite values" although every iterate is finite.  The residual
        # check is absolute below ||c|| = 1 and relative above, so both
        # solves pass it.
        g = TimeGrid(1.0, 16)
        ones = np.ones((17, 1, 1))
        unit, _ = picard_solve(FractionalIVP(0.5, g, ones, np.ones((17, 1))))
        huge, _ = picard_solve(FractionalIVP(0.5, g, ones, np.full((17, 1), 1e200)))
        np.testing.assert_allclose(huge.values, 1e200 * unit.values, rtol=1e-12, atol=0.0)


class TestSolverOutput:
    # both solvers return the coefficients as the library's one time series
    # type; the march builds c from zeros, so row 0 is exactly zero
    @pytest.mark.parametrize("solve", [l1_solve, lambda ivp: picard_solve(ivp)[0]], ids=["l1", "picard"])
    def test_read_only_grid_series_from_zero(self, solve):
        ivp = dense_system()
        c = solve(ivp)
        assert type(c) is GridSeries and c.grid is ivp.grid
        assert c.values.shape == (ivp.grid.M + 1, ivp.N) and ivp.N > 1
        assert not c.values.flags.writeable
        with pytest.raises(ValueError):
            c.values[1, 0] = 0.0
        assert np.all(np.isfinite(c.values))
        assert np.all(c.values[0] == 0.0) and np.all(c.values[1] != 0.0)

    def test_empty_system(self):
        # regression: with N = 0 the Picard residual's max norm reduced an
        # empty array and raised, where l1_solve returned
        g = TimeGrid(1.0, 8)
        ivp = FractionalIVP(0.5, g, np.zeros((9, 0, 0)), np.zeros((9, 0)))
        c, log = picard_solve(ivp)
        assert c.values.shape == l1_solve(ivp).values.shape == (9, 0)
        assert log.residual == 0.0


class TestL1Solve:
    def test_zero_forcing(self):
        assert np.all(l1_solve(scalar_ivp(q=0.0)).values == 0.0)

    def test_cross_scheme_agreement(self):
        ivp = scalar_ivp()
        exact = scalar_exact(ivp.grid)
        pic, _ = picard_solve(ivp)
        l1 = l1_solve(ivp)
        assert np.max(np.abs(pic.values[:, 0] - l1.values[:, 0])) <= 5e-3
        assert np.max(np.abs(l1.values[:, 0] - exact)) <= 5e-3

    def test_classical_limit(self):
        # alpha -> 1: close to the ODE solution 1 - exp(-t)
        g = TimeGrid(1.0, 512)
        ivp = FractionalIVP(0.999, g, np.full((513, 1, 1), 1.0), np.ones((513, 1)))
        l1 = l1_solve(ivp)
        assert np.max(np.abs(l1.values[:, 0] - (1.0 - np.exp(-g.nodes)))) <= 1e-2

    def test_singular_step_reported(self):
        check_singular_step(l1_solve, l1_sigma)

    @pytest.mark.parametrize("singular", LEAF_SINGULAR_CASES.values(), ids=LEAF_SINGULAR_CASES.keys())
    def test_singular_diagonal_step_named(self, singular):
        check_singular_diagonal_step(l1_solve, l1_sigma, singular)

    def test_mode_decoupling_is_exact(self):
        # diagonal system: mode columns identical across different N, also at
        # M = 2048, where the history passes through several FFT levels
        lam = np.array([2.0, 5.0, 9.0, 11.0, 0.5, 30.0, 7.0])
        for M in (128, 2048):
            g = TimeGrid(1.0, M)
            solves = {}
            for N in (1, 4, 7):
                f = np.sin(np.outer(g.nodes, np.arange(1.0, N + 1.0)))
                f[:, 2:3] = 0.0  # an unforced mode stays exactly zero
                A = np.broadcast_to(np.diag(lam[:N]), (M + 1, N, N))
                solves[N] = l1_solve(FractionalIVP(0.5, g, A, f)).values
            for N in (1, 4):
                assert np.array_equal(solves[N], solves[7][:, :N])
            assert np.all(solves[7][:, 2] == 0.0)

    def test_matches_plain_march(self):
        # the history splitting must reproduce the direct O(M^2) march node
        # by node
        ivp = dense_system()
        got = l1_solve(ivp).values
        ref = l1_march(ivp.alpha, ivp.grid.T, np.asarray(ivp.A), np.asarray(ivp.f))
        assert node_rel_err(got, ref) <= 1e-12

    @pytest.mark.parametrize("dense", [False, True])
    def test_singular_step_at_late_node(self, dense):
        check_singular_step_at_late_node(l1_solve, l1_sigma, dense)

    def test_dense_solve_allocates_no_copy_of_a(self):
        # regression: the diagonal test built A * eye, a full-size copy of A
        # and the solve's memory peak
        M, N = 100, 48
        rng = np.random.default_rng(3)
        A = rng.standard_normal((M + 1, N, N)) + 4.0 * N * np.eye(N)
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, np.ones((M + 1, N)))
        tracemalloc.start()
        try:
            l1_solve(ivp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ivp.A.nbytes / 4

    def test_memory_linear_in_m(self):
        # the history splitting holds O(M N) doubles: no O(M^2) or O(M N^2)
        # temporary may appear
        M, N = 8192, 32
        band = np.diag(np.full(N, 2.0 * N)) + np.diag(np.ones(N - 1), 1) - np.diag(np.ones(N - 1), -1)
        A = band + np.linspace(0.0, 1.0, M + 1)[:, None, None] * np.diag(np.ones(N - 2), 2)
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, np.ones((M + 1, N)))
        tracemalloc.start()
        try:
            l1_solve(ivp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (M + 1) * N * 8


class TestVariationOfConstants:
    def test_zero(self):
        g = TimeGrid(1.0, 64)
        out = variation_of_constants(1.0, GridSeries(g, np.zeros(65)), 0.5)
        assert np.all(out.values == 0.0)

    def test_lambda_zero_is_fractional_integral(self):
        g = TimeGrid(1.0, 256)
        one = GridSeries(g, np.ones(257))
        out = variation_of_constants(0.0, one, 0.5)
        expected = g.nodes**0.5 / math.gamma(1.5)
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    @pytest.mark.parametrize("lam", [1e-15, 1e-12])
    @pytest.mark.parametrize("forcing", ["one", "sin3t"])
    def test_tiny_lambda_approaches_fractional_integral(self, lam, forcing):
        # the solution differs from I^alpha f by O(lam); weights formed by
        # dividing by lam would lose that to cancellation
        g = TimeGrid(1.0, 64)
        f = GridSeries(g, np.ones(65) if forcing == "one" else np.sin(3.0 * g.nodes))
        out = variation_of_constants(lam, f, 0.5).values[1:]
        expected = rl_integral(f, 0.5).values[1:]
        assert np.max(np.abs(out - expected) / np.abs(expected)) <= 1e-11

    def test_matches_closed_form(self):
        # M = 4096 convolves the weights by FFT
        for M in (2048, 4096):
            g = TimeGrid(1.0, M)
            one = GridSeries(g, np.ones(M + 1))
            out = variation_of_constants(1.0, one, 0.5)
            exact = scalar_exact(g, lam=1.0, alpha=0.5)
            assert np.max(np.abs(out.values - exact)) <= 1e-6

    def test_smooth_forcing_convergence(self):
        # non-constant forcing: second-order interpolation error only
        lam, alpha = 2.0, 0.6
        errs = {}
        for M in (256, 512):
            g = TimeGrid(1.0, M)
            f = GridSeries(g, np.sin(np.pi * g.nodes))
            coarse = variation_of_constants(lam, f, alpha).values
            gf = TimeGrid(1.0, 4 * M)
            ff = GridSeries(gf, np.sin(np.pi * gf.nodes))
            fine = variation_of_constants(lam, ff, alpha).values[:: 4]
            errs[M] = np.max(np.abs(coarse - fine))
        assert errs[512] <= 0.3 * errs[256]


class TestCrossSchemeInvariants:
    def test_rate_under_refinement(self):
        # smooth-start problem (f(0) = 0): sup-norm agreement improves at
        # empirical rate >= 0.8 * min(1, 2 - alpha)
        alpha = 0.6
        dists = {}
        for M in (128, 256, 512):
            g = TimeGrid(1.0, M)
            A = np.full((M + 1, 1, 1), 1.0)
            f = (np.sin(np.pi * g.nodes) * 0.8).reshape(-1, 1)
            ivp = FractionalIVP(alpha, g, A, f)
            pic, _ = picard_solve(ivp)
            l1 = l1_solve(ivp)
            dists[M] = np.max(np.abs(pic.values - l1.values))
        r1 = math.log2(dists[128] / dists[256])
        r2 = math.log2(dists[256] / dists[512])
        assert min(r1, r2) >= 0.8 * min(1.0, 2.0 - alpha)

    def test_rl_caputo_equivalence_zero_data(self):
        # with x(0) = 0 the RL and Caputo operators agree exactly, so the
        # marching scheme is one and the same system
        from fracspec.fraccalc import caputo_derivative, rl_derivative

        g = TimeGrid(1.0, 128)
        x = GridSeries(g, g.nodes * np.sin(g.nodes))
        assert np.array_equal(rl_derivative(x, 0.4).values, caputo_derivative(x, 0.4).values)
