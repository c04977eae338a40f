"""Fractional ODE solvers against the closed-form scalar oracle."""

import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import l1_march, ml_reference, pi_march

from fracspec import fode, fraccalc
from fracspec.fraccalc import _BLOCK_BYTES, GridSeries, TimeGrid, _max_norm, ml, ml_array, rl_integral
from fracspec.fode import (
    _LEAF,
    _STRIDE,
    FractionalIVP,
    PicardDivergenceError,
    SingularStepError,
    _is_diagonal,
    _is_time_constant,
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

    # The cases below check the pruned evaluation (an anchor's Gram bound
    # plus a Frobenius distance bounds its group of _STRIDE nodes, the nodes
    # left get their own Gram bounds, and only the nodes whose bound can
    # still beat the running max get an SVD) against the same eigvalsh
    # oracle, node by node.

    @staticmethod
    def oracle_norms(A):
        return np.array([math.sqrt(np.linalg.eigvalsh(a.T @ a).max()) for a in A])

    def check(self, A):
        # the max over numpy's own per-node SVD values, bit for bit
        M = A.shape[0] - 1
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), A, np.zeros((M + 1, A.shape[1])))
        norms = self.oracle_norms(A)
        got = max_operator_norm(ivp)
        assert got == pytest.approx(norms.max(), rel=1e-13, abs=0.0)
        assert got == np.linalg.norm(A, 2, axis=(1, 2)).max()
        return norms

    @staticmethod
    def svd_spy(monkeypatch):
        """The node lists max_operator_norm hands to the SVD, one a call."""
        calls = []
        svd_norms = fode._svd_norms

        def spy(A, nodes):
            calls.append(nodes.tolist())
            return svd_norms(A, nodes)

        monkeypatch.setattr(fode, "_svd_norms", spy)
        return calls

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
        # anchor norm: only its distance to the anchor keeps it past its
        # anchor's bound, to its own Gram bound and the SVD.  At the tiny
        # scale every square of a difference underflows to 0.
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
        # almost every node survives the anchors' bounds to its own Gram
        # bound, which leaves only the nodes near the max to the SVD
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
        # A is 67 MB; the pruning forms its differences, Gram powers and SVD
        # gathers in blocks, so the peak is one block plus a few doubles per
        # node
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

    def test_smooth_banded_takes_few_svds(self, monkeypatch):
        # shaped like the 1-D PDE systems: N = 32, a banded A smooth in t with
        # sigma_2/sigma_1 ~ 0.94 and norms ~1e-8 apart between neighbouring
        # nodes near the max.  The Gram bounds are exact to rounding there,
        # so about two nodes reach the SVD, against hundreds when the anchors
        # and survivors were SVD'd
        M, N = 4096, 32
        t = np.linspace(0.0, 1.0, M + 1)
        idx = np.arange(N)
        A = np.zeros((M + 1, N, N))
        A[:, idx, idx] = (1.0 + 0.3 * np.sin(2.0 * t + 0.4))[:, None] * ((idx + 1.0) * math.pi) ** 2
        A[:, idx, idx] += (2.0 + np.cos(5.0 * t))[:, None]
        A[:, idx[:-1], idx[1:]] = (3.0 * np.cos(3.0 * t))[:, None] * (idx[:-1] + 1.0)
        A[:, idx[1:], idx[:-1]] = -(3.0 * np.cos(3.0 * t))[:, None] * (idx[:-1] + 1.0)
        calls = self.svd_spy(monkeypatch)
        self.check(A)
        assert sum(map(len, calls)) <= 3

    def test_clustered_top_singular_values(self, monkeypatch):
        # c_m Q_m with Q_m orthogonal: all N singular values of a node are
        # equal, so its Gram bound exceeds its norm by N^(1/(4k)) and prunes
        # nothing.  The nodes go to the SVD in blocks of 1, 2, 4, ... (after
        # the top anchor's), about twice one batched SVD at worst
        M, N = 300, 8
        rng = np.random.default_rng(12)
        Q = np.linalg.qr(rng.standard_normal((M + 1, N, N)))[0]
        c = 1.0 + 1e-3 * np.sin(np.arange(M + 1.0))
        calls = self.svd_spy(monkeypatch)
        self.check(c[:, None, None] * Q)
        sizes = [len(nodes) for nodes in calls]
        assert sizes[0] == 1 and sum(sizes) == M + 1
        assert sizes[1:-1] == [2**i for i in range(len(sizes) - 2)]
        assert 1 <= sizes[-1] <= 2 ** (len(sizes) - 2)

    def test_copies_of_an_anchor_take_its_value(self, monkeypatch):
        # every node bit-identical to its group's anchor: the copies never
        # reach the SVD, only anchors do
        M, N = 200, 5
        anchors = list(range((_STRIDE - 1) // 2, M + 1, _STRIDE))
        base = np.random.default_rng(13).standard_normal((len(anchors), N, N))
        A = base[np.minimum(np.arange(M + 1) // _STRIDE, len(anchors) - 1)]
        calls = self.svd_spy(monkeypatch)
        self.check(A)
        assert {m for nodes in calls for m in nodes} <= set(anchors)

    @pytest.mark.parametrize("kind", ["random", "diagonal_dominant", "triangular", "scaled"])
    def test_gram_bound_allowance(self, kind):
        # the allowance max_operator_norm's docstring derives: a Gram bound
        # widened by 1 + 4 N^2 eps is at least numpy's SVD value, and it is
        # at most N^(1/(4k)) above it.  The triangular nodes are non-normal
        # with entries over six decades; the scaled ones reach 2^+-600 and
        # the ends of the double range
        eps = np.finfo(float).eps
        rng = np.random.default_rng(["random", "diagonal_dominant", "triangular", "scaled"].index(kind))
        for N in range(1, 65):
            A = rng.standard_normal((8, N, N))
            if kind == "diagonal_dominant":
                A[:, np.arange(N), np.arange(N)] += 4.0 * N * np.sign(rng.standard_normal((8, N)))
            elif kind == "triangular":
                A = np.triu(A * 10.0 ** rng.uniform(-3.0, 3.0, A.shape))
            elif kind == "scaled":
                A = np.ldexp(A, np.array([600, -600, 600, -600, 1000, -1000, -1060, 0])[:, None, None])
            svd = np.linalg.norm(A, 2, axis=(1, 2))
            bound = fode._gram_bounds(A, np.arange(len(A)))
            assert np.all(bound * (1.0 + 4.0 * N * N * eps) >= svd), N
            assert np.all(bound / svd <= N ** (0.25 / 2**fode._SQUARINGS) * (1.0 + 4.0 * N * N * eps)), N


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


class TestTimeConstantTest:
    # the march's test whether every node of A equals node 0

    @staticmethod
    def constant_nodes(M=9, N=3):
        return np.tile(np.arange(1.0, N * N + 1.0).reshape(N, N), (M + 1, 1, 1))

    @pytest.mark.parametrize("where", [None, 1, 4, 9])
    def test_differs_at_any_node(self, where):
        A = self.constant_nodes()
        if where is not None:  # one ulp apart
            A[where, 2, 0] = np.nextafter(A[where, 2, 0], np.inf)
        assert _is_time_constant(A) is (where is None)

    def test_node_zero_is_the_reference(self):
        A = self.constant_nodes()
        A[0, 1, 1] = 0.0
        assert not _is_time_constant(A)

    def test_broadcast_reads_one_node(self, monkeypatch):
        band = np.diag([1.0, 2.0]) + np.diag([3.0], 1)
        read = []
        not_equal = np.not_equal
        monkeypatch.setattr(np, "not_equal", lambda a, b: read.append(len(a)) or not_equal(a, b))
        assert _is_time_constant(np.broadcast_to(band, (10**6, 2, 2)))
        assert read == []

    @pytest.mark.parametrize("where", [1, 5, 600])
    def test_stops_near_the_first_varying_node(self, monkeypatch, where):
        # a node that differs from node 0 decides after reading at most twice
        # that many nodes, not all 1001; a time-varying A (the assembled
        # systems) exits at node 1
        A = self.constant_nodes(M=1000)
        A[where, 0, 1] = -1.0
        read = []
        not_equal = np.not_equal

        def spy(a, b):
            read.append(len(a))
            return not_equal(a, b)

        monkeypatch.setattr(np, "not_equal", spy)
        assert not _is_time_constant(A)
        assert sum(read) <= 2 * where

    def test_blocks_fit_the_budget(self, monkeypatch):
        # the comparison's boolean temporary, one byte an entry, stays within
        # _BLOCK_BYTES however large a node is: with a 64 KiB budget a block
        # holds at most 16 nodes of 4096 entries, where doubling alone would
        # reach 32
        M, N, budget = 64, 64, 1 << 16
        monkeypatch.setattr(fode, "_BLOCK_BYTES", budget)
        A = np.broadcast_to(np.eye(N), (M + 1, N, N)).copy()
        read = []
        not_equal = np.not_equal
        monkeypatch.setattr(np, "not_equal", lambda a, b: read.append(len(a)) or not_equal(a, b))
        assert _is_time_constant(A)
        assert sum(read) == M and max(read) * N * N == budget


# An uneven node count: the leaves of the history splitting hold 36 or 37
# nodes, and their far histories pass through several FFT levels
M_UNEVEN = 4 * _LEAF + 37


def constant_system(kind, M=M_UNEVEN, N=5, diag=None, forcing=None):
    """A time-constant A as a broadcast view ("broadcast", "dense") or a full
    copy of one node ("full"), diagonal unless dense, on M nodes, T = 2,
    alpha = 0.35.  The diagonal is diag, or drawn from [0.5, 40]; the forcing
    is forcing(t) (one column a mode), or as in dense_system."""
    g = TimeGrid(2.0, M)
    rng = np.random.default_rng(12)
    A0 = np.diag(rng.uniform(0.5, 40.0, N) if diag is None else diag)
    N = len(A0)
    if kind == "dense":
        A0 += rng.standard_normal((N, N))
    A = np.tile(A0, (M + 1, 1, 1)) if kind == "full" else np.broadcast_to(A0, (M + 1, N, N))
    if forcing is None:
        f = np.cos(np.outer(g.nodes, rng.uniform(0.5, 4.0, N))) + rng.standard_normal(N)
    else:
        f = forcing(g.nodes)
    return FractionalIVP(0.35, g, A, f)


def mode_rel_err(got, ref):
    """max over modes of node_rel_err on that mode alone: a small mode's
    error is not hidden under a large one's."""
    return max(node_rel_err(got[:, i : i + 1], ref[:, i : i + 1]) for i in range(ref.shape[1]))


class TestTimeConstantStep:
    # a time-constant diagonal A solves a leaf as one FFT product with the
    # step's resolvent where that keeps each mode's relative accuracy, and
    # with elementwise steps where a mode or its forcing grows within the
    # leaf; a dense one takes the per-step solves
    SOLVERS = {
        "l1": (l1_solve, l1_march, l1_sigma),
        "picard": (lambda ivp: picard_solve(ivp)[0], pi_march, pi_sigma),
    }

    @pytest.mark.parametrize("kind", ["full", "broadcast", "dense"])
    @pytest.mark.parametrize("solver", SOLVERS.keys())
    def test_matches_plain_march(self, monkeypatch, kind, solver):
        solve, march, _ = self.SOLVERS[solver]
        ivp = constant_system(kind)
        ref = march(ivp.alpha, ivp.grid.T, np.asarray(ivp.A), np.asarray(ivp.f))
        if kind != "dense":

            def no_solve(*args):
                raise AssertionError("a diagonal step took np.linalg.solve")

            monkeypatch.setattr(np.linalg, "solve", no_solve)
        assert node_rel_err(solve(ivp).values, ref) <= 1e-12

    @pytest.mark.parametrize("kind", ["full", "broadcast"])
    @pytest.mark.parametrize("grows", ["modes", "forcing"])
    @pytest.mark.parametrize("solver", SOLVERS.keys())
    def test_growing_columns_match_plain_march(self, solver, grows, kind):
        # an FFT product's rounding is normwise over a leaf: alone it gave
        # the first rows of a mode whose resolvent grows (sigma + d < sigma:
        # d = -5 grows by ~1e19 over a leaf, d near -sigma faster) errors up
        # to 3e6 relative, and those of a mode forced by exp(k t) (up to e^35
        # over a leaf) up to 0.7.  Such columns take the steps, and the
        # others keep their own accuracy.  The forcing is positive, so no
        # mode passes near zero, where its relative error would show the
        # rounding of larger history terms
        solve, march, sigma = self.SOLVERS[solver]
        if grows == "modes":
            s = sigma(TimeGrid(2.0, M_UNEVEN), 0.35)
            diag = [-5.0, -0.5 * s, -0.75 * s, -1.0, 0.0, 3.0, 40.0]
            rates = np.linspace(0.5, 4.0, len(diag))
            ivp = constant_system(kind, diag=diag, forcing=lambda t: 1.5 + np.cos(np.outer(t, rates)))
        else:
            rates = np.array([1.0, 40.0, 80.0, 150.0])
            ivp = constant_system(kind, diag=[0.0, 5.0, 40.0, 2.0], forcing=lambda t: np.exp(np.outer(t, rates)))
        ref = march(ivp.alpha, ivp.grid.T, np.asarray(ivp.A), np.asarray(ivp.f))
        assert mode_rel_err(solve(ivp).values, ref) <= 1e-12

    @pytest.mark.parametrize("solver", SOLVERS.keys())
    def test_modes_stay_decoupled(self, solver):
        # a column's path (product or steps) and its arithmetic depend on that
        # column alone: the growing modes take the steps, the others the
        # product, and every mode is bit for bit its own N = 1 solve
        solve = self.SOLVERS[solver][0]
        diag = [-5.0, 2.0, -1.0, 30.0]
        rates = np.linspace(0.5, 4.0, len(diag))
        solves = [
            solve(constant_system("broadcast", diag=diag[i:j], forcing=lambda t: 1.5 + np.cos(np.outer(t, rates[i:j]))))
            for i, j in [(0, 4)] + [(i, i + 1) for i in range(4)]
        ]
        for i in range(4):
            assert np.array_equal(solves[0].values[:, i], solves[i + 1].values[:, 0])

    def test_diagonal_leaves_take_one_product(self, monkeypatch):
        # each leaf of a diagonal constant system is one FFT product against
        # the resolvents, one kernel a column (and in Volterra mode one more
        # for the leaf's own history of f)
        kernels = []
        fft_rows = fode._fft_rows
        monkeypatch.setattr(
            fode, "_fft_rows", lambda k, *args: kernels.append(k.ndim) or fft_rows(k, *args)
        )
        ivp = constant_system("broadcast")
        l1_solve(ivp)
        assert kernels == [2] * 8  # M_UNEVEN nodes in 8 leaves
        kernels.clear()
        picard_solve(ivp)
        assert kernels == [1, 2] * 8

    @pytest.mark.parametrize("solver", SOLVERS.keys())
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_singular_diagonal_step_named(self, solver, broadcast):
        # the first node's step is singular in modes 1 and 3: the error names
        # node 1 and the first singular mode's eigenvalue, in the format of
        # the time-varying path
        solve, _, sigma = self.SOLVERS[solver]
        M = M_UNEVEN
        g = TimeGrid(1.0, M)
        s = sigma(g, 0.5)
        A0 = np.diag([1.0, -s, 3.0, -s])
        A = np.broadcast_to(A0, (M + 1, 4, 4)) if broadcast else np.tile(A0, (M + 1, 1, 1))
        ivp = FractionalIVP(0.5, g, A, np.ones((M + 1, 4)))
        message = f"singular implicit step at node 1: eigenvalue ~ -sigma = {-s}"
        with pytest.raises(SingularStepError, match=f"^{re.escape(message)}$") as exc:
            solve(ivp)
        assert exc.value.node == 1
        assert exc.value.eigenvalue_estimate == A0[1, 1] == -s

    @pytest.mark.parametrize("solver", SOLVERS.keys())
    def test_singular_dense_step_named(self, solver):
        solve, _, sigma = self.SOLVERS[solver]
        M, N = M_UNEVEN, 4
        g = TimeGrid(1.0, M)
        s = sigma(g, 0.5)
        A0 = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1 * np.random.default_rng(5).standard_normal((N, N))
        A0[1, :] = 0.0  # row 1 of sigma I + A_0 vanishes exactly
        A0[1, 1] = -s
        ivp = FractionalIVP(0.5, g, np.broadcast_to(A0, (M + 1, N, N)), np.ones((M + 1, N)))
        with pytest.raises(SingularStepError, match="^singular implicit step at node 1: A eigenvalue ") as exc:
            solve(ivp)
        assert exc.value.node == 1
        assert exc.value.eigenvalue_estimate == pytest.approx(-s, rel=1e-9)

    @pytest.mark.parametrize("solver", SOLVERS.keys())
    def test_broadcast_dense_memory_linear_in_m(self, solver):
        # a broadcast dense A is read at its one node: no O(M N^2) temporary
        # (67 MiB here) may appear, only O(M N) doubles
        solve = self.SOLVERS[solver][0]
        M, N = 8192, 32
        band = np.diag(np.full(N, 2.0 * N)) + np.diag(np.ones(N - 1), 1) - np.diag(np.ones(N - 1), -1)
        ivp = FractionalIVP(0.5, TimeGrid(1.0, M), np.broadcast_to(band, (M + 1, N, N)), np.ones((M + 1, N)))
        tracemalloc.start()
        try:
            solve(ivp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (M + 1) * N * 8


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

    @pytest.mark.parametrize("where", ["A", "f"])
    def test_rejects_complex(self, where):
        # regression: the cast to float dropped the imaginary part with only
        # a ComplexWarning, so l1_solve on a complex A solved its real part
        M = 6
        A, f = np.ones((M + 1, 2, 2)), np.ones((M + 1, 2))
        if where == "A":
            A = A + 0.5j * np.eye(2)
        else:
            f = f + 0.5j
        with pytest.raises(ValueError, match="real"):
            FractionalIVP(0.5, TimeGrid(1.0, M), A, f)


class TestBasicInequality:
    # The paper's basic inequality V'(c) D^alpha c >= D^alpha V(c) for convex
    # V (Vergara & Zacher 2008, Math. Z. 259:287; 2015, SIAM J. Math. Anal.
    # 47:210), scheme by scheme.  A discrete derivative (Dc)_m = sigma c_m -
    # sum_{r>=1} kernel[r] c_{m-r}, c_0 = 0, meets it for every convex V with
    # V(0) = 0 if kernel[r] >= 0 for r >= 1 and sigma - sum_{r<m} kernel[r]
    # >= 0 at every m (convexity at c_m, summed with those weights).

    @staticmethod
    def derivative_matrix(sigma, kernel, M):
        # D on nodes 1..M: D[m, m] = sigma, D[m, m-r] = -kernel[r]
        D = sigma * np.eye(M)
        for r in range(1, M):
            D -= kernel[r] * np.eye(M, k=-r)
        return D

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("M", [2, 3, 64, 1000, 2**16])
    def test_l1_pair_meets_both_conditions(self, alpha, M):
        # the pair l1_solve marches with (fode._l1_pair, from _l1_weights)
        sigma, kernel = fode._l1_pair(alpha, M, 1.0 / M)
        assert kernel[0] == 0.0 and (kernel >= 0.0).all()
        assert (sigma - np.cumsum(kernel) >= 0.0).all()

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_l1_gap_on_random_data(self, alpha):
        # the inequality itself for V = c^2/2, V = e^c - 1 - c and V = |c|^p,
        # p = 1, 1.5, 2.5, 4 (the subgradient 0 at c = 0), within rounding of
        # the terms
        M = 64
        sigma, kernel = fode._l1_pair(alpha, M, 1.0 / M)
        D = self.derivative_matrix(sigma, kernel, M)
        rng = np.random.default_rng(int(100 * alpha))
        convex = [(lambda x: 0.5 * x * x, lambda x: x), (lambda x: np.expm1(x) - x, np.expm1)]
        for p in (1.0, 1.5, 2.5, 4.0):
            convex.append((lambda x, p=p: np.abs(x) ** p, lambda x, p=p: p * np.sign(x) * np.abs(x) ** (p - 1.0)))
        for _ in range(20):
            c = rng.standard_normal(M)
            for V, dV in convex:
                gap = dV(c) * (D @ c) - D @ V(c)
                scale = np.abs(D) @ (np.abs(dV(c)) * np.abs(c) + np.abs(V(c)))
                assert (gap >= -1e-13 * scale).all()

    def test_picard_spike_breaks_it(self):
        # picard_solve's discrete derivative is the inverse of the
        # product-integration I^alpha matrix (picard_apply with A = 0, one
        # unit column of f a node).  At alpha = 0.5 it has a positive
        # off-diagonal entry, so a unit spike at node 1 breaks the |c|^2
        # inequality c (Dc) >= D(c^2/2) at node 3 (a documented property of
        # the scheme); at alpha = 0.3 every gap of the spike is >= 0
        M = 64
        gaps = {}
        for alpha in (0.5, 0.3):
            ivp = FractionalIVP(alpha, TimeGrid(1.0, M), np.zeros((M + 1, M + 1, M + 1)), np.eye(M + 1))
            J = picard_apply(ivp, np.zeros((M + 1, M + 1)))[1:, 1:]
            D = np.linalg.inv(J)
            c = np.zeros(M)
            c[0] = 1.0
            gaps[alpha] = c * (D @ c) - D @ (0.5 * c * c)
        assert gaps[0.5][2] == pytest.approx(-0.7816, abs=1e-4)
        assert gaps[0.5][:2].min() > 0.0
        assert gaps[0.3].min() >= 0.0


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

    def test_residual_shares_the_march_weights(self, monkeypatch):
        # the march (fode) and the residual check (picard_apply, through
        # fraccalc's I^alpha) take one formation of the product-integration
        # weights, the same arrays; the residual is picard_apply's bit for bit
        ivp = dense_system(M=300)
        pl_weights = fraccalc._pl_weights
        calls = []

        def spy(*args):
            calls.append((args, pl_weights(*args)))
            return calls[-1][1]

        monkeypatch.setattr(fode, "_pl_weights", spy)
        monkeypatch.setattr(fraccalc, "_pl_weights", spy)
        got, log = picard_solve(ivp)
        assert [args for args, _ in calls] == [(ivp.alpha, ivp.grid.M)] * 2
        (_, march), (_, residual) = calls
        assert march[0] is residual[0] and march[1] is residual[1]
        assert log.residual == _max_norm(got.values - picard_apply(ivp, got.values))

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
        # empty array and raised, where l1_solve returned.  An empty A is
        # time-constant and diagonal, so it takes the leaf resolvent
        self.check_empty(np.zeros((9, 0, 0)))

    def test_empty_broadcast_system(self):
        self.check_empty(np.broadcast_to(np.zeros((0, 0)), (9, 0, 0)))

    @staticmethod
    def check_empty(A):
        g = TimeGrid(1.0, 8)
        ivp = FractionalIVP(0.5, g, A, np.zeros((9, 0)))
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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_lambda(self, lam):
        # regression: NaN and +inf passed the check; NaN failed inside
        # ml_array, +inf warned "invalid value encountered in multiply"
        g = TimeGrid(1.0, 8)
        with pytest.raises(ValueError, match="lam"):
            variation_of_constants(lam, GridSeries(g, np.ones(9)), 0.5)

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
