"""Solvers for the Galerkin system D^alpha c + A(t) c = f, c(0) = 0.

Three routes with zero initial data (the RL and Caputo forms coincide):

* l1_solve -- the L1 scheme for D^alpha, of order 2 - alpha;
* picard_solve -- the fixed point of the equivalent Volterra equation
  c = I^alpha(f - A c), with I^alpha by product integration against
  piecewise-linear data (the fractional trapezoidal rule, Garrappa 2015,
  Math. Comput. Simul. 110:96), of order 2; an independent discretization,
  verified by one application of the Volterra operator;
* variation_of_constants -- product-integration evaluation of the scalar
  constant-coefficient solution, the oracle for both.

The orders hold for smooth solutions; on a uniform grid the t^alpha start of
a solution with f(0) != 0 lowers both.  The two solvers share one implicit
march, _implicit_march, whose steps solve (sigma I + A(t_m)) c_m = f(t_m) +
history in O(N M log^2 M).  Both return the Galerkin coefficients as a
fraccalc.GridSeries, the library's one time-series type: read-only values
of shape (M+1, N), row m holding c(t_m) and row 0 exactly zero.

A solve is sequential in time; distinct solves share no state and may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fraccalc import (
    GridSeries,
    TimeGrid,
    _EPS,
    _blocks,
    _causal_conv,
    _conv_tail,
    _fractional_integral_values,
    _l1_weights,
    _max_norm,
    _pl_weights,
    ml_array,
)

__all__ = [
    "FractionalIVP",
    "PicardLog",
    "PicardDivergenceError",
    "SingularStepError",
    "max_operator_norm",
    "picard_solve",
    "picard_apply",
    "l1_solve",
    "variation_of_constants",
]

# _implicit_march solves blocks of at most this many nodes directly; the time
# hardly depends on it between 32 and 256
_LEAF = 64

# max_operator_norm takes one SVD per this many nodes to bound the others
_STRIDE = 32

# picard_solve returns its solution only if the fixed-point residual is at
# most this much of max(1, ||c||)
_PICARD_TOL = 1e-10


class PicardDivergenceError(RuntimeError):
    """picard_solve's solution failed its fixed-point residual check (or is
    not finite), so it is not returned."""


class SingularStepError(RuntimeError):
    """Implicit step matrix is singular."""

    def __init__(self, message: str, node: int, eigenvalue_estimate: float):
        super().__init__(message)
        self.node = node
        self.eigenvalue_estimate = eigenvalue_estimate


@dataclass(frozen=True, eq=False)
class FractionalIVP:
    """D^alpha c + A(t) c = f(t) on a uniform grid, c(0) = 0.

    A has shape (M+1, N, N) and f has shape (M+1, N), sampled at the nodes.
    Both are held as read-only views, not copies: a float array passed in is
    shared (a broadcast A stays a broadcast), so the caller must not modify it
    while the problem is in use.
    """

    alpha: float
    grid: TimeGrid
    A: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        A = np.asarray(self.A, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if f.ndim == 1:
            f = f.reshape(len(f), 1)
        if A.ndim == 1:
            A = A.reshape(len(A), 1, 1)
        if A.ndim != 3 or f.ndim != 2:
            raise ValueError(f"A must have shape (M+1, N, N) and f (M+1, N), got A {A.shape}, f {f.shape}")
        mp1 = self.grid.M + 1
        if A.shape[0] != mp1 or f.shape[0] != mp1:
            raise ValueError("A and f must be sampled at every grid node")
        if A.shape[1] != A.shape[2] or A.shape[1] != f.shape[1]:
            raise ValueError(f"incompatible shapes A {A.shape}, f {f.shape}")
        # min and max propagate NaN and reach +-inf without an (M+1) N^2 mask
        nodes = _distinct_nodes(A)
        if A.size and not all(math.isfinite(x) for x in (nodes.min(), nodes.max(), f.min(), f.max())):
            raise ValueError("A and f must be finite")
        A = A.view()
        f = f.view()
        A.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "f", f)

    @property
    def N(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class PicardLog:
    """Applications of the Volterra operator I^alpha(f - A .) (one: the
    residual check) and the fixed-point residual max_m ||c_m - I^alpha(f - A c)_m||_2."""

    iterations: int
    residual: float


def _distinct_nodes(A: np.ndarray) -> np.ndarray:
    """A, or its first node when A is a broadcast in time (A.strides[0] == 0):
    a reduction over every entry of A then reads one node, not M+1 copies."""
    return A[:1] if A.strides[0] == 0 else A


def _is_diagonal(A: np.ndarray) -> bool:
    """Whether every node of A is diagonal.

    A is finite, so a node is diagonal iff all its nonzeros lie on the
    diagonal; counting them allocates nothing the size of A.  The nodes are
    counted in blocks of 1, 1, 2, 4, ... nodes, returning at the first block
    with an off-diagonal nonzero: at most twice the nodes up to it are read,
    and diagonal data is read once, in about log2 M blocks.
    """
    nodes = _distinct_nodes(A)
    lo, hi = 0, 1
    while lo < len(nodes):
        block = nodes[lo:hi]
        if np.count_nonzero(block) != np.count_nonzero(np.diagonal(block, axis1=1, axis2=2)):
            return False
        lo, hi = hi, 2 * hi
    return True


def max_operator_norm(ivp: FractionalIVP) -> float:
    """max_m ||A(t_m)||_2, the essential-sup bound of the contraction proof.

    Exact, without an SVD at every node.  Weyl's inequality for singular
    values and the triangle inequality give, for any node a,

        ||A_m||_2 <= ||A_a||_2 + ||A_m - A_a||_2 <= ||A_a||_2 + ||A_m - A_a||_F.

    One SVD is taken at an anchor node in the middle of every _STRIDE nodes,
    and every node is bounded through its own group's anchor.  A node whose
    bound cannot exceed the largest norm found so far cannot hold the max and
    is skipped; the others get the exact SVD, in decreasing order of their
    bounds, until no bound left exceeds the running max.  The bound is
    widened by a rounding allowance of 4 N^2 eps relative, above the backward
    error of the SVD (a small multiple of N eps ||A||) and the rounding of
    the Frobenius sums, so no skipped node's computed norm can exceed the
    result: the max is taken over the same per-node SVD values as a full
    batched SVD and equals it.  A node bit-identical to its anchor
    (||A_m - A_a||_F = 0) has the anchor's value and needs no allowance.

    On data smooth in t only the nodes near the max survive: about M/_STRIDE
    anchor SVDs, one streaming pass over A and a few hundred survivor SVDs at
    N = 32, M = 9216.  The worst case, A varying more between neighbouring
    nodes than the spread of its norms, sends every node to the exact SVD:
    about 1.05 times the cost of a full batched SVD.  The differences are
    formed in blocks of fraccalc._BLOCK_BYTES, so the extra memory is that
    block plus O(M) doubles, never a copy of A.  A broadcast in time is read
    at one node (_distinct_nodes): its norm is that node's one SVD.
    """
    A = _distinct_nodes(ivp.A)
    n, N = A.shape[0], A.shape[1]
    if N == 0:
        return 0.0
    # anchors sit mid-group: node m belongs to group m // _STRIDE, and a last
    # group too short to hold its anchor uses the one before
    first = (min(_STRIDE, n) - 1) // 2
    anchor_norms = np.linalg.norm(A[first::_STRIDE], 2, axis=(1, 2))
    best = float(anchor_norms.max())
    group = np.minimum(np.arange(n) // _STRIDE, len(anchor_norms) - 1)
    dist = _distances(A, first + _STRIDE * group)
    bound = (anchor_norms[group] + dist) * (1.0 + 4.0 * N * N * _EPS)
    survivors = np.flatnonzero((dist > 0.0) & (bound > best))
    survivors = survivors[np.argsort(-bound[survivors], kind="stable")]
    for sl in _blocks(len(survivors), N * N):
        if bound[survivors[sl.start]] <= best:
            break
        best = max(best, float(np.linalg.norm(A[survivors[sl]], 2, axis=(1, 2)).max()))
    return best


def _distances(A: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """An upper bound on ||A_m - A_anchor[m]||_F for every m, 0 exactly where
    the two matrices are equal; the differences are formed block by block."""
    N = A.shape[1]
    dist = np.empty(len(A))
    for sl in _blocks(len(A), N * N):
        d = A[anchor[sl]]
        np.subtract(A[sl], d, out=d)
        sq = np.einsum("mij,mij->m", d, d)
        dist[sl] = np.sqrt(sq)
        # a sum below the normal range may have lost squares to underflow:
        # bound those nodes by ||d||_F <= N max|d_ij| instead, which is 0
        # only for an exact copy of the anchor
        tiny = sq < np.finfo(float).tiny  # the smallest normal double
        if tiny.any():
            np.abs(d, out=d)
            dist[sl][tiny] = N * d.max(axis=(1, 2))[tiny]
        del d  # before the next block is gathered
    return dist


def _implicit_march(
    ivp: FractionalIVP, sigma: float, kernel: np.ndarray, far: np.ndarray, volterra: bool
) -> np.ndarray:
    """c with c_0 = 0 and, for m = 1..M,

    (sigma I + A_m) c_m = f_m + hist_m,  hist_m = far_m + sum_{r=1}^{m-1} kernel[r] h_{m-r},

    where h = c, or h = f - A c when volterra.  The latter is read off the step
    equation as h_m = sigma c_m - hist_m, with no product by A.  far (M+1, N)
    holds any history known beforehand and is overwritten.

    The history is split as in Hairer, Lubich & Schlichte (1985, SIAM J. Sci.
    Stat. Comput. 6:532): nodes lo..hi-1 are solved by solving the left half,
    adding its whole contribution to the right half's far history with one FFT
    Toeplitz product (_conv_tail), then solving the right half; blocks of at
    most _LEAF nodes march directly with the local sum.  The cost is
    O(N M log^2 M) instead of O(N M^2), and the result is the direct sum's up
    to rounding.  Diagonal systems are solved elementwise, with the
    denominators sigma + diag(A_m) of a whole leaf formed and checked for a
    zero before its first step, and every column is transformed alone, so
    decoupled modes stay exactly decoupled (mode-for-mode identical across
    different N).  Other systems take one dense solve per step against
    sigma I + A_m, sigma I formed once per march, with no copy of A.
    SingularStepError names the first node whose step matrix is singular.
    """
    M, N = ivp.grid.M, ivp.N
    diag_only = _is_diagonal(ivp.A)
    c = np.zeros((M + 1, N))
    h = np.zeros((M + 1, N)) if volterra else c
    shift = sigma * np.eye(N)

    def march(lo: int, hi: int) -> None:
        if diag_only:
            diag = np.diagonal(ivp.A[lo:hi], axis1=1, axis2=2)
            denom = sigma + diag
            zero = denom == 0.0
            if zero.any():
                j, k = divmod(int(np.argmax(zero)), N)  # the first in node order
                raise SingularStepError(
                    f"singular implicit step at node {lo + j}: eigenvalue ~ -sigma = {-sigma}",
                    node=lo + j,
                    eigenvalue_estimate=float(diag[j, k]),
                )
        for m in range(lo, hi):
            # nodes lo..m-1 here, the earlier ones in far
            hist = far[m] + kernel[1 : m - lo + 1] @ h[m - 1 : lo - 1 : -1]
            rhs = ivp.f[m] + hist
            if diag_only:
                c[m] = rhs / denom[m - lo]
            else:
                try:
                    c[m] = np.linalg.solve(shift + ivp.A[m], rhs)
                except np.linalg.LinAlgError:
                    eigs = np.linalg.eigvals(ivp.A[m])
                    worst = eigs[np.argmin(np.abs(eigs + sigma))]
                    raise SingularStepError(
                        f"singular implicit step at node {m}: A eigenvalue {worst} ~ -sigma = {-sigma}",
                        node=m,
                        eigenvalue_estimate=float(np.real(worst)),
                    ) from None
            if volterra:
                h[m] = sigma * c[m] - hist

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _LEAF:
            march(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        far[mid:hi] += _conv_tail(kernel, h[lo:mid], hi - mid)
        solve(mid, hi)

    solve(1, M + 1)
    return c


def picard_apply(ivp: FractionalIVP, c: np.ndarray) -> np.ndarray:
    """One application of the Volterra operator: I^alpha(f - A c)."""
    g = ivp.f - np.einsum("mij,mj->mi", ivp.A, c)
    return _fractional_integral_values(g, ivp.alpha, ivp.grid.dt)


def picard_solve(ivp: FractionalIVP) -> tuple[GridSeries, PicardLog]:
    """The fixed point of c = I^alpha(f - A c), with I^alpha by product
    integration: order 2 for smooth solutions, independent of the L1 scheme.

    With g = f - A c, the discrete I^alpha reads c_m = s (a0_m g_0 +
    sum_{r=0}^{m-1} W[r] g_{m-r}), s = dt^alpha / Gamma(alpha+2) and (a0, W)
    from _pl_weights, W[0] = 1.  The fixed point, the limit Picard iteration
    would reach, solves the implicit steps

    (sigma I + A_m) c_m = f_m + a0_m f_0 + sum_{r=1}^{m-1} W[r] g_{m-r},  sigma = 1/s,

    which _implicit_march solves directly for any step size.  The solution,
    a GridSeries of shape (M+1, N), is returned with its PicardLog only if
    its fixed-point residual max_m ||c_m - picard_apply(ivp, c)_m||_2 (the
    overflow-safe fraccalc._max_norm) is <= _PICARD_TOL max(1, ||c||);
    PicardDivergenceError otherwise.  SingularStepError names a node where
    sigma I + A_m is singular.  The residual check costs O(N M log M) (an FFT
    convolution above 2048 nodes), the march O(N M log^2 M).
    """
    alpha = ivp.alpha
    a0, W = _pl_weights(alpha, ivp.grid.M)
    sigma = math.gamma(alpha + 2.0) / ivp.grid.dt**alpha
    # node 0 enters through a0 alone, with g_0 = f_0 since c_0 = 0
    c = _implicit_march(ivp, sigma, W, a0[:, None] * ivp.f[0], volterra=True)
    residual = _max_norm(c - picard_apply(ivp, c))
    if not residual <= _PICARD_TOL * max(1.0, _max_norm(c)):  # a NaN fails too
        raise PicardDivergenceError(f"fixed-point residual {residual:.4g} exceeds the tolerance")
    return GridSeries(ivp.grid, c), PicardLog(1, residual)


def l1_solve(ivp: FractionalIVP) -> GridSeries:
    """Fully implicit L1 marching: (w0 I + A(t_m)) c_m = f(t_m) + history.

    The L1 scheme has order 2 - alpha for smooth solutions.
    w0 = dt^(-alpha)/Gamma(2-alpha); A and f are taken at the right endpoint.
    The history w0 sum_{j=1}^{m-1} d_j c_{m-j}, d_j = b_{j-1} - b_j with the
    L1 weights b, is split by _implicit_march in O(N M log^2 M).  Returns c
    as a GridSeries of shape (M+1, N).  SingularStepError names a node where
    w0 I + A_m is singular.
    """
    M = ivp.grid.M
    if M < 2:
        raise ValueError("L1 marching needs at least M=2 steps")
    b, w0 = _l1_weights(ivp.alpha, M, ivp.grid.dt)
    # w0 d[j] weighs c_{m-j} for j = 1..M-1; d[0] unused
    kernel = w0 * np.concatenate([[0.0], b[:-1] - b[1:]])
    c = _implicit_march(ivp, w0, kernel, np.zeros((M + 1, ivp.N)), volterra=False)
    return GridSeries(ivp.grid, c)


def variation_of_constants(lam: float, f: GridSeries, alpha: float) -> GridSeries:
    """Scalar constant-coefficient solution by product integration.

    c(t) = int_0^t (t-s)^(alpha-1) E_{alpha,alpha}(-lam (t-s)^alpha) f(t-s) ds
    evaluated with the kernel handled exactly against piecewise-linear f,
    using its antiderivative u = s^alpha E_{alpha,alpha+1}(-lam s^alpha) and
    u's antiderivative v = s^(alpha+1) E_{alpha,alpha+2}(-lam s^alpha).
    Nothing is divided by lam, so the weights stay accurate as lam -> 0 and
    lam = 0 gives the I^alpha weights.  Exact (up to the special-function
    tolerance) for constant f; the oracle for both solvers.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if lam < 0.0:
        raise ValueError(f"decay rate must be nonnegative, got {lam}")
    vals = np.asarray(f.values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("variation_of_constants solves scalar problems")
    M = f.grid.M
    dt = f.grid.dt
    r = np.arange(M + 1, dtype=float)
    s = r * dt
    sa = s**alpha
    u = sa * ml_array(alpha, -lam * sa, alpha + 1.0)      # int_0^s kernel
    v = s * sa * ml_array(alpha, -lam * sa, alpha + 2.0)  # int_0^s u
    rr = r[1:]
    du = u[1:] - u[:-1]
    core = (rr * u[1:] - (rr - 1.0) * u[:-1]) - (v[1:] - v[:-1]) / dt
    P = (1.0 - rr) * du + core                    # weight of f_j, r = m - j
    Q = rr * du - core                            # weight of f_{j+1}
    out = np.zeros(M + 1)
    out[1:] = _causal_conv(P, vals[:M]) + _causal_conv(Q, vals[1:])
    return GridSeries(f.grid, out)
