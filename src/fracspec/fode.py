"""Solvers for the Galerkin system D^alpha c + A(t) c = f, c(0) = 0.

Three routes with zero initial data (the RL and Caputo forms coincide):

* picard_solve -- fixed-point iteration on the equivalent Volterra equation
  c = I^alpha(f - A c), window by window: each window is short enough for the
  iteration to contract in the plain sup norm, with the earlier windows'
  solution as a fixed history load;
* l1_solve -- fully implicit marching with the L1 history weights, the
  independent cross-check discretization;
* variation_of_constants -- product-integration evaluation of the scalar
  constant-coefficient solution, the oracle for both.

A solve is sequential in time; distinct solves share no state and may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fraccalc import (
    GridSeries,
    TimeGrid,
    _causal_conv,
    _conv_tail,
    _fractional_integral_values,
    _l1_weights,
    _pl_weights,
    ml_array,
)

__all__ = [
    "FractionalIVP",
    "PicardConfig",
    "ModalTrajectory",
    "PicardLog",
    "PicardDivergenceError",
    "SingularStepError",
    "max_operator_norm",
    "picard_solve",
    "picard_apply",
    "l1_solve",
    "variation_of_constants",
]

# l1_solve marches blocks of at most this many nodes directly; the time hardly
# depends on it between 32 and 256
_L1_LEAF = 64


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, message: str, node: int = -1):
        super().__init__(message)
        self.node = node


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
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(f))):
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
class PicardConfig:
    """max_iters bounds the iterations of each window; tol bounds the sup
    difference, and the final residual, relative to max(1, ||c||)."""

    max_iters: int = 200
    tol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")


@dataclass(frozen=True, eq=False)
class ModalTrajectory:
    """Galerkin coefficients c(t_m) per node, with provenance tag."""

    grid: TimeGrid
    values: np.ndarray  # (M+1, N)
    alpha: float
    method: str  # picard | l1 | oracle

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v.reshape(len(v), 1)
        if v.shape[0] != self.grid.M + 1:
            raise ValueError("trajectory must have one row per node")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory values must be finite")
        if np.any(v[0] != 0.0):
            raise ValueError("trajectories start from zero initial data")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PicardLog:
    """Iterations summed over the windows, the window count and the final
    fixed-point residual max_m ||c_m - I^alpha(f - A c)_m||_2."""

    iterations: int
    windows: int
    residual: float


def _sup_norm(values: np.ndarray) -> float:
    """max_m ||values_m||_2, the plain sup norm the windows contract in.

    The values are scaled by their largest entry before squaring, so every
    finite trajectory has a finite norm; non-finite values give inf or nan.
    """
    scale = float(np.abs(values).max())
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    unit = values / scale
    return scale * math.sqrt(np.einsum("mi,mi->m", unit, unit).max())


def max_operator_norm(ivp: FractionalIVP) -> float:
    """max_m ||A(t_m)||_2, the essential-sup bound of the contraction proof."""
    return float(np.linalg.norm(ivp.A, 2, axis=(1, 2)).max())


def _window_length(W: np.ndarray, s: float, norm: float) -> int:
    """Largest l with s norm sum_{r<l} W[r] <= 1/2, at most len(W) - 1.

    s sum_{r<l} W[r] is the sup-norm Lipschitz constant of the discrete
    I^alpha (weights s W) over l steps, so a window of l steps contracts by
    1/2 when max||A|| = norm.
    """
    return min(int(np.searchsorted(s * norm * np.cumsum(W), 0.5, side="right")), len(W) - 1)


def picard_apply(ivp: FractionalIVP, c: np.ndarray) -> np.ndarray:
    """One application of the Volterra operator: I^alpha(f - A c)."""
    g = ivp.f - np.einsum("mij,mj->mi", ivp.A, c)
    return _fractional_integral_values(g, ivp.alpha, ivp.grid.dt)


def picard_solve(ivp: FractionalIVP, cfg: PicardConfig = PicardConfig()) -> tuple[ModalTrajectory, PicardLog]:
    """Fixed-point iteration c <- I^alpha(f - A c), window by window.

    Windows are as long as _window_length allows, so each contracts by 1/2 in
    the plain sup norm while the earlier nodes, already solved, enter as a
    fixed history load.  Each window iterates from the last solved value until
    the sup difference is <= tol max(1, ||c_win||), at most max_iters times; the
    solution is returned only if its fixed-point residual over the whole grid
    passes the same test.  Raises PicardDivergenceError when not even one step
    contracts, on non-finite values, when max_iters is exhausted or when the
    residual check fails.
    """
    alpha, M = ivp.alpha, ivp.grid.M
    a0, W = _pl_weights(alpha, M)
    s = ivp.grid.dt**alpha / math.gamma(alpha + 2.0)
    norm = max_operator_norm(ivp)
    L = _window_length(W, s, norm)
    if L == 0:
        raise PicardDivergenceError(
            f"no step contracts: dt^alpha max||A|| / Gamma(alpha+2) = {s * norm:.4g} > 1/2; refine the grid"
        )
    c = np.zeros_like(ivp.f)
    g = ivp.f.copy()  # f - A c, final on the nodes already solved
    iterations = 0
    for m0 in range(0, M, L):
        m1 = min(m0 + L, M)
        win = slice(m0 + 1, m1 + 1)
        # a0 and the earlier nodes 1..m0, as in _fractional_integral_values
        hist = a0[win, None] * g[0] + sliding_window_view(W[1:m1], m0) @ g[m0:0:-1]
        cw = np.broadcast_to(c[m0], (m1 - m0, ivp.N))  # start from the last solved node
        for it in range(1, cfg.max_iters + 1):
            gw = ivp.f[win] - np.einsum("mij,mj->mi", ivp.A[win], cw)
            nxt = s * (_causal_conv(W[: m1 - m0 + 1], gw) + hist)
            diff = _sup_norm(nxt - cw)
            if not math.isfinite(diff):
                raise PicardDivergenceError(f"non-finite values at nodes {m0 + 1}..{m1}", node=m0 + 1)
            cw = nxt
            if diff <= cfg.tol * max(1.0, _sup_norm(cw)):
                break
        else:
            raise PicardDivergenceError(
                f"window at nodes {m0 + 1}..{m1} did not converge within {cfg.max_iters} iterations"
                f" (last difference {diff:.4g})",
                node=m0 + 1,
            )
        iterations += it
        c[win] = cw
        g[win] = ivp.f[win] - np.einsum("mij,mj->mi", ivp.A[win], cw)
    residual = _sup_norm(c - picard_apply(ivp, c))
    if residual > cfg.tol * max(1.0, _sup_norm(c)):
        raise PicardDivergenceError(f"fixed-point residual {residual:.4g} exceeds the tolerance")
    return ModalTrajectory(ivp.grid, c, alpha, "picard"), PicardLog(iterations, -(-M // L), residual)


def l1_solve(ivp: FractionalIVP) -> ModalTrajectory:
    """Fully implicit L1 marching: (w0 I + A(t_m)) c_m = f(t_m) + history.

    w0 = dt^(-alpha)/Gamma(2-alpha); A and f are taken at the right endpoint.
    The history w0 sum_{j=1}^{m-1} d_j c_{m-j} is split as in Hairer, Lubich &
    Schlichte (1985, SIAM J. Sci. Stat. Comput. 6:532): nodes lo..hi-1 are
    solved by solving the left half, adding its whole contribution to the right
    half's far history with one FFT Toeplitz product (_conv_tail), then solving
    the right half; blocks of at most _L1_LEAF nodes march directly with the
    local sum.  The cost is O(N M log^2 M) instead of O(N M^2), and the result
    is the direct sum's up to rounding.  Diagonal systems are solved
    elementwise and every column is transformed alone, so decoupled modes stay
    exactly decoupled (mode-for-mode identical across different N).
    """
    M = ivp.grid.M
    if M < 2:
        raise ValueError("L1 marching needs at least M=2 steps")
    alpha = ivp.alpha
    N = ivp.N
    b, w0 = _l1_weights(alpha, M, ivp.grid.dt)
    # d[j] = b_{j-1} - b_j > 0 for j = 1..M-1, the weight of c_{m-j}; d[0] unused
    d = np.concatenate([[0.0], b[:-1] - b[1:]])

    # A is finite, so it is diagonal iff all its nonzeros lie on the diagonal;
    # counting them allocates nothing the size of A
    diag_only = np.count_nonzero(ivp.A) == np.count_nonzero(np.diagonal(ivp.A, axis1=1, axis2=2))
    c = np.zeros((M + 1, N))
    far = np.zeros((M + 1, N))  # history from nodes before the current block
    eye = np.eye(N)

    def march(lo: int, hi: int) -> None:
        for m in range(lo, hi):
            # sum_{j=1}^{m-1} d_j c_{m-j}: nodes lo..m-1 here, the rest in far
            hist = far[m] + d[1 : m - lo + 1] @ c[m - 1 : lo - 1 : -1]
            rhs = ivp.f[m] + w0 * hist
            if diag_only:
                diag = np.diagonal(ivp.A[m])
                denom = w0 + diag
                if np.any(denom == 0.0):
                    k = int(np.argmax(denom == 0.0))
                    raise SingularStepError(
                        f"singular implicit step at node {m}: eigenvalue ~ {-w0}",
                        node=m,
                        eigenvalue_estimate=float(diag[k]),
                    )
                c[m] = rhs / denom
            else:
                try:
                    c[m] = np.linalg.solve(w0 * eye + ivp.A[m], rhs)
                except np.linalg.LinAlgError:
                    eigs = np.linalg.eigvals(ivp.A[m])
                    worst = eigs[np.argmin(np.abs(eigs + w0))]
                    raise SingularStepError(
                        f"singular implicit step at node {m}: A eigenvalue {worst} ~ -w0 = {-w0}",
                        node=m,
                        eigenvalue_estimate=float(np.real(worst)),
                    ) from None

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _L1_LEAF:
            march(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        far[mid:hi] += _conv_tail(d, c[lo:mid], hi - mid)
        solve(mid, hi)

    solve(1, M + 1)
    return ModalTrajectory(ivp.grid, c, alpha, "l1")


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
