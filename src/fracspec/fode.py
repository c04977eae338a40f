"""Solvers for the Galerkin system D^alpha c + A(t) c = f, c(0) = 0.

Three routes with zero initial data (the RL and Caputo forms coincide):

* picard_solve -- fixed-point iteration on the equivalent Volterra equation
  c = I^alpha(f - A c), contractive in the exp(-gamma t)-weighted sup norm;
* l1_solve -- fully implicit marching with the L1 history weights, the
  independent cross-check discretization;
* variation_of_constants -- product-integration evaluation of the scalar
  constant-coefficient solution, the oracle for both.

A solve is sequential in time; distinct solves share no state and may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fraccalc import (
    GridSeries,
    TimeGrid,
    _causal_conv,
    _fractional_integral_values,
    _l1_weights,
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
    "auto_gamma",
    "picard_solve",
    "picard_apply",
    "l1_solve",
    "variation_of_constants",
    "contraction_bound",
]


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, message: str, last_ratio: float = math.nan, node: int = -1):
        super().__init__(message)
        self.last_ratio = last_ratio
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
        mp1 = self.grid.M + 1
        if A.shape[0] != mp1 or f.shape[0] != mp1:
            raise ValueError("A and f must be sampled at every grid node")
        if A.shape[1] != A.shape[2] or A.shape[1] != f.shape[1]:
            raise ValueError(f"incompatible shapes A {A.shape}, f {f.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(f))):
            raise ValueError("A and f must be finite")
        A = A.copy()
        f = f.copy()
        A.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "f", f)

    @property
    def N(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class PicardConfig:
    """gamma = None selects AUTO: gamma = (2 max_m ||A(t_m)||_2)^(1/alpha),
    which pins the theoretical contraction factor at 1/2."""

    gamma: float | None = None
    max_iters: int = 200
    tol: float = 1e-10

    def __post_init__(self):
        if self.gamma is not None and not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive (or None for AUTO), got {self.gamma}")
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


@dataclass
class PicardLog:
    gamma: float
    theoretical_ratio: float
    iterations: int = 0
    weighted_diffs: list = field(default_factory=list)
    log_weighted_diffs: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False

    @property
    def observed_ratio(self) -> float:
        """Largest clean successive-difference ratio (floor-level noise cut)."""
        if not self.ratios:
            return 0.0
        lw = self.log_weighted_diffs
        floor = max(lw[0] - 36.0, math.log(1e-300))  # ~1e-16 relative floor
        clean = [r for r, l in zip(self.ratios, lw[1:]) if l > floor and math.isfinite(r)]
        return max(clean) if clean else 0.0


def _log_weighted_norm(values: np.ndarray, gamma_: float, nodes: np.ndarray) -> float:
    """log of max_m ||values_m||_2 exp(-gamma t_m); -inf for the zero array."""
    norms = np.linalg.norm(values, axis=1)
    with np.errstate(divide="ignore"):
        logs = np.where(norms > 0.0, np.log(np.maximum(norms, 1e-308)), -np.inf)
    return float(np.max(logs - gamma_ * nodes))


def max_operator_norm(ivp: FractionalIVP) -> float:
    """max_m ||A(t_m)||_2, the essential-sup bound of the contraction proof."""
    return float(np.linalg.norm(ivp.A, 2, axis=(1, 2)).max())


def contraction_bound(ivp: FractionalIVP, gamma_: float) -> float:
    """Theoretical weighted-norm contraction factor max||A|| / gamma^alpha."""
    if not (gamma_ > 0.0):
        raise ValueError(f"gamma must be positive, got {gamma_}")
    return max_operator_norm(ivp) / gamma_**ivp.alpha


def auto_gamma(ivp: FractionalIVP) -> float:
    """AUTO weight: (2 max||A||)^(1/alpha); factor <= 1/2 by construction."""
    m = max_operator_norm(ivp)
    if m == 0.0:
        return 1.0
    return (2.0 * m) ** (1.0 / ivp.alpha)


def picard_apply(ivp: FractionalIVP, c: np.ndarray) -> np.ndarray:
    """One application of the Volterra operator: I^alpha(f - A c)."""
    g = ivp.f - np.einsum("mij,mj->mi", ivp.A, c)
    return _fractional_integral_values(g, ivp.alpha, ivp.grid.dt)


def picard_solve(ivp: FractionalIVP, cfg: PicardConfig = PicardConfig()) -> tuple[ModalTrajectory, PicardLog]:
    """Fixed-point iteration c <- I^alpha(f - A c) from c = 0.

    Stops when the weighted-norm difference drops below cfg.tol; the weighted
    norm is evaluated in log space so large gamma cannot underflow the
    stopping rule.  Raises PicardDivergenceError on NaN blowup or when
    max_iters is exhausted.
    """
    gamma_ = cfg.gamma if cfg.gamma is not None else auto_gamma(ivp)
    log = PicardLog(gamma=gamma_, theoretical_ratio=contraction_bound(ivp, gamma_))
    nodes = ivp.grid.nodes
    log_tol = math.log(cfg.tol)
    c = np.zeros_like(ivp.f)
    for it in range(1, cfg.max_iters + 1):
        c_next = picard_apply(ivp, c)
        if not np.all(np.isfinite(c_next)):
            bad = int(np.argmax(~np.all(np.isfinite(c_next), axis=1)))
            raise PicardDivergenceError(
                f"iteration produced non-finite values at node {bad} (t={nodes[bad]})",
                last_ratio=log.ratios[-1] if log.ratios else math.nan,
                node=bad,
            )
        lw = _log_weighted_norm(c_next - c, gamma_, nodes)
        log.iterations = it
        log.log_weighted_diffs.append(lw)
        log.weighted_diffs.append(math.exp(lw) if lw > -745.0 else 0.0)
        if len(log.log_weighted_diffs) >= 2:
            prev = log.log_weighted_diffs[-2]
            log.ratios.append(math.exp(lw - prev) if math.isfinite(prev) and math.isfinite(lw) else 0.0)
        c = c_next
        if lw < log_tol:
            log.converged = True
            return ModalTrajectory(ivp.grid, c, ivp.alpha, "picard"), log
    raise PicardDivergenceError(
        f"no convergence within {cfg.max_iters} iterations"
        f" (last weighted ratio {log.ratios[-1] if log.ratios else math.nan:.4g})",
        last_ratio=log.ratios[-1] if log.ratios else math.nan,
    )


def l1_solve(ivp: FractionalIVP) -> ModalTrajectory:
    """Fully implicit L1 marching: (w0 I + A(t_m)) c_m = f(t_m) + history.

    w0 = dt^(-alpha)/Gamma(2-alpha); A and f are taken at the right endpoint.
    Diagonal systems are solved elementwise, so decoupled modes stay exactly
    decoupled (mode-for-mode identical across different N).
    """
    M = ivp.grid.M
    if M < 2:
        raise ValueError("L1 marching needs at least M=2 steps")
    alpha = ivp.alpha
    N = ivp.N
    b, w0 = _l1_weights(alpha, M, ivp.grid.dt)
    d = b[:-1] - b[1:]  # d_j = b_{j-1} - b_j > 0, j = 1..M-1

    # A is finite, so it is diagonal iff all its nonzeros lie on the diagonal;
    # counting them allocates nothing the size of A
    diag_only = np.count_nonzero(ivp.A) == np.count_nonzero(np.diagonal(ivp.A, axis1=1, axis2=2))
    c = np.zeros((M + 1, N))
    eye = np.eye(N)
    for m in range(1, M + 1):
        hist = np.zeros(N)
        if m >= 2:
            # sum_{j=1}^{m-1} d_j c_{m-j}
            hist = d[: m - 1] @ c[m - 1 : 0 : -1]
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
    return ModalTrajectory(ivp.grid, c, alpha, "l1")


def variation_of_constants(lam: float, f: GridSeries, alpha: float) -> GridSeries:
    """Scalar constant-coefficient solution by product integration.

    c(t) = int_0^t (t-s)^(alpha-1) E_{alpha,alpha}(-lam (t-s)^alpha) f(t-s) ds
    evaluated with the kernel handled exactly against piecewise-linear f,
    using the antiderivative pair E_alpha and E_{alpha,2}.  Exact (up to the
    special-function tolerance) for constant f; the oracle for both solvers.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if lam < 0.0:
        raise ValueError(f"decay rate must be nonnegative, got {lam}")
    vals = np.asarray(f.values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("variation_of_constants solves scalar problems")
    if lam == 0.0:
        return GridSeries(f.grid, _fractional_integral_values(vals, alpha, f.grid.dt))
    M = f.grid.M
    dt = f.grid.dt
    r = np.arange(M + 1, dtype=float)
    s = r * dt
    G = ml_array(alpha, -lam * s**alpha)          # E_alpha(-lam s^alpha)
    E2 = ml_array(alpha, -lam * s**alpha, 2.0)
    H = s * E2                                    # int_0^s G
    rr = r[1:]
    dG = G[1:] - G[:-1]
    sGd = dt * (rr * G[1:] - (rr - 1.0) * G[:-1])
    dH = H[1:] - H[:-1]
    core = (sGd - dH) / dt
    P = -(1.0 / lam) * ((1.0 - rr) * dG + core)   # weight of f_j, r = m - j
    Q = -(1.0 / lam) * (rr * dG - core)           # weight of f_{j+1}
    out = np.zeros(M + 1)
    out[1:] = _causal_conv(P, vals[:M]) + _causal_conv(Q, vals[1:])
    return GridSeries(f.grid, out)
