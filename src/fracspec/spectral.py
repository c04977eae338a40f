"""Dirichlet-Laplacian sine eigenbasis on intervals and rectangles.

Supplies the spectral Galerkin ingredients: eigenpairs, composite
Gauss-Legendre quadrature, assembly of the time-dependent form

    a(u, v; t) = int sum_kl a_kl d_l u d_k v + sum_k b_k (d_k u) v + c u v,

modal projections, and the modal L2 / H1_0 / H^-1 norms.  Bases and assembled
forms are immutable; assembly at distinct times is a pure function and may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exprfield import CoefficientField, evaluate, sup_bound, sup_bound_vector, variables_of

__all__ = [
    "DomainGeometry",
    "SpectralBasis",
    "QuadratureRule",
    "AssembledForm",
    "ModalVector",
    "EllipticityReport",
    "EllipticityError",
    "build_basis",
    "default_quadrature",
    "assemble",
    "check_ellipticity",
    "garding_constants",
    "continuity_constant",
    "modal_norms",
    "project",
    "poincare_constant",
]


class EllipticityError(ValueError):
    """Sampled coefficient matrix failed positivity during assembly."""


@dataclass(frozen=True)
class DomainGeometry:
    """Interval (0, L) or rectangle (0, L1) x (0, L2)."""

    lengths: tuple

    def __post_init__(self):
        ls = tuple(float(L) for L in self.lengths)
        if not (1 <= len(ls) <= 2) or any(L <= 0.0 for L in ls):
            raise ValueError("lengths must be one or two positive reals")
        object.__setattr__(self, "lengths", ls)

    @property
    def dim(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """First N Dirichlet-Laplacian eigenpairs, nondecreasing eigenvalues.

    1d: e_k(x) = sqrt(2/L) sin(k pi x / L), lambda_k = (k pi / L)^2.
    2d: tensor products sorted by eigenvalue, ties broken by the
    lexicographic mode pair.
    """

    geometry: DomainGeometry
    N: int
    modes: tuple  # ints (1d) or (p, q) pairs (2d)
    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)


def build_basis(geom: DomainGeometry, N: int) -> SpectralBasis:
    """First N eigenpairs of the Dirichlet Laplacian on the box."""
    if N < 1:
        raise ValueError(f"mode count must be >= 1, got {N}")
    if geom.dim == 1:
        L = geom.lengths[0]
        modes = tuple(range(1, N + 1))
        lam = np.array([(k * math.pi / L) ** 2 for k in modes])
        return SpectralBasis(geom, N, modes, lam)
    L1, L2 = geom.lengths
    cands = []
    for p in range(1, N + 1):
        for q in range(1, N + 1):
            lam = (p * math.pi / L1) ** 2 + (q * math.pi / L2) ** 2
            cands.append((lam, (p, q)))
    cands.sort(key=lambda c: (c[0], c[1]))
    chosen = cands[:N]
    return SpectralBasis(geom, N, tuple(m for _, m in chosen), np.array([l for l, _ in chosen]))


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule: P panels per axis, G points per panel."""

    panels: int
    points: int = 4

    def __post_init__(self):
        if self.panels < 1 or self.points < 1:
            raise ValueError("panels and points per panel must be >= 1")

    def nodes_1d(self, L: float) -> tuple[np.ndarray, np.ndarray]:
        gx, gw = np.polynomial.legendre.leggauss(self.points)
        edges = np.linspace(0.0, L, self.panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        wts = (half[:, None] * gw[None, :]).ravel()
        return pts, wts


def default_quadrature(N: int) -> QuadratureRule:
    """Default assembly rule: 4N panels per axis, 4 Gauss points per panel."""
    return QuadratureRule(4 * N, 4)


@dataclass(frozen=True, eq=False)
class ModalVector:
    """Coefficients against the first N basis functions."""

    coefficients: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.basis.N,):
            raise ValueError(f"expected {self.basis.N} coefficients, got shape {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True, eq=False)
class AssembledForm:
    """Form matrix A(t)_ij = a(e_j, e_i; t) and modal load vector f(t)."""

    t: float
    matrix: np.ndarray
    load: np.ndarray


class _Tabulation:
    """Basis values/derivatives on the tensor quadrature grid (precomputed)."""

    def __init__(self, basis: SpectralBasis, quad: QuadratureRule):
        geom = basis.geometry
        self.basis = basis
        self.quad = quad
        if geom.dim == 1:
            L = geom.lengths[0]
            pts, wts = quad.nodes_1d(L)
            k = np.asarray(basis.modes, dtype=float)[:, None]
            amp = math.sqrt(2.0 / L)
            self.values = amp * np.sin(k * math.pi * pts[None, :] / L)
            self.grad = [amp * (k * math.pi / L) * np.cos(k * math.pi * pts[None, :] / L)]
            self.weights = wts
            self.points = (pts,)
        else:
            L1, L2 = geom.lengths
            px, wx = quad.nodes_1d(L1)
            py, wy = quad.nodes_1d(L2)
            p = np.array([m[0] for m in basis.modes], dtype=float)
            q = np.array([m[1] for m in basis.modes], dtype=float)
            ax = math.sqrt(2.0 / L1)
            ay = math.sqrt(2.0 / L2)
            sx = ax * np.sin(p[:, None] * math.pi * px[None, :] / L1)
            dx = ax * (p[:, None] * math.pi / L1) * np.cos(p[:, None] * math.pi * px[None, :] / L1)
            sy = ay * np.sin(q[:, None] * math.pi * py[None, :] / L2)
            dy = ay * (q[:, None] * math.pi / L2) * np.cos(q[:, None] * math.pi * py[None, :] / L2)
            n = basis.N
            self.values = np.einsum("ix,iy->ixy", sx, sy).reshape(n, -1)
            self.grad = [
                np.einsum("ix,iy->ixy", dx, sy).reshape(n, -1),
                np.einsum("ix,iy->ixy", sx, dy).reshape(n, -1),
            ]
            self.weights = np.outer(wx, wy).ravel()
            X, Y = np.meshgrid(px, py, indexing="ij")
            self.points = (X.ravel(), Y.ravel())


@lru_cache(maxsize=16)
def _tabulate(basis: SpectralBasis, quad: QuadratureRule) -> _Tabulation:
    return _Tabulation(basis, quad)


def _expr(fieldlike):
    """The expression behind a CoefficientField or a bare expression."""
    return fieldlike.expr if isinstance(fieldlike, CoefficientField) else fieldlike


def _sample(fieldlike, shape, **env) -> np.ndarray:
    """Values of a coefficient at the points env, broadcast to shape."""
    return np.broadcast_to(np.asarray(evaluate(_expr(fieldlike), **env), dtype=float), shape)


def _field(fieldlike, geom: DomainGeometry, T: float) -> CoefficientField:
    """A CoefficientField as given, or a bare expression bound to (geom, T)."""
    if isinstance(fieldlike, CoefficientField):
        return fieldlike
    return CoefficientField(fieldlike, geom.lengths, T)


def _coeff_on_grid(fieldlike, t: float, tab: _Tabulation) -> np.ndarray:
    return _sample(fieldlike, tab.weights.shape, t=t, **dict(zip(("x", "y"), tab.points)))


def _min_eigenvalue(avals: dict) -> np.ndarray:
    """Pointwise min eigenvalue of the symmetric (a_kl) from sample arrays.

    1-d when a22 is absent; in 2-d a missing a12 counts as 0.
    """
    if "a22" not in avals:
        return avals["a11"]
    a11, a22 = avals["a11"], avals["a22"]
    half_tr = 0.5 * (a11 + a22)
    rad = np.sqrt(0.25 * (a11 - a22) ** 2 + avals.get("a12", 0.0) ** 2)
    return half_tr - rad


def _constant(fieldlike):
    """Value of a coefficient free of t, x and y; None when it varies."""
    expr = _expr(fieldlike)
    return None if variables_of(expr) else float(evaluate(expr))


def assemble(basis, coeffs, forcing, t, quad=None) -> AssembledForm:
    """Form matrix and load at time t.

    coeffs maps "a11" ("a12", "a22" when 2d), optional "b1" ("b2") and "c"
    to CoefficientFields or bare expressions; only the upper triangle of the
    diffusion matrix is read, so (a_kl) is symmetric by construction.
    forcing maps mode indices (1-based, in eigenvalue order) to expressions
    in t; modes above N are truncated, unlisted modes are zero.

    Constant-coefficient diagonal case (constant a, c; no b) is assembled
    exactly from orthonormality, so single-mode problems decouple exactly.
    """
    geom = basis.geometry
    if quad is None:
        quad = default_quadrature(basis.N)
    n = basis.N
    load = np.zeros(n)
    for j, expr in forcing.items():
        if 1 <= j <= n:
            load[j - 1] = float(evaluate(_expr(expr), t=t))

    names = ["a11"] if geom.dim == 1 else ["a11", "a12", "a22"]
    a_exprs = {k: coeffs[k] for k in names if k in coeffs}
    if "a11" not in a_exprs or (geom.dim == 2 and "a22" not in a_exprs):
        raise ValueError("diffusion coefficients a11 (and a22 in 2d) are required")
    b_names = [k for k in (["b1"] if geom.dim == 1 else ["b1", "b2"]) if k in coeffs]
    has_c = "c" in coeffs

    consts = {k: _constant(f) for k, f in a_exprs.items()}
    c_const = _constant(coeffs["c"]) if has_c else 0.0

    diag_exact = (
        not b_names
        and all(v is not None for v in consts.values())
        and c_const is not None
        and (geom.dim == 1 or consts.get("a12", 0.0) == 0.0)
    )
    if diag_exact:
        # orthonormal eigenbasis: A = diag(abar * lambda + c) exactly
        if geom.dim == 1:
            abar = consts["a11"]
        else:
            # isotropic only when a11 == a22; otherwise fall through
            if consts["a11"] == consts["a22"]:
                abar = consts["a11"]
            else:
                abar = None
        if abar is not None:
            if abar <= 0.0:
                raise EllipticityError(f"constant diffusion coefficient {abar} is not positive")
            A = np.diag(abar * basis.eigenvalues + c_const)
            return AssembledForm(t, A, load)

    tab = _tabulate(basis, quad)
    w = tab.weights
    avals = {k: _coeff_on_grid(f, t, tab) for k, f in a_exprs.items()}
    eig = _min_eigenvalue(avals)
    idx = int(np.argmin(eig))
    theta_min = float(eig[idx])
    if theta_min <= 0.0:
        loc = tuple(float(p[idx]) for p in tab.points)
        raise EllipticityError(
            f"coefficient matrix loses positivity at t={t}, x={loc}: min eigenvalue {theta_min}"
        )

    if geom.dim == 1:
        D = tab.grad[0]
        A = (D * (w * avals["a11"])) @ D.T
        if b_names:
            bv = _coeff_on_grid(coeffs["b1"], t, tab)
            A += (tab.values * (w * bv)) @ D.T
    else:
        Gx, Gy = tab.grad
        A = (Gx * (w * avals["a11"])) @ Gx.T + (Gy * (w * avals["a22"])) @ Gy.T
        if "a12" in avals:
            A += (Gx * (w * avals["a12"])) @ Gy.T + (Gy * (w * avals["a12"])) @ Gx.T
        for name, G in zip(["b1", "b2"], [Gx, Gy]):
            if name in coeffs:
                bv = _coeff_on_grid(coeffs[name], t, tab)
                A += (tab.values * (w * bv)) @ G.T
    if has_c:
        cv = _coeff_on_grid(coeffs["c"], t, tab)
        A += (tab.values * (w * cv)) @ tab.values.T
    return AssembledForm(t, A, load)


@dataclass(frozen=True)
class EllipticityReport:
    theta_hat: float
    theta_min: float
    passed: bool
    argmin: tuple


def check_ellipticity(coeffs, geom: DomainGeometry, T: float, theta_min: float,
                      samples: int = 32) -> EllipticityReport:
    """Sampled uniform-ellipticity check.

    Samples (t, x[, y]) on a tensor grid, takes the minimum eigenvalue of the
    symmetric coefficient matrix at each sample and passes iff the global
    minimum is >= theta_min.  Asymmetric input is unrepresentable: only the
    upper triangle (a11, a12, a22) exists, a21 is a12 by construction.
    """
    axes = [np.linspace(0.0, T, samples)]
    axes += [np.linspace(0.0, L, samples) for L in geom.lengths]
    grids = np.meshgrid(*axes, indexing="ij")
    names = ("t", "x", "y")[: len(grids)]
    env = dict(zip(names, grids))
    keys = ["a11"] if geom.dim == 1 else ["a11", "a22"] + (["a12"] if "a12" in coeffs else [])
    m = _min_eigenvalue({k: _sample(coeffs[k], grids[0].shape, **env) for k in keys})
    flat = int(np.argmin(m))
    idx = np.unravel_index(flat, m.shape)
    theta_hat = float(m[idx])
    argmin = tuple(float(g[idx]) for g in grids)
    return EllipticityReport(theta_hat, theta_min, theta_hat >= theta_min, argmin)


def poincare_constant(basis: SpectralBasis) -> float:
    """C_Omega = 1/sqrt(lambda_1): ||v||_L2 <= C_Omega ||v||_H10 on the span."""
    return 1.0 / math.sqrt(float(basis.eigenvalues[0]))


def garding_constants(coeffs, geom: DomainGeometry, theta: float, T: float) -> tuple[float, float]:
    """Constructive Garding constants (beta, nu).

    beta = theta/2 and nu = ||b||_inf^2/(2 theta) + ||c||_inf via Young's
    inequality on a(u,u) >= theta||Du||^2 - ||b|| ||Du|| ||u|| - ||c|| ||u||^2,
    with ||b||_inf the sup of the Euclidean magnitude of the drift vector.
    Sup bounds are sampled and carry the 1.05 inflation, which only enlarges
    nu (safe side).
    """
    if theta <= 0.0:
        raise ValueError(f"ellipticity constant theta must be positive, got {theta}")
    bnorm = sup_bound_vector([_field(coeffs[k], geom, T) for k in ("b1", "b2") if k in coeffs])
    cnorm = sup_bound(_field(coeffs["c"], geom, T)) if "c" in coeffs else 0.0
    return 0.5 * theta, bnorm * bnorm / (2.0 * theta) + cnorm


def continuity_constant(coeffs, geom: DomainGeometry, basis: SpectralBasis, T: float) -> float:
    """C2 with |a(u,v;t)| <= C2 ||u||_H10 ||v||_H10 on the modal space.

    C2 = sum ||a_kl||_inf + C_Omega sum ||b_k||_inf + C_Omega^2 ||c||_inf,
    the off-diagonal a12 counting twice (it appears as a12 and a21).
    """
    com = poincare_constant(basis)
    weights = {"a11": 1.0, "a12": 2.0, "a22": 1.0, "b1": com, "b2": com, "c": com * com}
    total = 0.0
    for key, mult in weights.items():
        if key in coeffs:
            total += mult * sup_bound(_field(coeffs[key], geom, T))
    return total


def modal_norms(v: ModalVector) -> tuple[float, float, float]:
    """(L2, H1_0, H^-1) norms of the modal vector.

    L2^2 = sum c_k^2, H1_0^2 = sum lambda_k c_k^2 (gradient seminorm) and
    H^-1^2 = sum c_k^2 / lambda_k, the dual norm induced by the gradient
    inner product, exact on this basis.
    """
    c = v.coefficients
    lam = v.basis.eigenvalues
    l2 = float(np.sqrt(np.sum(c * c)))
    h10 = float(np.sqrt(np.sum(lam * c * c)))
    hm1 = float(np.sqrt(np.sum(c * c / lam)))
    return l2, h10, hm1


def project(samples: np.ndarray, basis: SpectralBasis, quad: QuadratureRule = None) -> ModalVector:
    """L2 projection onto the modal span from samples on the quadrature grid.

    c_i = int u e_i evaluated with the assembly quadrature; idempotent within
    quadrature tolerance.
    """
    if quad is None:
        quad = default_quadrature(basis.N)
    tab = _tabulate(basis, quad)
    u = np.asarray(samples, dtype=float).ravel()
    if u.shape != tab.weights.shape:
        raise ValueError(
            f"expected samples on the quadrature grid ({tab.weights.shape[0]} points), got {u.shape[0]}"
        )
    return ModalVector(tab.values @ (tab.weights * u), basis)


def quadrature_grid(basis: SpectralBasis, quad: QuadratureRule = None):
    """Points of the assembly quadrature grid (x array, or (X, Y) arrays)."""
    if quad is None:
        quad = default_quadrature(basis.N)
    tab = _tabulate(basis, quad)
    return tab.points if len(tab.points) > 1 else tab.points[0]


def gram_matrix(basis: SpectralBasis, quad: QuadratureRule = None) -> np.ndarray:
    """Quadrature Gram matrix int e_i e_j; identity up to quadrature error."""
    if quad is None:
        quad = default_quadrature(basis.N)
    tab = _tabulate(basis, quad)
    return (tab.values * tab.weights) @ tab.values.T


def stiffness_gram(basis: SpectralBasis, quad: QuadratureRule = None) -> np.ndarray:
    """Quadrature matrix int De_i . De_j; diag(lambda) up to quadrature error."""
    if quad is None:
        quad = default_quadrature(basis.N)
    tab = _tabulate(basis, quad)
    out = np.zeros((basis.N, basis.N))
    for G in tab.grad:
        out += (G * tab.weights) @ G.T
    return out
