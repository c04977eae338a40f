"""Independent references for the benchmark's checks and generator.

Nothing here calls fracspec.  The sine-basis quadrature is a single-panel
tensor Gauss-Legendre rule sized by the largest mode index on each axis, and
the Mittag-Leffler reference sums the defining series (or, far out on the
negative axis, the algebraic asymptotic series) in mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Spatial factor of a coefficient term: "sin" or "cos" of pi x / L per axis.
_SHAPE_FNS = {"sin": np.sin, "cos": np.cos}


def sine_modes(lengths, N: int) -> tuple:
    """First N Dirichlet modes of the box, sorted by (eigenvalue, mode pair)."""
    if len(lengths) == 1:
        return tuple(range(1, N + 1))
    L1, L2 = lengths
    cands = sorted(
        ((p * math.pi / L1) ** 2 + (q * math.pi / L2) ** 2, p, q)
        for p in range(1, N + 1)
        for q in range(1, N + 1)
    )
    return tuple((p, q) for _, p, q in cands[:N])


def sine_eigenvalues(lengths, modes) -> np.ndarray:
    if len(lengths) == 1:
        return np.array([(k * math.pi / lengths[0]) ** 2 for k in modes])
    L1, L2 = lengths
    return np.array([(p * math.pi / L1) ** 2 + (q * math.pi / L2) ** 2 for p, q in modes])


class SineQuadrature:
    """Orthonormal sine basis, its gradient and weights on a tensor Gauss grid."""

    def __init__(self, lengths, modes):
        self.lengths = tuple(lengths)
        per_axis = [tuple(modes)] if len(lengths) == 1 else list(zip(*modes))
        axes = []
        for L, ks in zip(self.lengths, per_axis):
            n = 4 * max(ks) + 32  # integrands hold frequencies up to 2 max(k) + 1
            g, gw = np.polynomial.legendre.leggauss(n)
            x = 0.5 * L * (g + 1.0)
            k = np.asarray(ks, dtype=float)[:, None]
            arg = k * math.pi * x[None, :] / L
            amp = math.sqrt(2.0 / L)
            axes.append((x, 0.5 * L * gw, amp * np.sin(arg), amp * (k * math.pi / L) * np.cos(arg)))
        if len(axes) == 1:
            x, w, s, d = axes[0]
            self.points = (x,)
            self.weights = w
            self.values = s
            self.grad = (d,)
        else:
            (x, wx, sx, dx), (y, wy, sy, dy) = axes
            n = len(modes)
            X, Y = np.meshgrid(x, y, indexing="ij")
            self.points = (X.ravel(), Y.ravel())
            self.weights = np.outer(wx, wy).ravel()
            self.values = np.einsum("ix,iy->ixy", sx, sy).reshape(n, -1)
            self.grad = (
                np.einsum("ix,iy->ixy", dx, sy).reshape(n, -1),
                np.einsum("ix,iy->ixy", sx, dy).reshape(n, -1),
            )

    def shape(self, kinds) -> np.ndarray:
        """prod over axes of sin/cos(pi x_a / L_a); all ones for kinds = ()."""
        out = np.ones_like(self.weights)
        for kind, x, L in zip(kinds, self.points, self.lengths):
            out = out * _SHAPE_FNS[kind](math.pi * x / L)
        return out

    def form_matrix(self, name: str, h: np.ndarray) -> np.ndarray:
        """M_ij = int of coefficient h in slot `name` against (e_j, e_i)."""
        wh = self.weights * h
        E, G = self.values, self.grad
        if name == "a11":
            return (G[0] * wh) @ G[0].T
        if name == "a22":
            return (G[1] * wh) @ G[1].T
        if name == "a12":
            return (G[0] * wh) @ G[1].T + (G[1] * wh) @ G[0].T
        if name == "b1":
            return (E * wh) @ G[0].T
        if name == "c":
            return (E * wh) @ E.T
        raise ValueError(f"unknown coefficient slot {name!r}")


# ---------------------------------------------------------------------------
# Mittag-Leffler E_{alpha,beta}(z), z <= 0
# ---------------------------------------------------------------------------

_SERIES_LIMIT = 60.0  # above this |z|^(1/alpha) use the asymptotic series


def ml_ref(alpha: float, z: float, beta: float = 1.0) -> float:
    """E_{alpha,beta}(z) for real z <= 0 and 0 < alpha < 1.

    The power series is summed with precision scaled to its cancellation,
    |z|^(1/alpha) / ln 10 digits plus a margin.  Past _SERIES_LIMIT the
    algebraic expansion -sum_k z^-k / Gamma(beta - alpha k) is summed up to
    its smallest term, where its remainder is of order exp(-|z|^(1/alpha)).
    """
    if z > 0.0 or not (0.0 < alpha < 1.0):
        raise ValueError("reference covers 0 < alpha < 1 and z <= 0 only")
    if z == 0.0:
        return float(mpmath.rgamma(beta))
    s = (-z) ** (1.0 / alpha)
    if s <= _SERIES_LIMIT:
        dps = int(s / math.log(10.0)) + 30
        with mpmath.workdps(dps):
            zz, aa, bb = mpmath.mpf(z), mpmath.mpf(alpha), mpmath.mpf(beta)
            total = mpmath.mpf(0)
            power = mpmath.mpf(1)
            peak = mpmath.mpf(0)
            floor = mpmath.mpf(10) ** (-dps + 5)
            k = 0
            while True:
                term = power * mpmath.rgamma(aa * k + bb)
                total += term
                peak = max(peak, abs(term))
                if k > s / alpha + 10 and abs(term) < floor * peak:
                    return float(total)
                power *= zz
                k += 1
    # Truncate where the envelope |z|^-k Gamma(alpha k + 2 - beta) is
    # smallest; single terms can be tiny next to a pole of 1/Gamma.
    with mpmath.workdps(40):
        zz, aa, bb = mpmath.mpf(z), mpmath.mpf(alpha), mpmath.mpf(beta)
        total = mpmath.mpf(0)
        prev = math.inf
        for k in range(1, 2000):
            env = -k * math.log(-z) + math.lgamma(alpha * k + 2.0 - beta)
            if env > prev:
                break
            total -= zz ** (-k) * mpmath.rgamma(bb - aa * k)
            prev = env
            if env < math.log(1e-30) + math.log(abs(float(total))):
                break
        return float(total)


def relaxation(alpha: float, lam: float, t: float, amp: float = 1.0) -> float:
    """Solution of D^alpha c + lam c = amp, c(0) = 0: amp (1 - E_alpha(-lam t^alpha)) / lam."""
    return amp * (1.0 - ml_ref(alpha, -lam * t**alpha)) / lam


def yosida_step(alpha: float, n: int, t: float, amp: float = 1.0) -> float:
    """(k_n * amp)(t) = amp n t E_{alpha,2}(-n t^alpha), k_n(s) = n E_alpha(-n s^alpha)."""
    return amp * n * t * ml_ref(alpha, -n * t**alpha, 2.0)


def rl_power(alpha: float, p: float, t: float, amp: float = 1.0) -> float:
    """I^alpha of amp s^p at t: amp Gamma(p+1)/Gamma(p+1+alpha) t^(p+alpha)."""
    return amp * math.gamma(p + 1.0) / math.gamma(p + 1.0 + alpha) * t ** (p + alpha)
