"""Special functions and discrete fractional calculus on uniform time grids.

Provides Mittag-Leffler evaluation, Riemann-Liouville integrals, the L1
discretization of Caputo/Riemann-Liouville derivatives, and product-integration
convolution against the weakly singular kernels

    k(t)   = t^(-alpha) / Gamma(1 - alpha)
    l(t)   = t^(alpha-1) / Gamma(alpha)
    k_n(t) = n * E_alpha(-n t^alpha)

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

__all__ = [
    "TimeGrid",
    "GridSeries",
    "MLParams",
    "Kernel",
    "gamma",
    "recip_gamma",
    "mittag_leffler",
    "ml",
    "ml_array",
    "rl_integral",
    "rl_integral_left",
    "caputo_derivative",
    "rl_derivative",
    "convolve",
    "integration_by_parts_residual",
]

# All Gamma-function constants route through these two names so every formula
# in the package shares one implementation (CPython's Lanczos-based gamma).
gamma = math.gamma
_lgamma = math.lgamma

_LN_DBL_MAX = math.log(np.finfo(float).max)  # ~709.78
_SERIES_CUT = 40.0
# Largest |z|**(1/alpha) for which the binary64 power series keeps full
# precision despite alternating-term cancellation.
_FLOAT_CANCEL_CUT = 4.0


def recip_gamma(x: float) -> float:
    """1/Gamma(x); exactly 0.0 at the poles x = 0, -1, -2, ..."""
    if x > 0.0:
        if x > 171.6:
            return 0.0  # Gamma overflows double; reciprocal underflows
        return 1.0 / gamma(x)
    if x == math.floor(x):
        return 0.0
    # reflection: 1/Gamma(x) = sin(pi x) * Gamma(1 - x) / pi
    s = math.sin(math.pi * x)
    lv = _lgamma(1.0 - x) + math.log(abs(s)) - math.log(math.pi)
    if lv > _LN_DBL_MAX:
        raise OverflowError(f"1/Gamma({x}) exceeds the floating range")
    return math.copysign(math.exp(lv), s)


# ---------------------------------------------------------------------------
# grid types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform nodes t_m = m*T/M on [0, T]."""

    T: float
    M: int

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be a positive real, got {self.T}")
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 1):
            raise ValueError(f"step count M must be a positive integer, got {self.M}")
        nodes = np.linspace(0.0, self.T, self.M + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def __len__(self) -> int:
        return self.M + 1


@dataclass(frozen=True, eq=False)
class GridSeries:
    """Sampled values (scalar, vector or matrix per node) on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != self.grid.M + 1:
            raise ValueError(
                f"values length {vals.shape[0]} does not match grid with M={self.grid.M}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("series values must all be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# Mittag-Leffler E_{alpha,beta}(z) for real z
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLParams:
    """Parameters (alpha, beta) and relative tolerance for E_{alpha,beta}."""

    alpha: float
    beta: float = 1.0
    tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be a positive real, got {self.beta}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")


def _series_float(a: float, b: float, z: float, tol: float) -> tuple[float, float]:
    """Power series with Kahan compensation; returns (sum, max |term|)."""
    ln_z = math.log(abs(z))
    k_peak = max(0.0, (abs(z) ** (1.0 / a) - b) / a)
    total = 0.0
    comp = 0.0
    max_term = 0.0
    k = 0
    while True:
        lt = k * ln_z - _lgamma(a * k + b) if k > 0 else -_lgamma(b)
        term = math.exp(lt) if lt > -745.0 else 0.0
        if z < 0.0 and (k & 1):
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        at = abs(term)
        if at > max_term:
            max_term = at
        if k > k_peak and at < 1e-3 * tol * (abs(total) + 1e-300):
            return total, max_term
        k += 1
        if k > 200_000:
            raise RuntimeError("Mittag-Leffler series failed to converge")


def _algebraic_tail(a: float, b: float, z: float, tol: float) -> float:
    """-sum_{k>=1} z^{-k} / Gamma(b - a k), truncated at its smallest term.

    Valid asymptotic expansion on the negative axis (|arg z| > a*pi) and the
    algebraic correction for large positive z.
    """
    ln_inv = -math.log(abs(z))
    # Raw term magnitudes wiggle through the Gamma poles, so truncation is
    # decided on a continuous envelope: |1/Gamma(x)| <= 1/Gamma(x) for
    # x >= 1/2 and <= Gamma(1-x)/pi below (the two agree at x = 1/2).
    lenvs = []
    lenv_min = math.inf
    k_min = 0
    for k in range(1, 400):
        x = b - a * k
        if x >= 0.5:
            lenv = -_lgamma(x) + k * ln_inv
        else:
            lenv = _lgamma(1.0 - x) - math.log(math.pi) + k * ln_inv
        lenvs.append(lenv)
        if lenv < lenv_min:
            lenv_min = lenv
            k_min = k
        if lenv > lenv_min + 3.0 and k > k_min + 3:
            break  # decisively past the optimal-truncation minimum
    total = 0.0
    comp = 0.0
    for k in range(1, k_min + 1):
        x = b - a * k
        if not (x <= 0.0 and x == math.floor(x)):  # Gamma poles vanish exactly
            if x > 0.0:
                lt = -_lgamma(x) + k * ln_inv
                sgn_r = 1.0
            else:
                s = math.sin(math.pi * x)
                lt = _lgamma(1.0 - x) + math.log(abs(s)) - math.log(math.pi) + k * ln_inv
                sgn_r = math.copysign(1.0, s)
            mag = math.exp(lt) if lt > -745.0 else 0.0
            sgn_zk = 1.0 if (z > 0.0 or k % 2 == 0) else -1.0
            term = -sgn_zk * sgn_r * mag
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        # stop on the sine-free envelope: raw magnitudes dip spuriously near
        # the poles and would truncate the series early
        if math.exp(min(lenvs[k - 1], 700.0)) < 1e-4 * tol * (abs(total) + 1e-300):
            break
    return total


def _asymptotic_pos(a: float, b: float, z: float, tol: float) -> float:
    """Exponential leading term plus algebraic correction for z > +cut."""
    s = z ** (1.0 / a)
    llead = s + ((1.0 - b) / a) * math.log(z) - math.log(a)
    if llead > _LN_DBL_MAX:
        raise OverflowError(
            f"E_{{{a},{b}}}({z}): z**(1/alpha) exceeds the floating range"
        )
    return math.exp(llead) + _algebraic_tail(a, b, z, tol)


def _series_mp(a: float, b: float, z: float) -> float:
    """Arbitrary-precision series; precision scaled to the cancellation size.

    Every term is formed in mpf arithmetic (including the Gamma argument):
    a binary64 argument would inject ~1e-14 relative noise per term, fatal
    after tens of digits of alternating-term cancellation.
    """
    s = abs(z) ** (1.0 / a)
    dps = 30 + int(0.45 * s)
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        aa = mpmath.mpf(a)
        bb = mpmath.mpf(b)
        total = mpmath.mpf(0)
        max_term = mpmath.mpf(0)
        floor = mpmath.mpf(10) ** (-dps + 2)
        if a == 1.0:
            term = 1.0 / mpmath.gamma(bb)
            k = 0
            while True:
                total += term
                if abs(term) > max_term:
                    max_term = abs(term)
                term = term * zz / (k + bb)
                k += 1
                if k > abs(z) + 10 and abs(term) < floor * max_term:
                    break
                if k > 1_000_000:
                    raise RuntimeError("extended-precision series failed to converge")
        else:
            k = 0
            power = mpmath.mpf(1)
            while True:
                term = power / mpmath.gamma(aa * k + bb)
                total += term
                if abs(term) > max_term:
                    max_term = abs(term)
                power *= zz
                k += 1
                if k > s / a + 10 and abs(term) < floor * max_term:
                    break
                if k > 1_000_000:
                    raise RuntimeError("extended-precision series failed to converge")
        return float(total)


_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def _kernel_integral_neg(a: float, b: float, z: float, tol: float) -> float:
    """E_{a,b}(z) for z < 0, 0 < a <= 0.95, via the real-line kernel integral.

    Requires b <= 1 so the integrand stays bounded at 0; callers reduce beta
    with E_{a,B+a}(z) = (E_{a,B}(z) - 1/Gamma(B)) / z first.
    """
    x = -z
    chi0 = max(1.0, 2.0 * x, (-math.log(1e-16 * math.pi / 6.0)) ** a)
    edges = [0.0]
    lo = min(1.0, chi0)
    edges.extend(lo * np.geomspace(1e-10, 1.0, 25))
    if x < chi0:
        # resolve the denominator peak near chi = x (width ~ x*sin(pi a))
        edges.extend(np.clip(x * np.linspace(0.2, 2.5, 30), 0.0, chi0))
    # resolve the O(1)-scale decay of exp(-chi**(1/a))
    edges.extend(np.linspace(lo, min(12.0, chi0), 22))
    edges.extend(np.linspace(lo, chi0, 25))
    edges = np.unique(np.asarray(edges))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    chi = (mid[:, None] + half[:, None] * _GL12_X[None, :]).ravel()
    w = (half[:, None] * _GL12_W[None, :]).ravel()

    sb = math.sin(math.pi * (1.0 - b))
    sba = math.sin(math.pi * (1.0 - b + a))
    ca = math.cos(math.pi * a)
    expo = (1.0 - b) / a
    with np.errstate(divide="ignore"):
        pref = np.where(chi > 0.0, chi**expo, 0.0 if expo > 0 else 1.0)
    num = chi * sb - z * sba
    den = chi * chi - 2.0 * chi * z * ca + z * z
    kern = pref * np.exp(-(chi ** (1.0 / a))) * num / den / (a * math.pi)
    return float(np.dot(w, kern))


def _ml_negative_robust(a: float, b: float, z: float, tol: float) -> float:
    if a > 0.95:
        return _series_mp(a, b, z)
    m = 0
    bb = b
    while bb > 1.0:
        bb -= a
        m += 1
    val = _kernel_integral_neg(a, bb, z, tol)
    for _ in range(m):
        val = (val - recip_gamma(bb)) / z
        bb += a
    return val


def mittag_leffler(p: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta), real z.

    Power series (compensated summation) for moderate |z|, escalating to a
    kernel integral representation or extended-precision summation when the
    binary64 series would lose more than the requested relative tolerance to
    cancellation; algebraic asymptotics below -40, exponential-plus-algebraic
    asymptotics above +40.  Raises OverflowError when z**(1/alpha) exceeds the
    floating range.
    """
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    a, b, tol = p.alpha, p.beta, p.tol
    if z == 0.0:
        return recip_gamma(b)
    if z > 0.0:
        if math.log(z) / a > 0.995 * _LN_DBL_MAX:
            raise OverflowError(
                f"E_{{{a},{b}}}({z}): z**(1/alpha) exceeds the floating range"
            )
        if z > _SERIES_CUT:
            return _asymptotic_pos(a, b, z, tol)
        if z ** (1.0 / a) > 0.995 * _LN_DBL_MAX:
            raise OverflowError(
                f"E_{{{a},{b}}}({z}): z**(1/alpha) exceeds the floating range"
            )
        return _series_float(a, b, z, tol)[0]
    # z < 0
    if z < -_SERIES_CUT:
        if a == 1.0:
            return _series_mp(a, b, z)  # every algebraic term sits on a pole
        return _algebraic_tail(a, b, z, tol)
    s = (-z) ** (1.0 / a)
    if s <= _FLOAT_CANCEL_CUT:
        total, max_term = _series_float(a, b, z, tol)
        if 2.3e-16 * max_term <= 0.25 * tol * abs(total):
            return total
    return _ml_negative_robust(a, b, z, tol)


def ml(alpha: float, z: float, beta: float = 1.0, tol: float = 1e-12) -> float:
    """Convenience wrapper around :func:`mittag_leffler`."""
    return mittag_leffler(MLParams(alpha, beta, tol), z)


def ml_array(alpha: float, z, beta: float = 1.0, tol: float = 1e-12) -> np.ndarray:
    """Elementwise E_{alpha,beta} over an array of real arguments."""
    p = MLParams(alpha, beta, tol)
    zf = np.asarray(z, dtype=float)
    out = np.empty(zf.shape, dtype=float)
    flat_in = zf.ravel()
    flat_out = out.ravel()
    for i, zi in enumerate(flat_in):
        flat_out[i] = mittag_leffler(p, float(zi))
    return out


# ---------------------------------------------------------------------------
# causal convolution and product-integration weights
# ---------------------------------------------------------------------------


def _causal_conv(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y[m] = sum_{j<=m} kernel[m-j] x[j] for m < len(x), column by column.

    x may carry any trailing shape; each column x[:, ...] is convolved with
    the same 1-d kernel.  Entries of kernel beyond len(x) are never used.
    """
    n = x.shape[0]
    flat = x.reshape(n, -1)
    out = np.empty(flat.shape)
    for c in range(flat.shape[1]):
        out[:, c] = np.convolve(kernel, flat[:, c])[:n]
    return out.reshape(x.shape)


def _conv_tail(kernel: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """y[p] = sum_{q<k} kernel[k+p-q] x[q] for p < n, x of shape (k, N), by FFT.

    The rows k..k+n-1 of the causal convolution of kernel with x followed by
    n zeros: what a block of inputs adds to the n outputs after it.  One
    rfft/irfft pair of length L = k + n covers every column of x; the circular
    wrap lands below row k, so the rows kept are exact up to rounding.
    kernel needs L entries; kernel[0] never enters.
    """
    k = x.shape[0]
    L = k + n
    spec = np.fft.rfft(x, n=L, axis=0)
    spec *= np.fft.rfft(kernel[:L])[:, None]
    return np.fft.irfft(spec, n=L, axis=0)[k:]


def _pl_weights(order: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights for I^order against piecewise-linear data on a uniform grid.

    Returns (a0, W): node-0 coefficients a0[m] and the convolution kernel W[r]
    (r = m - j) covering interior nodes, with W[0] the self weight.  The
    quadrature is exact for piecewise-linear integrands.
    """
    m = np.arange(M + 1, dtype=float)
    op1 = order + 1.0
    a0 = np.zeros(M + 1)
    a0[1:] = (m[1:] - 1.0) ** op1 - m[1:] ** order * (m[1:] - order - 1.0)
    W = np.zeros(M + 1)
    W[0] = 1.0
    r = m[1:]
    W[1:] = (r + 1.0) ** op1 - 2.0 * r**op1 + (r - 1.0) ** op1
    return a0, W


def _fractional_integral_values(vals: np.ndarray, order: float, dt: float) -> np.ndarray:
    """(I^order x)(t_m) for piecewise-linear x given by nodal values."""
    M = vals.shape[0] - 1
    a0, W = _pl_weights(order, M)
    scale = dt**order / gamma(order + 2.0)
    flat = vals.reshape(M + 1, -1)
    y = _causal_conv(W, flat[1:])
    y += a0[1:, None] * flat[0]
    y *= scale
    return np.concatenate([np.zeros_like(flat[:1]), y]).reshape(vals.shape)


def rl_integral(x: GridSeries, alpha: float) -> GridSeries:
    """Right-handed fractional integral (I^alpha x)(t_m), node 0 = 0.

    Product integration: the weight (t - tau)^(alpha-1) is integrated exactly
    against the piecewise-linear reconstruction of x.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return GridSeries(x.grid, _fractional_integral_values(x.values, alpha, x.grid.dt))


def rl_integral_left(x: GridSeries, alpha: float) -> GridSeries:
    """Left-handed fractional integral (I^alpha_{T-} x)(t_m), node M = 0."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    rev = x.values[::-1].copy()
    out = _fractional_integral_values(rev, alpha, x.grid.dt)
    return GridSeries(x.grid, out[::-1].copy())


def _l1_weights(alpha: float, M: int, dt: float) -> tuple[np.ndarray, float]:
    """L1 weights b_j = (j+1)^(1-alpha) - j^(1-alpha), j < M, and the scale
    w0 = dt^(-alpha) / Gamma(2-alpha): D^alpha x(t_m) ~ w0 sum_j b_j dx_{m-j}."""
    j = np.arange(M, dtype=float)
    b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    return b, dt ** (-alpha) / gamma(2.0 - alpha)


def caputo_derivative(x: GridSeries, alpha: float) -> GridSeries:
    """L1 discretization of the Caputo derivative of order alpha in (0, 1).

    Node 0 is undefined for the derivative and is reported as the node-1
    value (documented convention).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    M = x.grid.M
    if M < 2:
        raise ValueError(f"L1 scheme needs at least M=2 steps, got {M}")
    b, w0 = _l1_weights(alpha, M, x.grid.dt)
    d = w0 * _causal_conv(b, np.diff(x.values, axis=0))
    return GridSeries(x.grid, np.concatenate([d[:1], d]))


def rl_derivative(x: GridSeries, alpha: float) -> GridSeries:
    """Riemann-Liouville derivative via the splitting RL = Caputo + x(0) term.

    Adds x(0) * t^(-alpha) / Gamma(1-alpha) to the L1 Caputo value; node 0 is
    excluded (reported as the node-1 value) as for the Caputo derivative.
    """
    cap = caputo_derivative(x, alpha)
    x0 = x.values[0]
    if np.all(x0 == 0.0):
        return cap
    t = x.grid.nodes[1:]
    sing = t ** (-alpha) / gamma(1.0 - alpha)
    vals = cap.values.copy()
    shaped = sing.reshape((len(t),) + (1,) * (vals.ndim - 1))
    vals[1:] = vals[1:] + shaped * x0
    vals[0] = vals[1]
    return GridSeries(x.grid, vals)


# ---------------------------------------------------------------------------
# kernels and convolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Convolution kernel: kind "k", "l" or "kn" (Yosida, with index n)."""

    kind: str
    alpha: float
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("k", "l", "kn"):
            raise ValueError(f"kernel kind must be 'k', 'l' or 'kn', got {self.kind!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"kernel alpha must lie in (0, 1), got {self.alpha}")
        if self.kind == "kn" and self.n < 1:
            raise ValueError(f"Yosida kernel index n must be >= 1, got {self.n}")

    @staticmethod
    def k(alpha: float) -> "Kernel":
        return Kernel("k", alpha)

    @staticmethod
    def l(alpha: float) -> "Kernel":
        return Kernel("l", alpha)

    @staticmethod
    def kn(alpha: float, n: int) -> "Kernel":
        return Kernel("kn", alpha, n)


_G2 = 0.5 / math.sqrt(3.0)
_GAUSS2 = (0.5 - _G2, 0.5 + _G2)  # 2-point Gauss nodes on (0, 1)


def _yosida_kernel_values(alpha: float, n: int, s: np.ndarray, tol: float) -> np.ndarray:
    """k_n(s) = n * E_alpha(-n s^alpha) elementwise."""
    return n * ml_array(alpha, -n * (np.maximum(s, 0.0) ** alpha), 1.0, tol)


def _convolve_kn(f_vals: np.ndarray, alpha: float, n: int, grid: TimeGrid,
                 tol: float = 1e-12) -> np.ndarray:
    """(k_n * f)(t_m): composite 2-point Gauss per cell against linear f.

    k_n drops from n to O(1) over a layer of width ~ n^(-1/alpha); the cell
    adjacent to the diagonal is integrated on geometrically graded subcells so
    the layer is resolved on any grid.
    """
    M = grid.M
    dt = grid.dt
    gm, gp = _GAUSS2
    r = np.arange(1.0, M + 1.0)
    kp = _yosida_kernel_values(alpha, n, (r - gp) * dt, tol)
    km = _yosida_kernel_values(alpha, n, (r - gm) * dt, tol)
    kp[0] = 0.0  # diagonal cell handled separately on graded subcells
    km[0] = 0.0

    flat = f_vals.reshape(M + 1, -1)
    fp = (1.0 - gp) * flat[:-1] + gp * flat[1:]
    fm = (1.0 - gm) * flat[:-1] + gm * flat[1:]

    out = np.zeros_like(flat)
    out[1:] = 0.5 * dt * (_causal_conv(kp, fp) + _causal_conv(km, fm))

    # diagonal cell: s in [0, dt], f(t_m - s) linear between f_m and f_{m-1}
    layer = n ** (-1.0 / alpha)
    s_lo = min(layer * 1e-2, dt * 1e-8)
    edges = np.concatenate(([0.0], np.geomspace(s_lo, dt, 28)))
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    snod = np.concatenate([mids - halfs / math.sqrt(3.0), mids + halfs / math.sqrt(3.0)])
    swgt = np.concatenate([halfs, halfs])
    kvals = _yosida_kernel_values(alpha, n, snod, tol)
    w_right = float(np.dot(swgt, kvals * (1.0 - snod / dt)))  # weight of f_m
    w_left = float(np.dot(swgt, kvals * (snod / dt)))         # weight of f_{m-1}
    out[1:] += w_right * flat[1:] + w_left * flat[:-1]
    return out.reshape(f_vals.shape)


def convolve(f: GridSeries, g: Kernel) -> GridSeries:
    """(g * f)(t_m) by product integration.

    Kernels "k" and "l" are weakly singular powers integrated exactly against
    piecewise-linear f (they are the I^(1-alpha) and I^alpha weights); the
    smooth Yosida kernel "kn" uses composite two-point Gauss quadrature per
    subinterval with a graded diagonal cell.
    """
    if g.kind == "kn":
        return GridSeries(f.grid, _convolve_kn(f.values, g.alpha, g.n, f.grid))
    return rl_integral(f, g.alpha if g.kind == "l" else 1.0 - g.alpha)


def integration_by_parts_residual(f: GridSeries, g: GridSeries, alpha: float) -> float:
    """| int (I^a f) g - int f (I^a_{T-} g) | with trapezoidal outer quadrature.

    The two sides agree for the continuous operators; the residual measures
    the discretization error and decays at least first order for smooth data.
    """
    if f.grid is not g.grid and (f.grid.T != g.grid.T or f.grid.M != g.grid.M):
        raise ValueError("f and g must share one grid")
    t = f.grid.nodes
    lhs = np.trapezoid(rl_integral(f, alpha).values * g.values, t)
    rhs = np.trapezoid(f.values * rl_integral_left(g, alpha).values, t)
    return float(abs(lhs - rhs))
