"""Special functions and discrete fractional calculus on uniform time grids.

Provides Mittag-Leffler evaluation, Riemann-Liouville integrals, the L1
discretization of Caputo/Riemann-Liouville derivatives, and product-integration
convolution against the kernels

    k(t)   = t^(-alpha) / Gamma(1 - alpha)
    l(t)   = t^(alpha-1) / Gamma(alpha)
    k_n(t) = n * E_alpha(-n t^alpha)

Product integration integrates a kernel exactly against piecewise-linear
data; its weights (a0, W) come from a series for the powers (_pl_weights) or
from the kernel's first two antiderivatives (_antiderivative_weights), and
one routine applies them (_product_integral_values).  Each time kernel has
one recipe, which fode calls too: I^alpha (_rl_integral_values), the
Mittag-Leffler kernels (_ml_kernel_values) and the L1 pair (_l1_pair).

All operations are pure functions of immutable inputs.  Kernels that depend
only on the order and the grid (_pl_weights, _l1_pair) and their FFT
spectra are formed once and kept, read-only, in one bounded LRU (_KERNELS),
which threads share.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "TimeGrid",
    "GridSeries",
    "Kernel",
    "gamma",
    "recip_gamma",
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
_EPS = float(np.finfo(float).eps)  # 2.2e-16
# relative tolerance of every Mittag-Leffler branch
_TOL = 1e-12
_SERIES_CUT = 40.0
# The algebraic tail's domain on the negative axis: alpha < 1 and
# |z|**(1/alpha) above this, where its truncation error is ~exp(-50).  It
# serves there only the points the contour cannot certify.
_TAIL_CUT = 50.0


def _log_recip_gamma(x: float) -> tuple[float, float]:
    """(log |1/Gamma(x)|, sign of 1/Gamma(x)); (-inf, 0.0) at the poles
    x = 0, -1, -2, ..., and below 0 by the reflection 1/Gamma(x) =
    sin(pi x) Gamma(1 - x) / pi."""
    if x > 0.0:
        return -_lgamma(x), 1.0
    if x == math.floor(x):
        return -math.inf, 0.0
    s = math.sin(math.pi * x)
    return _lgamma(1.0 - x) + math.log(abs(s)) - math.log(math.pi), math.copysign(1.0, s)


def recip_gamma(x: float) -> float:
    """1/Gamma(x); exactly 0.0 at the poles x = 0, -1, -2, ..."""
    if x > 0.0:
        if x > 171.6:
            return 0.0  # Gamma overflows double; reciprocal underflows
        return 1.0 / gamma(x)
    lv, sign = _log_recip_gamma(x)
    if lv > _LN_DBL_MAX:
        raise OverflowError(f"1/Gamma({x}) exceeds the floating range")
    return sign * math.exp(lv)


def _max_norm(values: np.ndarray) -> float:
    """max_m ||values_m||_2 over the rows of a 2-d array.

    The values are scaled by their largest magnitude before squaring, so every
    finite array has a finite norm.  One column's norm is that magnitude
    exactly (its scaled squares are <= 1, and 1 at the max), so it is
    returned without them.  Non-finite values give inf or nan, and no values
    0.0.
    """
    scale = float(np.abs(values).max(initial=0.0))
    if scale == 0.0 or not math.isfinite(scale) or values.shape[1] == 1:
        return scale
    unit = values / scale
    return scale * math.sqrt(np.einsum("mi,mi->m", unit, unit).max())


def _is_count(n) -> bool:
    """Whether n is an integer >= 1 (a bool is not a count)."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


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
        if not _is_count(self.M):
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
        # a cast to float would drop an imaginary part with only a warning
        if np.iscomplexobj(self.values):
            raise ValueError("series values must be real, got complex values")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 0 or vals.shape[0] != self.grid.M + 1:
            raise ValueError(f"values of shape {vals.shape} do not match grid with M={self.grid.M}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("series values must all be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# Mittag-Leffler E_{alpha,beta}(z) for real z
# ---------------------------------------------------------------------------


# Every Mittag-Leffler branch evaluates its points, and every FFT convolution
# its columns, in blocks whose temporaries fit this many bytes, sized before
# allocating, so memory does not grow with the batch.
_BLOCK_BYTES = 1 << 20


def _blocks(n: int, doubles_per_point: int):
    """Slices covering range(n), each as many points as fit _BLOCK_BYTES at
    doubles_per_point doubles a point (at least one)."""
    step = max(1, _BLOCK_BYTES // (8 * doubles_per_point))
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _series_float(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Power series with Kahan compensation at every point of the 1-d array
    z, all in (0, _SERIES_CUT].  Each point stops at its own term.

    Positive z only: every term is positive, so nothing cancels and the sum
    is accurate to rounding of its terms.
    """
    total = np.empty(z.shape)
    for sl in _blocks(len(z), 8):
        zb = z[sl]
        ln_z = np.log(zb)
        k_peak = np.maximum(0.0, (zb ** (1.0 / a) - b) / a)
        tot = np.zeros(zb.shape)
        comp = np.zeros(zb.shape)
        live = np.ones(zb.shape, dtype=bool)
        k = 0
        while live.any():
            if k > 200_000:
                raise RuntimeError("Mittag-Leffler series failed to converge")
            lt = k * ln_z - _lgamma(a * k + b)
            term = np.where(lt > -745.0, np.exp(lt), 0.0)
            y = term - comp
            t = tot + y
            comp = np.where(live, (t - tot) - y, comp)
            tot = np.where(live, t, tot)
            live &= ~((k > k_peak) & (term < 1e-3 * _TOL * (tot + 1e-300)))
            k += 1
        total[sl] = tot
    return total


_TAIL_TERMS = 399


@lru_cache(maxsize=32)
def _tail_table(a: float, b: float) -> np.ndarray:
    """The rows (env, log_r, sign_r) of _algebraic_tail at k = 1..n_terms,
    one read-only (3, n_terms) array.

    The table has _TAIL_TERMS terms or, below alpha ~ 0.13, _TAIL_CUT /
    alpha.  Raw term magnitudes wiggle through the Gamma poles, so
    truncation is decided on a continuous envelope env: |1/Gamma(x)| <=
    1/Gamma(x) for x >= 1/2 and <= Gamma(1-x)/pi below (the two agree at
    x = 1/2).  log_r is log |1/Gamma(x)| and sign_r its sign, x = b - a k,
    from _log_recip_gamma: a Gamma pole's sign 0 makes its term vanish exactly.
    """
    n_terms = max(_TAIL_TERMS, math.ceil(_TAIL_CUT / a))
    xs = [b - a * k for k in range(1, n_terms + 1)]
    env = [-_lgamma(x) if x >= 0.5 else _lgamma(1.0 - x) - math.log(math.pi) for x in xs]
    log_r, sign_r = zip(*map(_log_recip_gamma, xs))
    table = np.array([env, log_r, sign_r])
    table.flags.writeable = False
    return table


# _algebraic_tail scans its truncation envelope this many terms at a time
_TAIL_CHUNK = 32


def _algebraic_tail(a: float, b: float, z):
    """-sum_{k>=1} z^{-k} / Gamma(b - a k) at every point of z, each truncated
    at its smallest term; returns (sum, converged).

    Valid asymptotic expansion on the negative axis (|arg z| > a*pi) and the
    algebraic correction for large positive z.  On the negative axis
    ml_array gives it only the points past _TAIL_CUT that the contour does
    not certify.  A point is converged if its
    terms fell below _TOL of the sum or passed their smallest within the
    table (_tail_table, one per (a, b)): the smallest term lies near
    k = |z|^(1/alpha) / alpha, and at the cut the terms fall below _TOL
    well before it.

    A point sums its terms up to k_min, the first smallest of its log
    envelope lenv_k = env_k - k ln|z| (stopping early once a term falls below
    _TOL of the sum), with the minimum taken over the terms up to the first
    one that passes it decisively: 3 above the running minimum, which has
    then held for 4 terms, or else over the whole table.  The envelope is
    scanned _TAIL_CHUNK terms at a time, only as far as the sum needs k_min:
    a scanned point carries its running minimum, the k of its first
    occurrence and the last 4 running minima from chunk to chunk, and only
    points still summing without a passing term are scanned on.  Points go
    in blocks sized for one chunk's temporaries, about 8 doubles a term.
    """
    zf = np.asarray(z, dtype=float)
    flat = zf.reshape(-1)
    table = _tail_table(a, b)
    # as Python floats: the term loop below reads one entry at a time
    env, log_r, sign_r = table.tolist()
    n_terms = len(env)
    ks = np.arange(1.0, n_terms + 1.0)
    out = np.empty(flat.shape)
    converged = np.empty(flat.shape, dtype=bool)
    for sl in _blocks(len(flat), 8 * _TAIL_CHUNK):
        zb = flat[sl]
        ln_inv = -np.log(np.abs(zb))
        run = np.full(zb.shape, np.inf)  # running minimum of lenv
        recent = np.full((len(zb), 4), np.nan)  # the last 4 running minima
        k_min = np.zeros(zb.shape, dtype=np.intp)  # k of run's first occurrence
        # a term passed run, so k_min is final, or the sum converged first
        passed = np.zeros(zb.shape, dtype=bool)
        scanned = 0
        odd_sign = np.where(zb > 0.0, 1.0, -1.0)
        total = np.zeros(zb.shape)
        comp = np.zeros(zb.shape)
        live = np.ones(zb.shape, dtype=bool)
        horizon = 0  # every live point's final k_min is >= k up to here
        for k in range(1, n_terms + 2):  # no k_min exceeds n_terms
            while k > horizon:  # scan on until k_min is known to be >= k or final
                idx = np.flatnonzero(live & ~passed)
                if scanned == n_terms or not len(idx):
                    horizon = n_terms
                    break
                c0, scanned = scanned, min(scanned + _TAIL_CHUNK, n_terms)
                lenv = table[0, c0:scanned] + ks[c0:scanned] * ln_inv[idx, None]
                runs = np.minimum.accumulate(lenv, axis=1)
                np.minimum(runs, run[idx, None], out=runs)
                window = np.concatenate([recent[idx], runs], axis=1)
                past = (lenv > runs + 3.0) & (runs == window[:, :-4])
                hit = past.any(axis=1)
                col = np.where(hit, past.argmax(axis=1), scanned - c0 - 1)
                low = runs[np.arange(len(idx)), col]
                first = np.argmax(lenv == low[:, None], axis=1) + (c0 + 1)
                k_min[idx] = np.where(low < run[idx], first, k_min[idx])
                passed[idx] = hit
                run[idx] = runs[:, -1]
                recent[idx] = window[:, -4:]
                idx = idx[~hit]
                horizon = int(k_min[idx].min()) if len(idx) else n_terms
            live &= k <= k_min
            if not live.any():
                break
            kl = k * ln_inv
            if sign_r[k - 1]:
                lt = log_r[k - 1] + kl
                term = np.where(lt > -745.0, np.exp(lt), 0.0) * -sign_r[k - 1]
                if k & 1:
                    term *= odd_sign
                y = term - comp
                t = total + y
                comp = np.where(live, (t - total) - y, comp)
                total = np.where(live, t, total)
            # stop on the sine-free envelope: raw magnitudes dip spuriously near
            # the poles and would truncate the series early
            env_k = np.exp(np.minimum(env[k - 1] + kl, 700.0))
            small = env_k < 1e-4 * _TOL * (np.abs(total) + 1e-300)
            passed |= live & small
            live &= ~small
        out[sl] = total
        converged[sl] = passed
    return out.reshape(zf.shape)[()], converged.reshape(zf.shape)[()]


def _asymptotic_pos(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Exponential leading term plus algebraic correction for z > +cut."""
    llead = z ** (1.0 / a) + ((1.0 - b) / a) * np.log(z) - math.log(a)
    over = llead > _LN_DBL_MAX
    if over.any():
        raise OverflowError(
            f"E_{{{a},{b}}}({z[over][0]}): z**(1/alpha) exceeds the floating range"
        )
    # the leading term exceeds exp(40): the tail's truncation does not show
    return np.exp(llead) + _algebraic_tail(a, b, z)[0]


def _series_mp(a: float, b: float, z):
    """Arbitrary-precision series at every point of z; each point's precision
    is scaled to its cancellation size |z|**(1/a).

    Every term is formed in mpf arithmetic (including the Gamma argument):
    a binary64 argument would inject ~1e-14 relative noise per term, fatal
    after tens of digits of alternating-term cancellation.  The points share
    one table of 1/Gamma(a k + b), formed at the largest precision any of
    them needs.  mpmath is imported here, on the first point that needs it.
    """
    import mpmath

    zf = np.asarray(z, dtype=float)
    flat = zf.reshape(-1)
    s = np.abs(flat) ** (1.0 / a)
    # the largest term is ~exp(s); the sum is O(1/|z|) below alpha = 1 but
    # can be exp(-s) at alpha = 1 (E_1(-s) = exp(-s)), twice the cancellation
    dps = 30 + ((0.9 if a == 1.0 else 0.45) * s).astype(int)
    top = int(dps.max(initial=0))
    rgamma = []  # rgamma[k] = 1/Gamma(a k + b) at top digits
    out = np.empty(flat.shape)
    for i, (zi, si, d) in enumerate(zip(flat.tolist(), s.tolist(), dps.tolist())):
        with mpmath.workdps(d):
            zz = mpmath.mpf(zi)
            total = mpmath.mpf(0)
            max_term = mpmath.mpf(0)
            floor = mpmath.mpf(10) ** (-d + 2)
            power = mpmath.mpf(1)
            k = 0
            while True:
                if k == len(rgamma):
                    with mpmath.workdps(top):
                        if a == 1.0 and k:  # Gamma(x + 1) = x Gamma(x)
                            rgamma.append(rgamma[-1] / (k - 1 + mpmath.mpf(b)))
                        else:
                            rgamma.append(mpmath.rgamma(mpmath.mpf(a) * k + b))
                term = power * rgamma[k]
                total += term
                if abs(term) > max_term:
                    max_term = abs(term)
                power *= zz
                k += 1
                if k > si / a + 10 and abs(term) < floor * max_term:
                    break
                if k > 1_000_000:
                    raise RuntimeError("extended-precision series failed to converge")
            out[i] = float(total)
    return out.reshape(zf.shape)[()]


def _y_minus_sin(y: np.ndarray) -> np.ndarray:
    """y - sin(y) for y >= 0; below y = 1, where the difference cancels, by
    its Taylor series (the first term left out is y^21/21! < 2e-20)."""
    term = y**3 / 6.0
    total = term.copy()
    for k in range(5, 21, 2):
        term = term * (-y * y / ((k - 1) * k))
        total += term
    return np.where(y < 1.0, total, y - np.sin(y))


def _talbot_rule(lam: float, theta_max: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(log s_k, w_k) of the trapezoidal rule for the inverse Laplace
    transform at t = 1, f(1) = sum_k Im(w_k F(s_k)) for F real on the real
    axis, on the contour s(theta) = lam (mu theta cot(c theta) - sigma +
    i nu theta), Talbot's shape with the parameters of Trefethen, Weideman &
    Schmelzer (BIT 46, 2006).  Conjugate symmetry leaves the m nodes of the
    upper half plane, theta_k = (k + 1/2) h with h = theta_max / m, and
    w_k = e^(s_k) s'(theta_k) h / pi.

    The largest weights sit at small u = c theta, where u cot u - 1 and
    cot u - u / sin^2 u cancel; they are formed as (u - sin u - 2u
    sin^2(u/2)) / sin u and -(2u - sin 2u) / (2 sin^2 u); formed directly,
    the first weight of _TALBOT_W is off by 27 ulps (4 so).
    """
    mu, sigma, nu, c = 0.5017, 0.6122, 0.2645, 0.6407
    h = theta_max / m
    theta = (np.arange(m) + 0.5) * h
    u = c * theta
    sin_u = np.sin(u)
    ucot_m1 = (_y_minus_sin(u) - 2.0 * u * np.sin(0.5 * u) ** 2) / sin_u
    s = lam * ((mu / c - sigma) + (mu / c) * ucot_m1 + 1j * nu * theta)
    ds = lam * (-mu * _y_minus_sin(2.0 * u) / (2.0 * sin_u**2) + 1j * nu)
    return np.log(s), np.exp(s) * ds * (h / math.pi)


# The rule crosses the real axis at s = 0.171 lam, and its terms reach
# e^(0.171 lam) |F|, while E_{alpha,1}(-x) ~ 1/(x Gamma(1 - alpha)) is far
# smaller near alpha = 1: at the paper's lam = 32 (for 32 nodes) they left
# E_{0.9}(-x) uncertified from x^(1/alpha) ~ 4 on.  lam = 11 makes them 35x
# smaller; theta runs to 4.05, where Re s = -39.  With 30 nodes the rule's
# own error stays <= 0.16 of the bound below on 880 points (alpha 0.3-1,
# beta 0.05-3, |z|^(1/alpha) 1e-3-49; 26 nodes: 0.85), and the binary64
# error <= 0.48 of it on 3000 random ones (alpha 0.01-1, beta <= 7,
# |z|^(1/alpha) <= 50).  The bound counts _TALBOT_ULPS ulps of every term
# and _TALBOT_DISC of the value.  The error grows with beta (4e-16 at
# beta = 3, 4e-15 at 6), so beta is reduced to <= 3 first.  Past the tail
# cut the certified values agree with the converged algebraic tail to
# 8.1e-14 relative (400 points of |z|^(1/alpha) in [50, 1e8] for each of
# 60 alphas in [0.01, 0.999] and 15 betas in [0.01, 8.5]).
_TALBOT_LOG_S, _TALBOT_W = _talbot_rule(11.0, 4.05, 30)
_TALBOT_ULPS = 2.0
_TALBOT_DISC = 1e-14


def _contour(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E_{a,b}(z) at every point of a block of z < 0, and whether each point
    is certified; returns (value, certified).

    The trapezoidal rule on the Talbot contour inverts the Laplace transform
    s^(a-b) / (s^a - z) of t^(b-1) E_{a,b}(z t^a) at t = 1; for z < 0 and
    a < 1 it has no pole on the principal sheet, so there are no residues
    to add; at a = 1 the pole s = z lies inside the contour.  beta is first
    reduced to <= 3 (the rule's error grows with it) by E_{a,b}(z) =
    (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, each step dividing the error bound
    by |z|.  A point is certified if its bound is at most _TOL/4 of its
    finite value; the caller finds another route for the rest, whose values
    are not to be used.
    """
    bb, steps = b, 0
    while bb > 3.0:
        bb -= a
        steps += 1
    terms = _TALBOT_W * np.exp((a - bb) * _TALBOT_LOG_S)
    terms = terms / (np.exp(a * _TALBOT_LOG_S) - z[:, None])
    val = terms.imag.sum(axis=1)
    err = (_TALBOT_ULPS * _EPS) * np.abs(terms).sum(axis=1) + _TALBOT_DISC * np.abs(val)
    # a step adds 6 ulps of |val| + |rg|: 4 for 1/Gamma (CPython's gamma; 4.1
    # at most over 20000 points of [0.02, 7]), one each for - and /.  Steps
    # at a tiny |z| overflow val and its bound to inf: such points are not
    # certified
    with np.errstate(over="ignore"):
        for _ in range(steps):
            rg = recip_gamma(bb)
            err = (err + 6.0 * _EPS * (np.abs(val) + abs(rg))) / -z
            val = (val - rg) / z
            bb += a
        certified = (err <= 0.25 * _TOL * np.abs(val)) & np.isfinite(val)
    return val, certified


def ml(alpha: float, z: float, beta: float = 1.0) -> float:
    """E_{alpha,beta}(z) at one real z: the one-point case of :func:`ml_array`."""
    return float(ml_array(alpha, z, beta))


def ml_array(alpha: float, z, beta: float = 1.0) -> np.ndarray:
    """E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta) at every
    element of the real z, as an array of z's shape.

    alpha lies in (0, 1] and beta is a positive real.  Each element takes the
    first branch below that settles it, and every branch runs once over all
    of its points, in blocks of bounded memory, truncating or certifying at
    the relative tolerance _TOL:

    * z = 0: 1/Gamma(beta).
    * 0 < z <= 40: the power series in binary64 with compensated summation.
    * z > 40: the exponential leading term z^((1-beta)/alpha) exp(z^(1/alpha))
      / alpha plus the algebraic tail below.
    * z < 0, alpha = 1 included: the trapezoidal rule on a fixed Talbot
      contour for the inverse Laplace transform, beta first reduced to <= 3
      by E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z.  Its error bound
      certifies a point if it is at most _TOL/4 of the value; it does not
      near a zero of E, where E lies far below the contour's terms (E_1(-x)
      = exp(-x) from x ~ 8 on, alpha near 1 at large |z|, beta = alpha and
      beta near 0), or at tiny |z| after the reduction.
    * a point the contour does not certify, if alpha < 1 and |z|^(1/alpha) >
      50: the algebraic asymptotic tail -sum_{k>=1} z^-k / Gamma(beta -
      alpha k), truncated at its smallest term, if its terms fall below
      _TOL of the sum or pass their smallest within the tail's table.
    * a point neither route settles: the series in extended precision,
      scaled to the cancellation size |z|^(1/alpha).

    Raises ValueError for alpha or beta out of range, a complex z or any
    element that is not finite, and OverflowError if z**(1/alpha) exceeds
    the floating range at any positive element.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be a positive real, got {beta}")
    a, b = alpha, beta
    # a cast to float would drop an imaginary part with only a warning
    if np.iscomplexobj(z):
        raise ValueError("arguments must be real, got complex values")
    zf = np.asarray(z, dtype=float)
    finite = np.isfinite(zf)
    if not finite.all():
        raise ValueError(f"arguments must be finite, got {zf[~finite][0]}")
    flat = zf.reshape(-1)
    out = np.full(flat.shape, recip_gamma(b))  # z = 0 leaves the k = 0 term
    pos = np.flatnonzero(flat > 0.0)
    neg = np.flatnonzero(flat < 0.0)

    zp = flat[pos]
    small = zp <= _SERIES_CUT
    over = np.log(zp) / a > 0.995 * _LN_DBL_MAX
    if not over.any():  # z**(1/alpha) is finite now
        over = small & (zp ** (1.0 / a) > 0.995 * _LN_DBL_MAX)
    if over.any():
        raise OverflowError(
            f"E_{{{a},{b}}}({zp[over][0]}): z**(1/alpha) exceeds the floating range"
        )
    if not small.all():
        out[pos[~small]] = _asymptotic_pos(a, b, zp[~small])
    if small.any():
        out[pos[small]] = _series_float(a, b, zp[small])

    zn = flat[neg]
    # the contour first: it certifies nearly every point, at ~0.5 us a point
    # against the tail's 1.2-12 us past the cut (alpha 0.9 down to 0.05;
    # 1000 points of |z|^(1/alpha) in [50, 1e6], 2-vCPU Xeon)
    val = np.empty(zn.shape)
    certified = np.empty(zn.shape, dtype=bool)
    for sl in _blocks(len(zn), 6 * len(_TALBOT_W)):
        val[sl], certified[sl] = _contour(a, b, zn[sl])
    # the rejects are boolean masks over zn, one byte a point
    if a < 1.0:  # at alpha = 1 every algebraic term sits on a Gamma pole: no tail
        tail = ~certified
        tail[tail] = np.log(-zn[tail]) > a * math.log(_TAIL_CUT)
        if tail.any():
            tv, converged = _algebraic_tail(a, b, zn[tail])
            tail[tail] = converged
            val[tail] = tv[converged]
            certified |= tail
    rest = ~certified
    if rest.any():
        val[rest] = _series_mp(a, b, zn[rest])
    out[neg] = val
    return out.reshape(zf.shape)


# ---------------------------------------------------------------------------
# causal convolution and product-integration weights
# ---------------------------------------------------------------------------


# _causal_conv sums at most this many rows directly.  Direct summation is
# faster only up to n ~ 512 (one column on a 2-vCPU Xeon: 43 against
# 47 us by FFT at n = 512, 130 against 57 us at 1024, 542 against 111 us at
# 2048), but up to the M = 2048 grids the verification tests certify it keeps
# their rates as they are: the k * l identity converges at exactly 1/2 and
# passes by ~5e-20, which FFT rounding would flip.
_DIRECT_ROWS = 2048

# The kernels that depend only on the order and the grid (_pl_weights and
# _l1_pair) and the spectra _causal_conv and _conv_tail form of them are
# kept in one LRU, _KERNELS, of at most this many entries and this many bytes
# of array data (16 MiB), whatever the grids; kernels a caller builds
# (_antiderivative_weights) are transformed at every call
_KERNEL_ENTRIES = 16
_KERNEL_BYTES = 16 << 20


class _KernelCache:
    """A bounded LRU of grid kernels and their FFT spectra, shared by threads.

    memoize(fn) keeps fn's result, a tuple of arrays and floats, by fn's
    arguments, and makes its arrays read-only; the wrapper has fn as
    __wrapped__ and a cache_clear that drops fn's entries.  spectrum(kernel,
    n, L) is np.fft.rfft(kernel[:n], n=L): kept with the entry of a kernel
    the cache holds, formed afresh for any other array.  An entry leaves
    with its spectra, least recently used first, so the cache holds at most
    _KERNEL_ENTRIES entries and _KERNEL_BYTES bytes of array data, plus a
    few hundred bytes of bookkeeping an entry and spectrum; a result or a
    spectrum that does not fit is returned and not kept.  An array's id
    names its entry only while the cache holds the array, so no other array
    is taken for it.  A lock guards the tables and the arrays are formed
    outside it; two threads that form one entry at once form the same bits,
    and the first is kept.
    """

    def __init__(self, entries: int, nbytes: int):
        self._entries = entries
        self._nbytes = nbytes
        self._lock = threading.Lock()
        self._table = OrderedDict()  # (fn, args) -> [value, {(n, L): spectrum}, bytes]
        self._owner = {}  # id of a kept array -> its key
        self._bytes = 0

    def memoize(self, fn):
        @wraps(fn)
        def cached(*args):
            key = (fn, args)
            with self._lock:
                entry = self._table.get(key)
                if entry is not None:
                    self._table.move_to_end(key)
                    return entry[0]
            value = fn(*args)
            arrays = [v for v in value if isinstance(v, np.ndarray)]
            for a in arrays:
                a.flags.writeable = False
            size = sum(a.nbytes for a in arrays)
            with self._lock:
                entry = self._table.get(key)
                if entry is not None:  # another thread formed it first
                    return entry[0]
                if size <= self._nbytes:
                    self._table[key] = [value, {}, size]
                    self._owner.update((id(a), key) for a in arrays)
                    self._grow(size)
            return value

        cached.cache_clear = lambda: self._clear(fn)
        return cached

    def spectrum(self, kernel: np.ndarray, n: int, L: int) -> np.ndarray:
        with self._lock:
            key = self._owner.get(id(kernel))
            if key is not None:
                spec = self._table[key][1].get((n, L))
                if spec is not None:
                    self._table.move_to_end(key)
                    return spec
        spec = np.fft.rfft(kernel[:n], n=L)
        if key is None:
            return spec
        spec.flags.writeable = False
        with self._lock:
            # evicted meanwhile, or formed by another thread
            entry = self._table.get(key)
            if entry is not None and (n, L) not in entry[1] and entry[2] + spec.nbytes <= self._nbytes:
                entry[1][(n, L)] = spec
                entry[2] += spec.nbytes
                self._table.move_to_end(key)
                self._grow(spec.nbytes)
        return spec

    def _grow(self, size: int) -> None:
        """Count size more bytes, then evict from the oldest entry on until
        both bounds hold; the newest entry fits on its own, so it stays."""
        self._bytes += size
        while len(self._table) > self._entries or self._bytes > self._nbytes:
            self._drop(next(iter(self._table)))

    def _drop(self, key) -> None:
        value, _, size = self._table.pop(key)
        self._bytes -= size
        for v in value:
            if isinstance(v, np.ndarray):
                del self._owner[id(v)]

    def _clear(self, fn) -> None:
        with self._lock:
            for key in [k for k in self._table if k[0] is fn]:
                self._drop(key)


_KERNELS = _KernelCache(_KERNEL_ENTRIES, _KERNEL_BYTES)


def _fft_rows(kspec: np.ndarray, x: np.ndarray, L: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the length-L circular convolution of a kernel with
    every column of x (k, C), both zero-padded to L, by one rfft/irfft product.

    kspec is the kernel's spectrum np.fft.rfft(kernel, n=L): one 1-d
    spectrum for every column, or (L//2 + 1, C), one kernel per column.  The
    columns pass through the transforms in blocks whose temporaries fit
    _BLOCK_BYTES, sized before allocating.  The rows kept are exact up to
    rounding where the wrap of the linear convolution (its rows L and up)
    misses them.
    """
    out = np.empty((hi - lo, x.shape[1]))
    # a column's temporaries: its padded copy, spectrum and inverse, < 3L doubles
    for sl in _blocks(x.shape[1], 3 * L):
        spec = np.fft.rfft(x[:, sl], n=L, axis=0)
        spec *= kspec[:, sl] if kspec.ndim == 2 else kspec[:, None]
        out[:, sl] = np.fft.irfft(spec, n=L, axis=0)[lo:hi]
    return out


def _causal_conv(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y[m] = sum_{j<=m} kernel[m-j] x[j] for m < len(x), column by column.

    x may carry any trailing shape; each column x[:, ...] is convolved with
    the same 1-d kernel.  Entries of kernel beyond len(x) are never used.
    Up to n = _DIRECT_ROWS rows each column is one direct np.convolve,
    O(n^2); above it every column is one rfft product of a power-of-two
    length L >= 2n - 1 (_fft_rows), O(n log n), so no row is wrapped; the
    kernel's spectrum is _KERNELS.spectrum's, kept if the cache holds the
    kernel.
    """
    n = x.shape[0]
    flat = x.reshape(n, -1)
    if n > _DIRECT_ROWS:
        L = 1 << (2 * n - 2).bit_length()
        return _fft_rows(_KERNELS.spectrum(kernel, n, L), flat, L, 0, n).reshape(x.shape)
    out = np.empty(flat.shape)
    for c in range(flat.shape[1]):
        out[:, c] = np.convolve(kernel, flat[:, c])[:n]
    return out.reshape(x.shape)


def _conv_tail(kernel: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """y[p] = sum_{q<k} kernel[k+p-q] x[q] for p < n, x of shape (k, N), by FFT.

    The rows k..k+n-1 of the causal convolution of kernel with x followed by
    n zeros: what a block of inputs adds to the n outputs after it.  One
    rfft/irfft product of length L = k + n (_fft_rows) covers x; the circular
    wrap lands below row k, so the rows kept are exact up to rounding.
    kernel needs L entries; kernel[0] never enters.  The kernel's spectrum
    is _KERNELS.spectrum's, kept if the cache holds the kernel.
    """
    k = x.shape[0]
    return _fft_rows(_KERNELS.spectrum(kernel, k + n, k + n), x, k + n, k, k + n)


# _pl_weights sums its series from r = 2 on, where the terms fall by >= 2 each
# and 64 of them reach 2^-62 ~ 2e-19 of the sum
_PL_TERMS = 64


@_KERNELS.memoize
def _pl_weights(order: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights for I^order against piecewise-linear data on a uniform grid.

    Returns (a0, W): node-0 coefficients a0[m] and the convolution kernel W[r]
    (r = m - j) covering interior nodes, with W[0] the self weight.  The
    quadrature is exact for piecewise-linear integrands.

    With b = order + 1, W[r] = (r+1)^b - 2 r^b + (r-1)^b and
    a0[m] = (m-1)^b - m^order (m - b) are ~r^(b-2) made of terms ~r^b, so these
    closed forms lose ~2 log10(r) digits (5e-10 relative at r = 1000).  From
    r = 2 on they are summed instead as their binomial series in x = 1/r,
    m^b sum_{k>=2} C(b,k) (-x)^k and 2 r^b sum_{k>=1} C(b,2k) x^(2k), whose
    terms are all >= 0 for b in [1, 2]; at r = 1 they reduce to a0 = order
    and W = 2 (2^order - 1).

    Formed once per (order, M) and kept read-only in _KERNELS, with the
    spectra of W that _causal_conv and _conv_tail form; all its entries
    together hold at most _KERNEL_ENTRIES entries and _KERNEL_BYTES (16 MiB)
    of arrays.
    """
    op1 = order + 1.0
    coef = np.zeros(_PL_TERMS)  # C(b,k) (-1)^k
    coef[2] = 0.5 * op1 * order
    for k in range(2, _PL_TERMS - 1):
        coef[k + 1] = coef[k] * (k - op1) / (k + 1.0)
    r = np.arange(2, M + 1, dtype=float)
    a0 = np.zeros(M + 1)
    W = np.zeros(M + 1)
    W[0] = 1.0
    a0[1] = order
    W[1] = 2.0 * math.expm1(order * math.log(2.0))
    a0[2:] = r**op1 * np.polynomial.polynomial.polyval(1.0 / r, coef)
    coef[1::2] = 0.0
    W[2:] = 2.0 * r**op1 * np.polynomial.polynomial.polyval(1.0 / r, coef)
    return a0, W


def _antiderivative_weights(u: np.ndarray, v: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(a0, W) of a kernel K for _product_integral_values at scale 1, from
    u(s) = int_0^s K and v(s) = int_0^s u at the nodes s = r dt, r = 0..M.

    The cell s in [(r-1) dt, r dt] holds the data's linear piece between the
    nodes m-r (at s = r dt) and m-r+1.  By parts, with du = u_r - u_{r-1}
    and core = r u_r - (r-1) u_{r-1} - (v_r - v_{r-1}) / dt, it gives node
    m-r the weight P_r = int K(s) (s/dt - r + 1) ds = (1 - r) du + core and
    node m-r+1 the weight Q_r = int K(s) (r - s/dt) ds = r du - core.  Node
    m-r collects W[r] = P_r + Q_{r+1} (W[0] = Q_1), and node 0 a0[m] = P_m.
    A weight is a second difference of v, so the rounding of u and v grows
    ~r^2 in it: for the power kernel s^(order-1) the weights are off by ~eps
    r^2 / order relative (4e-10 at order 1, 1.6e-8 at 0.05, r <= 1000), which
    is why I^alpha keeps the series of _pl_weights.
    """
    r = np.arange(1.0, len(u))
    du = u[1:] - u[:-1]
    core = (r * u[1:] - (r - 1.0) * u[:-1]) - (v[1:] - v[:-1]) / dt
    P = (1.0 - r) * du + core
    W = r * du - core  # Q_r, r = 1..M
    W[1:] += P[:-1]
    return np.concatenate([[0.0], P]), W


def _product_integral_values(
    vals: np.ndarray, weights: tuple[np.ndarray, np.ndarray], scale: float
) -> np.ndarray:
    """scale (a0[m] x_0 + sum_{r=0}^{m-1} W[r] x_{m-r}) at every node m, and 0
    at node 0, for nodal values x of any trailing shape: a kernel integrated
    against the piecewise-linear x by its weights (a0, W), from _pl_weights
    (I^order at scale dt^order / Gamma(order + 2)) or _antiderivative_weights
    (scale 1, or a factor of the kernel)."""
    M = vals.shape[0] - 1
    a0, W = weights
    flat = vals.reshape(M + 1, -1)
    y = _causal_conv(W, flat[1:])
    y += a0[1:, None] * flat[0]
    y *= scale
    return np.concatenate([np.zeros_like(flat[:1]), y]).reshape(vals.shape)


def _rl_integral_values(vals: np.ndarray, order: float, dt: float) -> np.ndarray:
    """I^order of the nodal values vals at every node, 0 at node 0: the
    weights _pl_weights(order, M) at scale dt^order / Gamma(order + 2); for
    rl_integral, integration_by_parts_residual and fode.picard_apply."""
    return _product_integral_values(vals, _pl_weights(order, len(vals) - 1), dt**order / gamma(order + 2.0))


def _ml_kernel_values(vals: np.ndarray, dt: float, alpha: float, beta: float, lam: float, scale: float):
    """The kernel scale s^(beta-1) E_{alpha,beta}(-lam s^alpha) integrated
    against the nodal values vals at every node, 0 at node 0, by the weights
    (_antiderivative_weights) of its antiderivative u = s^beta
    E_{alpha,beta+1}(-lam s^alpha) and u's, v = s^(beta+1)
    E_{alpha,beta+2}(-lam s^alpha); for k_n (beta = 1, lam = scale = n) and
    fode.variation_of_constants (beta = alpha, scale 1)."""
    s = np.arange(vals.shape[0], dtype=float) * dt
    sb = s**beta
    z = -lam * s**alpha
    u = sb * ml_array(alpha, z, beta + 1.0)
    v = s * sb * ml_array(alpha, z, beta + 2.0)
    return _product_integral_values(vals, _antiderivative_weights(u, v, dt), scale)


def rl_integral(x: GridSeries, alpha: float) -> GridSeries:
    """Right-handed fractional integral (I^alpha x)(t_m), node 0 = 0.

    Product integration: the weight (t - tau)^(alpha-1) is integrated exactly
    against the piecewise-linear reconstruction of x.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return GridSeries(x.grid, _rl_integral_values(x.values, alpha, x.grid.dt))


def rl_integral_left(x: GridSeries, alpha: float) -> GridSeries:
    """Left-handed fractional integral (I^alpha_{T-} x)(t_m), node M = 0."""
    out = rl_integral(GridSeries(x.grid, x.values[::-1]), alpha).values
    return GridSeries(x.grid, out[::-1])


def _l1_weights(alpha: float, M: int, dt: float) -> tuple[np.ndarray, float]:
    """L1 weights b_j = (j+1)^(1-alpha) - j^(1-alpha), j < M, and the scale
    w0 = dt^(-alpha) / Gamma(2-alpha): D^alpha x(t_m) ~ w0 sum_j b_j dx_{m-j}."""
    j = np.arange(M, dtype=float)
    b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    return b, dt ** (-alpha) / gamma(2.0 - alpha)


@_KERNELS.memoize
def _l1_pair(alpha: float, M: int, dt: float) -> tuple[float, np.ndarray]:
    """L1's discrete derivative (Dc)_m = sigma c_m - sum_{r=1}^{m-1} kernel[r]
    c_{m-r} (c_0 = 0) as the (sigma, kernel) pair fode's march takes: sigma =
    w0 and kernel[r] = w0 (b_{r-1} - b_r) with the L1 weights b
    (_l1_weights), kernel[0] = 0 unused.  Formed once per (alpha, M, dt) and
    kept read-only in _KERNELS, with the spectra _conv_tail forms of kernel."""
    b, w0 = _l1_weights(alpha, M, dt)
    return w0, w0 * np.concatenate([[0.0], b[:-1] - b[1:]])


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
    """Convolution kernel: kind "k" (t^(-alpha) / Gamma(1 - alpha)), "l"
    (t^(alpha-1) / Gamma(alpha)) or "kn" (the Yosida kernel n E_alpha(-n
    t^alpha), with index n)."""

    kind: str
    alpha: float
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("k", "l", "kn"):
            raise ValueError(f"kernel kind must be 'k', 'l' or 'kn', got {self.kind!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"kernel alpha must lie in (0, 1), got {self.alpha}")
        if self.kind == "kn" and not (1 <= self.n < math.inf):  # a NaN fails too
            raise ValueError(f"Yosida kernel index n must be a finite real >= 1, got {self.n}")

    @staticmethod
    def k(alpha: float) -> "Kernel":
        return Kernel("k", alpha)

    @staticmethod
    def l(alpha: float) -> "Kernel":
        return Kernel("l", alpha)

    @staticmethod
    def kn(alpha: float, n: int) -> "Kernel":
        return Kernel("kn", alpha, n)


def convolve(f: GridSeries, g: Kernel) -> GridSeries:
    """(g * f)(t_m) by product integration: every kernel is integrated exactly
    against the piecewise-linear reconstruction of f.

    Kernels "k" and "l" are weakly singular powers, the I^(1-alpha) and
    I^alpha weights.  The Yosida kernel k_n = n E_alpha(-n s^alpha) takes its
    weights from its antiderivatives (_ml_kernel_values), so its layer of
    width n^(-1/alpha) needs no refinement of the grid.
    """
    if g.kind != "kn":
        return rl_integral(f, g.alpha if g.kind == "l" else 1.0 - g.alpha)
    return GridSeries(f.grid, _ml_kernel_values(f.values, f.grid.dt, g.alpha, 1.0, g.n, g.n))


def integration_by_parts_residual(f: GridSeries, g: GridSeries, alpha: float) -> float:
    """| int (I^a f) g - int f (I^a_{T-} g) | with trapezoidal outer quadrature.

    The two sides agree for the continuous operators; the residual measures
    the discretization error and decays at least first order for smooth data.
    """
    if f.grid is not g.grid and (f.grid.T != g.grid.T or f.grid.M != g.grid.M):
        raise ValueError("f and g must share one grid")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    # the trapezoids run along the last axis, which is time only for a scalar series
    if f.values.ndim != 1 or g.values.ndim != 1:
        raise ValueError("integration_by_parts_residual takes a scalar series f and g")
    t = f.grid.nodes
    # I^a f and the reversed I^a g (rl_integral_left) as two columns of one
    # product integration, which forms the weights once
    pair = np.stack([f.values, g.values[::-1]], axis=-1)
    both = _rl_integral_values(pair, alpha, f.grid.dt)
    lhs = np.trapezoid(both[..., 0] * g.values, t)
    rhs = np.trapezoid(f.values * both[::-1, ..., 1], t)
    return float(abs(lhs - rhs))
