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
from functools import lru_cache

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
# Below alpha = 1 the negative axis takes the algebraic tail once
# |z|**(1/alpha) exceeds this; its truncation error is then ~exp(-50).
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
    algebraic correction for large positive z.  A point is converged if its
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
# beta = 3, 4e-15 at 6), so beta is reduced to <= 3 first.
_TALBOT_LOG_S, _TALBOT_W = _talbot_rule(11.0, 4.05, 30)
_TALBOT_ULPS = 2.0
_TALBOT_DISC = 1e-14


def _contour(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """E_{a,b}(z) at every point of a block of z < 0.

    The trapezoidal rule on the Talbot contour inverts the Laplace transform
    s^(a-b) / (s^a - z) of t^(b-1) E_{a,b}(z t^a) at t = 1; for z < 0 and
    a < 1 it has no pole on the principal sheet, so there are no residues
    to add; at a = 1 the pole s = z lies inside the contour.  beta is first
    reduced to <= 3 (the rule's error grows with it) by E_{a,b}(z) =
    (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, each step dividing the error bound
    by |z|.  A point whose bound exceeds _TOL/4 of its value
    takes the extended-precision series (_series_mp) instead.
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
    # at most over 20000 points of [0.02, 7]), one each for - and /.  Two
    # steps at a subnormal |z| overflow; such points take the series
    with np.errstate(over="ignore"):
        for _ in range(steps):
            rg = recip_gamma(bb)
            err = (err + 6.0 * _EPS * (np.abs(val) + abs(rg))) / -z
            val = (val - rg) / z
            bb += a
        certified = err <= 0.25 * _TOL * np.abs(val)
    if not certified.all():
        val[~certified] = _series_mp(a, b, z[~certified])
    return val


def ml(alpha: float, z: float, beta: float = 1.0) -> float:
    """E_{alpha,beta}(z) at one real z: the one-point case of :func:`ml_array`."""
    return float(ml_array(alpha, z, beta))


def ml_array(alpha: float, z, beta: float = 1.0) -> np.ndarray:
    """E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha k + beta) at every
    element of the real z, as an array of z's shape.

    alpha lies in (0, 1] and beta is a positive real.  Each element takes one
    branch, and every branch runs once over all of its points, in blocks of
    bounded memory, truncating or certifying at the relative tolerance _TOL:

    * z = 0: 1/Gamma(beta).
    * 0 < z <= 40: the power series in binary64 with compensated summation.
    * z > 40: the exponential leading term z^((1-beta)/alpha) exp(z^(1/alpha))
      / alpha plus the algebraic tail below.
    * z < 0, alpha < 1 and |z|^(1/alpha) > 50: the algebraic asymptotic tail
      -sum_{k>=1} z^-k / Gamma(beta - alpha k), truncated at its smallest
      term; a point whose terms neither fall below _TOL of the sum nor pass
      their smallest within the tail's table takes the contour below.
    * every other z < 0, alpha = 1 included: the trapezoidal rule on a fixed
      Talbot contour for the inverse Laplace transform, beta first reduced
      to <= 3 by E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z.  A point whose
      error bound exceeds _TOL/4 of its value (near a zero of E; where E is
      far below the contour's terms, as E_1(-x) = exp(-x) from x ~ 8 on and
      E_{alpha,beta} for beta near 0; at tiny |z| after the reduction) takes
      the series in extended precision instead, scaled to the cancellation
      size |z|^(1/alpha).

    Raises ValueError for alpha or beta out of range or any element that is
    not finite, and OverflowError if z**(1/alpha) exceeds the floating range
    at any positive element.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be a positive real, got {beta}")
    a, b = alpha, beta
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
    # at alpha = 1 every algebraic term sits on a Gamma pole: no tail
    tail = (a < 1.0) & (np.log(-zn) > a * math.log(_TAIL_CUT))
    if tail.any():
        val, converged = _algebraic_tail(a, b, zn[tail])
        out[neg[tail]] = val
        tail[tail] = converged  # the contour takes the rest
    near = neg[~tail]
    for sl in _blocks(len(near), 6 * len(_TALBOT_W)):
        out[near[sl]] = _contour(a, b, flat[near[sl]])
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


def _fft_rows(kernel: np.ndarray, x: np.ndarray, L: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the length-L circular convolution of kernel with every
    column of x (k, C), both zero-padded to L, by one rfft/irfft product.

    The kernel spectrum is formed once; the columns pass through the
    transforms in blocks whose temporaries fit _BLOCK_BYTES, sized before
    allocating.  The rows kept are exact up to rounding where the wrap of the
    linear convolution (its rows L and up) misses them.
    """
    kspec = np.fft.rfft(kernel, n=L)[:, None]
    out = np.empty((hi - lo, x.shape[1]))
    # a column's temporaries: its padded copy, spectrum and inverse, < 3L doubles
    for sl in _blocks(x.shape[1], 3 * L):
        spec = np.fft.rfft(x[:, sl], n=L, axis=0)
        spec *= kspec
        out[:, sl] = np.fft.irfft(spec, n=L, axis=0)[lo:hi]
    return out


def _causal_conv(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y[m] = sum_{j<=m} kernel[m-j] x[j] for m < len(x), column by column.

    x may carry any trailing shape; each column x[:, ...] is convolved with
    the same 1-d kernel.  Entries of kernel beyond len(x) are never used.
    Up to n = _DIRECT_ROWS rows each column is one direct np.convolve,
    O(n^2); above it every column is one rfft product of a power-of-two
    length L >= 2n - 1 (_fft_rows), O(n log n), so no row is wrapped.
    """
    n = x.shape[0]
    flat = x.reshape(n, -1)
    if n > _DIRECT_ROWS:
        L = 1 << (2 * n - 2).bit_length()
        return _fft_rows(kernel[:n], flat, L, 0, n).reshape(x.shape)
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
    kernel needs L entries; kernel[0] never enters.
    """
    k = x.shape[0]
    return _fft_rows(kernel[: k + n], x, k + n, k, k + n)


# _pl_weights sums its series from r = 2 on, where the terms fall by >= 2 each
# and 64 of them reach 2^-62 ~ 2e-19 of the sum
_PL_TERMS = 64


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


def _yosida_kernel_values(alpha: float, n: int, s: np.ndarray) -> np.ndarray:
    """k_n(s) = n * E_alpha(-n s^alpha) elementwise."""
    return n * ml_array(alpha, -n * (np.maximum(s, 0.0) ** alpha))


def _convolve_kn(f_vals: np.ndarray, alpha: float, n: int, grid: TimeGrid) -> np.ndarray:
    """(k_n * f)(t_m): composite 2-point Gauss per cell against linear f.

    k_n drops from n to O(1) over a layer of width ~ n^(-1/alpha); the cell
    adjacent to the diagonal is integrated on geometrically graded subcells so
    the layer is resolved on any grid.
    """
    M = grid.M
    dt = grid.dt
    gm, gp = _GAUSS2
    r = np.arange(1.0, M + 1.0)
    kp = _yosida_kernel_values(alpha, n, (r - gp) * dt)
    km = _yosida_kernel_values(alpha, n, (r - gm) * dt)
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
    kvals = _yosida_kernel_values(alpha, n, snod)
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
