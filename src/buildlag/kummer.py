"""Confluent hypergeometric function of the first kind, M(a, b, z), and the
log-derivative ratios of the increasing fundamental solution for the
square-root model.

Only a > 0, b > 0 and z >= 0 are supported.  There M = sum_k t_k with
positive terms t_k = (a)_k / ((b)_k k!) z^k, and by DLMF 13.3.15 the same
terms give M' = sum_k w1_k t_k and M'' = sum_k w2_k t_k, with
w1_k = (a+k)/(b+k) and w2_k = w1_k (a+k+1)/(b+k+1).  `_moments` sums this
one sequence for one (a, b) over an array of z, and returns per point a log
scale s and positive sums with (M, M', M'') = e^s (m0, m1, m2).  So
log M = s + log m0, and a ratio such as M''/M' = m2/m1 is a quotient of
positive sums, free of log Gamma, e^z and differences of logs.  Regimes:

  * z < Z_SWITCH: the three sums directly (s = 0), Kahan-compensated.
  * z >= Z_SWITCH, the large-z form (DLMF 13.7.2): M^(j) = (a)_j/(b)_j
    M(a+j, b+j, z) ~ e^s S(a+j, b+j, z) for j = 0, 1, 2, with the one scale
    s = log(Gamma(b)/Gamma(a) e^z z^(a-b)) and S(a, b, z) = sum_k (b-a)_k
    (1-a)_k / (k! z^k) truncated at its smallest term.  The form drops the
    expansion's algebraic part, about Gamma(a+j)/Gamma(b-a) e^(-z)
    z^(b-2a-j) of the part kept; it is tried only where that is below 1e-17
    for each j and the first correction |(b-a)(1-a)|/z is below 1/4.
  * the log-series: the terms in a window around the peak term p, about
    +-14 sqrt(p) wide and widened until both ends are below e^-46 of the
    peak, as cumulative sums of log term ratios; s is the log of the peak
    term (the terms below the window enter only through one pairwise sum of
    log ratios), and m the three weighted sums of e^(log t_k - s).  Exact
    for any z and b, at O(sqrt p) terms per point, but summed one point at
    a time.

A point that a fast regime cannot finish (a Taylor sum past the float
range; a large-z sum that is not positive or whose smallest term exceeds
1e-15 relative) comes back nan and goes to the log-series, as does every
z >= Z_SWITCH the large-z form is not tried on.  For the regimes see
Pearson, Olver & Porter, "Numerical methods for the computation of the
confluent and Gauss hypergeometric functions", Numer. Algorithms 2017.

The Taylor and large-z sums are elementwise recurrences over full-length
arrays with one live mask, each sum frozen once its own tests stop it; the
log-series reduces per point over its own window; log z, the large-z
log1p and the final log use `math`.  So each point of an array call gets
exactly the arithmetic of a one-point call.
"""

from __future__ import annotations

import math

import numpy as np

from .demand import CIR, validate
from .errors import DomainError, NumericsError

__all__ = [
    "Z_SWITCH",
    "kummer_m_log",
    "psi_ratio_second",
    "psi_over_psi_prime",
]

Z_SWITCH = 50.0

_MAX_TERMS = 100_000_000  # the log-series' cap on terms per point


def _check_args(a: float, b: float, z) -> None:
    """Reject a, b <= 0 and any z (scalar or array) that is negative or
    not finite."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"need a > 0 and b > 0, got a={a}, b={b}")
    z = np.asarray(z, dtype=float)
    bad = ~((z >= 0.0) & np.isfinite(z))
    if bad.any():
        raise ValueError(f"need finite z >= 0, got z={z[bad].flat[0]}")


def _weights(a: float, b: float, k) -> np.ndarray:
    """Rows 1, w1_k and w2_k: the weights of the term t_k in M, M' and M''
    (DLMF 13.3.15), for a number k or a 1-D float array of them."""
    w1 = (a + k) / (b + k)
    return np.stack([np.ones_like(w1), w1, w1 * (a + k + 1.0) / (b + k + 1.0)])


@np.errstate(over="ignore", invalid="ignore")  # a sum past the float range
def _taylor(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """The sums m0, m1, m2 (rows) of t_k, w1_k t_k and w2_k t_k, each with
    Kahan compensation; `live` marks the points still summing, and only
    their sums move.  nan where a sum leaves the float range, so the caller
    falls back to the log-series there."""
    term = np.ones_like(z)
    total = _weights(a, b, 0.0)[:, None] * term
    comp = np.zeros_like(total)
    live = np.ones(z.shape, dtype=bool)
    k = 0
    while live.any():
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        k += 1
        part = _weights(a, b, k)[:, None] * term
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = np.where(live, t, total)
        # not >=: a sum past the float range (inf, then nan) stops too
        live &= (part >= 1e-17 * total).any(axis=0) | (k <= z)
        # unreachable for z < Z_SWITCH: a sum still in the float range peaks
        # before k ~ 710 and ends by about twice that; guard anyway
        if live.any() and k > 200_000:
            raise NumericsError(f"series for M({a},{b},{z[live][0]}) did not converge")
    return np.where(np.isfinite(total).all(axis=0), total, np.nan)


@np.errstate(over="ignore", invalid="ignore")  # on sums already stopped
def _asymptotic_log(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, m): the large-z scale s and the sums m_j = S(a+j, b+j, z), each
    truncated at its smallest term; `live` marks the sums still running.
    nan where the form is not tried, or where a sum is not positive or does
    not reach 1e-15 relative (e.g. b - a comparable to z)."""
    lz = np.array([math.log(x) for x in z.tolist()])
    if b < 50.0:
        s = z + (a - b) * lz + math.lgamma(b) - math.lgamma(a)
    else:
        # the same s with lgamma(b) by Stirling's series (next term below
        # 1e-18), so that z - b and (a - b) log(z/b) do not cancel terms of
        # size b
        inv2 = 1.0 / (b * b)
        stirling = (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2) * inv2) / b
        rest = (a - 0.5) * math.log(b) + 0.5 * math.log(2.0 * math.pi) + stirling - math.lgamma(a)
        gap_log = np.array([math.log1p(x) for x in ((z - b) / b).tolist()])
        s = (z - b) + (a - b) * gap_log + rest
    # log of the dropped part relative to the kept one; 1/Gamma(b - a)
    # vanishes at its poles, and the dropped part with it
    j = np.arange(3.0)[:, None]
    gap = b - a
    inv_gamma_gap = -math.inf if gap <= 0.0 and gap == math.floor(gap) else -math.lgamma(gap)
    lg_aj = np.array([[math.lgamma(a + i)] for i in range(3)])
    dropped = lg_aj + inv_gamma_gap - z + (gap - a - j) * lz
    tried = (abs(gap * (1.0 - a)) < 0.25 * z) & (dropped < math.log(1e-17)).all(axis=0)
    v = np.ones((3, z.size))
    total = np.ones_like(v)
    smallest = np.full_like(v, np.inf)  # the last term added
    live = np.repeat(tried[None], 3, axis=0)
    for k in range(400):
        if not live.any():
            break
        v *= (gap + k) * (1.0 - a - j + k) / ((k + 1.0) * z)
        size = np.abs(v)
        live &= ~(size >= smallest)  # a grown term is not added
        total = np.where(live, total + v, total)
        smallest = np.where(live, size, smallest)
        live &= ~(size < 1e-17 * np.abs(total))
    bad = (total <= 0.0) | (smallest > 1e-15 * np.abs(total))  # untried: smallest inf
    return s, np.where(bad.any(axis=0), np.nan, total)


def _series_log(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, m) by the log-series, point by point, over a window of terms
    around the peak term p, which solves (a+p)z = (b+p)(p+1); p is roughly
    max(z - b, sqrt(z)).  The window is k = lo..hi, with half-width
    W = 14 sqrt(p+30) + 60, lo = max(0, floor(p - W)) and hi = floor(p + W).
    Its log terms l_k are cumulative sums of the log term ratios, starting
    from 0 at lo; L is their maximum.  A point is redone with W doubled
    unless both end terms are below L - 46 (a window that starts at 0 has no
    terms below it).  Then s = sum(D_k, k < lo) + lo log z + L, where
    D_k = log(a+k) - log(b+k) - log(1+k), and m is the weighted sums of
    e^(l_k - L) over the window.  s uses numpy's pairwise sum: a running sum
    would carry an error that grows with lo.  So a point costs O(sqrt p)
    logs, exps and adds in the window, and one pairwise sum of lo table
    entries, where a sum from k = 0 would cost O(p).  The logs of a+k, b+k
    and 1+k, the D_k and the weights come from one table, sized for the
    widest window and rebuilt only when a redo outgrows it."""
    zs = z.tolist()
    peaks, widths = [], []
    for zi in zs:
        coef = b + 1.0 - zi
        disc = coef * coef + 4.0 * (a * zi - b)
        peak = 0.0 if disc < 0.0 else max(0.0, 0.5 * (-coef + math.sqrt(disc)))
        width = 14.0 * math.sqrt(peak + 30.0) + 60.0
        if not peak + width <= _MAX_TERMS:  # nan and inf too, before any table
            raise NumericsError(f"log-series for M({a},{b},{zi}) needs more than "
                                f"{_MAX_TERMS} terms")
        peaks.append(peak)
        widths.append(width)
    widest = max(math.floor(p + w) for p, w in zip(peaks, widths))
    size = 0
    top = np.empty_like(z)
    out = np.empty((3, z.size))
    for i, (zi, peak, width) in enumerate(zip(zs, peaks, widths)):
        logz = math.log(zi)
        while True:
            lo, hi = max(0, math.floor(peak - width)), math.floor(peak + width)
            if hi > size:
                size = max(hi, widest)
                k = np.arange(size + 1, dtype=float)
                log_a, log_b, log_1 = np.log(a + k), np.log(b + k), np.log1p(k)
                log_d = (log_a - log_b) - log_1
                weights = _weights(a, b, k)
                buf = np.zeros(size + 1)  # buf[0]: log of the window's first term
                scaled = np.empty((3, size + 1))  # e^(l_k - L) times each weight
            n = hi - lo + 1
            logterms = buf[:n]
            logratio = np.add(log_a[lo:hi], logz, out=logterms[1:])
            logratio -= log_b[lo:hi]
            logratio -= log_1[lo:hi]
            logratio.cumsum(out=logratio)
            most = logterms.max()
            if logterms[-1] < most - 46.0 and (lo == 0 or most > 46.0):
                top[i] = log_d[:lo].sum() + lo * logz + most
                e = np.subtract(logterms, most, out=scaled[0, :n])
                np.exp(e, out=e)
                np.multiply(weights[1:, lo:hi + 1], e, out=scaled[1:, :n])
                out[:, i] = scaled[:, :n].sum(axis=1)
                break
            width *= 2.0
            if peak + width > _MAX_TERMS:
                raise NumericsError(f"log-series for M({a},{b},{zi}) did not converge")
    return top, out


def _moments(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, m) over a 1-D array of finite z >= 0 (checked by the caller):
    M, M' and M'' of (a, b) at z[i] are e^s[i] times m[0, i], m[1, i] and
    m[2, i], each point by the regime a one-point call would take."""
    s = np.zeros_like(z)
    m = np.empty((3, z.size))
    small = z < Z_SWITCH
    m[:, small] = _taylor(a, b, z[small])
    s[~small], m[:, ~small] = _asymptotic_log(a, b, z[~small])
    rest = np.isnan(m[0])
    if rest.any():
        s[rest], m[:, rest] = _series_log(a, b, z[rest])
    return s, m


def _m_log(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """log M(a, b, z) over a 1-D array of finite z >= 0."""
    s, m = _moments(a, b, z)
    return np.array([si + math.log(mi) for si, mi in zip(s.tolist(), m[0].tolist())])


def kummer_m_log(a: float, b: float, z: float) -> float:
    """log M(a, b, z), finite for any z where M itself may overflow."""
    _check_args(a, b, z)
    return float(_m_log(a, b, np.array([z], dtype=float))[0])


# ---------------------------------------------------------------------------
# Ratios for the square-root model's increasing solution
#
# psi(d) = M(rho/gamma, 2 gamma delta / sigma^2, 2 gamma d / sigma^2)
# solves rho phi - gamma (delta - d) phi' - (sigma^2 d / 2) phi'' = 0 and is
# increasing and convex on (0, inf).
# ---------------------------------------------------------------------------


def _psi_sums(model: CIR, rho: float, d) -> tuple[float, np.ndarray]:
    """(c, m) at levels d > 0 (scalar or array), c = 2 gamma / sigma^2: psi,
    psi'/c and psi''/c^2 at d are one positive factor times m[0], m[1] and
    m[2], each of d's shape.  NumericsError where d is finite but c d is not."""
    validate(model, rho)
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0.0):
        raise DomainError(f"need d > 0, got d={d[~(d > 0.0)].flat[0]}")
    a = rho / model.gamma
    b = 2.0 * model.gamma * model.delta / model.sigma**2
    with np.errstate(over="ignore"):
        x = 2.0 * model.gamma * d / model.sigma**2
    big = np.isfinite(d) & ~np.isfinite(x)
    if big.any():
        raise NumericsError(f"2 gamma d / sigma^2 leaves the float range at d={d[big].flat[0]}")
    _check_args(a, b, x)
    _, m = _moments(a, b, x.reshape(-1))
    return 2.0 * model.gamma / model.sigma**2, m.reshape((3,) + d.shape)


def _checked(out: np.ndarray, d, what: str):
    """out as returned to the caller (a float for scalar d), after checking
    that every value is finite and positive."""
    bad = ~((out > 0.0) & np.isfinite(out))
    if bad.any():
        raise NumericsError(
            f"{what} evaluation failed at d={np.asarray(d)[bad].flat[0]}: {out[bad].flat[0]}")
    return out if out.ndim else float(out)


def psi_ratio_second(model: CIR, rho: float, d):
    """psi''(d) / psi'(d) = c M''(x) / M'(x), with c = 2 gamma / sigma^2 and
    x = c d: finite and positive for all d > 0, continuous as d -> 0 and
    tending to c as d -> inf.  Vectorized in d."""
    c, m = _psi_sums(model, rho, d)
    return _checked(c * m[2] / m[1], d, "psi''/psi'")


def psi_over_psi_prime(model: CIR, rho: float, d):
    """psi(d) / psi'(d) = M(x) / (c M'(x)): starts at gamma delta / rho as
    d -> 0 (psi(0) = 1, psi'(0) = rho/(gamma delta)) and decreases toward
    sigma^2 / (2 gamma).  Vectorized in d."""
    c, m = _psi_sums(model, rho, d)
    return _checked(m[0] / (c * m[1]), d, "psi/psi'")
