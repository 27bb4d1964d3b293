"""Confluent hypergeometric function of the first kind, M(a, b, z), and the
log-derivative ratios of the increasing fundamental solution for the
square-root model.

Only the parameter region a > 0, b > 0, z >= 0 is supported.  There the
Taylor series

    M(a, b, z) = sum_s (a)_s / ((b)_s s!) z^s

has strictly positive terms, so it never cancels; what fails at large z is
the floating-point range, not the summation.  Strategy:

  * z <= Z_SWITCH: direct compensated summation (relative error ~1e-14).
  * z >  Z_SWITCH: the large-z expansion
        M(a, b, z) ~ Gamma(b)/Gamma(a) e^z z^(a-b)
                     * sum_s (b-a)_s (1-a)_s / (s! z^s)
    evaluated in log space and truncated at its smallest term, when that
    truncation error is small enough; otherwise the positive-term series is
    summed in log space (cumulative log-ratios + logsumexp), which stays
    accurate for any z and any b, including b in the thousands where the
    plain asymptotic form is useless.

For the regimes see Pearson, Olver & Porter, "Numerical methods for the
computation of the confluent and Gauss hypergeometric functions", Numer.
Algorithms 2017.

All three regimes run on a whole array of z for one (a, b) (`_m_log`); the
scalar functions are one-point calls to it.  The Taylor and asymptotic sums
are elementwise recurrences over the points still running, each point
stopping by its own test, so every point gets exactly the arithmetic of a
one-point call.  The log-series keeps its per-point reductions (logsumexp
sums pairwise, so its grouping depends on the term count), but reads
log(a+s), log(b+s) and log1p(s) from one table per call.  log z, the final
log and the ratios' exp use `math` once per point.

The large-z prefactor's log Gamma is `_lgamma`, a transcription of Cephes
`lgam` (S. L. Moshier, 1989), the routine behind scipy.special.gammaln, for
x > 0 only.  It equals gammaln bit for bit (tests/test_kummer.py checks every
branch), so importing this module loads numpy and the standard library only.

Ratios of two M values never leave log space, so quantities like psi''/psi'
are finite even when each M alone would overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .demand import CIR, validate
from .errors import DomainError, NumericsError

__all__ = [
    "Z_SWITCH",
    "kummer_m",
    "kummer_m_log",
    "kummer_m_prime",
    "psi_ratio_second",
    "psi_over_psi_prime",
]

Z_SWITCH = 50.0

_LOG_MAX = math.log(np.finfo(np.float64).max)  # ~709.78
_MAX_TERMS = 100_000_000  # the log-series' cap on terms per point

# Cephes lgam: log(2 pi)/2, the Stirling correction in 1/x^2 (A), and the
# rational approximation on [2, 3) (B over C, C with a leading 1)
_LS2PI = 0.91893853320467274178
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def _horner(x: float, coef, lead: float = 0.0) -> float:
    """sum of coef[i] x^(n-1-i), plus lead x^n, by Horner's rule in Cephes'
    order (polevl for lead 0, p1evl for lead 1)."""
    ans = lead
    for c in coef:
        ans = ans * x + c
    return ans


def _lgamma(x: float) -> float:
    """log Gamma(x) for x > 0, with the arithmetic of Cephes lgam."""
    if x < 13.0:
        # shift x into [2, 3), collecting the factors in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _horner(x, _B) / _horner(x, _C, 1.0)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _horner(p, _A) / x


def _check_args(a: float, b: float, z) -> None:
    """Reject a, b <= 0 and any z (scalar or array) that is negative or
    not finite."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"need a > 0 and b > 0, got a={a}, b={b}")
    z = np.asarray(z, dtype=float)
    bad = ~((z >= 0.0) & np.isfinite(z))
    if bad.any():
        raise ValueError(f"need finite z >= 0, got z={z[bad].flat[0]}")


def _taylor(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Direct Taylor sums for positive z, with Kahan compensation.  All
    terms positive.  The arrays hold only the points still summing."""
    out = np.empty_like(z)
    idx = np.arange(z.size)
    term = np.ones_like(z)
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    k = 0
    while idx.size:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        done = (term < 1e-17 * total) & (k > z)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, z, term, total, comp = idx[keep], z[keep], term[keep], total[keep], comp[keep]
        if idx.size and k > 200_000:  # unreachable for z <= Z_SWITCH; guard anyway
            raise NumericsError(f"series for M({a},{b},{z[0]}) did not converge")
    return out


def _asymptotic_log(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """log of the large-z form, each point truncated at its smallest term.

    nan where the optimally truncated tail cannot reach ~1e-11 relative
    accuracy (e.g. b - a comparable to z), so the caller falls back to the
    exact log-series there.
    """
    totals = np.empty_like(z)
    smallests = np.empty_like(z)
    idx = np.arange(z.size)
    zs = z
    v = np.ones_like(z)
    total = np.ones_like(z)
    prev = np.full_like(z, np.inf)
    smallest = np.ones_like(z)

    def finish(stop):
        nonlocal idx, zs, v, total, prev, smallest
        if stop.any():
            totals[idx[stop]] = total[stop]
            smallests[idx[stop]] = smallest[stop]
            keep = ~stop
            idx, zs, v, total, prev, smallest = (
                idx[keep], zs[keep], v[keep], total[keep], prev[keep], smallest[keep])

    for k in range(400):
        if not idx.size:
            break
        v *= (b - a + k) * (1.0 - a + k) / ((k + 1.0) * zs)
        size = np.abs(v)
        grew = size >= prev
        finish(grew)
        size = size[~grew]
        total += v
        prev = smallest = size
        finish(size < 1e-17 * np.abs(total))
    finish(np.ones(idx.size, dtype=bool))

    out = np.full_like(z, np.nan)
    ok = ~((totals <= 0.0) | (smallests > 1e-11 * np.abs(totals)))
    gb, ga = _lgamma(b), _lgamma(a)
    for i, zi, t in zip(np.flatnonzero(ok), z[ok].tolist(), totals[ok].tolist()):
        out[i] = zi + (a - b) * math.log(zi) + gb - ga + math.log(t)
    return out


def _logsumexp(x: np.ndarray, top: float) -> float:
    """log(sum(exp(x))) for a finite 1-D array whose maximum is `top`, with
    the arithmetic of scipy.special.logsumexp (so results match it bit for
    bit) but without its general-purpose argument handling, which dominates
    at this size: the terms equal to the maximum are counted apart and the
    rest summed after shifting by it."""
    at_top = x == top
    count = np.float64(np.count_nonzero(at_top))
    shifted = x - top
    np.exp(shifted, out=shifted)
    shifted[at_top] = 0.0  # exp(-inf): the maximum is counted apart
    rest = shifted.sum()
    if rest != 0.0:
        rest = rest / count
    return float(np.log1p(rest) + np.log(count) + top)


def _series_log(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """log M via cumulative log term ratios and logsumexp, point by point.

    Cost is O(s_peak) per point, where the term peak solves
    (a+s)z = (b+s)(s+1); roughly max(z - b, sqrt(z)) terms.  A point whose
    last term is not yet negligible is redone with twice the terms.  The
    logs of a+s, b+s and 1+s come from one table, sized for the longest
    sum and rebuilt only when a redo outgrows it.
    """
    zs = z.tolist()
    starts = []
    for zi in zs:
        coef = b + 1.0 - zi
        disc = coef * coef + 4.0 * (a * zi - b)
        s_peak = 0.0 if disc < 0.0 else max(0.0, 0.5 * (-coef + math.sqrt(disc)))
        terms = s_peak + 14.0 * math.sqrt(s_peak + 30.0)
        if not terms + 60.0 <= _MAX_TERMS:  # nan and inf too, before any table
            raise NumericsError(f"log-series for M({a},{b},{zi}) needs more than "
                                f"{_MAX_TERMS} terms")
        starts.append(int(terms) + 60)
    longest = max(starts)
    size = 0
    out = np.empty_like(z)
    for i, (zi, n) in enumerate(zip(zs, starts)):
        logz = math.log(zi)
        while True:
            if n > size:
                size = max(n, longest)
                s = np.arange(size, dtype=float)
                log_a, log_b, log_1 = np.log(a + s), np.log(b + s), np.log1p(s)
                buf = np.zeros(size + 1)  # buf[0]: log of the first term
            logterms = buf[:n + 1]
            logratio = np.add(log_a[:n], logz, out=logterms[1:])
            logratio -= log_b[:n]
            logratio -= log_1[:n]
            logratio.cumsum(out=logratio)
            top = logterms.max()
            if logterms[-1] < top - 46.0:
                out[i] = _logsumexp(logterms, top)
                break
            n *= 2
            if n > _MAX_TERMS:
                raise NumericsError(f"log-series for M({a},{b},{zi}) did not converge")
    return out


def _m_log(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """log M(a, b, z) over a 1-D array of finite z >= 0, each point by the
    regime a one-point call would take (z is checked by the caller)."""
    out = np.zeros_like(z)
    taylor = (z > 0.0) & (z < Z_SWITCH)
    if taylor.any():
        out[taylor] = [math.log(t) for t in _taylor(a, b, z[taylor]).tolist()]
    large = z >= Z_SWITCH
    # first term of the asymptotic correction sum must already be small
    tried = large & (abs((b - a) * (1.0 - a)) < 0.25 * z)
    if tried.any():
        out[tried] = _asymptotic_log(a, b, z[tried])
    rest = large & (~tried | np.isnan(out))
    if rest.any():
        out[rest] = _series_log(a, b, z[rest])
    return out


def kummer_m_log(a: float, b: float, z: float) -> float:
    """log M(a, b, z), finite for any z where M itself may overflow."""
    _check_args(a, b, z)
    return float(_m_log(a, b, np.array([z], dtype=float))[0])


def kummer_m(a: float, b: float, z: float) -> float:
    """M(a, b, z) for a, b > 0 and z >= 0.  Strictly positive.

    Raises OverflowError when the value exceeds the float64 range, rather
    than saturating to inf.
    """
    _check_args(a, b, z)
    if z == 0.0:
        return 1.0
    if z < Z_SWITCH:
        return float(_taylor(a, b, np.array([z], dtype=float))[0])
    lv = kummer_m_log(a, b, z)
    if lv > _LOG_MAX:
        raise OverflowError(
            f"M({a}, {b}, {z}) exceeds float64 range (log value {lv:.2f})"
        )
    return math.exp(lv)


def kummer_m_prime(a: float, b: float, z: float) -> float:
    """dM/dz via the contiguous relation M'(a,b,z) = (a/b) M(a+1, b+1, z)."""
    _check_args(a, b, z)
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z)


# ---------------------------------------------------------------------------
# Ratios for the square-root model's increasing solution
#
# psi(d) = M(rho/gamma, 2 gamma delta / sigma^2, 2 gamma d / sigma^2)
# solves rho phi - gamma (delta - d) phi' - (sigma^2 d / 2) phi'' = 0 and is
# increasing and convex on (0, inf).
# ---------------------------------------------------------------------------


def _cir_abx(model: CIR, rho: float, d):
    """Validated (a, b, x) of psi at demand levels d > 0 (scalar or array)."""
    validate(model, rho)
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0.0):
        raise DomainError(f"need d > 0, got d={d[~(d > 0.0)].flat[0]}")
    a = rho / model.gamma
    b = 2.0 * model.gamma * model.delta / model.sigma**2
    x = 2.0 * model.gamma * d / model.sigma**2
    return a, b, x


def _m_ratio(a1: float, b1: float, a0: float, b0: float, x: np.ndarray) -> np.ndarray:
    """M(a1, b1, x) / M(a0, b0, x) at each x, formed in log space."""
    _check_args(a1, b1, x)
    _check_args(a0, b0, x)
    flat = x.reshape(-1)
    diff = _m_log(a1, b1, flat) - _m_log(a0, b0, flat)
    return np.array([math.exp(v) for v in diff.tolist()]).reshape(x.shape)


def _checked(out: np.ndarray, d, what: str):
    """out as returned to the caller (a float for scalar d), after checking
    that every value is finite and positive."""
    bad = ~((out > 0.0) & np.isfinite(out))
    if bad.any():
        raise NumericsError(
            f"{what} evaluation failed at d={np.asarray(d)[bad].flat[0]}: {out[bad].flat[0]}")
    return out if out.ndim else float(out)


def psi_ratio_second(model: CIR, rho: float, d):
    """psi''(d) / psi'(d) for the square-root model.  Vectorized in d.

    Equals (2 gamma / sigma^2) * ((1 + rho/gamma) / (1 + 2 gamma delta / sigma^2))
    times M(2 + rho/gamma, 2 + 2 gamma delta/sigma^2, x) /
          M(1 + rho/gamma, 1 + 2 gamma delta/sigma^2, x)
    at x = 2 gamma d / sigma^2; the ratio is formed in log space.  Finite and
    positive for all d > 0, continuous as d -> 0.
    """
    a, b, x = _cir_abx(model, rho, d)
    ratio = _m_ratio(a + 2.0, b + 2.0, a + 1.0, b + 1.0, x)
    out = (2.0 * model.gamma / model.sigma**2) * ((a + 1.0) / (b + 1.0)) * ratio
    return _checked(out, d, "psi''/psi'")


def psi_over_psi_prime(model: CIR, rho: float, d):
    """psi(d) / psi'(d): starts at gamma delta / rho as d -> 0 (psi(0) = 1,
    psi'(0) = rho/(gamma delta)) and decreases toward sigma^2 / (2 gamma).
    Vectorized in d."""
    a, b, x = _cir_abx(model, rho, d)
    out = (model.gamma * model.delta / rho) * _m_ratio(a, b, a + 1.0, b + 1.0, x)
    return _checked(out, d, "psi/psi'")
