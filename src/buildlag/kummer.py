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

Ratios of two M values never leave log space, so quantities like psi''/psi'
are finite even when each M alone would overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

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


def _check_args(a: float, b: float, z: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"need a > 0 and b > 0, got a={a}, b={b}")
    if not (z >= 0.0 and math.isfinite(z)):
        raise ValueError(f"need finite z >= 0, got z={z}")


def _series(a: float, b: float, z: float) -> float:
    """Direct Taylor sum with Kahan compensation.  All terms positive."""
    term = 1.0
    total = 1.0
    comp = 0.0
    k = 0
    while True:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        if term < 1e-17 * total and k > z:
            return total
        if k > 200_000:  # unreachable for z <= Z_SWITCH; guard anyway
            raise NumericsError(f"series for M({a},{b},{z}) did not converge")


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) for a finite 1-D array, with the arithmetic of
    scipy.special.logsumexp (so results match it bit for bit) but without
    its general-purpose argument handling, which dominates at this size:
    the terms equal to the maximum are counted apart and the rest summed
    after shifting by it."""
    top = np.max(x)
    at_top = x == top
    count = np.float64(np.count_nonzero(at_top))
    rest = np.sum(np.exp(np.where(at_top, -np.inf, x) - top))
    if rest != 0.0:
        rest = rest / count
    return float(np.log1p(rest) + np.log(count) + top)


def _series_log(a: float, b: float, z: float) -> float:
    """log M via cumulative log term ratios and logsumexp.

    Cost is O(s_peak) where the term peak solves (a+s)z = (b+s)(s+1);
    roughly max(z - b, sqrt(z)) terms.
    """
    coef = b + 1.0 - z
    disc = coef * coef + 4.0 * (a * z - b)
    s_peak = 0.0 if disc < 0.0 else max(0.0, 0.5 * (-coef + math.sqrt(disc)))
    n = int(s_peak + 14.0 * math.sqrt(s_peak + 30.0)) + 60
    logz = math.log(z)
    while True:
        s = np.arange(n, dtype=float)
        logratio = np.log(a + s) + logz - np.log(b + s) - np.log1p(s)
        logterms = np.concatenate(([0.0], np.cumsum(logratio)))
        if logterms[-1] < logterms.max() - 46.0:
            return _logsumexp(logterms)
        n *= 2
        if n > 100_000_000:
            raise NumericsError(f"log-series for M({a},{b},{z}) did not converge")


def _asymptotic_log(a: float, b: float, z: float) -> float | None:
    """log of the large-z form, truncated at the smallest term.

    Returns None when the optimally truncated tail cannot reach ~1e-11
    relative accuracy (e.g. b - a comparable to z), so the caller falls back
    to the exact log-series.
    """
    v = 1.0
    total = 1.0
    prev = math.inf
    smallest = 1.0
    for k in range(400):
        v *= (b - a + k) * (1.0 - a + k) / ((k + 1.0) * z)
        size = abs(v)
        if size >= prev:
            break
        total += v
        prev = smallest = size
        if size < 1e-17 * abs(total):
            break
    if total <= 0.0 or smallest > 1e-11 * abs(total):
        return None
    return z + (a - b) * math.log(z) + gammaln(b) - gammaln(a) + math.log(total)


def kummer_m_log(a: float, b: float, z: float) -> float:
    """log M(a, b, z), finite for any z where M itself may overflow."""
    _check_args(a, b, z)
    if z == 0.0:
        return 0.0
    if z < Z_SWITCH:
        return math.log(_series(a, b, z))
    # first term of the asymptotic correction sum must already be small
    if abs((b - a) * (1.0 - a)) < 0.25 * z:
        out = _asymptotic_log(a, b, z)
        if out is not None:
            return out
    return _series_log(a, b, z)


def kummer_m(a: float, b: float, z: float) -> float:
    """M(a, b, z) for a, b > 0 and z >= 0.  Strictly positive.

    Raises OverflowError when the value exceeds the float64 range, rather
    than saturating to inf.
    """
    _check_args(a, b, z)
    if z == 0.0:
        return 1.0
    if z < Z_SWITCH:
        return _series(a, b, z)
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


def _cir_abx(model: CIR, rho: float, d: float) -> tuple[float, float, float]:
    a = rho / model.gamma
    b = 2.0 * model.gamma * model.delta / model.sigma**2
    x = 2.0 * model.gamma * d / model.sigma**2
    return a, b, x


def psi_ratio_second(model: CIR, rho: float, d: float) -> float:
    """psi''(d) / psi'(d) for the square-root model.

    Equals (2 gamma / sigma^2) * ((1 + rho/gamma) / (1 + 2 gamma delta / sigma^2))
    times M(2 + rho/gamma, 2 + 2 gamma delta/sigma^2, x) /
          M(1 + rho/gamma, 1 + 2 gamma delta/sigma^2, x)
    at x = 2 gamma d / sigma^2; the ratio is formed in log space.  Finite and
    positive for all d > 0, continuous as d -> 0.
    """
    validate(model, rho)
    if not d > 0.0:
        raise DomainError(f"need d > 0, got d={d}")
    a, b, x = _cir_abx(model, rho, d)
    ratio = math.exp(kummer_m_log(a + 2.0, b + 2.0, x) - kummer_m_log(a + 1.0, b + 1.0, x))
    out = (2.0 * model.gamma / model.sigma**2) * ((a + 1.0) / (b + 1.0)) * ratio
    if not (out > 0.0 and math.isfinite(out)):
        raise NumericsError(f"psi''/psi' evaluation failed at d={d}: {out}")
    return out


def psi_over_psi_prime(model: CIR, rho: float, d: float) -> float:
    """psi(d) / psi'(d): starts at gamma delta / rho as d -> 0 (psi(0) = 1,
    psi'(0) = rho/(gamma delta)) and decreases toward sigma^2 / (2 gamma)."""
    validate(model, rho)
    if not d > 0.0:
        raise DomainError(f"need d > 0, got d={d}")
    a, b, x = _cir_abx(model, rho, d)
    ratio = math.exp(kummer_m_log(a, b, x) - kummer_m_log(a + 1.0, b + 1.0, x))
    out = (model.gamma * model.delta / rho) * ratio
    if not (out > 0.0 and math.isfinite(out)):
        raise NumericsError(f"psi/psi' evaluation failed at d={d}: {out}")
    return out
