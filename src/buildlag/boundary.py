"""The optimal investment boundary and its bias decomposition.

A planner facing quadratic flow loss (K_t - D_t)^2 / 2, unit investment cost
q0, discount rate rho, and a fixed lag h between commitment and delivery,
commits capacity the first time demand pushes the threshold

    chat(d) = beta0(d) - b_rho - b_sigma(d)

above the level already committed.  The three pieces:

    beta0(d)   expected demand one lag ahead (chase the forecast)
    b_rho      q0 rho e^(rho h), cost of capital locked in during the lag
    b_sigma(d) precautionary markdown from irreversibility under uncertainty

For affine drift mu(d) = a d + b the markdown is

    b_sigma(d) = sigma(d)^2 / 2 * e^(a h) / (rho - a) * psi''(d) / psi'(d)

with psi the increasing solution of rho phi = mu phi' + sigma^2/2 phi''.
Closed forms are implemented per model; `generic_boundary` recomputes the
threshold from scratch by integrating the psi Riccati equation numerically
and is used as an independent cross-check, never as a fallback.  Its solver
is extrapolated implicit Euler on the standard library's `math` alone, at
rtol 1e-10 and atol 1e-13, so no process of the program loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .demand import (
    ABM,
    CIR,
    GBM,
    DemandModel,
    beta0,
    beta_resolvent,
    drift_affine,
    validate,
)
from .errors import DomainError, NumericsError, require_lag, require_nonnegative
from .kummer import psi_ratio_second

__all__ = [
    "BiasDecomposition",
    "Boundary",
    "gbm_constants",
    "abm_lambda",
    "cir_tangent",
    "cir_asymptote",
    "cir_kink",
    "generic_boundary",
]


@dataclass(frozen=True)
class BiasDecomposition:
    """chat(d) split into forecast minus the two biases: floats at a scalar
    demand level, arrays (but a float discounting_bias) at an array."""

    beta0: float
    discounting_bias: float
    precautionary_bias: float

    @property
    def total(self) -> float:
        return self.beta0 - self.discounting_bias - self.precautionary_bias


def abm_lambda(mu: float, sigma: float, rho: float) -> float:
    """Positive root of rho - mu*l - sigma^2 l^2 / 2 = 0 (exponent of psi)."""
    root = math.sqrt(mu * mu + 2.0 * rho * sigma * sigma)
    # avoid cancellation when mu > 0 dominates the root
    if mu >= 0.0:
        return 2.0 * rho / (root + mu)
    return (root - mu) / sigma**2


def gbm_constants(mu: float, sigma: float, rho: float, h: float) -> tuple[float, float]:
    """Exponent m of psi(d) = d^m and the slope A of chat(d) = A d - b_rho.

    m is the positive root of rho - mu*m - sigma^2 m (m-1) / 2 = 0; the
    admissibility condition rho > 2 mu + sigma^2 is equivalent to m > 2.
    A = e^(mu h) (2 rho - mu + sigma^2/2 - R) / (2 (rho - mu)) with
    R = sqrt((mu - sigma^2/2)^2 + 2 rho sigma^2), rearranged below into a
    cancellation-free form (exact in the sigma -> 0 limit).
    """
    validate(GBM(mu, sigma), rho)
    require_nonnegative(h=h)
    s2 = sigma * sigma
    half = mu - 0.5 * s2
    root = math.sqrt(half * half + 2.0 * rho * s2)
    m = 2.0 * rho / (root + half) if half >= 0.0 else (root - half) / s2
    A = 2.0 * rho * math.exp(mu * h) / (2.0 * rho - mu + 0.5 * s2 + root)
    return m, A


def _discounting_bias(rho: float, h: float, q0: float) -> float:
    """b_rho = q0 rho e^(rho h)."""
    return q0 * rho * math.exp(rho * h)


# Boundary.table's node count, and the largest grid the psi-ratio cache
# serves
_RATIO_CACHE_POINTS = 4097


class Boundary:
    """Threshold rule d -> least committed capacity, for one model and
    one (rho, h, q0).

    eval() and decompose() accept scalars or arrays.  decompose() returns
    the three-way split and eval() is decompose(d).total, so eval(d) ==
    decompose(d).total bit for bit by construction.
    """

    def __init__(self, model: DemandModel, rho: float, h: float, q0: float):
        validate(model, rho)
        require_nonnegative(h=h, q0=q0)
        require_lag("Boundary", rho, h)
        self.model = model
        self.rho = rho
        self.h = h
        self.q0 = q0
        self.discounting_bias = _discounting_bias(rho, h, q0)
        if isinstance(model, ABM):
            self.lam = abm_lambda(model.mu, model.sigma, rho)
            self._abm_bias = 0.5 * model.sigma**2 * self.lam / rho
        elif isinstance(model, GBM):
            self.m, self.A = gbm_constants(model.mu, model.sigma, rho, h)
            # b_sigma slope: (e^(mu h) - A) computed via the m form
            self._bs_slope = (
                0.5 * model.sigma**2 * math.exp(model.mu * h) * (self.m - 1.0)
                / (rho - model.mu)
            )

    def _check_domain(self, d) -> None:
        if not np.all(np.isfinite(d)):
            raise DomainError("demand level must be finite")
        if isinstance(self.model, GBM) and not np.all(np.asarray(d) > 0.0):
            raise DomainError("demand level must be positive for GBM")
        # d = 0 is allowed for CIR: the boundary extends continuously to the
        # origin (the precautionary term carries a factor d)
        if isinstance(self.model, CIR) and not np.all(np.asarray(d) >= 0.0):
            raise DomainError("demand level must be nonnegative for CIR")

    def precautionary(self, d):
        """b_sigma(d).  Vectorized in d."""
        d = np.asarray(d, dtype=float)
        self._check_domain(d)
        if isinstance(self.model, ABM):
            out = self._abm_bias + 0.0 * d
        elif isinstance(self.model, GBM):
            out = self._bs_slope * d
        else:
            g = self.model.gamma
            pref = 0.5 * self.model.sigma**2 * math.exp(-g * self.h) / (self.rho + g)
            flat = d.reshape(-1)
            ratios = np.zeros_like(flat)
            pos = flat > 0.0
            if pos.any():
                points = flat[pos]
                # a path matrix is evaluated without being kept
                ratios[pos] = (psi_ratio_second(self.model, self.rho, points)
                               if points.size > _RATIO_CACHE_POINTS
                               else _psi_ratios(self.model, self.rho, points.tobytes()))
            out = (pref * flat * ratios).reshape(d.shape)
        return out if out.ndim else float(out)

    def eval(self, d):
        """chat(d).  Vectorized in d."""
        return self.decompose(d).total

    def decompose(self, d) -> BiasDecomposition:
        """Three-way split of chat(d): floats for a scalar d, arrays for an
        array."""
        return BiasDecomposition(
            beta0=beta0(self.model, d, self.h),
            discounting_bias=self.discounting_bias,
            precautionary_bias=self.precautionary(d),
        )

    def table(self, d_lo: float, d_hi: float):
        """Piecewise-linear surrogate of eval on [d_lo, d_hi].

        For the square-root model each exact evaluation runs the Kummer
        function once, far too slow to repeat on every cell of a Monte
        Carlo path matrix; the surrogate evaluates the boundary at
        _RATIO_CACHE_POINTS equally spaced nodes and interpolates (linear
        extrapolation outside the range).  The nodes' psi''/psi' ratios come
        from the per-process psi-ratio cache, so a table rebuilt for the same
        nodes, at any h or q0, runs no Kummer function.  ABM/GBM boundaries
        are affine, so eval itself is returned.
        """
        if not isinstance(self.model, CIR):
            return self.eval
        if not (math.isfinite(d_hi) and d_hi > d_lo > 0.0):
            raise DomainError(f"need 0 < d_lo < d_hi < inf, got [{d_lo}, {d_hi}]")
        grid = np.linspace(d_lo, d_hi, _RATIO_CACHE_POINTS)
        vals = self.eval(grid)
        lo_slope = (vals[1] - vals[0]) / (grid[1] - grid[0])
        hi_slope = (vals[-1] - vals[-2]) / (grid[-1] - grid[-2])

        def interp(d):
            d = np.asarray(d, dtype=float)
            out = np.asarray(np.interp(d, grid, vals))
            below, above = d < grid[0], d > grid[-1]
            if below.any():
                out[below] = vals[0] + (d[below] - grid[0]) * lo_slope
            if above.any():
                out[above] = vals[-1] + (d[above] - grid[-1]) * hi_slope
            return out if out.ndim else float(out)

        return interp


@functools.lru_cache(maxsize=8)
def _psi_ratios(model: CIR, rho: float, d_bytes: bytes) -> np.ndarray:
    """psi''/psi' at the positive float64 points in d_bytes, evaluated once
    per process for each grid.  It involves neither h nor q0, so boundaries
    that differ only in those share it; shared, hence read-only."""
    out = psi_ratio_second(model, rho, np.frombuffer(d_bytes))
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Square-root model geometry: tangent at the origin, asymptote, kink
# ---------------------------------------------------------------------------


def _cir_args(model: CIR, rho: float, h: float, q0: float):
    validate(model, rho)
    require_nonnegative(h=h, q0=q0)
    return (model.gamma, model.delta, model.sigma, math.exp(-model.gamma * h),
            _discounting_bias(rho, h, q0))


def cir_tangent(model: CIR, rho: float, h: float, q0: float, d):
    """Tangent line of the square-root boundary at d -> 0."""
    g, dl, s, e, b_rho = _cir_args(model, rho, h, q0)
    slope = (g * dl / (g * dl + 0.5 * s * s)) * e
    return slope * np.asarray(d, dtype=float) + (1.0 - e) * dl - b_rho


def cir_asymptote(model: CIR, rho: float, h: float, q0: float, d):
    """Asymptote of the square-root boundary as d -> inf."""
    g, dl, s, e, b_rho = _cir_args(model, rho, h, q0)
    slope = (rho / (rho + g)) * e
    intercept = (1.0 - slope) * dl - (s * s / (2.0 * g)) * slope - b_rho
    return slope * np.asarray(d, dtype=float) + intercept


def cir_kink(model: CIR, rho: float, h: float, q0: float) -> tuple[float, float]:
    """Intersection of tangent and asymptote: the stylized 'kink' of the
    boundary sits at (delta + sigma^2/(2 gamma), delta - q0 rho e^(rho h)),
    independent of the lag."""
    g, dl, s, _, b_rho = _cir_args(model, rho, h, q0)
    return dl + s * s / (2.0 * g), dl - b_rho


# ---------------------------------------------------------------------------
# Independent numerical oracle
# ---------------------------------------------------------------------------


def generic_boundary(model: DemandModel, rho: float, h: float, q0: float, d: float) -> float:
    """Recompute chat(d) without any model-specific closed form for psi.

    Uses the resolvent identity chat(d) = rho * (beta(d) - (psi/psi') beta'(d)
    - q0 e^(rho h)), where psi/psi' comes from integrating the Riccati
    equation for u = psi'/psi:

        u' = 2 (rho - mu(d) u) / sigma(d)^2 - u^2

    rightward from an anchor near the left end of the state space.  The
    decreasing companion solution blows up at the left end, so any bounded
    initial condition converges exponentially to the increasing solution by
    the time the query point is reached; anchors are placed so the remaining
    contamination is below 1e-16 relative.  beta and beta' use the affine
    closed forms, which are validated independently against quadrature.
    """
    validate(model, rho)
    require_nonnegative(h=h, q0=q0)
    require_lag("generic_boundary", rho, h)
    if not math.isfinite(d):
        raise DomainError(f"demand level must be finite, got {d}")
    if isinstance(model, ABM):
        ratio = _psi_ratio_abm(model, rho, float(d))
    else:
        if not d > 0.0:
            raise DomainError(f"need d > 0 for {type(model).__name__}, got {d}")
        ratio = _psi_ratio_logspace(model, rho, float(d))
    a, _ = drift_affine(model)
    beta_slope = math.exp(a * h) / (rho - a)
    return rho * (
        float(beta_resolvent(model, d, rho, h)) - ratio * beta_slope - q0 * math.exp(rho * h)
    )


# The oracle's tolerances, its most implicit Euler substeps in one macro
# step, and the coefficient evaluations one solve may spend (the verify
# points and the acceptance draws take at most 18.6k)
_RTOL, _ATOL = 1e-10, 1e-13
_COLUMNS = 8
_MAX_EVALS = 100_000


def _euler(coef, x, u, H, n):
    """n implicit Euler substeps of u' = a + b u - u^2 across [x, x + H].

    Each substep's equation s v^2 + (1 - s b) v - (u + s a) = 0 is solved
    exactly, by the root that tends to u as s -> 0, in whichever of its two
    forms has no cancellation; nan when it has no real root."""
    s = H / n
    for i in range(1, n + 1):
        a, b = coef(x + i * s)
        c = u + s * a
        p = 1.0 - s * b
        disc = p * p + 4.0 * s * c
        if not disc >= 0.0:
            return math.nan
        r = math.sqrt(disc)
        u = 2.0 * c / (p + r) if p > 0.0 else (r - p) / (2.0 * s)
    return u


def _solve(coef, x0: float, x1: float, u0: float) -> float:
    """u(x1) of the Riccati equation u' = a(x) + b(x) u - u^2, u(x0) = u0,
    where (a(x), b(x)) = coef(x).

    Extrapolated implicit Euler (Hairer & Wanner, Solving ODEs II, IV.9):
    L-stable, so the step follows the accuracy and not the stiffness.  A
    macro step H is taken with 1, 2, ... substeps, and Aitken-Neville
    extrapolation in the step combines them until the last two columns
    T_jj, T_j,j-1 agree to rtol 1e-10, atol 1e-13.  The next H makes that
    column's error estimate, O(H^j), about 0.65 of the tolerance, and the
    next column count is the one of the last two with less work per unit
    step, one more when the last is the cheaper.  A step that has not
    converged one column past its target is redone at the target column's
    H.  Raises NumericsError when the solve spends _MAX_EVALS coefficient
    evaluations or its result is not a positive finite number.
    """
    x, u, H, k = x0, u0, x1 - x0, 4
    evals = 0
    while x < x1:
        last = H >= x1 - x
        if last:
            H = x1 - x
        table, hnew, converged = [], {}, False
        for j in range(1, k + 2):
            row = [_euler(coef, x, u, H, j)]
            for i, prev in enumerate(table[-1] if table else ()):
                row.append(row[i] + (row[i] - prev) / (j / (j - i - 1) - 1.0))
            table.append(row)
            evals += j
            if j == 1:
                continue
            err = abs(row[-1] - row[-2]) / (_ATOL + _RTOL * abs(row[-1]))
            if not err < math.inf:
                break
            hnew[j] = H * min(4.0, max(0.1, 0.94 * (0.65 / max(err, 1e-12)) ** (1.0 / j)))
            if err <= 1.0:
                converged = True
                break
        if evals > _MAX_EVALS:
            raise NumericsError(
                f"psi ratio integration spent {evals} coefficient evaluations "
                f"and reached x = {x:.6g} of [{x0:.6g}, {x1:.6g}]")
        if not converged:
            H = hnew[k] if k in hnew else 0.1 * H
            continue
        x = x1 if last else x + H
        u = table[-1][-1]
        # work per unit step: column j costs j (j + 1) / 2 evaluations
        k = min((i for i in (j - 1, j) if i in hnew), key=lambda i: i * (i + 1) / hnew[i])
        H = hnew[k]
        if k == j < _COLUMNS - 1:
            # one column more, with H scaled by its extra work (j + 2) / j
            k, H = j + 1, H * ((j + 2) / j)
    if not (math.isfinite(u) and u > 0.0):
        raise NumericsError(f"psi ratio integration produced {u}")
    return u


def _psi_ratio_abm(model: ABM, rho: float, d: float) -> float:
    """psi/psi' at d for the whole-line model, via u = psi'/psi in level
    space: u' = 2 rho / sigma^2 - (2 mu / sigma^2) u - u^2."""
    s2 = model.sigma * model.sigma
    coefs = (2.0 * rho / s2, -2.0 * model.mu / s2)
    # contamination by the decreasing solution decays at the root gap
    gap = 2.0 * math.sqrt(model.mu * model.mu + 2.0 * rho * s2) / s2
    return 1.0 / _solve(lambda _: coefs, d - 46.0 / gap, d, 0.0)


def _psi_ratio_logspace(model, rho: float, d: float) -> float:
    """psi/psi' at d for the positive-halfline models, via w = d psi'/psi
    integrated in x = log d: w' = 2 rho d^2 / s^2 + (1 - 2 mu(d) d / s^2) w
    - w^2, with s = sigma(d)."""

    def coef(x):
        dd = math.exp(x)
        s2 = float(model.diffusion(dd)) ** 2
        return 2.0 * rho * dd * dd / s2, 1.0 - 2.0 * float(model.drift(dd)) * dd / s2

    if isinstance(model, GBM):
        s2 = model.sigma**2
        half = model.mu - 0.5 * s2
        gap = 2.0 * math.sqrt(half * half + 2.0 * rho * s2) / s2
        span_len = max(6.0, 46.0 / gap)
        w0 = 0.0
    else:
        # anchor near the regular left boundary, where the increasing
        # solution satisfies rho psi(0) = gamma delta psi'(0)
        anchor = 1e-6 * min(d, model.delta)
        span_len = math.log(d / anchor)
        w0 = anchor * rho / (model.gamma * model.delta)
    x1 = math.log(d)
    return d / _solve(coef, x1 - span_len, x1, w0)
