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
and is used as an independent cross-check, never as a fallback.  It solves
with LSODA and falls back to Radau when LSODA fails, both at rtol 1e-10 and
atol 1e-13; scipy.integrate is imported on the first oracle call, so only
processes that run the oracle load it.  `verify` makes that call after its
Monte Carlo checks, so scipy's modules and the checks' path buffers are
never resident at the same time.
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
from .errors import DomainError, NumericsError, ParameterError, require_nonnegative
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
    "require_nonnegative",
]


@dataclass(frozen=True)
class BiasDecomposition:
    """chat(d) split into forecast minus the two biases."""

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


# Boundary.table's default node count, which fast_rule uses; the psi-ratio
# cache serves grids up to this size
_RATIO_CACHE_POINTS = 4097


class Boundary:
    """Threshold rule d -> least committed capacity, for one model and
    one (rho, h, q0).

    eval() accepts scalars or arrays.  decompose() returns the three-way
    split; eval is computed by recombining exactly the same three terms, so
    eval(d) == decompose(d).total bit for bit.
    """

    def __init__(self, model: DemandModel, rho: float, h: float, q0: float):
        validate(model, rho)
        require_nonnegative(h=h, q0=q0)
        self.model = model
        self.rho = rho
        self.h = h
        self.q0 = q0
        self.discounting_bias = q0 * rho * math.exp(rho * h)
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
        d = np.asarray(d, dtype=float)
        b0 = beta0(self.model, d, self.h)
        out = b0 - self.discounting_bias - self.precautionary(d)
        return out if np.ndim(out) else float(out)

    def decompose(self, d: float) -> BiasDecomposition:
        """Three-way split of chat at a single demand level."""
        return BiasDecomposition(
            beta0=float(beta0(self.model, d, self.h)),
            discounting_bias=self.discounting_bias,
            precautionary_bias=float(self.precautionary(d)),
        )

    def table(self, d_lo: float, d_hi: float, n: int = _RATIO_CACHE_POINTS):
        """Piecewise-linear surrogate of eval on [d_lo, d_hi].

        For the square-root model each exact evaluation runs the Kummer
        function twice, far too slow to repeat on every cell of a Monte
        Carlo path matrix; the surrogate evaluates the boundary at n
        equally spaced nodes and interpolates (linear extrapolation outside
        the range).  The nodes' psi''/psi' ratios come from the per-process
        psi-ratio cache, so a table rebuilt for the same nodes, at any h or
        q0, runs no Kummer function.  ABM/GBM boundaries are affine, so eval
        itself is returned.
        """
        if not isinstance(self.model, CIR):
            return self.eval
        if not (math.isfinite(d_hi) and d_hi > d_lo > 0.0):
            raise DomainError(f"need 0 < d_lo < d_hi < inf, got [{d_lo}, {d_hi}]")
        if not n >= 2:
            raise ParameterError(f"need at least 2 table nodes, got n={n}")
        grid = np.linspace(d_lo, d_hi, n)
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
    return model.gamma, model.delta, model.sigma, math.exp(-model.gamma * h)


def cir_tangent(model: CIR, rho: float, h: float, q0: float, d):
    """Tangent line of the square-root boundary at d -> 0."""
    g, dl, s, e = _cir_args(model, rho, h, q0)
    slope = (g * dl / (g * dl + 0.5 * s * s)) * e
    return slope * np.asarray(d, dtype=float) + (1.0 - e) * dl - q0 * rho * math.exp(rho * h)


def cir_asymptote(model: CIR, rho: float, h: float, q0: float, d):
    """Asymptote of the square-root boundary as d -> inf."""
    g, dl, s, e = _cir_args(model, rho, h, q0)
    slope = (rho / (rho + g)) * e
    intercept = (1.0 - slope) * dl - (s * s / (2.0 * g)) * slope - q0 * rho * math.exp(rho * h)
    return slope * np.asarray(d, dtype=float) + intercept


def cir_kink(model: CIR, rho: float, h: float, q0: float) -> tuple[float, float]:
    """Intersection of tangent and asymptote: the stylized 'kink' of the
    boundary sits at (delta + sigma^2/(2 gamma), delta - q0 rho e^(rho h)),
    independent of the lag."""
    g, dl, s, _ = _cir_args(model, rho, h, q0)
    return dl + s * s / (2.0 * g), dl - q0 * rho * math.exp(rho * h)


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
    if isinstance(model, ABM):
        if not np.isfinite(d):
            raise DomainError("demand level must be finite")
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


def _solve(rhs, span, y0):
    """y(span[1]) of the scalar ODE y' = rhs(t, y), y(span[0]) = y0.

    LSODA (stiffness switching) first, Radau when LSODA's status is
    nonzero; both at rtol 1e-10, atol 1e-13.  On these stiff 1-D problems
    LSODA takes a fraction of Radau's time, and unlike Radau's its result
    does not move with the BLAS thread count.  Raises NumericsError when
    both fail or the result is not a positive finite number.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, span, [y0], method="LSODA", rtol=1e-10, atol=1e-13)
    if sol.status != 0:
        sol = solve_ivp(rhs, span, [y0], method="Radau", rtol=1e-10, atol=1e-13)
    if sol.status != 0:
        raise NumericsError(f"psi ratio integration failed: {sol.message}")
    out = float(sol.y[0, -1])
    if not (math.isfinite(out) and out > 0.0):
        raise NumericsError(f"psi ratio integration produced {out}")
    return out


def _psi_ratio_abm(model: ABM, rho: float, d: float) -> float:
    """psi/psi' at d for the whole-line model, via u' in level space."""
    mu, sig = model.mu, model.sigma
    s2 = sig * sig

    def rhs(_, u):
        return 2.0 * (rho - mu * u) / s2 - u * u

    # contamination by the decreasing solution decays at the root gap
    gap = 2.0 * math.sqrt(mu * mu + 2.0 * rho * s2) / s2
    u = _solve(rhs, [d - 46.0 / gap, d], 0.0)
    return 1.0 / u


def _psi_ratio_logspace(model, rho: float, d: float) -> float:
    """psi/psi' at d for the positive-halfline models, via w = d psi'/psi
    integrated in x = log d."""

    def rhs(x, w):
        dd = math.exp(x)
        s2 = float(model.diffusion(dd)) ** 2
        return w + (2.0 / s2) * (rho * dd * dd - float(model.drift(dd)) * dd * w) - w * w

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
    w = _solve(rhs, [x1 - span_len, x1], w0)
    return d / w
