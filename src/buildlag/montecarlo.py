"""Monte Carlo estimation of the discounted cost functional and its
delay-reduced form, plus the dominance and marginal-revenue checks.

The full cost of a policy is

    F = E[ int_0^inf e^(-rho t) ( (K_t - D_t)^2 / 2 dt + q0 dI_t ) ]

and conditioning the loss at t >= h on time t-h information reduces it to

    F = G + J,
    G = E[ int_0^inf e^(-rho t) ( g(C_t, D_t) dt + q0 dI_t ) ],
    J = E[ int_0^h  e^(-rho t) (K0_t - D_t)^2 / 2 dt ],

with g(c, d) = e^(-rho h) (c^2 - 2 beta0(d) c + alpha0(d)) / 2 and K0 the
capacity delivered by initial capital and the pre-existing pipeline alone.

Truncation is arranged so the identity survives discretization exactly in
expectation: the F loss is integrated over [0, T+h], split at the
installation jump t = h (the left piece sees K0, the right piece the lagged
committed path), the G loss over [0, T] on the right piece's node weights
shifted by h, and investment is credited on [0, T] in both.  Node by node,
the F term at t = u+h then has conditional mean equal to the G term at u,
so F - (G+J) is mean-zero noise at any horizon and any dt.  The node
weights are _run's: the discount is integrated exactly over each step, and
on [0, T] the sqrt(t) start of the running maximum's error is extrapolated
away.

Estimates exclude the tail beyond the horizon; `tail_bound` reports a
calibrated bound on the neglected quadratic-loss tail (last-node integrand
scaled by the closed-form growth of E[D_t^2]).  Investment beyond T is not
bounded here, which is why the bound is a report field; the cost command's
--tail-check turns a bound above 1% of the mean into a failure.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary import Boundary
from .demand import (ABM, CIR, GBM, TimeGrid, alpha0, beta0, grid_steps, _buffers,
                     _path_matrix, _require_sampler, _row_blocks, _stream_seeds)
from .errors import NumericsError, ParameterError, require_count, require_finite
from .policy import Scenario, pipeline_levels

__all__ = [
    "CostEstimate",
    "PolicySpec",
    "IdentityReport",
    "DominanceRow",
    "DominanceReport",
    "EquilibriumReport",
    "fast_rule",
    "estimate_F",
    "identity_check",
    "dominance_test",
    "equilibrium_check",
    "check_battery",
    "check_plan",
]


@dataclass(frozen=True)
class CostEstimate:
    """A control-variate estimate (see _estimate); variance_ratio is its
    variance over the plain sample mean's, 1 where no control was fitted."""

    mean: float
    std_error: float
    n_paths: int
    horizon: float
    tail_bound: float
    variance_ratio: float


@dataclass(frozen=True)
class PolicySpec:
    """A committed-capacity rule for the simulator: the optimal boundary
    shifted vertically by offset, or the constant level when one is given."""

    offset: float = 0.0
    level: float | None = None

    def __post_init__(self):
        require_finite("PolicySpec", offset=self.offset)
        if self.level is not None:
            require_finite("PolicySpec", level=self.level)
            if self.offset:
                raise ParameterError("a constant policy takes no offset")

    @classmethod
    def optimal(cls) -> "PolicySpec":
        return cls()

    @classmethod
    def shifted(cls, offset: float) -> "PolicySpec":
        return cls(offset=float(offset))

    @classmethod
    def constant(cls, level: float) -> "PolicySpec":
        return cls(level=float(level))


@dataclass(frozen=True)
class IdentityReport:
    f: CostEstimate
    gj: CostEstimate
    diff_mean: float
    diff_se: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class DominanceRow:
    offset: float
    delta: float
    paired_se: float
    passed: bool
    variance_ratio: float


@dataclass(frozen=True)
class DominanceReport:
    rows: tuple[DominanceRow, ...]
    passed: bool


@dataclass(frozen=True)
class EquilibriumReport:
    mode: str
    revenue: float
    std_error: float
    q0: float
    passed: bool
    variance_ratio: float


def _alpha_tail(model, d0: float, rho: float, T: float) -> float:
    """int_T^inf e^(-rho t) E[D_t^2] dt, closed form per model."""
    e = math.exp(-rho * T)
    if isinstance(model, ABM):
        mu, sig = model.mu, model.sigma
        a, b, c = mu * mu, 2.0 * d0 * mu + sig * sig, d0 * d0
        i2 = e * (T * T / rho + 2.0 * T / rho**2 + 2.0 / rho**3)
        i1 = e * (T / rho + 1.0 / rho**2)
        i0 = e / rho
        return a * i2 + b * i1 + c * i0
    if isinstance(model, GBM):
        rate = rho - 2.0 * model.mu - model.sigma**2
        return d0 * d0 * math.exp(-rate * T) / rate
    g, dl, s = model.gamma, model.delta, model.sigma
    a0c = dl * dl + dl * s * s / (2.0 * g)
    a1c = 2.0 * dl * (d0 - dl) + (d0 - dl) * s * s / g
    a2c = (d0 - dl) ** 2 - d0 * s * s / g + dl * s * s / (2.0 * g)
    return (
        a0c * e / rho
        + a1c * math.exp(-(rho + g) * T) / (rho + g)
        + a2c * math.exp(-(rho + 2.0 * g) * T) / (rho + 2.0 * g)
    )


def _tail_ratio(model, d0: float, rho: float, horizon: float, lag: float) -> float:
    """_alpha_tail over alpha0 at horizon + lag, the grid's end; raises
    NumericsError naming the horizon where either leaves the float range."""
    t_end = horizon + lag
    try:
        return _alpha_tail(model, d0, rho, t_end) / float(alpha0(model, d0, t_end))
    except OverflowError:
        raise NumericsError(
            f"horizon {horizon:g}: the second moment of demand at the grid's end "
            f"({t_end:g}) leaves the float range; shorten the horizon") from None


def fast_rule(scenario: Scenario, boundary: Boundary) -> Callable:
    """Boundary evaluator for hot loops: exact for the affine boundaries,
    a dense interpolation table for the square-root model."""
    if isinstance(scenario.model, CIR):
        dl = scenario.model.delta
        lo = 1e-3 * min(scenario.d, dl)
        hi = 8.0 * max(scenario.d, dl)
        return boundary.table(lo, hi)
    return boundary.eval


@dataclass(frozen=True)
class _Request:
    """One policy run to one horizon, and the per-path functionals wanted
    from it: any of "F", "GJ" and "rev_h"."""

    policy: PolicySpec
    horizon: float
    wants: tuple[str, ...]


@dataclass(frozen=True)
class _Controls:
    """Per-path control variates, one row per control, and their exact
    means: X1 = sum_i w_i D_i and X2 = sum_i w_i D_i^2 over a request's
    nodes, w its discounted node weights.  The sampler is exact at the
    nodes, so E[D_t] = beta0(d0, t) and E[D_t^2] = alpha0(d0, t) there."""

    values: np.ndarray
    means: np.ndarray


@dataclass
class _Functionals:
    """The grid horizon, the controls of the request's horizon, per-path
    values of the functionals a request wanted (None for the others) and
    the tail bounds of F and G+J."""

    horizon: float
    controls: _Controls
    F: np.ndarray | None = None
    GJ: np.ndarray | None = None
    rev_h: np.ndarray | None = None
    tail_F: float = 0.0
    tail_G: float = 0.0


def _workers() -> int:
    """Threads for the Monte Carlo slices: one per core this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_sums(m, w):
    """m @ w, each row summed on its own (no BLAS): a path's value depends
    only on its own row, not on which or how many rows share the matrix or
    on the BLAS thread count.  Every per-path sum in _run goes through here."""
    return np.einsum("ij,j->i", m, w)


# the engine's step per model kind, as near it as a whole number of steps
# per lag allows.  ABM and GBM transitions and their bridge maxima are
# exact at any step, so their only step error is the node sums'; the CIR
# bridge holds the diffusion fixed over each step
_STEPS = {ABM: 0.2, GBM: 0.2, CIR: 0.05}

# a trapezoid sum of a term that starts like sqrt(t), as every cost of the
# running maximum's policy does, has an error in dt^(3/2) (Navot 1961)
_K = 2.0**1.5


def _trapezoid(rho, dt, n):
    """Weights w_0..w_n such that sum_i w_i e^(-rho t_i) f(t_i), t_i = i dt,
    is the exact integral over [0, n dt] of e^(-rho t) times the
    piecewise-linear interpolant of f: the trapezoid rule with the
    discount integrated exactly over each step."""
    x = rho * dt
    if x > 1e-3:
        first, last = (x + math.expm1(-x)) / (rho * x), (math.expm1(x) - x) / (rho * x)
    else:  # their Taylor series, where those differences cancel
        first, last = (dt * (0.5 + x * (s / 6 + x * (1 / 24 + s * x / 120))) for s in (-1, 1))
    w = np.full(n + 1, first + last)
    w[0], w[-1] = first, last
    return w


def _extrapolated(rho, dt, n):
    """_trapezoid's weights on an even n, extrapolated in the step with
    exponent 3/2: (K W_dt - W_2dt) / (K - 1), K = 2^(3/2) and W_2dt on the
    even nodes.  Exact where _trapezoid is, and free of a sqrt(t) start's
    dt^(3/2) term."""
    coarse = np.zeros(n + 1)
    coarse[::2] = _trapezoid(rho, 2.0 * dt, n // 2)
    return (_K * _trapezoid(rho, dt, n) - coarse) / (_K - 1.0)


def _committed(policy, R, c0, shape):
    """A policy's committed capacity on a row block, shape (rows, nodes):
    the running maximum R of the rule's levels shifted by the offset and
    floored at c0 (policy.reflect of the shifted levels, bit for bit), or
    the constant max(c0, level)."""
    if policy.level is not None:
        return np.full(shape, max(c0, policy.level))
    C = R[:, : shape[1]] + policy.offset
    return np.maximum(c0, C, out=C)


def _run(scenario, base, requests, n_paths, seed):
    """Serve every request from one path batch; returns one _Functionals
    per request, in order.

    Paths are drawn once, on the grid of the longest request.  The per-path
    streams are prefix-consistent and the policy is causal, so a shorter
    request reads exact prefixes of the same paths and of the same committed
    capacity.  The boundary is evaluated once per path and node, on the
    longest prefix any policy that is not a constant needs.

    The paths are cut into slices sized so that the slices of all workers
    together hold about 3M grid cells per matrix, and the slices run on a
    thread pool with one thread per core, at most one slice per thread in
    flight.  Each slice in flight owns one slot, a (values, running max)
    buffer pair allocated once per call, min(workers, slices) of them, and
    reused from slice to slice.  A worker samples a slice's paths into the
    first rows of a free slot (demand._path_matrix writes its draws there
    too); the rule is read on them; a worker serves the requests from them,
    and the slot goes back on the free list.  The rule `base` runs on the
    calling thread, one row block of demand._BLOCK rows at a time, because
    a caller may wrap it in code that is not thread-safe (a tracer's span
    stack, say).  Its levels overwrite the running maximum's prefix, which
    nothing reads afterwards, so reading it allocates only block-sized
    matrices.  Workers run only the sampler and numpy arithmetic.  numpy
    releases the interpreter lock only in loops over more than 500
    elements, and on the 150-year grids a slice has 474 rows at two workers,
    so every step of the CIR recursion, a call on 474-element vectors,
    holds it.

    A slice is served in row blocks too, small enough that a block's
    matrices stay in cache.  Per block, the running maximum R of the
    rule's levels is taken once, in place, and every shifted policy reads
    it; each request's committed capacity is formed on its own prefix, as
    max(c0, R + offset) (policy.reflect of its levels, bit for bit) or a
    constant; and the pipeline-window loss and the lag moments beta0 and
    alpha0 are computed for the block alone.  So the paths in flight hold
    two path-sized matrices per worker, and nothing else path-sized.  Each
    path's functionals are row sums (_row_sums) and the tail bounds are
    means over all paths, so no result depends on the slicing, the
    blocking, the number of threads, the order slices finish or BLAS.  A
    per-path value or tail bound out of float range raises NumericsError,
    and so does a horizon whose tail moments leave it, before any path is
    drawn.

    Paths are sampled by demand._path_matrix on steps of h / max(1,
    round(h / s)), a whole number per lag, with s the model's step in
    _STEPS: 0.2 for ABM and GBM, 0.05 for CIR.  The samples are exact at
    the nodes, with the Brownian-bridge running maximum, which is what the
    policy reads.  Each request's horizon rounds up to an even number of
    steps.

    The node weights are built once per call and are one rule: each loss
    integral is exact for e^(-rho t) times a piecewise-linear integrand
    (_trapezoid), and on each request's horizon, where the policy's costs
    start like sqrt(t), that rule is extrapolated in the step with
    exponent 3/2 (_extrapolated).  The pipeline window [0, h] takes
    _trapezoid; G+J, rev_h and the controls take the horizon's weights,
    and F's right piece the same weights shifted by h.  Each step's
    investment is weighted by the step's mean discount, and the t = 0 atom
    by 1; summed by parts, a policy's investment is one row sum of its
    committed capacity.

    Each distinct request horizon gets the two controls of _Controls, two
    more row sums per block, with means from the closed-form moments at
    its nodes, beta0(model, d0, t) and alpha0(model, d0, t).
    """
    require_count(1, n_paths=n_paths)
    h, rho = scenario.h, scenario.rho
    model, d0 = scenario.model, scenario.d
    lag = max(1, round(h / _STEPS[type(model)]))
    dt = h / lag
    steps = [n + n % 2 for n in (grid_steps(r.horizon, dt) for r in requests)]
    n_tot = max(steps) + lag
    grid = TimeGrid(0.0, dt, n_tot)
    times = grid.times()
    disc = np.exp(-rho * times)
    # each tail bound's moments at its grid end, before any path is drawn
    ratios = [_tail_ratio(model, d0, rho, n * dt, lag * dt) for n in steps]

    aw = _trapezoid(rho, dt, lag) * disc[: lag + 1]
    # per distinct request horizon: its weights, and F's, the same shifted by h
    rules = {n: _extrapolated(rho, dt, n) for n in steps}
    weights = {n: r * disc[: n + 1] for n, r in rules.items()}
    lagged = {n: r * disc[lag : lag + n + 1] for n, r in rules.items()}
    # investment sum_i v_i (C_i - C_(i-1)), C_(-1) = c0, with v_0 = 1 and
    # v_i step i's mean discount, is sum_i C_i (v_i - v_(i+1)) - c0, v_(n+1) = 0
    x = rho * dt
    mean_disc = disc * (math.expm1(x) / x)
    mean_disc[0] = 1.0
    invest = {n: mean_disc[: n + 1] - np.append(mean_disc[1 : n + 1], 0.0) for n in steps}
    k0 = pipeline_levels(scenario.k, scenario.pipeline, h, times[: lag + 1])
    c0 = scenario.committed_start
    q0 = scenario.q0
    egh = math.exp(-rho * h)

    def reach(*names):
        # longest prefix read by a request wanting any of `names`; -1 if none
        wanted = [n for r, n in zip(requests, steps) if any(x in r.wants for x in names)]
        return max(wanted, default=-1)

    n_b0, n_a0 = reach("GJ", "rev_h"), reach("GJ")
    nodes = times[: max(steps) + 1].tolist()
    moments = np.array([[f(model, d0, t) for t in nodes] for f in (beta0, alpha0)])
    controls = {n: _Controls(np.empty((2, n_paths)), _row_sums(moments[:, : n + 1], w))
                for n, w in weights.items()}
    out = [_Functionals(n * dt, controls[n], **{w: np.empty(n_paths) for w in r.wants})
           for r, n in zip(requests, steps)]
    # per-path last-node integrands of F and G, for the tail bounds
    last_F = [np.empty(n_paths) if "F" in r.wants else None for r in requests]
    last_G = [np.empty(n_paths) if "GJ" in r.wants else None for r in requests]
    # the policies that are not constants share one boundary evaluation
    n_base = max((n for r, n in zip(requests, steps) if r.policy.level is None), default=-1)
    seeds = _stream_seeds(seed, np.arange(n_paths))

    def sample(rows, slot):
        # into the first rows of a slot's buffer pair
        vals, rmax = (buf[: rows.stop - rows.start] for buf in slot)
        return _path_matrix(model, d0, grid, seeds[rows], vals, rmax)

    # a scaled rule may overflow; the inf reaches a per-path value, which raises below
    @np.errstate(over="ignore", invalid="ignore")
    def read_rule(rmax):
        # on the calling thread, block by block: the rule's levels on the
        # prefix the policies read overwrite that prefix of the running
        # maximum, which nothing reads afterwards
        if n_base < 0:
            return None
        levels = rmax[:, : n_base + 1]
        for b in _row_blocks(len(levels)):
            levels[b] = base(levels[b])
        return levels

    # overflow leaves inf or nan in a per-path value, which raises below
    @np.errstate(over="ignore", invalid="ignore")
    def serve_slice(rows, vals, levels):
        # block by block: every matrix below has a block's rows
        for b in _row_blocks(len(vals)):
            v = vals[b]
            at = slice(rows.start + b.start, rows.start + b.stop)
            loss_a = _row_sums(0.5 * (v[:, : lag + 1] - k0) ** 2, aw)
            b0m = beta0(model, v[:, : n_b0 + 1], h)
            a0m = alpha0(model, v[:, : n_a0 + 1], h)
            sq = v[:, : max(controls) + 1] ** 2
            for n, c in controls.items():
                c.values[0, at] = _row_sums(v[:, : n + 1], weights[n])
                c.values[1, at] = _row_sums(sq[:, : n + 1], weights[n])
            R = None
            if levels is not None:
                R = np.maximum.accumulate(levels[b], axis=1, out=levels[b])
            for r, n, res, last_f, last_g in zip(requests, steps, out, last_F, last_G):
                # the request's committed capacity, on its own prefix
                C = _committed(r.policy, R, c0, (len(v), n + 1))
                if "F" in r.wants or "GJ" in r.wants:
                    inv = q0 * (_row_sums(C, invest[n]) - c0)
                if "F" in r.wants:
                    resid = C - v[:, lag : lag + n + 1]
                    res.F[at] = loss_a + _row_sums(0.5 * resid**2, lagged[n]) + inv
                    last_f[at] = 0.5 * resid[:, -1] ** 2
                if "GJ" in r.wants:
                    gmat = 0.5 * egh * (C * C - 2.0 * b0m[:, : n + 1] * C + a0m[:, : n + 1])
                    res.GJ[at] = loss_a + _row_sums(gmat, weights[n]) + inv
                    last_g[at] = gmat[:, -1]
                if "rev_h" in r.wants:
                    res.rev_h[at] = egh * _row_sums(b0m[:, : n + 1] - C, weights[n])

    workers = _workers()
    size = max(64, 3_000_000 // ((n_tot + 1) * workers))
    todo = deque(slice(i0, min(i0 + size, n_paths)) for i0 in range(0, n_paths, size))
    # one (values, running max) buffer pair per slice in flight, reused
    # from slice to slice
    free = [_buffers(min(size, n_paths), grid) for _ in range(min(workers, len(todo)))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # a future maps to its slot and, while it samples, to its rows;
        # serving maps to None rows, and hands the slot back when done
        running: dict = {}
        while todo or running:
            while todo and free:
                rows, slot = todo.popleft(), free.pop()
                running[pool.submit(sample, rows, slot)] = rows, slot
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                rows, slot = running.pop(fut)
                if rows is None:
                    fut.result()
                    free.append(slot)
                else:
                    vals, rmax = fut.result()
                    serving = pool.submit(serve_slice, rows, vals, read_rule(rmax))
                    running[serving] = None, slot

    for j, (res, ratio) in enumerate(zip(out, ratios)):
        if last_F[j] is not None:
            res.tail_F = np.sum(last_F[j]) / n_paths * ratio
        if last_G[j] is not None:
            res.tail_G = np.sum(last_G[j]) / n_paths * math.exp(rho * h) * ratio
        per_path = [getattr(res, w) for w in requests[j].wants] + [res.controls.values]
        if not (all(np.isfinite(v).all() for v in per_path)
                and math.isfinite(res.tail_F) and math.isfinite(res.tail_G)):
            raise NumericsError(
                f"a per-path value or tail bound of {'/'.join(requests[j].wants)} to "
                f"horizon {res.horizon:g} is not finite: the policy or the demand "
                f"leaves the float range"
            )
    return out


def _se(per_path: np.ndarray) -> float:
    n = per_path.size
    with np.errstate(over="ignore"):
        se = float(np.std(per_path, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if not math.isfinite(se):
        raise NumericsError(f"the standard error of {n} finite per-path values overflows")
    return se


# a control whose centred sum of squares left after the control before it
# is at most this share of its own adds nothing the first does not give
_COLLINEAR = 1e-10


def _coefficients(S, s_y):
    """OLS coefficients of y on the two controls, from their centred cross
    sums S (2 x 2) and their centred sums with y, and how many controls
    they fit: 0 when the first control does not vary, 1 when the second is
    collinear with it (its coefficient is then 0), else 2."""
    s11, s12, s22 = S[0, 0], S[0, 1], S[1, 1]
    if not s11 > 0.0:
        return np.zeros(2), 0
    r22 = s22 - s12 * s12 / s11
    if not r22 > _COLLINEAR * s22:
        return np.array([s_y[0] / s11, 0.0]), 1
    b2 = (s_y[1] - s12 * s_y[0] / s11) / r22
    return np.array([(s_y[0] - s12 * b2) / s11, b2]), 2


def _estimate(per_path: np.ndarray, controls: _Controls | None) -> tuple[float, float, float]:
    """Mean, standard error and variance ratio of a functional from its
    per-path values: the control-variate estimator of Glasserman, Monte
    Carlo Methods in Financial Engineering, section 4.1, the one estimator
    of every report.

    mean - b . (mean of X - E[X]), b the OLS coefficient of the values on
    the controls X, from centred sums taken without BLAS (einsum and
    np.sum), so no estimate depends on the BLAS thread count.  The
    standard error is that of the regression residuals, on n - p - 1
    degrees of freedom for p fitted controls.  With no controls, or fewer
    than p + 2 paths, b is 0: the plain mean and sample standard error.
    The variance ratio is the squared ratio of the two standard errors,
    1 where the plain one is 0.
    """
    n = per_path.size
    mean, se = float(np.mean(per_path)), _se(per_path)
    if controls is None or n < len(controls.means) + 2:
        return mean, se, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = np.mean(controls.values, axis=1)
        xc = controls.values - xbar[:, None]
        yc = per_path - mean
        b, p = _coefficients(np.einsum("ij,kj->ik", xc, xc), _row_sums(xc, yc))
        resid = yc - np.einsum("ij,i->j", xc, b)
        adjusted = mean - float(np.sum(b * (xbar - controls.means)))
        adjusted_se = math.sqrt(float(np.sum(resid * resid)) / (n - p - 1) / n)
    if not (math.isfinite(adjusted) and math.isfinite(adjusted_se)):
        raise NumericsError(f"the control-variate estimate of {n} finite per-path values "
                            f"overflows")
    return adjusted, adjusted_se, (adjusted_se / se) ** 2 if se > 0.0 else 1.0


def _summary(per_path: np.ndarray, horizon: float, tail: float,
             controls: _Controls) -> CostEstimate:
    mean, se, ratio = _estimate(per_path, controls)
    return CostEstimate(mean, se, per_path.size, horizon, float(tail), ratio)


def _prepare(scenario, rule_scale=1.0):
    """The fast rule for the scenario's boundary, times rule_scale."""
    require_finite("Monte Carlo check", rule_scale=rule_scale)
    bound = Boundary(scenario.model, scenario.rho, scenario.h, scenario.q0)
    base = fast_rule(scenario, bound)
    if rule_scale != 1.0:
        inner = base
        base = lambda d: rule_scale * inner(d)
    return base


def _horizon(scenario, horizon):
    """5 / rho for None, else the given horizon, which must be finite and
    > 0: a grid always has at least one step, so any other value would
    silently run one."""
    if horizon is None:
        return 5.0 / scenario.rho
    horizon = float(horizon)
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ParameterError(f"need finite horizon > 0, got horizon={horizon}")
    return horizon


def _identity(scenario, policy, horizon):
    """identity_check: F and G+J of one policy, within 3 (SE_F + SE_G)."""

    def verdict(base, res):
        f = _summary(res.F, res.horizon, res.tail_F, res.controls)
        gj = _summary(res.GJ, res.horizon, res.tail_G, res.controls)
        diff_mean, diff_se, _ = _estimate(res.F - res.GJ, res.controls)
        tol = 3.0 * (f.std_error + gj.std_error)
        return IdentityReport(
            f=f,
            gj=gj,
            diff_mean=diff_mean,
            diff_se=diff_se,
            tolerance=tol,
            passed=bool(abs(f.mean - gj.mean) <= tol),
        )

    return [_Request(policy, _horizon(scenario, horizon), ("F", "GJ"))], verdict


def _dominance(scenario, offsets, horizon):
    """dominance_test: F of the rule shifted by each offset, each paired
    with offset 0's."""
    horizon = _horizon(scenario, horizon)
    offsets = [float(e) for e in offsets]
    if 0.0 not in offsets:
        raise ParameterError("offsets must include 0")

    def verdict(base, *results):
        ref = results[offsets.index(0.0)].F
        rows = []
        for e, res in zip(offsets, results):
            # the control adjusts the paired difference, not each cost apart
            delta, se, ratio = _estimate(res.F - ref, res.controls)
            rows.append(
                DominanceRow(
                    offset=e,
                    delta=delta,
                    paired_se=se,
                    passed=bool(delta >= -3.0 * se),
                    variance_ratio=ratio,
                )
            )
        return DominanceReport(rows=tuple(rows), passed=all(r.passed for r in rows))

    return [_Request(PolicySpec.shifted(e), horizon, ("F",)) for e in offsets], verdict


def _equilibrium(scenario, horizon):
    """equilibrium_check: the optimal policy's marginal revenue, against q0."""

    def verdict(base, res):
        mean, se, ratio = _estimate(res.rev_h, res.controls)
        chat0 = float(np.asarray(base(np.asarray(scenario.d, dtype=float))))
        on_boundary = scenario.committed_start <= chat0 + 1e-9 * max(1.0, abs(chat0))
        if on_boundary:
            mode, passed = "boundary", bool(abs(mean - scenario.q0) <= 3.0 * se)
        else:
            mode, passed = "continuation", bool(mean < scenario.q0 - 3.0 * se)
        return EquilibriumReport(
            mode=mode, revenue=mean, std_error=se, q0=scenario.q0, passed=passed,
            variance_ratio=ratio,
        )

    return [_Request(PolicySpec.optimal(), _horizon(scenario, horizon), ("rev_h",))], verdict


def _checks(scenario, n_paths, seed, rule_scale, *checks):
    """The checks' reports, in order, from one path batch and one rule, the
    fast rule times rule_scale.  A check is its requests and its verdict,
    which makes its report from the rule and its requests' results."""
    # a tolerance is a multiple of a sample standard error, which one path
    # cannot give: with n_paths = 1 every tolerance would be 0
    if n_paths < 2:
        raise ParameterError(f"a Monte Carlo check needs n_paths >= 2, got {n_paths}")
    base = _prepare(scenario, rule_scale)
    results = iter(_run(scenario, base, [r for reqs, _ in checks for r in reqs], n_paths, seed))
    return [verdict(base, *[next(results) for _ in reqs]) for reqs, verdict in checks]


def estimate_F(
    scenario: Scenario,
    policy: PolicySpec = PolicySpec.optimal(),
    horizon: float | None = None,
    n_paths: int = 1000,
    seed: int = 0,
) -> CostEstimate:
    """Full-cost estimate: quadratic loss on [0, T+h] plus investment
    (including the t=0 atom) on [0, T]."""
    req = _Request(policy, _horizon(scenario, horizon), ("F",))
    (res,) = _run(scenario, _prepare(scenario), [req], n_paths, seed)
    return _summary(res.F, res.horizon, res.tail_F, res.controls)


def identity_check(
    scenario: Scenario,
    policy: PolicySpec = PolicySpec.optimal(),
    horizon: float | None = None,
    n_paths: int = 10_000,
    seed: int = 0,
    *,
    scheme: str = "exact",
    max_refine: str = "bridge",
    rule_scale: float = 1.0,
) -> IdentityReport:
    """F and G+J on one common batch; their gap is mean-zero by construction
    of the truncation, so it must sit within 3 (SE_F + SE_G).

    rule_scale multiplies the boundary before use.  The identity holds for
    any adapted policy, so this check passes even at scale != 1; the knob is
    here for symmetry with the dominance and equilibrium checks, where a
    scaled boundary is a negative control that must fail.  scheme and
    max_refine accept only their defaults.
    """
    _require_sampler(scheme, max_refine)
    return _checks(scenario, n_paths, seed, rule_scale, _identity(scenario, policy, horizon))[0]


def dominance_test(
    scenario: Scenario,
    offsets,
    horizon: float | None = None,
    n_paths: int = 10_000,
    seed: int = 0,
    *,
    scheme: str = "exact",
    max_refine: str = "bridge",
    rule_scale: float = 1.0,
) -> DominanceReport:
    """Cost of the boundary shifted by each offset vs the unshifted one, on
    common random numbers.  The optimum must not beat itself: every shifted
    policy costs at least cost(0) - 3 paired SE.

    With rule_scale != 1 the unshifted policy is deliberately wrong and some
    offset should beat it: a negative control for this very test.  scheme
    and max_refine accept only their defaults."""
    _require_sampler(scheme, max_refine)
    return _checks(scenario, n_paths, seed, rule_scale, _dominance(scenario, offsets, horizon))[0]


def equilibrium_check(
    scenario: Scenario,
    horizon: float | None = None,
    n_paths: int = 10_000,
    seed: int = 0,
    *,
    scheme: str = "exact",
    max_refine: str = "bridge",
    rule_scale: float = 1.0,
) -> EquilibriumReport:
    """Discounted marginal revenue of the unit committed at t=0 under the
    optimal policy.

    A unit committed now produces from h on, so its revenue (normalized by
    the demand slope) is E int e^(-rho t) e^(-rho h) (beta0(D_t) - C*_t) dt,
    the inner lag-h expectation taken in closed form via beta0.  On the
    boundary this equals q0; strictly inside the continuation region it
    falls short.  scheme and max_refine accept only their defaults.
    """
    _require_sampler(scheme, max_refine)
    return _checks(scenario, n_paths, seed, rule_scale, _equilibrium(scenario, horizon))[0]


def check_battery(
    scenario: Scenario,
    offsets,
    *,
    horizon: float | None = None,
    equilibrium_horizon: float | None = None,
    n_paths: int = 10_000,
    seed: int = 0,
    rule_scale: float = 1.0,
) -> tuple[IdentityReport, DominanceReport, EquilibriumReport]:
    """identity_check at its default horizon, dominance_test(offsets,
    horizon) and equilibrium_check(equilibrium_horizon), with the rule
    scaled by rule_scale, from one path batch, one Boundary and one rule
    table.  Each report equals its standalone check's, bit for bit.
    """
    return tuple(_checks(
        scenario, n_paths, seed, rule_scale,
        _identity(scenario, PolicySpec.optimal(), None),
        _dominance(scenario, offsets, horizon),
        _equilibrium(scenario, equilibrium_horizon),
    ))


def check_plan(scenario: Scenario) -> tuple[list[float], float, float]:
    """verify's plan for the scenario's checks: the boundary shifts that
    dominance_test prices, its horizon (150 years), and equilibrium_check's
    horizon (100, 200 and 150 years for ABM, GBM and CIR).  identity_check
    runs at its default horizon."""
    model = scenario.model
    if isinstance(model, ABM):
        offsets = [-300.0, -100.0, 0.0, 100.0, 300.0]
    else:
        bound = Boundary(model, scenario.rho, scenario.h, scenario.q0)
        ref = abs(float(bound.eval(np.asarray(scenario.d))))
        offsets = [f * max(ref, 1.0) for f in (-0.15, -0.05, 0.0, 0.05, 0.15)]
    return offsets, 150.0, {ABM: 100.0, GBM: 200.0, CIR: 150.0}[type(model)]
