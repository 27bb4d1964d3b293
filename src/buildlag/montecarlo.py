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
expectation: the F loss is integrated over [0, T+h] with the trapezoid split
at the installation jump t = h (left piece sees K0, right piece sees the
lagged committed path), the G loss over [0, T] on the same weights shifted
by h, and investment is credited on [0, T] in both.  Node by node, the F
term at t = u+h then has conditional mean equal to the G term at u, so
F - (G+J) is mean-zero noise at any horizon and any dt.

Estimates exclude the tail beyond the horizon; `tail_bound` reports a
calibrated bound on the neglected quadratic-loss tail (last-node integrand
scaled by the closed-form growth of E[D_t^2]).  Investment beyond T is not
bounded here, which is why the bound is a report field and the >1%-of-mean
failure is opt-in via tail_check.
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
from .demand import CIR, TimeGrid, alpha0, beta0, _path_matrix, _stream_seeds
from .errors import ParameterError, TruncationError, require_finite
from .policy import Scenario, increments, lag_steps, pipeline_levels

__all__ = [
    "CostEstimate",
    "PolicySpec",
    "IdentityReport",
    "DominanceRow",
    "DominanceReport",
    "EquilibriumReport",
    "fast_rule",
    "estimate_F",
    "estimate_G_plus_J",
    "identity_check",
    "dominance_test",
    "equilibrium_check",
    "check_battery",
]


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    n_paths: int
    horizon: float
    tail_bound: float


@dataclass(frozen=True)
class PolicySpec:
    """A committed-capacity rule for the simulator: the optimal boundary,
    a vertically shifted copy, or a constant level."""

    kind: str
    offset: float = 0.0
    level: float = 0.0

    _KINDS = ("optimal", "shifted", "constant")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"policy kind must be one of {self._KINDS}")
        require_finite("PolicySpec", offset=self.offset, level=self.level)

    @classmethod
    def optimal(cls) -> "PolicySpec":
        return cls("optimal")

    @classmethod
    def shifted(cls, offset: float) -> "PolicySpec":
        return cls("shifted", offset=float(offset))

    @classmethod
    def constant(cls, level: float) -> "PolicySpec":
        return cls("constant", level=float(level))

    @property
    def reads_boundary(self) -> bool:
        return self.kind in ("optimal", "shifted")


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
    mean_cost: float
    delta: float
    paired_se: float
    passed: bool


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


def _default_dt(h: float) -> float:
    return h / max(1, round(h / 0.05))


def _alpha_tail(model, d0: float, rho: float, T: float) -> float:
    """int_T^inf e^(-rho t) E[D_t^2] dt, closed form per model."""
    from .demand import ABM, GBM

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


def fast_rule(scenario: Scenario, boundary: Boundary) -> Callable:
    """Boundary evaluator for hot loops: exact for the affine boundaries,
    a dense interpolation table for the square-root model."""
    if isinstance(scenario.model, CIR):
        dl = scenario.model.delta
        lo = 1e-3 * min(scenario.d, dl)
        hi = 8.0 * max(scenario.d, dl)
        return boundary.table(lo, hi, n=4097)
    return boundary.eval


@dataclass(frozen=True)
class _Request:
    """One policy run to one horizon, and the per-path functionals wanted
    from it: any of "F", "GJ" and "rev_h"."""

    policy: PolicySpec
    horizon: float
    wants: tuple[str, ...]


@dataclass
class _Functionals:
    """Per-path values of the functionals a request wanted (None for the
    others), the grid horizon, and the tail bounds of F and G+J."""

    horizon: float
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


def _run(scenario, base, requests, n_paths, seed, scheme, max_refine):
    """Serve every request from one path batch; returns one _Functionals
    per request, in order.

    Paths are drawn once, on the grid of the longest request.  The per-path
    streams are prefix-consistent and the policy is causal, so a shorter
    request reads exact prefixes of the same paths and of the same committed
    capacity.  The boundary is evaluated once per slice of paths, on the
    longest prefix any optimal or shifted policy needs, and its running
    maximum R taken once, in place.  Each distinct policy is formed once per
    slice, as max(c0, R + offset) (policy.reflect of its levels, bit for
    bit) or a constant, on the longest prefix its requests need.

    The paths are cut into slices sized so that the slices of all workers
    together hold about 3M grid cells per matrix, and the slices run on a
    thread pool with one thread per core, at most one slice per thread in
    flight.  A worker samples a slice's paths; the rule is read on them; a
    worker serves the requests from them and the slice is freed.  The rule
    `base` runs on the calling thread, once per slice as its paths arrive,
    because a caller may wrap it in code that is not thread-safe (a
    tracer's span stack, say).  Workers run only the
    sampler and numpy arithmetic, which releases the interpreter lock in its
    large loops.  Each path's functionals are row sums (_row_sums) and the
    tail bounds are means over all paths, so no result depends on the
    slicing, the number of threads, the order slices finish or BLAS.

    Paths are sampled on steps of _default_dt(h), with bridge-refined
    running maxima by default: the policy reads the continuous-time running
    max, whose grid version is biased low by O(sqrt(dt)) and would
    systematically distort the marginal revenue integrand.
    """
    if n_paths < 1:
        raise ParameterError(f"need n_paths >= 1, got {n_paths}")
    h, rho = scenario.h, scenario.rho
    dt = _default_dt(h)
    lag = lag_steps(TimeGrid(0.0, dt, 1), h)
    steps = [max(1, math.ceil(r.horizon / dt - 1e-9)) for r in requests]
    n_tot = max(steps) + lag
    grid = TimeGrid(0.0, dt, n_tot)
    times = grid.times()
    disc = np.exp(-rho * times)

    def trap(n):
        w = np.full(n + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        return w

    aw = trap(lag) * disc[: lag + 1]
    k0 = pipeline_levels(scenario.k, scenario.pipeline, h, times[: lag + 1])
    c0 = scenario.committed_start
    q0 = scenario.q0
    egh = math.exp(-rho * h)
    model, d0 = scenario.model, scenario.d

    def reach(*names):
        # longest prefix read by a request wanting any of `names`; -1 if none
        wanted = [n for r, n in zip(requests, steps) if any(x in r.wants for x in names)]
        return max(wanted, default=-1)

    n_b0, n_a0 = reach("GJ", "rev_h"), reach("GJ")
    out = [_Functionals(n * dt, **{w: np.empty(n_paths) for w in r.wants})
           for r, n in zip(requests, steps)]
    # per-path last-node integrands of F and G, for the tail bounds
    last_F = [np.empty(n_paths) if "F" in r.wants else None for r in requests]
    last_G = [np.empty(n_paths) if "GJ" in r.wants else None for r in requests]
    members: dict[PolicySpec, list[int]] = {}
    for j, r in enumerate(requests):
        members.setdefault(r.policy, []).append(j)
    # longest prefix each distinct policy is formed on
    reach_of = {p: max(steps[j] for j in js) for p, js in members.items()}
    # the optimal and shifted policies share one boundary evaluation
    n_base = max((n for r, n in zip(requests, steps) if r.policy.reads_boundary), default=-1)
    seeds = _stream_seeds(seed, np.arange(n_paths))

    def sample(rows):
        vals, rmax = _path_matrix(model, d0, grid, seeds[rows], scheme, max_refine)
        loss_a = _row_sums(0.5 * (vals[:, : lag + 1] - k0) ** 2, aw)
        b0m = beta0(model, vals[:, : n_b0 + 1], h)
        a0m = alpha0(model, vals[:, : n_a0 + 1], h)
        return vals, rmax, loss_a, b0m, a0m

    def read_rule(rmax):
        # on the calling thread: the boundary, on the prefix the policies read
        return base(rmax[:, : n_base + 1]) if n_base >= 0 else None

    def serve(j, C, vals, b0m, a0m, loss_a, rows):
        # request j's functionals on these rows, from C, its prefix of
        # committed capacity
        n, res, wants = steps[j], out[j], requests[j].wants
        gw = trap(n) * disc[: n + 1]
        if "F" in wants or "GJ" in wants:
            inv = q0 * _row_sums(increments(C, c0), disc[: n + 1])
        if "F" in wants:
            bw = trap(n) * disc[lag : lag + n + 1]
            resid = C - vals[:, lag : lag + n + 1]
            res.F[rows] = loss_a + _row_sums(0.5 * resid**2, bw) + inv
            last_F[j][rows] = 0.5 * resid[:, -1] ** 2
        if "GJ" in wants:
            gmat = 0.5 * egh * (C * C - 2.0 * b0m[:, : n + 1] * C + a0m[:, : n + 1])
            res.GJ[rows] = loss_a + _row_sums(gmat, gw) + inv
            last_G[j][rows] = gmat[:, -1]
        if "rev_h" in wants:
            res.rev_h[rows] = egh * _row_sums(b0m[:, : n + 1] - C, gw)

    def serve_slice(rows, vals, loss_a, b0m, a0m, base_levels):
        if base_levels is not None:
            np.maximum.accumulate(base_levels, axis=1, out=base_levels)
        for policy, js in members.items():
            n = reach_of[policy]
            if policy.reads_boundary:
                C = base_levels[:, : n + 1] + policy.offset
                np.maximum(c0, C, out=C)
            else:
                C = np.full((len(vals), n + 1), max(c0, policy.level))
            for j in js:
                serve(j, C[:, : steps[j] + 1], vals, b0m, a0m, loss_a, rows)
            del C

    workers = _workers()
    size = max(64, 3_000_000 // ((n_tot + 1) * workers))
    todo = deque(slice(i0, min(i0 + size, n_paths)) for i0 in range(0, n_paths, size))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # at most one slice per worker in flight, sampling or being served;
        # a sampling future maps to its rows, a serving one to None
        running: dict = {}
        while todo or running:
            while todo and len(running) < workers:
                rows = todo.popleft()
                running[pool.submit(sample, rows)] = rows
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            while done:
                fut = done.pop()
                rows = running.pop(fut)
                if rows is None:
                    fut.result()
                else:
                    vals, rmax, *sums = fut.result()
                    serving = pool.submit(serve_slice, rows, vals, *sums, read_rule(rmax))
                    running[serving] = None
                    del vals, rmax, sums, serving
                del fut  # the last reference to a served slice's paths

    for j, res in enumerate(out):
        t_end = res.horizon + lag * dt
        ratio = _alpha_tail(model, d0, rho, t_end) / float(alpha0(model, d0, t_end))
        if last_F[j] is not None:
            res.tail_F = np.sum(last_F[j]) / n_paths * ratio
        if last_G[j] is not None:
            res.tail_G = np.sum(last_G[j]) / n_paths * math.exp(rho * h) * ratio
    return out


def _se(per_path: np.ndarray) -> float:
    n = per_path.size
    return float(np.std(per_path, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _summary(per_path: np.ndarray, horizon: float, tail: float) -> CostEstimate:
    return CostEstimate(
        float(np.mean(per_path)), _se(per_path), per_path.size, horizon, float(tail)
    )


def _check_paths(n_paths: int) -> None:
    """A check's tolerance is a multiple of a sample standard error, which
    one path cannot give: with n_paths = 1 every tolerance would be 0."""
    if n_paths < 2:
        raise ParameterError(f"a Monte Carlo check needs n_paths >= 2, got {n_paths}")


def _tail_guard(est: CostEstimate, name: str) -> None:
    if est.tail_bound > 0.01 * abs(est.mean):
        raise TruncationError(
            f"{name} horizon {est.horizon:g} leaves tail bound "
            f"{est.tail_bound:.4g} > 1% of mean {est.mean:.4g}; extend it"
        )


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
    return 5.0 / scenario.rho if horizon is None else float(horizon)


def _dominance_requests(offsets, horizon):
    if 0.0 not in offsets:
        raise ParameterError("offsets must include 0")
    # offset 0 is the optimal policy itself: adding 0.0 changes no value
    return [
        _Request(PolicySpec.shifted(e) if e else PolicySpec.optimal(), horizon, ("F",))
        for e in offsets
    ]


def _identity_report(res: _Functionals) -> IdentityReport:
    f = _summary(res.F, res.horizon, res.tail_F)
    gj = _summary(res.GJ, res.horizon, res.tail_G)
    diff = res.F - res.GJ
    tol = 3.0 * (f.std_error + gj.std_error)
    return IdentityReport(
        f=f,
        gj=gj,
        diff_mean=float(np.mean(diff)),
        diff_se=_se(diff),
        tolerance=tol,
        passed=bool(abs(f.mean - gj.mean) <= tol),
    )


def _dominance_report(offsets, results) -> DominanceReport:
    ref = results[offsets.index(0.0)].F
    rows = []
    for e, res in zip(offsets, results):
        diff = res.F - ref
        se = _se(diff)
        delta = float(np.mean(diff))
        rows.append(
            DominanceRow(
                offset=e,
                mean_cost=float(np.mean(res.F)),
                delta=delta,
                paired_se=se,
                passed=bool(delta >= -3.0 * se),
            )
        )
    return DominanceReport(rows=tuple(rows), passed=all(r.passed for r in rows))


def _equilibrium_report(scenario, base, res: _Functionals) -> EquilibriumReport:
    mean = float(np.mean(res.rev_h))
    se = _se(res.rev_h)
    chat0 = float(np.asarray(base(np.asarray(scenario.d, dtype=float))))
    on_boundary = scenario.committed_start <= chat0 + 1e-9 * max(1.0, abs(chat0))
    if on_boundary:
        mode, passed = "boundary", bool(abs(mean - scenario.q0) <= 3.0 * se)
    else:
        mode, passed = "continuation", bool(mean < scenario.q0 - 3.0 * se)
    return EquilibriumReport(
        mode=mode, revenue=mean, std_error=se, q0=scenario.q0, passed=passed
    )


def estimate_F(
    scenario: Scenario,
    policy: PolicySpec = PolicySpec.optimal(),
    horizon: float | None = None,
    n_paths: int = 1000,
    seed: int = 0,
    *,
    tail_check: bool = False,
    scheme: str = "exact",
    max_refine: str = "bridge",
) -> CostEstimate:
    """Full-cost estimate: quadratic loss on [0, T+h] plus investment
    (including the t=0 atom) on [0, T]."""
    req = _Request(policy, _horizon(scenario, horizon), ("F",))
    (res,) = _run(scenario, _prepare(scenario), [req], n_paths, seed, scheme, max_refine)
    est = _summary(res.F, res.horizon, res.tail_F)
    if tail_check:
        _tail_guard(est, "estimate_F")
    return est


def estimate_G_plus_J(
    scenario: Scenario,
    policy: PolicySpec = PolicySpec.optimal(),
    horizon: float | None = None,
    n_paths: int = 1000,
    seed: int = 0,
    *,
    tail_check: bool = False,
    scheme: str = "exact",
    max_refine: str = "bridge",
) -> CostEstimate:
    """Reduced-form estimate: closed-form running cost g on [0, T], the
    pipeline-window integral J on [0, h], and the same investment term."""
    req = _Request(policy, _horizon(scenario, horizon), ("GJ",))
    (res,) = _run(scenario, _prepare(scenario), [req], n_paths, seed, scheme, max_refine)
    est = _summary(res.GJ, res.horizon, res.tail_G)
    if tail_check:
        _tail_guard(est, "estimate_G_plus_J")
    return est


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
    scaled boundary is a negative control that must fail.
    """
    _check_paths(n_paths)
    req = _Request(policy, _horizon(scenario, horizon), ("F", "GJ"))
    (res,) = _run(scenario, _prepare(scenario, rule_scale), [req], n_paths, seed,
                  scheme, max_refine)
    return _identity_report(res)


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
    offset should beat it: a negative control for this very test."""
    _check_paths(n_paths)
    offsets = [float(e) for e in offsets]
    reqs = _dominance_requests(offsets, _horizon(scenario, horizon))
    results = _run(scenario, _prepare(scenario, rule_scale), reqs, n_paths, seed,
                   scheme, max_refine)
    return _dominance_report(offsets, results)


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
    falls short.
    """
    _check_paths(n_paths)
    base = _prepare(scenario, rule_scale)
    req = _Request(PolicySpec.optimal(), _horizon(scenario, horizon), ("rev_h",))
    (res,) = _run(scenario, base, [req], n_paths, seed, scheme, max_refine)
    return _equilibrium_report(scenario, base, res)


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
    _check_paths(n_paths)
    offsets = [float(e) for e in offsets]
    base = _prepare(scenario, rule_scale)
    reqs = [
        _Request(PolicySpec.optimal(), _horizon(scenario, None), ("F", "GJ")),
        *_dominance_requests(offsets, _horizon(scenario, horizon)),
        _Request(PolicySpec.optimal(), _horizon(scenario, equilibrium_horizon), ("rev_h",)),
    ]
    results = _run(scenario, base, reqs, n_paths, seed, "exact", "bridge")
    return (
        _identity_report(results[0]),
        _dominance_report(offsets, results[1:-1]),
        _equilibrium_report(scenario, base, results[-1]),
    )
