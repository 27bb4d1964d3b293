"""Monte Carlo cost estimators, identity, dominance, and equilibrium checks.

The sharpest oracles here are deterministic: with sigma driven to zero the
demand path, the policy, and every integral have closed forms, so the
estimators must reproduce them to discretization accuracy.  Stochastic
checks then run at modest path counts; the acceptance suite repeats them at
full size.
"""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from buildlag import demand, montecarlo
from buildlag.boundary import Boundary
from buildlag.demand import ABM, CIR, GBM, alpha0, beta0
from buildlag.errors import NumericsError, ParameterError
from buildlag.montecarlo import (
    PolicySpec,
    check_battery,
    check_plan,
    dominance_test,
    equilibrium_check,
    estimate_F,
    identity_check,
)
from buildlag.policy import Scenario, reflect
from buildlag.scenarios import get

RHO = 0.08


def quiet_abm(mu, q0=0.5, d=5.0, k=None, h=1.0, sigma=1e-9):
    """ABM scenario with negligible noise; k=None starts on the boundary."""
    model = ABM(mu=mu, sigma=sigma)
    if k is None:
        k = float(Boundary(model, RHO, h, q0).eval(d))
    return Scenario(model=model, rho=RHO, h=h, q0=q0, k=k, d=d)


def cir_market(k=10.0, q0=1.0):
    return Scenario(
        model=CIR(gamma=0.8, delta=20.0, sigma=0.2),
        rho=RHO, h=8.0, q0=q0, k=k, d=10.0,
    )


def gbm_market(k=1000.0):
    return Scenario(
        model=GBM(mu=0.03, sigma=0.06), rho=RHO, h=8.0, q0=5.0, k=k, d=1000.0
    )


def abm_market():
    return Scenario(
        model=ABM(mu=300.0, sigma=600.0), rho=RHO, h=8.0, q0=5.0,
        k=10_000.0, d=10_000.0,
    )


# ---------------------------------------------------------------------------
# validation and metadata


def test_policy_spec_validation():
    # a policy is the rule shifted by an offset, or a constant level
    assert PolicySpec.optimal() == PolicySpec.shifted(0.0) == PolicySpec.shifted(-0.0)
    assert PolicySpec.shifted(-2) == PolicySpec(offset=-2.0)
    assert PolicySpec.constant(7) == PolicySpec(level=7.0)
    assert PolicySpec.constant(0).level == 0.0
    assert PolicySpec.optimal().level is None
    with pytest.raises(ParameterError, match="no offset"):
        PolicySpec(offset=1.0, level=7.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_policy_spec_rejects_non_finite(value):
    with pytest.raises(ParameterError, match="finite offset"):
        PolicySpec.shifted(value)
    with pytest.raises(ParameterError, match="finite level"):
        PolicySpec.constant(value)


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_every_check_rejects_non_finite_rule_scale(scale):
    sc = cir_market()
    for run_check in (
        lambda: identity_check(sc, n_paths=2, rule_scale=scale),
        lambda: dominance_test(sc, [0.0], n_paths=2, rule_scale=scale),
        lambda: equilibrium_check(sc, n_paths=2, rule_scale=scale),
        lambda: check_battery(sc, [0.0], n_paths=2, rule_scale=scale),
    ):
        with pytest.raises(ParameterError, match="finite rule_scale"):
            run_check()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["cir-fast", "gbm-growth", "abm-power"])
def test_a_rule_scaled_out_of_float_range_raises_without_a_warning(name):
    # the rule times 1e308 overflows where the paths read it; the inf
    # reaches the per-path values, which raise NumericsError, and numpy
    # warns of nothing on the way
    sc = get(name).scenario
    common = dict(horizon=2.0 * sc.h, n_paths=8, rule_scale=1e308)
    for run_check in (
        lambda: identity_check(sc, **common),
        lambda: dominance_test(sc, [0.0, 1.0], **common),
        lambda: equilibrium_check(sc, **common),
        lambda: check_battery(sc, [0.0, 1.0], equilibrium_horizon=2.0 * sc.h, **common),
    ):
        with pytest.raises(NumericsError, match="not finite"):
            run_check()


@pytest.mark.parametrize("keyword", [dict(scheme="milstein"), dict(max_refine="grid")],
                         ids=["milstein", "grid"])
@pytest.mark.parametrize("call", ["identity", "dominance", "equilibrium", "sample_paths"])
def test_only_the_exact_bridge_sampler_is_accepted(call, keyword):
    # the checks and sample_paths keep scheme and max_refine, which accept
    # only "exact" and "bridge": there is no other sampler
    sc = cir_market()
    grid = demand.TimeGrid(0.0, 0.05, 2)
    run = {
        "identity": lambda: identity_check(sc, n_paths=2, **keyword),
        "dominance": lambda: dominance_test(sc, [0.0], n_paths=2, **keyword),
        "equilibrium": lambda: equilibrium_check(sc, n_paths=2, **keyword),
        "sample_paths": lambda: demand.sample_paths(sc.model, sc.d, grid, 0, 2, **keyword),
    }[call]
    with pytest.raises(ParameterError, match="sampler"):
        run()


@pytest.mark.parametrize("check", ["identity", "dominance", "equilibrium", "battery"])
def test_every_check_needs_two_paths(check):
    # one path has no standard error, so every tolerance would be 0
    sc = gbm_market()
    run_check = {
        "identity": lambda: identity_check(sc, n_paths=1),
        "dominance": lambda: dominance_test(sc, [0.0], n_paths=1),
        "equilibrium": lambda: equilibrium_check(sc, n_paths=1),
        "battery": lambda: check_battery(sc, [0.0], n_paths=1),
    }[check]
    with pytest.raises(ParameterError, match="n_paths >= 2, got 1"):
        run_check()


def test_one_path_estimates_are_legal():
    est = estimate_F(gbm_market(), n_paths=1, horizon=20.0)
    assert est.n_paths == 1
    assert est.std_error == 0.0


def test_dominance_offsets_must_include_zero():
    with pytest.raises(ParameterError):
        dominance_test(cir_market(), [0.5, 1.0], n_paths=2)


def test_n_paths_must_be_positive():
    with pytest.raises(ParameterError):
        estimate_F(cir_market(), n_paths=0)


def test_n_paths_must_be_an_integer():
    with pytest.raises(ParameterError, match="integer n_paths"):
        estimate_F(cir_market(), n_paths=2.5)
    with pytest.raises(ParameterError, match="integer n_paths"):
        identity_check(cir_market(), n_paths=2.5)


@pytest.mark.parametrize("horizon", [-5.0, 0.0, math.inf, -math.inf, math.nan])
def test_every_entry_point_rejects_a_horizon_not_finite_and_positive(horizon):
    # a grid has at least one step, so horizon 0 or -5 would otherwise run
    # one step and report the step as the horizon
    sc = get("gbm-growth").scenario
    for run in (
        lambda: estimate_F(sc, horizon=horizon, n_paths=4),
        lambda: identity_check(sc, horizon=horizon, n_paths=4),
        lambda: dominance_test(sc, [0.0], horizon=horizon, n_paths=4),
        lambda: equilibrium_check(sc, horizon=horizon, n_paths=4),
        lambda: check_battery(sc, [0.0], horizon=horizon, n_paths=4),
        lambda: check_battery(sc, [0.0], equilibrium_horizon=horizon, n_paths=4),
    ):
        with pytest.raises(ParameterError, match="finite horizon > 0"):
            run()


def test_estimate_metadata():
    scn = quiet_abm(mu=0.0)
    est = estimate_F(scn, n_paths=8, horizon=37.13)
    assert est.n_paths == 8
    # the horizon lands on the next even node of the engine's grid, whose
    # step divides the lag h = 1: 185.65 steps of 0.2 run 186, and 312.5 run 314
    dt = montecarlo._STEPS[ABM]
    assert est.horizon == pytest.approx(186 * dt, abs=1e-12)
    assert estimate_F(scn, n_paths=8).horizon == pytest.approx(62.8, abs=1e-12)


# ---------------------------------------------------------------------------
# node weights


@pytest.mark.parametrize("rho, dt", [(RHO, 0.2), (RHO, 0.05), (1e-9, 0.2)])
@pytest.mark.parametrize("n", [1, 5, 40, 41, 314])
def test_node_weights_are_exact_for_discounted_linear_integrands(n, rho, dt):
    # sum_i w_i e^(-rho t_i) (a + b t_i) against the integral over [0, T];
    # the trapezoid with the discount at the nodes misses it by O((rho dt)^2).
    # At rho dt = 2e-10 the weights come from their Taylor series
    a, b = 3.0, 0.7
    exact = quad(lambda t: math.exp(-rho * t) * (a + b * t), 0.0, n * dt,
                 epsabs=0.0, epsrel=1e-13)[0]
    t = dt * np.arange(n + 1)
    f = np.exp(-rho * t) * (a + b * t)
    rules = [montecarlo._trapezoid(rho, dt, n)]
    if n % 2 == 0:
        rules.append(montecarlo._extrapolated(rho, dt, n))
    for w in rules:
        assert float(np.sum(w * f)) == pytest.approx(exact, rel=1e-12)


def test_node_weights_take_out_the_running_maximums_sqrt_t_term():
    # E[M_t] of mu t + sigma W_t's running maximum (reflection principle)
    # starts like sigma sqrt(2 t / pi): a trapezoid sum of it errs in
    # dt^(3/2), and the extrapolated rule leaves the dt^2 term
    model = get("abm-power").scenario.model
    mu, sigma, T = model.mu, model.sigma, 40.0

    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def mean_max(t):
        a = mu * math.sqrt(t) / sigma
        return (mu * t * cdf(a) + sigma * math.sqrt(t) * phi(a)
                + sigma**2 / (2.0 * mu) * (cdf(a) - cdf(-a)))

    # t = s^2 makes the integrand smooth at 0
    exact = quad(lambda s: 2.0 * s * math.exp(-RHO * s * s) * mean_max(s * s),
                 0.0, math.sqrt(T), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    errors, trapezoid = {}, {}
    for dt in (0.4, 0.2, 0.1):
        n = round(T / dt)
        t = dt * np.arange(n + 1)
        f = np.exp(-RHO * t) * np.array([mean_max(x) for x in t])
        errors[dt] = float(np.sum(montecarlo._extrapolated(RHO, dt, n) * f)) - exact
        trapezoid[dt] = dt * float(np.sum(f) - 0.5 * (f[0] + f[-1])) - exact
    assert abs(errors[0.2]) <= 0.1 * abs(trapezoid[0.2])
    assert abs(errors[0.4]) > 2.0**1.5 * abs(errors[0.2])
    assert abs(errors[0.2]) > 2.0**1.5 * abs(errors[0.1])


# ---------------------------------------------------------------------------
# deterministic oracles


def test_idle_market_costs_nothing():
    # mu = 0 and k = d: the boundary sits below installed capital, so the
    # policy never moves and both cost functionals vanish.
    scn = quiet_abm(mu=0.0, k=5.0, sigma=1e-12)
    f = estimate_F(scn, n_paths=16, horizon=40.0)
    gj = identity_check(scn, n_paths=16, horizon=40.0).gj
    assert abs(f.mean) < 1e-12
    assert abs(gj.mean) < 1e-12
    assert f.tail_bound < 1e-12


def test_idle_market_marginal_revenue_is_zero():
    scn = quiet_abm(mu=0.0, k=5.0, sigma=1e-12)
    rep = equilibrium_check(scn, horizon=40.0, n_paths=8)
    assert rep.mode == "continuation"
    assert abs(rep.revenue) < 1e-8
    assert rep.passed  # zero is strictly below q0


def test_steady_gap_on_boundary():
    """mu = 0 starting exactly on the boundary: capital never moves and the
    demand gap equals q0 rho e^(rho h) forever, so F is one flat discounted
    quadratic with no investment term at all."""
    scn = quiet_abm(mu=0.0)
    g0 = scn.q0 * RHO * math.exp(RHO * scn.h)
    f = estimate_F(scn, n_paths=8, horizon=40.0)
    gj = identity_check(scn, n_paths=8, horizon=40.0).gj
    oracle = 0.5 * g0 * g0 * (1.0 - math.exp(-RHO * (f.horizon + scn.h))) / RHO
    assert f.mean == pytest.approx(oracle, rel=1e-5)
    assert gj.mean == pytest.approx(oracle, rel=1e-5)


def test_deterministic_growth_cost_oracle():
    """mu > 0 from the boundary: ramp loss on [0, h], then a constant gap,
    plus a steady investment stream.  Checked against the same integrals
    taken by the engine's rule (sharp) and in continuous time (bounds the
    discretization bias).  The rule is exact for the discount times a
    piecewise-linear integrand, so on the grid the ramp loss is its linear
    interpolant's integral, while the constant gap and the investment
    stream, uniform over each step, are exact."""
    mu, h, q0 = 2.0, 1.0, 0.5
    scn = quiet_abm(mu=mu)
    g0 = q0 * RHO * math.exp(RHO * h)
    f = estimate_F(scn, n_paths=4, horizon=40.0)
    gj = identity_check(scn, n_paths=4, horizon=40.0).gj
    T, dt = f.horizon, montecarlo._STEPS[ABM]
    nodes = dt * np.arange(round(h / dt) + 1)

    def ramp_loss(t):
        return 0.5 * (mu * (t - h) + g0) ** 2

    def discounted(integrand, a, b):
        return quad(lambda t: math.exp(-RHO * t) * integrand(t), a, b)[0]

    ramp = discounted(ramp_loss, 0.0, h)
    ramp_disc = sum(discounted(lambda t: np.interp(t, nodes, ramp_loss(nodes)), a, b)
                    for a, b in zip(nodes[:-1], nodes[1:]))
    steady = 0.5 * g0 * g0 * (math.exp(-RHO * h) - math.exp(-RHO * (T + h))) / RHO
    inv = q0 * mu * (1.0 - math.exp(-RHO * T)) / RHO

    assert f.mean == pytest.approx(ramp_disc + steady + inv, rel=2e-4)
    assert f.mean == pytest.approx(ramp + steady + inv, rel=4e-3)
    # both decompositions integrate the same deterministic path
    assert gj.mean == pytest.approx(f.mean, rel=1e-9)


def test_deterministic_marginal_revenue_on_boundary():
    # on the boundary the unit committed at t=0 earns exactly q0, up to the
    # discount factor lost to truncation
    scn = quiet_abm(mu=2.0)
    rep = equilibrium_check(scn, horizon=40.0, n_paths=4)
    assert rep.mode == "boundary"
    oracle = scn.q0 * (1.0 - math.exp(-RHO * 40.0))
    assert rep.revenue == pytest.approx(oracle, rel=1e-4)


def test_deterministic_shift_costs_grow_quadratically():
    """Shifting the boundary by eps costs (eps^2 / 2) e^(-rho h) / rho at
    leading order, the same on both sides: the linear terms cancel exactly
    when the unshifted rule is optimal.  Upward shifts match the law to
    discretization precision; downward shifts carry an O(eps^3) correction
    from the re-entry delay."""
    scn = quiet_abm(mu=2.0)
    T = 150.0
    rep = dominance_test(scn, [0.0, 0.5, -0.5, 1.0, -1.0], horizon=T, n_paths=2)
    assert rep.passed
    scale = (math.exp(-RHO * scn.h) - math.exp(-RHO * (T + scn.h))) / RHO
    deltas = {r.offset: r.delta for r in rep.rows}
    assert deltas[0.0] == 0.0
    for eps in (0.5, 1.0):
        law = 0.5 * eps * eps * scale
        assert deltas[eps] == pytest.approx(law, rel=1e-4)
        assert deltas[-eps] == pytest.approx(law, rel=0.04)
    assert deltas[1.0] > deltas[0.5] > 0.0
    assert deltas[-1.0] > deltas[-0.5] > 0.0


# ---------------------------------------------------------------------------
# the F = G + J identity


@pytest.mark.parametrize("make", [gbm_market, cir_market, abm_market])
def test_identity_per_model(make):
    rep = identity_check(make(), n_paths=1200, seed=21)
    assert rep.passed
    # the paired difference is mean zero by construction of the truncation
    assert abs(rep.diff_mean) <= 4.0 * rep.diff_se
    assert rep.f.n_paths == rep.gj.n_paths == 1200


def test_identity_is_policy_independent():
    # the reduction holds for any adapted rule, not just the optimum
    scn = cir_market()
    assert identity_check(scn, PolicySpec.shifted(2.0), horizon=40.0,
                          n_paths=600, seed=3).passed
    assert identity_check(scn, PolicySpec.constant(25.0), horizon=40.0,
                          n_paths=600, seed=3).passed
    assert identity_check(scn, horizon=40.0, n_paths=600, seed=3,
                          rule_scale=0.5).passed


def test_zero_capacity_cost_matches_moment_quadrature():
    """With k = 0 and the all-zero policy, F is half the discounted second
    moment of demand, available by quadrature of the closed-form moments.
    This pins the node-weight assembly and the lag splice against an oracle
    that never touches the simulator."""
    scn = cir_market(k=0.0)
    pol = PolicySpec.constant(0.0)
    f = estimate_F(scn, pol, horizon=30.0, n_paths=2000, seed=11)
    rep = identity_check(scn, pol, horizon=30.0, n_paths=2000, seed=11)
    gj = rep.gj
    oracle = 0.5 * quad(
        lambda t: math.exp(-RHO * t) * alpha0(scn.model, scn.d, t),
        0.0, f.horizon + scn.h, limit=200,
    )[0]
    assert abs(f.mean - oracle) <= 4.0 * f.std_error
    assert abs(gj.mean - oracle) <= 4.0 * gj.std_error
    assert rep.passed


# ---------------------------------------------------------------------------
# dominance


def test_dominance_stochastic():
    rep = dominance_test(cir_market(), [0.0, 1.0, -1.0, 3.0, -3.0],
                         horizon=80.0, n_paths=1200, seed=7)
    assert rep.passed
    zero = next(r for r in rep.rows if r.offset == 0.0)
    assert zero.delta == 0.0 and zero.paired_se == 0.0
    assert all(r.delta >= -3.0 * r.paired_se for r in rep.rows)


def test_dominance_negative_control():
    # a deliberately scaled-down boundary is beatable, and the test says so
    rep = dominance_test(cir_market(), [0.0, 1.0, -1.0, 3.0, -3.0],
                         horizon=80.0, n_paths=800, seed=7, rule_scale=0.5)
    assert not rep.passed
    assert min(r.delta for r in rep.rows) < 0.0


# ---------------------------------------------------------------------------
# equilibrium


def test_equilibrium_boundary_mode():
    rep = equilibrium_check(cir_market(), horizon=150.0, n_paths=1500, seed=5)
    assert rep.mode == "boundary"
    assert rep.passed
    assert rep.revenue == pytest.approx(rep.q0, abs=0.01)


def test_equilibrium_continuation_mode():
    # capital overhang: committed capacity far above the boundary, so the
    # marginal unit earns well under its price
    rep = equilibrium_check(gbm_market(k=2000.0), horizon=60.0,
                            n_paths=1000, seed=9)
    assert rep.mode == "continuation"
    assert rep.passed
    assert rep.revenue < rep.q0


def test_equilibrium_negative_control():
    rep = equilibrium_check(cir_market(), horizon=150.0, n_paths=800,
                            seed=5, rule_scale=0.5)
    assert not rep.passed
    # halving the rule drops it below installed capital: continuation mode,
    # but the starved market pays the marginal unit far more than q0
    assert rep.mode == "continuation"
    assert rep.revenue > rep.q0


# ---------------------------------------------------------------------------
# the shared verify pass


@pytest.mark.parametrize(
    "name, horizon, eq_horizon, rule_scale",
    [
        # the verify defaults: dominance at 150 years, equilibrium per model
        ("gbm-growth", 150.0, 200.0, 1.0),
        ("cir-fast", 150.0, 150.0, 1.0),
        ("cir-slow", 150.0, 150.0, 1.0),
        ("abm-power", 150.0, 100.0, 1.0),
        # the negative control's scaled rule
        ("cir-fast", 150.0, 150.0, 0.5),
        # an explicit --horizon, shorter than the identity's 5 / rho
        ("gbm-growth", 40.0, 40.0, 1.0),
    ],
)
def test_check_battery_equals_standalone_checks(name, horizon, eq_horizon, rule_scale):
    scn = get(name).scenario
    offsets = [-0.1 * scn.d, 0.0, 0.1 * scn.d]
    common = dict(n_paths=400, seed=17, rule_scale=rule_scale)
    ident, dom, eq = check_battery(
        scn, offsets, horizon=horizon, equilibrium_horizon=eq_horizon, **common
    )
    assert ident == identity_check(scn, **common)
    assert dom == dominance_test(scn, offsets, horizon=horizon, **common)
    assert eq == equilibrium_check(scn, horizon=eq_horizon, **common)


def test_check_battery_equals_standalone_checks_over_many_slices(monkeypatch):
    # 3000 paths on gbm-growth: one slice for the identity check alone at
    # one worker, and slices of 2881, 1440 or 720 rows on the battery's
    # 200-year grid at 1, 2 or 4 workers
    scn = get("gbm-growth").scenario
    offsets = [-0.1 * scn.d, 0.0, 0.1 * scn.d]
    common = dict(n_paths=3000, seed=5)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
    want = (
        identity_check(scn, **common),
        dominance_test(scn, offsets, horizon=150.0, **common),
        equilibrium_check(scn, horizon=200.0, **common),
    )
    for workers in (1, 2, 4):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        got = check_battery(scn, offsets, horizon=150.0, equilibrium_horizon=200.0, **common)
        assert got == want


_BATTERY = """
from buildlag.montecarlo import check_battery
from buildlag.scenarios import get
for name, horizon, eq_horizon in [("gbm-growth", 150.0, 200.0), ("abm-power", 40.0, 40.0)]:
    scn = get(name).scenario
    print(repr(check_battery(scn, [-0.1 * scn.d, 0.0, 0.1 * scn.d], horizon=horizon,
                             equilibrium_horizon=eq_horizon, n_paths=3000, seed=5)))
"""


def test_check_battery_does_not_depend_on_the_blas_thread_count():
    # the thread count is read when numpy loads, so each setting needs its
    # own process; BLAS products rounded the abm-power case differently at
    # 1 and 2 threads
    src = str(Path(montecarlo.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _BATTERY], env=env,
                             capture_output=True, text=True, check=True)
        reports.append(run.stdout)
    assert reports[0].startswith("(IdentityReport(")
    assert "variance_ratio=0." in reports[0]  # the control variates were fitted
    assert reports[0] == reports[1]


def test_row_sums_do_not_depend_on_the_rows_beside_them():
    rng = np.random.default_rng(0)
    m, w = rng.standard_normal((1000, 1601)), rng.standard_normal(1601)
    whole = montecarlo._row_sums(m, w)
    for cut in (1, 3, 63, 64, 101, 474, 999):
        parts = [montecarlo._row_sums(m[:cut], w), montecarlo._row_sums(m[cut:], w)]
        assert np.array_equal(np.concatenate(parts), whole)
    # a strided prefix, as a shorter request reads
    prefix = montecarlo._row_sums(m[:, :700], w[:700])
    assert np.array_equal(prefix, montecarlo._row_sums(m[:, :700].copy(), w[:700]))


def test_check_battery_draws_each_path_once_and_builds_one_table(monkeypatch):
    rows, tables = [], []
    path_matrix, table = montecarlo._path_matrix, Boundary.table

    def counting_path_matrix(model, d0, grid, seqs, *args):
        rows.append(len(seqs))
        return path_matrix(model, d0, grid, seqs, *args)

    def counting_table(self, *args, **kwargs):
        tables.append(args)
        return table(self, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_path_matrix", counting_path_matrix)
    monkeypatch.setattr(Boundary, "table", counting_table)
    scn = get("cir-fast").scenario
    check_battery(scn, [-0.1 * scn.d, 0.0, 0.1 * scn.d], horizon=150.0,
                  equilibrium_horizon=150.0, n_paths=200, seed=3)
    assert sum(rows) == 200
    assert len(tables) == 1


def test_shifted_policies_share_one_boundary_evaluation(monkeypatch):
    # one offset or five, one slice of 100 paths: the boundary is read once
    # per row block, however many policies shift it
    calls = []
    fast_rule = montecarlo.fast_rule

    def counting_fast_rule(scenario, boundary):
        rule = fast_rule(scenario, boundary)

        def counted(d):
            calls.append(np.shape(d))
            return rule(d)

        return counted

    monkeypatch.setattr(montecarlo, "fast_rule", counting_fast_rule)
    scn = get("cir-fast").scenario
    counts = []
    for offsets in ([0.0], [-0.2 * scn.d, -0.1 * scn.d, 0.0, 0.1 * scn.d, 0.2 * scn.d]):
        calls.clear()
        dominance_test(scn, offsets, horizon=20.0, n_paths=100, seed=3)
        counts.append(len(calls))
    assert counts == [len(demand._row_blocks(100))] * 2


def _recording_committed(monkeypatch):
    # committed(k) is the engine's committed capacity of each of k
    # requests, in the order served, rmaxes the running maxima it sampled,
    # and calls each (policy, capacity) the engine formed.  One slice of
    # paths is served block by block, each block every request in turn, so
    # request i's blocks are calls i, i + k, ...
    calls, rmaxes = [], []
    commit, path_matrix = montecarlo._committed, montecarlo._path_matrix

    def recording_committed(policy, *args):
        C = commit(policy, *args)
        calls.append((policy, C.copy()))
        return C

    def recording_path_matrix(*args):
        vals, rmax = path_matrix(*args)
        rmaxes.append(rmax.copy())
        return vals, rmax

    def committed(k):
        assert len(calls) % k == 0
        return [np.concatenate([C for _, C in calls[i::k]]) for i in range(k)]

    monkeypatch.setattr(montecarlo, "_committed", recording_committed)
    monkeypatch.setattr(montecarlo, "_path_matrix", recording_path_matrix)
    return committed, rmaxes, calls


@pytest.mark.parametrize("rule_scale", [1.0, 0.5, 0.999])
@pytest.mark.parametrize("name", ["gbm-growth", "cir-fast", "cir-slow", "abm-power"])
def test_each_policy_is_the_reflected_shifted_rule_bit_for_bit(name, rule_scale, monkeypatch):
    # one running maximum of the rule per slice serves every offset of
    # verify's dominance check: each committed capacity must equal
    # reflect(rule(running max) + offset, c0) exactly
    committed, rmaxes, _ = _recording_committed(monkeypatch)
    scn = get(name).scenario
    offsets, _, _ = check_plan(scn)
    dominance_test(scn, offsets, horizon=20.0, n_paths=40, seed=9, rule_scale=rule_scale)
    (rmax,) = rmaxes
    rule = montecarlo._prepare(scn, rule_scale)
    for C, e in zip(committed(len(offsets)), offsets):
        assert C.shape[0] == 40
        want = reflect(rule(rmax[:, : C.shape[1]]) + e, scn.committed_start)
        assert C.tobytes() == want.tobytes()


@pytest.mark.parametrize("rule_scale", [1.0, 0.5])
@pytest.mark.parametrize("name", ["gbm-growth", "cir-fast", "cir-slow", "abm-power"])
def test_each_battery_request_is_the_reflected_shifted_rule_bit_for_bit(
        name, rule_scale, monkeypatch):
    # verify's plan in one batch: identity, dominance's offset 0 and
    # equilibrium price the optimal policy at different horizons.  Each
    # request's committed capacity must equal reflect(rule(running max) +
    # offset, c0) on its own prefix, exactly.  The paths fit one row block,
    # so every capacity the engine forms covers all of them.
    n_paths = demand._BLOCK
    _, rmaxes, calls = _recording_committed(monkeypatch)
    served, run = [], montecarlo._run

    def recording_run(scenario, base, requests, *args):
        out = run(scenario, base, requests, *args)
        served.extend((r.policy, res.horizon) for r, res in zip(requests, out))
        return out

    monkeypatch.setattr(montecarlo, "_run", recording_run)
    scn = get(name).scenario
    offsets, horizon, eq_horizon = check_plan(scn)
    check_battery(scn, offsets, horizon=horizon, equilibrium_horizon=eq_horizon,
                  n_paths=n_paths, seed=9, rule_scale=rule_scale)
    (rmax,) = rmaxes
    assert len({t for p, t in served if p == PolicySpec.optimal()}) >= 2
    rule = montecarlo._prepare(scn, rule_scale)
    lag = max(1, round(scn.h / montecarlo._STEPS[type(scn.model)]))
    dt = scn.h / lag
    for policy, t in served:
        n = round(t / dt)
        # the narrowest capacity formed for the policy that covers the request
        C = min((C for p, C in calls if p == policy and C.shape[1] > n),
                key=lambda C: C.shape[1])
        assert C.shape[0] == n_paths
        want = reflect(rule(rmax[:, : n + 1]) + policy.offset, scn.committed_start)
        assert C[:, : n + 1].tobytes() == want.tobytes()


@pytest.mark.parametrize("below", [True, False])
def test_constant_policy_is_the_reflected_constant(below, monkeypatch):
    committed, _, _ = _recording_committed(monkeypatch)
    scn = cir_market()
    level = scn.committed_start + (-3.0 if below else 3.0)
    estimate_F(scn, PolicySpec.constant(level), horizon=20.0, n_paths=40, seed=9)
    (C,) = committed(1)
    assert C.shape[0] == 40
    want = reflect(np.full(C.shape, level), scn.committed_start)
    assert C.tobytes() == want.tobytes()


# sha256 of repr(check_battery(...)) at 400 paths with verify's offsets and
# horizons: the engine's reports are pinned to the bit
_BATTERY_DIGESTS = {
    "gbm-growth": "f065d6028b78da12481eb234ea4c6d8dd6532779c2afac0a7f15515823c5fa79",
    "cir-fast": "3ea4dae1f99d7f5ea8376c31be016edb20436bf1ce939bd774b8d8ecec0ade0d",
    "cir-slow": "1d1c4a65d2f97f65b4699db6cb35b967b6027bee56030203a9b008fc7f236d9f",
    "abm-power": "0b47a86d047cb5c2c1c20d377eebff0515c287ae7afe3f1e5aeb57437be223ca",
}


@pytest.mark.parametrize("name", list(_BATTERY_DIGESTS))
def test_check_battery_reports_are_pinned(name):
    scn = get(name).scenario
    offsets, horizon, eq_horizon = check_plan(scn)
    reports = check_battery(scn, offsets, horizon=horizon, equilibrium_horizon=eq_horizon,
                            n_paths=400, seed=11)
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == _BATTERY_DIGESTS[name]


@pytest.mark.parametrize("block", [1, 7, 10**6])
def test_check_battery_reports_do_not_depend_on_the_block_size(block, monkeypatch):
    # the passes after the draws run on row blocks; at one row, at a size
    # that leaves a ragged last block, and at one block a slice, every
    # report stays pinned
    monkeypatch.setattr(demand, "_BLOCK", block)
    for name in _BATTERY_DIGESTS:
        test_check_battery_reports_are_pinned(name)


def test_serving_a_slice_holds_few_slice_matrices(monkeypatch):
    # one worker, one full slice of 949 paths on the 3161-node grid.  The
    # slice's values and running maximum fill one buffer pair, the draws
    # included, and the rule's levels overwrite the running maximum, so the
    # peak is the pair plus block-sized temporaries.  Fresh matrices for the
    # CIR draws and the rule's copy of its input and its output peak at 3.9
    # slice matrices here.
    monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
    scn = get("cir-fast").scenario
    offsets, horizon, _ = check_plan(scn)
    slice_bytes = 949 * 3161 * 8
    tracemalloc.start()
    try:
        dominance_test(scn, offsets, horizon=horizon, n_paths=949, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * slice_bytes


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_slices_reuse_one_buffer_pair_per_worker(workers, monkeypatch):
    # 600 years on gbm-growth, 1000 paths: 3041 nodes at dt 0.2, so 2, 3
    # or 5 slices at 1, 2 or 4 workers.  Each slice's values and running
    # maximum are views of one of min(workers, slices) buffer pairs.
    seen = []
    path_matrix = montecarlo._path_matrix

    def recording_path_matrix(*args):
        vals, rmax = path_matrix(*args)
        seen.append((vals, rmax))
        return vals, rmax

    monkeypatch.setattr(montecarlo, "_path_matrix", recording_path_matrix)
    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
    estimate_F(get("gbm-growth").scenario, horizon=600.0, n_paths=1000, seed=1)
    pairs = []
    for vals, rmax in seen:
        assert not np.shares_memory(vals, rmax)
        owners = [p for p in pairs if np.shares_memory(vals, p[0])]
        if not owners:
            pairs.append((vals, rmax))
            continue
        (owner,) = owners
        assert np.shares_memory(rmax, owner[1])
    assert len(seen) == {1: 2, 2: 3, 4: 5}[workers]
    assert len(pairs) == min(workers, len(seen))


# ---------------------------------------------------------------------------
# the threaded engine


def _checks_at(monkeypatch, workers, scn, offsets, **common):
    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
    return (
        identity_check(scn, **common),
        dominance_test(scn, offsets, **common),
        equilibrium_check(scn, **common),
        estimate_F(scn, PolicySpec.shifted(0.5), **common),
    )


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # 150 years on cir-fast: slices of 949, 474 or 316 rows at 1, 2 or 3
    # workers, so a path sits in another slice, at another row of it
    scn = get("cir-fast").scenario
    offsets = [-0.1 * scn.d, 0.0, 0.1 * scn.d]
    common = dict(horizon=150.0, n_paths=2000, seed=23)
    one = _checks_at(monkeypatch, 1, scn, offsets, **common)
    assert one[3].tail_bound > 0.0
    assert one[0].f.variance_ratio < 1.0  # the control variates were fitted
    for workers in (2, 3):
        assert _checks_at(monkeypatch, workers, scn, offsets, **common) == one


def test_more_workers_than_cores_with_frequent_switches(monkeypatch):
    # 1200 years at 8 workers: the 64-row floor binds, so ten slices, up to
    # eight in flight at once, write disjoint rows of shared arrays
    scn = get("gbm-growth").scenario
    offsets = [-0.1 * scn.d, 0.0]
    common = dict(horizon=1200.0, n_paths=600, seed=4)

    def run(workers):
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        return identity_check(scn, **common), dominance_test(scn, offsets, **common)

    one = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = run(8)
    finally:
        sys.setswitchinterval(interval)
    assert many == one


def test_rule_runs_on_the_calling_thread(monkeypatch):
    threads = []
    fast_rule = montecarlo.fast_rule

    def recording_fast_rule(scenario, boundary):
        rule = fast_rule(scenario, boundary)

        def recorded(d):
            threads.append(threading.get_ident())
            return rule(d)

        return recorded

    monkeypatch.setattr(montecarlo, "fast_rule", recording_fast_rule)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
    scn = get("cir-fast").scenario
    dominance_test(scn, [0.0, 0.1 * scn.d], horizon=150.0, n_paths=1200, seed=5)
    # slices of 316 rows at 3 workers, three of them and one of 252: one
    # call per row block of each
    assert len(threads) == sum(len(demand._row_blocks(n)) for n in (316, 316, 316, 252))
    assert set(threads) == {threading.get_ident()}


def test_slices_of_all_workers_share_one_budget(monkeypatch):
    # 150 years at 4 workers: 3M cells / (791 * 4) is 948 rows a slice,
    # above the 64-row floor
    seen = []
    path_matrix = montecarlo._path_matrix

    def recording_path_matrix(model, d0, grid, seqs, *args):
        seen.append((grid.n_steps, len(seqs)))
        return path_matrix(model, d0, grid, seqs, *args)

    monkeypatch.setattr(montecarlo, "_path_matrix", recording_path_matrix)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 4)
    scn = get("gbm-growth").scenario
    dominance_test(scn, [0.0, 0.1 * scn.d], horizon=150.0, n_paths=1000, seed=1)
    (n_tot,) = {n for n, _ in seen}
    limit = 3_000_000 // ((n_tot + 1) * 4)
    assert limit > 64
    rows = [r for _, r in seen]
    assert sum(rows) == 1000
    assert max(rows) <= limit
    assert len(rows) == math.ceil(1000 / limit)


# ---------------------------------------------------------------------------
# control variates


def _functionals(scn, wants, horizon, n_paths, seed):
    req = montecarlo._Request(PolicySpec.optimal(), horizon, wants)
    base = montecarlo._prepare(scn)
    (res,) = montecarlo._run(scn, base, [req], n_paths, seed)
    return res


@pytest.mark.parametrize("make", [gbm_market, cir_market, abm_market])
def test_control_means_match_their_closed_forms(make):
    # the controls' means are node sums of the discounted closed-form
    # moments E[D_t] and E[D_t^2], so they match quadrature to the rule's
    # O(dt^2); the samplers are exact at the nodes, so the sampled controls
    # scatter about those means
    scn = make()
    res = _functionals(scn, ("F",), 20.0, 2000, 5)
    for row, moment in enumerate((beta0, alpha0)):
        exact = quad(lambda t: math.exp(-RHO * t) * moment(scn.model, scn.d, t),
                     0.0, 20.0, limit=200)[0]
        assert res.controls.means[row] == pytest.approx(exact, rel=1e-5)
        x = res.controls.values[row]
        assert abs(np.mean(x) - exact) <= 4.0 * np.std(x, ddof=1) / math.sqrt(x.size)


@pytest.mark.parametrize("make", [gbm_market, cir_market, abm_market])
def test_adjusted_mean_agrees_with_the_plain_mean_over_seeds(make):
    # the adjustment -b (mean X - E[X]) is mean-zero noise: per seed it stays
    # within 4 plain SE, and over ten seeds its mean within 3 of its SE
    for want in ("F", "GJ", "rev_h"):
        gaps = []
        for seed in range(10):
            res = _functionals(make(), (want,), 20.0, 400, seed)
            per_path = getattr(res, want)
            adjusted, adjusted_se, ratio = montecarlo._estimate(per_path, res.controls)
            plain, plain_se, _ = montecarlo._estimate(per_path, None)
            assert adjusted_se < plain_se and ratio < 1.0
            assert abs(adjusted - plain) <= 4.0 * plain_se
            gaps.append((adjusted - plain) / plain_se)
        assert abs(np.mean(gaps)) <= 3.0 * np.std(gaps, ddof=1) / math.sqrt(len(gaps)), want


@pytest.mark.parametrize("n_paths", [1, 2, 3])
def test_below_four_paths_the_estimate_is_the_plain_mean(n_paths):
    # two controls need p + 2 = 4 paths; with fewer the coefficient is 0
    scn = cir_market()
    per_path = _functionals(scn, ("F",), 20.0, n_paths, 3).F
    est = estimate_F(scn, horizon=20.0, n_paths=n_paths, seed=3)
    assert est.mean == float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    assert est.std_error == se
    assert est.variance_ratio == 1.0
    assert estimate_F(scn, horizon=20.0, n_paths=4, seed=3).variance_ratio != 1.0


def test_collinear_or_constant_controls_are_dropped():
    x = np.arange(10.0)
    y = 3.0 * x + np.sin(x)
    # the second control is twice the first: one control, n - 2 degrees of freedom
    controls = montecarlo._Controls(np.array([x, 2.0 * x]), np.array([4.0, 8.0]))
    mean, se, _ = montecarlo._estimate(y, controls)
    xc, yc = x - x.mean(), y - y.mean()
    b = np.sum(xc * yc) / np.sum(xc * xc)
    assert mean == pytest.approx(y.mean() - b * 0.5, rel=1e-12)
    assert se == pytest.approx(math.sqrt(np.sum((yc - b * xc) ** 2) / 8 / 10), rel=1e-12)
    # controls that do not vary fit nothing: the plain estimate
    flat = montecarlo._Controls(np.ones((2, 10)), np.array([1.0, 1.0]))
    assert montecarlo._estimate(y, flat) == pytest.approx(montecarlo._estimate(y, None))


# ---------------------------------------------------------------------------
# truncation accounting


def test_truncation_guard_trips_on_growing_demand():
    # the 1% rule of the cost command's --tail-check, which then exits 3
    # (tests/test_cli.py)
    scn = gbm_market()
    rep = identity_check(scn, n_paths=200, seed=1)
    for est in (rep.f, rep.gj, estimate_F(scn, n_paths=200, seed=1)):
        assert est.tail_bound > 0.01 * abs(est.mean)


def test_truncation_guard_accepts_mean_reverting_demand():
    scn = cir_market()
    rep = identity_check(scn, horizon=80.0, n_paths=200, seed=1)
    for est in (rep.f, rep.gj, estimate_F(scn, horizon=80.0, n_paths=200, seed=1)):
        assert est.tail_bound < 0.01 * abs(est.mean)


def test_tail_bound_decreases_with_horizon():
    scn = cir_market()
    t30 = estimate_F(scn, horizon=30.0, n_paths=400, seed=3).tail_bound
    t60 = estimate_F(scn, horizon=60.0, n_paths=400, seed=3).tail_bound
    assert t30 > t60 > 0.0


@pytest.mark.parametrize("policy", [PolicySpec.constant(1e200), PolicySpec.shifted(1e308)])
@pytest.mark.parametrize("estimator", [estimate_F, identity_check])
def test_costs_out_of_float_range_raise_numerics_error(estimator, policy):
    # each path's cost overflows to inf: the estimate must not come back as
    # inf with a nan standard error, and numpy warns of nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="not finite"):
            estimator(get("cir-fast").scenario, policy, n_paths=5, seed=0)


def test_a_standard_error_out_of_float_range_raises_numerics_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="standard error"):
            montecarlo._se(np.array([1e200, -1e200, 3e200]))


# ---------------------------------------------------------------------------
# sampling mechanics


def test_same_seed_reproduces_bitwise():
    scn = cir_market()
    a = estimate_F(scn, horizon=30.0, n_paths=300, seed=42)
    b = estimate_F(scn, horizon=30.0, n_paths=300, seed=42)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_different_seeds_agree_statistically():
    scn = cir_market()
    a = estimate_F(scn, horizon=40.0, n_paths=800, seed=3)
    b = estimate_F(scn, horizon=40.0, n_paths=800, seed=4)
    assert a.mean != b.mean
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.std_error, b.std_error)


def test_standard_error_scales_with_paths():
    scn = cir_market()
    se_small = estimate_F(scn, horizon=30.0, n_paths=500, seed=13).std_error
    se_large = estimate_F(scn, horizon=30.0, n_paths=2000, seed=13).std_error
    assert se_small / se_large == pytest.approx(2.0, rel=0.25)


def test_single_step_lag():
    # h equal to one grid step exercises the shortest possible pipeline
    scn = Scenario(model=ABM(mu=1.0, sigma=0.5), rho=0.1, h=0.05,
                   q0=0.1, k=3.0, d=3.0)
    rep = identity_check(scn, n_paths=400, horizon=5.0, seed=2)
    assert rep.passed
