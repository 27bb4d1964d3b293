"""Monte Carlo cost estimators, identity, dominance, and equilibrium checks.

The sharpest oracles here are deterministic: with sigma driven to zero the
demand path, the policy, and every integral have closed forms, so the
estimators must reproduce them to discretization accuracy.  Stochastic
checks then run at modest path counts; the acceptance suite repeats them at
full size.
"""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

from buildlag import cli, montecarlo
from buildlag.boundary import Boundary
from buildlag.demand import ABM, CIR, GBM, alpha0
from buildlag.errors import ParameterError, TruncationError
from buildlag.montecarlo import (
    PolicySpec,
    check_battery,
    dominance_test,
    equilibrium_check,
    estimate_F,
    estimate_G_plus_J,
    identity_check,
)
from buildlag.policy import Scenario
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
    with pytest.raises(ParameterError):
        PolicySpec("clever")
    with pytest.raises(ParameterError):
        PolicySpec("custom")
    assert PolicySpec.optimal().kind == "optimal"
    assert PolicySpec.shifted(-2).offset == -2.0
    assert PolicySpec.constant(7).level == 7.0
    assert PolicySpec.custom(lambda d: d).fn is not None


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


def test_dominance_offsets_must_include_zero():
    with pytest.raises(ParameterError):
        dominance_test(cir_market(), [0.5, 1.0], n_paths=2)


def test_n_paths_must_be_positive():
    with pytest.raises(ParameterError):
        estimate_F(cir_market(), n_paths=0)


def test_estimate_metadata():
    scn = quiet_abm(mu=0.0)
    est = estimate_F(scn, n_paths=8, horizon=37.13)
    assert est.n_paths == 8
    # the horizon lands on the next grid node (dt = 0.05 here)
    assert est.horizon == pytest.approx(37.15, abs=1e-12)
    assert estimate_F(scn, n_paths=8).horizon == pytest.approx(5.0 / RHO)


# ---------------------------------------------------------------------------
# deterministic oracles


def test_idle_market_costs_nothing():
    # mu = 0 and k = d: the boundary sits below installed capital, so the
    # policy never moves and both cost functionals vanish.
    scn = quiet_abm(mu=0.0, k=5.0, sigma=1e-12)
    f = estimate_F(scn, n_paths=16, horizon=40.0)
    gj = estimate_G_plus_J(scn, n_paths=16, horizon=40.0)
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
    gj = estimate_G_plus_J(scn, n_paths=8, horizon=40.0)
    oracle = 0.5 * g0 * g0 * (1.0 - math.exp(-RHO * (f.horizon + scn.h))) / RHO
    assert f.mean == pytest.approx(oracle, rel=1e-5)
    assert gj.mean == pytest.approx(oracle, rel=1e-5)


def test_deterministic_growth_cost_oracle():
    """mu > 0 from the boundary: ramp loss on [0, h], then a constant gap,
    plus a steady investment stream.  Checked against quadrature with the
    investment Stieltjes sum taken both discretely (sharp) and in continuous
    time (bounds the discretization bias)."""
    mu, h, q0 = 2.0, 1.0, 0.5
    scn = quiet_abm(mu=mu)
    g0 = q0 * RHO * math.exp(RHO * h)
    f = estimate_F(scn, n_paths=4, horizon=40.0)
    gj = estimate_G_plus_J(scn, n_paths=4, horizon=40.0)
    T, dt = f.horizon, 0.05
    n_T = round(T / dt)

    ramp = quad(
        lambda t: math.exp(-RHO * t) * 0.5 * (mu * (t - h) + g0) ** 2, 0.0, h
    )[0]
    steady = 0.5 * g0 * g0 * (math.exp(-RHO * h) - math.exp(-RHO * (T + h))) / RHO
    inv_disc = q0 * mu * dt * float(np.sum(np.exp(-RHO * dt * np.arange(1, n_T + 1))))
    inv_cont = q0 * mu * (1.0 - math.exp(-RHO * T)) / RHO

    assert f.mean == pytest.approx(ramp + steady + inv_disc, rel=2e-4)
    assert f.mean == pytest.approx(ramp + steady + inv_cont, rel=4e-3)
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
    This pins the trapezoid assembly and the lag splice against an oracle
    that never touches the simulator."""
    scn = cir_market(k=0.0)
    pol = PolicySpec.constant(0.0)
    f = estimate_F(scn, pol, horizon=30.0, n_paths=2000, seed=11)
    gj = estimate_G_plus_J(scn, pol, horizon=30.0, n_paths=2000, seed=11)
    oracle = 0.5 * quad(
        lambda t: math.exp(-RHO * t) * alpha0(scn.model, scn.d, t),
        0.0, f.horizon + scn.h, limit=200,
    )[0]
    assert abs(f.mean - oracle) <= 4.0 * f.std_error
    assert abs(gj.mean - oracle) <= 4.0 * gj.std_error
    assert identity_check(scn, pol, horizon=30.0, n_paths=2000, seed=11).passed


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
    # five offsets, one block of paths: the boundary is read once
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
    offsets = [-0.2 * scn.d, -0.1 * scn.d, 0.0, 0.1 * scn.d, 0.2 * scn.d]
    dominance_test(scn, offsets, horizon=20.0, n_paths=100, seed=3)
    assert len(calls) == 1


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
    # 150 years on cir-fast: blocks of 949, 949 and 102 rows, each with a
    # row left over from the groups of four a matrix-vector product takes
    scn = get("cir-fast").scenario
    offsets = [-0.1 * scn.d, 0.0, 0.1 * scn.d]
    common = dict(horizon=150.0, n_paths=2000, seed=23)
    one = _checks_at(monkeypatch, 1, scn, offsets, **common)
    assert one[3].tail_bound > 0.0
    for workers in (2, 3):
        assert _checks_at(monkeypatch, workers, scn, offsets, **common) == one


def test_more_workers_than_cores_with_frequent_switches(monkeypatch):
    # 600 years: blocks of 246, 246 and 108 rows, so five slices, all in
    # flight at once, write disjoint rows of shared arrays
    scn = get("gbm-growth").scenario
    offsets = [-0.1 * scn.d, 0.0]
    common = dict(horizon=600.0, n_paths=600, seed=4)

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


def test_rule_and_custom_policy_run_on_the_calling_thread(monkeypatch):
    threads = []
    fast_rule = montecarlo.fast_rule

    def recording_fast_rule(scenario, boundary):
        rule = fast_rule(scenario, boundary)

        def recorded(d):
            threads.append(threading.get_ident())
            return rule(d)

        return recorded

    def custom(d):
        threads.append(threading.get_ident())
        return 1.1 * d

    monkeypatch.setattr(montecarlo, "fast_rule", recording_fast_rule)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
    scn = get("cir-fast").scenario
    common = dict(horizon=150.0, n_paths=1200, seed=5)
    dominance_test(scn, [0.0, 0.1 * scn.d], **common)
    estimate_F(scn, PolicySpec.custom(custom), **common)
    # blocks of 949 and 251 rows, two slices each: four calls per check
    assert len(threads) == 8
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("rows", [1, 63, 64, 100, 127, 128, 251, 721, 949, 2126])
def test_halves_cut_at_a_multiple_of_64_and_cover_the_block(rows):
    cuts = montecarlo._halves(rows)
    assert len(cuts) == (1 if rows < 128 else 2)
    assert cuts[0].start == 0 and cuts[-1].stop == rows
    for a, b in zip(cuts, cuts[1:]):
        assert a.stop == b.start
        assert b.start % 64 == 0
        assert min(a.stop - a.start, b.stop - b.start) >= 64


# ---------------------------------------------------------------------------
# truncation accounting


def test_truncation_guard_trips_on_growing_demand():
    scn = gbm_market()
    with pytest.raises(TruncationError):
        estimate_F(scn, tail_check=True, n_paths=200, seed=1)
    with pytest.raises(TruncationError):
        estimate_G_plus_J(scn, tail_check=True, n_paths=200, seed=1)


def test_truncation_guard_accepts_mean_reverting_demand():
    est = estimate_F(cir_market(), tail_check=True, horizon=80.0,
                     n_paths=200, seed=1)
    assert est.tail_bound < 0.01 * est.mean


def test_tail_bound_decreases_with_horizon():
    scn = cir_market()
    t30 = estimate_F(scn, horizon=30.0, n_paths=400, seed=3).tail_bound
    t60 = estimate_F(scn, horizon=60.0, n_paths=400, seed=3).tail_bound
    assert t30 > t60 > 0.0


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


def test_milstein_scheme_tracks_exact():
    scn = cir_market()
    m = estimate_F(scn, horizon=30.0, n_paths=800, seed=3, scheme="milstein")
    e = estimate_F(scn, horizon=30.0, n_paths=800, seed=3)
    assert m.mean == pytest.approx(e.mean, rel=0.03)


def test_running_max_refinement_choices_agree():
    scn = cir_market()
    g = estimate_F(scn, horizon=30.0, n_paths=800, seed=3, max_refine="grid")
    b = estimate_F(scn, horizon=30.0, n_paths=800, seed=3, max_refine="bridge")
    d = estimate_F(scn, horizon=30.0, n_paths=800, seed=3)
    assert b.mean == d.mean  # bridge is the default
    assert g.mean == pytest.approx(b.mean, rel=0.01)


def test_single_step_lag():
    # h equal to one grid step exercises the shortest possible pipeline
    scn = Scenario(model=ABM(mu=1.0, sigma=0.5), rho=0.1, h=0.05,
                   q0=0.1, k=3.0, d=3.0)
    rep = identity_check(scn, n_paths=400, horizon=5.0, seed=2)
    assert rep.passed
