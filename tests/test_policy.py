"""Singular-control simulation: reflection at the boundary, the lag
identity between committed and installed capacity, and pipeline handling."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from buildlag.boundary import Boundary
from buildlag.demand import ABM, CIR, GBM, DemandPath, TimeGrid, sample_path, sample_paths
from buildlag.errors import GridError, ParameterError
from buildlag.policy import (
    Pipeline,
    Scenario,
    Trajectory,
    committed_identity_check,
    increments,
    lag_steps,
    pipeline_levels,
    reflect,
    simulate,
)

RHO = 0.08


def gbm_scenario(**kw):
    args = dict(
        model=GBM(0.03, 0.1), rho=RHO, h=1.0, q0=5.0, k=1000.0, d=1000.0
    )
    args.update(kw)
    return Scenario(**args)


def abm_scenario(**kw):
    args = dict(
        model=ABM(300.0, 600.0), rho=RHO, h=8.0, q0=5.0, k=10_000.0, d=10_000.0
    )
    args.update(kw)
    return Scenario(**args)


def cir_scenario(**kw):
    args = dict(model=CIR(0.8, 20.0, 0.2), rho=RHO, h=8.0, q0=1.0, k=10.0, d=10.0)
    args.update(kw)
    return Scenario(**args)


# ---------------------------------------------------------------------------
# Pipeline and Scenario validation
# ---------------------------------------------------------------------------


def test_pipeline_validation():
    Pipeline((-2.0, -1.0), (3.0, 0.0))
    with pytest.raises(ParameterError):
        Pipeline((-1.0, -2.0), (1.0, 1.0))  # not increasing
    with pytest.raises(ParameterError):
        Pipeline((-1.0,), (-0.5,))  # negative size
    with pytest.raises(ParameterError):
        Pipeline((0.0,), (1.0,))  # delivery time must be strictly before 0
    with pytest.raises(ParameterError):
        Pipeline((-1.0, -0.5), (1.0,))  # length mismatch


def test_pipeline_total():
    assert Pipeline().total == 0.0
    assert Pipeline((-3.0, -1.0), (2.0, 5.0)).total == 7.0


def test_scenario_validation():
    with pytest.raises(ParameterError):
        gbm_scenario(h=0.0)
    with pytest.raises(ParameterError):
        gbm_scenario(q0=0.0)
    with pytest.raises(ParameterError):
        gbm_scenario(theta=0.0)
    with pytest.raises(ParameterError):
        gbm_scenario(eta=-1.0)
    with pytest.raises(ParameterError):
        gbm_scenario(d=-10.0)  # outside (0, inf)
    with pytest.raises(ParameterError):
        # order placed before -h cannot still be in the pipeline
        gbm_scenario(pipeline=Pipeline((-1.5,), (1.0,)))


@pytest.mark.parametrize(
    "field, value",
    [("k", math.nan), ("h", math.inf), ("rho", math.inf), ("q0", math.inf),
     ("eta", math.nan), ("theta", math.inf)],
)
def test_scenario_rejects_non_finite(field, value):
    with pytest.raises(ParameterError, match="finite"):
        gbm_scenario(**{field: value})


def test_pipeline_rejects_non_finite():
    with pytest.raises(ParameterError, match="finite"):
        Pipeline((-1.0,), (math.nan,))
    with pytest.raises(ParameterError, match="finite"):
        Pipeline((-math.inf,), (1.0,))


def test_committed_start_includes_pipeline():
    sc = abm_scenario(pipeline=Pipeline((-6.0, -2.0), (30.0, 12.0)))
    assert sc.committed_start == pytest.approx(10_042.0)


def test_lag_steps():
    grid = TimeGrid(0.0, 0.05, 100)
    assert lag_steps(grid, 1.0) == 20
    assert lag_steps(grid, 8.0) == 160
    with pytest.raises(GridError):
        lag_steps(grid, 0.13)
    # the simulation clock starts at 0, and no grid starts elsewhere
    with pytest.raises(ParameterError, match="t0"):
        TimeGrid(1.0, 0.05, 10)


def test_pipeline_levels_deliver_at_order_time_plus_h():
    pipe = Pipeline((-6.0, -2.0), (30.0, 12.0))
    t = np.array([0.0, 1.0, 2.0 - 1e-9, 2.0, 5.9, 6.0, 7.9])
    lev = pipeline_levels(100.0, pipe, 8.0, t)
    # the -6 order arrives at t=2, the -2 order at t=6
    np.testing.assert_allclose(lev, [100, 100, 100, 130, 130, 142, 142])


# ---------------------------------------------------------------------------
# Reflection and irreversibility
# ---------------------------------------------------------------------------


def _simulated(sc, seed=4, n_steps=400, dt=0.05, n_paths=None):
    """One path, or a batch of n_paths paths as a 2-D DemandPath."""
    grid = TimeGrid(0.0, dt, n_steps)
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    if n_paths is None:
        path = sample_path(sc.model, sc.d, grid, seed)
    else:
        path = DemandPath(grid, *sample_paths(sc.model, sc.d, grid, seed, n_paths))
    return bound, path, simulate(sc, bound, path)


@pytest.mark.parametrize(
    "sc, n_paths",
    [
        pytest.param(gbm_scenario(), None, id="gbm"),
        pytest.param(abm_scenario(), None, id="abm"),
        pytest.param(cir_scenario(), None, id="cir"),
        pytest.param(abm_scenario(pipeline=Pipeline((-6.0,), (30.0,))), 4, id="abm-batch"),
    ],
)
def test_trajectory_invariants(sc, n_paths):
    bound, path, traj = _simulated(sc, n_paths=n_paths)
    assert np.all(traj.investment_increments >= 0.0)
    assert np.all(np.diff(traj.committed) >= 0.0)
    assert np.all(np.diff(traj.installed) >= 0.0)
    assert np.all(traj.installed >= 0.0)

    # committed stays at or above the boundary of the running max, touching
    # it whenever investment flows (complementary slackness)
    target = bound.eval(path.running_max)
    assert np.all(traj.committed >= target - 1e-9)
    moving = traj.investment_increments > 1e-12
    np.testing.assert_allclose(
        traj.committed[moving], target[moving], rtol=1e-12, atol=1e-9
    )

    assert committed_identity_check(traj, sc.h) == 0.0

    np.testing.assert_allclose(
        traj.price, sc.eta + sc.theta * (traj.demand - traj.installed)
    )


@pytest.mark.parametrize(
    "sc, n_steps",
    [
        pytest.param(gbm_scenario(), 400, id="gbm"),
        pytest.param(abm_scenario(), 400, id="abm"),
        pytest.param(cir_scenario(), 400, id="cir"),
        pytest.param(gbm_scenario(pipeline=Pipeline((-0.5,), (40.0,))), 400, id="pipeline"),
        # 5 years on an 8-year lag: installed capacity is all pipeline
        pytest.param(abm_scenario(pipeline=Pipeline((-6.0,), (30.0,))), 100, id="short"),
    ],
)
def test_batch_simulate_equals_row_by_row(sc, n_steps):
    bound, path, batch = _simulated(sc, seed=7, n_steps=n_steps, n_paths=3)
    assert batch.committed.shape == (3, n_steps + 1)
    for i in range(3):
        row = simulate(sc, bound, DemandPath(path.grid, path.values[i], path.running_max[i]))
        for f in fields(Trajectory):
            if f.name != "grid":
                assert np.array_equal(getattr(batch, f.name)[i], getattr(row, f.name)), f.name


def test_reflect_and_increments_on_a_batch():
    levels = np.random.default_rng(3).normal(size=(4, 50)).cumsum(axis=1)
    before = levels.copy()
    c0 = 0.5
    committed = reflect(levels, c0)
    dI = increments(committed, c0)
    np.testing.assert_array_equal(levels, before)  # a new array; the input is left alone
    for i in range(4):
        assert np.array_equal(committed[i], reflect(levels[i], c0))
        assert np.array_equal(dI[i], increments(committed[i], c0))
    assert np.all(committed >= np.maximum(c0, levels))
    assert np.all(dI >= 0.0)
    np.testing.assert_allclose(c0 + np.cumsum(dI, axis=1), committed, rtol=1e-12, atol=1e-12)


def test_initial_jump_iff_boundary_above_start():
    sc = abm_scenario()  # chat(10000) = 11873 > 10000: jump at t=0
    bound, path, traj = _simulated(sc)
    assert traj.investment_increments[0] == pytest.approx(
        float(bound.eval(sc.d)) - sc.k
    )
    assert traj.committed[0] == pytest.approx(float(bound.eval(sc.d)))

    high = abm_scenario(k=100_000.0)  # far above anything the path reaches
    _, _, lazy = _simulated(high)
    assert np.all(lazy.investment_increments == 0.0)
    assert np.all(lazy.committed == 100_000.0)


def test_installed_is_lagged_committed():
    sc = gbm_scenario(pipeline=Pipeline((-0.5,), (40.0,)))
    grid = TimeGrid(0.0, 0.05, 300)
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    path = sample_path(sc.model, sc.d, grid, seed=8)
    traj = simulate(sc, bound, path)
    lag = lag_steps(grid, sc.h)
    np.testing.assert_array_equal(traj.installed[lag:], traj.committed[:-lag])
    # before the lag elapses, installed capacity is pipeline-driven: the
    # -0.5 order lands at t = 0.5
    t = grid.times()[:lag]
    want = np.where(t >= 0.5, sc.k + 40.0, sc.k)
    np.testing.assert_array_equal(traj.installed[:lag], want)


def test_identity_checker_detects_corruption():
    sc = gbm_scenario()
    _, _, traj = _simulated(sc)
    shifted = np.roll(traj.installed, 1)
    bad = type(traj)(
        grid=traj.grid,
        demand=traj.demand,
        committed=traj.committed,
        installed=shifted,
        investment_increments=traj.investment_increments,
        price=traj.price,
    )
    assert committed_identity_check(bad, sc.h) > 0.0


def test_identity_checker_reads_every_path_of_a_batch():
    sc = gbm_scenario()
    _, _, traj = _simulated(sc, n_paths=3)
    installed = traj.installed.copy()
    installed[2, -1] += 1.0
    assert committed_identity_check(replace(traj, installed=installed), sc.h) == pytest.approx(1.0)


def test_incompatible_grid_rejected():
    sc = gbm_scenario(h=1.0)
    grid = TimeGrid(0.0, 0.3, 50)  # 1.0 / 0.3 is not an integer
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    path = sample_path(sc.model, sc.d, grid, seed=0)
    with pytest.raises(GridError):
        simulate(sc, bound, path)


def test_adaptedness_of_committed_path():
    """C up to node j must not depend on demand after j: recompute the
    policy on a path whose future is replaced by a different continuation
    and compare prefixes."""
    sc = gbm_scenario()
    grid = TimeGrid(0.0, 0.05, 200)
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    a = sample_path(sc.model, sc.d, grid, seed=1)
    b_values = a.values.copy()
    b_values[101:] = a.values[101:] * 0.5 + 3.0  # tamper with the future
    b = DemandPath(
        grid=grid,
        values=b_values,
        running_max=np.maximum.accumulate(b_values),
    )
    ta = simulate(sc, bound, a)
    tb = simulate(sc, bound, b)
    np.testing.assert_array_equal(ta.committed[:101], tb.committed[:101])


def test_committed_tracks_forecast_in_deterministic_limit():
    """sigma -> 0, q0 = 0: the boundary collapses to the lag-h forecast
    beta0, so committed capacity equals d + mu (t + h) once it binds."""
    mu = 2.0
    sc = Scenario(
        model=ABM(mu, 1e-9), rho=RHO, h=1.0, q0=1e-12, k=5.0, d=5.0
    )
    grid = TimeGrid(0.0, 0.05, 200)
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    path = sample_path(sc.model, sc.d, grid, seed=2)
    traj = simulate(sc, bound, path)
    t = grid.times()
    np.testing.assert_allclose(traj.committed, 5.0 + mu * (t + 1.0), rtol=1e-6)
