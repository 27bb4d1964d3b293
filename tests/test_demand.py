"""Demand models: validation, moments, and exact path sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from buildlag import demand
from buildlag.demand import (
    ABM,
    CIR,
    GBM,
    TimeGrid,
    alpha0,
    beta0,
    beta_resolvent,
    drift_affine,
    in_state_space,
    sample_path,
    sample_paths,
    validate,
)
from buildlag.demand import _SeedWords, _stream_seeds
from buildlag.errors import ParameterError
from buildlag.scenarios import get

MODELS = [ABM(0.3, 0.8), GBM(0.03, 0.2), CIR(0.8, 20.0, 0.2)]
IDS = [type(m).__name__ for m in MODELS]
D0 = {ABM: 2.0, GBM: 5.0, CIR: 10.0}


def _d0(model):
    return D0[type(model)]


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_validate_reference_gbm_is_admissible():
    validate(GBM(mu=0.03, sigma=0.1), rho=0.08)


def test_validate_rejects_gbm_with_slow_discounting():
    # 0.08 <= 2*0.05 + 0.2^2
    with pytest.raises(ParameterError):
        validate(GBM(mu=0.05, sigma=0.2), rho=0.08)


def test_cir_constructor_rejects_feller_violation():
    with pytest.raises(ParameterError):
        CIR(gamma=0.1, delta=1.0, sigma=1.0)


def test_cir_reference_params_admissible():
    validate(CIR(gamma=0.8, delta=20.0, sigma=0.1), rho=0.08)


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_nonpositive_rho_rejected(model):
    with pytest.raises(ParameterError):
        validate(model, rho=0.0)


def test_sigma_must_be_positive():
    with pytest.raises(ParameterError):
        ABM(0.1, 0.0)
    with pytest.raises(ParameterError):
        GBM(0.1, -0.5)


@pytest.mark.parametrize("build", [lambda s: ABM(-1.0, s), lambda s: GBM(-0.01, s),
                                   lambda s: CIR(0.8, 20.0, s)], ids=["abm", "gbm", "cir"])
def test_sigma_needs_a_finite_square_and_inverse_square(build):
    # 1e-200 squares to 0, 1e-160 to a subnormal whose inverse is inf, and
    # 1e200 to inf; the boundary's constants divide by sigma^2
    for sigma in (1e-200, 1e-160, 1e200):
        with pytest.raises(ParameterError, match="sigma"):
            build(sigma)
    assert build(1e-150).sigma == 1e-150


def test_grid_steps_rejects_a_horizon_too_long_to_count():
    with pytest.raises(ParameterError, match="horizon 1e\\+308 at dt=0.05"):
        demand.grid_steps(1e308, 0.05)
    with pytest.raises(ParameterError, match="horizon"):
        demand.grid_steps(1e300, 1e-10)
    assert demand.grid_steps(1e17, 0.05) == 2 * 10**18


def test_timegrid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 0.1, 0)


@pytest.mark.parametrize("n_steps", [2.5, 3.0, True, np.float64(4.0), "5"])
def test_timegrid_needs_an_integer_step_count(n_steps):
    with pytest.raises(ParameterError, match="integer n_steps"):
        TimeGrid(0.0, 0.1, n_steps)


def test_timegrid_takes_numpy_integers():
    assert TimeGrid(0.0, 0.1, np.int64(3)).times().size == 4


@pytest.mark.parametrize("n_paths", [2.5, 2.0, True, np.float64(3.0)])
def test_sample_paths_needs_an_integer_path_count(n_paths):
    grid = TimeGrid(0.0, 0.05, 10)
    with pytest.raises(ParameterError, match="integer n_paths"):
        sample_paths(MODELS[0], 2.0, grid, seed=1, n_paths=n_paths)
    assert sample_paths(MODELS[0], 2.0, grid, seed=1, n_paths=np.int32(2))[0].shape == (2, 11)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ABM(mu=math.nan, sigma=1.0),
        lambda: ABM(mu=0.1, sigma=math.inf),
        lambda: GBM(mu=math.inf, sigma=0.1),
        lambda: CIR(gamma=0.8, delta=math.inf, sigma=0.2),
        lambda: CIR(gamma=math.nan, delta=20.0, sigma=0.2),
        lambda: TimeGrid(0.0, math.inf, 10),
        lambda: TimeGrid(math.nan, 0.1, 10),
    ],
    ids=["abm-mu-nan", "abm-sigma-inf", "gbm-mu-inf", "cir-delta-inf",
         "cir-gamma-nan", "grid-dt-inf", "grid-t0-nan"],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ParameterError, match="finite"):
        build()


def test_timegrid_times_have_no_drift():
    grid = TimeGrid(0.0, 0.1, 10_000)
    t = grid.times()
    assert t[-1] == 0.1 * 10_000
    assert np.all(np.diff(t) > 0)


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------


def test_beta0_abm_power_market_growth():
    assert beta0(ABM(300.0, 600.0), 10_000.0, 8.0) == pytest.approx(12_400.0)


def test_beta0_fixed_points():
    assert beta0(CIR(0.8, 20.0, 0.2), 20.0, 3.7) == pytest.approx(20.0)
    assert beta0(GBM(0.0, 0.1), 7.0, 5.0) == pytest.approx(7.0)


def test_alpha0_degenerate_horizon_is_square():
    for model in MODELS:
        d = _d0(model)
        assert alpha0(model, d, 0.0) == pytest.approx(d * d)


def test_alpha0_pure_brownian_variance():
    assert alpha0(ABM(0.0, 1.0), 0.0, 4.0) == pytest.approx(4.0)


def test_resolvent_constant_mean_case():
    assert beta_resolvent(GBM(0.0, 0.1), 5.0, 0.1, 11.0) == pytest.approx(50.0)


def test_resolvent_cir_at_target():
    assert beta_resolvent(CIR(0.8, 20.0, 0.2), 20.0, 0.08, 8.0) == pytest.approx(20.0 / 0.08)


def test_resolvent_abm_reference_value():
    # mu*h/rho + d/rho + mu/rho^2 with the power-market numbers
    got = beta_resolvent(ABM(300.0, 600.0), 10_000.0, 0.08, 8.0)
    assert got == pytest.approx(30_000.0 + 125_000.0 + 46_875.0, rel=1e-12)


def _mean_at(model, d0, t):
    """E[D_t | D_0 = d0] from the affine drift, the quadrature oracle's
    only model-specific ingredient."""
    a, b = drift_affine(model)
    if a == 0.0:
        return d0 + b * t
    return (d0 + b / a) * math.exp(a * t) - b / a


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_resolvent_matches_quadrature(model):
    # beta0 is affine in d, so E[beta0(D_t)] = beta0(E[D_t]) exactly and
    # the resolvent reduces to a scalar integral we can do numerically.
    d0, rho, h = _d0(model), 0.12, 3.0
    # cap at 60/rho: the discounted tail is below 1e-25 of the total, and a
    # finite upper limit keeps e^(mu t) from overflowing inside the probe
    oracle, err = integrate.quad(
        lambda t: math.exp(-rho * t) * beta0(model, _mean_at(model, d0, t), h),
        0.0,
        60.0 / rho,
        limit=200,
    )
    assert err < 1e-6 * abs(oracle)
    assert beta_resolvent(model, d0, rho, h) == pytest.approx(oracle, rel=1e-9)


def test_resolvent_matches_quadrature_random_draws():
    rng = np.random.default_rng(42)
    models = []
    for _ in range(7):
        models.append(ABM(rng.uniform(-1, 1), rng.uniform(0.1, 2.0)))
        g = rng.uniform(0.1, 1.0)
        dl = rng.uniform(5.0, 50.0)
        models.append(CIR(g, dl, min(rng.uniform(0.05, 0.5), math.sqrt(2 * g * dl))))
        mu = rng.uniform(-0.05, 0.04)
        models.append(GBM(mu, rng.uniform(0.01, 0.1)))
    for model in models:
        rho = 2.0 * getattr(model, "mu", 0.0) + model.sigma**2 + 0.05 \
            if isinstance(model, GBM) else rng.uniform(0.02, 0.2)
        d0 = rng.uniform(1.0, 30.0)
        h = rng.uniform(0.0, 10.0)
        oracle, _ = integrate.quad(
            lambda t: math.exp(-rho * t) * beta0(model, _mean_at(model, d0, t), h),
            0.0,
            60.0 / rho,
            limit=200,
        )
        assert beta_resolvent(model, d0, rho, h) == pytest.approx(oracle, rel=1e-6)


@given(
    d1=st.floats(0.5, 100.0),
    d2=st.floats(0.5, 100.0),
    h=st.floats(0.0, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_beta0_monotone_and_variance_nonnegative(d1, d2, h):
    for model in MODELS:
        lo, hi = sorted((d1, d2))
        assert beta0(model, lo, h) <= beta0(model, hi, h)
        var = alpha0(model, d1, h) - beta0(model, d1, h) ** 2
        assert var >= -1e-9 * alpha0(model, d1, h)


# ---------------------------------------------------------------------------
# Sampling: marginal moments against the closed forms
# ---------------------------------------------------------------------------

# one exact transition straight to the horizon: the marginal law at t_end is
# exact regardless of dt, so moment checks need no fine grid


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_terminal_moments_match_beta0_alpha0(model):
    d0, h, n = _d0(model), 8.0, 100_000
    grid = TimeGrid(0.0, h, 1)
    vals, _ = sample_paths(model, d0, grid, seed=7, n_paths=n)
    end = vals[:, -1]

    se = end.std(ddof=1) / math.sqrt(n)
    assert abs(end.mean() - beta0(model, d0, h)) <= 4.0 * se

    sq = end**2
    se2 = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - alpha0(model, d0, h)) <= 4.0 * se2


def test_abm_deterministic_limit():
    model = ABM(0.7, 1e-12)
    grid = TimeGrid(0.0, 0.25, 40)
    path = sample_path(model, 3.0, grid, seed=1)
    want = 3.0 + 0.7 * grid.times()
    np.testing.assert_allclose(path.values, want, rtol=1e-6)


def test_gbm_paths_positive_cir_paths_nonnegative():
    grid = TimeGrid(0.0, 0.05, 200)
    gv, _ = sample_paths(GBM(0.03, 0.4), 5.0, grid, seed=3, n_paths=200)
    assert np.all(gv > 0.0)
    cv, _ = sample_paths(CIR(0.8, 20.0, 0.2), 10.0, grid, seed=3, n_paths=200)
    assert np.all(cv > 0.0)


def test_d0_outside_state_space_rejected():
    grid = TimeGrid(0.0, 0.1, 5)
    with pytest.raises(ParameterError):
        sample_path(GBM(0.03, 0.1), -1.0, grid, seed=0)
    with pytest.raises(ParameterError):
        sample_path(CIR(0.8, 20.0, 0.2), 0.0, grid, seed=0)


# ---------------------------------------------------------------------------
# Determinism and stream layout
# ---------------------------------------------------------------------------


def test_seed_determinism_bit_identical():
    grid = TimeGrid(0.0, 0.05, 100)
    for model in MODELS:
        a = sample_path(model, _d0(model), grid, seed=123)
        b = sample_path(model, _d0(model), grid, seed=123)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.running_max, b.running_max)
        c = sample_path(model, _d0(model), grid, seed=124)
        assert not np.array_equal(a.values, c.values)


def _pcg_state(seed_seq):
    return np.random.PCG64(seed_seq).state


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**130 + 7])
def test_stream_seeds_match_seed_sequence_spawning(seed):
    # the vectorised seeding reproduces numpy's SeedSequence tree exactly
    paths = np.array([0, 1, 948, 949, 2**31])
    seeds = _stream_seeds(seed, paths)
    assert seeds.shape == (paths.size, 3, 4)
    root = np.random.SeedSequence(seed)
    assert root.spawn(950)[949].spawn_key == (949,)
    for row, i in enumerate(paths):
        # the child spawn(n)[i] builds for any n > i, without building n
        kids = np.random.SeedSequence(root.entropy, spawn_key=(int(i),)).spawn(3)
        for j in range(3):
            assert _pcg_state(_SeedWords(seeds[row, j])) == _pcg_state(kids[j])
    (single,) = _stream_seeds(seed)
    for j, kid in enumerate(np.random.SeedSequence(seed).spawn(3)):
        assert _pcg_state(_SeedWords(single[j])) == _pcg_state(kid)


def test_negative_seed_is_rejected_as_before():
    with pytest.raises(ValueError) as ours:
        _stream_seeds(-1, np.arange(3))
    with pytest.raises(ValueError) as numpy_s:
        np.random.SeedSequence(-1)
    assert type(ours.value) is type(numpy_s.value)
    grid = TimeGrid(0.0, 0.05, 10)
    with pytest.raises(ValueError):
        sample_paths(MODELS[0], 2.0, grid, seed=-1, n_paths=2)
    with pytest.raises(ValueError):
        sample_path(MODELS[0], 2.0, grid, seed=-1)


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_batch_rows_are_prefix_stable_in_n_paths(model):
    grid = TimeGrid(0.0, 0.05, 60)
    v5, r5 = sample_paths(model, _d0(model), grid, seed=9, n_paths=5)
    v8, r8 = sample_paths(model, _d0(model), grid, seed=9, n_paths=8)
    assert np.array_equal(v5, v8[:5])
    assert np.array_equal(r5, r8[:5])


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_paths_are_prefix_stable_in_horizon(model):
    short = TimeGrid(0.0, 0.05, 40)
    long = TimeGrid(0.0, 0.05, 90)
    vs, _ = sample_paths(model, _d0(model), short, seed=9, n_paths=4)
    vl, _ = sample_paths(model, _d0(model), long, seed=9, n_paths=4)
    assert np.array_equal(vs, vl[:, :41])


@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_node_values_invariant_to_max_refinement(model, monkeypatch):
    grid = TimeGrid(0.0, 0.1, 50)
    vb, rb = sample_paths(model, _d0(model), grid, seed=21, n_paths=30)
    # with each step's maximum taken at its nodes, the running maximum is the
    # grid reading, and the node values do not change
    monkeypatch.setattr(demand, "_bridge_max", lambda a, b, var_dt, u: np.maximum(a, b))
    vg, rg = sample_paths(model, _d0(model), grid, seed=21, n_paths=30)
    assert np.array_equal(vg, vb)
    # grid reading is the cummax of node values; the bridge reading adds the
    # within-interval excursions, so it can only be larger
    assert np.array_equal(rg, np.maximum.accumulate(vg, axis=1))
    assert np.all(rb >= rg - 1e-12)
    assert np.all(np.diff(rb, axis=1) >= -1e-12)


def test_bridge_max_shrinks_with_dt():
    """The within-interval correction vanishes as dt -> 0: the bridge and
    grid running maxima at t = 1 should converge to each other."""
    model = GBM(0.03, 0.4)
    gaps = []
    for n in (10, 1000):
        grid = TimeGrid(0.0, 1.0 / n, n)
        vals, rb = sample_paths(model, 5.0, grid, seed=2, n_paths=500)
        rg = np.maximum.accumulate(vals, axis=1)
        gaps.append(np.mean(rb[:, -1] - rg[:, -1]))
    assert gaps[1] < 0.2 * gaps[0]


def _numpy_generators(seed, n_paths, stream):
    # path i, stream j: SeedSequence(seed).spawn(n_paths)[i].spawn(3)[j]
    return [np.random.default_rng(kid.spawn(3)[stream])
            for kid in np.random.SeedSequence(seed).spawn(n_paths)]


def test_cir_nodes_follow_numpys_own_chisquare_and_normal_draws():
    # the sampler writes each path's draws in place; the node values must
    # equal the exact recursion run per path on numpy's chisquare(df - 1, n)
    # and standard_normal(n)
    sc = get("cir-fast").scenario
    model, d0, n, dt = sc.model, sc.d, 40, 0.05
    vals, _ = sample_paths(model, d0, TimeGrid(0.0, dt, n), seed=12, n_paths=5)
    g, dl, s = model.gamma, model.delta, model.sigma
    edt = math.exp(-g * dt)
    c = 2.0 * g / (s**2 * (1.0 - edt))
    df = 4.0 * g * dl / s**2
    normals, chis = _numpy_generators(12, 5, 0), _numpy_generators(12, 5, 1)
    for row, gz, gx in zip(vals, normals, chis):
        z, x2 = gz.standard_normal(n), gx.chisquare(df - 1.0, n)
        want = [float(d0)]
        for j in range(n):
            step = math.sqrt(want[-1] * (2.0 * c * edt)) + z[j]
            want.append((step * step + x2[j]) / (2.0 * c))
        assert row.tobytes() == np.array(want).tobytes()


def test_brownian_nodes_and_bridge_uniforms_follow_numpys_own_draws(monkeypatch):
    sc = get("abm-power").scenario
    model, d0, n, dt = sc.model, sc.d, 40, 0.05
    uniforms = []
    bridge_max = demand._bridge_max

    def recording(a, b, var_dt, u):
        uniforms.append(u.copy())
        return bridge_max(a, b, var_dt, u)

    monkeypatch.setattr(demand, "_bridge_max", recording)
    vals, _ = sample_paths(model, d0, TimeGrid(0.0, dt, n), seed=12, n_paths=5)
    steps = model.mu * dt * np.arange(1, n + 1)
    for row, gz in zip(vals, _numpy_generators(12, 5, 0)):
        want = d0 + steps + model.sigma * math.sqrt(dt) * np.cumsum(gz.standard_normal(n))
        assert row[0] == d0
        assert row[1:].tobytes() == want.tobytes()
    (u,) = uniforms
    want = np.array([gu.random(n) for gu in _numpy_generators(12, 5, 2)])
    assert u.tobytes() == want.tobytes()


def test_running_max_includes_start():
    grid = TimeGrid(0.0, 0.5, 4)
    path = sample_path(ABM(-5.0, 0.01), 10.0, grid, seed=0)
    assert path.running_max[0] == pytest.approx(10.0)
    assert np.all(path.running_max >= 10.0 - 1e-12)


@pytest.mark.parametrize("rows", [1, 33, 100])
@pytest.mark.parametrize("model", MODELS, ids=["ABM-bridge", "GBM-bridge", "CIR-exact-bridge"])
def test_path_matrix_fills_every_cell_of_the_buffers_it_is_given(model, rows):
    # the Monte Carlo engine passes the first rows of buffers it reuses from
    # slice to slice: NaN-filled ones must come back as freshly allocated
    # output, bit for bit, and the rows past the slice stay untouched
    grid = TimeGrid(0.0, 0.05, 130)
    want = sample_paths(model, _d0(model), grid, seed=6, n_paths=rows)
    bufs = [np.full((120, 131), np.nan) for _ in range(2)]
    got = demand._path_matrix(model, _d0(model), grid, _stream_seeds(6, np.arange(rows)),
                              *(b[:rows] for b in bufs))
    for g, w, b in zip(got, want, bufs):
        assert np.shares_memory(g, b)
        assert g.tobytes() == w.tobytes()
        assert np.isnan(b[rows:]).all()


def test_in_state_space():
    assert in_state_space(ABM(0.0, 1.0), -3.0)
    assert not in_state_space(GBM(0.0, 1.0), 0.0)
    assert not in_state_space(CIR(0.8, 20.0, 0.2), -1.0)
