"""Closed-form boundaries, their bias decomposition, the square-root
geometry, and equivalence with the generic ODE oracle."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import buildlag
from buildlag import kummer
from buildlag.boundary import (
    _RATIO_CACHE_POINTS,
    Boundary,
    _psi_ratios,
    abm_lambda,
    cir_asymptote,
    cir_kink,
    cir_tangent,
    gbm_constants,
    generic_boundary,
)
from buildlag.demand import ABM, CIR, GBM, beta0, beta_resolvent
from buildlag.errors import DomainError, NumericsError, ParameterError
from buildlag.statics import abm_partials, gbm_elasticity

RHO = 0.08
GBM_REF = GBM(mu=0.03, sigma=0.1)  # admissibility: 0.08 > 0.06 + 0.01
ABM_REF = ABM(mu=300.0, sigma=600.0)
CIR_FAST = CIR(gamma=0.8, delta=20.0, sigma=0.2)
CIR_SLOW = CIR(gamma=0.08, delta=20.0, sigma=0.2)


# ---------------------------------------------------------------------------
# Frozen reference values
#
# Computed once from the closed forms and pinned; any regression in the
# formulas moves them far beyond the tolerances.
# ---------------------------------------------------------------------------


def test_gbm_m_and_A_reference_values():
    m, A = gbm_constants(0.03, 0.1, RHO, h=1.0)
    assert m == pytest.approx(2.216990566028302, rel=1e-14)
    assert A == pytest.approx(0.9050491892992649, rel=1e-14)


def test_gbm_precautionary_reference_value():
    bound = Boundary(GBM_REF, RHO, 1.0, 5.0)
    assert bound.decompose(1000.0).precautionary_bias == pytest.approx(
        125.4053446542521, rel=1e-13
    )


def test_abm_bias_reference_value():
    bound = Boundary(ABM_REF, RHO, 8.0, 0.0)
    d = 10_000.0
    assert float(bound.eval(d)) - d == pytest.approx(1873.828410962682, rel=1e-13)


def test_m_exceeds_two_iff_admissible():
    # the quadratic psi exponent sits above 2 exactly when discounting beats
    # second-moment growth; 100 random admissible draws
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu = rng.uniform(-0.1, 0.1)
        sigma = rng.uniform(0.01, 0.5)
        rho = max(0.0, 2.0 * mu + sigma**2) + rng.uniform(1e-6, 0.3)
        m, _ = gbm_constants(mu, sigma, rho, h=1.0)
        assert m > 2.0


def test_abm_lambda_is_root_of_characteristic_quadratic():
    for mu, sigma, rho in [(300.0, 600.0, 0.08), (-2.0, 5.0, 0.1), (0.0, 1.0, 0.05)]:
        lam = abm_lambda(mu, sigma, rho)
        assert lam > 0.0
        resid = rho - mu * lam - 0.5 * sigma**2 * lam**2
        assert abs(resid) < 1e-12 * rho


# ---------------------------------------------------------------------------
# Decomposition and basic structure
# ---------------------------------------------------------------------------


def _models_with_levels():
    return [
        (Boundary(ABM_REF, RHO, 8.0, 5.0), 10_000.0),
        (Boundary(GBM_REF, RHO, 1.0, 5.0), 1_000.0),
        (Boundary(CIR_FAST, RHO, 8.0, 1.0), 10.0),
    ]


def test_eval_equals_decompose_total_bitwise():
    for bound, d in _models_with_levels():
        assert float(bound.eval(d)) == bound.decompose(d).total


def test_decompose_pieces():
    bound = Boundary(GBM_REF, RHO, 1.0, 5.0)
    dec = bound.decompose(1000.0)
    assert dec.beta0 == pytest.approx(beta0(GBM_REF, 1000.0, 1.0))
    assert dec.discounting_bias == pytest.approx(5.0 * RHO * math.exp(RHO), rel=1e-14)
    assert dec.precautionary_bias > 0.0


def test_eval_vectorized_matches_scalar():
    for bound, d in _models_with_levels():
        grid = np.array([0.5 * d, d, 2.0 * d])
        vec = bound.eval(grid)
        scal = np.array([float(bound.eval(x)) for x in grid])
        np.testing.assert_array_equal(vec, scal)


def test_boundary_nondecreasing_all_models():
    grids = {
        ABM: np.linspace(-5_000.0, 30_000.0, 1000),
        GBM: np.linspace(1.0, 5_000.0, 1000),
        CIR: np.linspace(1e-3, 80.0, 1000),
    }
    for bound, _ in _models_with_levels():
        vals = bound.eval(grids[type(bound.model)])
        assert np.all(np.diff(vals) >= -1e-9)


def test_gbm_boundary_homogeneous_when_q0_zero():
    bound = Boundary(GBM_REF, RHO, 1.0, 0.0)
    v = bound.eval(np.array([1.0, 2.0, 4.0]))
    assert v[1] == pytest.approx(2.0 * v[0], rel=1e-14)
    assert v[2] == pytest.approx(4.0 * v[0], rel=1e-14)


def test_q0_enters_additively():
    # the installation price shifts every boundary down by q0 rho e^(rho h)
    for model, d in [(ABM_REF, 10_000.0), (GBM_REF, 1_000.0), (CIR_FAST, 10.0)]:
        h = 8.0 if not isinstance(model, GBM) else 1.0
        base = float(Boundary(model, RHO, h, 0.0).eval(d))
        paid = float(Boundary(model, RHO, h, 3.0).eval(d))
        assert base - paid == pytest.approx(3.0 * RHO * math.exp(RHO * h), rel=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        Boundary(GBM_REF, RHO, -1.0, 5.0)
    with pytest.raises(ParameterError):
        Boundary(GBM_REF, RHO, 1.0, -0.1)
    with pytest.raises(ParameterError):
        Boundary(GBM(0.05, 0.2), 0.08, 1.0, 5.0)


@pytest.mark.parametrize(
    "rho, h, q0", [(RHO, 1.0, math.inf), (RHO, math.nan, 5.0), (math.inf, 1.0, 5.0)]
)
def test_non_finite_parameters_rejected(rho, h, q0):
    with pytest.raises(ParameterError, match="finite"):
        Boundary(GBM_REF, rho, h, q0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cir_tangent(CIR_FAST, RHO, math.inf, 1.0, 1.0),
        lambda: cir_kink(CIR_FAST, RHO, 8.0, math.inf),
        lambda: cir_asymptote(CIR_FAST, math.inf, 8.0, 1.0, 1.0),
        lambda: generic_boundary(GBM(0.03, 0.06), RHO, math.inf, 5.0, 1000.0),
        lambda: beta_resolvent(ABM(1.0, 1.0), 1.0, math.inf, 1.0),
        lambda: beta_resolvent(ABM(1.0, 1.0), 1.0, RHO, math.inf),
        lambda: beta_resolvent(CIR_FAST, 1.0, RHO, -math.inf),
        lambda: gbm_constants(0.03, 0.1, RHO, math.inf),
        lambda: abm_partials(1.0, 2.0, 0.1, math.inf, 1.0),
        lambda: gbm_elasticity("A", "h", 0.03, 0.1, RHO, math.inf),
    ],
    ids=["cir_tangent-h", "cir_kink-q0", "cir_asymptote-rho", "generic_boundary-h",
         "beta_resolvent-rho", "beta_resolvent-h", "beta_resolvent-negative-h",
         "gbm_constants-h", "abm_partials-h", "gbm_elasticity-h"],
)
def test_non_finite_rate_lag_or_cost_is_rejected(call):
    # each returned nan or +-inf instead of raising
    with pytest.raises(ParameterError, match="finite"):
        call()


def test_domain_errors():
    with pytest.raises(DomainError):
        Boundary(GBM_REF, RHO, 1.0, 5.0).eval(0.0)
    with pytest.raises(DomainError):
        Boundary(CIR_FAST, RHO, 8.0, 1.0).eval(-1.0)
    # d = 0 is fine for CIR: the markdown vanishes with its factor d
    v0 = float(Boundary(CIR_FAST, RHO, 8.0, 1.0).eval(0.0))
    assert v0 == pytest.approx(
        float(cir_tangent(CIR_FAST, RHO, 8.0, 1.0, 0.0)), rel=1e-14
    )


# ---------------------------------------------------------------------------
# Square-root model geometry
# ---------------------------------------------------------------------------


def test_kink_closed_form():
    kd, kc = cir_kink(CIR_FAST, RHO, 8.0, 1.0)
    assert kd == pytest.approx(20.0 + 0.04 / 1.6, rel=1e-14)
    assert kc == pytest.approx(20.0 - 1.0 * RHO * math.exp(RHO * 8.0), rel=1e-14)


def test_kink_with_reference_sigma_and_free_installation():
    kd, kc = cir_kink(CIR(0.8, 20.0, 0.1), RHO, 8.0, 0.0)
    assert kd == pytest.approx(20.00625, abs=1e-12)
    assert kc == pytest.approx(20.0, abs=1e-12)


def test_kink_is_intersection_of_tangent_and_asymptote():
    """Independent route: solve the 2x2 linear system for the crossing of
    the two lines and compare with the closed form."""
    for model in (CIR_FAST, CIR_SLOW):
        for h in (1.0, 8.0):
            t0 = float(cir_tangent(model, RHO, h, 1.0, 0.0))
            t1 = float(cir_tangent(model, RHO, h, 1.0, 1.0)) - t0
            a0 = float(cir_asymptote(model, RHO, h, 1.0, 0.0))
            a1 = float(cir_asymptote(model, RHO, h, 1.0, 1.0)) - a0
            x = np.linalg.solve(np.array([[t1, -1.0], [a1, -1.0]]), np.array([-t0, -a0]))
            kd, kc = cir_kink(model, RHO, h, 1.0)
            assert x[0] == pytest.approx(kd, rel=1e-9)
            assert x[1] == pytest.approx(kc, rel=1e-9)


@pytest.mark.parametrize("model", [CIR_FAST, CIR_SLOW], ids=["fast", "slow"])
@pytest.mark.parametrize("h", [1.0, 8.0])
def test_tangent_and_asymptote_bracket_the_boundary(model, h):
    bound = Boundary(model, RHO, h, 1.0)
    dl = model.delta
    near, far = 1e-4 * dl, 1e3 * dl
    gap_near = abs(float(bound.eval(near) - cir_tangent(model, RHO, h, 1.0, near)))
    gap_far = abs(float(bound.eval(far) - cir_asymptote(model, RHO, h, 1.0, far)))
    assert gap_near <= 1e-3 * dl
    assert gap_far <= 1e-3 * dl


def test_fast_reversion_boundary_is_flat_in_sigma():
    # with strong mean reversion and a long lag the two volatilities are
    # indistinguishable at plot resolution, and the asymptote is nearly level
    d = np.linspace(0.0, 40.0, 401)
    lo = Boundary(CIR(0.8, 20.0, 0.05), RHO, 8.0, 1.0).eval(d)
    hi = Boundary(CIR(0.8, 20.0, 0.1), RHO, 8.0, 1.0).eval(d)
    assert np.max(np.abs(lo - hi)) < 1e-2
    slope = float(
        cir_asymptote(CIR_FAST, RHO, 8.0, 1.0, 1.0) - cir_asymptote(CIR_FAST, RHO, 8.0, 1.0, 0.0)
    )
    assert slope < 2e-4


def test_interpolation_table_matches_eval():
    bound = Boundary(CIR_FAST, RHO, 8.0, 1.0)
    rule = bound.table(0.01, 160.0)
    probe = np.linspace(0.02, 159.0, 57)
    np.testing.assert_allclose(rule(probe), bound.eval(probe), rtol=1e-8)
    # linear extrapolation stays sane just outside the table
    for d in (0.005, 170.0):
        assert rule(d) == pytest.approx(float(bound.eval(d)), rel=1e-4)


def test_table_is_identity_for_affine_boundaries():
    bound = Boundary(GBM_REF, RHO, 1.0, 5.0)
    assert bound.table(1.0, 10.0) == bound.eval


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d_hi", [math.inf, math.nan])
def test_table_checks_its_bounds_before_building(d_hi):
    # a bound that is not finite raises before np.linspace, which would warn
    with pytest.raises(DomainError):
        Boundary(CIR_FAST, RHO, 1.0, 1.0).table(1.0, d_hi)


def test_table_nodes_are_evaluated_once_per_parameter_set(monkeypatch):
    calls = []
    original = kummer._series_log

    def counting(a, b, z):
        calls.append(z.size)
        return original(a, b, z)

    monkeypatch.setattr(kummer, "_series_log", counting)
    # parameters no other test uses, so the process-wide cache is cold
    model = CIR(gamma=0.5, delta=15.0, sigma=0.3)
    first = Boundary(model, RHO, 2.0, 1.0).table(0.01, 120.0)
    runs = len(calls)
    assert runs > 0
    # the nodes' psi''/psi' ratios are shared: neither a second table nor
    # one at another lag runs a log-series
    second = Boundary(CIR(0.5, 15.0, 0.3), RHO, 2.0, 1.0).table(0.01, 120.0)
    other = Boundary(model, RHO, 4.0, 1.0).table(0.01, 120.0)
    assert len(calls) == runs
    probe = np.linspace(0.0, 130.0, 41)
    assert np.array_equal(first(probe), second(probe))
    assert not np.array_equal(other(probe), first(probe))
    # another node grid misses the cache
    Boundary(model, RHO, 2.0, 1.0).table(0.02, 120.0)
    assert len(calls) > runs


_PRECAUTIONARY = """
import sys
import numpy as np
from buildlag.boundary import Boundary
from buildlag.demand import CIR
d = np.linspace(0.0, 400.0, 33)
b = Boundary(CIR(gamma=0.6, delta=25.0, sigma=0.25), 0.08, 7.0, 3.0)
sys.stdout.write(b.precautionary(d).tobytes().hex())
"""


def test_psi_ratios_are_shared_by_lags_and_costs(monkeypatch):
    calls = []
    original = kummer._series_log

    def counting(a, b, z):
        calls.append(z.size)
        return original(a, b, z)

    monkeypatch.setattr(kummer, "_series_log", counting)
    # parameters no other test uses, so the process-wide cache is cold
    model = CIR(gamma=0.6, delta=25.0, sigma=0.25)
    d = np.linspace(0.0, 400.0, 33)
    Boundary(model, RHO, 2.0, 1.0).precautionary(d)
    runs = len(calls)
    assert runs > 0
    # psi''/psi' does not involve h or q0
    Boundary(model, RHO, 7.0, 1.0).precautionary(d)
    again = Boundary(model, RHO, 7.0, 3.0).precautionary(d)
    assert len(calls) == runs
    env = dict(os.environ, PYTHONPATH=str(Path(buildlag.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-c", _PRECAUTIONARY], env=env,
                           capture_output=True, text=True, check=True).stdout
    assert again.tobytes().hex() == fresh
    # a different sigma or rho is a different ratio
    Boundary(replace(model, sigma=0.26), RHO, 7.0, 3.0).precautionary(d)
    assert len(calls) == 2 * runs
    Boundary(model, 1.1 * RHO, 7.0, 3.0).precautionary(d)
    assert len(calls) == 3 * runs


def test_psi_ratio_cache_skips_path_matrices():
    bound = Boundary(CIR(gamma=0.6, delta=25.0, sigma=0.3), RHO, 2.0, 1.0)
    paths = np.linspace(1.0, 300.0, 2 * (_RATIO_CACHE_POINTS // 2 + 1)).reshape(2, -1)
    assert paths.size > _RATIO_CACHE_POINTS
    before = _psi_ratios.cache_info()
    out = bound.precautionary(paths)
    assert _psi_ratios.cache_info() == before
    assert np.array_equal(out[1], bound.precautionary(paths[1]))


def test_psi_ratios_are_read_only():
    d = np.linspace(1.0, 200.0, 17)
    ratios = _psi_ratios(CIR_FAST, RHO, d.tobytes())
    with pytest.raises(ValueError):
        ratios[0] = 1.0
    # callers still get a fresh array
    out = Boundary(CIR_FAST, RHO, 8.0, 1.0).precautionary(d)
    out[0] = 0.0


# ---------------------------------------------------------------------------
# Generic ODE oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_closed_forms_at_reference_points():
    cases = [
        (ABM_REF, 8.0, 5.0, 10_000.0),
        (ABM(-50.0, 200.0), 2.0, 1.0, 500.0),
        (GBM_REF, 1.0, 5.0, 1_000.0),
        (GBM(-0.02, 0.15), 4.0, 2.0, 30.0),
        (CIR_FAST, 8.0, 1.0, 10.0),
        (CIR_SLOW, 1.0, 1.0, 35.0),
    ]
    for model, h, q0, d in cases:
        closed = float(Boundary(model, RHO, h, q0).eval(d))
        oracle = generic_boundary(model, RHO, h, q0, d)
        assert closed == pytest.approx(oracle, rel=1e-8)


def test_oracle_matches_closed_forms_random_draws():
    """A fast version of the full 50-draw acceptance sweep: a dozen random
    admissible parameter sets across the three families, 1e-5 relative."""
    rng = np.random.default_rng(17)
    for _ in range(4):
        mu = rng.uniform(-1.0, 1.0)
        model = ABM(mu, rng.uniform(0.5, 3.0))
        rho = rng.uniform(0.03, 0.2)
        d = rng.uniform(-5.0, 50.0)
        h = rng.uniform(0.0, 10.0)
        q0 = rng.uniform(0.0, 5.0)
        closed = float(Boundary(model, rho, h, q0).eval(d))
        assert closed == pytest.approx(
            generic_boundary(model, rho, h, q0, d), rel=1e-5
        )
    for _ in range(4):
        mu = rng.uniform(-0.05, 0.05)
        sigma = rng.uniform(0.05, 0.3)
        rho = 2.0 * mu + sigma**2 + rng.uniform(0.01, 0.1)
        model = GBM(mu, sigma)
        d = rng.uniform(5.0, 500.0)
        h = rng.uniform(0.0, 10.0)
        q0 = rng.uniform(0.0, 5.0)
        closed = float(Boundary(model, rho, h, q0).eval(d))
        assert closed == pytest.approx(
            generic_boundary(model, rho, h, q0, d), rel=1e-5
        )
    for _ in range(4):
        g = rng.uniform(0.1, 1.5)
        dl = rng.uniform(5.0, 40.0)
        sigma = min(rng.uniform(0.05, 0.6), 0.99 * math.sqrt(2 * g * dl))
        model = CIR(g, dl, sigma)
        rho = rng.uniform(0.03, 0.2)
        d = rng.uniform(0.5, 3.0) * dl
        h = rng.uniform(0.0, 10.0)
        q0 = rng.uniform(0.0, 5.0)
        closed = float(Boundary(model, rho, h, q0).eval(d))
        assert closed == pytest.approx(
            generic_boundary(model, rho, h, q0, d), rel=1e-5
        )


def _failing_solver(monkeypatch, failing):
    """Wrap solve_ivp so that the methods in `failing` report status -1;
    returns the list of methods called, in order."""
    methods = []
    original = scipy.integrate.solve_ivp

    def wrapped(*args, method, **kwargs):
        methods.append(method)
        sol = original(*args, method=method, **kwargs)
        if method in failing:
            sol.status, sol.message = -1, f"{method} made to fail"
        return sol

    monkeypatch.setattr(scipy.integrate, "solve_ivp", wrapped)
    return methods


ORACLE_POINTS = [(GBM_REF, 1.0, 5.0, 1_000.0), (CIR_FAST, 8.0, 1.0, 10.0)]


def test_oracle_runs_lsoda_alone_when_it_succeeds(monkeypatch):
    methods = _failing_solver(monkeypatch, failing=())
    for model, h, q0, d in ORACLE_POINTS:
        generic_boundary(model, RHO, h, q0, d)
    assert methods == ["LSODA", "LSODA"]


def test_oracle_falls_back_to_radau_when_lsoda_fails(monkeypatch):
    methods = _failing_solver(monkeypatch, failing=("LSODA",))
    for model, h, q0, d in ORACLE_POINTS:
        closed = float(Boundary(model, RHO, h, q0).eval(d))
        assert closed == pytest.approx(generic_boundary(model, RHO, h, q0, d), rel=1e-5)
    assert methods == ["LSODA", "Radau", "LSODA", "Radau"]


def test_oracle_raises_when_both_solvers_fail(monkeypatch):
    methods = _failing_solver(monkeypatch, failing=("LSODA", "Radau"))
    with pytest.raises(NumericsError, match="Radau made to fail"):
        generic_boundary(CIR_FAST, RHO, 8.0, 1.0, 10.0)
    assert methods == ["LSODA", "Radau"]


_IMPORT_PATH = """
import importlib.util
import sys

def no_scipy(when):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"{loaded[0]} loaded by {when}"

import buildlag, buildlag.cli
no_scipy("import buildlag")

# load the figure script as a file, the way the benchmark does
spec = importlib.util.spec_from_file_location("make_figure_data",
                                              "scripts/make_figure_data.py")
mod = importlib.util.module_from_spec(spec)
sys.modules["make_figure_data"] = mod
spec.loader.exec_module(mod)
no_scipy("the figure script")

# the large-z form, with its log-gamma prefactor
from buildlag.kummer import _asymptotic_log, kummer_m_log
calls = []
_inner = _asymptotic_log
def _counted(*args):
    calls.append(args)
    return _inner(*args)
buildlag.kummer._asymptotic_log = _counted
kummer_m_log(1.1, 801.0, 5000.0)
assert calls, "the large-z form was not taken"
no_scipy("the large-z form")

from buildlag.boundary import generic_boundary
from buildlag.demand import GBM
generic_boundary(GBM(0.03, 0.1), 0.08, 1.0, 5.0, 1000.0)
assert "scipy.integrate" in sys.modules, "not loaded by the oracle"
"""


def test_only_the_oracle_loads_scipy_integrate():
    # a fresh process: this one has imported scipy.integrate already
    src = Path(buildlag.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PATH], env=env, cwd=src.parent,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
