"""Comparative statics: closed forms against finite differences of the
live boundary code, frozen reference values, sign verdicts, and the
sensitivity table that `statics` prints and `verify` checks."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from buildlag import cli, statics
from buildlag.boundary import Boundary, gbm_constants
from buildlag.demand import ABM, CIR, GBM
from buildlag.errors import NumericsError, ParameterError, StepError
from buildlag.scenarios import get
from buildlag.statics import (
    abm_partials,
    finite_diff_check,
    gbm_elasticity,
    gbm_statics_table,
    sensitivity_checks,
)

BASE = {"mu": 0.03, "sigma": 0.1, "rho": 0.08, "h": 1.0}


def _A(p):
    return gbm_constants(p["mu"], p["sigma"], p["rho"], p["h"])[1]


def _bs(p):
    # precautionary markdown per unit of demand (the boundary is affine, so
    # evaluating the markdown at d = 1 gives its slope)
    bound = Boundary(GBM(p["mu"], p["sigma"]), p["rho"], p["h"], 1.0)
    return float(bound.precautionary(1.0))


# ---------------------------------------------------------------------------
# geometric model


@pytest.mark.parametrize("quantity", ["A", "b_sigma"])
@pytest.mark.parametrize("wrt", ["h", "sigma", "mu", "rho"])
def test_gbm_elasticity_matches_finite_difference(quantity, wrt):
    """Every closed-form elasticity must agree with a central difference of
    the quantity actually computed by the boundary code."""
    el = gbm_elasticity(quantity, wrt, **BASE).value
    fquant = _A if quantity == "A" else _bs
    x0 = BASE[wrt]

    def f(x):
        p = dict(BASE)
        p[wrt] = x
        return fquant(p)

    analytic = el * f(x0) / x0
    rep = finite_diff_check(f, x0, analytic)
    assert rep.passed, (quantity, wrt, rep)


def test_price_sensitivity_is_a_level_derivative():
    # d c_hat / d q0 = -rho e^(rho h), uniform in d and q0
    el = gbm_elasticity("c_hat", "q0", **BASE)
    assert el.value == pytest.approx(-0.08 * math.exp(0.08), rel=1e-15)

    def chat(q0):
        return float(Boundary(GBM(0.03, 0.1), 0.08, 1.0, q0).eval(500.0))

    rep = finite_diff_check(chat, 3.0, el.value)
    assert rep.passed
    # and it is indeed flat in q0: same slope at a different price
    assert finite_diff_check(chat, 0.5, el.value).passed


def test_lag_elasticity_is_exactly_mu_h():
    # the lag enters both the slope and the markdown through e^(mu h) alone
    for h, want in [(1.0, 0.03), (8.0, 0.24)]:
        a = gbm_elasticity("A", "h", mu=0.03, sigma=0.1, rho=0.08, h=h)
        b = gbm_elasticity("b_sigma", "h", mu=0.03, sigma=0.1, rho=0.08, h=h)
        assert a.value == want
        assert b.value == want


def test_frozen_volatility_elasticities():
    a = gbm_elasticity("A", "sigma", **BASE)
    assert a.value == pytest.approx(-0.21199957600127203, rel=1e-14)
    assert abs(a.value - (-0.212)) < 0.002
    b = gbm_elasticity("b_sigma", "sigma", **BASE)
    assert b.value == pytest.approx(1.52999894000318, rel=1e-14)
    assert abs(b.value - 1.53) < 0.01


def test_unknown_pairs_are_rejected():
    with pytest.raises(ValueError, match="unknown pair"):
        gbm_elasticity("beta", "h", **BASE)
    with pytest.raises(ValueError, match="unknown pair"):
        gbm_elasticity("A", "theta", **BASE)
    with pytest.raises(ValueError, match="no closed form"):
        gbm_elasticity("c_hat", "sigma", **BASE)


def test_inadmissible_parameters_are_rejected():
    # rho = 0.08 fails rho > 2 mu + sigma^2 once mu = 0.05
    with pytest.raises(ParameterError):
        gbm_elasticity("A", "h", mu=0.05, sigma=0.1, rho=0.08, h=1.0)


def test_statics_table_signs_on_random_draws():
    """The tabulated signs hold on any admissible parameter point; only the
    (b_sigma, mu) entry is point-dependent and must be flagged as such."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        sigma = float(rng.uniform(0.01, 0.5))
        mu = float(rng.uniform(-0.1, 0.1))
        rho = max(0.0, 2.0 * mu + sigma * sigma) + float(rng.uniform(0.01, 0.3))
        h = float(rng.uniform(0.0, 10.0))
        table = gbm_statics_table(mu, sigma, rho, h)
        verdicts = {(e.quantity, e.wrt): v for e, v in table}
        assert verdicts[("b_sigma", "mu")] == "ambiguous"
        bad = [k for k, v in verdicts.items() if v == "violated"]
        assert not bad, (mu, sigma, rho, h, bad)


def test_statics_table_zero_drift():
    table = gbm_statics_table(0.0, 0.2, 0.1, 4.0)
    for e, verdict in table:
        assert verdict in ("ok", "ambiguous")
        if e.wrt == "h":
            assert e.value == 0.0  # no drift, no lag effect


# ---------------------------------------------------------------------------
# arithmetic model


def test_abm_partials_match_finite_difference():
    mu, sigma, rho, h, q0 = 300.0, 600.0, 0.08, 8.0, 5.0
    part = abm_partials(mu, sigma, rho, h, q0)
    d = 47.0

    def chat(**kw):
        p = {"mu": mu, "sigma": sigma, "rho": rho, "h": h, "q0": q0}
        p.update(kw)
        b = Boundary(ABM(p["mu"], p["sigma"]), p["rho"], p["h"], p["q0"])
        return float(b.eval(d))

    checks = [
        (lambda x: chat(mu=x), mu, part.d_mu),
        (lambda x: chat(sigma=x), sigma, part.d_sigma),
        (lambda x: chat(h=x), h, part.d_h),
        (lambda x: chat(rho=x), rho, part.d_rho),
    ]
    for f, x0, analytic in checks:
        rep = finite_diff_check(f, x0, analytic)
        assert rep.passed, rep


def test_abm_partials_frozen_values_and_signs():
    part = abm_partials(300.0, 600.0, 0.08, 8.0, 5.0)
    assert part.d_sigma == pytest.approx(-1.5617376188860608, rel=1e-14)
    assert part.d_sigma < 0.0
    assert part.d_mu > 0.0
    assert part.d_h > 0.0  # drift outruns the price-timing cost here


def test_abm_lag_and_volatility_do_not_interact():
    """The mixed h-sigma derivative is identically zero: sigma only enters
    the markdown and h only the forecast and price terms.  Checked by
    differencing d_sigma across h."""
    part = abm_partials(5.0, 12.0, 0.1, 2.0, 1.0)
    assert part.cross_h_sigma == 0.0
    dsig = lambda h: abm_partials(5.0, 12.0, 0.1, h, 1.0).d_sigma
    fd = (dsig(2.0 + 1e-4) - dsig(2.0 - 1e-4)) / 2e-4
    assert abs(fd) < 1e-9


def test_abm_partials_validation():
    with pytest.raises(ParameterError):
        abm_partials(1.0, 2.0, 0.1, -1.0, 1.0)
    with pytest.raises(ParameterError):
        abm_partials(1.0, 2.0, 0.1, 1.0, -0.5)


# ---------------------------------------------------------------------------
# the finite-difference harness itself


def test_finite_diff_check_accepts_exact_derivative():
    rep = finite_diff_check(lambda x: x * x, 3.0, 6.0)
    assert rep.passed
    assert rep.finite_diff == pytest.approx(6.0, rel=1e-9)
    assert rep.abs_err <= rep.tol


def test_finite_diff_check_flags_wrong_derivative():
    rep = finite_diff_check(lambda x: x * x, 3.0, 6.1)
    assert not rep.passed


def test_finite_diff_check_rejects_bad_step():
    with pytest.raises(ParameterError):
        finite_diff_check(lambda x: x, 1.0, 1.0, rel_step=0.0)


def test_finite_diff_near_admissibility_edge_raises_step_error():
    # rho just above 2 mu + sigma^2: the downward perturbation leaves the
    # admissible region, which must surface as StepError, not a tiny step
    edge = 2.0 * 0.03 + 0.1 * 0.1

    def f(rho):
        return gbm_constants(0.03, 0.1, rho, 1.0)[1]

    with pytest.raises(StepError):
        finite_diff_check(f, edge + 1e-8, 0.0)


@pytest.mark.parametrize("f, analytic, message", [
    (lambda x: math.inf, 1.0, "is not finite"),
    (lambda x: x * x, math.nan, "is not finite"),
    # f near 1e300: the difference rounds by ~eps 1e300 / step
    (lambda x: 1e300 + x, 1.0, r"rounding bound 2\.22e\+289 > tolerance 0\.0001"),
])
def test_finite_diff_check_raises_where_the_difference_cannot_resolve(f, analytic, message):
    with pytest.raises(NumericsError, match=message):
        finite_diff_check(f, 1.0, analytic, rel_step=1e-5)


def test_sensitivities_at_an_extreme_lag_raise_numerics_error():
    # abm-power at h = 8800: e^(rho h) ~ 1e305 is finite, but c_hat is of
    # that size, so no difference in mu resolves d c_hat / d mu = h + ...
    # (it reported false FAILs, and abs_err nan for c_hat/rho)
    sc = replace(get("abm-power").scenario, h=8800.0)
    with pytest.raises(NumericsError, match=r"^sensitivity c_hat/mu: .* rounding bound 1\.64e\+294"):
        cli._check_sensitivities(sc)


# ---------------------------------------------------------------------------
# the sensitivity table shared by `statics` and `verify`


@pytest.mark.parametrize("scenario", ["gbm-growth", "abm-power"])
def test_verify_checks_each_statics_row_by_name(scenario, capsys):
    assert cli.main(["statics", "--scenario", scenario, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    checked = cli._check_sensitivities(get(scenario).scenario)["entries"]
    assert [e["name"] for e in checked] == [f"{r['quantity']}/{r['wrt']}" for r in rows]


def _wrong_gbm(monkeypatch):
    original = statics.gbm_elasticity

    def wrong(quantity, wrt, *args):
        e = original(quantity, wrt, *args)
        return replace(e, value=e.value * (1.0 + 1e-3)) if (quantity, wrt) == ("A", "sigma") else e

    monkeypatch.setattr(statics, "gbm_elasticity", wrong)


def _wrong_abm(monkeypatch):
    original = statics.abm_partials

    def wrong(*args, **kwargs):
        p = original(*args, **kwargs)
        return replace(p, d_mu=p.d_mu * (1.0 + 1e-3))

    monkeypatch.setattr(statics, "abm_partials", wrong)


def _wrong_cir(monkeypatch):
    original = statics.cir_tangent
    monkeypatch.setattr(statics, "cir_tangent", lambda *args: original(*args) * (1.0 + 1e-3))


def _wrong_cir_asymptote(monkeypatch):
    original = statics.cir_asymptote
    monkeypatch.setattr(statics, "cir_asymptote", lambda *args: original(*args) * (1.0 + 1e-3))


# a wrong cir-fast line fails its own entry, and the kink, computed apart,
# no longer lies on it
@pytest.mark.parametrize("scenario, break_closed_form, entries", [
    ("gbm-growth", _wrong_gbm, ["A/sigma"]),
    ("abm-power", _wrong_abm, ["c_hat/mu"]),
    ("cir-fast", _wrong_cir, ["tangent-at-origin", "kink-on-both-lines"]),
    ("cir-fast", _wrong_cir_asymptote, ["asymptote-at-infinity", "kink-on-both-lines"]),
])
def test_sensitivity_check_fails_on_a_closed_form_off_by_a_thousandth(
        scenario, break_closed_form, entries, monkeypatch):
    """Negative controls: one closed form wrong by 1e-3 relative turns its
    entry, and so the whole check, to FAIL."""
    sc = get(scenario).scenario
    assert all(ok for _, ok, _ in sensitivity_checks(sc))
    break_closed_form(monkeypatch)
    assert [name for name, ok, _ in sensitivity_checks(sc) if not ok] == entries
    assert cli._check_sensitivities(sc)["status"] == "FAIL"


@given(gamma=st.floats(0.01, 5.0), delta=st.floats(0.1, 1000.0), b=st.floats(1.0, 5000.0),
       rho=st.floats(0.01, 0.3), h=st.floats(0.1, 20.0), q0=st.floats(0.01, 10.0))
@example(gamma=0.08, delta=1.0, b=4.0, rho=0.08, h=8.0, q0=1.0)  # cir-slow at delta = 1
@settings(max_examples=100, deadline=None)
def test_cir_sensitivity_checks_pass_on_any_feller_model(gamma, delta, b, rho, h, q0):
    """Far out the boundary leaves its asymptote by a 1/d term that, for b =
    2 gamma delta / sigma^2 near 1, exceeds 1e-7 of the line; near the
    origin it leaves its tangent by a d^2 term.  Every entry passes for
    every model that meets the Feller condition b >= 1."""
    sigma = math.sqrt(2.0 * gamma * delta / b)
    assume(2.0 * gamma * delta >= sigma**2)
    sc = replace(get("cir-slow").scenario, model=CIR(gamma, delta, sigma), rho=rho, h=h, q0=q0)
    assert [name for name, ok, _ in sensitivity_checks(sc) if not ok] == []


def test_cir_slow_at_delta_one_fails_on_an_asymptote_off_by_a_thousandth(monkeypatch):
    """At b = 4 the boundary is 1.9e-7 of the line off its asymptote at
    d = 1e3 delta, and a line 1e-3 off still fails."""
    sc = replace(get("cir-slow").scenario, model=CIR(0.08, 1.0, 0.2))
    assert all(ok for _, ok, _ in sensitivity_checks(sc))
    _wrong_cir_asymptote(monkeypatch)
    failed = [name for name, ok, _ in sensitivity_checks(sc) if not ok]
    assert failed == ["asymptote-at-infinity", "kink-on-both-lines"]
