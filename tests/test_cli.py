"""End-to-end command line tests: exit codes, output formats, determinism,
and the config round trip.  Everything goes through cli.main(argv)."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from buildlag import cli, montecarlo
from buildlag.boundary import Boundary
from buildlag.scenarios import dumps, get, load

GAP_ABM = 2099.674722475349  # lag-8 minus lag-1 threshold bias, abm-power


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


# ---------------------------------------------------------------------------
# boundary


def test_boundary_default_scenario(capsys):
    code, out, _ = run(["boundary", "--points", "11"], capsys)
    assert code == 0
    header, rows = table(out)
    assert header == ["d", "c_hat", "beta0", "b_rho", "b_sigma"]
    assert len(rows) == 11
    chat = [r[1] for r in rows]
    assert all(a <= b for a, b in zip(chat, chat[1:]))


def test_boundary_cir_includes_reference_lines(capsys):
    code, out, _ = run(
        ["boundary", "--scenario", "cir-fast", "--points", "9"], capsys
    )
    assert code == 0
    header, rows = table(out)
    assert header == [
        "d", "c_hat", "beta0", "b_rho", "b_sigma",
        "tangent", "asymptote", "diagonal",
    ]
    for d, chat, *_rest, tan, asym, diag in rows:
        assert diag == d
        # the threshold is concave: below its tangent at the origin, and it
        # climbs toward the asymptote from below
        assert chat <= tan + 1e-9
        assert chat <= asym + 1e-9


@pytest.mark.parametrize("d_max", ["1e100", "1e300"])
def test_boundary_runs_along_its_asymptote_far_out(d_max, capsys):
    # psi''/psi' tends to 2 gamma / sigma^2, so c_hat meets the asymptote
    code, out, _ = run(["boundary", "--scenario", "cir-fast", "--d-min", "1e99",
                        "--d-max", d_max, "--points", "2"], capsys)
    assert code == 0
    header, rows = table(out)
    for r in rows:
        assert r[header.index("c_hat")] == pytest.approx(r[header.index("asymptote")], rel=1e-12)


def test_boundary_csv_round_trips_doubles(capsys):
    # %.17g is enough to reconstruct the exact binary float
    code, out, _ = run(
        ["boundary", "--scenario", "cir-fast", "--points", "7"], capsys
    )
    assert code == 0
    _, rows = table(out)
    sc = get("cir-fast").scenario
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    for r in rows:
        assert float(bound.eval(np.asarray(r[0]))) == r[1]


def test_boundary_lag_override_changes_threshold(capsys):
    base = run(["boundary", "--scenario", "cir-fast", "--points", "5"], capsys)[1]
    lag1 = run(
        ["boundary", "--scenario", "cir-fast", "--points", "5", "--lag", "1"],
        capsys,
    )[1]
    _, rows_b = table(base)
    _, rows_1 = table(lag1)
    # a shorter lag leaves the demand forecast closer to today's level, so
    # the threshold drops below the long-lag one under the reversion target
    # (d = 0 here) and rises above it beyond the target (d = 40)
    assert rows_1[0][1] < rows_b[0][1]
    assert rows_1[-1][1] > rows_b[-1][1]


def test_boundary_sigma_sweep_gap_is_flat(capsys):
    code, out, _ = run(["boundary", "--scenario", "abm-power", "--sweep-sigma"], capsys)
    assert code == 0
    header, rows = table(out)
    assert header == ["sigma", "bias_h1", "bias_h8", "gap"]
    for sigma, b1, b8, gap in rows:
        assert gap == pytest.approx(b8 - b1, abs=1e-9)
        # volatility cancels between lags: the gap is a constant
        assert gap == pytest.approx(GAP_ABM, rel=1e-12)


def test_boundary_sigma_sweep_needs_additive_model(capsys):
    code, _, err = run(["boundary", "--scenario", "cir-fast", "--sweep-sigma"], capsys)
    assert code == 2
    assert "additive" in err


SWEEP = ["--scenario", "abm-power", "--sweep-sigma"]


@pytest.mark.parametrize("lag", ["3", "-5"])
def test_boundary_sigma_sweep_rejects_a_lag(lag, capsys):
    # the sweep tabulates lags 1 and 8 whatever --lag says
    code, out, err = run(["boundary", *SWEEP, "--lag", lag], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--lag" in err


# the sigma sweep, then the plain table on the square-root and geometric models
@pytest.mark.parametrize("bounds", [[*SWEEP, "--d-max", "inf"], [*SWEEP, "--d-max", "nan"],
                                    [*SWEEP, "--d-min", "nan"], [*SWEEP, "--d-min=-inf"],
                                    ["--scenario", "cir-fast", "--d-max", "inf"],
                                    ["--scenario", "cir-fast", "--d-min=-inf"],
                                    ["--scenario", "gbm-growth", "--d-max", "nan"],
                                    ["--scenario", "gbm-growth", "--d-min", "nan"]])
def test_boundary_sigma_sweep_needs_finite_bounds(bounds, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["boundary", *bounds], capsys)
    assert code == 2
    assert out == ""
    flag, value = bounds[-1].split("=") if "=" in bounds[-1] else bounds[-2:]
    assert f"{flag} must be finite, got {value}" in err
    assert "note:" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("points", ["-3", "0", "1"])
@pytest.mark.parametrize("sweep", [[], ["--sweep-sigma"]], ids=["table", "sweep"])
def test_boundary_needs_two_points(points, sweep, capsys):
    argv = ["boundary", "--scenario", "abm-power", "--points", points, *sweep]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "at least 2 grid points" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_single_path(capsys):
    code, out, _ = run(
        ["simulate", "--scenario", "cir-fast", "--horizon", "5"], capsys
    )
    assert code == 0
    header, rows = table(out)
    assert header == ["t", "D", "C", "K", "dI", "p"]
    assert len(rows) == 101  # 5 years at dt = 0.05, inclusive grid
    t, D, C, K, dI, p = map(np.asarray, zip(*rows))
    assert K[0] == 10.0
    assert np.all(dI >= 0.0)
    assert np.all(np.diff(C) >= 0.0)
    np.testing.assert_allclose(p, D - K, atol=1e-12)


def test_simulate_emits_lagged_capital(capsys):
    # the emitted K column is the C column shifted by the 8-year lag
    code, out, _ = run(
        ["simulate", "--scenario", "gbm-growth", "--horizon", "20"], capsys
    )
    assert code == 0
    _, rows = table(out)
    C = np.asarray([r[2] for r in rows])
    K = np.asarray([r[3] for r in rows])
    lag = 160  # 8 years at dt = 0.05
    assert np.array_equal(K[lag:], C[:-lag])
    assert np.all(K[:lag] == 1000.0)  # nothing in the pipeline at t = 0


def test_simulate_band(capsys):
    code, out, _ = run(
        ["simulate", "--scenario", "cir-fast", "--horizon", "5", "--paths", "16"],
        capsys,
    )
    assert code == 0
    header, rows = table(out)
    assert header[:5] == ["t", "d_mean", "d_q05", "d_q50", "d_q95"]
    assert len(header) == 13
    for r in rows:
        assert r[2] <= r[3] <= r[4]


@pytest.mark.parametrize("horizon, t_end", [("0.07", 0.1), ("0.024", 0.05), ("40", 40.0)])
def test_simulate_and_cost_round_a_horizon_up_alike(horizon, t_end, capsys):
    # one rule (demand.grid_steps) for both: the horizon rounds up to the
    # next node, so --horizon 0.07 ends at 0.1 and 0.024 runs one step in
    # simulate; cost then rounds its step count up to an even one
    code, out, _ = run(["simulate", "--scenario", "cir-fast", "--horizon", horizon], capsys)
    assert code == 0
    _, rows = table(out)
    assert rows[-1][0] == pytest.approx(t_end, abs=1e-12)
    steps = round(t_end / 0.05)
    assert len(rows) == steps + 1
    code, out, _ = run(["cost", "--scenario", "cir-fast", "--paths", "2",
                        "--horizon", horizon], capsys)
    assert code == 0
    assert json.loads(out)["horizon"] == pytest.approx((steps + steps % 2) * 0.05, abs=1e-12)


@pytest.mark.parametrize("name, step", [("gbm-growth", 0.2), ("abm-power", 0.2),
                                        ("cir-fast", 0.05)])
def test_the_engine_steps_by_its_model_kinds_step(name, step, capsys):
    # the Monte Carlo engine steps ABM and GBM by 0.2 and CIR by 0.05,
    # whatever the config's grid.dt, and runs an even number of steps:
    # 0.024 and 0.07 both end two steps in
    sc = get(name).scenario
    assert montecarlo.estimate_F(sc, horizon=0.024, n_paths=2).horizon == pytest.approx(
        2 * step, abs=1e-12)
    code, out, _ = run(["cost", "--scenario", name, "--paths", "2", "--horizon", "0.07"],
                       capsys)
    assert code == 0
    assert json.loads(out)["horizon"] == pytest.approx(2 * step, abs=1e-12)


def test_simulate_deterministic_output(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    argv = ["simulate", "--scenario", "cir-fast", "--horizon", "3"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert cli.main(argv + ["--out", str(c), "--seed", "9"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("horizon, paths", [("1e5", []), ("1e5", ["--paths", "3"]),
                                           ("25219.7", [])])
def test_simulate_out_of_float_range_exits_3(horizon, paths, capsys):
    # gbm-growth's paths overflow long before 1e5 years; at 25219.7 years the
    # seed's path stays just inside the float range and the policy leaves it.
    # One error line that names the horizon, not a demand level the user
    # never gave nor inf or nan in the table, and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["simulate", "--scenario", "gbm-growth",
                              "--horizon", horizon, *paths], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"numeric failure: horizon {float(horizon):g}: ")
    assert err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scenario, message", [
    # the GBM mean d e^(mu h) overflows at the top of the grid
    ("gbm-growth", "d-max 1.7e+308: the boundary leaves the float range"),
    # the Kummer argument 2 gamma d / sigma^2 overflows
    ("cir-fast", "2 gamma d / sigma^2 leaves the float range at d=1.7e+308"),
])
def test_boundary_out_of_float_range_exits_3(scenario, message, fmt, capsys):
    # one error line, no inf (json: Infinity) in the table and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["boundary", "--scenario", scenario, "--d-max", "1.7e308",
                              "--points", "2", "--format", fmt], capsys)
    assert code == 3
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("note: ")] == [
        f"numeric failure: {message}"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# cost


def test_cost_report(capsys):
    # a tail below 1% of the estimate: "ok", and --tail-check passes; one
    # test over both flags, as the tail check changes nothing else
    reports = []
    for flag in ([], ["--tail-check"]):
        code, out, _ = run(["cost", "--scenario", "cir-fast", "--paths", "200",
                            "--horizon", "60", *flag], capsys)
        assert code == 0
        reports.append(json.loads(out))
    report = reports[0]
    assert reports[1] == report
    assert report["n_paths"] == 200
    assert report["horizon"] == 60.0
    assert report["verdict"] == "ok"
    assert report["se"] > 0.0
    assert math.isfinite(report["estimate"])


def test_cost_reports_a_tail_above_one_percent(capsys):
    # without --tail-check a long tail is a verdict, not a failure
    code, out, _ = run(["cost", "--scenario", "gbm-growth", "--paths", "100"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "tail-above-1pct"
    assert report["tail_bound"] > 0.01 * abs(report["estimate"])


def test_cost_policy_flag(capsys):
    for policy in ("shift=2", "const=25"):
        code, out, _ = run(
            ["cost", "--scenario", "cir-fast", "--paths", "50",
             "--horizon", "30", "--policy", policy],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["policy"] == policy
    assert run(["cost", "--scenario", "cir-fast", "--policy", "junk"], capsys)[0] == 2


@pytest.mark.parametrize("policy", ["shift=nan", "const=inf", "shift=-inf"])
def test_cost_non_finite_policy_exits_2(policy, capsys):
    code, out, err = run(
        ["cost", "--scenario", "gbm-growth", "--paths", "50", "--policy", policy],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_cost_tail_check_fails_on_short_horizon(capsys):
    code, out, err = run(
        ["cost", "--scenario", "gbm-growth", "--paths", "100", "--tail-check"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "tail" in err


@pytest.mark.parametrize("policy", ["const=1e200", "shift=1e308"])
def test_cost_out_of_float_range_exits_3(policy, capsys):
    # the per-path costs overflow: no infinite estimate reported as "ok",
    # and no numpy warning before the one error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["cost", "--scenario", "cir-fast", "--paths", "5",
                              "--policy", policy], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "not finite" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("horizon", ["2e4", "1e5"])
def test_cost_horizon_out_of_float_range_exits_3_before_sampling(horizon, capsys,
                                                                monkeypatch):
    # E[D^2] at the grid's end overflows on gbm-growth: one error line that
    # names the horizon, raised before any path is drawn, and no numpy warning
    def no_paths(*args):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(montecarlo, "_path_matrix", no_paths)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["cost", "--scenario", "gbm-growth", "--paths", "3",
                              "--horizon", horizon], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"numeric failure: horizon {float(horizon):g}: ")
    assert err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("horizon", ["1e17", "1e20"])
@pytest.mark.parametrize("command", ["cost", "verify", "simulate"])
def test_horizon_beyond_memory_exits_2(command, horizon, capsys):
    # a grid this long cannot be allocated; the size is rejected before any
    # memory is touched
    code, out, err = run([command, "--scenario", "gbm-growth", "--paths", "3",
                          "--horizon", horizon], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: horizon 1e+") and err.count("\n") == 1
    assert "more than can be allocated" in err


@pytest.mark.parametrize("command", ["cost", "verify", "simulate"])
def test_horizon_too_long_to_count_exits_2(command, capsys):
    # horizon / dt overflows to inf: there is no step count to round up
    code, out, err = run([command, "--scenario", "cir-fast", "--paths", "3",
                          "--horizon", "1e308"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: horizon 1e+308") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["boundary", "simulate", "cost"])
def test_running_out_of_memory_exits_2(command, monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "_load_config", exhausted)
    code, out, err = run([command, "--scenario", "cir-fast"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"


@pytest.mark.parametrize("sigma", ["1e-5", "1e-100"])
def test_log_series_past_its_term_cap_exits_3(sigma, monkeypatch, capsys):
    # the peak term of M lies past the log-series' term cap; no table may be
    # sized for it
    arange = np.arange

    def capped(n, *args, **kwargs):
        assert n <= 100_000_000, f"a table of {n} terms"
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", capped)
    code, out, err = run(["boundary", "--scenario", "cir-fast", "--sigma", sigma,
                          "--points", "3"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: log-series for M(") and err.count("\n") == 1


@pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
@pytest.mark.parametrize("scenario", ["cir-fast", "abm-power", "gbm-growth"])
def test_sigma_whose_square_leaves_float_range_exits_2(scenario, sigma, capsys):
    code, out, err = run(["boundary", "--scenario", scenario, "--sigma", sigma,
                          "--points", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "sigma" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [*([command, "--config", "LONG_LAG"]
       for command in ("boundary", "simulate", "cost", "statics", "verify")),
     ["boundary", "--scenario", "cir-fast", "--lag", "1e6"]],
    ids=["boundary", "simulate", "cost", "statics", "verify", "boundary-lag"],
)
def test_lag_whose_discount_factor_leaves_float_range_exits_2(argv, tmp_path, capsys):
    # e^(rho h) overflows past rho h = 709.78, here h = 9000 at rho = 0.08
    cfg = json.loads(dumps(get("gbm-growth")))
    cfg["scenario"]["h"] = 9000.0
    path = tmp_path / "long_lag.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run([str(path) if a == "LONG_LAG" else a for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert "needs h " in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# statics


def test_statics_gbm(capsys):
    code, out, _ = run(["statics", "--scenario", "gbm-growth"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert all(r["verdict"] != "violated" for r in rows)


def test_statics_abm(capsys):
    code, out, _ = run(["statics", "--scenario", "abm-power"], capsys)
    assert code == 0
    rows = {(r["quantity"], r["wrt"]): r for r in csv.DictReader(io.StringIO(out))}
    assert float(rows[("c_hat", "h*sigma")]["value"]) == 0.0
    assert float(rows[("c_hat", "sigma")]["value"]) < 0.0


def test_statics_cir_geometry(capsys):
    code, out, _ = run(["statics", "--scenario", "cir-fast"], capsys)
    assert code == 0
    rows = {(r["quantity"], r["wrt"]): float(r["value"])
            for r in csv.DictReader(io.StringIO(out))}
    # kink demand level: delta + sigma^2 / (2 gamma)
    assert rows[("kink", "d")] == pytest.approx(20.0 + 0.04 / 1.6, rel=1e-12)
    assert rows[("tangent", "slope")] > rows[("asymptote", "slope")]


# ---------------------------------------------------------------------------
# verify


def test_verify_battery_passes(capsys):
    code, out, _ = run(
        ["verify", "--scenario", "cir-fast", "--paths", "400"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    # the report keeps this order, whatever order the checks run in
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "boundary-oracle", "cost-identity", "dominance",
        "equilibrium", "sensitivities",
    ]
    assert all(c["status"] == "PASS" for c in report["checks"])
    # each Monte Carlo entry states its paths and the variance its control
    # variates kept; the unshifted policy's zero difference keeps all of it
    ident, dom, eq = report["checks"][1:4]
    assert ident["n_paths"] == dom["n_paths"] == eq["n_paths"] == 400
    ratios = [ident["variance_ratio_f"], ident["variance_ratio_g_plus_j"],
              eq["variance_ratio"], *dom["variance_ratio"]]
    zero = dom["offsets"].index(0.0)
    assert dom["variance_ratio"][zero] == 1.0
    del ratios[3 + zero]
    assert all(0.0 < r < 1.0 for r in ratios)


# sha256 of `verify --scenario <name> --paths 400`: the report assembly, the
# truncation guard, the oracle and the sensitivities, pinned to the byte
_VERIFY_DIGESTS = {
    "cir-fast": "a9f94f08c7ef9fee7c4fec28c19624368dbd8b327d1c62791e76cecda7c93292",
    "gbm-growth": "63f481060e65beb0fdf195cd108e8fb1dbfa214d212d7b728ea455e4d2e1feab",
    "cir-slow": "22c199170dcd987a4b84ff8fdb62a15f63b9fcf96224c802c05875720d687701",
    "abm-power": "d775e973e846c1c4eff627589198e3f7e2252d74f32047e920a7a62003466917",
}


@pytest.mark.parametrize("name", list(_VERIFY_DIGESTS))
def test_verify_reports_are_pinned(name, capsys):
    code, out, _ = run(["verify", "--scenario", name, "--paths", "400"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS[name]


# sha256 of `statics` (CSV and JSON) and `boundary` (CSV) at their defaults:
# the geometric closed forms, the sign verdicts, the bias split and the table
# writer, pinned to the byte
_TABLE_DIGESTS = {
    ("statics", "gbm-growth", "csv"):
        "b5434c033196b1f0c5635f9ee98358c1c4f6c5f595dc7c173dff133bbdc867e5",
    ("statics", "abm-power", "csv"):
        "f6372cbea76b5d5264ff36068555751a10f12a8e876927fb7109bb387a3040a8",
    ("statics", "cir-fast", "csv"):
        "ae2a69dece0c1352cec9d04d1b4662d76eba34b8eb362993bb049ac8087cae9f",
    ("statics", "cir-slow", "csv"):
        "8bf064d1481bbdf75434cb80582feb018431f9c5084685dd012c56294dd47757",
    ("statics", "gbm-growth", "json"):
        "1bd1dad03ef171a3214b438f834f0ce0e4a74657c89491c0403b247f39aabeb4",
    ("statics", "abm-power", "json"):
        "b59aac72c564350d6c7811ea4a66d777e33ab2f3f7ec657d1594e16960afb979",
    ("statics", "cir-fast", "json"):
        "65c0fd3def2a007dd51df35b7f7917365ea85b63b2066cb5ee0047a4b519a12c",
    ("statics", "cir-slow", "json"):
        "1e5fdf490c726302c67f308aebbd3623999f75c7bdb61ec28b79fa7ca9b484ab",
    ("boundary", "gbm-growth", "csv"):
        "1df871886f4e02aebae46ad3a3b25aa2b9ff4c3658c91230e189291635f4e445",
    ("boundary", "abm-power", "csv"):
        "f2f976d53ad6c08a0aed82a4b778a263bf534e26c9382fbceac7781aa97d3095",
}


@pytest.mark.parametrize("command, name, fmt", list(_TABLE_DIGESTS))
def test_tables_are_pinned(command, name, fmt, capsys):
    code, out, _ = run([command, "--scenario", name, "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_DIGESTS[command, name, fmt]


def test_verify_oracle_solves_each_distinct_point_once(monkeypatch):
    # cir-fast's points are d0 / 2, d0, 2 d0 and delta, and 2 d0 == delta
    sc = get("cir-fast").scenario
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    points = [0.5 * sc.d, sc.d, 2.0 * sc.d, sc.model.delta]
    worst = max(
        abs(float(bound.eval(np.asarray(d))) - o) / max(1.0, abs(o))
        for d in points
        for o in [cli.generic_boundary(sc.model, sc.rho, sc.h, sc.q0, d)]
    )
    calls = []
    original = cli.generic_boundary

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(cli, "generic_boundary", counting)
    report = cli._check_oracle(sc)
    assert calls == [5.0, 10.0, 20.0]
    assert report == {"name": "boundary-oracle", "status": "PASS",
                      "max_rel_err": worst, "points": points}


_ORACLE = """
from buildlag import cli
from buildlag.scenarios import get
print(repr(cli._check_oracle(get("cir-slow").scenario)))
"""


def test_oracle_does_not_depend_on_the_blas_thread_count():
    # the thread count is read when numpy loads, so each setting needs its
    # own process.  The oracle's solver is scalar `math` arithmetic and
    # calls no BLAS; an earlier solver's LAPACK calls rounded cir-slow's
    # max_rel_err differently at 1 and 2 threads
    src = str(Path(cli.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _ORACLE], env=env,
                             capture_output=True, text=True, check=True)
        reports.append(run.stdout)
    assert reports[0].startswith("{'name': 'boundary-oracle', 'status': 'PASS'")
    assert reports[0] == reports[1]


_FRESH_VERIFY = """
import os
import sys
from buildlag import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

first_check = cli.identity_check
def identity_check(*args, **kwargs):
    assert not scipy_loaded(), f"{scipy_loaded()[0]} loaded before the Monte Carlo checks"
    return first_check(*args, **kwargs)

cli.identity_check = identity_check
code = cli.main(["verify", "--scenario", "cir-fast", "--out", os.devnull, *sys.argv[1:]])
print(code, *scipy_loaded())
"""


@pytest.mark.parametrize("argv, code, message", [
    (["--paths", "200"], 0, ""),
    (["--paths", "1"], 2, "error: a Monte Carlo check needs n_paths >= 2, got 1\n"),
    (["--paths", "300", "--horizon", "5"], 3,
     "numeric failure: equilibrium horizon 5 leaves up to "),
    (["--paths", "300", "--debug-scale-boundary", "0.5"], 4, ""),
], ids=["pass", "one-path", "truncation", "negative-control"])
def test_verify_runs_the_monte_carlo_checks_before_scipy_loads(argv, code, message):
    # a fresh process: this one has imported scipy already.  Neither the
    # Monte Carlo checks nor the oracle, whose solver is the standard
    # library's, load scipy, whichever way the run ends
    src = str(Path(cli.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _FRESH_VERIFY, *argv],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    exit_code, *loaded = run.stdout.split()
    assert int(exit_code) == code
    assert run.stderr.startswith(message)
    assert not loaded


def test_verify_twice_in_one_process_is_byte_identical(tmp_path, capsys):
    # the second run reads its rule tables from the process-wide cache
    reports = []
    for i in range(2):
        path = tmp_path / f"verify{i}.json"
        code, _, _ = run(["verify", "--scenario", "cir-fast", "--paths", "200",
                          "--out", str(path)], capsys)
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_verify_negative_control(capsys):
    """Scaling the threshold is an injected bug: dominance (and usually
    equilibrium) must FAIL and the exit code must flip to 4, while the
    policy-independent identity stays green."""
    code, out, _ = run(
        ["verify", "--scenario", "cir-fast", "--paths", "300",
         "--debug-scale-boundary", "0.5"],
        capsys,
    )
    assert code == 4
    report = json.loads(out)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["dominance"] == "FAIL"
    assert status["cost-identity"] == "PASS"
    assert report["passed"] is False


@pytest.mark.parametrize("factor", ["nan", "inf"])
def test_verify_non_finite_boundary_scale_exits_2(factor, capsys):
    code, out, err = run(
        ["verify", "--scenario", "gbm-growth", "--paths", "100",
         "--debug-scale-boundary", factor],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "finite rule_scale" in err


def test_verify_short_equilibrium_horizon_is_a_truncation_error(capsys):
    """At 40 years q0 e^(-rho T) = 0.041 of a unit's revenue lies past the
    horizon, far above the equilibrium check's tolerance: that is a
    truncation (exit 3), not a failed check (exit 4)."""
    code, out, err = run(
        ["verify", "--scenario", "cir-fast", "--paths", "300", "--horizon", "40"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "equilibrium horizon 40" in err


# ---------------------------------------------------------------------------
# configs, outputs, exit codes


def test_config_round_trip(tmp_path, capsys):
    text = dumps(get("cir-fast"))
    path = tmp_path / "run.json"
    path.write_text(text)
    assert dumps(load(path)) == text  # byte identical through load/dump
    code, out, _ = run(
        ["boundary", "--config", str(path), "--points", "3"], capsys
    )
    assert code == 0
    assert len(table(out)[1]) == 3


def test_config_and_scenario_are_exclusive(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(dumps(get("cir-fast")))
    code, _, err = run(
        ["boundary", "--config", str(path), "--scenario", "cir-fast"], capsys
    )
    assert code == 2
    assert "config" in err.lower()


def test_unknown_scenario_exits_2(capsys):
    code, _, err = run(["boundary", "--scenario", "nope"], capsys)
    assert code == 2
    assert "nope" in err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["boundary", "--config", str(bad)], capsys)[0] == 2

    missing = tmp_path / "missing.json"
    assert run(["boundary", "--config", str(missing)], capsys)[0] == 2


def test_inadmissible_config_exits_2(tmp_path, capsys):
    cfg = json.loads(dumps(get("gbm-growth")))
    cfg["scenario"]["rho"] = 0.06  # below the 2 mu + sigma^2 = 0.0636 floor
    path = tmp_path / "bad_rho.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["boundary", "--config", str(path)], capsys)
    assert code == 2
    assert "rho" in err

    # booleans are not counts or seeds, and a seed is not negative
    for section, key, value in [("mc", "n_paths", True), ("mc", "seed", False),
                                ("mc", "seed", -1), ("grid", "n_steps", True),
                                ("grid", "n_steps", 2.5)]:
        cfg = json.loads(dumps(get("gbm-growth")))
        cfg[section][key] = value
        path.write_text(json.dumps(cfg))
        code, _, err = run(["boundary", "--config", str(path)], capsys)
        assert code == 2
        assert key in err


@pytest.mark.parametrize("kind, key", [("gbm", "gamma"), ("gbm", "delta"), ("cir", "mu")])
def test_a_key_of_another_model_kind_exits_2(tmp_path, capsys, kind, key):
    cfg = json.loads(dumps(get({"gbm": "gbm-growth", "cir": "cir-fast"}[kind])))
    cfg["scenario"]["model"][key] = 0.5
    path = tmp_path / "other_kind.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["boundary", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert key in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["cost", "simulate", "verify"])
def test_negative_seed_exits_2(command, capsys):
    code, out, err = run([command, "--scenario", "cir-fast", "--paths", "10",
                          "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("scenario", ["gbm-growth", "cir-fast"])
def test_verify_on_one_path_exits_2(scenario, capsys):
    # a check's tolerance is a multiple of a standard error, 0 on one path
    code, out, err = run(["verify", "--scenario", scenario, "--paths", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "n_paths >= 2" in err


def test_cost_on_one_path_is_legal(capsys):
    code, out, _ = run(["cost", "--scenario", "gbm-growth", "--paths", "1",
                        "--horizon", "20"], capsys)
    assert code == 0
    assert json.loads(out)["n_paths"] == 1


@pytest.mark.parametrize(
    "key, value",
    [("times", ["x"]), ("times", ["-1"]), ("times", [True]), ("times", [None]),
     ("sizes", ["1"]), ("times", "x"), ("sizes", 1.0)],
)
def test_pipeline_entries_must_be_json_numbers(tmp_path, capsys, key, value):
    cfg = json.loads(dumps(get("gbm-growth")))
    cfg["scenario"]["pipeline"] = {"times": [-1.0], "sizes": [1.0], key: value}
    path = tmp_path / "bad_pipeline.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["boundary", "--config", str(path)], capsys)
    assert code == 2
    assert key in err


@pytest.mark.parametrize(
    "field, literal",
    [("k", "NaN"), ("k", "Infinity"), ("k", "-Infinity"), ("k", "1e999"),
     ("mu", "1e999"), ("dt", "1e999"), ("horizon", "1e999")],
)
def test_non_finite_config_exits_2(tmp_path, capsys, field, literal):
    # NaN and Infinity are JSON extensions the parser refuses; 1e999 is valid
    # JSON that overflows to inf and is refused by the dataclass it fills
    text = json.dumps(json.loads(dumps(get("gbm-growth"))))
    old = {"k": '"k": 1000.0', "mu": '"mu": 0.03', "dt": '"dt": 0.05',
           "horizon": '"horizon": null'}[field]
    assert old in text
    path = tmp_path / "bad.json"
    path.write_text(text.replace(old, f'"{field}": {literal}'))
    code, _, err = run(["verify", "--config", str(path)], capsys)
    assert code == 2
    assert "finite" in err


def test_out_file_and_json_format(tmp_path, capsys):
    path = tmp_path / "b.json"
    code, out, _ = run(
        ["boundary", "--scenario", "cir-fast", "--points", "4",
         "--format", "json", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == ""  # everything went to the file
    rows = json.loads(path.read_text())
    assert len(rows) == 4
    assert set(rows[0]) >= {"d", "c_hat", "tangent"}


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process; each call parses afresh
    code, out, _ = run(["simulate", "--scenario", "cir-fast", "--horizon", "1",
                        "--paths", "3"], capsys)
    assert code == 0 and table(out)[0][1] == "d_mean"
    code, out, _ = run(["simulate", "--scenario", "cir-fast", "--horizon", "1"], capsys)
    assert code == 0 and table(out)[0] == ["t", "D", "C", "K", "dI", "p"]

    code, out, _ = run(["verify", "--scenario", "gbm-growth", "--paths", "300",
                        "--debug-scale-boundary", "0.5"], capsys)
    assert code == 4
    assert json.loads(out)["debug_scale_boundary"] == 0.5
    code, out, _ = run(["verify", "--scenario", "gbm-growth", "--paths", "300"], capsys)
    assert json.loads(out)["debug_scale_boundary"] == 1.0

    assert run(["boundary", "--scenario", "abm-power", "--points", "many"], capsys)[0] == 2
    code, out, err = run(["boundary", "--scenario", "abm-power", "--points", "3"], capsys)
    assert (code, err) == (0, "")
    assert len(table(out)[1]) == 3


@pytest.mark.parametrize("command, option", [
    ("cost", ["--format", "csv"]),  # cost and verify always write JSON
    ("verify", ["--format", "json"]),
    ("boundary", ["--seed", "1"]),  # boundary and statics draw nothing
    ("statics", ["--seed", "1"]),
], ids=["cost-format", "verify-format", "boundary-seed", "statics-seed"])
def test_options_a_command_would_ignore_are_rejected(command, option, capsys):
    paths = ["--paths", "20"] if command in ("cost", "verify") else []
    code, out, err = run([command, "--scenario", "cir-fast", *paths, *option], capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_help_and_missing_subcommand(capsys):
    assert run(["--help"], capsys)[0] == 0
    assert run([], capsys)[0] == 2
