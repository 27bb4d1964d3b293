"""End-to-end command line tests: exit codes, output formats, determinism,
and the config round trip.  Everything goes through cli.main(argv)."""

import csv
import io
import json
import math

import numpy as np
import pytest

from buildlag import cli
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


def test_simulate_deterministic_output(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    argv = ["simulate", "--scenario", "cir-fast", "--horizon", "3"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert cli.main(argv + ["--out", str(c), "--seed", "9"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# ---------------------------------------------------------------------------
# cost


def test_cost_report(capsys):
    code, out, _ = run(
        ["cost", "--scenario", "cir-fast", "--paths", "200", "--horizon", "60"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["n_paths"] == 200
    assert report["horizon"] == 60.0
    assert report["verdict"] == "ok"
    assert report["se"] > 0.0
    assert math.isfinite(report["estimate"])


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
    code, _, err = run(
        ["cost", "--scenario", "gbm-growth", "--paths", "100", "--tail-check"],
        capsys,
    )
    assert code == 3
    assert "tail" in err


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
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "boundary-oracle", "cost-identity", "dominance",
        "equilibrium", "sensitivities",
    }
    assert all(c["status"] == "PASS" for c in report["checks"])


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


def test_help_and_missing_subcommand(capsys):
    assert run(["--help"], capsys)[0] == 0
    assert run([], capsys)[0] == 2
