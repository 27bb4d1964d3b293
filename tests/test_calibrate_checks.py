"""scripts/calibrate_checks.py runs against this checkout's engine.

The script reaches into montecarlo's private names (_run, _coefficients,
_row_sums, _estimate), so a change to the engine can break it without any
other test noticing.  This runs one scenario on two seeds at 200 paths,
and its path-count search on prefixes of one 400-path run."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

from buildlag import demand, montecarlo, scenarios

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    path = ROOT / "scripts" / "calibrate_checks.py"
    spec = importlib.util.spec_from_file_location("calibrate_checks_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_calibration_runs_one_scenario(monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "SEEDS", range(1000, 1002))

    def small(name):
        cfg = scenarios.get(name)
        return replace(cfg, mc=replace(cfg.mc, n_paths=200))

    monkeypatch.setattr(script, "get", small)
    engine = montecarlo._run
    out = script.run_scenario("abm-power")
    assert montecarlo._run is engine
    assert set(out) == {"n_paths", "step", "checks", "power", "coefficient_bias_in_se"}
    assert out["n_paths"] == 200
    assert out["step"] == montecarlo._STEPS[demand.ABM]
    assert set(out["checks"]) == {"identity", "equilibrium", "dominance"}
    assert set(out["power"]) == {"0.999", "0.95", "0.99", "1.01"}
    offsets = [e for e in montecarlo.check_plan(scenarios.get("abm-power").scenario)[0] if e]
    bias = out["coefficient_bias_in_se"]
    assert set(bias) == {"F", "GJ", "rev_h", *(f"dominance {e:+.6g}" for e in offsets)}
    for entry in bias.values():
        assert entry["n"] == 2
        assert all(math.isfinite(entry[k]) for k in ("mean_z", "se_mean_z", "spread_z"))


def test_path_count_search_reads_prefixes_of_one_run(monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "SEARCH_PATHS", 400)
    monkeypatch.setattr(script, "SEARCH_STEP", 100)
    runs = []
    engine = montecarlo._run

    def counting(scenario, base, requests, n_paths, seed):
        runs.append((n_paths, seed))
        return engine(scenario, base, requests, n_paths, seed)

    monkeypatch.setattr(montecarlo, "_run", counting)
    out = script.path_count_search("abm-power")
    cfg = scenarios.get("abm-power")
    assert runs == [(400, cfg.mc.seed)] and out["seed"] == cfg.mc.seed
    assert list(out["se_ratio"]) == [100, 200, 300, 400]
    names = set(out["plain_se"])
    assert {"F", "GJ", "rev_h"} <= names and len(names) == 7
    # the plain SE at the full count is the reference, so the full count's
    # ratios are the square roots of the variance ratios, all below 1
    assert all(0.0 < r < 1.0 for r in out["se_ratio"][400].values())
    met = [n for n, r in out["se_ratio"].items() if max(r.values()) <= 1.0]
    assert out["n_paths"] == min(met)
