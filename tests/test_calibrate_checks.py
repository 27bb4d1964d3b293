"""scripts/calibrate_checks.py runs against this checkout's engine.

The script reaches into montecarlo's private names (_run, _coefficients,
_row_sums, _estimate), so a change to the engine can break it without any
other test noticing.  This runs one scenario on two seeds at 200 paths."""

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
