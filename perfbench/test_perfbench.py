"""Tests of the benchmark itself: tracing leaves the program as it found it
and does not change its output, every metric it emits is declared in
BENCHMARK.json, and the sampling replay covers exactly the checks' grids."""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_PATHS = 200


@pytest.fixture(scope="module")
def small_verify(tmp_path_factory):
    """cir-fast verify at SMALL_PATHS, run untraced and traced as the
    benchmark runs them; returns (reports, trace)."""
    work = tmp_path_factory.mktemp("perfbench")
    bench = run.Bench(ROOT, work, time.monotonic() + 170.0)
    reports = {}
    for traced in (False, True):
        report = work / f"report-{traced}.json"
        args = ["verify", "cir-fast", "--report", str(report), "--paths", str(SMALL_PATHS)]
        if traced:
            args += ["--spans", str(work / "spans.json")]
        res, _ = bench.launch(args)
        assert res is not None, bench.problems
        assert res["exit"] == 0
        reports[traced] = report.read_bytes()
    return reports, json.loads((work / "spans.json").read_text())


def test_traced_and_untraced_reports_are_byte_identical(small_verify):
    reports, _ = small_verify
    assert reports[True] == reports[False]


def test_emitted_metric_names_are_declared(small_verify):
    _, trace = small_verify
    declared_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    emitted = layer_metrics(trace["spans"], trace["replays"], 1.0, 1.0, 0)
    assert set(emitted) == set(declared_layer)
    assert {n: LAYER_METRICS[n] for n in emitted} == declared_layer

    declared_e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    emitted = run.e2e_metrics([0.5], [{"wall_s": 1.0, "peak_rss_mb": 2.0}])
    assert set(emitted) == set(declared_e2e)
    assert {n: run.E2E_METRICS[n] for n in emitted} == declared_e2e
    assert set(run.WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


def test_replayed_path_steps_equal_the_checks_grids(small_verify):
    # dt = 0.05 and a lag of 8 years (160 steps) past each horizon: identity
    # at 5 / rho = 62.5 years, dominance and equilibrium at 150 years
    _, trace = small_verify
    per_path = (1250 + 160) + (3000 + 160) + (3000 + 160)
    metrics = layer_metrics(trace["spans"], trace["replays"], 1.0, 1.0, 0)
    assert metrics["demand.path_steps"] == SMALL_PATHS * per_path
    checks = [r for r in trace["replays"] if r["kind"] == "check"]
    assert [trace["spans"][r["span"]][0] for r in checks] == [
        "montecarlo.identity", "montecarlo.dominance", "montecarlo.equilibrium"]
    assert metrics["boundary.table_builds"] == 3


def _snapshot():
    mods = {n: m for n, m in sys.modules.items()
            if n == "buildlag" or n.startswith("buildlag.") or n == "make_figure_data"}
    from buildlag.boundary import Boundary
    from buildlag.demand import TimeGrid

    owners = list(mods.values()) + [Boundary, TimeGrid]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_wrappers_restore_every_attribute(monkeypatch):
    monkeypatch.chdir(ROOT)
    import buildlag.cli

    figures = child.load_figure_script(ROOT)
    try:
        before = _snapshot()
        original = figures.cli
        tracer = Tracer()
        tracer.install()
        try:
            assert figures.cli is not original
            assert buildlag.cli.identity_check is not before[id(buildlag.cli)][1]["identity_check"]
        finally:
            tracer.restore()
        after = _snapshot()
        assert after.keys() == before.keys()
        for key, (owner, attrs) in before.items():
            now = after[key][1]
            assert now.keys() == attrs.keys(), owner
            changed = [a for a in attrs if now[a] is not attrs[a]]
            assert not changed, (owner, changed)
    finally:
        sys.modules.pop("make_figure_data", None)
