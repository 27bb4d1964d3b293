"""The config reader and writer: canonical text, the strict key checks of
each section, the defaults a left-out key takes, and the value checks of
the settings dataclasses."""

import hashlib
import json
from dataclasses import replace

import pytest

from buildlag.demand import TimeGrid
from buildlag.errors import ParameterError
from buildlag.policy import Pipeline
from buildlag.scenarios import MCSettings, OutputSettings, dumps, from_dict, get, loads

# sha256 of dumps(get(name)): the canonical text of each named scenario
DIGESTS = {
    "gbm-growth": "d2d61a1399d71cdb945863058deed1fe1deb986d7fc14beebcb72e88ef37d2bd",
    "cir-fast": "ce6c9e1d7cd3ed92061e8e90bde5135a5df07fc48ef41167684e06f1ceaad4ae",
    "cir-slow": "497f13709151099204be19d5d0e54b9c76e3aa8264769b82869bba65ade4363f",
    "abm-power": "b522ca006c249b483311b25abf6d107578159e9a8a96acfef71aed5aff684d06",
}

# where each section sits in a config: the keys from the root down
SECTIONS = {
    "config": (),
    "scenario": ("scenario",),
    "model": ("scenario", "model"),
    "pipeline": ("scenario", "pipeline"),
    "grid": ("grid",),
    "mc": ("mc",),
    "outputs": ("outputs",),
}


def config(name="gbm-growth"):
    return json.loads(dumps(get(name)))


def at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_canonical_text_is_pinned_and_round_trips(name):
    text = dumps(get(name))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    assert loads(text) == get(name)
    assert dumps(loads(text)) == text


@pytest.mark.parametrize("name", [n for n in SECTIONS if n != "config"])
@pytest.mark.parametrize("value", [[], 3, "x", None])
def test_a_section_that_is_not_an_object_is_rejected(name, value):
    cfg = config()
    path = SECTIONS[name]
    at(cfg, path[:-1])[path[-1]] = value
    with pytest.raises(ParameterError, match=f"{name} must be an object"):
        from_dict(cfg)


def test_a_root_that_is_not_an_object_is_rejected():
    with pytest.raises(ParameterError, match="config must be an object, got list"):
        loads("[]")


@pytest.mark.parametrize("name", list(SECTIONS))
def test_an_unknown_key_in_any_section_is_rejected(name):
    cfg = config()
    at(cfg, SECTIONS[name])["colour"] = 1.0
    with pytest.raises(ParameterError, match=r"unknown keys in \w+: \['colour'\]"):
        from_dict(cfg)


def test_the_grid_start_is_not_a_key():
    cfg = config()
    cfg["grid"]["t0"] = 0.0
    with pytest.raises(ParameterError, match=r"unknown keys in grid: \['t0'\]"):
        from_dict(cfg)


def test_a_run_grid_must_start_at_zero():
    # the format has no t0, so a grid starting elsewhere could not round-trip
    with pytest.raises(ParameterError, match="t0"):
        replace(get("cir-fast"), grid=TimeGrid(2.0, 0.05, 800))
    assert replace(get("cir-fast"), grid=TimeGrid(-0.0, 0.05, 800)).grid.t0 == 0.0

@pytest.mark.parametrize("name, key", [
    ("gbm-growth", "gamma"), ("gbm-growth", "delta"),
    ("abm-power", "gamma"), ("cir-fast", "mu"),
])
def test_a_key_of_another_model_kind_is_rejected(name, key):
    # a gbm model has no gamma: a loader that dropped it would hide the typo
    cfg = config(name)
    cfg["scenario"]["model"][key] = "oops"
    with pytest.raises(ParameterError, match=f"unknown keys in model: \\['{key}'\\]"):
        from_dict(cfg)


@pytest.mark.parametrize("name, key", [
    ("config", "scenario"), ("config", "grid"),
    ("scenario", "model"), ("scenario", "rho"), ("scenario", "h"),
    ("scenario", "q0"), ("scenario", "k"), ("scenario", "d"),
    ("model", "mu"), ("model", "sigma"),
    ("grid", "dt"), ("grid", "n_steps"),
])
def test_each_missing_required_field_is_named(name, key):
    cfg = config()
    del at(cfg, SECTIONS[name])[key]
    with pytest.raises(ParameterError, match=f"missing field '{key}' in {name}"):
        from_dict(cfg)


@pytest.mark.parametrize("key", ["gamma", "delta", "sigma"])
def test_each_missing_cir_field_is_named(key):
    cfg = config("cir-fast")
    del cfg["scenario"]["model"][key]
    with pytest.raises(ParameterError, match=f"missing field '{key}' in model"):
        from_dict(cfg)


@pytest.mark.parametrize("kind", [None, "ou", ["gbm"], 1])
def test_a_model_needs_a_known_kind(kind):
    cfg = config()
    if kind is None:
        del cfg["scenario"]["model"]["kind"]
    else:
        cfg["scenario"]["model"]["kind"] = kind
    with pytest.raises(ParameterError, match="model kind must be abm/gbm/cir"):
        from_dict(cfg)


def test_left_out_keys_take_the_dataclass_defaults():
    cfg = config()
    for key in ("mc", "outputs"):
        del cfg[key]
    for key in ("eta", "theta", "pipeline"):
        del cfg["scenario"][key]
    run = from_dict(cfg)
    assert run.mc == MCSettings()
    assert run.outputs == OutputSettings()
    assert (run.scenario.eta, run.scenario.theta) == (0.0, 1.0)
    assert run.scenario.pipeline == Pipeline()
    assert run.scenario == get("gbm-growth").scenario

    cfg = config()
    cfg["mc"] = {"seed": 7}
    cfg["outputs"] = {"path": "run.csv"}
    cfg["scenario"]["pipeline"] = {}
    run = from_dict(cfg)
    assert run.mc == MCSettings(seed=7)
    assert run.outputs == OutputSettings(path="run.csv")
    assert run.scenario.pipeline == Pipeline()


def test_an_integer_horizon_is_written_as_a_float():
    cfg = config()
    cfg["mc"]["horizon"] = 5
    assert '"horizon": 5.0' in dumps(from_dict(cfg))


@pytest.mark.parametrize("build", [
    lambda: MCSettings(horizon=True),
    lambda: MCSettings(horizon="5"),
    lambda: MCSettings(horizon=[5.0]),
    lambda: OutputSettings(path=3),
    lambda: OutputSettings(path=b"run.csv"),
], ids=["horizon-bool", "horizon-str", "horizon-list", "path-int", "path-bytes"])
def test_settings_reject_values_of_the_wrong_type(build):
    # the reader passes mc and outputs values through to these dataclasses
    with pytest.raises(ParameterError, match="horizon|path"):
        build()


@pytest.mark.parametrize("path", [("scenario", "k"), ("scenario", "model", "mu"),
                                  ("grid", "dt"), ("mc", "horizon")])
def test_an_integer_past_the_float_range_is_rejected(path):
    cfg = config()
    at(cfg, path[:-1])[path[-1]] = 10**400
    with pytest.raises(ParameterError, match=f"'{path[-1]}' must be a finite number"):
        from_dict(cfg)
