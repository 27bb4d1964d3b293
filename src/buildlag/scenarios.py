"""Run configurations: a small dataclass tree, canonical JSON round-trip,
and a library of named parameter sets used by the CLI and the scripts.

Canonical means dumps(loads(text)) == dumps(config) byte for byte: keys are
sorted, separators fixed, floats written with repr (shortest round-trip
form).  Parsing is strict; unknown keys are an error so that a typo in a
config file fails loudly instead of being ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .demand import ABM, CIR, GBM, DemandModel, TimeGrid
from .errors import ParameterError, require_finite
from .policy import Pipeline, Scenario

__all__ = [
    "MCSettings",
    "OutputSettings",
    "RunConfig",
    "to_dict",
    "from_dict",
    "dumps",
    "loads",
    "load",
    "library",
    "get",
]

_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class MCSettings:
    """Monte Carlo knobs; horizon=None defers to the subcommand default."""

    n_paths: int = 10_000
    seed: int = 0
    horizon: float | None = None

    def __post_init__(self) -> None:
        # type(...) is int: JSON true and false load as bool, an int subclass
        if not (type(self.n_paths) is int and self.n_paths >= 1):
            raise ParameterError(f"need integer n_paths >= 1, got {self.n_paths!r}")
        if not (type(self.seed) is int and self.seed >= 0):
            raise ParameterError(f"need integer seed >= 0, got {self.seed!r}")
        if self.horizon is not None:
            require_finite("MCSettings", horizon=self.horizon)
            if not self.horizon > 0.0:
                raise ParameterError(f"need horizon > 0, got {self.horizon}")


@dataclass(frozen=True)
class OutputSettings:
    format: str = "csv"
    path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in _FORMATS:
            raise ParameterError(f"format must be one of {_FORMATS}, got {self.format!r}")


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    grid: TimeGrid
    mc: MCSettings = field(default_factory=MCSettings)
    outputs: OutputSettings = field(default_factory=OutputSettings)


def _model_to_dict(model: DemandModel) -> dict:
    if isinstance(model, ABM):
        return {"kind": "abm", "mu": model.mu, "sigma": model.sigma}
    if isinstance(model, GBM):
        return {"kind": "gbm", "mu": model.mu, "sigma": model.sigma}
    if isinstance(model, CIR):
        return {
            "kind": "cir",
            "gamma": model.gamma,
            "delta": model.delta,
            "sigma": model.sigma,
        }
    raise ParameterError(f"unknown model type {type(model).__name__}")


def _model_from_dict(d: dict) -> DemandModel:
    kind = d.get("kind")
    if kind == "abm":
        return ABM(_num(d, "mu"), _num(d, "sigma"))
    if kind == "gbm":
        return GBM(_num(d, "mu"), _num(d, "sigma"))
    if kind == "cir":
        return CIR(_num(d, "gamma"), _num(d, "delta"), _num(d, "sigma"))
    raise ParameterError(f"model kind must be abm/gbm/cir, got {kind!r}")


def _number(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParameterError(f"field {name!r} must be a number, got {v!r}")
    return float(v)


def _num(d: dict, key: str) -> float:
    if key not in d:
        raise ParameterError(f"missing field {key!r}")
    return _number(d[key], key)


def _nums(d: dict, key: str) -> tuple[float, ...]:
    v = d.get(key, [])
    if not isinstance(v, list):
        raise ParameterError(f"field {key!r} must be a list of numbers, got {v!r}")
    return tuple(_number(x, f"{key}[{i}]") for i, x in enumerate(v))


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ParameterError(f"unknown keys in {where}: {sorted(extra)}")


def to_dict(config: RunConfig) -> dict:
    s = config.scenario
    return {
        "scenario": {
            "model": _model_to_dict(s.model),
            "rho": s.rho,
            "h": s.h,
            "q0": s.q0,
            "k": s.k,
            "d": s.d,
            "eta": s.eta,
            "theta": s.theta,
            "pipeline": {"times": list(s.pipeline.times), "sizes": list(s.pipeline.sizes)},
        },
        "grid": {"dt": config.grid.dt, "n_steps": config.grid.n_steps},
        "mc": {
            "n_paths": config.mc.n_paths,
            "seed": config.mc.seed,
            "horizon": config.mc.horizon,
        },
        "outputs": {"format": config.outputs.format, "path": config.outputs.path},
    }


def from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ParameterError(f"config root must be an object, got {type(d).__name__}")
    _check_keys(d, {"scenario", "grid", "mc", "outputs"}, "config")
    for key in ("scenario", "grid"):
        if key not in d:
            raise ParameterError(f"missing section {key!r}")

    sd = d["scenario"]
    if not isinstance(sd, dict):
        raise ParameterError("scenario section must be an object")
    _check_keys(
        sd,
        {"model", "rho", "h", "q0", "k", "d", "eta", "theta", "pipeline"},
        "scenario",
    )
    if "model" not in sd or not isinstance(sd["model"], dict):
        raise ParameterError("scenario.model must be an object")
    _check_keys(sd["model"], {"kind", "mu", "sigma", "gamma", "delta"}, "scenario.model")
    pd = sd.get("pipeline", {"times": [], "sizes": []})
    if not isinstance(pd, dict):
        raise ParameterError("scenario.pipeline must be an object")
    _check_keys(pd, {"times", "sizes"}, "scenario.pipeline")
    pipeline = Pipeline(_nums(pd, "times"), _nums(pd, "sizes"))
    scenario = Scenario(
        model=_model_from_dict(sd["model"]),
        rho=_num(sd, "rho"),
        h=_num(sd, "h"),
        q0=_num(sd, "q0"),
        k=_num(sd, "k"),
        d=_num(sd, "d"),
        pipeline=pipeline,
        eta=_num(sd, "eta") if "eta" in sd else 0.0,
        theta=_num(sd, "theta") if "theta" in sd else 1.0,
    )

    gd = d["grid"]
    if not isinstance(gd, dict):
        raise ParameterError("grid section must be an object")
    _check_keys(gd, {"dt", "n_steps"}, "grid")
    # TimeGrid rejects a step count that is not an integer, JSON's bools too
    grid = TimeGrid(t0=0.0, dt=_num(gd, "dt"), n_steps=gd.get("n_steps"))

    md = d.get("mc", {})
    if not isinstance(md, dict):
        raise ParameterError("mc section must be an object")
    _check_keys(md, {"n_paths", "seed", "horizon"}, "mc")
    horizon = md.get("horizon")
    if horizon is not None:
        horizon = _num(md, "horizon")
    mc = MCSettings(
        n_paths=md.get("n_paths", 10_000),
        seed=md.get("seed", 0),
        horizon=horizon,
    )

    od = d.get("outputs", {})
    if not isinstance(od, dict):
        raise ParameterError("outputs section must be an object")
    _check_keys(od, {"format", "path"}, "outputs")
    path = od.get("path")
    if path is not None and not isinstance(path, str):
        raise ParameterError(f"outputs.path must be a string or null, got {path!r}")
    outputs = OutputSettings(format=od.get("format", "csv"), path=path)

    return RunConfig(scenario=scenario, grid=grid, mc=mc, outputs=outputs)


def dumps(config: RunConfig) -> str:
    return json.dumps(to_dict(config), sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _reject_constant(name: str):
    raise ParameterError(f"invalid JSON: non-finite literal {name} is not accepted")


def loads(text: str) -> RunConfig:
    try:
        d = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid JSON: {exc}") from exc
    return from_dict(d)


def load(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def library() -> dict[str, RunConfig]:
    """Named parameter sets.

    Demand and capacity are in abstract flow units except abm-power, which
    is calibrated to a power market and measured in MW.  Installation cost
    q0 is per unit of capacity.
    """
    rho, h = 0.08, 8.0
    grid = TimeGrid(t0=0.0, dt=0.05, n_steps=800)
    entries = {
        "gbm-growth": Scenario(
            model=GBM(mu=0.03, sigma=0.06), rho=rho, h=h, q0=5.0, k=1000.0, d=1000.0
        ),
        "cir-fast": Scenario(
            model=CIR(gamma=0.8, delta=20.0, sigma=0.2), rho=rho, h=h, q0=1.0, k=10.0, d=10.0
        ),
        "cir-slow": Scenario(
            model=CIR(gamma=0.08, delta=20.0, sigma=0.2), rho=rho, h=h, q0=1.0, k=10.0, d=10.0
        ),
        "abm-power": Scenario(
            model=ABM(mu=300.0, sigma=600.0), rho=rho, h=h, q0=5.0, k=10_000.0, d=10_000.0
        ),
    }
    seeds = {"gbm-growth": 101, "cir-fast": 102, "cir-slow": 103, "abm-power": 104}
    # the smallest multiple of 500 paths at which every verify check's
    # control-variate standard error, at the scenario's seed, is at most
    # the plain estimator's at 10k paths (README, "Monte Carlo estimates")
    paths = {"gbm-growth": 5000, "cir-fast": 5000, "cir-slow": 4500, "abm-power": 7500}
    return {
        name: RunConfig(
            scenario=sc,
            grid=grid,
            mc=MCSettings(n_paths=paths[name], seed=seeds[name], horizon=None),
        )
        for name, sc in entries.items()
    }


def get(name: str) -> RunConfig:
    lib = library()
    if name not in lib:
        raise ParameterError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(lib))}"
        )
    return lib[name]
