"""Run configurations: a small dataclass tree, canonical JSON round-trip,
and a library of named parameter sets used by the CLI and the scripts.

The config format is the dataclass tree itself.  Each section is an object
whose keys are the fields of the dataclass it fills, and a field left out
takes that dataclass's default:

    scenario  Scenario: model, rho, h, q0, k, d, eta, theta, pipeline
    model     kind ("abm", "gbm" or "cir") plus that kind's fields
    pipeline  Pipeline: times, sizes
    grid      TimeGrid: dt, n_steps (t0 is always 0)
    mc        MCSettings: n_paths, seed, horizon
    outputs   OutputSettings: format, path

Canonical means dumps(loads(text)) == dumps(config) byte for byte: keys are
sorted, separators fixed, floats written with repr (shortest round-trip
form).  Parsing is strict: an unknown key, including a parameter of another
model kind, is an error, so that a typo in a config file fails loudly
instead of being ignored.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

from .demand import ABM, CIR, GBM, TimeGrid
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
_KINDS = {"abm": ABM, "gbm": GBM, "cir": CIR}


def _number(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParameterError(f"field {name!r} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # a JSON integer past the float range
        raise ParameterError(f"field {name!r} must be a finite number, got an integer "
                             f"of {v.bit_length()} bits") from None


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
            object.__setattr__(self, "horizon", _number(self.horizon, "horizon"))
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
        if self.path is not None and not isinstance(self.path, str):
            raise ParameterError(f"path must be a string or None, got {self.path!r}")


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    grid: TimeGrid
    mc: MCSettings = field(default_factory=MCSettings)
    outputs: OutputSettings = field(default_factory=OutputSettings)


def to_dict(config: RunConfig) -> dict:
    d = asdict(config)
    del d["grid"]["t0"]
    model = config.scenario.model
    d["scenario"]["model"]["kind"] = next(k for k, c in _KINDS.items() if type(model) is c)
    return d


def _as_is(v, name: str):
    return v


def _numbers(v, name: str) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ParameterError(f"field {name!r} must be a list of numbers, got {v!r}")
    return tuple(_number(x, f"{name}[{i}]") for i, x in enumerate(v))


def _object(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise ParameterError(f"{where} must be an object, got {type(v).__name__}")
    return v


def _build(cls, obj, where: str, /, read, fixed=None, **readers):
    """cls from the JSON object obj, the section named `where`.

    Each key of obj must be a field of cls not in `fixed`, the fields the
    reader fills itself.  A field left out takes its default, and one
    without a default must be given.  The value at a key is read by
    readers[key] if there is one, else by `read`; a reader gets the value
    and its key."""
    fixed = fixed or {}
    own = [f for f in fields(cls) if f.name not in fixed]
    unknown = set(_object(obj, where)) - {f.name for f in own}
    if unknown:
        raise ParameterError(f"unknown keys in {where}: {sorted(unknown)}")
    for f in own:
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ParameterError(f"missing field {f.name!r} in {where}")
    return cls(**fixed, **{k: readers.get(k, read)(v, k) for k, v in obj.items()})


def _model(obj, where: str):
    """The model of obj's kind; its keys are kind and that kind's fields."""
    kind = _object(obj, where).get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParameterError(f"model kind must be {'/'.join(_KINDS)}, got {kind!r}")
    return _build(cls, {k: v for k, v in obj.items() if k != "kind"}, where, _number)


def from_dict(d: dict) -> RunConfig:
    return _build(
        RunConfig, d, "config", _as_is,
        scenario=partial(_build, Scenario, read=_number, model=_model,
                         pipeline=partial(_build, Pipeline, read=_numbers)),
        # TimeGrid rejects a step count that is not an integer, JSON's bools too
        grid=partial(_build, TimeGrid, read=_number, fixed={"t0": 0.0}, n_steps=_as_is),
        mc=partial(_build, MCSettings, read=_as_is),
        outputs=partial(_build, OutputSettings, read=_as_is),
    )


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
            model=ABM(mu=300.0, sigma=600.0), rho=rho, h=h, q0=5.0, k=1e4, d=1e4
        ),
    }
    seeds = {"gbm-growth": 101, "cir-fast": 102, "cir-slow": 103, "abm-power": 104}
    # the smallest multiple of 500 paths at which every verify check's
    # control-variate standard error, at the scenario's seed, is at most
    # the plain estimator's at 10k paths (README, "Monte Carlo estimates"),
    # as scripts/calibrate_checks.py's path-count search reads it
    paths = {"gbm-growth": 5000, "cir-fast": 1500, "cir-slow": 4000, "abm-power": 3000}
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
