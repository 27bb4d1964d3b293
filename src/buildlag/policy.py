"""Singular investment policy under a commitment lag, simulated on a grid.

Committed capacity reflects off the boundary: C_t = max(c, chat(running max
of demand)), which equals c plus the cumulative investment [chat(sup D) - c]+
because chat is nondecreasing.  Installed capacity trails by the lag,
K_t = C_{t-h}, with the window [0, h) filled by initial capital plus
deliveries from the pre-existing pipeline.  Everything here is exact on the
grid provided h is an integer multiple of dt; no interpolation is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .demand import DemandModel, DemandPath, TimeGrid, in_state_space, validate
from .errors import GridError, ParameterError, require_finite

__all__ = [
    "Pipeline",
    "Scenario",
    "Trajectory",
    "simulate",
    "reflect",
    "increments",
    "committed_identity_check",
    "lag_steps",
    "pipeline_levels",
]


@dataclass(frozen=True)
class Pipeline:
    """Capacity ordered before time 0 and still undelivered.

    A jump of size sizes[i] ordered at times[i] in [-h, 0) is delivered at
    times[i] + h.  Times must be strictly increasing and sizes nonnegative;
    the lower bound -h is checked by Scenario, which knows h.
    """

    times: tuple[float, ...] = ()
    sizes: tuple[float, ...] = ()

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        sizes = tuple(float(s) for s in self.sizes)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)
        if len(times) != len(sizes):
            raise ParameterError(
                f"pipeline has {len(times)} times but {len(sizes)} sizes"
            )
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ParameterError("pipeline times must be strictly increasing")
        if any(t >= 0.0 for t in times):
            raise ParameterError("pipeline times must be < 0")
        for t, s in zip(times, sizes):
            require_finite("Pipeline", time=t, size=s)
        if any(s < 0.0 for s in sizes):
            raise ParameterError("pipeline sizes must be >= 0")

    @property
    def total(self) -> float:
        return float(sum(self.sizes))


@dataclass(frozen=True)
class Scenario:
    """One market: demand model, discounting, lag, costs, initial state."""

    model: DemandModel
    rho: float
    h: float
    q0: float
    k: float
    d: float
    pipeline: Pipeline = field(default_factory=Pipeline)
    eta: float = 0.0
    theta: float = 1.0

    def __post_init__(self):
        require_finite(
            "Scenario", rho=self.rho, h=self.h, q0=self.q0, k=self.k, d=self.d,
            eta=self.eta, theta=self.theta,
        )
        validate(self.model, self.rho)
        if not self.h > 0.0:
            raise ParameterError(f"need h > 0, got h={self.h}")
        if not self.q0 > 0.0:
            raise ParameterError(f"need q0 > 0, got q0={self.q0}")
        if not self.theta > 0.0:
            raise ParameterError(f"need theta > 0, got theta={self.theta}")
        if not self.eta >= 0.0:
            raise ParameterError(f"need eta >= 0, got eta={self.eta}")
        if not in_state_space(self.model, self.d):
            raise ParameterError(
                f"initial demand {self.d} outside the state space of "
                f"{type(self.model).__name__}"
            )
        if self.pipeline.times and self.pipeline.times[0] < -self.h:
            raise ParameterError(
                f"pipeline order at t={self.pipeline.times[0]} predates -h={-self.h}"
            )

    @property
    def committed_start(self) -> float:
        """c = installed capital plus everything already in the pipeline."""
        return self.k + self.pipeline.total


@dataclass(frozen=True)
class Trajectory:
    grid: TimeGrid
    demand: np.ndarray
    committed: np.ndarray
    installed: np.ndarray
    investment_increments: np.ndarray
    price: np.ndarray


def lag_steps(grid: TimeGrid, h: float) -> int:
    """Number of grid steps in one lag; GridError unless exact."""
    if grid.t0 != 0.0:
        raise GridError(f"simulation grid must start at t=0, got t0={grid.t0}")
    steps = round(h / grid.dt)
    if steps < 1 or abs(steps * grid.dt - h) > 1e-9 * max(1.0, h):
        raise GridError(
            f"lag h={h} is not an integer multiple of dt={grid.dt}"
        )
    return steps


def pipeline_levels(k: float, pipeline: Pipeline, h: float, times: np.ndarray) -> np.ndarray:
    """Installed capacity at the given times from initial capital and
    pipeline deliveries alone (no new investment).  A jump ordered at s
    arrives at s + h; cadlag, so it is counted from t = s + h on."""
    times = np.asarray(times, dtype=float)
    if not pipeline.times:
        return np.full(times.shape, float(k))
    order_times = np.asarray(pipeline.times)
    cum = np.concatenate([[0.0], np.cumsum(pipeline.sizes)])
    idx = np.searchsorted(order_times, times - h, side="right")
    return k + cum[idx]


def reflect(levels, c0: float) -> np.ndarray:
    """Committed capacity under the reflection policy: the running maximum,
    along the last axis, of max(c0, levels).  `levels` is the rule read at
    the running maximum of demand; the result is one new array.  max is
    exact and rounding is monotone, so for a constant offset o,
    reflect(b + o, c0) == max(c0, max.accumulate(b) + o) bit for bit: one
    running maximum of the rule serves every shifted policy."""
    committed = np.maximum(c0, levels)
    np.maximum.accumulate(committed, axis=-1, out=committed)
    return committed


def increments(committed: np.ndarray, c0: float) -> np.ndarray:
    """Investment per node along the last axis: the atom committed[..., 0] - c0
    at t=0, then the steps of committed capacity."""
    out = np.empty_like(committed)
    out[..., 0] = committed[..., 0] - c0
    np.subtract(committed[..., 1:], committed[..., :-1], out=out[..., 1:])
    return out


def simulate(scenario: Scenario, boundary, path: DemandPath) -> Trajectory:
    """Run the reflection policy along one demand path or a batch of them.

    `path.values` and `path.running_max` have shape (n+1,) for one path or
    (n_paths, n+1) for a batch; every Trajectory array has the same shape
    and time runs along the last axis.  `boundary` is a Boundary instance or
    any nondecreasing vectorized callable d -> level.  Committed capacity can
    jump at t=0 (when chat(d) already exceeds the committed start); that atom
    is investment_increments[..., 0].  Installed capacity equals committed
    capacity lagged by h once t >= h.
    """
    rule = boundary.eval if hasattr(boundary, "eval") else boundary
    grid = path.grid
    lag = lag_steps(grid, scenario.h)
    c0 = scenario.committed_start

    committed = reflect(rule(path.running_max), c0)
    times = grid.times()
    n = len(times)
    installed = np.empty_like(committed)
    # a horizon shorter than the lag is covered by the pipeline alone
    head = min(lag, n)
    installed[..., :head] = pipeline_levels(scenario.k, scenario.pipeline, scenario.h, times[:head])
    installed[..., head:] = committed[..., : n - head]

    price = scenario.eta + scenario.theta * (path.values - installed)
    return Trajectory(
        grid=grid,
        demand=path.values,
        committed=committed,
        installed=installed,
        investment_increments=increments(committed, c0),
        price=price,
    )


def committed_identity_check(traj: Trajectory, h: float) -> float:
    """Max |C_t - K_{t+h}| over the overlap, over every path of a batch;
    zero for simulate() output."""
    lag = lag_steps(traj.grid, h)
    n = traj.committed.shape[-1]
    if n <= lag:
        return 0.0
    return float(np.max(np.abs(traj.committed[..., : n - lag] - traj.installed[..., lag:])))
