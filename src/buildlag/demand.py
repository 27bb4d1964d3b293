"""Demand-side diffusion models.

Three exactly-sampleable diffusions for the demand process, together with
the conditional moments over the build lag and the discounted-mean resolvent
that the investment boundary is built from:

    beta0(d)  = E[D_h | D_0 = d]           (mean over one lag)
    alpha0(d) = E[D_h^2 | D_0 = d]         (second moment over one lag)
    beta(d)   = int_0^inf e^(-rho t) E[beta0(D_t) | D_0 = d] dt

All three models have affine drift, so beta is affine in d and available in
closed form; the closed forms are cross-checked against quadrature in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NumericsError, ParameterError, require_count, require_finite,
                     require_nonnegative)

__all__ = [
    "ABM",
    "GBM",
    "CIR",
    "DemandModel",
    "TimeGrid",
    "grid_steps",
    "DemandPath",
    "validate",
    "state_space",
    "in_state_space",
    "drift_affine",
    "beta0",
    "alpha0",
    "beta_resolvent",
    "sample_path",
    "sample_paths",
]


def _require_sigma(owner: str, sigma: float) -> None:
    """ParameterError unless sigma > 0 and both sigma^2 and 1/sigma^2 are
    finite floats: the boundary's constants divide by sigma^2."""
    if not sigma > 0.0:
        raise ParameterError(f"{owner} needs sigma > 0, got sigma={sigma}")
    square = sigma * sigma
    if not (0.0 < square < math.inf and 1.0 / square < math.inf):
        raise ParameterError(
            f"{owner} needs sigma with finite sigma^2 and 1/sigma^2, got sigma={sigma}"
        )


@dataclass(frozen=True)
class ABM:
    """Arithmetic Brownian demand, dD = mu dt + sigma dW, on the whole line.

    mu is in level units per year, sigma in level units per sqrt(year).
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        require_finite("ABM", mu=self.mu, sigma=self.sigma)
        _require_sigma("ABM", self.sigma)

    def drift(self, d):
        return self.mu + 0.0 * d

    def diffusion(self, d):
        return self.sigma + 0.0 * d


@dataclass(frozen=True)
class GBM:
    """Geometric Brownian demand, dD = mu D dt + sigma D dW, on (0, inf)."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        require_finite("GBM", mu=self.mu, sigma=self.sigma)
        _require_sigma("GBM", self.sigma)

    def drift(self, d):
        return self.mu * d

    def diffusion(self, d):
        return self.sigma * d


@dataclass(frozen=True)
class CIR:
    """Square-root mean-reverting demand on (0, inf):

        dD = gamma (delta - D) dt + sigma sqrt(D) dW

    gamma is the reversion speed, delta the long-run level.  Positivity of
    the process requires the Feller condition 2 gamma delta >= sigma^2,
    enforced at construction.
    """

    gamma: float
    delta: float
    sigma: float

    def __post_init__(self) -> None:
        require_finite("CIR", gamma=self.gamma, delta=self.delta, sigma=self.sigma)
        if not (self.gamma > 0.0 and self.delta > 0.0 and self.sigma > 0.0):
            raise ParameterError(
                f"CIR needs gamma, delta, sigma > 0, got "
                f"({self.gamma}, {self.delta}, {self.sigma})"
            )
        _require_sigma("CIR", self.sigma)
        if not 2.0 * self.gamma * self.delta >= self.sigma**2:
            raise ParameterError(
                f"CIR needs 2*gamma*delta >= sigma^2 for positivity, got "
                f"2*{self.gamma}*{self.delta} = {2*self.gamma*self.delta:.6g} "
                f"< sigma^2 = {self.sigma**2:.6g}"
            )

    def drift(self, d):
        return self.gamma * (self.delta - d)

    def diffusion(self, d):
        return self.sigma * np.sqrt(d)


DemandModel = ABM | GBM | CIR


def state_space(model: DemandModel) -> tuple[float, float]:
    """Open interval the demand process lives on."""
    if isinstance(model, ABM):
        return (-math.inf, math.inf)
    return (0.0, math.inf)


def in_state_space(model: DemandModel, d) -> bool:
    d = np.asarray(d, dtype=float)
    if isinstance(model, ABM):
        return bool(np.all(np.isfinite(d)))
    return bool(np.all(np.isfinite(d)) and np.all(d > 0.0))


def drift_affine(model: DemandModel) -> tuple[float, float]:
    """Slope and intercept (a, b) of the affine drift mu(d) = a d + b."""
    if isinstance(model, ABM):
        return 0.0, model.mu
    if isinstance(model, GBM):
        return model.mu, 0.0
    if isinstance(model, CIR):
        return -model.gamma, model.gamma * model.delta
    raise TypeError(f"unknown demand model {model!r}")


def validate(model: DemandModel, rho: float) -> None:
    """Check that the discount rate is finite and dominates second-moment
    growth.

    Model-level parameter constraints are already enforced by the dataclass
    constructors; this adds the discounting condition that keeps discounted
    quadratic costs finite:

        ABM, CIR:  rho > 0   (second moments grow at most polynomially /
                              stay bounded)
        GBM:       rho > max(0, 2 mu + sigma^2)   (E[D_t^2] grows like
                              e^((2 mu + sigma^2) t))
    """
    if not isinstance(model, (ABM, GBM, CIR)):
        raise TypeError(f"unknown demand model {model!r}")
    require_finite(type(model).__name__, rho=rho)
    if not rho > 0.0:
        raise ParameterError(f"need rho > 0, got rho={rho}")
    if isinstance(model, GBM):
        floor = 2.0 * model.mu + model.sigma**2
        if not rho > floor:
            raise ParameterError(
                f"GBM needs rho > 2*mu + sigma^2 = {floor:.6g}, got rho={rho}"
            )


# ---------------------------------------------------------------------------
# Time grids and paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = t0 + i*dt for i = 0..n_steps (n_steps+1 points)."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        require_finite("TimeGrid", t0=self.t0, dt=self.dt)
        if not self.dt > 0.0:
            raise ParameterError(f"need dt > 0, got dt={self.dt}")
        require_count(1, n_steps=self.n_steps)

    def times(self) -> np.ndarray:
        """The grid's times.  ParameterError if they cannot be allocated: a
        horizon that far out is not a grid this process can hold."""
        try:
            steps = np.arange(self.n_steps + 1)
        except (ValueError, MemoryError) as exc:
            raise ParameterError(
                f"horizon {self.t_end:g} needs {self.n_steps + 1} grid points at "
                f"dt={self.dt:g}, more than can be allocated"
            ) from exc
        # i*dt rather than repeated addition: no accumulated rounding drift
        return self.t0 + self.dt * steps

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * self.n_steps


def grid_steps(horizon: float, dt: float) -> int:
    """Steps of dt from t = 0 to the first node at or past horizon, at least
    one: the horizon rounds up to the grid, and a horizon at most 1e-9
    steps past a node ends on that node.  Every grid built to a horizon,
    the Monte Carlo engine's and simulate's, takes its length from here."""
    steps = horizon / dt
    if not math.isfinite(steps):
        raise ParameterError(f"horizon {horizon:g} at dt={dt:g} is too many steps to count")
    return max(1, math.ceil(steps - 1e-9))


@dataclass(frozen=True)
class DemandPath:
    """A sampled demand trajectory on a grid, with its running maximum.

    values and running_max have shape (n+1,), or (n_paths, n+1) for a batch;
    running_max[..., i] is the path's maximum over [t_0, t_i], which the
    samplers take over the Brownian bridge between nodes.  The optimal
    policy depends on the path only through this statistic.
    """

    grid: TimeGrid
    values: np.ndarray
    running_max: np.ndarray


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def beta0(model: DemandModel, d, h: float):
    """Conditional mean E[D_h | D_0 = d].  Vectorized in d."""
    d = np.asarray(d, dtype=float)
    if isinstance(model, ABM):
        out = d + model.mu * h
    elif isinstance(model, GBM):
        out = d * math.exp(model.mu * h)
    elif isinstance(model, CIR):
        e = math.exp(-model.gamma * h)
        out = model.delta + e * (d - model.delta)
    else:
        raise TypeError(f"unknown demand model {model!r}")
    return out if out.ndim else float(out)


def alpha0(model: DemandModel, d, h: float):
    """Conditional second moment E[D_h^2 | D_0 = d].  Vectorized in d."""
    d = np.asarray(d, dtype=float)
    if isinstance(model, ABM):
        out = (d + model.mu * h) ** 2 + model.sigma**2 * h
    elif isinstance(model, GBM):
        out = d**2 * math.exp((2.0 * model.mu + model.sigma**2) * h)
    elif isinstance(model, CIR):
        g, dl, s = model.gamma, model.delta, model.sigma
        e = math.exp(-g * h)
        mean = dl + e * (d - dl)
        var = d * s**2 * (e - e * e) / g + dl * s**2 * (1.0 - e) ** 2 / (2.0 * g)
        out = mean**2 + var
    else:
        raise TypeError(f"unknown demand model {model!r}")
    return out if out.ndim else float(out)


def _node_moments(model: DemandModel, d0: float, t: np.ndarray) -> np.ndarray:
    """beta0(model, d0, t_i) and alpha0(model, d0, t_i) for every time t_i
    of t, as two rows, in one pass and equal to the scalar calls bit for
    bit.  Two operations round as in the scalar calls: each exponential
    factor is math.exp of one node (np.exp rounds differently), and each
    square of a sum is C pow (np.float_power), which `**` calls on a
    scalar; on an array `**` squares by multiplication."""
    d = np.asarray(d0, dtype=float)

    def exp(rate):
        return np.array([math.exp(x) for x in rate * t])

    if isinstance(model, ABM):
        mean = d + model.mu * t
        return np.array([mean, np.float_power(mean, 2) + model.sigma**2 * t])
    if isinstance(model, GBM):
        return np.array([d * exp(model.mu), d**2 * exp(2.0 * model.mu + model.sigma**2)])
    g, dl, s = model.gamma, model.delta, model.sigma
    e = exp(-g)
    mean = dl + e * (d - dl)
    var = d * s**2 * (e - e * e) / g + dl * s**2 * np.float_power(1.0 - e, 2) / (2.0 * g)
    return np.array([mean, np.float_power(mean, 2) + var])


def beta_resolvent(model: DemandModel, d, rho: float, h: float):
    """Discounted resolvent of the lag-h mean,

        beta(d) = int_0^inf e^(-rho t) E[ beta0(D_t) | D_0 = d ] dt.

    Because E[beta0(D_t)] = E[D_(t+h)] and the drift is affine, the integral
    has a closed form; it is affine in d for all three models.
    """
    validate(model, rho)
    require_nonnegative(h=h)
    d = np.asarray(d, dtype=float)
    if isinstance(model, ABM):
        out = model.mu * h / rho + d / rho + model.mu / rho**2
    elif isinstance(model, GBM):
        out = math.exp(model.mu * h) * d / (rho - model.mu)
    elif isinstance(model, CIR):
        g, dl = model.gamma, model.delta
        out = math.exp(-g * h) * (d - dl) / (rho + g) + dl / rho
    else:
        raise TypeError(f"unknown demand model {model!r}")
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Exact transition sampling
# ---------------------------------------------------------------------------


def _check_d0(model: DemandModel, d0: float) -> None:
    if not in_state_space(model, d0):
        lo, hi = state_space(model)
        raise ParameterError(f"d0={d0} outside state space ({lo}, {hi})")


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4
_STREAMS = 3


def _uint32_words(x) -> list[int]:
    """SeedSequence's little-endian uint32 words of an int or of a
    sequence of ints."""
    if isinstance(x, (int, np.integer)):
        x, out = int(x), []
        while True:
            out.append(x & _MASK32)
            x >>= 32
            if not x:
                return out
    return [w for v in x for w in _uint32_words(v)]


def _stream_seeds(seed, paths=None) -> np.ndarray:
    """PCG64 seed words of the three streams of each path in `paths` (path
    indices below 2**32), shape (len(paths), 3, 4).

    Row r, stream j seeds PCG64 as numpy's
    SeedSequence(seed).spawn(n)[paths[r]].spawn(3)[j] does, for any
    n > paths[r]; with paths=None there is one row, as
    SeedSequence(seed).spawn(3)[j].  The streams are
    (increments, chi-square, bridge uniforms), always all three in a fixed
    order, so path values do not depend on which optional blocks a caller
    consumes, and the first n draws of each stream coincide across grids of
    different lengths (common random numbers stay paired across horizons).

    SeedSequence's mix_entropy and generate_state are run here in uint32
    arithmetic over all paths at once, in place of one Python-level spawn
    per path: the words of a stream's spawn key (i, j) are its last entropy
    words, and each enters the pool by the same hash sequence.
    """
    run = _uint32_words(np.random.SeedSequence(seed).entropy)  # validates seed
    run += [0] * (_POOL - len(run))
    if paths is None:
        m, spawned = 1, []
    else:
        paths = np.asarray(paths)
        if paths.size and not (paths.min() >= 0 and paths.max() <= _MASK32):
            raise ParameterError("path indices must lie in [0, 2**32)")
        m = paths.size
        spawned = [np.repeat(paths.astype(np.uint32).reshape(-1, 1), _STREAMS, axis=1)]
    # entropy words, each of shape (path, stream)
    entropy = [np.full((m, _STREAMS), w, dtype=np.uint32) for w in run] + spawned
    entropy.append(np.broadcast_to(np.arange(_STREAMS, dtype=np.uint32), (m, _STREAMS)))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))

    # generate_state(4, uint64): eight uint32 words read as little-endian pairs
    state = np.empty((m, _STREAMS, 8), dtype="<u4")
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, :, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


class _SeedWords:
    """Precomputed PCG64 seed words, handed to PCG64 in place of a
    SeedSequence (which would hash them out of the entropy again)."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64 only")
        return self.words


np.random.bit_generator.ISeedSequence.register(_SeedWords)


def _draws(seeds, stream, out, draw):
    """Fill out, a (len(seeds), n) matrix whose rows are contiguous, with
    one stream's draws and return it: draw(generator, row) fills each
    path's row in place from that path's generator."""
    for row, words in zip(out, seeds[:, stream]):
        draw(np.random.Generator(np.random.PCG64(_SeedWords(words))), row)
    return out


# rows per block of the passes after the draws: a block of a 3000-step
# matrix is under 1 MB, so it stays in a core's L2 cache.  A path's values
# depend only on its own row, so the block size changes no result.
_BLOCK = 32


def _row_blocks(m):
    """Row slices of at most _BLOCK rows covering rows 0..m-1, in order."""
    return [slice(i, min(i + _BLOCK, m)) for i in range(0, m, _BLOCK)]


def _bridge_max(a, b, var_dt, u):
    """Max of a Brownian bridge from a to b over one step, by inversion.

    var_dt is sigma^2 * dt per interval (array or scalar); u is uniform on
    [0, 1).  The drift drops out of the bridge law.  The grid running max
    misses the intra-step excursions and is biased low by O(sqrt(dt)); this
    draw restores the exact continuous-time interval maximum.
    """
    # in place on u's buffer and one scratch matrix, to spare temporaries
    log_u = np.log1p(np.negative(u, out=u), out=u)
    log_u *= 2.0 * var_dt
    out = np.subtract(b, a)
    out *= out
    out -= log_u
    np.sqrt(out, out=out)
    out += a + b
    out *= 0.5
    return out


def _running_max(vals, interval_max, out):
    """Into out: the running maximum of vals with each step's interval
    maximum folded in.  interval_max is overwritten."""
    out[:, 0] = vals[:, 0]
    np.maximum(interval_max, vals[:, 1:], out=interval_max)
    np.maximum.accumulate(interval_max, axis=1, out=out[:, 1:])
    np.maximum(out[:, 1:], out[:, :1], out=out[:, 1:])
    return out


def _buffers(m, grid):
    """An uninitialised (values, running max) pair for m paths on grid, the
    two matrices _path_matrix fills."""
    shape = (m, grid.n_steps + 1)
    return np.empty(shape), np.empty(shape)


def _path_matrix(model, d0, grid, seeds, vals, rmax):
    """Sample len(seeds) paths into vals and rmax and return them: two
    (len(seeds), n_steps+1) float matrices with contiguous rows, the paths'
    values and their running maxima.  Row i consumes only the three streams
    seeded by seeds[i] (see _stream_seeds), so it does not depend on the
    other rows: the Monte Carlo engine samples its paths in slices on
    worker threads.  This function calls no caller-supplied code, so it may
    run off the calling thread; the threshold rule may not, and the engine
    reads it on the calling thread.

    The node values follow the exact transition laws, and the running
    maximum folds in each step's maximum drawn from the Brownian bridge
    between its nodes: exact for ABM and for GBM in log space; for CIR the
    diffusion coefficient is frozen at the step mean, an O(dt)
    approximation.

    No path-sized matrix is allocated: the draws are written into the two
    buffers.  ABM and GBM draw their normals into vals[:, 1:] and turn them
    into the path in place.  CIR draws its normals into vals[:, 1:], which
    the recursion overwrites chunk by chunk once it has copied the chunk,
    and its chi-square into rmax[:, 1:], which the running maximum
    overwrites.  Every pass after the draws runs on row blocks
    (_row_blocks), so its temporaries stay in cache: the bridge maximum,
    with each block's uniforms drawn for that block alone, and for ABM and
    GBM the cumulative sum, the affine map and GBM's exp.
    """
    n = grid.n_steps
    dt = grid.dt
    m = len(seeds)

    def running_max(var_dt):
        # the running maximum of vals into rmax, block by block; var_dt(b)
        # is sigma^2 dt of the steps of rows b, for the bridge
        for b in _row_blocks(m):
            u = _draws(seeds[b], 2, np.empty((b.stop - b.start, n)),
                       lambda g, row: g.random(out=row))
            _running_max(vals[b], _bridge_max(vals[b, :-1], vals[b, 1:], var_dt(b), u), rmax[b])
        return vals, rmax

    if isinstance(model, (ABM, GBM)):
        # Brownian motion with drift: in d for ABM, in log d for GBM
        log = isinstance(model, GBM)
        x0 = math.log(d0) if log else d0
        drift = model.mu - 0.5 * model.sigma**2 if log else model.mu
        trend = x0 + drift * dt * np.arange(1, n + 1)
        vals[:, 0] = x0
        # x = trend + sigma sqrt(dt) cumsum(z), in place on the draws z
        z = _draws(seeds, 0, vals[:, 1:], lambda g, row: g.standard_normal(out=row))
        for b in _row_blocks(m):
            zb = z[b]
            np.cumsum(zb, axis=1, out=zb)
            zb *= model.sigma * math.sqrt(dt)
            zb += trend
        running_max(lambda b: model.sigma**2 * dt)
        if log:
            np.exp(vals, out=vals)
            np.exp(rmax, out=rmax)
        return vals, rmax
    if isinstance(model, CIR):
        _cir_exact(model, d0, n, dt, seeds, vals, rmax[:, 1:])
        return running_max(lambda b: model.sigma**2 * 0.5 * (vals[b, :-1] + vals[b, 1:]) * dt)
    raise TypeError(f"unknown demand model {model!r}")


def _cir_exact(model, d0, n, dt, seeds, vals, x2):
    """Exact CIR transitions via the noncentral chi-square representation,
    into vals; x2 is an (m, n) scratch matrix with contiguous rows.

    Over a step, 2c D_(t+dt) ~ ncx2(df, 2c e^(-gamma dt) D_t) with
    c = 2 gamma / (sigma^2 (1 - e^(-gamma dt))) and df = 4 gamma delta / sigma^2.
    The Feller condition gives df >= 2, so the draw splits into one normal
    plus a chi-square with df-1 >= 1 degrees of freedom; both blocks are
    drawn per path up front, the normals into vals[:, 1:] and the
    chi-square into x2, and the recursion is pure arithmetic.
    """
    g, dl, s = model.gamma, model.delta, model.sigma
    edt = math.exp(-g * dt)
    c = 2.0 * g / (s**2 * (1.0 - edt))
    df = 4.0 * g * dl / s**2
    m = len(seeds)
    z = _draws(seeds, 0, vals[:, 1:], lambda g, row: g.standard_normal(out=row))
    _draws(seeds, 1, x2, lambda g, row: g.standard_gamma((df - 1.0) / 2.0, out=row))
    vals[:, 0] = d0
    cur = np.full(m, float(d0))
    nc_rate, scale = 2.0 * c * edt, 2.0 * c
    # the recursion runs on chunks of steps transposed to one row per step,
    # so each step reads and writes contiguous memory; a chunk's draws are
    # copied out before its path values overwrite the normals
    for j0 in range(0, n, 64):
        j1 = min(j0 + 64, n)
        zc, xc = z[:, j0:j1].T.copy(), x2[:, j0:j1].T.copy()
        # numpy's chisquare(df - 1) on the same draws: twice a standard gamma
        xc *= 2.0
        chunk = np.empty((j1 - j0, m))
        for j in range(j1 - j0):
            # D_(j+1) = (x2 + (z + sqrt(2 c e^(-gamma dt) D_j))^2) / (2 c)
            step = np.sqrt(np.multiply(cur, nc_rate, out=chunk[j]), out=chunk[j])
            step += zc[j]
            step *= step
            step += xc[j]
            cur = np.divide(step, scale, out=step)
        z[:, j0:j1] = chunk.T


def sample_path(model: DemandModel, d0: float, grid: TimeGrid, seed: int) -> DemandPath:
    """Sample one path. Deterministic in all arguments."""
    _check_d0(model, d0)
    vals, rmax = _sampled(model, d0, grid, _stream_seeds(seed))
    return DemandPath(grid=grid, values=vals[0], running_max=rmax[0])


def sample_paths(
    model: DemandModel,
    d0: float,
    grid: TimeGrid,
    seed: int,
    n_paths: int,
    scheme: str = "exact",
    max_refine: str = "bridge",
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a batch of paths; returns (values, running_max), each of shape
    (n_paths, n_steps+1).  The running maximum is the bridge maximum of
    _path_matrix.

    Path i draws from independent streams derived from (seed, i) as by
    SeedSequence spawning, so row i does not depend on n_paths: a batch of 5
    is the row-wise prefix of a batch of 8 with the same master seed.  A
    path out of float range raises NumericsError.  scheme and max_refine
    accept only their defaults (_require_sampler).
    """
    _require_sampler(scheme, max_refine)
    _check_d0(model, d0)
    require_count(1, n_paths=n_paths)
    return _sampled(model, d0, grid, _stream_seeds(seed, np.arange(n_paths)))


def _require_sampler(scheme, max_refine):
    """ParameterError unless scheme is "exact" and max_refine "bridge", the
    one sampler: exact transitions with the bridge running maximum."""
    if (scheme, max_refine) != ("exact", "bridge"):
        raise ParameterError(f"the sampler is scheme='exact', max_refine='bridge'; got "
                             f"scheme={scheme!r}, max_refine={max_refine!r}")


def _sampled(model, d0, grid, seeds):
    """_path_matrix into fresh buffers.  A path out of float range (a GBM
    path on a long enough horizon) raises NumericsError naming the horizon,
    in place of numpy's overflow warning and an inf demand level."""
    with np.errstate(over="ignore"):
        vals, rmax = _path_matrix(model, d0, grid, seeds, *_buffers(len(seeds), grid))
    # each path's last running maximum bounds its values and carries any inf
    # or nan among them
    if not np.isfinite(rmax[:, -1]).all():
        raise NumericsError(
            f"horizon {grid.t_end:g}: a sampled demand path leaves the float range; "
            f"shorten the horizon")
    return vals, rmax
