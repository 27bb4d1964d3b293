"""Command-line front end.

Subcommands: boundary (threshold tables), simulate (trajectories), cost
(Monte Carlo cost report), statics (sensitivity tables), verify (the full
check battery).  Every dataset the project ships can be regenerated from
here; see the epilog of --help for the recipes.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import scenarios
from .boundary import Boundary, cir_asymptote, cir_tangent, generic_boundary
from .demand import ABM, CIR, GBM, DemandPath, TimeGrid, grid_steps, sample_path, sample_paths
from .errors import (
    DomainError,
    GridError,
    NumericsError,
    ParameterError,
    StepError,
    TruncationError,
)
from .montecarlo import (
    PolicySpec,
    check_plan,
    dominance_test,
    equilibrium_check,
    estimate_F,
    fast_rule,
    identity_check,
)
from .policy import simulate
from .statics import sensitivity_checks, sensitivity_table

_EPILOG = """\
dataset recipes (each is deterministic under a fixed seed):
  boundary --scenario cir-fast                       threshold with tangent, asymptote, diagonal
  boundary --scenario cir-fast --lag 1 --sigma 0.05  lag/volatility variants of the same table
  boundary --scenario abm-power --sweep-sigma        volatility markdown at lag 1 vs lag 8
  simulate --scenario gbm-growth                     one path: t, D, C, K, dI, p
  simulate --scenario cir-slow --paths 2000          mean and quantile bands across paths
  cost --scenario gbm-growth --policy shift=50       cost of a deliberately shifted threshold
  statics --scenario gbm-growth                      elasticity table with sign verdicts
  verify --scenario cir-fast                         oracle, identity, dominance, equilibrium,
                                                     sensitivity checks; exit 4 on any FAIL

scripts/make_figure_data.py regenerates the full set under out/.
"""


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ParameterError, DomainError, GridError, StepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, TruncationError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and every parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="buildlag",
        description="Irreversible capacity investment under a construction lag: "
        "boundaries, simulation, cost estimates, verification.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, draws=False, table=False):
        # draws: the commands that sample paths; table: those that write a
        # table, CSV or JSON (cost and verify always write JSON)
        p.add_argument("--scenario", help="named parameter set (default: gbm-growth)")
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--out", help="output file (default: stdout)")
        if table:
            p.add_argument("--format", choices=("csv", "json"), help="output format")
        if draws:
            p.add_argument("--seed", type=int, help="override the Monte Carlo seed")
            p.add_argument("--paths", type=int, help="number of Monte Carlo paths")
            p.add_argument("--horizon", type=float, help="time horizon in years")

    b = sub.add_parser("boundary", help="tabulate the investment threshold")
    common(b, table=True)
    b.add_argument("--d-min", type=float,
                   help="lowest demand level (with --sweep-sigma: lowest sigma)")
    b.add_argument("--d-max", type=float,
                   help="highest demand level (with --sweep-sigma: highest sigma)")
    b.add_argument("--points", type=int, default=201, help="grid size (default 201)")
    b.add_argument("--lag", type=float, help="override the construction lag h")
    b.add_argument("--sigma", type=float, help="override the demand volatility")
    b.add_argument(
        "--sweep-sigma",
        action="store_true",
        help="additive model only: tabulate the threshold bias over volatility "
        "at lag 1 and lag 8 instead of over demand (so --lag does not apply)",
    )
    b.set_defaults(func=_cmd_boundary)

    s = sub.add_parser("simulate", help="simulate the optimal policy along demand paths")
    common(s, draws=True, table=True)
    s.set_defaults(func=_cmd_simulate)

    c = sub.add_parser("cost", help="Monte Carlo estimate of the discounted total cost")
    common(c, draws=True)
    c.add_argument(
        "--policy",
        default="optimal",
        help="'optimal', 'shift=X' (threshold moved by X), or 'const=X' "
        "(committed capacity jumps to X and stays)",
    )
    c.add_argument(
        "--tail-check",
        action="store_true",
        help="fail (exit 3) if the truncated tail exceeds 1%% of the estimate",
    )
    c.set_defaults(func=_cmd_cost)

    t = sub.add_parser("statics", help="sensitivity table for the threshold")
    common(t, table=True)
    t.set_defaults(func=_cmd_statics)

    v = sub.add_parser("verify", help="run the full verification battery")
    common(v, draws=True)
    v.add_argument(
        "--debug-scale-boundary",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply the threshold by FACTOR before the Monte Carlo checks; "
        "a negative control, dominance must FAIL for FACTOR != 1",
    )
    v.set_defaults(func=_cmd_verify)
    return parser


# ---------------------------------------------------------------------------
# Config plumbing and output helpers
# ---------------------------------------------------------------------------


def _load_config(args) -> scenarios.RunConfig:
    if args.config and args.scenario:
        raise ParameterError("give either --config or --scenario, not both")
    if args.config:
        cfg = scenarios.load(args.config)
    else:
        cfg = scenarios.get(args.scenario or "gbm-growth")
    mc = cfg.mc
    if getattr(args, "seed", None) is not None:
        mc = replace(mc, seed=args.seed)
    if getattr(args, "paths", None) is not None:
        mc = replace(mc, n_paths=args.paths)
    if getattr(args, "horizon", None) is not None:
        mc = replace(mc, horizon=args.horizon)
    out = cfg.outputs
    if args.out is not None:
        out = replace(out, path=args.out)
    if getattr(args, "format", None) is not None:
        out = replace(out, format=args.format)
    return replace(cfg, mc=mc, outputs=out)


def _emit_table(header, rows, outputs) -> None:
    if outputs.format == "json":
        text = json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2, sort_keys=True
        ) + "\n"
    else:
        # every caller writes at least one row and each column holds one
        # type, so the first row sets each column's format: %.17g for a
        # float, str() for anything else
        fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0])
        text = "\n".join([",".join(header), *(fmt % row for row in rows)]) + "\n"
    _emit(text, outputs.path)


def _rows(cols) -> list[tuple]:
    """Table rows of Python floats from equal-length numeric columns."""
    return list(zip(*(c.tolist() for c in cols)))


def _emit_columns(header, cols, outputs, overflow: str) -> None:
    """Equal-length numeric columns as a table, or NumericsError(overflow)
    if a cell left the float range, in place of inf or nan in the table."""
    if not all(np.isfinite(c).all() for c in cols):
        raise NumericsError(overflow)
    _emit_table(header, _rows(cols), outputs)


def _emit_json(obj, outputs) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", outputs.path)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


# a level inside the float range can carry the boundary out of it; that
# raises at the table, in place of numpy's warnings and inf in the table
@np.errstate(over="ignore", invalid="ignore")
def _cmd_boundary(args) -> int:
    for flag, value in (("--d-min", args.d_min), ("--d-max", args.d_max)):
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{flag} must be finite, got {value}")
    cfg = _load_config(args)
    sc = cfg.scenario
    model = sc.model
    if args.sigma is not None:
        model = replace(model, sigma=args.sigma)
    h = sc.h if args.lag is None else float(args.lag)
    if args.points < 2:
        raise ParameterError(f"need at least 2 grid points, got {args.points}")
    if args.sweep_sigma:
        if args.lag is not None:
            raise ParameterError("--lag does not apply to --sweep-sigma (lags 1 and 8)")
        return _boundary_sigma_sweep(cfg, model, args)

    bound = Boundary(model, sc.rho, h, sc.q0)
    is_cir = isinstance(model, CIR)
    lo = 0.0 if args.d_min is None else args.d_min
    hi = 2.0 * (model.delta if is_cir else sc.d) if args.d_max is None else args.d_max
    if isinstance(model, GBM) and lo <= 0.0:
        shifted = 1e-9 * max(hi, 1.0)
        print(
            f"note: d-grid start {lo:g} is outside the state space; using {shifted:g}",
            file=sys.stderr,
        )
        lo = shifted
    if not hi > lo:
        raise ParameterError(f"need d-max > d-min, got [{lo}, {hi}]")

    d = np.linspace(lo, hi, args.points)
    parts = bound.decompose(d)
    header = ["d", "c_hat", "beta0", "b_rho", "b_sigma"]
    cols = [d, parts.total, parts.beta0, np.full_like(d, parts.discounting_bias),
            parts.precautionary_bias]
    if is_cir:
        header += ["tangent", "asymptote", "diagonal"]
        cols += [
            cir_tangent(model, sc.rho, h, sc.q0, d),
            cir_asymptote(model, sc.rho, h, sc.q0, d),
            d,
        ]
    _emit_columns(header, cols, cfg.outputs,
                  f"d-max {hi:g}: the boundary leaves the float range")
    return 0


def _boundary_sigma_sweep(cfg, model, args) -> int:
    """Threshold bias c_hat(d) - d against volatility, at lags 1 and 8.

    The bias does not depend on d for the additive model, and the lag and
    volatility enter it through separate terms, so the gap between the two
    curves is constant in sigma."""
    sc = cfg.scenario
    if not isinstance(model, ABM):
        raise ParameterError("--sweep-sigma applies to the additive model only")
    lo = args.d_min if args.d_min is not None else 0.25 * model.sigma
    hi = args.d_max if args.d_max is not None else 2.0 * model.sigma
    if not 0.0 < lo < hi:
        raise ParameterError(f"need 0 < --d-min < --d-max for the sigma grid, got [{lo}, {hi}]")
    sigmas = np.linspace(lo, hi, args.points)
    rows = []
    for s in sigmas:
        m = replace(model, sigma=float(s))
        b1 = float(Boundary(m, sc.rho, 1.0, sc.q0).eval(np.asarray(sc.d)) - sc.d)
        b8 = float(Boundary(m, sc.rho, 8.0, sc.q0).eval(np.asarray(sc.d)) - sc.d)
        rows.append((float(s), b1, b8, b8 - b1))
    _emit_table(["sigma", "bias_h1", "bias_h8", "gap"], rows, cfg.outputs)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _sim_grid(cfg) -> TimeGrid:
    """The config's grid, or with --horizon its step run to the first node at
    or past the horizon (demand.grid_steps), which cost and verify round on
    to an even number of their own steps."""
    grid = cfg.grid
    if cfg.mc.horizon is not None:
        grid = TimeGrid(t0=0.0, dt=grid.dt, n_steps=grid_steps(cfg.mc.horizon, grid.dt))
    return grid


# demand inside the float range can still carry the policy out of it; that
# raises below, in place of numpy's warnings and inf or nan in the table
@np.errstate(over="ignore", invalid="ignore")
def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    sc = cfg.scenario
    grid = _sim_grid(cfg)
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    rule = fast_rule(sc, bound)

    # the config's n_paths is sized for Monte Carlo estimates; trajectory
    # output is one path unless --paths says otherwise
    n_paths = args.paths if args.paths is not None else 1
    t = grid.times()
    if n_paths == 1:
        path = sample_path(sc.model, sc.d, grid, cfg.mc.seed)
        traj = simulate(sc, rule, path)
        header = ["t", "D", "C", "K", "dI", "p"]
        cols = [t, traj.demand, traj.committed, traj.installed,
                traj.investment_increments, traj.price]
    else:
        vals, rmax = sample_paths(sc.model, sc.d, grid, cfg.mc.seed, n_paths)
        traj = simulate(sc, rule, DemandPath(grid, vals, rmax))
        d, c, k = traj.demand, traj.committed, traj.installed
        d05, d50, d95 = np.quantile(d, [0.05, 0.5, 0.95], axis=0)
        c05, c95 = np.quantile(c, [0.05, 0.95], axis=0)
        k05, k95 = np.quantile(k, [0.05, 0.95], axis=0)
        header = [
            "t",
            "d_mean", "d_q05", "d_q50", "d_q95",
            "c_mean", "c_q05", "c_q95",
            "k_mean", "k_q05", "k_q95",
            "di_mean", "p_mean",
        ]
        cols = [
            t,
            d.mean(axis=0), d05, d50, d95,
            c.mean(axis=0), c05, c95,
            k.mean(axis=0), k05, k95,
            traj.investment_increments.mean(axis=0), traj.price.mean(axis=0),
        ]
    _emit_columns(header, cols, cfg.outputs, f"horizon {grid.t_end:g}: the trajectory "
                  f"leaves the float range; shorten the horizon")
    return 0


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def _parse_policy(text: str) -> PolicySpec:
    if text == "optimal":
        return PolicySpec.optimal()
    for prefix, ctor in (("shift=", PolicySpec.shifted), ("const=", PolicySpec.constant)):
        if text.startswith(prefix):
            try:
                return ctor(float(text[len(prefix):]))
            except ValueError as exc:
                raise ParameterError(f"bad policy value in {text!r}: {exc}") from exc
    raise ParameterError(f"policy must be 'optimal', 'shift=X' or 'const=X', got {text!r}")


def _cmd_cost(args) -> int:
    cfg = _load_config(args)
    policy = _parse_policy(args.policy)
    est = estimate_F(
        cfg.scenario,
        policy=policy,
        horizon=cfg.mc.horizon,
        n_paths=cfg.mc.n_paths,
        seed=cfg.mc.seed,
    )
    small = est.tail_bound <= 0.01 * abs(est.mean)
    if args.tail_check and not small:
        raise TruncationError(f"cost horizon {est.horizon:g} leaves tail bound "
                              f"{est.tail_bound:.4g} > 1% of mean {est.mean:.4g}; extend it")
    report = {
        "estimate": est.mean,
        "se": est.std_error,
        "n_paths": est.n_paths,
        "horizon": est.horizon,
        "tail_bound": est.tail_bound,
        "policy": args.policy,
        "verdict": "ok" if small else "tail-above-1pct",
    }
    _emit_json(report, cfg.outputs)
    return 0


# ---------------------------------------------------------------------------
# statics
# ---------------------------------------------------------------------------


def _cmd_statics(args) -> int:
    cfg = _load_config(args)
    header = ["quantity", "wrt", "value", "kind", "verdict"]
    _emit_table(header, sensitivity_table(cfg.scenario), cfg.outputs)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    sc = cfg.scenario
    mc = cfg.mc
    scale = args.debug_scale_boundary

    # the Monte Carlo checks run first, so a run they stop (exit 2 or 3)
    # spends no time on the oracle
    monte_carlo = _check_monte_carlo(sc, mc, scale)
    checks = [_check_oracle(sc), *monte_carlo, _check_sensitivities(sc)]

    passed = all(c["status"] == "PASS" for c in checks)
    report = {
        "scenario": args.scenario or args.config or "gbm-growth",
        "debug_scale_boundary": scale,
        "checks": checks,
        "passed": passed,
    }
    _emit_json(report, cfg.outputs)
    return 0 if passed else 4


def _check_oracle(sc) -> dict:
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    points = [0.5 * sc.d, sc.d, 2.0 * sc.d]
    if isinstance(sc.model, CIR):
        points.append(sc.model.delta)
    worst = 0.0
    # 2 d0 equals delta in both CIR scenarios: solve each distinct point once
    for d in dict.fromkeys(points):
        closed = float(bound.eval(np.asarray(d)))
        oracle = generic_boundary(sc.model, sc.rho, sc.h, sc.q0, d)
        worst = max(worst, abs(closed - oracle) / max(1.0, abs(oracle)))
    return {
        "name": "boundary-oracle",
        "status": "PASS" if worst <= 1e-5 else "FAIL",
        "max_rel_err": worst,
        "points": [float(p) for p in points],
    }


def _check_monte_carlo(sc, mc, scale) -> list[dict]:
    """Cost identity, dominance and equilibrium, on montecarlo.check_plan's
    offsets and horizons; --horizon replaces both horizons.

    Each check draws its own paths.  montecarlo.check_battery returns the
    same three reports from one path batch, but the benchmark's traced run
    times the Monte Carlo layer per check name, so verify keeps the three
    calls until that tracer learns the shared entry.
    """
    offsets, horizon, eq_horizon = check_plan(sc)
    if mc.horizon is not None:
        horizon = eq_horizon = mc.horizon
    common = dict(n_paths=mc.n_paths, seed=mc.seed, rule_scale=scale)
    ident = identity_check(sc, **common)
    dom = dominance_test(sc, offsets, horizon=horizon, **common)
    eq = equilibrium_check(sc, horizon=eq_horizon, **common)
    # under the unscaled rule a unit's continuation revenue never exceeds q0,
    # so q0 e^(-rho T) bounds the revenue past the horizon from above only:
    # it may be negative and larger (abm-power at T = 100 leaves -0.162
    # against 1.68e-3), which abs(margin) <= cut cannot see.  When the bound
    # exceeds the tolerance and could carry the revenue across the check's
    # threshold, a FAIL may be truncation, not a bug; a revenue further than
    # that from the threshold keeps its verdict (under the negative control's
    # constant policy rev_h is affine in a control variate, so its SE is
    # rounding).  Scaled, q0 e^(-rho T) is no bound (cir-fast at 0.5 leaves
    # about 4e-4 uncounted, not 6e-6); there the margin, 65, keeps the verdict
    tol = 3.0 * eq.std_error
    cut = sc.q0 * math.exp(-sc.rho * eq_horizon)
    margin = tol - abs(eq.revenue - eq.q0) if eq.mode == "boundary" else eq.q0 - tol - eq.revenue
    if cut > tol and abs(margin) <= cut:
        raise TruncationError(
            f"equilibrium horizon {eq_horizon:g} leaves up to {cut:.4g} of revenue "
            f"uncounted, above the check's tolerance {tol:.4g}; extend it"
        )
    # each entry also states its paths and the variance its control
    # variates kept, as a share of the plain estimator's
    return [
        {
            "name": "cost-identity",
            "status": "PASS" if ident.passed else "FAIL",
            "f": ident.f.mean,
            "g_plus_j": ident.gj.mean,
            "gap": ident.f.mean - ident.gj.mean,
            "tolerance": ident.tolerance,
            "n_paths": mc.n_paths,
            "variance_ratio_f": ident.f.variance_ratio,
            "variance_ratio_g_plus_j": ident.gj.variance_ratio,
        },
        {
            "name": "dominance",
            "status": "PASS" if dom.passed else "FAIL",
            "offsets": offsets,
            "deltas": [r.delta for r in dom.rows],
            "paired_se": [r.paired_se for r in dom.rows],
            "n_paths": mc.n_paths,
            "variance_ratio": [r.variance_ratio for r in dom.rows],
        },
        {
            "name": "equilibrium",
            "status": "PASS" if eq.passed else "FAIL",
            "mode": eq.mode,
            "revenue": eq.revenue,
            "se": eq.std_error,
            "q0": eq.q0,
            "n_paths": mc.n_paths,
            "variance_ratio": eq.variance_ratio,
        },
    ]


def _check_sensitivities(sc) -> dict:
    """statics.sensitivity_checks as one report entry."""
    entries = sensitivity_checks(sc)
    return {
        "name": "sensitivities",
        "status": "PASS" if all(ok for _, ok, _ in entries) else "FAIL",
        "entries": [
            {"name": n, "status": "PASS" if ok else "FAIL", "abs_err": e}
            for n, ok, e in entries
        ],
    }


if __name__ == "__main__":
    sys.exit(main())
