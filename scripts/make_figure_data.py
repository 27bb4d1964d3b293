"""Regenerate the figure-ready datasets under out/ with fixed seeds.

Everything goes through the command line front end, so the files here are
exactly what a user would get from the documented recipes:

  boundary_<family>_h<lag>_sigma<vol>.csv   threshold tables, d in [0, 40]
  trajectory_<scenario>.csv                 one simulated path per scenario
  band_<scenario>.csv                       200-path quantile summaries
  abm_sigma_sweep.csv                       volatility markdown at lag 1 vs 8

Two qualitative behaviors are reported (not hard-failed) at the end: the
square-root model's jump-then-flat committed capacity, and the additive
model's committed-minus-demand gap hovering near its closed-form bias.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from buildlag.boundary import Boundary
from buildlag.cli import main as cli
from buildlag.demand import DemandPath, TimeGrid, sample_paths
from buildlag.montecarlo import fast_rule
from buildlag.policy import simulate
from buildlag.scenarios import get


def boundary_tables(out: Path) -> None:
    for name, tag in (("cir-fast", "fast"), ("cir-slow", "slow")):
        for lag in (1, 8):
            for sigma in (0.05, 0.10):
                dest = out / f"boundary_{tag}_h{lag}_sigma{int(100 * sigma):03d}.csv"
                run([
                    "boundary", "--scenario", name,
                    "--lag", str(lag), "--sigma", str(sigma),
                    "--d-min", "0", "--d-max", "40", "--points", "401",
                    "--out", str(dest),
                ])


def trajectories(out: Path) -> None:
    for name in ("gbm-growth", "cir-fast", "cir-slow", "abm-power"):
        run([
            "simulate", "--scenario", name, "--horizon", "40",
            "--out", str(out / f"trajectory_{name}.csv"),
        ])
        run([
            "simulate", "--scenario", name, "--horizon", "40", "--paths", "200",
            "--out", str(out / f"band_{name}.csv"),
        ])


def sigma_sweep(out: Path) -> None:
    run([
        "boundary", "--scenario", "abm-power", "--sweep-sigma",
        "--out", str(out / "abm_sigma_sweep.csv"),
    ])


def run(argv) -> None:
    code = cli(argv)
    if code != 0:
        raise SystemExit(f"command {' '.join(argv)} exited with {code}")
    print("wrote", argv[argv.index("--out") + 1])


def _committed(cfg, horizon, n_paths):
    sc = cfg.scenario
    grid = TimeGrid(0.0, cfg.grid.dt, int(round(horizon / cfg.grid.dt)))
    vals, rmax = sample_paths(sc.model, sc.d, grid, cfg.mc.seed, n_paths,
                              max_refine="bridge")
    rule = fast_rule(sc, Boundary(sc.model, sc.rho, sc.h, sc.q0))
    traj = simulate(sc, rule, DemandPath(grid, vals, rmax, cfg.mc.seed))
    return sc, grid, vals, traj.committed


def report_cir_flatness() -> None:
    # committed capacity under fast reversion: one jump at t = 0, then close
    # to constant unless demand reaches unusually high levels
    cfg = get("cir-fast")
    sc, _, _, committed = _committed(cfg, horizon=40.0, n_paths=200)
    jump = committed[:, 0] - sc.committed_start
    later = committed[:, -1] - committed[:, 0]
    ratio = float(np.mean(later) / np.mean(jump))
    tag = "ok" if ratio < 0.10 else "note"
    print(f"[{tag}] cir-fast: post-jump growth of committed capacity is "
          f"{100 * ratio:.2f}% of the initial jump (200 paths, 40 years)")


def report_abm_hover() -> None:
    # the committed-minus-demand gap should hover near the closed-form bias
    cfg = get("abm-power")
    sc, grid, vals, committed = _committed(cfg, horizon=40.0, n_paths=200)
    t = grid.times()
    window = (t >= 10.0) & (t <= 40.0)
    gap = float(np.mean(committed[:, window] - vals[:, window]))
    bound = Boundary(sc.model, sc.rho, sc.h, sc.q0)
    bias = float(bound.eval(np.asarray(sc.d))) - sc.d
    band = 3.0 * sc.model.sigma / math.sqrt(sc.rho * 30.0)
    tag = "ok" if abs(gap - bias) <= band else "note"
    print(f"[{tag}] abm-power: mean committed-minus-demand gap over years "
          f"10-40 is {gap:.1f} MW vs threshold bias {bias:.1f} MW "
          f"(band +-{band:.0f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out", help="destination directory")
    args = parser.parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    boundary_tables(out)
    trajectories(out)
    sigma_sweep(out)
    report_cir_flatness()
    report_abm_hover()
    return 0


if __name__ == "__main__":
    sys.exit(main())
