"""Regenerate the figure-ready datasets under out/ with fixed seeds.

Everything goes through the command line front end, so the files here are
exactly what a user would get from the documented recipes:

  boundary_<family>_h<lag>_sigma<vol>.csv   threshold tables, d in [0, 40]
  trajectory_<scenario>.csv                 one simulated path per scenario
  band_<scenario>.csv                       200-path quantile summaries
  abm_sigma_sweep.csv                       volatility markdown at lag 1 vs 8

Two qualitative behaviors are reported (not hard-failed) at the end, from
the mean paths in the band files: the square-root model's jump-then-flat
committed capacity, and the additive model's committed-minus-demand gap
hovering near its closed-form bias.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from buildlag.boundary import Boundary
from buildlag.cli import main as cli
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


def _band(out: Path, name: str) -> dict:
    # the columns of the band file trajectories() wrote (200 paths, 40
    # years), by their header names
    with open(out / f"band_{name}.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return dict(zip(header, np.loadtxt(fh, delimiter=",", unpack=True)))


def report_cir_flatness(out: Path) -> None:
    # committed capacity under fast reversion: one jump at t = 0, then close
    # to constant unless demand reaches unusually high levels
    sc = get("cir-fast").scenario
    c_mean = _band(out, "cir-fast")["c_mean"]
    ratio = float((c_mean[-1] - c_mean[0]) / (c_mean[0] - sc.committed_start))
    tag = "ok" if ratio < 0.10 else "note"
    print(f"[{tag}] cir-fast: post-jump growth of committed capacity is "
          f"{100 * ratio:.2f}% of the initial jump (200 paths, 40 years)")


def report_abm_hover(out: Path) -> None:
    # the committed-minus-demand gap should hover near the closed-form bias
    sc = get("abm-power").scenario
    cols = _band(out, "abm-power")
    window = (cols["t"] >= 10.0) & (cols["t"] <= 40.0)
    gap = float(np.mean(cols["c_mean"][window] - cols["d_mean"][window]))
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
    report_cir_flatness(out)
    report_abm_hover(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
