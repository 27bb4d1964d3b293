"""Calibrate verify's Monte Carlo checks over fresh seeds.

    PYTHONPATH=src python scripts/calibrate_checks.py --out calibration.json

For each scenario and each of the seeds 1000-1019 (disjoint from the
scenarios' own seeds), montecarlo.check_battery runs at verify's offsets and
horizons (montecarlo.check_plan) and at the scenario's path count, five
times: with the rule as it is, and scaled by 0.999, 0.95, 0.99 and 1.01.
Per check the output records:

  z        identity: (F - (G+J)) / its paired SE; equilibrium: (revenue -
           q0) / SE; dominance: delta / paired SE at each nonzero offset.
           Identity and equilibrium z have mean 0 and spread 1 when the
           estimate is unbiased and its SE calibrated.
  mean_z, se_mean_z, spread_z, fails   over the seeds.
  delta_spread_over_se   dominance only: the spread of delta over the
           seeds over its mean paired SE, near 1 when the SE is calibrated.
           Dominance deltas lie hundreds of SE above 0 by design, so their
           z spread mostly shows how the SE itself varies between seeds.

Each scenario's entry also records the grid it measured: its path count
and the engine's step, read as the step of the grid a one-path
estimate_F samples, so it holds for any checkout's engine.

Power: the FAIL count of every check at each rule scale, with the mean
equilibrium z and the mean of each seed's smallest dominance z.

Coefficient bias: the estimate of each functional of the unscaled run (F,
G+J, each dominance difference, rev_h) is also formed with the coefficient
fitted on one half of the paths and applied to the other, both ways round,
which has no O(1/n) bias.  The mean over seeds of (full fit - split fit) /
SE is that bias in SE units.

The estimator is the installed package's: run this file against another
checkout's src/ (one with montecarlo.check_plan) to calibrate that
checkout's estimator at its own path counts.  Progress goes to stderr.
"""

import argparse
import json
import math
import statistics
import sys
import time

import numpy as np

from buildlag import montecarlo
from buildlag.scenarios import get

SEEDS = range(1000, 1020)
SCALES = (1.0, 0.999, 0.95, 0.99, 1.01)
NAMES = ("gbm-growth", "cir-fast", "cir-slow", "abm-power")


def summary(z):
    """Mean, its standard error, spread and count of a list of z values."""
    spread = statistics.stdev(z)
    return {"mean_z": statistics.fmean(z), "se_mean_z": spread / math.sqrt(len(z)),
            "spread_z": spread, "n": len(z)}


def split_fit(y, controls):
    """The control-variate estimate with the coefficient fitted on one half
    of the paths and applied to the other, averaged over both ways round."""
    x, mu = controls.values, controls.means
    halves = (slice(0, y.size // 2), slice(y.size // 2, y.size))
    est = []
    for fit, use in (halves, halves[::-1]):
        xc = x[:, fit] - np.mean(x[:, fit], axis=1)[:, None]
        b, _ = montecarlo._coefficients(np.einsum("ij,kj->ik", xc, xc),
                                        montecarlo._row_sums(xc, y[fit] - np.mean(y[fit])))
        est.append(np.mean(y[use]) - float(np.sum(b * (np.mean(x[:, use], axis=1) - mu))))
    return 0.5 * (est[0] + est[1])


def coefficient_bias(results, offsets):
    """(full fit - split fit) / SE of each functional of one battery run."""
    ident, dom, eq = results[0], results[1:-1], results[-1]
    ref = dom[offsets.index(0.0)].F
    pairs = {"F": (ident.F, ident.controls), "GJ": (ident.GJ, ident.controls),
             "rev_h": (eq.rev_h, eq.controls)}
    for e, res in zip(offsets, dom):
        if e:
            pairs[f"dominance {e:+.6g}"] = (res.F - ref, res.controls)
    out = {}
    for name, (y, c) in pairs.items():
        mean, se, _ = montecarlo._estimate(y, c)
        out[name] = (mean - split_fit(y, c)) / se
    return out


def engine_step(sc):
    """The step of the grid the engine samples sc's paths on."""
    steps = []
    path_matrix = montecarlo._path_matrix

    def record(model, d0, grid, *args):
        steps.append(grid.dt)
        return path_matrix(model, d0, grid, *args)

    montecarlo._path_matrix = record
    try:
        montecarlo.estimate_F(sc, horizon=1e-6, n_paths=1)
    finally:
        montecarlo._path_matrix = path_matrix
    return steps[0]


def run_scenario(name):
    cfg = get(name)
    sc, n_paths = cfg.scenario, cfg.mc.n_paths
    offsets, horizon, eq_horizon = montecarlo.check_plan(sc)
    kw = dict(horizon=horizon, equilibrium_horizon=eq_horizon, n_paths=n_paths)
    captured = []
    engine = montecarlo._run

    def capture(*args, **kwargs):
        # the unscaled run's per-path values, for the split-sample fits
        captured[:] = [engine(*args, **kwargs)]
        return captured[0]

    z = {"identity": [], "equilibrium": [], "dominance": [[] for e in offsets if e]}
    # per nonzero offset, each seed's (delta, paired SE)
    deltas = [[] for e in offsets if e]
    fails = {s: {"identity": 0, "dominance": 0, "equilibrium": 0} for s in SCALES}
    power = {s: {"equilibrium_z": [], "dominance_min_z": []} for s in SCALES}
    bias = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        for scale in SCALES:
            montecarlo._run = capture if scale == 1.0 else engine
            try:
                ident, dom, eq = montecarlo.check_battery(sc, offsets, seed=seed,
                                                          rule_scale=scale, **kw)
            finally:
                montecarlo._run = engine
            for check, rep in (("identity", ident), ("dominance", dom), ("equilibrium", eq)):
                fails[scale][check] += not rep.passed
            eq_z = (eq.revenue - eq.q0) / eq.std_error
            dom_z = [r.delta / r.paired_se for r in dom.rows if r.offset]
            power[scale]["equilibrium_z"].append(eq_z)
            power[scale]["dominance_min_z"].append(min(dom_z))
            if scale == 1.0:
                z["identity"].append(ident.diff_mean / ident.diff_se)
                z["equilibrium"].append(eq_z)
                for acc, v in zip(z["dominance"], dom_z):
                    acc.append(v)
                for acc, r in zip(deltas, [r for r in dom.rows if r.offset]):
                    acc.append((r.delta, r.paired_se))
                for k, v in coefficient_bias(captured[0], offsets).items():
                    bias.setdefault(k, []).append(v)
        print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    checks = {
        "identity": {**summary(z["identity"]), "fails": fails[1.0]["identity"],
                     "z": z["identity"]},
        "equilibrium": {**summary(z["equilibrium"]), "fails": fails[1.0]["equilibrium"],
                        "z": z["equilibrium"]},
        "dominance": {"fails": fails[1.0]["dominance"], "offsets": {
            f"{e:+.6g}": {**summary(v), "z": v, "delta_spread_over_se":
                          statistics.stdev(d for d, _ in ds) / statistics.fmean(se for _, se in ds)}
            for e, v, ds in zip([e for e in offsets if e], z["dominance"], deltas)}},
    }
    return {
        "n_paths": n_paths,
        "step": engine_step(sc),
        "checks": checks,
        "power": {f"{s:g}": {"fails": fails[s],
                             "mean_equilibrium_z": statistics.fmean(power[s]["equilibrium_z"]),
                             "mean_dominance_min_z": statistics.fmean(power[s]["dominance_min_z"])}
                  for s in SCALES if s != 1.0},
        "coefficient_bias_in_se": {k: summary(v) for k, v in bias.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    out = {"seeds": list(SEEDS), "rule_scales": list(SCALES), "scenarios": {}}
    for name in NAMES:
        out["scenarios"][name] = run_scenario(name)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
