"""Benchmark for buildlag, driven from outside the program.

    python3 perfbench/run.py --workload verify-cir-fast --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout.  Every measured action is a fresh
process (perfbench/child.py) with src/ on PYTHONPATH and the BLAS thread
count pinned to BLAS_THREADS, one process at a time.

Workloads (the program's inputs are fixed; see "Seeds" below):
  verify-cir-fast    `buildlag verify --scenario cir-fast`, 10k paths, seed 102:
                     every Monte Carlo layer works, including three Kummer
                     interpolation tables and table lookups on path matrices.
  verify-gbm-growth  `buildlag verify --scenario gbm-growth`, 10k paths, seed 101:
                     the same engine with an affine boundary, so the Kummer
                     function and the table do no work.
  figures            scripts/make_figure_data.py into a fresh directory,
                     byte-compared with out/: pointwise boundary evaluation,
                     policy simulation and CSV writing, almost no Monte Carlo.

With --trace 0 a run runs the action in new processes for --seconds (at
least once; another action starts only if it should end inside the window),
makes SETUP_PROBES more processes that stop once ready, half before the
actions and half after, and prints the end-to-end metrics:
  setup_s      median time from process launch to ready (interpreter start,
               `import buildlag.cli`, loading the scenario)
  wall_s       median wall time of the action
  peak_rss_mb  median peak resident memory of the action's process
With --trace 1 it runs the action once untraced and once traced (tracer.py)
and prints the per-layer metrics, including the tracing overhead.

Every action's output is checked: exit code, every verify check PASS, every
number in the report finite, the cost-identity standard error mc_rel_se no
more than MC_REL_SE_SLACK above the value at which the benchmark was defined
(fewer paths or a shorter horizon would show there), and for figures every
file byte-identical to out/.  Once per run, untimed, the negative control
`verify --scenario cir-fast --paths 300 --debug-scale-boundary 0.5` must exit
4.  Failures are counted in `failed` against `attempted`; their ratio is the
error_rate printed with mc_rel_se on the summary lines.

Seeds: --seed is recorded but does not change the program's inputs.  The
verify checks are 3-standard-error statistical tests, so a run over many
fresh Monte Carlo seeds would now and then fail a correct program; and the
fixed scenario seed makes the report's sha256 (recorded per run) show any
change to the random stream.  The figure script embeds its own seeds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run, with the manifest
(versions, commit, BLAS threads, the scenario's config hash, paths, dt and
horizons) and every sample, is written to .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOADS = {
    # mc_rel_se: tolerance / (3 |F|) of the cost-identity check when the
    # benchmark was defined (1 BLAS thread, scenario seed, 10k paths)
    "verify-cir-fast": {"kind": "verify", "scenario": "cir-fast", "mc_rel_se": 0.001502768546167302},
    "verify-gbm-growth": {"kind": "verify", "scenario": "gbm-growth", "mc_rel_se": 0.014557241862298587},
    "figures": {"kind": "figures", "scenario": None},
}
E2E_METRICS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
NEGATIVE_CONTROL = ("cir-fast", ["--paths", "300", "--debug-scale-boundary", "0.5"], 4)
BLAS_THREADS = "1"
SETUP_PROBES = 4
MC_REL_SE_SLACK = 0.10
DEADLINE_S = 170.0
REQUIRED = ("src/buildlag/cli.py", "scripts/make_figure_data.py", "out")


class Bench:
    """Launches and checks the child processes of one run."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.env["TMPDIR"] = str(work)

    def launch(self, args: list[str]) -> tuple[dict | None, float]:
        """Run one child; returns (its result or None, launch time)."""
        self._n += 1
        result = self.work / f"result-{self._n}.json"
        log = self.work / f"child-{self._n}.log"
        cmd = [sys.executable, str(self.root / "perfbench" / "child.py"), "--result", str(result), *args]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        if code != 0 or not result.is_file():
            tail = log.read_bytes()[-2000:].decode(errors="replace")
            self.problems.append(f"child {' '.join(args)} ended with {code}: {tail}")
            return None, launched
        return json.loads(result.read_text()), launched

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"failed: {what}")

    def setup_probe(self, workload: dict) -> tuple[dict | None, float | None]:
        res, launched = self.launch(["--setup-only", *self._target(workload, None)])
        self.record(res is not None, "setup probe")
        return (res, res["ready"] - launched) if res else (None, None)

    def _target(self, workload, out):
        if workload["kind"] == "figures":
            return ["figures", str(out or self.work)]
        return ["verify", workload["scenario"], "--report", str(out or self.work / "unused")]

    def action(self, workload: dict, spans: Path | None = None) -> dict | None:
        """One checked action; returns its sample, or None if it crashed."""
        out = self.work / f"out-{self._n + 1}"
        args = self._target(workload, out) + (["--spans", str(spans)] if spans else [])
        res, launched = self.launch(args)
        if res is None:
            self.record(False, f"{workload['kind']} action crashed")
            return None
        sample = {"setup_s": res["ready"] - launched, "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"], "exit": res["exit"]}
        if workload["kind"] == "figures":
            ok = res["exit"] == 0 and out.is_dir() and self._same_as_reference(out)
            sample["bytes_written"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
            shutil.rmtree(out, ignore_errors=True)
        else:
            ok = res["exit"] == 0 and out.is_file() and self._check_report(out, workload, sample)
            sample["bytes_written"] = out.stat().st_size if out.is_file() else 0
            out.unlink(missing_ok=True)
        self.record(ok, f"{workload['kind']} action")
        return sample

    def negative_control(self) -> dict:
        scenario, extra, expect = NEGATIVE_CONTROL
        report = self.work / "negative.json"
        res, _ = self.launch(["verify", scenario, "--report", str(report), *extra])
        code = res["exit"] if res else None
        self.record(code == expect, f"negative control exited {code}, expected {expect}")
        report.unlink(missing_ok=True)
        return {"args": [scenario, *extra], "exit": code, "expected": expect}

    def _same_as_reference(self, out: Path) -> bool:
        ref = self.root / "out"
        names = sorted(p.name for p in ref.iterdir())
        if sorted(p.name for p in out.iterdir()) != names:
            self.problems.append("figures: file set differs from out/")
            return False
        differ = [n for n in names if (out / n).read_bytes() != (ref / n).read_bytes()]
        if differ:
            self.problems.append(f"figures: not byte-identical to out/: {differ}")
        return not differ

    def _check_report(self, path: Path, workload: dict, sample: dict) -> bool:
        data = path.read_bytes()
        sample["report_sha256"] = hashlib.sha256(data).hexdigest()

        def reject(token):
            raise ValueError(f"non-finite number {token}")

        try:
            report = json.loads(data, parse_constant=reject)
        except ValueError as exc:
            self.problems.append(f"verify report: {exc}")
            return False
        statuses = _find(report, "status")
        if not report.get("passed") or not statuses or any(s != "PASS" for s in statuses):
            self.problems.append(f"verify report: checks not all PASS: {statuses}")
            return False
        ident = [c for c in report.get("checks", []) if c.get("name") == "cost-identity"]
        try:
            rel = ident[0]["tolerance"] / (3.0 * abs(ident[0]["f"]))
        except (IndexError, KeyError, TypeError, ZeroDivisionError) as exc:
            self.problems.append(f"verify report: no cost-identity standard error: {exc!r}")
            return False
        sample["mc_rel_se"] = rel
        ref = workload["mc_rel_se"]
        if not (math.isfinite(rel) and rel > 0.0):
            self.problems.append(f"mc_rel_se {rel} is not a positive number")
            return False
        if ref is not None and rel > ref * (1.0 + MC_REL_SE_SLACK):
            self.problems.append(f"mc_rel_se {rel} exceeds {ref} by more than {MC_REL_SE_SLACK:.0%}")
            return False
        return True


def _find(obj, key):
    """Every value stored under `key` anywhere in a parsed JSON document."""
    if isinstance(obj, dict):
        return [v for k, v in obj.items() if k == key] + [x for v in obj.values() for x in _find(v, key)]
    if isinstance(obj, list):
        return [x for v in obj for x in _find(v, key)]
    return []


def e2e_metrics(setups: list[float], samples: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([s["wall_s"] for s in samples]),
        "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in samples]),
    }


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    missing = [r for r in REQUIRED if not (root / r).exists()]
    if missing:
        print(f"error: run from the root of a buildlag checkout; missing {missing}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runs = root / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work = root / ".perfbench" / f"tmp-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, work, start + DEADLINE_S)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        # the first probe warms the bytecode caches and describes the run; untimed
        probe, _ = bench.setup_probe(workload)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "manifest": {"commit": git_commit(root), **(probe["describe"] if probe else {})},
        }
        if args.trace:
            untraced = bench.action(workload)
            spans_path = runs / f"{tag}-spans.json"
            traced = bench.action(workload, spans=spans_path)
            if untraced is None or traced is None:
                print("error: an action crashed\n" + "\n".join(bench.problems), file=sys.stderr)
                return 1
            if traced.get("report_sha256") != untraced.get("report_sha256"):
                bench.record(False, "traced report differs from untraced report")
            trace = json.loads(spans_path.read_text())
            metrics = layer_metrics(trace["spans"], trace["replays"], traced["wall_s"],
                                    untraced["wall_s"], traced["bytes_written"])
            units = LAYER_METRICS
            record["samples"] = {"untraced": untraced, "traced": traced}
            record["manifest"]["checks"] = [
                {"check": trace["spans"][r["span"]][0], "n_paths": r["n_paths"], "grids": r["grids"]}
                for r in trace["replays"] if r["kind"] == "check"
            ]
            samples = [untraced, traced]
        else:
            # probes before and after the actions, so setup_s sees the same
            # stretch of machine time as wall_s
            probes = SETUP_PROBES // 2
            setups = [bench.setup_probe(workload)[1] for _ in range(probes)]
            samples = []
            t0 = time.monotonic()
            # start an action only if it should end inside the window, the
            # previous action's duration being the estimate
            last = 0.0
            while not samples or time.monotonic() - t0 + last <= args.seconds:
                if samples and time.monotonic() + last + 15.0 > bench.deadline:
                    break
                started = time.monotonic()
                sample = bench.action(workload)
                if sample is None:
                    break
                last = time.monotonic() - started
                samples.append(sample)
                setups.append(sample["setup_s"])
            setups += [bench.setup_probe(workload)[1] for _ in range(SETUP_PROBES - probes)]
            setups = [x for x in setups if x is not None]
            if not samples:
                print("error: no action completed\n" + "\n".join(bench.problems), file=sys.stderr)
                return 1
            metrics = e2e_metrics(setups, samples)
            units = E2E_METRICS
            record["samples"] = {"setup_s": setups, "actions": samples}
        record["negative_control"] = bench.negative_control()
        record["attempted"], record["failed"] = bench.attempted, bench.failed
        record["problems"] = bench.problems
        record["metrics"] = metrics
        (runs / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(problem, file=sys.stderr)
    manifest = record["manifest"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {manifest.get('blas_threads_live')}  nproc {manifest.get('nproc')}  "
          f"actions {len(samples)}")
    for name, value in metrics.items():
        print(f"  {name:26s} {value:.6g} {units[name]}")
    rel = [s["mc_rel_se"] for s in samples if "mc_rel_se" in s]
    if rel:
        print(f"  {'mc_rel_se':26s} {statistics.median(rel):.6g} 1")
    print(f"  {'error_rate':26s} {bench.failed / bench.attempted:.6g} 1 "
          f"({bench.failed} of {bench.attempted} operations failed)")
    digests = sorted({s["report_sha256"] for s in samples if "report_sha256" in s})
    if digests:
        print(f"  report_sha256 {' '.join(digests)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
