"""One process of the benchmark.

Imports the program, loads the workload's input, notes the moment it is
ready, runs one action, and writes a small JSON result: the ready time on
the system-wide monotonic clock (the parent subtracts its launch time), the
action's wall time, exit code and peak resident memory.

    python3 perfbench/child.py --result R.json verify cir-fast --report REPORT [verify args]
    python3 perfbench/child.py --result R.json figures OUT_DIR

Run from the root of a checkout with src/ on PYTHONPATH.  Arguments the
child does not know are passed on to `buildlag verify`.  With --setup-only
the process stops once ready and describes what it would run instead.  With
--spans the action is traced (see tracer.py) and the spans and sampling
replays are written to that file; the result's wall time still covers the
action only.
"""

import argparse
import importlib.util
import json
import os
import resource
import sys
import time
from pathlib import Path


def load_figure_script(root: Path = Path(".")):
    path = root / "scripts" / "make_figure_data.py"
    spec = importlib.util.spec_from_file_location("make_figure_data", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["make_figure_data"] = mod
    spec.loader.exec_module(mod)
    return mod


def describe(scenario):
    """Versions, BLAS threads and, for a scenario, what exactly is run."""
    import hashlib
    import platform

    import numpy as np
    import scipy

    import buildlag
    from buildlag import scenarios

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {
        "buildlag": buildlag.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_live": _openblas_threads(),
    }
    if scenario is not None:
        cfg = scenarios.get(scenario)
        info["config"] = {
            "scenario": scenario,
            "seed": cfg.mc.seed,
            "config_sha256": hashlib.sha256(scenarios.dumps(cfg).encode()).hexdigest(),
            "n_paths": cfg.mc.n_paths,
            "dt": cfg.grid.dt,
            "n_steps": cfg.grid.n_steps,
            "horizon": cfg.mc.horizon,
        }
    return info


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM starts afresh at
    exec; ru_maxrss would also keep the launching process's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--report")
    p.add_argument("action", choices=("verify", "figures"))
    p.add_argument("target", help="scenario name, or the output directory for figures")
    args, extra = p.parse_known_args(argv)

    if args.action == "figures":
        figures = load_figure_script()
        scenario = None

        def action():
            return figures.main(["--out-dir", args.target])
    else:
        from buildlag import cli, scenarios

        scenario = args.target
        scenarios.get(scenario)
        argv = ["verify", "--scenario", scenario, "--out", args.report, *extra]

        def action():
            return cli.main(argv)

    result = {"ready": time.monotonic()}
    if args.setup_only:
        result["describe"] = describe(scenario)
    else:
        tracer = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = action()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        result.update(exit=code, wall_s=wall,
                      peak_rss_mb=peak_rss_mb())
        if tracer is not None:
            replays = tracer.replay()
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "replays": replays}, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
