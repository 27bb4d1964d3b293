"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the buildlag modules from
outside the program: it replaces each name in every loaded buildlag module
(and the figure script) that refers to the same object, so calls made
through `from .x import y` bindings are seen too, and `restore` puts every
original back.  Nothing under src/ knows it is being traced.

Spans are kept in memory as [name, start, end, parent, attrs] and written
out once the action ends.  The Monte Carlo checks reach the sampler only
through a private function, so their sampling cost is measured afterwards
by replaying the public `sample_paths` with each check's seed, path count
and grid (see `Tracer.replay`).

Only the standard library is imported at module level, so the benchmark's
parent process can use `layer_metrics` without numpy.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

CHECKS = {
    "identity_check": "montecarlo.identity",
    "dominance_test": "montecarlo.dominance",
    "equilibrium_check": "montecarlo.equilibrium",
}

# rows per replayed block: the same memory ceiling the Monte Carlo engine
# keeps per block, so the replay does not trade time for memory
_REPLAY_CELLS = 3_000_000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._samplings: list[dict] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _current_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, fn, name, attrs=None, after=None):
        """fn with a span around each call; attrs(args, kwargs) gives the
        span's attributes, after(idx, result, args, kwargs) post-processes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            return after(idx, out, args, kwargs) if after else out

        return wrapper

    # -- patching -----------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind every module-level name that refers to `original`."""
        for name, mod in list(sys.modules.items()):
            if not (name == "buildlag" or name.startswith("buildlag.") or name == "make_figure_data"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, attr, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        """Wrap the public layer entry points.  Import the figure script
        first when tracing it, so its bindings are found."""
        import numpy as np

        from buildlag import boundary, cli, demand, kummer, montecarlo, policy

        z_switch = kummer.Z_SWITCH

        def kummer_attrs(args, kwargs):
            z = args[2] if len(args) > 2 else kwargs["z"]
            return {"branch": "series" if z < z_switch else "large_z"}

        self._replace(kummer.kummer_m_log, self._wrap(kummer.kummer_m_log, "kummer", kummer_attrs))
        self._replace(boundary.generic_boundary,
                      self._wrap(boundary.generic_boundary, "boundary.oracle"))
        self._replace(policy.simulate, self._wrap(policy.simulate, "policy.simulate"))
        self._replace(cli.main, self._wrap(cli.main, "cli"))

        for fname in ("sample_paths", "sample_path"):
            fn = getattr(demand, fname)
            self._replace(fn, self._wrap(fn, "demand.sample", after=self._sampling(fn, check=False)))

        for fname, span in CHECKS.items():
            fn = getattr(montecarlo, fname)
            self._replace(fn, self._wrap(fn, span, attrs=lambda a, k: {"grids": []},
                                         after=self._sampling(fn, check=True)))

        tracer = self

        def point_eval(original):
            # eval calls precautionary: count only the outermost call
            @functools.wraps(original)
            def wrapper(obj, d, *args, **kwargs):
                if tracer._current_name() == "boundary.eval":
                    return original(obj, d, *args, **kwargs)
                idx = tracer.open("boundary.eval", points=int(np.size(d)))
                try:
                    return original(obj, d, *args, **kwargs)
                finally:
                    tracer.close(idx)

            return wrapper

        def table(original):
            @functools.wraps(original)
            def wrapper(obj, *args, **kwargs):
                idx = tracer.open("boundary.table_build")
                try:
                    rule = original(obj, *args, **kwargs)
                finally:
                    tracer.close(idx)
                # affine boundaries hand back their own eval: no table built
                built = getattr(rule, "__self__", None) is not obj
                tracer.spans[idx][4]["built"] = built
                if not built:
                    return rule
                return tracer._wrap(
                    rule, "boundary.rule_eval",
                    attrs=lambda a, k: {"points": int(np.size(a[0] if a else k["d"]))},
                )

            return wrapper

        def grid_hook(original):
            # grids built inside a check are the grids its paths are drawn on
            @functools.wraps(original)
            def wrapper(grid):
                original(grid)
                for i in reversed(tracer._stack):
                    attrs = tracer.spans[i][4]
                    if "grids" in attrs:
                        attrs["grids"].append([grid.dt, grid.n_steps])
                        break

            return wrapper

        self._replace_method(boundary.Boundary, "eval", point_eval)
        self._replace_method(boundary.Boundary, "precautionary", point_eval)
        self._replace_method(boundary.Boundary, "table", table)
        self._replace_method(demand.TimeGrid, "__post_init__", grid_hook)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- sampling calls -----------------------------------------------------

    def _sampling(self, fn, check: bool):
        """Record a sampling call for `replay`: a direct `sample_paths` or
        `sample_path` call, or a check, whose paths come from its scenario."""
        sig = inspect.signature(fn)

        def after(idx, out, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = dict(bound.arguments)
            if check:
                sc = a["scenario"]
                a = {"model": sc.model, "d0": sc.d, "seed": a["seed"], "n_paths": a["n_paths"],
                     "scheme": a["scheme"], "max_refine": a["max_refine"]}
            else:
                self.spans[idx][4]["path_steps"] = a.get("n_paths", 1) * a["grid"].n_steps
            self._samplings.append({"span": idx, "fn": None if check else fn, "args": a})
            return out

        return after

    def replay(self) -> list[dict]:
        """Time the sampling each recorded call did, through public names.

        Checks: `sample_paths` on each grid the check built with more than
        one step, with the check's seed and path count, in blocks of at most
        _REPLAY_CELLS cells.  Every block is drawn with the check's seed, so
        its rows are the check's first rows (prefix property) and cost what
        the check's rows cost.  Every call, checks and direct ones alike, is
        also replayed on a one-step grid: the per-path stream setup.
        Run after `restore`, so the replay itself is not traced.
        """
        from buildlag.demand import TimeGrid, sample_paths

        out = []
        one_step = TimeGrid(0.0, 1.0, 1)
        for rec in self._samplings:
            a = rec["args"]
            if rec["fn"] is None:
                grids = [g for g in self.spans[rec["span"]][4].get("grids", []) if g[1] > 1]
                t0 = time.perf_counter()
                steps = 0
                for dt, n in grids:
                    grid = TimeGrid(0.0, dt, n)
                    rows = max(1, _REPLAY_CELLS // (n + 1))
                    for i0 in range(0, a["n_paths"], rows):
                        m = min(rows, a["n_paths"] - i0)
                        sample_paths(a["model"], a["d0"], grid, a["seed"], m,
                                     scheme=a["scheme"], max_refine=a["max_refine"])
                    steps += a["n_paths"] * n
                sample_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                sample_paths(a["model"], a["d0"], one_step, a["seed"], a["n_paths"],
                             scheme=a["scheme"], max_refine=a["max_refine"])
                setup_s = time.perf_counter() - t0
                out.append({"span": rec["span"], "kind": "check", "grids": grids,
                            "n_paths": a["n_paths"], "path_steps": steps,
                            "sample_s": sample_s, "stream_setup_s": setup_s})
            else:
                t0 = time.perf_counter()
                rec["fn"](**{**a, "grid": one_step})
                setup_s = time.perf_counter() - t0
                out.append({"span": rec["span"], "kind": "direct",
                            "stream_setup_s": setup_s})
        return out


# ---------------------------------------------------------------------------
# Per-layer metrics from a written trace
# ---------------------------------------------------------------------------

LAYER_METRICS = {
    "demand.sample_s": "s",
    "demand.path_steps": "count",
    "demand.stream_setup_s": "s",
    "kummer.calls_series": "count",
    "kummer.calls_large_z": "count",
    "kummer.s": "s",
    "boundary.table_builds": "count",
    "boundary.table_build_s": "s",
    "boundary.rule_eval_s": "s",
    "boundary.eval_points": "count",
    "boundary.eval_s": "s",
    "boundary.oracle_calls": "count",
    "boundary.oracle_s": "s",
    "policy.simulate_calls": "count",
    "policy.simulate_s": "s",
    "montecarlo.identity_s": "s",
    "montecarlo.dominance_s": "s",
    "montecarlo.equilibrium_s": "s",
    "montecarlo.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def layer_metrics(spans: list, replays: list, traced_wall: float,
                  untraced_wall: float, bytes_written: int) -> dict[str, float]:
    """Per-layer totals over one traced action.  Durations are inclusive
    except the *.self_s entries, which subtract the spans directly under
    them (and, for the checks, their replayed sampling time)."""
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def total(name, pred=None):
        return sum(dur[i] for i, s in enumerate(spans) if s[0] == name and (pred is None or pred(s)))

    def count(name, pred=None):
        return sum(1 for s in spans if s[0] == name and (pred is None or pred(s)))

    def series(s):
        return s[4]["branch"] == "series"

    def built(s):
        return s[4].get("built", False)

    checks = [i for i, s in enumerate(spans) if s[0] in CHECKS.values()]
    check_sampling = sum(r["sample_s"] for r in replays if r["kind"] == "check")
    direct = [i for i, s in enumerate(spans) if s[0] == "demand.sample"]
    cli_spans = [i for i, s in enumerate(spans) if s[0] == "cli"]
    return {
        "demand.sample_s": check_sampling + sum(dur[i] for i in direct),
        "demand.path_steps": sum(r["path_steps"] for r in replays if r["kind"] == "check")
        + sum(spans[i][4]["path_steps"] for i in direct),
        "demand.stream_setup_s": sum(r["stream_setup_s"] for r in replays),
        "kummer.calls_series": count("kummer", series),
        "kummer.calls_large_z": count("kummer", lambda s: not series(s)),
        "kummer.s": total("kummer"),
        "boundary.table_builds": count("boundary.table_build", built),
        "boundary.table_build_s": total("boundary.table_build", built),
        "boundary.rule_eval_s": total("boundary.rule_eval"),
        "boundary.eval_points": sum(s[4]["points"] for s in spans if s[0] == "boundary.eval"),
        "boundary.eval_s": total("boundary.eval"),
        "boundary.oracle_calls": count("boundary.oracle"),
        "boundary.oracle_s": total("boundary.oracle"),
        "policy.simulate_calls": count("policy.simulate"),
        "policy.simulate_s": total("policy.simulate"),
        "montecarlo.identity_s": total("montecarlo.identity"),
        "montecarlo.dominance_s": total("montecarlo.dominance"),
        "montecarlo.equilibrium_s": total("montecarlo.equilibrium"),
        "montecarlo.self_s": sum(dur[i] - child_time[i] for i in checks) - check_sampling,
        "cli.self_s": sum(dur[i] - child_time[i] for i in cli_spans),
        "cli.bytes_written": bytes_written,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(spans),
    }
