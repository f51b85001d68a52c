"""Span recorder and the per-layer metrics computed from its spans.

Used only by the traced run. ``instrument`` wraps the public entry points of
each fedclip module inside the benchmark process, without touching the
package's files. Every call into a wrapped function records a span (name,
start, end, parent span); spans stay in compact arrays in memory and are
written out once at the end of the run. A span's self time is its duration
minus the part of it that its child spans cover; calls are nested in one
thread, so the coverage is the sum of the children's durations.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np

from fedclip import (cli, clipping, diagnostics, engine, fixedpoint, privacy,
                     problems, rng)

MODULES = (cli, clipping, diagnostics, engine, fixedpoint, privacy, problems, rng)

# (module, function name) -> span name. Every module namespace that holds the
# same function object (``from .problems import build_...``) is patched too.
FUNCTIONS = {
    (problems, "build_quadratic_ensemble"): "problems.build",
    (problems, "build_linear_regression_ensemble"): "problems.build",
    (problems, "build_mlp_synthetic_ensemble"): "problems.build",
    (rng, "stream"): "rng.stream",
    (engine, "run_experiment"): "engine.run_experiment",
    (engine, "run_round"): "engine.run_round",
    (engine, "local_update"): "engine.local_update",
    (engine, "sample_clients"): "engine.sample_clients",
    (clipping, "apply_policy"): "clipping.apply_policy",
    (clipping, "resolve_auto_threshold"): "clipping.resolve_auto_threshold",
    (privacy, "calibrate_noise"): "privacy.calibrate_noise",
    (privacy, "draw_noise"): "privacy.draw_noise",
    (diagnostics, "clip_bias_terms"): "diagnostics.clip_bias_terms",
    (diagnostics, "bound_inputs_from_trace"): "diagnostics.bound_inputs_from_trace",
    (diagnostics, "theorem1_bound"): "diagnostics.theorem1_bound",
    (diagnostics, "measured_stationarity"): "diagnostics.measured_stationarity",
    (diagnostics, "update_distribution"): "diagnostics.update_distribution",
    (cli, "load_config"): "cli.load_config",
    (cli, "write_artifacts"): "cli.write_artifacts",
    (fixedpoint, "solve_fixed_point"): "fixedpoint.solve_fixed_point",
    (fixedpoint, "table1_grid"): "fixedpoint.table1_grid",
    (fixedpoint, "eq7_ensemble"): "fixedpoint.eq7_ensemble",
}

# (class, method name) -> span name
METHODS = {
    (problems.ScalarQuadratic, "grad"): "problems.grad",
    (problems.LinearRegressionObjective, "grad"): "problems.grad",
    (problems.LinearRegressionObjective, "grad_batch"): "problems.grad",
    (problems.MLPObjective, "grad"): "problems.grad",
    (problems.MLPObjective, "grad_batch"): "problems.grad",
    (problems.GradientOracle, "sample"): "problems.oracle",
}


class SpanRecorder:
    """Spans of one run, grouped into one segment per traced invocation."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.segments = []   # (first span index, counters) per invocation
        self._stack = []

    def name_index(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_segment(self) -> dict:
        counters = {"oracle_violations": 0, "replay_streams": 0, "client_phases": 0,
                    "policy_factors": 0, "clipped": 0, "map_evals": 0}
        self.segments.append((len(self.name_id), counters))
        return counters

    def enter(self, name_id) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def segment(self, k):
        """Arrays of segment ``k`` with parents re-indexed to the segment."""
        lo = self.segments[k][0]
        hi = self.segments[k + 1][0] if k + 1 < len(self.segments) else len(self.name_id)
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        start = np.frombuffer(self.start)[lo:hi]
        end = np.frombuffer(self.end)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        parent = np.where(parent >= lo, parent - lo, -1)
        return ids, start, end, parent

    def save(self, path):
        seg_of = np.zeros(len(self.name_id), dtype=np.int32)
        for k, (lo, _) in enumerate(self.segments):
            seg_of[lo:] = k
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), segment=seg_of)


def _traced(rec, name, fn, after=None):
    nid = rec.name_index(name)

    def wrapper(*args, **kwargs):
        idx = rec.enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


@contextmanager
def instrument(rec: SpanRecorder, counters: dict):
    """Wrap the modules' public entry points for the duration of the block."""
    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def count_replay(args, kwargs, out):
        if len(args) > 1 and args[1] == "replay":
            counters["replay_streams"] += 1

    def count_phases(args, kwargs, out):
        cfg = kwargs["config"] if "config" in kwargs else args[2]
        counters["client_phases"] += cfg.n_clients

    def count_clipped(args, kwargs, out):
        factors = np.asarray(out[1], dtype=float)
        counters["policy_factors"] += factors.size
        counters["clipped"] += int(np.count_nonzero(factors < 1.0))

    after = {"rng.stream": count_replay, "engine.run_round": count_phases,
             "clipping.apply_policy": count_clipped}
    try:
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(module, attr)
            if name == "fixedpoint.solve_fixed_point":
                wrapped = _traced(rec, name, _counting_solver(original, counters))
            else:
                wrapped = _traced(rec, name, original, after.get(name))
            for holder in MODULES:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patch(holder, key, wrapped)
        for (cls, attr), name in METHODS.items():
            original = cls.__dict__[attr]
            if name == "problems.oracle":
                original = _violation_counting(original, counters)
            patch(cls, attr, _traced(rec, name, original))
        yield
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def _counting_solver(solve, counters):
    def solve_counted(map_fn, *args, **kwargs):
        def counted(x):
            counters["map_evals"] += 1
            return map_fn(x)
        return solve(counted, *args, **kwargs)
    return solve_counted


def _violation_counting(sample, counters):
    def sample_counted(self, x):
        before = self.violations
        g = sample(self, x)
        counters["oracle_violations"] += self.violations - before
        return g
    return sample_counted


def _inside(mask, parent):
    """For each span: does a strict ancestor satisfy ``mask``? Walks all
    spans up one level per pass, so the passes equal the nesting depth."""
    out = np.zeros(len(mask), dtype=bool)
    up = parent.copy()
    live = up >= 0
    while live.any():
        out[live] |= mask[up[live]]
        up[live] = parent[up[live]]
        live = up >= 0
    return out


def _times(rec: SpanRecorder, k: int):
    """Name ids, parents, durations and self times of segment ``k``'s spans."""
    ids, start, end, parent = rec.segment(k)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return ids, parent, dur, dur - child


def layer_metrics(rec: SpanRecorder, k: int) -> dict:
    """The per-layer metrics of traced invocation ``k``.

    ``*_s`` values are self times, except the whole-phase spans problems.build,
    engine.phase1 (nested auto-threshold pass), diagnostics, cli.write_artifacts
    and fixedpoint.solve, which are inclusive of their children.
    """
    ids, parent, dur, self_s = _times(rec, k)
    counters = rec.segments[k][1]

    def named(n):
        return ids == rec.name_index(n)

    def outermost(mask):
        return mask & ~_inside(mask, parent)

    build, grad, oracle = named("problems.build"), named("problems.grad"), named("problems.oracle")
    stream, local = named("rng.stream"), named("engine.local_update")
    rounds, run_exp = named("engine.run_round"), named("engine.run_experiment")
    policy, noise = named("clipping.apply_policy"), named("privacy.draw_noise")
    diag = np.isin(ids, [i for i, n in enumerate(rec.names) if n.startswith("diagnostics.")])
    in_build = _inside(build, parent)
    replays = counters["replay_streams"]
    phases = replays + counters["client_phases"]
    factors = counters["policy_factors"]
    return {
        "problems.build_s": float(dur[outermost(build)].sum()),
        "problems.grad_evals": int((grad & in_build).sum()),
        "problems.grad_s": float(self_s[grad & ~in_build].sum()),
        "problems.oracle_samples": int(oracle.sum()),
        "problems.oracle_s": float(self_s[oracle].sum()),
        "problems.oracle_violations": counters["oracle_violations"],
        "rng.streams": int(stream.sum()),
        "rng.stream_s": float(self_s[stream].sum()),
        "engine.local_updates": int(local.sum()),
        "engine.local_update_s": float(self_s[local].sum()),
        "engine.replay_share": replays / phases if phases else 0.0,
        "engine.rounds": int(rounds.sum()),
        "engine.round_self_s": float(self_s[rounds].sum()),
        "engine.phase1_s": float(dur[run_exp & _inside(run_exp, parent)].sum()),
        "clipping.apply_policy_calls": int(policy.sum()),
        "clipping.apply_policy_s": float(self_s[policy].sum()),
        "clipping.clipped_share": counters["clipped"] / factors if factors else 0.0,
        "privacy.noise_draws": int(noise.sum()),
        "privacy.draw_noise_s": float(self_s[noise].sum()),
        "diagnostics.s": float(dur[outermost(diag)].sum()),
        "diagnostics.clip_bias_calls": int(named("diagnostics.clip_bias_terms").sum()),
        "cli.write_artifacts_s": float(dur[outermost(named("cli.write_artifacts"))].sum()),
        "fixedpoint.solve_s": float(dur[outermost(named("fixedpoint.solve_fixed_point"))].sum()),
        "fixedpoint.map_evals": counters["map_evals"],
    }
