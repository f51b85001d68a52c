"""fedclip benchmark: one workload, end-to-end or traced, in one process.

    python3 perfbench/run.py --workload quad-fedavg-dp --seed 1 --seconds 22 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout that
holds this file. With ``--trace 0`` it times complete CLI invocations
(``fedclip.cli.main``) with no instrumentation and reports the end-to-end
metrics. With ``--trace 1`` it alternates plain and instrumented invocations
and reports the per-layer metrics (see spans.py) plus the tracing overhead.
Every invocation is checked (see check.py). The result, stamped with the
machine and versions, is written to ``.bench_out/results/`` and its metrics
are printed by name; the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 with a result line, 2 when the program is not found.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# One single-threaded process: pin BLAS before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

MIN_INVOCATIONS = 3
SETUP_SAMPLE_S = 0.05   # time a cheap set-up in batches that cost this much


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import fedclip from it."""
    src = ROOT / "src"
    if not (src / "fedclip" / "__init__.py").is_file():
        raise ImportError(f"no fedclip package under {src}")
    sys.path.insert(0, str(src))
    import fedclip
    if Path(fedclip.__file__).resolve().parent != (src / "fedclip").resolve():
        raise ImportError(f"fedclip imported from {fedclip.__file__}, not {src}")


class Bench:
    """One workload at one seed: config on disk, set-up, checked invocations."""

    def __init__(self, workload, seed, trace):
        import yaml
        from check import OutputChecker
        from workloads import DEFAULT_SEED

        self.workload = workload
        self.work = OUT / "work" / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.outdir = self.work / "out"
        self.config = workload.make_config(seed) if workload.make_config else None
        if self.config is not None:
            self.config_path = self.work / "config.yaml"
            self.config_path.write_text(yaml.safe_dump(self.config))
            self.argv = ["run", "--config", str(self.config_path), "--out", str(self.outdir)]
            rounds = int(self.config["run"]["rounds"])
        else:
            self.argv = ["table1", "--out", str(self.outdir / "grid.csv")]
            rounds = None
        digests = json.loads((BENCH_DIR / "digests.json").read_text())
        recorded = digests.get(workload.name) if seed == DEFAULT_SEED else None
        self.checker = OutputChecker(rounds, recorded)

    def setup(self, reps=1) -> float:
        """Wall time of the set-up users pay per run: config load plus problem
        build (constant estimation); for table1-grid the eq7 ensemble build.
        ``reps`` set-ups are timed together; the result is their mean."""
        from fedclip import cli, fixedpoint
        t0 = time.perf_counter()
        for _ in range(reps):
            if self.config is None:
                fixedpoint.eq7_ensemble()
            else:
                cli.load_config(self.config_path).build_problem()
        return (time.perf_counter() - t0) / reps

    def invoke(self, context=None):
        """One complete CLI invocation, timed, then checked (untimed): its
        wall time and whether it passed. A ``context`` (the tracer) is
        entered outside the timed region."""
        from fedclip import cli
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir()
        gc.collect()
        with context or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                code = cli.main(self.argv)
            except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return elapsed, self.checker.check(code, self.outdir)

    def output_size(self):
        files = [p for p in self.outdir.rglob("*") if p.is_file()]
        return len(files), sum(p.stat().st_size for p in files)


def slow_decile(xs, high=True):
    """90th percentile of durations (``high``), or 10th percentile of rates.

    A shared machine can switch for minutes at a time between its normal
    speed and one about 1.9x faster (measured on a 2-core VM). A run can spend
    most of its time at either speed, so the median of its samples jumps
    between the two. The slow tenth of the samples shows the normal speed in
    nearly every run."""
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    return deciles[-1] if high else deciles[0]


def warm_up(bench) -> float:
    """The first invocation, untimed: it fills caches, its trajectory is the
    reference of the rerun check, and it runs under tracemalloc (4-6x slower)
    to give the peak memory that one invocation allocates, in MB. That peak
    counts Python objects and numpy buffers and, unlike resident memory, does
    not depend on how the allocator happens to place them. The package is
    imported first, so the peak leaves its modules out."""
    from fedclip import cli, fixedpoint  # noqa: F401
    tracemalloc.start()
    bench.invoke()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def measure_end_to_end(bench, seconds):
    """Alternate set-up samples and timed invocations until ``seconds`` pass.

    Client-update throughput pairs each invocation with the set-up sample
    taken just before it, so a slow spell of the machine hits both terms.
    Only invocations that passed the checks are timed; when none passed
    (the result then reads ``correct: false``), all of them are. Each timing
    is the slow decile of its samples (see ``slow_decile``)."""
    samples = []   # (passed, run_s, setup_s, client_updates_per_s)
    updates = bench.workload.client_updates(bench.config)
    reps = max(1, min(50, round(SETUP_SAMPLE_S / max(bench.setup(), 1e-6))))
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        gc.collect()
        setup_s = bench.setup(reps)
        run_s, passed = bench.invoke()
        samples.append((passed, run_s, setup_s, updates / (run_s - setup_s)))
    timed = [s for s in samples if s[0]] or samples
    _, run_s, setup_s, updates_per_s = (list(col) for col in zip(*timed))
    series = {"run_s": run_s, "setup_s": setup_s,
              "client_updates_per_s": updates_per_s}
    values = {"run_s": slow_decile(run_s), "setup_s": slow_decile(setup_s),
              "client_updates_per_s": slow_decile(updates_per_s, high=False)}
    return values, series, {"client_updates_per_invocation": updates,
                            "setup_reps_per_invocation": reps}


def measure_layers(bench, seconds):
    from spans import SpanRecorder, instrument, layer_metrics
    rec = SpanRecorder()
    plain, traced, samples = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        plain.append(bench.invoke()[0])
        counters = rec.begin_segment()
        traced.append(bench.invoke(instrument(rec, counters))[0])
        metrics = layer_metrics(rec, len(rec.segments) - 1)
        metrics["cli.files_written"], metrics["cli.bytes_written"] = bench.output_size()
        samples.append(metrics)
    ratio = statistics.median(traced) / statistics.median(plain)
    values = {name: statistics.median(s[name] for s in samples)
              for name in samples[0]}
    values["trace.overhead_ratio"] = ratio
    series = {name: [s[name] for s in samples] for name in samples[0]}
    series["trace.overhead_ratio"] = [t / p for t, p in zip(traced, plain)]
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{bench.workload.name}.npz"   # latest traced run only
    rec.save(spans_path)
    return values, series, {"plain_run_s": plain, "traced_run_s": traced,
                            "spans_file": str(spans_path.relative_to(ROOT))}


def git_commit():
    """HEAD of the checkout, or None when it is not a git checkout (the test
    keeps ``git`` from reporting a repository that merely encloses it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedclip").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(seed):
    import numpy
    import yaml
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "platform": platform.platform(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "seed": seed}


def summarize(series):
    """Sample count, quartiles and range of one metric's samples."""
    xs = sorted(series)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0], xs[0], xs[0])
    out = {"samples": n, "median": statistics.median(xs), "q1": q1, "q3": q3,
           "min": xs[0], "max": xs[-1]}
    if n >= 20:
        # highest percentile with at least ten samples beyond it
        p = 1.0 - 10.0 / n
        out[f"p{100 * p:.0f}"] = xs[int(p * n) - 1]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        import_program()
    except ImportError as exc:
        print(json.dumps({"error": "setup", "message": str(exc)}), file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.workload not in WORKLOADS:
        print(json.dumps({"error": "usage", "message": f"unknown workload "
                          f"{args.workload!r}; choose from {sorted(WORKLOADS)}"}),
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, seed, args.trace)
    peak_alloc_mb = warm_up(bench)
    if args.trace:
        values, series, extra = measure_layers(bench, seconds)
    else:
        values, series, extra = measure_end_to_end(bench, seconds)
        values["peak_alloc_mb"], series["peak_alloc_mb"] = peak_alloc_mb, [peak_alloc_mb]
    chk = bench.checker
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    result = {
        "workload": workload.name, "seed": seed, "trace": args.trace,
        "seconds": seconds, "stamp": stamp(seed),
        "correct": chk.failed == 0, "attempted": chk.attempted, "failed": chk.failed,
        "error_rate": chk.failed / chk.attempted, "failures": chk.messages,
        "metrics": {name: {**m, **summarize(series[name])} for name, m in metrics.items()},
        "samples": {name: series[name] for name in metrics},
        "workload_definition": {"why": why, "loads": workload.loads,
                                "bypasses": workload.bypasses,
                                "predictions": workload.predictions},
        **extra,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{bench.work.name}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(bench.work, ignore_errors=True)
    for msg in chk.messages:
        print(f"FAILED {msg}")
    print(f"{workload.name} seed={seed} trace={args.trace} "
          f"error_rate={result['error_rate']:.4f} ({chk.failed}/{chk.attempted})")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    print(json.dumps({"correct": result["correct"], "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
