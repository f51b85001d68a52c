"""Compare two result sets of the benchmark: parent commit versus change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by run.py (its
``.bench_out/results``), holding runs of the same workloads at the same
seeds. Make the runs in pairs with identical settings, alternating which
commit runs first. For every workload and end-to-end metric in
BENCHMARK.json, the verdict is:

- ``failures``: the change's error rate (failed / attempted invocations over
  all its runs of the workload) is higher than the parent's; its timings
  cannot count as a gain;
- ``gain``: at least ten pairs (same workload and seed), the change wins at
  least 9/10 of them (ties count for neither side), and the medians differ,
  in the better direction, by more than the parent's interquartile range;
- ``unresolved``: otherwise, when either side's run-to-run spread
  (interquartile range over median) exceeds the metric's bound, unless every
  run of the change reads better than every run of the parent;
- ``regression``: otherwise, when the change's median is worse than the
  parent's by more than the bound (a share of the parent's median);
- ``within bound``: none of the above.

Per-layer metrics of traced runs are listed as parent and change medians
with no verdict other than ``failures``. Exit code 1 when any pairing is
``failures`` or ``regression``, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory):
    """{(trace, workload): {seed: result}} from a results directory, where a
    result is {"metrics": {metric: value}, "failed": n, "attempted": n}."""
    out = {}
    for path in sorted(Path(directory).rglob("*.json")):
        res = json.loads(path.read_text())
        if not {"workload", "seed", "trace", "metrics", "failed", "attempted"} <= set(res):
            continue
        out.setdefault((res["trace"], res["workload"]), {})[res["seed"]] = {
            "metrics": {name: m["value"] for name, m in res["metrics"].items()},
            "failed": res["failed"], "attempted": res["attempted"]}
    return out


def error_rate(runs):
    return (sum(r["failed"] for r in runs.values())
            / sum(r["attempted"] for r in runs.values()))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def verdict(parent, change, better, bound):
    """Apply the rule above to {seed: value} maps of one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    p_vals, c_vals = list(parent.values()), list(change.values())
    pq1, pmed, pq3 = quartiles(p_vals)
    cq1, cmed, cq3 = quartiles(c_vals)
    spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed))
    worse_by = sign * (pmed - cmed) / abs(pmed)   # > 0 when the change is worse
    all_better = (min(c_vals) > max(p_vals)) if sign > 0 else (max(c_vals) < min(p_vals))
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and sign * (cmed - pmed) > pq3 - pq1):
        v = "gain"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regression"
    else:
        v = "within bound"
    return {"verdict": v, "pairs": len(seeds), "wins": wins, "losses": losses,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": len(p_vals)},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": len(c_vals)},
            "change_vs_parent": (cmed - pmed) / abs(pmed), "spread": spread,
            "bound": bound}


def compare(parent, change, spec):
    rows = []
    for (trace, workload) in sorted(set(parent) & set(change)):
        p, c = parent[(trace, workload)], change[(trace, workload)]
        errors = {"parent_error_rate": error_rate(p), "change_error_rate": error_rate(c)}
        more_failures = errors["change_error_rate"] > errors["parent_error_rate"]
        metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
        for m in metrics:
            name = m["name"]
            pv = {s: r["metrics"][name] for s, r in p.items() if name in r["metrics"]}
            cv = {s: r["metrics"][name] for s, r in c.items() if name in r["metrics"]}
            if not pv or not cv:
                continue
            if trace == 0:
                row = verdict(pv, cv, m["better"], m["bound"])
            else:
                row = {"verdict": "per-layer",
                       "parent": {"median": statistics.median(pv.values())},
                       "change": {"median": statistics.median(cv.values())}}
            if more_failures:
                row["verdict"] = "failures"
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         **row, **errors})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(load_results(args.parent), load_results(args.change), spec)
    if not rows:
        print("no workload appears in both result sets", file=sys.stderr)
        return 2
    for r in rows:
        pm, cm = r["parent"]["median"], r["change"]["median"]
        detail = (f"  pairs {r['pairs']} wins {r['wins']} losses {r['losses']} "
                  f"spread {r['spread']:.3f} bound {r['bound']}"
                  if "pairs" in r else "")
        errors = (f"  error rate {r['parent_error_rate']:.4f} -> {r['change_error_rate']:.4f}"
                  if r["verdict"] == "failures" else "")
        print(f"{r['workload']:24s} {r['metric']:30s} {pm:12.6g} -> {cm:12.6g} "
              f"{r['unit']:6s} {r['verdict']}{detail}{errors}")
    return 1 if any(r["verdict"] in ("failures", "regression") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
