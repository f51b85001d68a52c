"""Record the iterate-trajectory digest of every ``fedclip run`` workload at
the default seed into digests.json.

    python3 perfbench/record_digests.py

Only a change to the benchmark may do this: a change to the program must
reproduce the recorded trajectories bit for bit.
"""

import json
import sys

from run import BENCH_DIR, Bench, import_program


def main() -> int:
    import_program()
    from workloads import DEFAULT_SEED, WORKLOADS
    digests = {}
    for w in WORKLOADS.values():
        if w.make_config is None:
            continue   # table1-grid is checked against its closed forms instead
        bench = Bench(w, DEFAULT_SEED, trace=0)
        bench.checker.recorded = None   # record afresh, whatever is on file
        bench.invoke()
        if bench.checker.failed:
            print("\n".join(bench.checker.messages), file=sys.stderr)
            return 1
        digests[w.name] = bench.checker.first
    (BENCH_DIR / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
