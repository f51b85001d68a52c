"""Output checker: turns one CLI invocation into pass or fail.

An invocation fails when any of these holds:

- the CLI returned a non-zero exit code or raised;
- an artifact is not strict JSON or CSV: no ``NaN``/``Infinity`` token and
  no non-finite number in a CSV cell (``allow_nan=False`` semantics);
- the iterate trajectory (``t``, ``x``, ``sampled`` of every line of
  ``rounds.jsonl``) differs from the digest recorded in ``digests.json`` for
  that workload at the default seed, or, at any seed, from the first
  invocation of the same run;
- for table1-grid, a stationary point is off its closed form by more than
  the acceptance-test tolerance, or the grid differs from the first
  invocation of the same run.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

# Closed-form stationary points of the table1 grid and the tolerances of
# tests/test_acceptance.py::test_criterion_01_stationary_point_grid.
TABLE1_TARGETS = {("1", "inf"): 0.0, ("1", "1"): 0.5,
                  ("inf", "inf"): 13.0 / 9.0, ("inf", "1"): 2.0 / 3.0}
TABLE1_LABELS = ("local_steps", "threshold")
SOLVER_TOL = 1e-6
SIMULATION_TOL = 1e-3


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def strict_csv_rows(path, label_columns=()):
    """Rows of a CSV file whose numeric cells are all finite. Cells of the
    ``label_columns`` are names (table1 labels Q=inf as ``inf``), not numbers."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty CSV")
    width = len(rows[0])
    labels = [i for i, name in enumerate(rows[0]) if name in label_columns]
    for row in rows:
        if len(row) != width:
            raise ValueError(f"ragged row {row!r}")
        for cell in (c for i, c in enumerate(row) if i not in labels):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise ValueError(f"non-finite cell {cell!r}")
    return rows


def _check_artifacts(outdir: Path, label_columns=()):
    """Parse every file under ``outdir`` strictly; return failure strings."""
    failures = []
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        rel = path.relative_to(outdir)
        try:
            if path.suffix == ".json":
                strict_json(path.read_text())
            elif path.suffix == ".jsonl":
                for line in path.read_text().splitlines():
                    strict_json(line)
            elif path.suffix == ".csv":
                strict_csv_rows(path, label_columns)
            else:
                raise ValueError("not a JSON or CSV artifact")
        except ValueError as exc:
            failures.append(f"{rel}: {exc}")
    return failures


def trajectory_digest(rounds_path: Path) -> str:
    h = hashlib.sha256()
    for line in rounds_path.read_text().splitlines():
        rec = strict_json(line)
        h.update(json.dumps([rec["t"], rec["x"], rec["sampled"]],
                            separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_run(outdir: Path, rounds: int):
    """Artifacts of ``fedclip run``: (trajectory digest or None, failures)."""
    failures = _check_artifacts(outdir)
    rounds_path = outdir / "rounds.jsonl"
    if not rounds_path.is_file():
        return None, failures + ["rounds.jsonl missing"]
    for name in ("bias.csv", "bound.json", "summary.csv"):
        if not (outdir / name).is_file():
            failures.append(f"{name} missing")
    n_scatter = len(list((outdir / "scatter").glob("round_*.csv")))
    if n_scatter != rounds:
        failures.append(f"{n_scatter} scatter files for {rounds} rounds")
    try:
        ts = [strict_json(line)["t"] for line in rounds_path.read_text().splitlines()]
        if ts != list(range(rounds)):
            failures.append(f"rounds.jsonl has rounds {ts[:3]}... ({len(ts)} lines)")
        return trajectory_digest(rounds_path), failures
    except (ValueError, KeyError) as exc:
        return None, failures + [f"rounds.jsonl: {exc}"]


def check_table1(grid_path: Path):
    """``fedclip table1`` grid: (digest of the CSV bytes or None, failures)."""
    if not grid_path.is_file():
        return None, ["grid.csv missing"]
    failures = _check_artifacts(grid_path.parent, TABLE1_LABELS)
    try:
        header, *rows = strict_csv_rows(grid_path, TABLE1_LABELS)
        cells = {(r[0], r[1]): dict(zip(header, r)) for r in rows}
        if set(cells) != set(TABLE1_TARGETS):
            failures.append(f"grid cells {sorted(cells)}")
        for key, target in TABLE1_TARGETS.items():
            cell = cells.get(key)
            if cell is None:
                continue
            solver, sim = float(cell["fixed_point"]), float(cell["simulation"])
            if abs(solver - target) >= SOLVER_TOL:
                failures.append(f"{key}: solver {solver} vs {target}")
            if abs(sim - target) >= SIMULATION_TOL:
                failures.append(f"{key}: simulation {sim} vs {target}")
            if float(cell["sim_gap"]) >= SOLVER_TOL + SIMULATION_TOL:
                failures.append(f"{key}: sim_gap {cell['sim_gap']}")
    except (ValueError, KeyError) as exc:
        failures.append(f"grid.csv: {exc}")
    return hashlib.sha256(grid_path.read_bytes()).hexdigest(), failures


class OutputChecker:
    """Pass/fail per invocation, including the digest and rerun checks."""

    def __init__(self, rounds, recorded_digest=None):
        """``rounds`` of a ``fedclip run`` workload; None for table1-grid."""
        self.rounds = rounds
        self.recorded = recorded_digest
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, exit_code, outdir: Path) -> bool:
        """Check one invocation; True when it passed."""
        self.attempted += 1
        if exit_code != 0:
            failures = [f"exit code {exit_code}"]
        elif self.rounds is None:
            digest, failures = check_table1(outdir / "grid.csv")
        else:
            digest, failures = check_run(outdir, self.rounds)
        if exit_code == 0 and digest is not None:
            if self.recorded is not None and digest != self.recorded:
                failures.append("trajectory differs from the recorded digest")
            if self.first is None:
                self.first = digest
            elif digest != self.first:
                failures.append("trajectory differs from the first run of this seed")
        if failures:
            self.failed += 1
            self.messages.append(f"invocation {self.attempted}: " + "; ".join(failures))
        return not failures
