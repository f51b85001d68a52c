"""Golden artifact digests: record them, and the helpers their tests use.

    PYTHONPATH=src python tests/record_golden.py

runs ``fedclip run`` on every config in ``tests/golden/`` and ``fedclip
table1``, and writes the sha256 of every file they write to
``tests/golden/digests.json``, with the Python and numpy versions the bits
hold for. It prints every entry it changed, added or removed. Rerun it only
for a change that is meant to alter artifact bits, and list each changed
file, and why it changed, in CHANGES.md.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from fedclip.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def version_mismatch(recorded) -> str | None:
    """Why ``recorded`` digests do not apply under this interpreter, or None.
    Bits are promised for one numpy build, not across builds."""
    here = versions()
    diff = [f"{k} {here[k]} (digests recorded under {recorded[k]})"
            for k in here if here[k] != recorded[k]]
    return "golden digests skipped: " + ", ".join(diff) if diff else None


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def configs() -> list:
    return sorted(GOLDEN.glob("*.yaml"))


def run_digests(config, outdir) -> dict:
    """sha256 of every file that ``fedclip run`` writes for ``config``,
    keyed by its path relative to ``outdir``."""
    code = main(["run", "--config", str(config), "--out", str(outdir)])
    if code != 0:
        raise RuntimeError(f"fedclip run exited {code} on {config}")
    return {p.relative_to(outdir).as_posix(): file_digest(p)
            for p in sorted(Path(outdir).rglob("*")) if p.is_file()}


def flatten(digests, prefix="") -> dict:
    """The entries of a digests mapping, keyed by their slash-joined path."""
    out = {}
    for key, value in digests.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}/"))
        else:
            out[prefix + key] = value
    return out


def changes(old, new) -> list:
    """One line per entry that differs between two digests mappings."""
    old, new = flatten(old), flatten(new)
    return ([f"changed {k}" for k in sorted(old.keys() & new.keys()) if old[k] != new[k]]
            + [f"added {k}" for k in sorted(new.keys() - old.keys())]
            + [f"removed {k}" for k in sorted(old.keys() - new.keys())])


def record():
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = {c.stem: run_digests(c, tmp / c.stem) for c in configs()}
        grid = tmp / "grid.csv"
        if main(["table1", "--out", str(grid)]) != 0:
            raise RuntimeError("fedclip table1 failed")
        out = {**versions(), "runs": runs, "table1_grid": file_digest(grid)}
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print("\n".join(changes(old, out)) or "no digest changed")


if __name__ == "__main__":
    record()
