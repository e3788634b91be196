"""Record the reference outputs that `run.py` compares every repetition against.

    python3 bench/record_expected.py [workload ...]

Runs each workload once with seed 0 and writes `bench/expected/<workload>.json.gz`:
every CSV the CLI wrote (header, then rows with numeric fields as floats) and
the names of the diagnostics files.  Re-record only when a change alters the
outputs on purpose, and say so where the change is described.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

import run


def record(workload: str) -> None:
    run.TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP) as tmp:
        rep_dir = Path(tmp)
        out = rep_dir / "out"
        out.mkdir()
        res = run.run_rep(run.workload_argv(workload, 0, rep_dir, out), rep_dir,
                          trace=False, rep=0, timeout=run.RUN_LIMIT_S)
        if "error" in res:
            raise SystemExit(f"{workload}: {res['error']}")
        files = run.output_files(out)
        expected = {"csv": {rel: run.read_csv(p) for rel, p in files.items() if rel.endswith(".csv")},
                    "json": sorted(rel for rel in files if rel.endswith(".json"))}
    run.EXPECTED.mkdir(exist_ok=True)
    with gzip.open(run.EXPECTED / f"{workload}.json.gz", "wt") as fh:
        json.dump(expected, fh)
    print(f"{workload}: recorded {len(expected['csv'])} CSV files")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        record(name)
