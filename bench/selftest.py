"""Self-test of the benchmark.

    python3 bench/selftest.py [workload ...]

Checks, and exits non-zero on the first failure:

* BENCHMARK.json names only metrics this benchmark computes, with their units;
* the same seed gives the same configuration and another seed a different one;
* per workload (seed 0): the outputs of two traced repetitions are
  bit-identical to those of an untraced one, so the wrappers are transparent,
  and the counts `schemes.step.calls`, `schemes.cfl_bound.calls` and
  `flux_model.eval.values_per_cell_step` repeat exactly;
* for study and fine-run, a seed other than 0 passes the invariant checks;
* in a directory holding only BENCHMARK.json and this directory, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

COUNTS = ("schemes.step.calls", "schemes.cfl_bound.calls", "flux_model.eval.values_per_cell_step")


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(all(run.E2E_UNITS.get(n) == u for n, u in e2e.items()) and "setup_s" in e2e,
          "BENCHMARK.json end_to_end metrics are computed, with their units")
    check(all(run.LAYERS.get(n, (None,))[0] == u for n, u in layers.items()),
          "BENCHMARK.json per_layer metrics are computed, with their units")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads are the benchmark's workloads")


def check_seeds(tmp: Path) -> None:
    for workload in ("study", "fine-run"):
        texts = []
        for i, seed in enumerate((0, 1, 1)):
            work = tmp / f"{workload}-cfg{i}"
            work.mkdir()
            run.workload_argv(workload, seed, work, work)
            texts.append(next(work.glob("*.cfg")).read_text())
        check(texts[0] != texts[1] == texts[2], f"{workload}: the seed alone determines the config")


def check_workload(workload: str, tmp: Path) -> None:
    expected = run.load_expected(workload)
    reps = [run.repetition(workload, 0, tmp / f"{workload}-{i}", traced, i, run.RUN_LIMIT_S, expected)
            for i, traced in enumerate((False, True, True))]
    for r in reps:
        check("error" not in r, f"{workload}: repetition {r['rep']} passes the output check"
              + (f" ({r['error']})" if "error" in r else ""))
    check(reps[1]["digests"] == reps[0]["digests"] == reps[2]["digests"],
          f"{workload}: traced outputs are bit-identical to untraced outputs")
    counts = [{name: run.layer_metrics(r["trace"], 0.0)[name] for name in COUNTS} for r in reps[1:]]
    check(counts[0] == counts[1], f"{workload}: counts repeat exactly across traced runs {counts[0]}")
    if workload != "reproduce":
        r = run.repetition(workload, 1, tmp / f"{workload}-seed1", False, 0, run.RUN_LIMIT_S, expected)
        check("error" not in r, f"{workload}: seed 1 passes the invariant checks"
              + (f" ({r['error']})" if "error" in r else ""))


def check_stripped(tmp: Path) -> None:
    root = tmp / "stripped"
    shutil.copytree(run.HERE, root / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "study",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without the package the benchmark exits {proc.returncode} and prints no result")


def main(workloads: list[str]) -> None:
    check_spec()
    run.TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP, prefix="selftest-") as tmp:
        check_seeds(Path(tmp))
        check_stripped(Path(tmp))
        for workload in workloads:
            check_workload(workload, Path(tmp))


if __name__ == "__main__":
    main(sys.argv[1:] or list(run.WORKLOADS))
