"""The discflux benchmark: drive the CLI on fixed workloads and report metrics.

    python3 bench/run.py [--workload reproduce|study|fine-run|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Load shape: closed loop, one client.  Each repetition is a fresh Python child
process (`bench/child.py`) with OpenBLAS/OpenMP/MKL pinned to one thread, and
nothing runs beside it.  Repetitions run while the next one is expected to end
within `--seconds` (at least MIN_REPS of them).  CLI users pay the import and
the lazy coefficient averaging on every invocation, so no warm-up is excluded.
Every repetition's outputs are checked; a repetition that fails the check
counts as failed.

Timings are scaled to a reference machine speed: `calibrate.py` times a fixed
kernel before the first repetition and after each one, and a repetition's
times are multiplied by REF_CAL_S over the mean of its two neighbouring
calibrations (rates divided by it).  On the shared machine the bounds were set
on, speed shifts lasting minutes moved the median wall time of 40-second runs
by up to a third; the scaling removes most of that.  Unscaled medians are
printed and kept in the result file.

With `--trace 1`, untraced repetitions run for half of `--seconds` (they give
the baseline for the tracing overhead), then one repetition runs with every
layer traced, and the per-layer metrics come from its spans.

Each workload prints its metrics by name with unit, median, quartiles and
sample count, then, as the last line of standard output, one JSON object:
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json lists
(`end_to_end` for `--trace 0`, `per_layer` for `--trace 1`).  A result file
with the environment, every repetition and every metric goes to
`.bench_results/`.  Scratch output goes to `.bench_tmp/` and is removed.  Both
lie in the checkout root.  Each per-layer metric's entry in LAYERS names the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import ast
import gzip
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_results"
EXPECTED = HERE / "expected"

WORKLOADS = ("reproduce", "study", "fine-run")
MIN_REPS = 3
REF_CAL_S = 0.30  # median calibration time on the machine the bounds were set on
TIME_UNITS = ("s", "us", "ns/cell-step")
RUN_LIMIT_S = 170.0  # every run ends within 180 s, traced repetition included
TOL = 1e-12  # discflux.diagnostics.TOL
BASELINE_REL = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCHEMA_KEYS = frozenset({
    "scheme", "lambda", "dx", "steps", "snapped_time", "u_min", "u_max",
    "onesided_holds", "onesided_worst_margin", "cubic_accumulator",
    "quad_accumulator", "nu_min", "entropy_max_residual", "correction_max",
    "correction_bound", "cfl_level", "kappa_used", "kappa_bound"})

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cell_steps_per_s": "cell-steps/s",
             "peak_rss_mb": "MB", "fail_share": "ratio"}

# Per-layer metric -> (unit, the end-to-end metric it should move on which workload).
LAYERS = {
    "schemes.nt_step.self_us": ("us", "cell_steps_per_s, wall_s on study (most), fine-run"),
    "schemes.lf_step.self_us": ("us", "cell_steps_per_s, wall_s on study (most), reproduce (references)"),
    "schemes.step.calls": ("count", "wall_s on study"),
    "schemes.cfl_bound.calls": ("count", "wall_s on study"),
    "schemes.march.ns_per_cell_step": ("ns/cell-step", "cell_steps_per_s on all three"),
    "grid.extend_absorbing.calls": ("count", "wall_s on study"),
    "grid.extend_absorbing.self_us": ("us", "wall_s on study"),
    "grid.cell_average_coefficient.calls": ("count", "wall_s on study"),
    "grid.cell_average_coefficient.self_s": ("s", "wall_s on study; first Half build on fine-run"),
    "grid.initial_state.self_s": ("s", "setup_s on fine-run"),
    "grid.write_state_csv.self_s": ("s", "wall_s on fine-run"),
    "grid.write_state_csv.bytes": ("B", "wall_s on fine-run"),
    "limiter.slopes.calls": ("count", "wall_s on study and fine-run"),
    "limiter.slopes.self_us": ("us", "wall_s on study (3 columns) and fine-run (4 columns)"),
    "flux_model.eval.calls": ("count", "wall_s on reproduce and fine-run"),
    "flux_model.eval.self_s": ("s", "wall_s on reproduce and fine-run"),
    "flux_model.eval.values_per_cell_step": ("values/cell-step", "wall_s on reproduce and fine-run"),
    "flux_model.d_u.self_s": ("s", "wall_s on reproduce and fine-run"),
    "flux_model.d_uu.self_s": ("s", "wall_s on reproduce and fine-run"),
    "diagnostics.observe.calls": ("count", "wall_s on study (light path) and reproduce"),
    "diagnostics.observe.self_us": ("us", "wall_s on study (light path) and reproduce"),
    "diagnostics.observe.incl_us": ("us", "wall_s on reproduce and fine-run"),
    "diagnostics.entropy_residual_lf.self_s": ("s", "wall_s on reproduce and fine-run; none on study"),
    "diagnostics.onesided_check.self_s": ("s", "wall_s on reproduce and fine-run; none on study"),
    "diagnostics.nu_coefficient.self_s": ("s", "wall_s on reproduce and fine-run; none on study"),
    "diagnostics.accumulate_cubic.self_s": ("s", "wall_s on reproduce and fine-run; none on study"),
    "diagnostics.correction_bound_check.self_s": ("s", "wall_s on reproduce and fine-run"),
    "diagnostics.entropy_residual_lf.applicable_ratio": ("ratio", "useful entropy checks: LF marches over all"),
    "diagnostics.share": ("ratio", "wall_s on reproduce and fine-run"),
    "experiments.reference_run.s": ("s", "wall_s on reproduce and study"),
    "experiments.run_experiment.s": ("s", "wall_s on reproduce and study"),
    "experiments.l1_error.self_s": ("s", "wall_s on reproduce and study"),
    "cli.write_report.self_s": ("s", "wall_s on reproduce and fine-run"),
    "trace.overhead_s": ("s", "cost of tracing: traced wall_s minus untraced median"),
}

STUDY_CFG = """\
model = multiplicative
model.k_left = 3
model.k_right = 1
domain.x_min = -1
domain.x_max = 1
dx = 0.04
lambda = 0.0333333333333333333
scheme = nessyahu-tadmor
u0 = constant
u0.value = {value}
t_end = 0.8
reference.dx = 0.000625
"""
FINE_CFG = """\
model = multiplicative
model.k_left = 3
model.k_right = 1
domain.x_min = -1
domain.x_max = 1
dx = 0.00025
lambda = 0.0333333333333333333
scheme = nessyahu-tadmor
limiter.kind = minmod-modified
u0 = step
u0.left = {left}
u0.right = {right}
u0.jump = {jump}
t_end = 0.0025, 0.005
"""


def workload_argv(workload: str, seed: int, work: Path, out: Path) -> list[list[str]]:
    """CLI argument lists of one repetition; config files are written into `work`.

    Seed 0 gives the recorded configurations.  Any other seed draws the initial
    data from [0, 1]: `u0.value` for study, `u0.left/right/jump` for fine-run.
    `reproduce` runs the canned experiments and ignores the seed.
    """
    rng = random.Random(seed)
    if workload == "reproduce":
        return [["reproduce", "1", "--out", str(out / "ex1")],
                ["reproduce", "2", "--out", str(out / "ex2")]]
    if workload == "study":
        value = "0.15" if seed == 0 else repr(rng.random())
        (work / "study.cfg").write_text(STUDY_CFG.format(value=value))
        return [["study", str(work / "study.cfg"), "--halvings", "4", "--out", str(out)]]
    if workload == "fine-run":
        left, right, jump = ("0.9", "0.2", "-0.5") if seed == 0 else \
            (repr(rng.random()) for _ in range(3))
        (work / "fine.cfg").write_text(FINE_CFG.format(left=left, right=right, jump=jump))
        return [["run", str(work / "fine.cfg"), "--out", str(out)]]
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DISCFLUX_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_rep(argv: list[list[str]], rep_dir: Path, trace: bool, rep: int,
            timeout: float) -> dict:
    """Run one child process; return its wall time, status and span file stem."""
    stem = rep_dir / "spans"
    job = rep_dir / "job.json"
    job.write_text(json.dumps({"argv": argv, "trace": trace, "rep": rep, "spans": str(stem)}))
    log = rep_dir / "child.log"
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        try:
            status = subprocess.run([sys.executable, str(HERE / "child.py"), str(job)],
                                    stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
                                    cwd=rep_dir, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            status = None
        wall = time.perf_counter() - t0
    res = {"rep": rep, "traced": trace, "status": status, "wall_s": wall, "stem": str(stem)}
    if status != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        res["error"] = f"child exit status {status}: " + " | ".join(tail)
    return res


# ---------------------------------------------------------------- outputs

def _field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path) -> list[list]:
    """Header row, then data rows with numeric fields parsed as floats."""
    lines = path.read_text().splitlines() or [""]
    return [lines[0].split(",")] + [[_field(f) for f in line.split(",")] for line in lines[1:]]


def output_files(out: Path) -> dict[str, Path]:
    return {p.relative_to(out).as_posix(): p for p in sorted(out.rglob("*")) if p.is_file()}


def digests(out: Path) -> dict[str, str]:
    return {rel: hashlib.sha256(p.read_bytes()).hexdigest() for rel, p in output_files(out).items()}


def load_expected(workload: str) -> dict:
    with gzip.open(EXPECTED / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)


def baseline_l1() -> dict:
    """BASELINE_L1 as frozen in tests/test_acceptance.py."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "BASELINE_L1":
            return ast.literal_eval(node.value)
    raise LookupError("BASELINE_L1 not found in tests/test_acceptance.py")


def check_outputs(workload: str, seed: int, out: Path, expected: dict) -> tuple[str | None, float | None]:
    """Return (first problem or None, max abs deviation from the recorded outputs).

    Recorded outputs exist for the configurations of seed 0 (and `reproduce`,
    which ignores the seed); every value must match within TOL.  For other
    seeds every value must be finite and every solution value inside [0, 1]
    within TOL.  Diagnostics files must carry exactly the report's keys; their
    values are not compared.
    """
    files = output_files(out)
    csvs = {rel for rel in files if rel.endswith(".csv")}
    reports = {rel for rel in files if rel.endswith(".json")}
    if csvs != set(expected["csv"]) or reports != set(expected["json"]):
        return f"output files {sorted(files)} differ from {sorted([*expected['csv'], *expected['json']])}", None
    for rel in sorted(reports):
        keys = set(json.loads(files[rel].read_text()))
        if keys != SCHEMA_KEYS:
            return f"{rel}: keys differ from the report schema by {sorted(keys ^ SCHEMA_KEYS)}", None
    compare = workload == "reproduce" or seed == 0
    dev = 0.0 if compare else None
    for rel in sorted(csvs):
        rows = read_csv(files[rel])
        if compare:
            want = expected["csv"][rel]
            if len(rows) != len(want) or rows[0] != want[0]:
                return f"{rel}: shape or header differs from the recorded output", None
            for got_row, want_row in zip(rows[1:], want[1:]):
                if len(got_row) != len(want_row):
                    return f"{rel}: row {got_row} differs in length from {want_row}", None
                for got, exp in zip(got_row, want_row):
                    if isinstance(exp, float) and isinstance(got, float):
                        dev = max(dev, abs(got - exp)) if math.isfinite(got) else math.inf
                    elif got != exp:
                        return f"{rel}: field {got!r} differs from {exp!r}", None
            if dev > TOL:
                return f"{rel}: deviates from the recorded output by {dev:.3e}", dev
            continue
        solution = rows[0] == ["x", "u"]
        for row in rows[1:]:
            if not all(math.isfinite(v) for v in row if isinstance(v, float)):
                return f"{rel}: non-finite value in {row}", None
            if solution and not (len(row) == 2 and isinstance(row[1], float)
                                 and -TOL <= row[1] <= 1.0 + TOL):
                return f"{rel}: row {row} is not x, u with u inside [0, 1]", None
    if workload == "reproduce":
        baseline = baseline_l1()
        for example in (1, 2):
            rows = read_csv(files[f"ex{example}/error_table.csv"])[1:]
            first = min(row[2] for row in rows)
            for row in rows:
                want = baseline[(example, row[1])]
                if row[2] == first and abs(row[3] - want) > BASELINE_REL * abs(want):
                    return f"example {example} {row[1]}: L1 {row[3]!r} vs BASELINE_L1 {want!r}", dev
    return None, dev


# ---------------------------------------------------------------- spans

class Trace:
    """Per-name counts and times from one child's span file.

    A span's self time is its duration minus the durations of its direct
    children; spans nest without overlap because the child is single-threaded.
    """

    def __init__(self, stem: str):
        import numpy as np

        with np.load(stem + ".npz") as z:
            name_id, parent, start, end = z["name_id"], z["parent"], z["start"], z["end"]
        self.meta = json.loads(Path(stem + ".json").read_text())
        self.names = {name: i for i, name in enumerate(self.meta["names"])}
        k = len(self.names)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self._calls = np.bincount(name_id, minlength=k)
        self._self = np.bincount(name_id, weights=dur - child, minlength=k)
        self._total = np.bincount(name_id, weights=dur, minlength=k)
        self.marches = [(scheme, cells, steps, float(dur[sid]))
                        for sid, scheme, cells, steps in self.meta["marches"]]
        self.cell_steps = sum(cells * steps for _, cells, steps, _ in self.marches)
        self.march_s = sum(d for *_, d in self.marches)
        self._parent, self._name_id = parent, name_id

    def calls(self, name: str) -> int:
        return int(self._calls[self.names[name]]) if name in self.names else 0

    def self_s(self, name: str) -> float:
        return float(self._self[self.names[name]]) if name in self.names else 0.0

    def total_s(self, name: str) -> float:
        return float(self._total[self.names[name]]) if name in self.names else 0.0

    def self_us(self, name: str) -> float | None:
        calls = self.calls(name)
        return 1e6 * self.self_s(name) / calls if calls else None

    def under_scheme_ratio(self, name: str, scheme: str) -> float | None:
        """Share of `name` spans that ran inside a march of `scheme`."""
        if name not in self.names:
            return None
        march_scheme = {sid: s for sid, s, _, _ in self.meta["marches"]}
        hits = total = 0
        for sid in (self._name_id == self.names[name]).nonzero()[0]:
            while sid >= 0 and sid not in march_scheme:
                sid = self._parent[sid]
            total += 1
            hits += sid >= 0 and march_scheme[sid] == scheme
        return hits / total if total else None


def end_to_end(rep: dict, trace: Trace, scale: float = 1.0) -> dict:
    """End-to-end metrics of one repetition, timings multiplied by `scale`."""
    return {"wall_s": scale * rep["wall_s"],
            "setup_s": scale * (trace.meta["import_s"] + trace.total_s("grid.initial_state")),
            "cell_steps_per_s": trace.cell_steps / trace.march_s / scale,
            "peak_rss_mb": trace.meta["peak_rss_mb"]}


def calibrate() -> float:
    """Wall time of the fixed kernel in calibrate.py, in a fresh pinned process."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], capture_output=True,
                          text=True, env=child_env(), cwd=TMP, timeout=60)
    if proc.returncode:
        raise RuntimeError(f"calibration failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def layer_metrics(t: Trace, overhead_s: float, scale: float = 1.0) -> dict:
    """Every per-layer metric of one traced repetition; timings multiplied by `scale`."""
    observes = t.calls("diagnostics.observe")
    m = {
        "schemes.step.calls": t.calls("schemes.nt_step") + t.calls("schemes.lf_step"),
        "schemes.cfl_bound.calls": t.calls("schemes.cfl_bound"),
        "schemes.march.ns_per_cell_step": 1e9 * t.march_s / t.cell_steps,
        "grid.write_state_csv.bytes": t.meta["csv_bytes"],
        "flux_model.eval.values_per_cell_step":
            t.meta["values"].get("flux_model.eval", 0) / t.cell_steps,
        "diagnostics.observe.incl_us":
            1e6 * t.total_s("diagnostics.observe") / observes if observes else None,
        "diagnostics.entropy_residual_lf.applicable_ratio":
            t.under_scheme_ratio("diagnostics.entropy_residual_lf", "lax-friedrichs"),
        "diagnostics.share": t.total_s("diagnostics.observe") / t.march_s,
        "experiments.reference_run.s": t.total_s("experiments.reference_run"),
        "experiments.run_experiment.s": t.total_s("experiments.run_experiment"),
        "trace.overhead_s": overhead_s,
    }
    accessors = {"calls": t.calls, "self_s": t.self_s, "self_us": t.self_us}
    for name in LAYERS:
        if name not in m:
            layer, _, kind = name.rpartition(".")
            m[name] = accessors[kind](layer)
    m = {name: m[name] for name in LAYERS}
    for scheme, cells, steps, dur in t.marches:
        key = f"schemes.march.ns_per_cell_step[{scheme},{cells}]"
        m.setdefault(key, 1e9 * dur / (cells * steps))
    return {name: value * scale if value is not None and layer_unit(name)[0] in TIME_UNITS
            and name != "trace.overhead_s" else value for name, value in m.items()}


# ---------------------------------------------------------------- reporting

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    env = child_env()
    return {"commit": commit, "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "thread_env": {var: env[var] for var in THREAD_VARS}}


def repetition(workload: str, seed: int, rep_dir: Path, traced: bool, rep: int,
               timeout: float, expected: dict) -> dict:
    """Run and check one repetition; the CLI outputs stay under `rep_dir/out`."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    res = run_rep(workload_argv(workload, seed, rep_dir, out), rep_dir, traced, rep, timeout)
    if "error" in res:
        return res
    problem, res["deviation"] = check_outputs(workload, seed, out, expected)
    res["digests"] = digests(out)
    trace = Trace(res["stem"])
    if not Path(trace.meta["package"]).is_relative_to(SRC):
        problem = f"measured {trace.meta['package']}, not the package under {SRC}"
    if problem:
        res["error"] = problem
    else:
        res["trace"] = trace
    return res


def layer_unit(name: str) -> tuple[str, str]:
    """Unit and mapping of a per-layer metric, per-march breakdowns included."""
    return LAYERS.get(name, ("ns/cell-step", "cell_steps_per_s"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Measure one workload; print its metrics; return the result line."""
    expected = load_expected(workload)
    TMP.mkdir(exist_ok=True)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    reps = []
    cal = [calibrate()]
    with tempfile.TemporaryDirectory(dir=TMP, prefix=f"{workload}-") as tmp:
        def attempt(traced: bool) -> dict:
            t0 = time.perf_counter()
            rep = len(reps)
            res = repetition(workload, seed, Path(tmp) / f"rep{rep}", traced, rep,
                             max(1.0, deadline - time.perf_counter()), expected)
            first = next((r["digests"] for r in reps if "digests" in r), None)
            if "error" not in res and first is not None and res["digests"] != first:
                res["error"] = ("traced outputs differ from untraced outputs" if traced
                                else "outputs differ between repetitions")
            cal.append(calibrate())
            res["calibration_s"] = (cal[-2] + cal[-1]) / 2
            res["scale"] = REF_CAL_S / res["calibration_s"]
            res["elapsed_s"] = time.perf_counter() - t0
            reps.append(res)
            return res

        budget = started + (seconds / 2 if trace else seconds)
        while time.perf_counter() < deadline:
            # start another repetition only if it should end within the budget
            mean = statistics.fmean(r["elapsed_s"] for r in reps) if reps else 0.0
            if len(reps) >= MIN_REPS and time.perf_counter() + mean > budget:
                break
            attempt(False)
        good = [r for r in reps if "error" not in r]
        if not good:
            raise RuntimeError(f"{workload}: every repetition failed: {reps[0]['error']}")
        for r in good:
            r["raw"] = end_to_end(r, r["trace"])
            r["metrics"] = end_to_end(r, r["trace"], r["scale"])
        summary = {name: quartiles([r["metrics"][name] for r in good]) for name in good[0]["metrics"]}
        raw = {name: statistics.median(r["raw"][name] for r in good) for name in good[0]["raw"]}
        layers = None
        if trace:
            traced = attempt(True)
            if "error" not in traced:
                wall = (traced["wall_s"] - traced["trace"].meta["save_s"]) * traced["scale"]
                layers = layer_metrics(traced["trace"], wall - summary["wall_s"][1], traced["scale"])

    failed = sum("error" in r for r in reps)
    attempted = len(reps)
    summary["fail_share"] = (failed / attempted,) * 3
    devs = [r["deviation"] for r in reps if r.get("deviation") is not None]
    max_dev = max(devs, default=None)

    print(f"== {workload}  seed {seed}  repetitions {attempted} ({failed} failed)  "
          f"max abs deviation {'n/a (no recorded output)' if max_dev is None else f'{max_dev:.3e}'}")
    for name, (q1, med, q3) in summary.items():
        print(f"  {name:<18} {med:<14.6g} {E2E_UNITS[name]:<13} q1 {q1:<10.6g} q3 {q3:<10.6g} "
              f"n {len(good):<3} unscaled median {raw.get(name, med):.6g}")
    for r in reps:
        if "error" in r:
            print(f"  repetition {r['rep']} failed: {r['error']}")
    for name, value in (layers or {}).items():
        unit, moves = layer_unit(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:<12} {unit:<16} moves {moves}")

    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(),
              "repetitions": [{k: v for k, v in r.items() if k not in ("trace", "stem", "digests")}
                              for r in reps],
              "reference_calibration_s": REF_CAL_S,
              "end_to_end": {name: {"median": med, "q1": q1, "q3": q3, "n": len(good),
                                    "unscaled_median": raw.get(name, med), "unit": E2E_UNITS[name]}
                             for name, (q1, med, q3) in summary.items()},
              "max_abs_deviation": max_dev,
              "per_layer": layers and {name: dict(zip(("value", "unit", "moves"),
                                                      (value,) + layer_unit(name)))
                                       for name, value in layers.items()}}
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    if trace:
        # a layer the traced repetition never reached, or a failed traced repetition, reads 0
        values = {m["name"]: (layers or {}).get(m["name"]) or 0.0 for m in spec["per_layer"]}
    else:
        values = {m["name"]: summary[m["name"]][1] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}
    print(json.dumps(line), flush=True)
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "discflux" / "__init__.py").is_file():
        print(f"bench: no discflux package under {SRC}; run from a discflux checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            run_workload(workload, args.seed, seconds, bool(args.trace), spec)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
