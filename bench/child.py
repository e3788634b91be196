"""One benchmark repetition: import discflux, run CLI invocations, save spans.

Run by `run.py` as a fresh single-threaded process:

    python bench/child.py <job.json>

The job file names the CLI argument lists to run in order, whether to trace
every layer or only the calls the end-to-end metrics need, the repetition id,
and where to write the spans.  Spans are recorded by wrapping discflux
functions at the module attributes through which the package looks them up,
so the package itself is not changed.  They stay in memory until every CLI
invocation has returned; then `<spans>.npz` (name id, start, end, parent span
and repetition id per span) and `<spans>.json` (names, march shapes, value
counts, import time, peak RSS) are written.  The exit status is the first
non-zero CLI status, else 0.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import resource
import sys
import time
from array import array

# (module, attribute, span name).  A function looked up through several
# modules is wrapped at each of them under one span name.
LIGHT = [
    ("discflux.experiments", "initial_state", "grid.initial_state"),
    ("discflux.experiments", "march", "schemes.march"),
    ("discflux.cli", "march", "schemes.march"),
]
FULL = LIGHT + [
    ("discflux.cli", "_write_report", "cli.write_report"),
    ("discflux.cli", "write_state_csv", "grid.write_state_csv"),
    ("discflux.cli", "run_experiment", "experiments.run_experiment"),
    ("discflux.cli", "reference_run", "experiments.reference_run"),
    ("discflux.cli", "l1_error", "experiments.l1_error"),
    ("discflux.experiments", "run_experiment", "experiments.run_experiment"),
    ("discflux.experiments", "reference_run", "experiments.reference_run"),
    ("discflux.experiments", "l1_error", "experiments.l1_error"),
    ("discflux.schemes", "nt_step", "schemes.nt_step"),
    ("discflux.schemes", "lf_step", "schemes.lf_step"),
    ("discflux.schemes", "cfl_bound", "schemes.cfl_bound"),
    ("discflux.schemes", "extend_absorbing", "grid.extend_absorbing"),
    ("discflux.schemes", "cell_average_coefficient", "grid.cell_average_coefficient"),
    ("discflux.schemes", "slopes", "limiter.slopes"),
    ("discflux.diagnostics", "slopes", "limiter.slopes"),
    ("discflux.diagnostics.DiagnosticsCollector", "observe", "diagnostics.observe"),
    ("discflux.diagnostics", "onesided_check", "diagnostics.onesided_check"),
    ("discflux.diagnostics", "accumulate_cubic", "diagnostics.accumulate_cubic"),
    ("discflux.diagnostics", "nu_coefficient", "diagnostics.nu_coefficient"),
    ("discflux.diagnostics", "entropy_residual_lf", "diagnostics.entropy_residual_lf"),
    ("discflux.diagnostics", "correction_bound_check", "diagnostics.correction_bound_check"),
]
# FluxModel callables, wrapped on the model that experiments.make_model returns.
MODEL_CALLS = ("eval", "d_u", "d_uu")


class Recorder:
    """In-memory span store; each span has a name, start, end and parent span."""

    def __init__(self, rep: int):
        self.rep = rep
        self.names: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.marches: list[tuple[int, str, int, int]] = []  # span, scheme, cells, steps
        self.values: dict[str, int] = {}  # model call -> u values evaluated
        self.csv_bytes = 0

    def wrap(self, fn, name: str, after=None):
        nid = self.names.setdefault(name, len(self.names))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self.stack.pop()
            if after is not None:
                after(sid, args, result)
            return result

        return traced

    def _after_march(self, sid, args, result):
        initial, cfg, report = args[0], args[3], result[1]
        self.marches.append((sid, cfg.scheme.value, initial.mesh.n_cells, report.steps))

    def _after_csv(self, sid, args, result):
        self.csv_bytes += os.path.getsize(args[1])

    def _count_values(self, name):
        import numpy as np

        def after(sid, args, result):
            self.values[name] = self.values.get(name, 0) + int(np.size(result))
        return after

    def install(self, full: bool) -> None:
        hooks = {"schemes.march": self._after_march, "grid.write_state_csv": self._after_csv}
        for path, attr, name in FULL if full else LIGHT:
            owner = _resolve(path)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, hooks.get(name)))
        if not full:
            return
        experiments = importlib.import_module("discflux.experiments")
        make_model = experiments.make_model

        def traced_make_model(*args, **kwargs):
            model, coeff = make_model(*args, **kwargs)
            calls = {c: self.wrap(getattr(model, c), f"flux_model.{c}",
                                  self._count_values(f"flux_model.{c}"))
                     for c in MODEL_CALLS}
            return dataclasses.replace(model, **calls), coeff

        experiments.make_model = traced_make_model

    def save(self, stem: str, meta: dict) -> None:
        import numpy as np

        t0 = time.perf_counter()
        np.savez(stem + ".npz",
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 rep=np.full(len(self.start), self.rep, dtype=np.int32))
        meta = dict(meta, names=sorted(self.names, key=self.names.get),
                    marches=self.marches, values=self.values, csv_bytes=self.csv_bytes,
                    save_s=time.perf_counter() - t0)
        with open(stem + ".json", "w") as fh:
            json.dump(meta, fh)


def _resolve(path: str):
    """Module or class object for a dotted path such as `discflux.diagnostics.X`."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    VmHWM belongs to the address space made at exec, whereas ru_maxrss also
    carries the RSS of the parent at fork, which would make the figure depend
    on the benchmark runner's own memory.
    """
    try:
        with open("/proc/self/status") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    import discflux.cli  # the package __init__ imports every module
    import_s = time.perf_counter() - t0

    recorder = Recorder(job["rep"])
    recorder.install(bool(job["trace"]))
    main_fn = recorder.wrap(discflux.cli.main, "cli.main")
    status = 0
    for argv in job["argv"]:
        status = main_fn(argv)
        if status:
            break
    rss_mb = peak_rss_mb()
    recorder.save(job["spans"], {"import_s": import_s, "peak_rss_mb": rss_mb,
                                 "package": discflux.cli.__file__, "status": status})
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
