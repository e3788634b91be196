"""Command-line entry point.

Subcommands:
    run <config>              single simulation from a key=value config file
    reproduce <1|2>           canned experiments with both schemes + reference
    verify <suite>            property suites on fixed seeds (see verify module)
    study <config> --halvings refinement study from a config

Config files are flat `key = value` lines with dotted section keys
(`limiter.alpha = 0.75`) and `#` comments.  A config parses into an
`ExperimentSpec`, and `run`, `reproduce` and `study` all march through
`experiments.run_experiment`, so `study` applies the config's `limiter.*`
and `cfl_level` on every level.  A key that the run does not read, or one
given twice, is a config error.  Exit codes: 0 success, 1 config or usage
error, 2 CFL refusal, 3 verification failure, 4 a `run` whose solution left
[u_lo, u_hi] (a NaN included) or a `study` with a non-finite L1 error (their
files are written).  The environment variable DISCFLUX_OUTDIR overrides the output
directory.  The `diagnostics` key takes `true` (the default: the estimates
the paper claims for the run), `all` (every estimate) or `false` (of the
estimates, only a claimed correction bound); `diagnostics.json` writes `null`
for each estimate the run did not compute.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .diagnostics import TOL, DiagnosticsReport, computed_estimates
from .experiments import (EXAMPLES, ErrorRow, ErrorTable, ExperimentSpec,
                          InitialData, l1_error, reference_run,
                          refinement_study, run_experiment)
from .grid import write_state_csv
from .limiter import LimiterConfig, LimiterKind
from .schemes import CflError, CflLevel, Scheme, SchemeConfig
from .schemes import march  # noqa: F401  (unused here; bench/child.py wraps cli.march)
from .verify import SUITES

_SCHEMES = {"lax-friedrichs": Scheme.LAX_FRIEDRICHS, "lf": Scheme.LAX_FRIEDRICHS,
            "nessyahu-tadmor": Scheme.NESSYAHU_TADMOR, "nt": Scheme.NESSYAHU_TADMOR}
_CFL_LEVELS = {lvl.value: lvl for lvl in CflLevel}
_LIMITERS = {kind.value: kind for kind in LimiterKind}
_INITIAL = {"constant": lambda r: InitialData.constant(r.number("u0.value")),
            "step": lambda r: InitialData.step(r.number("u0.left"), r.number("u0.right"),
                                               at=r.number("u0.jump", "0"))}
_SOLUTION = "u_t{:.6f}.csv"  # the solution file of `run` at each output time
_DIAGNOSTICS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
                **dict.fromkeys(("false", "0", "no", "off"), False), "all": "all"}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: key {key!r} is given again (first on line "
                              f"{first_line[key]})")
        entries[key], first_line[key] = value, lineno
    return entries


class _Reader:
    """Reads config entries, marking each key it reads; a key without a default is required."""

    def __init__(self, entries: dict[str, str]):
        self.entries, self.read = entries, set()

    def text(self, key: str, default: str | None = None) -> str:
        self.read.add(key)
        if key not in self.entries and default is None:
            raise ConfigError(f"missing required key {key!r}")
        return self.entries.get(key, default)

    def number(self, key: str, default: str | None = None) -> float:
        return _finite(key, self.text(key, default))

    def choice(self, key: str, table: dict, default: str, fold: bool = False):
        name = self.text(key, default)
        try:
            return table[name.lower() if fold else name]
        except KeyError:
            raise ConfigError(f"unknown {key} {name!r}; choose from {sorted(table)}") from None


def _finite(key: str, text: str) -> float:
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ConfigError(f"key {key!r}: expected a finite number, got {text!r}")


@dataclass
class RunConfig:
    """Parsed simulation configuration: the run description plus CLI-only settings."""

    spec: ExperimentSpec
    scheme: Scheme
    output_dir: Path
    diagnostics: bool | str = True
    reference_given: bool = False

    @classmethod
    def from_entries(cls, entries: dict[str, str], out_override: str | None = None) -> "RunConfig":
        """Build a run from config entries; a key that the run does not read is refused."""
        r = _Reader(entries)
        model_name = r.text("model")
        model_params = {}
        if model_name == "multiplicative":
            model_params = {"k_left": r.number("model.k_left", "3"),
                            "k_right": r.number("model.k_right", "1")}
        dx = r.number("dx")
        if ("lambda" in entries) == ("dt" in entries):
            raise ConfigError("supply exactly one of 'lambda' or 'dt'")
        if "dt" in entries and dx <= 0:
            raise ConfigError("dx must be positive")
        lam = r.number("lambda") if "lambda" in entries else r.number("dt") / dx

        kind = r.choice("limiter.kind", _LIMITERS, "minmod")
        modified = kind is LimiterKind.MINMOD_MODIFIED
        # without an explicit cap the modified limiter defaults to
        # 2*C_u0*dx^(-alpha), which reduces it to plain minmod at each mesh
        k_tilde_auto = modified and "limiter.k_tilde" not in entries
        k_tilde = r.number("limiter.k_tilde") if modified and not k_tilde_auto else 1.0
        alpha = r.number("limiter.alpha", "0.75") if modified else 0.75
        ref_dx = r.number("reference.dx") if "reference.dx" in entries else None
        scheme = r.choice("scheme", _SCHEMES, "nessyahu-tadmor")
        diagnostics = r.choice("diagnostics", _DIAGNOSTICS, "true", fold=True)
        level = r.choice("cfl_level", _CFL_LEVELS, "max-principle")
        # window_x masks only the cubic accumulator: a run that does not compute it ignores it
        cubic = "cubic" in computed_estimates(SchemeConfig(
            scheme=scheme, limiter=LimiterConfig(kind), cfl_level=level,
            collect_diagnostics=diagnostics))
        out_dir = r.text("output_dir", ".")
        try:
            spec = ExperimentSpec(
                name="config-run", model_name=model_name, model_params=model_params,
                x_min=r.number("domain.x_min"), x_max=r.number("domain.x_max"), dx=dx,
                lam=lam, u0=r.choice("u0", _INITIAL, "constant")(r),
                output_times=tuple(_finite("t_end", t) for t in r.text("t_end").split(",")),
                reference_dx=dx if ref_dx is None else ref_dx,
                limiter=LimiterConfig(kind, k_tilde, alpha), k_tilde_auto=k_tilde_auto,
                cfl_level=level,
                window_x=r.number("window_x") if cubic and "window_x" in entries else None)
        except ValueError as exc:  # range errors of the spec; a reader ConfigError keeps its text
            raise ConfigError(str(exc)) from exc
        if unread := sorted(set(entries) - r.read):
            raise ConfigError("keys this run does not read: " + ", ".join(map(repr, unread)))
        first = {}  # the solution of a time that shares its file with another would be lost
        for t in spec.output_times:
            if (name := _SOLUTION.format(t)) in first:
                raise ConfigError(f"t_end {first[name]!r} and {t!r} share the solution file "
                                  f"{name}")
            first[name] = t
        out_dir = Path(out_override or os.environ.get("DISCFLUX_OUTDIR") or out_dir)
        return cls(spec=spec, scheme=scheme, output_dir=out_dir,
                   diagnostics=diagnostics, reference_given=ref_dx is not None)


def load_config(path: str, out_override: str | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return RunConfig.from_entries(parse_config_text(text), out_override)


def _write_report(report: DiagnosticsReport, path: Path) -> None:
    path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")


def _refusals_to_exit_codes(cmd):
    """Exit 1 on a config error (any ValueError, ConfigError included), 2 on a CFL refusal."""
    def wrapped(args) -> int:
        try:
            return cmd(args)
        except CflError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    return wrapped


@_refusals_to_exit_codes
def cmd_run(args) -> int:
    config = load_config(args.config, args.out)
    run = run_experiment(config.spec, config.scheme, collect_diagnostics=config.diagnostics)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for t, state in run.states.items():
        write_state_csv(state, config.output_dir / _SOLUTION.format(t))
    _write_report(run.report, config.output_dir / "diagnostics.json")
    print(f"wrote {len(config.spec.output_times)} solution file(s) and diagnostics.json "
          f"to {config.output_dir} ({run.report.steps} steps)")
    model, _ = config.spec.build()
    low, high = run.report.u_min, run.report.u_max
    if not model.u_lo - TOL <= low <= high <= model.u_hi + TOL:  # False for a NaN
        print(f"blow-up: the solution left [{model.u_lo!r}, {model.u_hi!r}]: "
              f"u_min = {low!r}, u_max = {high!r}", file=sys.stderr)
        return 4
    return 0


def cmd_reproduce(args) -> int:
    spec = EXAMPLES[args.example]()
    out_dir = Path(args.out or os.environ.get("DISCFLUX_OUTDIR")
                   or f"reproduce-{spec.name}")
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = {
        "nt": run_experiment(spec, Scheme.NESSYAHU_TADMOR),
        "lf": run_experiment(spec, Scheme.LAX_FRIEDRICHS),
        "ref": reference_run(spec),
    }
    table = ErrorTable()
    for tag, run in runs.items():
        for t in spec.output_times:
            write_state_csv(run.states[t], out_dir / f"{tag}_u_t{t:.6f}.csv")
        _write_report(run.report, out_dir / f"diagnostics_{tag}.json")
    for t in spec.output_times:
        ref_state = runs["ref"].states[t]
        for tag in ("lf", "nt"):
            state = runs[tag].states[t]
            table.rows.append(ErrorRow(dx=spec.dx, scheme=runs[tag].scheme.value,
                                       time=state.time, l1_error=l1_error(state, ref_state)))
    table.write(out_dir / "error_table.csv")
    print(f"wrote {3 * len(spec.output_times)} solution files, error_table.csv, "
          f"and 3 diagnostics files to {out_dir}")
    return 0


def cmd_verify(args) -> int:
    result = SUITES[args.suite]()
    print(result.line())
    return 0 if result.passed else 3


@_refusals_to_exit_codes
def cmd_study(args) -> int:
    config = load_config(args.config, args.out)
    spec = config.spec
    if not config.reference_given:  # an underflow to 0 is refused, as are < 2 halvings
        try:
            spec = replace(spec, reference_dx=math.ldexp(spec.dx, -(max(args.halvings, 0) + 1)))
        except ValueError as exc:
            raise ValueError(f"--halvings {args.halvings}: {exc}") from exc
    table = refinement_study(spec, config.scheme, args.halvings, spec.output_times)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    table.write(config.output_dir / "error_table.csv")
    print(table.to_csv_text(), end="")
    if blown := [row.dx for row in table.rows if not math.isfinite(row.l1_error)]:
        print("blow-up: non-finite L1 error at dx =", ", ".join(map(repr, blown)), file=sys.stderr)
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="discflux",
        description="Finite-volume central schemes for conservation laws "
                    "with discontinuous flux coefficients")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a canned experiment (1 or 2)")
    p_rep.add_argument("example", type=int, choices=sorted(EXAMPLES))
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(fn=cmd_reproduce)

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.set_defaults(fn=cmd_verify)

    p_study = sub.add_parser("study", help="refinement study from a config file")
    p_study.add_argument("config")
    p_study.add_argument("--halvings", type=int, default=3)
    p_study.add_argument("--out", default=None)
    p_study.set_defaults(fn=cmd_study)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1: 2 means a CFL refusal here
        return 1 if exc.code else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
