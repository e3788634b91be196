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
and `cfl_level` on every level.  Exit codes: 0 success,
1 config error, 2 CFL refusal, 3 verification failure.  The environment
variable DISCFLUX_OUTDIR overrides the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .diagnostics import DiagnosticsReport
from .experiments import (EXAMPLES, ErrorRow, ErrorTable, ExperimentSpec,
                          InitialData, l1_error, reference_run,
                          refinement_study, run_experiment)
from .grid import write_state_csv
from .limiter import LimiterConfig, LimiterKind
from .schemes import CflError, CflLevel, Scheme
from .schemes import march  # noqa: F401  (unused here; bench/child.py wraps cli.march)
from .verify import SUITES

_SCHEMES = {"lax-friedrichs": Scheme.LAX_FRIEDRICHS, "lf": Scheme.LAX_FRIEDRICHS,
            "nessyahu-tadmor": Scheme.NESSYAHU_TADMOR, "nt": Scheme.NESSYAHU_TADMOR}
_CFL_LEVELS = {lvl.value: lvl for lvl in CflLevel}
_LIMITERS = {kind.value: kind for kind in LimiterKind}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        entries[key] = value
    return entries


def _as_float(entries, key, default=None):
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


@dataclass
class RunConfig:
    """Parsed simulation configuration: the run description plus CLI-only settings."""

    spec: ExperimentSpec
    scheme: Scheme
    output_dir: Path
    diagnostics: bool = True
    reference_given: bool = False

    @classmethod
    def from_entries(cls, entries: dict[str, str], out_override: str | None = None) -> "RunConfig":
        if "model" not in entries:
            raise ConfigError("missing required key 'model'")
        model_name = entries["model"]
        known_prefixes = ("domain.", "limiter.", "u0.", "reference.")
        known_keys = {"model", "dx", "lambda", "dt", "scheme", "cfl_level", "t_end",
                      "output_dir", "window_x", "diagnostics", "u0"}
        if model_name == "multiplicative":
            known_keys |= {"model.k_left", "model.k_right"}
        for key in entries:
            if key not in known_keys and not key.startswith(known_prefixes):
                raise ConfigError(f"unknown config key {key!r} for model {model_name!r}")

        model_params = {}
        if model_name == "multiplicative":
            model_params = {"k_left": _as_float(entries, "model.k_left", 3.0),
                            "k_right": _as_float(entries, "model.k_right", 1.0)}

        x_min = _as_float(entries, "domain.x_min")
        x_max = _as_float(entries, "domain.x_max")
        dx = _as_float(entries, "dx")
        if dx <= 0:
            raise ConfigError("dx must be positive")

        if ("lambda" in entries) == ("dt" in entries):
            raise ConfigError("supply exactly one of 'lambda' or 'dt'")
        lam = _as_float(entries, "lambda") if "lambda" in entries \
            else _as_float(entries, "dt") / dx

        scheme_name = entries.get("scheme", "nessyahu-tadmor")
        if scheme_name not in _SCHEMES:
            raise ConfigError(f"unknown scheme {scheme_name!r}")
        level_name = entries.get("cfl_level", "max-principle")
        if level_name not in _CFL_LEVELS:
            raise ConfigError(f"unknown cfl_level {level_name!r}")

        lim_kind = entries.get("limiter.kind", "minmod")
        if lim_kind not in _LIMITERS:
            raise ConfigError(f"unknown limiter.kind {lim_kind!r}")
        try:
            limiter = LimiterConfig(kind=_LIMITERS[lim_kind],
                                    k_tilde=_as_float(entries, "limiter.k_tilde", 1.0),
                                    alpha=_as_float(entries, "limiter.alpha", 0.75))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # without an explicit cap the modified limiter defaults to
        # 2*C_u0*dx^(-alpha), which reduces it to plain minmod at each mesh
        k_tilde_auto = (limiter.kind is LimiterKind.MINMOD_MODIFIED
                        and "limiter.k_tilde" not in entries)

        u0_kind = entries.get("u0", "constant")
        if u0_kind == "constant":
            u0 = InitialData.constant(_as_float(entries, "u0.value"))
        elif u0_kind == "step":
            u0 = InitialData.step(_as_float(entries, "u0.left"),
                                  _as_float(entries, "u0.right"),
                                  at=_as_float(entries, "u0.jump", 0.0))
        else:
            raise ConfigError(f"unknown u0 kind {u0_kind!r}")

        if "t_end" not in entries:
            raise ConfigError("missing required key 't_end'")
        try:
            t_end = tuple(float(part) for part in entries["t_end"].split(","))
        except ValueError as exc:
            raise ConfigError(f"key 't_end': {exc}") from exc
        if any(t < 0 for t in t_end) or not t_end:
            raise ConfigError("t_end entries must be nonnegative")

        out_dir = Path(out_override or os.environ.get("DISCFLUX_OUTDIR")
                       or entries.get("output_dir", "."))
        window_x = _as_float(entries, "window_x") if "window_x" in entries else None
        diagnostics = entries.get("diagnostics", "true").lower() in ("true", "1", "yes", "on")
        ref_dx = _as_float(entries, "reference.dx") if "reference.dx" in entries else None

        try:
            spec = ExperimentSpec(
                name="config-run", model_name=model_name, model_params=model_params,
                x_min=x_min, x_max=x_max, dx=dx, lam=lam, u0=u0, output_times=t_end,
                reference_dx=ref_dx or dx, limiter=limiter, k_tilde_auto=k_tilde_auto,
                cfl_level=_CFL_LEVELS[level_name], window_x=window_x)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(spec=spec, scheme=_SCHEMES[scheme_name], output_dir=out_dir,
                   diagnostics=diagnostics, reference_given=ref_dx is not None)


def load_config(path: str, out_override: str | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return RunConfig.from_entries(parse_config_text(text), out_override)


def _write_report(report: DiagnosticsReport, path: Path) -> None:
    path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")


def cmd_run(args) -> int:
    try:
        config = load_config(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        run = run_experiment(config.spec, config.scheme,
                             collect_diagnostics=config.diagnostics)
    except CflError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for t, state in run.states.items():
        write_state_csv(state, config.output_dir / f"u_t{t:.6f}.csv")
    _write_report(run.report, config.output_dir / "diagnostics.json")
    print(f"wrote {len(config.spec.output_times)} solution file(s) and diagnostics.json "
          f"to {config.output_dir} ({run.report.steps} steps)")
    return 0


def cmd_reproduce(args) -> int:
    if args.example not in EXAMPLES:
        print(f"unknown example id {args.example}; choose 1 or 2", file=sys.stderr)
        return 1
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
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 1
    result = SUITES[args.suite]()
    print(result.line())
    return 0 if result.passed else 3


def cmd_study(args) -> int:
    try:
        config = load_config(args.config, args.out)
        if args.halvings < 2:
            raise ConfigError("--halvings must be >= 2")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        spec = config.spec
        if not config.reference_given:
            spec = replace(spec, reference_dx=spec.dx / 2**(args.halvings + 1))
        table = refinement_study(spec, config.scheme, args.halvings)
    except CflError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    config.output_dir.mkdir(parents=True, exist_ok=True)
    table.write(config.output_dir / "error_table.csv")
    print(table.to_csv_text(), end="")
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
    p_rep.add_argument("example", type=int)
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

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
