import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import discflux.experiments as experiments
from discflux import Mesh
from discflux.cli import ConfigError, RunConfig, main, parse_config_text

EX1_CONFIG = """\
# canned multiplicative setup
model = multiplicative
model.k_left = 3
model.k_right = 1
domain.x_min = -1
domain.x_max = 1
dx = 0.04
dt = 0.00133333333333333333
scheme = nessyahu-tadmor
cfl_level = max-principle
limiter.kind = minmod
u0 = constant
u0.value = 0.15
t_end = 0.8, 1.6
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_comments_and_blanks(self):
        entries = parse_config_text("# hi\n\nkey = 1  # trailing\n")
        assert entries == {"key": "1"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_lambda_dt_exclusive(self):
        entries = parse_config_text(EX1_CONFIG + "lambda = 0.0333\n")
        with pytest.raises(ConfigError):
            RunConfig.from_entries(entries)
        entries = {k: v for k, v in parse_config_text(EX1_CONFIG).items() if k != "dt"}
        with pytest.raises(ConfigError):
            RunConfig.from_entries(entries)

    def test_missing_model_rejected(self):
        entries = {k: v for k, v in parse_config_text(EX1_CONFIG).items() if k != "model"}
        with pytest.raises(ConfigError):
            RunConfig.from_entries(entries)

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # a second dx must not override the first without a word
        text = EX1_CONFIG + "dx = 0.02\n"
        with pytest.raises(ConfigError, match=r"line 15: key 'dx' is given again \(first on "
                                              r"line 7\)"):
            parse_config_text(text)
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
        assert "'dx'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("times, shared", [
        ("0.1, 0.1000001, 0.1", r"t_end 0\.1 and 0\.1000001 share the solution file "
                                r"u_t0\.100000\.csv"),
        ("0.8, 1.6, 0.8", r"t_end 0\.8 and 0\.8 share the solution file u_t0\.800000\.csv"),
    ])
    def test_times_that_share_a_solution_file_rejected(self, tmp_path, capsys, times, shared):
        # each time's file would overwrite the last, and the run said it wrote them all
        text = EX1_CONFIG.replace("t_end = 0.8, 1.6", f"t_end = {times}")
        with pytest.raises(ConfigError, match=shared):
            RunConfig.from_entries(parse_config_text(text))
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
        assert "share the solution file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_entries(parse_config_text(EX1_CONFIG + "tpyo = 3\n"))

    def test_dt_converted_to_lambda(self):
        config = RunConfig.from_entries(parse_config_text(EX1_CONFIG))
        assert config.spec.lam == pytest.approx(1 / 30, rel=1e-9)

    def test_modified_limiter_cap_defaults_to_plain_minmod(self, tmp_path):
        # auto cap 2*C_u0*dx^(-alpha) exceeds any jump, so the modified run
        # reproduces the plain-minmod run exactly
        base = EX1_CONFIG.replace("t_end = 0.8, 1.6", "t_end = 0.8")
        plain = write_config(tmp_path, base, name="plain.cfg")
        modified = write_config(tmp_path, base.replace(
            "limiter.kind = minmod", "limiter.kind = minmod-modified"), name="mod.cfg")
        assert main(["run", plain, "--out", str(tmp_path / "p")]) == 0
        assert main(["run", modified, "--out", str(tmp_path / "m")]) == 0
        assert ((tmp_path / "p" / "u_t0.800000.csv").read_bytes()
                == (tmp_path / "m" / "u_t0.800000.csv").read_bytes())


class TestRunCommand:
    def test_run_writes_solutions_and_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path, EX1_CONFIG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "u_t0.800000.csv").exists()
        assert (out / "u_t1.600000.csv").exists()
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["scheme"] == "nessyahu-tadmor"
        assert payload["steps"] == 1200
        assert payload["kappa_used"] == pytest.approx(0.1)
        assert 0.0 <= payload["u_min"] and payload["u_max"] <= 1.0
        header = (out / "u_t0.800000.csv").read_text().splitlines()[0]
        assert header == "x,u"

    def test_identical_config_gives_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, EX1_CONFIG.replace("t_end = 0.8, 1.6", "t_end = 0.8"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        for name in ("u_t0.800000.csv", "diagnostics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_cfl_violation_exit_2(self, tmp_path, capsys):
        text = EX1_CONFIG.replace("dt = 0.00133333333333333333", "lambda = 0.09")
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "kappa_used" in err and "kappa_bound" in err

    def test_config_error_exit_1(self, tmp_path, capsys):
        text = EX1_CONFIG.replace("model = multiplicative\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("lam,code", [(3.0, 4), (0.05, 0)])
    def test_manual_run_leaving_the_box_exit_4(self, tmp_path, capsys, lam, code):
        # outside the CFL bound the march blows up after 16 steps, its extremes NaN
        text = (EX1_CONFIG.replace("dt = 0.00133333333333333333", f"lambda = {lam}")
                .replace("cfl_level = max-principle", "cfl_level = manual")
                .replace("u0 = constant\nu0.value = 0.15", "u0 = step\nu0.left = 0.9\n"
                         "u0.right = 0.1\nu0.jump = 0").replace("t_end = 0.8, 1.6", "t_end = 2"))
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main(["run", write_config(tmp_path, text), "--out", str(out)]) == code
        assert (out / "u_t2.000000.csv").exists() and (out / "diagnostics.json").exists()
        err = capsys.readouterr().err
        assert ("blow-up" in err and "u_min = nan" in err) == (code == 4)

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, EX1_CONFIG.replace("t_end = 0.8, 1.6", "t_end = 0.0"))
        monkeypatch.setenv("DISCFLUX_OUTDIR", str(tmp_path / "env_out"))
        assert main(["run", cfg]) == 0
        assert (tmp_path / "env_out" / "u_t0.000000.csv").exists()


TWO_FLUX_CONFIG = """\
model = two-flux-rational
domain.x_min = -1
domain.x_max = 1
dx = 0.04
lambda = 0.05
u0 = constant
u0.value = 0.5
t_end = 0.2
"""


class TestInputOutsideTheTheory:
    def test_inside_the_theory_runs(self, tmp_path):
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("old, new", [
        ("u0.value = 0.5", "u0.value = 1.7"),   # above u_hi: u ran to +-1.4e4
        ("u0.value = 0.5", "u0.value = nan"),
        ("u0.value = 0.5", "u0.value = inf"),
        ("dx = 0.04", "dx = 0.03"),             # 2/0.03 cells: silently became 67
        ("u0 = constant", "u0 = constant\nmodelfoo = 3"),
        ("u0 = constant", "u0 = constant\nu0foo = 3"),
        ("u0 = constant", "u0 = constant\nmodel.k_left = 3"),  # only multiplicative reads it
        ("u0 = constant", "u0 = constant\nlimiter.k_tidle = 2"),
        ("domain.x_max = 1", "domain.x_max = 1\ndomain.x_mx = 3"),
        ("u0 = constant", "u0 = constant\nreference.foo = 1"),
        ("u0 = constant", "u0 = constant\nu0.left = 0.3"),      # only u0 = step reads it
        ("u0 = constant", "u0 = constant\nlimiter.alpha = 0.5"),  # only minmod-modified reads it
        ("u0 = constant", "u0 = constant\nlimiter.k_tilde = 2"),
        ("u0 = constant", "u0 = constant\ndiagnostics = flase"),
        ("u0 = constant", "u0 = constant\ndiagnostics = all\nwindow_x = nan"),
        ("u0 = constant", "u0 = constant\ndiagnostics = all\nwindow_x = -1"),  # it masked all
        ("u0 = constant", "u0 = constant\nwindow_x = 0.3"),  # only the cubic accumulator reads it
        ("domain.x_max = 1", "domain.x_max = inf"),
        ("t_end = 0.2", "t_end = inf"),
        ("t_end = 0.2", "t_end = 1e300"),      # finite, but about 1e303 steps: it never ended
        ("u0 = constant", "u0 = constant\nreference.dx = 0"),
        ("u0 = constant", "u0 = constant\nlimiter.kind = minmod-modified\nlimiter.k_tilde = nan"),
        ("dx = 0.04\nlambda = 0.05", "dx = 0\ndt = 0.002"),
    ], ids=["above-u_hi", "nan", "inf", "dx-does-not-tile", "modelfoo", "u0foo",
            "k_left-for-two-flux", "k_tidle", "x_mx", "reference-foo", "u0-left-for-constant",
            "alpha-for-minmod", "k_tilde-for-minmod", "diagnostics-flase", "window_x-nan",
            "window_x-negative", "window_x-without-cubic-estimate",
            "x_max-inf", "t_end-inf", "t_end-1e300", "reference-dx-0", "k_tilde-nan",
            "dx-0-with-dt"])
    def test_run_refuses_with_exit_1(self, tmp_path, capsys, old, new):
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG.replace(old, new))
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_study_refuses_data_outside_the_box(self, tmp_path):
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG.replace("u0.value = 0.5", "u0.value = -0.1"))
        assert main(["study", cfg, "--halvings", "2", "--out", str(tmp_path / "s")]) == 1

    @pytest.mark.parametrize("halvings", ["2000", "-5000"])
    def test_study_refuses_halvings_beyond_float_range(self, tmp_path, capsys, halvings):
        # the default reference mesh dx / 2**(halvings + 1) leaves the float range
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG)
        assert main(["study", cfg, "--halvings", halvings, "--out", str(tmp_path / "s")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_study_names_halvings_when_its_reference_mesh_is_too_fine(self, tmp_path, capsys):
        # the default reference mesh dx / 2**41 is refused by its name and the option behind it
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG)
        assert main(["study", cfg, "--halvings", "40", "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --halvings 40: reference_dx = ") and "more than" in err
        assert not (tmp_path / "s").exists()

    def test_study_refuses_a_negative_window_x(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG + "diagnostics = all\nwindow_x = -1\n")
        assert main(["study", cfg, "--halvings", "2", "--out", str(tmp_path / "s")]) == 1
        assert "window_x" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_study_refuses_more_than_max_steps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG.replace("t_end = 0.2", "t_end = 1e300"))
        assert main(["study", cfg, "--halvings", "2", "--out", str(tmp_path / "s")]) == 1
        assert "MAX_STEPS" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("text, args", [
        (TWO_FLUX_CONFIG.replace("dx = 0.04", "dx = 2e-10"), []),  # 1e10 cells: 74.5 GiB
        (TWO_FLUX_CONFIG, ["--halvings", "40"]),  # a reference mesh of 50 * 2**41 cells
    ], ids=["run-dx-2e-10", "study-halvings-40"])
    def test_refuses_more_cells_than_a_mesh_may_hold(self, tmp_path, capsys, monkeypatch, text,
                                                      args):
        # refused before a mesh of that many cells is built: a mesh of more fails the test
        # here instead of allocating a march's arrays
        real = Mesh.from_cells.__func__

        def bounded(cls, x_min, x_max, n_cells):
            assert n_cells <= experiments._MAX_CELLS, f"a mesh of {n_cells} cells was built"
            return real(cls, x_min, x_max, n_cells)

        monkeypatch.setattr(Mesh, "from_cells", classmethod(bounded))
        cfg = write_config(tmp_path, text)
        command = "study" if args else "run"
        assert main([command, cfg, *args, "--out", str(tmp_path / "o")]) == 1
        assert "more than" in capsys.readouterr().err.split("config error: ")[1]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra", ["reference.dx = 0.01\n", "limiter.kind = minmod\n",
                                       "diagnostics = OFF\n", "diagnostics = All\n",
                                       "diagnostics = all\nwindow_x = 0.3\n",
                                       "scheme = lf\nlimiter.kind = zero\n"])
    def test_keys_the_spec_reads_are_accepted(self, tmp_path, extra):
        # keys are judged against the spec, which serves run and study and
        # carries a limiter for either scheme
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG + extra)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


KEYS = ["model", "model.k_left", "model.k_right", "domain.x_min", "domain.x_max", "dx",
        "lambda", "dt", "scheme", "cfl_level", "limiter.kind", "limiter.k_tilde",
        "limiter.alpha", "u0", "u0.value", "u0.left", "u0.right", "u0.jump", "t_end",
        "output_dir", "window_x", "diagnostics", "reference.dx"]
TYPOS = ["limiter.k_tidle", "domain.x_mx", "reference.foo", "modelfoo", "u0foo", "Dx"]
VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300", "0.5", "0.04",
          "0.002", "2", "garbage", "", "0.8, 1.6", "1,", "multiplicative", "two-flux-rational",
          "burgers-const-k", "lf", "nessyahu-tadmor", "manual", "one-sided", "cubic-estimate",
          "zero", "minmod", "minmod-modified", "constant", "step", "TRUE", "off", "all"]


class TestConfigTextBuildsOrRaisesConfigError:
    @given(overrides=st.dictionaries(st.sampled_from(KEYS + TYPOS), st.sampled_from(VALUES),
                                     max_size=6),
           removed=st.sets(st.sampled_from(KEYS), max_size=3))
    @example(overrides={"domain.x_max": "inf"}, removed=set())
    @example(overrides={"domain.x_min": "inf"}, removed=set())
    @example(overrides={"t_end": "inf"}, removed=set())
    @example(overrides={"reference.dx": "0"}, removed=set())
    @example(overrides={"dx": "0"}, removed=set())  # the base config gives dt
    @example(overrides={"dx": "1e-300", "domain.x_max": "1e300"}, removed=set())  # inf cells
    @settings(max_examples=300, deadline=None)
    def test_from_entries(self, overrides, removed):
        """Any config text builds a run or raises ConfigError, never another exception."""
        entries = {k: v for k, v in parse_config_text(EX1_CONFIG).items() if k not in removed}
        entries.update(overrides)
        try:
            spec = RunConfig.from_entries(entries).spec
        except ConfigError:
            return
        assert not set(entries) & set(TYPOS)
        numbers = (spec.x_min, spec.x_max, spec.dx, spec.lam, spec.reference_dx,
                   spec.limiter.k_tilde, spec.limiter.alpha, *spec.output_times)
        assert all(map(math.isfinite, numbers))


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [], ["reproduce", "abc"], ["study", "c.cfg", "--halvings", "x"],
    ], ids=["no-command", "reproduce-abc", "halvings-x"])
    def test_usage_error_exit_1(self, argv, capsys):
        # argparse exits 2, which the CLI documents as a CFL refusal
        assert main(argv) == 1
        assert "usage" in capsys.readouterr().err


class TestReproduceCommand:
    def test_invalid_id_exit_1(self, tmp_path):
        assert main(["reproduce", "7", "--out", str(tmp_path)]) == 1

    def test_example_1_outputs(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["reproduce", "1", "--out", str(out)]) == 0
        for tag in ("nt", "lf", "ref"):
            for t in ("0.800000", "1.600000"):
                assert (out / f"{tag}_u_t{t}.csv").exists()
            assert (out / f"diagnostics_{tag}.json").exists()
        table = (out / "error_table.csv").read_text().splitlines()
        assert table[0] == "dx,scheme,time,l1_error,observed_order"
        assert len(table) == 1 + 4  # two schemes at two output times


class TestVerifyCommand:
    def test_identity_suite_passes(self, capsys):
        assert main(["verify", "identity"]) == 0
        assert "identity: PASS" in capsys.readouterr().out

    def test_degeneration_suite_passes(self):
        assert main(["verify", "degeneration"]) == 0

    def test_failing_suite_exit_3(self, capsys, monkeypatch):
        from discflux import cli
        from discflux.verify import SuiteResult

        broken = lambda: SuiteResult("identity", False, -1.0, "scenario state-7")
        monkeypatch.setitem(cli.SUITES, "identity", broken)
        assert main(["verify", "identity"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "state-7" in out


STUDY_CONFIG = """\
model = multiplicative
domain.x_min = -1
domain.x_max = 1
dx = 0.04
lambda = 0.0333333333333333333
u0 = constant
u0.value = 0.15
t_end = 0.4
reference.dx = 0.005
"""


class TestStudyCommand:
    def test_study_writes_table(self, tmp_path, capsys):
        text = """\
model = burgers-const-k
domain.x_min = 0
domain.x_max = 1
dx = 0.0625
lambda = 0.1
scheme = nessyahu-tadmor
u0 = constant
u0.value = 0.3
t_end = 0.5
reference.dx = 0.0078125
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", cfg, "--halvings", "2", "--out", str(out)]) == 0
        lines = (out / "error_table.csv").read_text().splitlines()
        assert lines[0] == "dx,scheme,time,l1_error,observed_order"
        assert len(lines) == 3

    @pytest.mark.parametrize("lam,code", [(3.0, 4), (0.05, 0)])
    def test_manual_study_with_a_non_finite_error_exit_4(self, tmp_path, capsys, lam, code):
        # outside the CFL bound both levels blow up, and every L1 error is NaN
        text = (EX1_CONFIG.replace("dt = 0.00133333333333333333", f"lambda = {lam}")
                .replace("cfl_level = max-principle", "cfl_level = manual")
                .replace("u0 = constant\nu0.value = 0.15", "u0 = step\nu0.left = 0.9\n"
                         "u0.right = 0.1\nu0.jump = 0").replace("t_end = 0.8, 1.6", "t_end = 1.92"))
        out = tmp_path / "s"
        with np.errstate(all="ignore"):
            assert main(["study", write_config(tmp_path, text), "--halvings", "2",
                         "--out", str(out)]) == code
        errors = [row.split(",")[3] for row in
                  (out / "error_table.csv").read_text().splitlines()[1:]]
        assert len(errors) == 2 and all((e == "nan") == (code == 4) for e in errors)
        err = capsys.readouterr().err
        assert ("blow-up" in err and "dx = 0.04, 0.02" in err) == (code == 4)

    def test_study_reports_every_time(self, tmp_path, capsys):
        # one config serves run and study: each t_end gets its group of rows, in the order
        # given, with the rows a config of that time alone writes (orders within the group)
        def table(name, times):
            cfg = write_config(tmp_path, STUDY_CONFIG.replace("t_end = 0.4", f"t_end = {times}"),
                               name=f"{name}.cfg")
            assert main(["study", cfg, "--halvings", "3", "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / "error_table.csv").read_text().splitlines()

        both, late, early = table("both", "0.4, 0.2"), table("late", "0.4"), table("early", "0.2")
        assert both == late + early[1:]
        assert [round(float(row.split(",")[2]), 2) for row in both[1:]] == [0.4] * 3 + [0.2] * 3
        assert [row.endswith(",") for row in both[1:]] == [False, False, True] * 2

    def test_bad_halvings_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, EX1_CONFIG)
        assert main(["study", cfg, "--halvings", "1", "--out", str(tmp_path / "s")]) == 1

    def test_cfl_level_applies_to_study(self, tmp_path, capsys):
        # kappa = 0.1 exceeds the one-sided bound 4.44e-5 of this model
        cfg = write_config(tmp_path, STUDY_CONFIG + "cfl_level = one-sided\n")
        assert main(["study", cfg, "--halvings", "2", "--out", str(tmp_path / "s")]) == 2
        assert "kappa_bound" in capsys.readouterr().err

    def test_limiter_applies_to_study(self, tmp_path):
        def l1_column(name, extra):
            cfg = write_config(tmp_path, STUDY_CONFIG + extra, name=f"{name}.cfg")
            out = tmp_path / name
            assert main(["study", cfg, "--halvings", "2", "--out", str(out)]) == 0
            rows = (out / "error_table.csv").read_text().splitlines()[1:]
            return [row.split(",")[3] for row in rows]

        zero = l1_column("zero", "scheme = nessyahu-tadmor\nlimiter.kind = zero\n")
        # NT with zero slopes is the first-order scheme bit for bit
        assert zero == l1_column("lf", "scheme = lax-friedrichs\n")
        assert zero != l1_column("minmod", "scheme = nessyahu-tadmor\nlimiter.kind = minmod\n")


class TestBenchHooks:
    def test_wrapped_attributes_resolve(self):
        # the benchmark child wraps these module attributes; a missing one
        # makes every benchmark repetition fail
        path = Path(__file__).resolve().parents[1] / "bench" / "child.py"
        spec = importlib.util.spec_from_file_location("bench_child", path)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        for module, attr, _ in child.LIGHT + child.FULL:
            assert callable(getattr(child._resolve(module), attr, None)), (module, attr)
        assert callable(importlib.import_module("discflux.experiments").make_model)
