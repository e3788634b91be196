import importlib
import importlib.util
import json
from pathlib import Path

import pytest

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
    ], ids=["above-u_hi", "nan", "inf", "dx-does-not-tile", "modelfoo", "u0foo",
            "k_left-for-two-flux"])
    def test_run_refuses_with_exit_1(self, tmp_path, capsys, old, new):
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG.replace(old, new))
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_study_refuses_data_outside_the_box(self, tmp_path):
        cfg = write_config(tmp_path, TWO_FLUX_CONFIG.replace("u0.value = 0.5", "u0.value = -0.1"))
        assert main(["study", cfg, "--halvings", "2", "--out", str(tmp_path / "s")]) == 1


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
