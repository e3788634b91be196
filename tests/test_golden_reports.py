"""Diagnostics reports and verify margins pinned byte for byte.

The benchmark compares the keys of each `diagnostics*.json`, not its values.
The files under `golden/` hold the reports of the canned experiments (both
schemes), of their fine first-order references and of an 8000-cell run with
the modified limiter, each written as `discflux` writes `diagnostics.json`,
so any change to a diagnostic value, even in its last bit, fails here.  The
canned and the 8000-cell reports are pinned twice: with every estimate
computed (`diagnostics = all`), and as run, with only the estimates the paper
claims for the run (`*_claimed.json`).  The
worst margin of each `verify` suite is pinned as its `float.hex()` value, and
the sha256 of every CSV that `reproduce 1`, `reproduce 2`, the 8000-cell
run and the benchmark's `study` (seed 0, `--halvings 4`) write (solutions and
error tables) in `golden/solutions.sha256`, in the format of `sha256sum`.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from discflux import Scheme, cli, example_1, example_2, run_experiment
from discflux.cli import _write_report, main
from discflux.verify import SUITES

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_RUN = GOLDEN.parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("tag, scheme", [("nt", Scheme.NESSYAHU_TADMOR),
                                         ("lf", Scheme.LAX_FRIEDRICHS)])
def test_example_report(tmp_path, example, tag, scheme):
    spec = {1: example_1, 2: example_2}[example]()
    _write_report(run_experiment(spec, scheme, collect_diagnostics="all").report,
                  tmp_path / "d.json")
    golden = GOLDEN / f"example{example}_{tag}.json"
    assert (tmp_path / "d.json").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("tag, scheme", [("nt", Scheme.NESSYAHU_TADMOR),
                                         ("lf", Scheme.LAX_FRIEDRICHS)])
def test_claimed_example_report(tmp_path, example, tag, scheme):
    spec = {1: example_1, 2: example_2}[example]()
    _write_report(run_experiment(spec, scheme).report, tmp_path / "d.json")
    golden = GOLDEN / f"example{example}_{tag}_claimed.json"
    assert (tmp_path / "d.json").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("example", [1, 2])
def test_reference_report(tmp_path, request, example):
    # the reference marches are the session fixtures: `reference_run` at the output times
    run = request.getfixturevalue(f"ex{example}_reference")
    _write_report(run.report, tmp_path / "d.json")
    golden = GOLDEN / f"example{example}_ref.json"
    assert (tmp_path / "d.json").read_bytes() == golden.read_bytes()


@pytest.fixture(scope="module")
def fine_run_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fine")
    assert main(["run", str(GOLDEN / "fine_run.cfg"), "--out", str(out)]) == 0
    return out


def test_fine_run_report(tmp_path):
    config = tmp_path / "all.cfg"
    config.write_text((GOLDEN / "fine_run.cfg").read_text() + "diagnostics = all\n")
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "diagnostics.json").read_bytes() == (GOLDEN / "fine_run.json").read_bytes()


def test_claimed_fine_run_report(fine_run_out):
    assert (fine_run_out / "diagnostics.json").read_bytes() == \
        (GOLDEN / "fine_run_claimed.json").read_bytes()


def _golden_digests(directory: str) -> dict[str, str]:
    """The recorded sha256 of each CSV under `directory` in `golden/solutions.sha256`."""
    lines = (GOLDEN / "solutions.sha256").read_text().splitlines()
    pairs = (line.split("  ", 1) for line in lines)
    return {path.split("/", 1)[1]: digest for digest, path in pairs
            if path.startswith(directory + "/")}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}


@pytest.mark.parametrize("example", [1, 2])
def test_reproduce_solution_bytes(tmp_path, request, monkeypatch, example):
    # `reproduce` marches its reference as `reference_run(spec)`, which is the session fixture
    reference = request.getfixturevalue(f"ex{example}_reference")
    monkeypatch.setattr(cli, "reference_run", lambda spec: reference)
    assert main(["reproduce", str(example), "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == _golden_digests(f"ex{example}")


def test_fine_run_solution_bytes(fine_run_out):
    assert _digests(fine_run_out) == _golden_digests("fine")


def test_study_table_bytes(tmp_path):
    # the config of bench/run.py's `study` workload at its seed-0 value
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    config = tmp_path / "study.cfg"
    config.write_text(bench.STUDY_CFG.format(value="0.15"))
    out = tmp_path / "out"
    assert main(["study", str(config), "--halvings", "4", "--out", str(out)]) == 0
    assert _digests(out) == _golden_digests("study")


VERIFY_MARGINS = {
    "identity": "0x1.19719812dea11p-40",
    "degeneration": "0x1.203af9ee75616p-50",
    "maxprinciple": "0x1.99999999ab318p-4",
    "onesided": "0x1.2b3ce271eab40p-13",
    "nu": "0x0.0p+0",
    "entropy": "0x1.196d9812dea11p-40",
    "correction": "0x1.4f8b782490520p-16",
}


@pytest.mark.parametrize("name", sorted(VERIFY_MARGINS))
def test_verify_margin(name):
    assert SUITES[name]().worst_margin.hex() == VERIFY_MARGINS[name]
