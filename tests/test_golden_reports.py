"""Diagnostics reports and verify margins pinned byte for byte.

The benchmark compares the keys of each `diagnostics*.json`, not its values.
The files under `golden/` hold the reports of the canned experiments (both
schemes), of their fine first-order references and of an 8000-cell run with
the modified limiter, each written as `discflux` writes `diagnostics.json`,
so any change to a diagnostic value, even in its last bit, fails here.  The
worst margin of each `verify` suite is pinned as its `float.hex()` value.
"""

from pathlib import Path

import pytest

from discflux import Scheme, example_1, example_2, run_experiment
from discflux.cli import _write_report, main
from discflux.verify import SUITES

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("tag, scheme", [("nt", Scheme.NESSYAHU_TADMOR),
                                         ("lf", Scheme.LAX_FRIEDRICHS)])
def test_example_report(tmp_path, example, tag, scheme):
    spec = {1: example_1, 2: example_2}[example]()
    _write_report(run_experiment(spec, scheme).report, tmp_path / "d.json")
    golden = GOLDEN / f"example{example}_{tag}.json"
    assert (tmp_path / "d.json").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("example", [1, 2])
def test_reference_report(tmp_path, request, example):
    # the reference marches are the session fixtures: `reference_run` at the output times
    run = request.getfixturevalue(f"ex{example}_reference")
    _write_report(run.report, tmp_path / "d.json")
    golden = GOLDEN / f"example{example}_ref.json"
    assert (tmp_path / "d.json").read_bytes() == golden.read_bytes()


def test_fine_run_report(tmp_path):
    assert main(["run", str(GOLDEN / "fine_run.cfg"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "diagnostics.json").read_bytes() == (GOLDEN / "fine_run.json").read_bytes()


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
