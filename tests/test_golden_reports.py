"""Diagnostics reports pinned byte for byte.

The benchmark compares the keys of each `diagnostics*.json`, not its values.
The files under `golden/` hold the reports of the canned experiments (both
schemes) and of an 8000-cell run with the modified limiter, each written as
`discflux` writes `diagnostics.json`, so any change to a diagnostic value,
even in its last bit, fails here.
"""

from pathlib import Path

import pytest

from discflux import Scheme, example_1, example_2, run_experiment
from discflux.cli import _write_report, main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("example", [1, 2])
@pytest.mark.parametrize("tag, scheme", [("nt", Scheme.NESSYAHU_TADMOR),
                                         ("lf", Scheme.LAX_FRIEDRICHS)])
def test_example_report(tmp_path, example, tag, scheme):
    spec = {1: example_1, 2: example_2}[example]()
    _write_report(run_experiment(spec, scheme).report, tmp_path / "d.json")
    golden = GOLDEN / f"example{example}_{tag}.json"
    assert (tmp_path / "d.json").read_bytes() == golden.read_bytes()


def test_fine_run_report(tmp_path):
    assert main(["run", str(GOLDEN / "fine_run.cfg"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "diagnostics.json").read_bytes() == (GOLDEN / "fine_run.json").read_bytes()
