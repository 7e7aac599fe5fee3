"""Golden digests of the metrics file: ``<name>.metrics.txt`` of the golden runs, pinned byte for byte.

The file states a run's headline numbers, one ``key = value`` line per number in ``Metrics``' field order, each
with the CSV's 17 significant digits.  A change to its keys, their order or the number format updates the digest
here and says why.
"""

import hashlib

import pytest

from heol.cli import cli_main
from heol.scenarios import compute_metrics, export_metrics, run_scenario

from test_golden import GOLDEN

METRICS_GOLDEN = {
    "paper-sec4": "be91f46ddd124ceb58bd7e362993e54183be67375e7ab922b2f1401fcecbfb6d",
    "paper-sec4-derived": "b5c0b7b4109aaf35f289d401b6e0acf9e4e84662be97e6f4beed21270c64473e",
    "paper-sec4-noisy-saturated": "63881432ec8b37c8b9c0fd390255788457102927a059b2d12ab123c01107dd31",
    "paper-sec4-nominal": "13bc2df8ddb389d77e451dea8d09f4f83e83a0863f580131a6abba79b548e128",
    "ultralocal-order1": "2775668e3246135098c6a3de996e6c15e8e7ec71455f1f1e4d386d22968adf7a",
    "ultralocal-order2-simpson": "13dc674931d01e4c31856907ef123783ab3e4fd086b6bb07477b9996b2ff51a1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_metrics_match_golden_digest(name, tmp_path):
    scenario = GOLDEN[name][0]()
    path = export_metrics(compute_metrics(run_scenario(scenario), scenario.rms_fraction), tmp_path / "m.txt")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == METRICS_GOLDEN[name]


def test_heol_run_writes_the_golden_metrics(tmp_path, capsys):
    assert cli_main(["run", "--config", "paper-sec4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "paper-sec4.metrics.txt").read_bytes()).hexdigest()
    assert digest == METRICS_GOLDEN["paper-sec4"]
