"""The output bytes of every perfbench workload, checked on each test run.

Each workload is rendered at the seed recorded in perfbench/expected.json
and run once through run_pipeline. Its alert and result records, in
emission order and through a JSON round trip as perfbench's recorder
stores them, must hash to the recorded digest. A change that moves a
digest changes the output; the digest is never re-recorded here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "perfbench")]

import checks  # noqa: E402  (perfbench's modules, on the path above)
import workloads  # noqa: E402

from stationwatch import SequenceBackend, run_pipeline  # noqa: E402

EXPECTED = checks.load_expected()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_workload_run_hashes_to_its_recorded_digest(name):
    workload = workloads.render(name, EXPECTED[name]["seed"])
    records = []

    def keep(record: dict) -> None:
        records.append(json.loads(json.dumps(record)))

    run_pipeline(SequenceBackend(workload.header, workload.frames), workloads.config_for(name),
                 alert_sink=keep, result_sink=keep)
    assert checks.canonical_digest(records) == EXPECTED[name]["sha256"]
