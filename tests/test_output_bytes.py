"""The output bytes of every perfbench workload, checked on each test run.

Each workload is rendered at the seed recorded in perfbench/expected.json,
and again at seed 1, and run once through run_pipeline. Its alert and
result records, in emission order and through a JSON round trip as
perfbench's recorder stores them, must hash to the recorded digest. Seed 1
plays the scenes in another order and draws new dense and crowd frames, so
a rewrite that touches every frame is checked on two sets of frames. A
change that moves a digest changes the output; the digests are never
re-recorded here.
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

# The digests of a run at seed 1, recorded once at commit 532f298.
SEED_1_SHA256 = {
    "scenes": "26de094abe30801ed47b60b50dc49055be29ea98291bfe5a5f0567e13b7db6f8",
    "dense": "1f913368c90e6df9eebad929265089aaa890ca98ea70fbfa840ff06bcee67386",
    "crowd": "241f71293d6934fa69ea3b371f3518583e63bdab99358082f6a86c7485b9784b",
}


@pytest.mark.parametrize(
    "name, seed, sha256",
    [pytest.param(name, EXPECTED[name]["seed"], EXPECTED[name]["sha256"], id=name)
     for name in workloads.NAMES]
    + [pytest.param(name, 1, SEED_1_SHA256[name], id=f"{name}-seed1") for name in workloads.NAMES],
)
def test_a_workload_run_hashes_to_its_recorded_digest(name, seed, sha256):
    workload = workloads.render(name, seed)
    records = []

    def keep(record: dict) -> None:
        records.append(json.loads(json.dumps(record)))

    run_pipeline(SequenceBackend(workload.header, workload.frames), workloads.config_for(name),
                 alert_sink=keep, result_sink=keep)
    assert checks.canonical_digest(records) == sha256
