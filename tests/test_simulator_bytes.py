"""The simulator's output bytes, checked on each test run.

`stationwatch simulate` on each built-in scene must write the recorded
`.yxt` and ground-truth bytes, and each perfbench workload rendered at seed
0 must give the recorded tensor bytes: every frame's three levels in order,
each as `tobytes()`. A change that moves a digest changes what the
simulator renders; the digests are never re-recorded here.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "perfbench")]

import workloads  # noqa: E402  (perfbench's module, on the path above)

from stationwatch.cli import main  # noqa: E402

SIMULATE_SHA256 = {
    "empty_platform": (
        "6022c0948f301bfa3a26f93aef1f8aeeef50c0b1dd47546e678df915a32c33df",
        "1199702c012013e3304890024dd36f08bb32ecff838e6896ed8c4568b40ff2b3",
    ),
    "crossing_during_approach": (
        "1ecfe1647633349b340ccdeddd231411b55f397f10f661e886d4c84d129999c4",
        "342dc95b923c4808f2aacfa716ac9c1cbb01208d2cfb90df52fa0bb1b4051439",
    ),
    "crowd_safe": (
        "c86cd8c86d1ba752348d1e81f31a34755cc501120b6e75349260f162a698b958",
        "7a7ece9a41e119d6068c1d71f2ffdfa2a0e61b9e2bfcdfc8106cc0dc9961f69b",
    ),
}

TENSOR_SHA256 = {
    "scenes": "c2c163cd3169ad54072d63d60b86318120918fe1f6737bb8ab8b2b615f8e2bb9",
    "dense": "16caf2bb5ae17bf1a77ffa1e54f427a77431c44bea7ce5752cdc5f5c5bd218f9",
    "crowd": "1abf80de30e72d01f23dc2f3e505b3f49f1b0a8c027edc457e93b78393d06658",
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scene", sorted(SIMULATE_SHA256))
def test_simulate_writes_the_recorded_bytes(tmp_path, capsys, scene):
    tensors, gt = tmp_path / "scene.yxt", tmp_path / "gt.json"
    assert main(["simulate", "--scenario", scene,
                 "--out-tensors", str(tensors), "--out-gt", str(gt)]) == 0
    assert (sha256_of(tensors), sha256_of(gt)) == SIMULATE_SHA256[scene]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_workload_renders_the_recorded_tensor_bytes(name):
    digest = hashlib.sha256()
    for frame in workloads.render(name, 0).frames:
        for level in frame.outputs:
            digest.update(level.tobytes())
    assert digest.hexdigest() == TENSOR_SHA256[name]
