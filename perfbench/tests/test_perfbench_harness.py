"""Digest, percentiles, tracing and the command's output contract."""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import workloads
from conftest import BENCH_DIR, ROOT
from stationwatch import SequenceBackend, postprocess
from stationwatch.bench import percentile_nearest_rank


def test_percentiles_match_nearest_rank_on_a_scripted_sample():
    samples = [7.0, 1.0, 19.0, 3.0, 12.0, 20.0, 5.0, 16.0, 9.0, 2.0,
               14.0, 4.0, 18.0, 6.0, 11.0, 8.0, 15.0, 10.0, 17.0, 13.0]
    got = harness.percentiles("frame_ms", samples)
    assert got == {"frame_ms.p50": 10.0, "frame_ms.p95": 19.0}
    assert got["frame_ms.p50"] == percentile_nearest_rank(samples, 50)
    assert got["frame_ms.p95"] == percentile_nearest_rank(samples, 95)


def _records():
    return [
        {"frame": 0, "zone": "yellow-line", "state": "IN", "severity": "CRITICAL",
         "box": [1.0, 2.0, 3.0, 4.0], "score": 0.9},
        {"frame": 0, "detections": [], "state": "IN", "alerts": [],
         "latency_ms": {"decode": 0.5, "nms": 0.01, "geometry": 0.0, "fsm": 0.02}},
    ]


def test_digest_ignores_latency_and_changes_with_one_alert():
    base = checks.canonical_digest(_records())
    slower = _records()
    slower[1]["latency_ms"]["decode"] = 9.0
    assert checks.canonical_digest(slower) == base
    other = _records()
    other[0]["severity"] = "WARNING"
    assert checks.canonical_digest(other) != base


def _scenes_backend():
    workload = workloads.render("scenes", 0)
    return SequenceBackend(workload.header, workload.frames)


def test_traced_replay_reports_every_layer_and_changes_no_output():
    config = workloads.config_for("scenes")
    plain = harness.replay(_scenes_backend(), config, 0.0, 420, 420)
    tracer = harness.Tracer()
    traced = harness.replay(_scenes_backend(), config, 0.0, 420, 420, tracer)
    def digest(result):
        return checks.canonical_digest(json.loads(text) for _, text in result.kept)

    assert digest(traced) == digest(plain)
    assert len(plain.frame_ms) == plain.summary.frames_processed == 420
    metrics, shares, missing = harness.layer_metrics(tracer)
    assert missing == {}
    assert set(shares) == set(harness.LAYERS) | {"pipeline.self"}
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert metrics["postprocess.cells_scanned"] == 420 * (40 * 40 + 20 * 20 + 10 * 10)
    assert sum(metrics[f"train_fsm.frames.{s}"] for s in ("OFF", "IN", "ON", "OUT")) == 420
    # The wrappers are gone once the replay ends.
    assert harness.pipeline_module.nms is postprocess.nms


def test_a_missing_entry_point_is_named_and_the_other_layers_still_report(monkeypatch):
    monkeypatch.setattr(
        harness, "ENTRY_POINTS",
        tuple(e if e[1] != "nms" else (e[0], "nms_renamed", e[2], e[3])
              for e in harness.ENTRY_POINTS),
    )
    tracer = harness.Tracer()
    harness.replay(_scenes_backend(), workloads.config_for("scenes"), 0.0, 420, 420, tracer)
    metrics, shares, missing = harness.layer_metrics(tracer)
    assert list(missing) == ["postprocess.nms"]
    assert missing["postprocess.nms"] == (
        "postprocess.nms: stationwatch.pipeline.nms_renamed not found"
    )
    assert not any(name.startswith("postprocess.nms") for name in metrics)
    assert "postprocess.decode_ms.p50" in metrics and "geometry.point_tests" in metrics


def test_a_layer_wrapped_but_never_called_is_named_not_zero():
    tracer = harness.Tracer()
    tracer.frame = 0
    tracer.frame_start.append(0.0)
    tracer.spans.append(("postprocess.decode", 0, 0.0, 0.001, 10, 1))
    tracer.frame_end.append(0.002)
    metrics, _, missing = harness.layer_metrics(tracer)
    assert missing["postprocess.nms"] == "wrapped but never called"
    assert "postprocess.nms_in" not in metrics
    assert metrics["postprocess.candidates"] == 1


def test_benchmark_files_use_only_public_names():
    # Split so this file does not match itself.
    banned = ("playback_" + "backend(", "_train_" + "cycle", ".occu" + "pancy",
              "measure_" + "latency")
    for path in BENCH_DIR.glob("*.py"):
        text = path.read_text()
        assert not [name for name in banned if name in text], path


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenes", "--seed", "0",
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_exactly_the_declared_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
