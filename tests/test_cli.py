from __future__ import annotations

import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import pytest

import numpy as np

from stationwatch import (SequenceBackend, ZoneKind, default_config, load_config, run_pipeline,
                          save_config)
from stationwatch.bench import BENCH_CSV_HEADER
from stationwatch import acceptance, cli
from stationwatch.acceptance import CheckFailed
from stationwatch.cli import main
from stationwatch.scenario import scenario_to_json
from stationwatch.tensor_stream import PlaybackBackend, read_header, write_tensor_stream

from test_pipeline import saved_config_json


def run_cli(*argv: str) -> int:
    return main(list(argv))


def simulate(tmp_path, scenario: str = "crossing_during_approach"):
    tensors = tmp_path / f"{scenario}.yxt"
    gt = tmp_path / f"{scenario}-gt.json"
    code = run_cli(
        "simulate", "--scenario", scenario,
        "--out-tensors", str(tensors), "--out-gt", str(gt),
    )
    assert code == 0
    return tensors, gt


# --- simulate ----------------------------------------------------------------

def test_simulate_writes_both_outputs(tmp_path, capsys):
    tensors, gt = simulate(tmp_path)
    assert read_header(tensors).frame_count == 150
    gt_data = json.loads(gt.read_text())
    assert len(gt_data["frames"]) == 150
    stdout = capsys.readouterr().out
    assert json.loads(stdout.strip().splitlines()[-1])["frames"] == 150


def test_simulate_requires_exactly_one_source(tmp_path, capsys):
    args = ["--out-tensors", str(tmp_path / "a.yxt"), "--out-gt", str(tmp_path / "a.json")]
    assert run_cli("simulate", *args) == 2
    assert run_cli(
        "simulate", "--scenario", "empty_platform", "--spec-file", "x.json", *args
    ) == 2


def test_simulate_from_a_spec_file(tmp_path):
    from stationwatch import Actor, ScenarioSpec, Waypoint

    spec = ScenarioSpec(
        duration_frames=5, image_width=320, image_height=320,
        actors=(Actor(0, (Waypoint(0, 160.0, 160.0, 18.0, 40.0),
                          Waypoint(4, 180.0, 160.0, 18.0, 40.0))),),
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(scenario_to_json(spec)))
    tensors = tmp_path / "custom.yxt"
    gt = tmp_path / "custom-gt.json"
    code = run_cli(
        "simulate", "--spec-file", str(spec_path),
        "--out-tensors", str(tensors), "--out-gt", str(gt),
    )
    assert code == 0
    assert read_header(tensors).frame_count == 5


def test_simulate_leaves_no_stream_when_the_ground_truth_write_fails(tmp_path, capsys):
    tensors = tmp_path / "a.yxt"
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    code = run_cli(
        "simulate", "--scenario", "crossing_during_approach",
        "--out-tensors", str(tensors), "--out-gt", str(gt_dir),
    )
    assert code == 1
    assert not tensors.exists()
    assert list(gt_dir.iterdir()) == []
    assert capsys.readouterr().err.startswith("simulate: ")


def test_simulate_output_is_byte_identical_across_runs(tmp_path):
    first_dir = tmp_path / "a"
    second_dir = tmp_path / "b"
    first_dir.mkdir()
    second_dir.mkdir()
    first, _ = simulate(first_dir)
    second, _ = simulate(second_dir)
    assert first.read_bytes() == second.read_bytes()


# --- run ----------------------------------------------------------------------

def test_run_on_the_empty_platform_raises_no_alerts(tmp_path, capsys):
    tensors, _ = simulate(tmp_path, "empty_platform")
    alerts = tmp_path / "alerts.jsonl"
    results = tmp_path / "results.jsonl"
    code = run_cli(
        "run", "--tensors", str(tensors),
        "--alerts-out", str(alerts), "--results-out", str(results),
    )
    assert code == 0
    assert alerts.read_text() == ""
    assert len(results.read_text().splitlines()) == 150
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"frames": 150, "alerts": 0, "errors": 0}


def test_run_on_the_crossing_scene_raises_critical_alerts(tmp_path):
    tensors, _ = simulate(tmp_path)
    alerts = tmp_path / "alerts.jsonl"
    results = tmp_path / "results.jsonl"
    assert run_cli(
        "run", "--tensors", str(tensors),
        "--alerts-out", str(alerts), "--results-out", str(results),
    ) == 0
    records = [json.loads(line) for line in alerts.read_text().splitlines()]
    assert records
    assert {r["severity"] for r in records} == {"CRITICAL"}
    assert {r["zone"] for r in records} == {"yellow-line"}
    frames = sorted(r["frame"] for r in records)
    assert frames[0] >= 19 and frames[-1] <= 39  # crossing interval +/- 1


def test_run_output_is_byte_identical_across_runs(tmp_path):
    tensors, _ = simulate(tmp_path)
    outputs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        code, alerts, results = run_outputs(tmp_path / name, tensors)
        assert code == 0
        outputs.append((alerts.read_bytes(), results.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0]  # the crossing scene raises alerts


def test_run_alerts_print_box_and_score_as_their_result_records_do(tmp_path):
    tensors, _ = simulate(tmp_path)
    alerts = tmp_path / "alerts.jsonl"
    results = tmp_path / "results.jsonl"
    assert run_cli(
        "run", "--tensors", str(tensors),
        "--alerts-out", str(alerts), "--results-out", str(results),
    ) == 0
    by_frame = {}
    for line in results.read_text().splitlines():
        record = json.loads(line)
        by_frame[record["frame"]] = [
            json.dumps([d["box"], d["score"]]) for d in record["detections"] if d["class"] == 0
        ]
    alert_lines = alerts.read_text().splitlines()
    assert alert_lines
    for line in alert_lines:
        alert = json.loads(line)
        assert json.dumps([alert["box"], alert["score"]]) in by_frame[alert["frame"]]


def test_the_jsonl_writer_prints_every_crowd_record_as_json_dumps_does():
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "perfbench")]
    import workloads  # perfbench's renderer, on the path above

    workload = workloads.render("crowd", 0)
    out = io.StringIO()
    write = cli._JsonlWriter(out)
    records = []

    def sink(record: dict) -> None:
        write(record)
        records.append(record)

    run_pipeline(SequenceBackend(workload.header, workload.frames), workloads.config_for("crowd"),
                 alert_sink=sink, result_sink=sink)
    assert out.getvalue() == "".join(json.dumps(record) + "\n" for record in records)
    # alerts are written both alone and inside their result record, sharing its box lists
    shared = [alert for record in records for alert in record.get("alerts", ())
              if any(alert["box"] is entry["box"] for entry in record["detections"])]
    assert len(shared) > 1000


def run_with_config(tmp_path, tensors, name: str, data: dict | None) -> tuple[int, Path]:
    """Run on `tensors` with config `data` (None: no --config); the exit code and alerts path."""
    options = []
    if data is not None:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(data, indent=2))
        options = ["--config", str(config)]
    alerts = tmp_path / f"{name}-alerts.jsonl"
    code = run_cli("run", "--tensors", str(tensors), *options, "--alerts-out", str(alerts),
                   "--results-out", str(tmp_path / f"{name}-results.jsonl"))
    return code, alerts


def test_run_takes_an_older_config_file_but_refuses_a_changed_severity(tmp_path, capsys):
    tensors, _ = simulate(tmp_path)
    assert run_with_config(tmp_path, tensors, "default", None)[0] == 0
    code, alerts = run_with_config(tmp_path, tensors, "old", saved_config_json())
    assert code == 0
    assert alerts.read_bytes() == (tmp_path / "default-alerts.jsonl").read_bytes()
    capsys.readouterr()

    changed = saved_config_json(severity="WARNING")
    code, alerts = run_with_config(tmp_path, tensors, "changed", changed)
    assert code == 2
    assert "malformed pipeline config: severities are fixed" in capsys.readouterr().err
    assert not alerts.exists()
    assert not (tmp_path / "changed-results.jsonl").exists()


def test_run_loops_renumber_frames(tmp_path):
    tensors, _ = simulate(tmp_path, "empty_platform")
    results = tmp_path / "results.jsonl"
    assert run_cli(
        "run", "--tensors", str(tensors), "--loop", "2",
        "--alerts-out", str(tmp_path / "a.jsonl"), "--results-out", str(results),
    ) == 0
    lines = results.read_text().splitlines()
    assert len(lines) == 300
    assert json.loads(lines[-1])["frame"] == 299


@pytest.mark.parametrize("existing", [False, True], ids=["new_paths", "existing_files"])
def test_run_leaves_no_partial_output_when_a_sink_fails_mid_run(
    tmp_path, capsys, monkeypatch, existing
):
    tensors, _ = simulate(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    alerts, results = out / "alerts.jsonl", out / "results.jsonl"
    if existing:
        alerts.write_text("old alerts\n")
        results.write_text("old results\n")
    write = cli._JsonlWriter.__call__

    def write_until_frame_27(sink, record):
        # Alerts of the crossing start at frame 19, so both files have lines by then.
        if "detections" in record and record["frame"] == 27:
            raise OSError(28, "No space left on device")
        write(sink, record)

    monkeypatch.setattr(cli._JsonlWriter, "__call__", write_until_frame_27)
    code = run_cli(
        "run", "--tensors", str(tensors),
        "--alerts-out", str(alerts), "--results-out", str(results),
    )
    assert code == 1
    assert "output sink failed" in capsys.readouterr().err
    if existing:
        assert alerts.read_text() == "old alerts\n"
        assert results.read_text() == "old results\n"
        assert sorted(path.name for path in out.iterdir()) == ["alerts.jsonl", "results.jsonl"]
    else:
        assert list(out.iterdir()) == []


def test_run_replaces_existing_outputs_and_writes_a_device_in_place(tmp_path, capsys):
    tensors, _ = simulate(tmp_path, "empty_platform")
    results = tmp_path / "results.jsonl"
    results.write_text("old results\n")
    assert run_cli(
        "run", "--tensors", str(tensors),
        "--alerts-out", "/dev/null", "--results-out", str(results),
    ) == 0
    assert len(results.read_text().splitlines()) == 150
    assert Path("/dev/null").is_char_device()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "empty_platform-gt.json", "empty_platform.yxt", "results.jsonl"
    ]


# --- bad inputs: run and bench agree -------------------------------------------

def nan_stream(tmp_path):
    """The 150-frame empty platform scene with one NaN cell in frame 7."""
    tensors, _ = simulate(tmp_path, "empty_platform")
    frames = PlaybackBackend(tensors)
    header = frames.header
    frames = list(frames)
    frames[7].outputs[0][0, 0, 4] = np.nan
    path = tmp_path / "nan.yxt"
    write_tensor_stream(path, header, frames)
    return path


def truncated_stream(tmp_path):
    """The empty platform scene with its last frame cut short."""
    tensors, _ = simulate(tmp_path, "empty_platform")
    path = tmp_path / "truncated.yxt"
    path.write_bytes(tensors.read_bytes()[:-100])
    return path


def all_nan_stream(tmp_path):
    """Three frames of the empty platform scene, each with a NaN objectness cell."""
    tensors, _ = simulate(tmp_path, "empty_platform")
    frames = PlaybackBackend(tensors)
    header = frames.header
    frames = [frame for frame, _ in zip(frames, range(3))]
    for frame in frames:
        frame.outputs[0][0, 0, 4] = np.nan
    path = tmp_path / "all-nan.yxt"
    write_tensor_stream(path, dataclasses.replace(header, frame_count=3), frames)
    return path


def run_outputs(tmp_path, tensors, *extra):
    alerts = tmp_path / "alerts.jsonl"
    results = tmp_path / "results.jsonl"
    code = run_cli(
        "run", "--tensors", str(tensors), *extra,
        "--alerts-out", str(alerts), "--results-out", str(results),
    )
    return code, alerts, results


def bench_output(tmp_path, tensors, *extra):
    out_csv = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "9.1", *extra,
        "--out-csv", str(out_csv),
    )
    return code, out_csv


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("make_stream", [nan_stream, truncated_stream])
def test_run_and_bench_exit_1_when_a_frame_is_lost(tmp_path, capsys, make_stream):
    tensors = make_stream(tmp_path)
    code, _, results = run_outputs(tmp_path, tensors)
    assert code == 1
    assert last_json(capsys) == {"frames": 149, "alerts": 0, "errors": 1}
    assert len(results.read_text().splitlines()) == 150  # 149 results + 1 error record

    code, out_csv = bench_output(tmp_path, tensors)
    assert code == 1
    assert last_json(capsys)["errors"] == 1
    assert len(out_csv.read_text().splitlines()) == 1 + 149


def test_run_and_bench_exit_1_when_every_frame_is_skipped(tmp_path, capsys):
    tensors = all_nan_stream(tmp_path)
    code, alerts, results = run_outputs(tmp_path, tensors)
    assert code == 1
    assert last_json(capsys) == {"frames": 0, "alerts": 0, "errors": 3}
    assert alerts.read_text() == ""
    assert [json.loads(line) for line in results.read_text().splitlines()] == [
        {"frame": i, "error": f"frame {i}, level 0: non-finite value at cell (gx=0, gy=0), "
                              "channel 4"}
        for i in range(3)
    ]

    code, out_csv = bench_output(tmp_path, tensors)
    assert code == 1
    summary = last_json(capsys)
    assert summary["errors"] == 3
    assert summary["latency"] is None and summary["efficiency"] is None
    assert out_csv.read_text().splitlines() == [",".join(BENCH_CSV_HEADER)]


# --- bench ----------------------------------------------------------------------

def test_bench_reports_hypothetical_efficiency(tmp_path, capsys):
    tensors, _ = simulate(tmp_path, "empty_platform")
    out_csv = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "10.737",
        "--accuracy-pct", "70.791", "--out-csv", str(out_csv),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert list(summary) == [
        "accuracy_pct", "latency", "latency_ms", "power_w", "efficiency", "errors"
    ]
    assert summary["latency_ms"] == summary["latency"]["mean_ms"]
    assert summary["efficiency"] == 70.791 / (summary["latency_ms"] * 10.737)
    assert summary["power_w"] == 10.737
    assert summary["errors"] == 0
    assert len(out_csv.read_text().splitlines()) == 151  # header + 150 frames
    assert out_csv.read_bytes().count(b"\r\n") == out_csv.read_bytes().count(b"\n") == 151


def test_bench_without_accuracy_reports_null_efficiency(tmp_path, capsys):
    tensors, _ = simulate(tmp_path, "empty_platform")
    code = run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "9.1",
        "--out-csv", str(tmp_path / "bench.csv"),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["efficiency"] is None
    assert summary["latency_ms"] > 0.0


def test_bench_keeps_an_existing_csv_when_writing_it_fails_part_way(
    tmp_path, capsys, monkeypatch
):
    tensors, _ = simulate(tmp_path, "empty_platform")
    out_csv = tmp_path / "bench.csv"
    out_csv.write_bytes(b"old,csv\r\n")
    write = cli.write_bench_csv

    def write_ten_rows_then_fail(fh, records):
        write(fh, records[:10])
        fh.flush()
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_bench_csv", write_ten_rows_then_fail)
    code = run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "9.1", "--out-csv", str(out_csv),
    )
    assert code == 1
    assert "No space left on device" in capsys.readouterr().err
    assert out_csv.read_bytes() == b"old,csv\r\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "bench.csv", "empty_platform-gt.json", "empty_platform.yxt"
    ]


# --- no partial outputs: every command that writes ------------------------------

def files_under(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in root.rglob("*") if path.is_file()
    }


@pytest.fixture(scope="module")
def short_stream(tmp_path_factory):
    """The first three frames of the empty platform scene."""
    tmp_path = tmp_path_factory.mktemp("short")
    tensors, _ = simulate(tmp_path, "empty_platform")
    frames = PlaybackBackend(tensors)
    header = frames.header
    frames = [frame for frame, _ in zip(frames, range(3))]
    path = tmp_path / "short.yxt"
    write_tensor_stream(path, dataclasses.replace(header, frame_count=3), frames)
    return path.read_bytes()


RUN = ["run", "--tensors", "in.yxt"]
BENCH = ["bench", "--tensors", "in.yxt"]
SIMULATE = ["simulate", "--scenario", "empty_platform"]
SAME = "name the same file: "
NO_DIRECTORY = "No such file or directory: 'missing/new.out'"
STRIDES = "backend strides (8, 16, 32) do not match config (8, 16, 64)"
DEEP = "[" * 200_000 + "]" * 200_000  # nested past the JSON parser's recursion limit
RECURSION = "maximum recursion depth exceeded"


@pytest.mark.parametrize("argv, code, message", [
    (RUN + ["--config", "bad.json", "--alerts-out", "old.out", "--results-out", "new.out"],
     2, "exactly one RISK zone"),
    (RUN + ["--config", "class20.json", "--alerts-out", "old.out", "--results-out", "new.out"],
     2, "train class id 20 does not fit"),
    (RUN + ["--config", "strides64.json", "--alerts-out", "old.out", "--results-out", "new.out"],
     2, STRIDES),
    (RUN + ["--alerts-out", "old.out", "--results-out", "./old.out"],
     2, "--alerts-out and --results-out name the same file: ./old.out"),
    (RUN + ["--alerts-out", "old.out", "--results-out", "missing/new.out"],
     1, "run: [Errno 2] " + NO_DIRECTORY),
    (RUN + ["--alerts-out", "in.yxt", "--results-out", "new.out"],
     2, "--tensors and --alerts-out " + SAME + "in.yxt"),
    (RUN + ["--config", "good.json", "--alerts-out", "new.out", "--results-out", "./good.json"],
     2, "--config and --results-out " + SAME + "./good.json"),
    (["run", "--tensors", "nowhere.yxt", "--alerts-out", "old.out", "--results-out", "new.out"],
     1, "No such file or directory: 'nowhere.yxt'"),
    (RUN + ["--config", "deep.json", "--alerts-out", "old.out", "--results-out", "new.out"],
     2, "run: malformed pipeline config: " + RECURSION),
    (BENCH + ["--config", "bad.json", "--power-w", "9.1", "--out-csv", "old.out"],
     2, "exactly one RISK zone"),
    (BENCH + ["--config", "class20.json", "--power-w", "9.1", "--out-csv", "new.out"],
     2, "train class id 20 does not fit"),
    (BENCH + ["--config", "strides64.json", "--power-w", "9.1", "--out-csv", "old.out"],
     2, STRIDES),
    (BENCH + ["--power-w", "9.1", "--out-csv", "missing/new.out"], 1, NO_DIRECTORY),
    (BENCH + ["--power-w", "9.1", "--out-csv", "./in.yxt"],
     2, "--tensors and --out-csv " + SAME + "./in.yxt"),
    (BENCH + ["--config", "good.json", "--power-w", "9.1", "--out-csv", "good.json"],
     2, "--config and --out-csv " + SAME + "good.json"),
    (BENCH + ["--power-w", "9.1", "--accuracy-pct", "-5", "--out-csv", "old.out"],
     2, "--accuracy-pct must lie in [0, 100], got -5.0"),
    (BENCH + ["--power-w", "9.1", "--accuracy-pct", "100.5", "--out-csv", "old.out"],
     2, "--accuracy-pct must lie in [0, 100], got 100.5"),
    (BENCH + ["--power-w", "0", "--out-csv", "new.out"], 2, "--power-w must be > 0, got 0.0"),
    (BENCH + ["--power-w", "inf", "--accuracy-pct", "50", "--out-csv", "old.out"],
     2, "--power-w must be > 0, got inf"),
    (BENCH + ["--power-w", "nan", "--out-csv", "old.out"], 2, "--power-w must be > 0, got nan"),
    (BENCH + ["--power-w", "9.1", "--warmup", "3", "--out-csv", "new.out"],
     2, "insufficient samples: warmup 3 consumes the whole stream of 3 frames"),
    (BENCH + ["--power-w", "9.1", "--warmup", "-1", "--out-csv", "new.out"],
     2, "--warmup must be >= 0, got -1"),
    (BENCH + ["--config", "deep.json", "--power-w", "9.1", "--out-csv", "old.out"],
     2, "bench: malformed pipeline config: " + RECURSION),
    (["simulate", "--scenario", "ghost_train", "--out-tensors", "new.yxt", "--out-gt", "new.out"],
     2, "unknown scenario 'ghost_train' (available: "),
    (["simulate", "--spec-file", "bad.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     2, "simulate: malformed scenario description: unknown key 'zones' in scenario"),
    (["simulate", "--spec-file", "deep.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     2, "simulate: malformed scenario description: " + RECURSION),
    (["simulate", "--spec-file", "nowhere.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     1, "simulate: [Errno 2] No such file or directory: 'nowhere.json'"),
    (["simulate", "--spec-file", "long.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     2, "simulate: 10000000 frames at 320x320 need 1092000000000 bytes of tensors, more than "
        "MAX_SCENARIO_BYTES (1073741824)"),
    (["simulate", "--spec-file", "leave.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     2, "simulate: actor 0 leaves the image at frame 2: box (321.0, 80.0, 339.0, 120.0)"),
    (["simulate", "--spec-file", "nan.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     2, "simulate: actor 0 leaves the image at frame 0: box (nan, 80.0, nan, 120.0)"),
    (["simulate", "--spec-file", "cell.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     2, "simulate: frame 0: two objects map to stride-8 cell (gx=13, gy=15)"),
    (["simulate", "--spec-file", "class9.json", "--out-tensors", "new.yxt", "--out-gt", "old.out"],
     2, "simulate: object class 9 does not fit in 8 classes"),
    (SIMULATE + ["--out-tensors", "s.yxt", "--out-gt", "./s.yxt"],
     2, "--out-tensors and --out-gt " + SAME + "./s.yxt"),
    (SIMULATE + ["--config", "good.json", "--out-tensors", "good.json", "--out-gt", "new.out"],
     2, "--config and --out-tensors " + SAME + "good.json"),
    (["simulate", "--spec-file", "spec.json", "--out-tensors", "new.yxt", "--out-gt", "spec.json"],
     2, "--spec-file and --out-gt " + SAME + "spec.json"),
    (SIMULATE + ["--config", "bad.json", "--out-tensors", "old.out", "--out-gt", "new.out"],
     2, "exactly one RISK zone"),
    (SIMULATE + ["--out-tensors", "old.out", "--out-gt", "missing/new.out"], 1, NO_DIRECTORY),
    (["default-config", "--out", "missing/new.out"], 1, NO_DIRECTORY),
], ids=["run-bad_config", "run-class_id_20", "run-other_strides", "run-equal_paths",
        "run-missing_directory", "run-output_is_the_stream", "run-output_is_the_config",
        "run-missing_stream", "run-deep_config",
        "bench-bad_config", "bench-class_id_20", "bench-other_strides",
        "bench-missing_directory", "bench-output_is_the_stream", "bench-output_is_the_config",
        "bench-negative_accuracy", "bench-accuracy_over_100", "bench-zero_power",
        "bench-infinite_power", "bench-nan_power", "bench-warmup_of_every_frame",
        "bench-negative_warmup", "bench-deep_config",
        "simulate-no_scene", "simulate-bad_spec", "simulate-deep_spec", "simulate-missing_spec",
        "simulate-too_long", "simulate-actor_leaves_image", "simulate-nan_centre",
        "simulate-shared_cell", "simulate-class_id_9",
        "simulate-equal_paths", "simulate-output_is_the_config", "simulate-output_is_the_spec",
        "simulate-bad_config", "simulate-missing_directory",
        "default_config-missing_directory"])
def test_a_failed_command_creates_no_file_and_keeps_existing_outputs(
    tmp_path, capsys, monkeypatch, short_stream, argv, code, message
):
    from stationwatch import Actor, ScenarioSpec, Waypoint

    (tmp_path / "in.yxt").write_bytes(short_stream)
    (tmp_path / "old.out").write_bytes(b"old output\r\n")
    (tmp_path / "bad.json").write_text(
        json.dumps({"zones": [], "camera": {"height_m": 3.0, "z0_m": 12.0}})
    )
    save_config(default_config(), tmp_path / "good.json")
    class20 = json.loads((tmp_path / "good.json").read_text())
    class20["decode"]["train_class_id"] = 20
    (tmp_path / "class20.json").write_text(json.dumps(class20))
    strides64 = json.loads((tmp_path / "good.json").read_text())
    strides64["decode"]["strides"] = [8, 16, 64]
    (tmp_path / "strides64.json").write_text(json.dumps(strides64))
    spec = ScenarioSpec(3, 320, 320, (Actor(0, (Waypoint(0, 160.0, 160.0, 18.0, 40.0),)),))
    (tmp_path / "spec.json").write_text(json.dumps(scenario_to_json(spec)))
    long = dict(scenario_to_json(spec), duration_frames=10**7)  # 1 TB of tensors
    (tmp_path / "long.json").write_text(json.dumps(long))
    person = (18.0, 40.0)
    for name, actors in {
        "leave": [Actor(0, (Waypoint(0, 290.0, 100.0, *person),
                            Waypoint(2, 330.0, 100.0, *person)))],
        "nan": [Actor(0, (Waypoint(0, math.nan, 100.0, *person),))],
        "cell": [Actor(0, (Waypoint(0, 109.0, 120.0, *person),)),
                 Actor(0, (Waypoint(0, 110.0, 121.0, *person),))],
        "class9": [Actor(9, (Waypoint(0, 160.0, 160.0, *person),))],
    }.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(scenario_to_json(
            ScenarioSpec(3, 320, 320, tuple(actors)))))
    (tmp_path / "deep.json").write_text(DEEP)
    monkeypatch.chdir(tmp_path)

    def no_frame(*args):
        pytest.fail("a frame was processed")

    monkeypatch.setattr("stationwatch.pipeline.process_frame", no_frame)
    before = files_under(tmp_path)
    assert run_cli(*argv) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert message in line
    assert files_under(tmp_path) == before


# --- evaluate --------------------------------------------------------------------

def run_and_evaluate(tmp_path, capsys):
    tensors, gt = simulate(tmp_path)
    results = tmp_path / "results.jsonl"
    assert run_cli(
        "run", "--tensors", str(tensors),
        "--alerts-out", str(tmp_path / "alerts.jsonl"), "--results-out", str(results),
    ) == 0
    capsys.readouterr()  # drop the run summary
    return results, gt


def test_evaluate_scores_a_faithful_run_perfectly(tmp_path, capsys):
    results, gt = run_and_evaluate(tmp_path, capsys)
    code = run_cli("evaluate", "--pred", str(results), "--gt", str(gt), "--class-id", "0")
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["accuracy"] == 1.0
    assert record["fp"] == 0 and record["fn"] == 0


def test_evaluate_misaligned_streams_exit_1(tmp_path, capsys):
    results, gt = run_and_evaluate(tmp_path, capsys)
    lines = results.read_text().splitlines()
    truncated = tmp_path / "short.jsonl"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    code = run_cli("evaluate", "--pred", str(truncated), "--gt", str(gt))
    assert code == 1
    assert "149" in capsys.readouterr().err


def test_evaluate_scores_a_skipped_frame_as_detecting_nothing(tmp_path, capsys):
    tensors, gt = simulate(tmp_path)
    frames = list(PlaybackBackend(tensors))
    frames[40].outputs[0][0, 0, 4] = np.nan  # frame 40 holds one of the 81 person boxes
    write_tensor_stream(tensors, read_header(tensors), frames)
    code, _, results = run_outputs(tmp_path, tensors)
    assert code == 1
    lines = [json.loads(line) for line in results.read_text().splitlines()]
    assert len(lines) == 150 and lines[40]["frame"] == 40 and "error" in lines[40]
    capsys.readouterr()
    assert run_cli("evaluate", "--pred", str(results), "--gt", str(gt)) == 0
    record = last_json(capsys)
    assert (record["tp"], record["fp"], record["fn"]) == (80, 0, 1)


def test_evaluate_an_empty_prediction_stream_scores_zero(tmp_path, capsys):
    _, gt = simulate(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = run_cli("evaluate", "--pred", str(empty), "--gt", str(gt), "--class-id", "0")
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["accuracy"] == 0.0
    assert record["fn"] > 0


GOOD_PREDICTION = {
    "frame": 0, "detections": [{"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": 0}],
}


@pytest.mark.parametrize("line, reason", [
    ('{"frame": 1, "detections": [{"box": [1.0, 2.0], "score": 0.9, "class": 0}]}',
     "missing 2 required positional arguments"),
    ('{"frame": 1, "detections": [{"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9}]}',
     "missing key 'class'"),
    ('{"frame": 1, "detections": [{"box": [5.0, 2.0, 1.0, 4.0], "score": 0.9, "class": 0}]}',
     "box corners out of order"),
    ('{"frame": 1, "detections": [', "Expecting value"),
    ('{"frame": 1.5, "detections": []}', "frame must be a whole number"),
    ('{"frame": "1", "detections": []}', "frame must be a whole number"),
    (DEEP, RECURSION),
    ("[1, 2]", "a record must be an object, got list"),
    ('"frames"', "a record must be an object, got str"),
    ("7", "a record must be an object, got int"),
], ids=["two_coordinates", "no_class", "corners_out_of_order", "not_json",
        "frame_fractional", "frame_not_a_number", "deep", "list", "string", "number"])
def test_evaluate_reports_a_malformed_prediction_record_in_one_line(
    tmp_path, capsys, line, reason
):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps(GOOD_PREDICTION) + "\n\n" + line + "\n")
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({"frames": [{"frame": i, "objects": []} for i in range(2)]}))
    assert run_cli("evaluate", "--pred", str(pred), "--gt", str(gt)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (message,) = captured.err.splitlines()
    assert message.startswith("evaluate: malformed prediction record at line 3: ")
    assert reason in message


def write_two_empty_frames(gt):
    gt.write_text(json.dumps({"frames": [{"frame": i, "objects": []} for i in range(2)]}))


@pytest.mark.parametrize("field", [
    '"box": ["a", 2.0, 3.0, 4.0], "score": 0.9, "class": 0',
    '"box": [NaN, 2.0, 3.0, 4.0], "score": 0.9, "class": 0',
    '"box": [1.0, 2.0, Infinity, 4.0], "score": 0.9, "class": 0',
    '"box": [1.0, 4.0, 3.0, 2.0], "score": 0.9, "class": 0',
    '"box": [1.0, 2.0, 3.0, 1' + "0" * 400 + '], "score": 0.9, "class": 0',
    '"box": [true, 10.0, 30.0, 50.0], "score": 0.9, "class": 0',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": "0.9", "class": 0',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": true, "class": 0',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": NaN, "class": 0',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 1.5, "class": 0',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": -0.1, "class": 0',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": -1',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": 0.7',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": "0"',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": true',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": NaN',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": Infinity',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": 1e300',
    '"box": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "class": 9223372036854775808',
], ids=[
    "corner_not_a_number", "corner_nan", "corner_infinite", "corners_out_of_order",
    "corner_past_float", "corner_true",
    "score_not_a_number", "score_true", "score_nan", "score_above_one", "score_below_zero",
    "class_negative", "class_fractional", "class_not_a_number", "class_true", "class_nan",
    "class_infinite", "class_huge_float", "class_past_int64",
])
def test_evaluate_rejects_a_bad_prediction_field(tmp_path, capsys, field):
    pred = tmp_path / "pred.jsonl"
    bad = '{"frame": 1, "detections": [{' + field + '}]}'
    pred.write_text(json.dumps(GOOD_PREDICTION) + "\n\n" + bad + "\n")
    gt = tmp_path / "gt.json"
    write_two_empty_frames(gt)
    assert run_cli("evaluate", "--pred", str(pred), "--gt", str(gt)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (message,) = captured.err.splitlines()
    assert message.startswith("evaluate: malformed prediction record at line 3: ")


def test_evaluate_reports_a_prediction_file_that_is_not_utf8_as_a_malformed_record(
    tmp_path, capsys
):
    pred = tmp_path / "pred.jsonl"
    good = json.dumps(GOOD_PREDICTION).encode()
    gt = tmp_path / "gt.json"
    write_two_empty_frames(gt)
    for content, number in ((b"\xff\xfe" + good + b"\n", 1), (good + b"\n\xff\n", 2)):
        pred.write_bytes(content)
        assert run_cli("evaluate", "--pred", str(pred), "--gt", str(gt)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (message,) = captured.err.splitlines()
        assert message.startswith(f"evaluate: malformed prediction record at line {number}: ")
        assert "can't decode byte 0xff" in message


def evaluate_without_predictions(tmp_path, *option: str) -> int:
    gt = tmp_path / "gt.json"
    write_two_empty_frames(gt)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    return run_cli("evaluate", "--pred", str(empty), "--gt", str(gt), *option)


def test_evaluate_rejects_a_bad_iou_threshold_even_without_predictions(tmp_path, capsys):
    assert evaluate_without_predictions(tmp_path, "--iou", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "iou_threshold must lie in (0, 1], got 5.0" in captured.err


def test_evaluate_rejects_a_negative_class_id_even_without_predictions(tmp_path, capsys):
    assert evaluate_without_predictions(tmp_path, "--class-id", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "class_id must be a whole number >= 0, got -1" in captured.err


@pytest.mark.parametrize("content, reason", [
    (b"{\"frames\": [", "Expecting value"),
    (b"\xff\xfe{}", "can't decode byte 0xff"),
    (b"{}", "'frames'"),
    (b'{"frames": [{"frame": 0, "objects": [{"class": 0, "box": [1.0, 2.0, 3.0, 1'
     + b"0" * 400 + b"]}]}]}", "too large to convert to float"),
    (b'{"frames": [{"frame": 0.5, "objects": []}]}', "frame must be a whole number"),
    (b'{"frames": [{"frame": "0", "objects": []}]}', "frame must be a whole number"),
    (b'{"frames": [{"frame": 0, "objects": [{"class": 0.7, "box": [1.0, 2.0, 3.0, 4.0]}]}]}',
     "class must be a whole number"),
    (b'{"frames": [{"frame": 0, "objects": [{"class": 0, "box": [true, 2.0, 3.0, 4.0]}]}]}',
     "box corner must be a number"),
    (b'{"frames": [{"frame": 0, "objects": [{"class": 0, "box": [1.0, 2.0, 3.0, 4.0], '
     b'"actor": "7"}]}]}', "actor must be a whole number"),
    (b'{"frames": [{"frame": 0, "objects": [{"class": 0, "box": [1.0, 2.0, 3.0, 4.0], '
     b'"actor": 1.5}]}]}', "actor must be a whole number"),
    (DEEP.encode(), RECURSION),
], ids=["not_json", "not_utf8", "no_frames", "corner_past_float", "frame_fractional",
        "frame_not_a_number", "class_fractional", "corner_true", "actor_not_a_number",
        "actor_fractional", "deep"])
def test_evaluate_reports_a_malformed_ground_truth_file_in_one_line(
    tmp_path, capsys, content, reason
):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps(GOOD_PREDICTION) + "\n")
    gt = tmp_path / "gt.json"
    gt.write_bytes(content)
    assert run_cli("evaluate", "--pred", str(pred), "--gt", str(gt)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (message,) = captured.err.splitlines()
    assert message.startswith("evaluate: malformed ground truth: ")
    assert reason in message


# --- default-config and verify -----------------------------------------------------

def test_default_config_output_loads_back(tmp_path, capsys):
    out = tmp_path / "config.json"
    assert run_cli("default-config", "--out", str(out)) == 0
    config = load_config(out)
    assert [z.kind for z in config.zones] == [ZoneKind.RISK, ZoneKind.DANGER, ZoneKind.MONITOR]

    # stdout holds the bytes --out writes, the keys in a fixed order.
    assert run_cli("default-config") == 0
    text = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == text
    printed = json.loads(text)
    assert list(printed) == ["decode", "zones", "camera", "fsm"]
    assert len(printed["zones"]) == 3
    assert list(printed["decode"]) == [
        "strides", "conf_threshold", "nms_iou_threshold", "person_class_id", "train_class_id"
    ]
    assert list(printed["camera"]) == ["height_m", "z0_m"]
    assert list(printed["fsm"]) == ["stationary_eps_px", "confirm_frames"]


def stub_check(passed: bool):
    def check():
        if not passed:
            raise CheckFailed("stubbed")
        return "stubbed"
    return check


@pytest.mark.parametrize("failing, code, tally", [(None, 0, "9/9"), (4, 3, "8/9")],
                         ids=["all_pass", "one_fails"])
def test_verify_prints_every_check_and_exits_by_the_tally(
    monkeypatch, capsys, failing, code, tally
):
    checks = tuple((f"stub-{c}", stub_check(c != failing)) for c in range(1, 10))
    monkeypatch.setattr(acceptance, "ALL_CHECKS", checks)
    assert run_cli("verify") == code
    assert capsys.readouterr().out.splitlines() == [
        f"{'FAIL' if c == failing else 'PASS'}  criterion {c}  stub-{c}: stubbed"
        for c in range(1, 10)
    ] + [f"{tally} acceptance checks passed"]
