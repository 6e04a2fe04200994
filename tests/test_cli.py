from __future__ import annotations

import json

import pytest

import numpy as np

from stationwatch import ZoneKind, default_config, load_config, save_config
from stationwatch.cli import main
from stationwatch.scenario import scenario_to_json
from stationwatch.tensor_stream import read_header, read_tensor_stream, write_tensor_stream


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


def test_simulate_unknown_scenario_exits_2_with_no_files(tmp_path, capsys):
    tensors = tmp_path / "out.yxt"
    gt = tmp_path / "gt.json"
    code = run_cli(
        "simulate", "--scenario", "ghost_train",
        "--out-tensors", str(tensors), "--out-gt", str(gt),
    )
    assert code == 2
    assert not tensors.exists()
    assert not gt.exists()
    assert "available" in capsys.readouterr().err


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


def test_simulate_malformed_spec_file_exits_2(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{}")
    code = run_cli(
        "simulate", "--spec-file", str(spec_path),
        "--out-tensors", str(tmp_path / "a.yxt"), "--out-gt", str(tmp_path / "a.json"),
    )
    assert code == 2
    assert not (tmp_path / "a.yxt").exists()


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


def test_run_with_an_invalid_config_exits_2_before_writing(tmp_path, capsys):
    tensors, _ = simulate(tmp_path, "empty_platform")
    bad_config = {
        "zones": [
            {"name": "edge", "kind": "DANGER",
             "polygon": [[0.0, 100.0], [320.0, 100.0], [320.0, 130.0], [0.0, 130.0]]},
        ],
        "camera": {"height_m": 3.0, "z0_m": 12.0},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(bad_config))
    alerts = tmp_path / "alerts.jsonl"
    results = tmp_path / "results.jsonl"
    code = run_cli(
        "run", "--tensors", str(tensors), "--config", str(config_path),
        "--alerts-out", str(alerts), "--results-out", str(results),
    )
    assert code == 2
    assert "RISK" in capsys.readouterr().err
    assert not alerts.exists()
    assert not results.exists()


def test_run_with_a_missing_stream_exits_1(tmp_path):
    code = run_cli(
        "run", "--tensors", str(tmp_path / "nowhere.yxt"),
        "--alerts-out", str(tmp_path / "a.jsonl"), "--results-out", str(tmp_path / "r.jsonl"),
    )
    assert code == 1


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


# --- bad inputs: run and bench agree -------------------------------------------

def nan_stream(tmp_path):
    """The 150-frame empty platform scene with one NaN cell in frame 7."""
    tensors, _ = simulate(tmp_path, "empty_platform")
    header, frames = read_tensor_stream(tensors)
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


def test_run_and_bench_exit_2_without_outputs_when_a_class_id_does_not_fit(
    tmp_path, capsys
):
    tensors, _ = simulate(tmp_path, "empty_platform")
    config = default_config()
    config_path = tmp_path / "config.json"
    save_config(config, config_path)
    data = json.loads(config_path.read_text())
    data["decode"]["train_class_id"] = 20
    config_path.write_text(json.dumps(data))

    code, alerts, results = run_outputs(tmp_path, tensors, "--config", str(config_path))
    assert code == 2
    assert not alerts.exists()
    assert not results.exists()
    code, out_csv = bench_output(tmp_path, tensors, "--config", str(config_path))
    assert code == 2
    assert not out_csv.exists()
    assert capsys.readouterr().err.count("train class id 20") == 2


# --- bench ----------------------------------------------------------------------

def test_bench_reports_hypothetical_efficiency(tmp_path, capsys):
    tensors, _ = simulate(tmp_path, "empty_platform")
    out_csv = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "10.737",
        "--accuracy-pct", "70.791", "--latency-ms", "20.878",
        "--out-csv", str(out_csv),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["efficiency"] == pytest.approx(0.316, abs=0.001)
    assert summary["power_w"] == 10.737
    assert summary["errors"] == 0
    assert len(out_csv.read_text().splitlines()) == 151  # header + 150 frames


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


def test_bench_rejects_bad_power_and_warmup_without_writing(tmp_path, capsys):
    tensors, _ = simulate(tmp_path, "empty_platform")
    out_csv = tmp_path / "bench.csv"
    assert run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "0",
        "--out-csv", str(out_csv),
    ) == 2
    assert run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "9.1",
        "--warmup", "150", "--out-csv", str(out_csv),
    ) == 2
    assert run_cli(
        "bench", "--tensors", str(tensors), "--power-w", "9.1",
        "--warmup", "-1", "--out-csv", str(out_csv),
    ) == 2
    assert not out_csv.exists()
    assert "insufficient samples" in capsys.readouterr().err


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


def test_evaluate_an_empty_prediction_stream_scores_zero(tmp_path, capsys):
    _, gt = simulate(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = run_cli("evaluate", "--pred", str(empty), "--gt", str(gt), "--class-id", "0")
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["accuracy"] == 0.0
    assert record["fn"] > 0


# --- default-config and verify -----------------------------------------------------

def test_default_config_output_loads_back(tmp_path, capsys):
    out = tmp_path / "config.json"
    assert run_cli("default-config", "--out", str(out)) == 0
    config = load_config(out)
    assert [z.kind for z in config.zones] == [ZoneKind.RISK, ZoneKind.DANGER, ZoneKind.MONITOR]

    assert run_cli("default-config") == 0
    printed = json.loads(capsys.readouterr().out)
    assert len(printed["zones"]) == 3


def test_verify_runs_all_acceptance_checks(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)
    assert "9/9 acceptance checks passed" in out
