"""Workload rendering: seeded, collision-free, and as dense as promised."""

import hashlib

import pytest

import workloads
from stationwatch import decode_all, nms, write_tensor_stream


def _stream_sha(tmp_path, name, seed):
    workload = workloads.render(name, seed)
    path = tmp_path / f"{name}-{seed}.yxt"
    write_tensor_stream(path, workload.header, workload.frames)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


@pytest.mark.parametrize("name", ["dense", "crowd"])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    first = _stream_sha(tmp_path, name, 3)
    assert _stream_sha(tmp_path, name, 3) == first
    assert _stream_sha(tmp_path, name, 4) != first


def test_scenes_seed_picks_the_scene_order(tmp_path):
    first = _stream_sha(tmp_path, "scenes", 0)
    assert _stream_sha(tmp_path, "scenes", 0) == first
    assert any(_stream_sha(tmp_path, "scenes", seed) != first for seed in range(1, 6))


def test_dense_candidates_land_within_ten_percent_of_target():
    workload = workloads.render("dense", 11)
    decode = workloads.config_for("dense").decode
    target = 500
    for frame in workload.frames[:8]:
        candidates = decode_all(frame, decode)
        assert abs(len(candidates) - target) <= 0.1 * target
        kept = nms(candidates, decode.nms_iou_threshold)
        assert len(kept) / len(candidates) <= 0.3
    assert abs(workload.live_cells / len(workload.frames) - target) <= 0.1 * target


@pytest.mark.parametrize("seed", range(5))
def test_crowd_encodes_without_collision(seed):
    # encode_scenario raises EncodingCollisionError on any shared cell.
    workload = workloads.render("crowd", seed)
    persons = [sum(o.class_id == workloads.PERSON for o in gt.objects)
               for gt in workload.ground_truth]
    assert min(persons) == max(persons) == 150
    decode = workloads.config_for("crowd").decode
    frame = workload.frames[seed * 7]
    candidates = decode_all(frame, decode)
    assert len(nms(candidates, decode.nms_iou_threshold)) / len(candidates) >= 0.8


def test_crowd_ground_points_put_about_fifteen_percent_on_the_yellow_strip():
    spec = workloads.crowd_spec(0)
    yellow = next(z for z in workloads.config_for("crowd").danger_zones)
    low, high = yellow.polygon[0][1], yellow.polygon[2][1]
    feet = [a.waypoints[0].cy + a.waypoints[0].h / 2 for a in spec.actors if a.class_id == 0]
    share = sum(low <= y <= high for y in feet) / len(feet)
    assert 0.1 <= share <= 0.2
