"""Output correctness and workload self-checks.

The canonical output of a run is its alert and result records of the first
pass over the stream, in emission order (which is frame order), with the
wall-clock `latency_ms` field removed. Its SHA-256 is compared with the
digest recorded for the workload's recorded seed in `expected.json`; on
any other seed the run is still scored against ground truth.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from stationwatch import GroundTruthFrame, evaluate_run
from stationwatch.postprocess import detections_from_record

EXPECTED_PATH = Path(__file__).with_name("expected.json")

SEVERITIES = ("CRITICAL", "WARNING", "CAUTION")


def canonical_digest(records: Iterable[dict]) -> str:
    """SHA-256 over the records in order, `latency_ms` removed, keys sorted."""
    digest = hashlib.sha256()
    for record in records:
        stripped = {k: v for k, v in record.items() if k != "latency_ms"}
        digest.update(json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class OutputSummary:
    """What the first pass of a run produced, read back from its records."""

    digest: str
    person_accuracy: float
    kept: int                      # detections in the result records
    alerts_by_severity: dict[str, int]
    error_records: int
    evaluate_s: float              # time in evaluate_run


def summarize_outputs(
    alerts_and_results: Sequence[tuple[str, dict]],
    ground_truth: Sequence[GroundTruthFrame],
) -> OutputSummary:
    """Digest, person accuracy (IoU 0.5, class 0) and counts of one pass."""
    digest = canonical_digest(record for _, record in alerts_and_results)
    predictions = []
    kept = errors = 0
    severities = {s: 0 for s in SEVERITIES}
    for kind, record in alerts_and_results:
        if kind == "alert":
            severities[record["severity"]] += 1
        elif "error" in record:
            errors += 1
        else:
            predictions.append(detections_from_record(record))
            kept += len(record["detections"])
    t0 = time.perf_counter()
    accuracy = evaluate_run(predictions, ground_truth, iou_threshold=0.5, class_id=0).accuracy
    evaluate_s = time.perf_counter() - t0
    return OutputSummary(digest, accuracy, kept, severities, errors, evaluate_s)


def output_checks(
    workload: str, seed: int, outputs: OutputSummary, live_cells: int, expected: dict
) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every check on a run's outputs.

    The keep-ratio and severity checks hold the workload to what it was
    chosen to stress; they depend only on the inputs and on what the
    monitor detects, never on how fast it ran.
    """
    spec = expected[workload]
    checks = []
    if seed == spec["seed"]:
        checks.append(("digest", outputs.digest == spec["sha256"],
                       f"{outputs.digest} (recorded {spec['sha256']})"))
    else:
        checks.append(("digest", True, f"{outputs.digest} (no digest recorded for seed {seed})"))
    floor = spec["min_person_accuracy"]
    checks.append(("person_accuracy", outputs.person_accuracy >= floor,
                   f"{outputs.person_accuracy:.6f} >= {floor}"))
    checks.append(("error_records", outputs.error_records == 0,
                   f"{outputs.error_records} error records in the first pass"))
    keep = outputs.kept / live_cells
    if workload == "dense":
        checks.append(("keep_ratio", keep <= 0.3,
                       f"{keep:.4f} <= 0.3 (kept {outputs.kept} / live cells {live_cells})"))
    if workload == "crowd":
        checks.append(("keep_ratio", keep >= 0.8,
                       f"{keep:.4f} >= 0.8 (kept {outputs.kept} / live cells {live_cells})"))
        missing = [s for s in SEVERITIES if outputs.alerts_by_severity[s] == 0]
        checks.append(("severities", not missing,
                       f"alerts by severity {outputs.alerts_by_severity}"))
    if workload == "scenes":
        critical = outputs.alerts_by_severity["CRITICAL"]
        checks.append(("critical_alerts", critical > 0, f"{critical} CRITICAL alerts"))
    return checks


def share_checks(workload: str, shares: dict[str, float]) -> list[tuple[str, bool, str]]:
    """Where each workload's frame time should go, from a traced run.

    These describe the cost profile of the code being measured, so a PR
    that removes a bottleneck is expected to break them; they are reported
    as warnings to re-choose the workload, not as wrong output.
    """
    largest = max(shares, key=shares.get)
    detail = f"largest span {largest} ({shares[largest]:.3f} of frame time)"
    if workload == "scenes":
        nms = shares.get("postprocess.nms", 0.0)
        return [
            ("decode_largest", largest == "postprocess.decode", detail),
            ("nms_minor", nms < 0.05, f"nms share {nms:.4f} < 0.05"),
        ]
    return [("nms_largest", largest == "postprocess.nms", detail)]
