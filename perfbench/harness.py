"""Closed-loop replay of one stream through `run_pipeline`, with optional tracing.

One process, one thread, one stream: frame n+1 is read only after frame
n's records are emitted, as one camera feeds one monitor. A frame's
latency runs from the start of the replay backend's `next_frame()` call to
the end of that frame's result-sink call, its last emission.

Tracing wraps, from outside the package, the names `stationwatch.pipeline`
calls at run time and `TrainStateMachine.observe_and_step`. Each frame is
a root span; every other span records its name, frame, start, end and an
in/out count. Self time is a span's duration minus its children's; the
children of a frame never nest, so the pipeline's own time (class
filtering, alert construction, `to_record`) is the frame span minus the
sum of its child spans.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stationwatch import (
    InferenceBackend,
    PipelineConfig,
    RunSummary,
    TrainStateMachine,
    run_pipeline,
)
from stationwatch import pipeline as pipeline_module
from stationwatch.bench import percentile_nearest_rank

clock = time.perf_counter

# Layer name -> spans that make it up.
LAYERS = {
    "tensor_stream.read": ("tensor_stream.read",),
    "postprocess.decode": ("postprocess.decode",),
    "postprocess.nms": ("postprocess.nms",),
    "train_fsm.step": ("train_fsm.step",),
    "geometry.zone": ("geometry.ground_point", "geometry.point_in_zone"),
    "pipeline.sink": (
        "pipeline.sink.alert", "pipeline.sink.result", "pipeline.sink.error", "pipeline.sink.log",
    ),
}


def _len_in_out(args, result):
    return len(args[0]), len(result)


def _cells_in(args, result):
    frame = args[0]
    return sum(o.shape[0] * o.shape[1] for o in frame.outputs), len(result)


def _point_test(args, result):
    return 1, int(bool(result))


def _one(args, result):
    return 1, 1


def _fsm_step(args, result):
    # args[0] is the machine itself: the wrapper replaces a method.
    before, after, _ = result
    return len(args[1]), f"{before.value}>{after.value}"


# (owner, attribute, span name, counts). The pipeline's names are wrapped
# in `stationwatch.pipeline` itself, where the frame loop looks them up at
# run time, so the train FSM's own geometry calls stay inside its span.
ENTRY_POINTS = (
    (pipeline_module, "decode_all", "postprocess.decode", _cells_in),
    (pipeline_module, "nms", "postprocess.nms", _len_in_out),
    (pipeline_module, "ground_point", "geometry.ground_point", _one),
    (pipeline_module, "point_in_zone", "geometry.point_in_zone", _point_test),
    (TrainStateMachine, "observe_and_step", "train_fsm.step", _fsm_step),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, frame, start, end, n_in, n_out)
        self.frame = -1
        self.frame_start: list[float] = []
        self.frame_end: list[float] = []
        self.missing: dict[str, str] = {}  # span name -> why it was not wrapped
        self._restore: list[tuple] = []

    def install(self) -> None:
        for owner, attr, span, counts in ENTRY_POINTS:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing[span] = f"{owner.__name__}.{attr} not found"
                continue
            setattr(owner, attr, self._wrap(original, span, counts))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, original: Callable, span: str, counts: Callable) -> Callable:
        spans = self.spans

        def traced(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            end = clock()
            n_in, n_out = counts(args, result)
            spans.append((span, self.frame, start, end, n_in, n_out))
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,frame,start_s,end_s,n_in,n_out\n")
            for index, (start, end) in enumerate(zip(self.frame_start, self.frame_end)):
                fh.write(f"frame,{index},{start!r},{end!r},,\n")
            for name, frame, start, end, n_in, n_out in self.spans:
                fh.write(f"{name},{frame},{start!r},{end!r},{n_in},{n_out}\n")


class Recorder:
    """The run's sinks: every record is `json.dumps`ed into memory.

    Only the first pass over the stream is kept, for the correctness
    checks; later passes are serialized and dropped, so memory does not
    grow with the number of frames a faster monitor gets through.
    """

    def __init__(self, first_pass: int, tracer: Tracer | None = None):
        self.first_pass = first_pass
        self.tracer = tracer
        self.kept: list[tuple[str, str]] = []
        self.ends: list[float] = []

    def _emit(self, kind: str, record: dict) -> float:
        start = clock()
        text = json.dumps(record)
        if kind != "log" and record.get("frame", self.first_pass) < self.first_pass:
            self.kept.append((kind, text))
        end = clock()
        if self.tracer is not None:
            span = "pipeline.sink.error" if "error" in record else f"pipeline.sink.{kind}"
            self.tracer.spans.append((span, self.tracer.frame, start, end, 1, len(text)))
        return end

    def alert(self, record: dict) -> None:
        self._emit("alert", record)

    def log(self, record: dict) -> None:
        self._emit("log", record)

    def result(self, record: dict) -> None:
        end = self._emit("result", record)
        self.ends.append(end)
        if self.tracer is not None:
            self.tracer.frame_end.append(end)


class ReplayBackend(InferenceBackend):
    """Delegates to a real backend and ends the stream on a deadline.

    The stream ends at the first `next_frame()` call made once `seconds`
    have passed since `start()` and at least `min_frames` were served.
    """

    def __init__(self, inner: InferenceBackend, seconds: float, min_frames: int,
                 tracer: Tracer | None = None):
        self.inner = inner
        self.descriptor = inner.descriptor
        self.seconds = seconds
        self.min_frames = min_frames
        self.tracer = tracer
        self.starts: list[float] = []
        self.deadline = float("inf")

    @property
    def header(self):
        return self.inner.header

    def start(self) -> float:
        now = clock()
        self.deadline = now + self.seconds
        return now

    def next_frame(self):
        start = clock()
        if len(self.starts) >= self.min_frames and start >= self.deadline:
            return None
        frame = self.inner.next_frame()
        if frame is None:
            return None
        self.starts.append(start)
        if self.tracer is not None:
            end = clock()
            # Frames are numbered across every replay that shares the tracer.
            self.tracer.frame = len(self.tracer.frame_start)
            self.tracer.frame_start.append(start)
            nbytes = sum(o.nbytes for o in frame.outputs)
            self.tracer.spans.append(
                ("tensor_stream.read", self.tracer.frame, start, end, 1, nbytes)
            )
        return frame


@dataclass
class ReplayResult:
    summary: RunSummary
    wall_s: float
    frame_ms: list[float]
    kept: list[tuple[str, str]]

    @property
    def attempted(self) -> int:
        return self.summary.frames_processed + self.summary.error_count

    @property
    def frames_per_s(self) -> float:
        return self.summary.frames_processed / self.wall_s


def replay(inner: InferenceBackend, config: PipelineConfig, seconds: float, min_frames: int,
           first_pass: int, tracer: Tracer | None = None) -> ReplayResult:
    """Run `run_pipeline` over `inner` for `seconds` (and >= `min_frames`)."""
    recorder = Recorder(first_pass, tracer)
    backend = ReplayBackend(inner, seconds, min_frames, tracer)
    if tracer is not None:
        tracer.install()
    try:
        t0 = backend.start()
        summary = run_pipeline(
            backend, config, alert_sink=recorder.alert, log_sink=recorder.log,
            result_sink=recorder.result,
        )
        wall = clock() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    frame_ms = [(end - start) * 1000.0 for start, end in zip(backend.starts, recorder.ends)]
    return ReplayResult(summary, wall, frame_ms, recorder.kept)


def percentiles(prefix: str, samples: list[float]) -> dict[str, float]:
    return {
        f"{prefix}.p50": percentile_nearest_rank(samples, 50),
        f"{prefix}.p95": percentile_nearest_rank(samples, 95),
    }


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float], dict[str, str]]:
    """Per-layer metrics, time shares of the frame, and layers not measured.

    Timings are per frame in ms (p50/p95 over frames; for geometry, over
    frames with a person to test); counts are totals over the run; `tensor_stream.bytes_per_frame` is computed from the
    frame's tensor sizes, not from bytes read. A layer whose entry point is
    missing, or that was wrapped but never called, is named in the
    returned dict and left out of the metrics instead of being reported as
    zero.
    """
    frames = len(tracer.frame_end)
    span_layer = {span: layer for layer, spans in LAYERS.items() for span in spans}
    per_frame = {layer: [0.0] * frames for layer in LAYERS}
    seen = {layer: 0 for layer in LAYERS}
    totals: dict[str, float] = {}
    states = {"OFF": 0, "IN": 0, "ON": 0, "OUT": 0}
    transitions = 0
    for name, frame, start, end, n_in, n_out in tracer.spans:
        layer = span_layer[name]
        per_frame[layer][frame] += (end - start) * 1000.0
        seen[layer] += 1
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        if name == "train_fsm.step":
            before, after = n_out.split(">")
            states[after] += 1
            transitions += before != after
            n_out = 0
        totals[f"{name}.in"] = totals.get(f"{name}.in", 0) + n_in
        totals[f"{name}.out"] = totals.get(f"{name}.out", 0) + n_out

    frame_ms = [(end - start) * 1000.0 for start, end in zip(tracer.frame_start, tracer.frame_end)]
    self_ms = [
        total - sum(per_frame[layer][i] for layer in LAYERS)
        for i, total in enumerate(frame_ms)
    ]
    missing = {}
    for layer, spans in LAYERS.items():
        absent = [f"{span}: {tracer.missing[span]}" for span in spans if span in tracer.missing]
        if absent:
            missing[layer] = "; ".join(absent)
        elif seen[layer] == 0 and layer != "pipeline.sink":
            missing[layer] = "wrapped but never called"
    measured = [layer for layer in LAYERS if layer not in missing]

    def get(key):
        return totals.get(key, 0)

    metrics: dict[str, float] = {}
    if "tensor_stream.read" in measured:
        metrics.update(percentiles("tensor_stream.read_ms", per_frame["tensor_stream.read"]))
        metrics["tensor_stream.bytes_per_frame"] = get("tensor_stream.read.out") / frames
    if "postprocess.decode" in measured:
        metrics.update(percentiles("postprocess.decode_ms", per_frame["postprocess.decode"]))
        cells, candidates = get("postprocess.decode.in"), get("postprocess.decode.out")
        metrics["postprocess.cells_scanned"] = cells
        metrics["postprocess.candidates"] = candidates
        metrics["postprocess.decode_yield"] = candidates / cells
    if "postprocess.nms" in measured:
        metrics.update(percentiles("postprocess.nms_ms", per_frame["postprocess.nms"]))
        nms_in, kept = get("postprocess.nms.in"), get("postprocess.nms.out")
        metrics["postprocess.nms_in"] = nms_in
        metrics["postprocess.nms_kept"] = kept
        metrics["postprocess.nms_keep_ratio"] = kept / nms_in if nms_in else 1.0
    if "train_fsm.step" in measured:
        metrics.update(percentiles("train_fsm.step_ms", per_frame["train_fsm.step"]))
        metrics["train_fsm.trains_in"] = get("train_fsm.step.in")
        for state, count in states.items():
            metrics[f"train_fsm.frames.{state}"] = count
        metrics["train_fsm.transitions"] = transitions
    if "geometry.zone" in measured:
        # Over the frames that test any person: on sparse scenes most frames
        # have none, and a p50 of exactly 0 would say nothing.
        busy = [ms for ms in per_frame["geometry.zone"] if ms > 0.0]
        metrics.update(percentiles("geometry.zone_ms", busy))
        metrics["geometry.point_tests"] = get("geometry.point_in_zone.calls")
        metrics["geometry.zone_hits"] = get("geometry.point_in_zone.out")
    metrics.update(percentiles("pipeline.self_ms", self_ms))
    metrics.update(percentiles("pipeline.sink_ms", per_frame["pipeline.sink"]))
    metrics["pipeline.records"] = sum(
        get(f"{span}.calls") for span in LAYERS["pipeline.sink"]
    )
    metrics["pipeline.alerts"] = get("pipeline.sink.alert.calls")
    metrics["pipeline.frame_errors"] = get("pipeline.sink.error.calls")

    total_ms = sum(frame_ms)
    shares = {layer: sum(per_frame[layer]) / total_ms for layer in measured}
    shares["pipeline.self"] = sum(self_ms) / total_ms
    return metrics, shares, missing
