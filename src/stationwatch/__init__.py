"""Platform-edge safety monitoring over recorded detector output.

The package turns raw anchor-free detector head tensors into safety
decisions: it decodes and de-duplicates detections, tracks the train's
arrival state from the track zone, and raises severity-graded alerts when
a person's ground point crosses the yellow-line zone. A scenario
simulator renders scripted scenes into the same tensor format, so the
whole chain runs and measures without a camera or accelerator attached.
"""

from .bench import (
    BenchRecord,
    EvalResult,
    LatencyStats,
    bench_summary,
    compute_efficiency,
    evaluate_run,
    match_detections,
    measure_latency,
    percentile_nearest_rank,
    write_bench_csv,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DecodeError,
    EncodingCollisionError,
    FrameError,
    GeometryError,
    InsufficientSamplesError,
    ScenarioError,
    SinkWriteError,
    StationError,
    StreamFormatError,
    StreamTruncatedError,
    UnsupportedVersionError,
)
from .geometry import (
    CameraModel,
    GroundPoint,
    Zone,
    ZoneKind,
    estimate_height,
    estimate_height_axial,
    ground_point,
    point_in_polygon,
    point_in_zone,
    polygon_area,
)
from .pipeline import (
    AlertEvent,
    FrameResult,
    PipelineConfig,
    RunSummary,
    Severity,
    StageLatencies,
    default_config,
    load_config,
    process_frame,
    run_pipeline,
    save_config,
    severity_for,
)
from .postprocess import (
    BoundingBox,
    DecodeConfig,
    Detection,
    Detections,
    decode_all,
    decode_head,
    filter_class,
    iou,
    nms,
)
from .scenario import (
    Actor,
    GroundTruthFrame,
    GroundTruthObject,
    ScenarioSpec,
    Waypoint,
    builtin_scenarios,
    encode_objects_to_tensors,
    encode_scenario,
    generate_scenario,
)
from .tensor_stream import (
    InferenceBackend,
    PlaybackBackend,
    RawTensorSet,
    SequenceBackend,
    TensorStreamHeader,
    read_tensor_stream,
    write_tensor_stream,
)
from .train_fsm import (
    FsmConfig,
    FsmCounters,
    TrainObservation,
    TrainState,
    TrainStateMachine,
    observe_train,
    step_fsm,
)

__version__ = "0.1.0"
