"""Command-line interface.

Five working commands plus one meta-command:

    simulate        render a scenario into a tensor stream + ground truth
    run             monitor a tensor stream, writing alerts and results
    bench           time the pipeline over a stream, writing a CSV report
    evaluate        score predictions against ground truth
    default-config  write the configuration matching the built-in scene
    verify          run the acceptance checks (exit 3 on any failure)

Exit codes: 0 success, 1 runtime failure (including a `run` or `bench`
that skipped a corrupt frame or met a stream ending early), 2 invalid
arguments or configuration, 3 acceptance failure. Logs go to stderr; data
goes to the requested files or stdout. Commands validate their inputs
before creating any output file, so an exit-2 failure never leaves
partial outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import IO, Sequence

from . import acceptance
from .bench import bench_summary, evaluate_run, measure_latency, write_bench_csv
from .errors import (
    AlignmentError,
    ConfigError,
    InsufficientSamplesError,
    ScenarioError,
    SinkWriteError,
    StationError,
)
from .pipeline import (
    check_backend_geometry,
    config_to_json,
    default_config,
    load_config,
    run_pipeline,
    save_config,
)
from .postprocess import detections_from_record
from .scenario import (
    SCENE_NUM_CLASSES,
    builtin_scenarios,
    encode_scenario,
    ground_truth_from_json,
    ground_truth_to_json,
    scenario_from_json,
)
from .tensor_stream import PlaybackBackend, TensorStreamHeader, write_tensor_stream

logger = logging.getLogger("stationwatch")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ACCEPTANCE = 3


class _JsonlWriter:
    def __init__(self, fh: IO[str]):
        self._fh = fh

    def __call__(self, record: dict) -> None:
        self._fh.write(json.dumps(record) + "\n")


def _load_pipeline_config(path: str | None):
    if path is None:
        return default_config()
    return load_config(path)


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.scenario is None) == (args.spec_file is None):
        print("simulate: give exactly one of --scenario or --spec-file", file=sys.stderr)
        return EXIT_USAGE
    if args.scenario is not None:
        catalog = builtin_scenarios()
        if args.scenario not in catalog:
            print(
                f"simulate: unknown scenario '{args.scenario}' "
                f"(available: {', '.join(sorted(catalog))})",
                file=sys.stderr,
            )
            return EXIT_USAGE
        spec = catalog[args.scenario]
    else:
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                spec = scenario_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, ScenarioError) as exc:
            print(f"simulate: cannot load spec file: {exc}", file=sys.stderr)
            return EXIT_USAGE

    config = _load_pipeline_config(args.config)
    # Render fully in memory before any file is created.
    gt_frames, tensors = encode_scenario(spec, config.decode, SCENE_NUM_CLASSES)
    header = TensorStreamHeader(
        num_classes=SCENE_NUM_CLASSES,
        image_width=spec.image_width,
        image_height=spec.image_height,
        strides=config.decode.strides,
        frame_count=len(tensors),
    )
    write_tensor_stream(args.out_tensors, header, tensors)
    with open(args.out_gt, "w", encoding="utf-8") as fh:
        json.dump(ground_truth_to_json(gt_frames), fh)
        fh.write("\n")
    logger.info("wrote %d frames to %s", len(tensors), args.out_tensors)
    print(json.dumps({"frames": len(tensors), "tensors": str(args.out_tensors),
                      "ground_truth": str(args.out_gt)}))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    backend = PlaybackBackend(args.tensors, loop_count=args.loop,
                              simulated_delay_ms=args.delay_ms)
    check_backend_geometry(backend, config)
    with open(args.alerts_out, "w", encoding="utf-8") as alerts_fh, \
            open(args.results_out, "w", encoding="utf-8") as results_fh:
        summary = run_pipeline(
            backend,
            config,
            alert_sink=_JsonlWriter(alerts_fh),
            log_sink=_JsonlWriter(sys.stderr),
            result_sink=_JsonlWriter(results_fh),
        )
    print(json.dumps(summary.to_record()))
    return EXIT_RUNTIME if summary.error_count else EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.power_w <= 0:
        print(f"bench: --power-w must be > 0, got {args.power_w}", file=sys.stderr)
        return EXIT_USAGE
    if args.warmup < 0:
        print(f"bench: --warmup must be >= 0, got {args.warmup}", file=sys.stderr)
        return EXIT_USAGE
    config = _load_pipeline_config(args.config)
    backend = PlaybackBackend(args.tensors, loop_count=args.loop,
                              simulated_delay_ms=args.delay_ms)
    total = backend.header.frame_count * args.loop
    if args.warmup >= total:
        print(
            f"bench: insufficient samples: warmup {args.warmup} consumes the whole "
            f"stream of {total} frames",
            file=sys.stderr,
        )
        return EXIT_USAGE
    stats, records, run = measure_latency(backend, config, warmup_frames=args.warmup)
    write_bench_csv(args.out_csv, records)
    summary = bench_summary(
        stats,
        power_w=args.power_w,
        accuracy_pct=args.accuracy_pct,
        latency_ms=args.latency_ms,
    )
    summary["errors"] = run.error_count
    print(json.dumps(summary))
    return EXIT_RUNTIME if run.error_count else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = []
    with open(args.pred, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "detections" not in record:
                continue  # tolerate error records interleaved in results files
            predictions.append(detections_from_record(record))
    with open(args.gt, "r", encoding="utf-8") as fh:
        ground_truth = ground_truth_from_json(json.load(fh))
    result = evaluate_run(
        predictions, ground_truth, iou_threshold=args.iou, class_id=args.class_id
    )
    print(json.dumps(result.to_record()))
    return EXIT_OK


def cmd_default_config(args: argparse.Namespace) -> int:
    config = default_config()
    if args.out is None:
        print(json.dumps(config_to_json(config), indent=2))
    else:
        save_config(config, args.out)
        logger.info("wrote default config to %s", args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = acceptance.run_all()
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  criterion {result.criterion}  {result.name}: {result.detail}")
        if not result.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} acceptance checks passed")
    return EXIT_OK if failed == 0 else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stationwatch",
        description="Platform-edge safety monitor over recorded detector output.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="render a scenario to tensors + ground truth")
    simulate.add_argument("--scenario", help="built-in scenario name")
    simulate.add_argument("--spec-file", help="scenario description JSON")
    simulate.add_argument("--config", help="pipeline config JSON (default: built-in scene)")
    simulate.add_argument("--out-tensors", required=True, help="output tensor stream path")
    simulate.add_argument("--out-gt", required=True, help="output ground truth JSON path")
    simulate.set_defaults(func=cmd_simulate)

    run = commands.add_parser("run", help="monitor a tensor stream")
    run.add_argument("--tensors", required=True, help="input tensor stream")
    run.add_argument("--config", help="pipeline config JSON (default: built-in scene)")
    run.add_argument("--alerts-out", required=True, help="alert JSON Lines output")
    run.add_argument("--results-out", required=True, help="per-frame result JSON Lines output")
    run.add_argument("--loop", type=int, default=1, help="play the stream this many times")
    run.add_argument("--delay-ms", type=float, default=0.0, help="pacing delay per frame")
    run.set_defaults(func=cmd_run)

    bench = commands.add_parser("bench", help="time the pipeline over a stream")
    bench.add_argument("--tensors", required=True, help="input tensor stream")
    bench.add_argument("--config", help="pipeline config JSON (default: built-in scene)")
    bench.add_argument("--power-w", type=float, required=True, help="platform power draw in watts")
    bench.add_argument("--warmup", type=int, default=0, help="frames to discard before measuring")
    bench.add_argument("--out-csv", required=True, help="per-frame timing CSV output")
    bench.add_argument("--loop", type=int, default=1, help="play the stream this many times")
    bench.add_argument("--delay-ms", type=float, default=0.0, help="pacing delay per frame")
    bench.add_argument("--accuracy-pct", type=float, default=None,
                       help="accuracy percentage to score efficiency with")
    bench.add_argument("--latency-ms", type=float, default=None,
                       help="override the measured latency for the efficiency figure")
    bench.set_defaults(func=cmd_bench)

    evaluate = commands.add_parser("evaluate", help="score predictions against ground truth")
    evaluate.add_argument("--pred", required=True, help="predictions JSON Lines (run results)")
    evaluate.add_argument("--gt", required=True, help="ground truth JSON")
    evaluate.add_argument("--iou", type=float, default=0.5, help="matching IoU threshold")
    evaluate.add_argument("--class-id", type=int, default=0, help="class to evaluate")
    evaluate.set_defaults(func=cmd_evaluate)

    config_cmd = commands.add_parser("default-config", help="emit the built-in scene config")
    config_cmd.add_argument("--out", help="write here instead of stdout")
    config_cmd.set_defaults(func=cmd_default_config)

    verify = commands.add_parser("verify", help="run the acceptance checks")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, ScenarioError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlignmentError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except SinkWriteError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        if exc.partial_summary is not None:
            print(json.dumps(exc.partial_summary.to_record()), file=sys.stderr)
        return EXIT_RUNTIME
    except InsufficientSamplesError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StationError, OSError, json.JSONDecodeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
