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
arguments, configuration or input file (a malformed config, spec,
ground-truth or prediction file, reported as `malformed WHAT: REASON`),
3 acceptance failure. A command raises every refusal; `main` alone
prints it as `COMMAND: message` and picks the exit code. Logs go to
stderr; data goes to the requested files or stdout. Every file a command
writes goes through `_outputs`: an output naming the same file as another output or
an input exits 2, and outputs appear only once the command completes, so
no failure, an exit-2 refusal included, leaves a partial output or
changes a file already there.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Sequence

from . import acceptance
from .bench import (check_efficiency_input, compute_efficiency, evaluate_run, measure_latency,
                    write_bench_csv)
from .errors import (
    ConfigError,
    InsufficientSamplesError,
    ScenarioError,
    SinkWriteError,
    StationError,
)
from .pipeline import config_to_json, default_config, load_config, run_pipeline, save_config
from .postprocess import detections_from_record, load_json, reading
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
    """Writes each record as the line `json.dumps(record) + "\\n"` would give.

    One encoder serves every record; records hold no cycles, so it skips
    the circular-reference check.
    """

    def __init__(self, fh: IO[str]):
        self._fh = fh
        self._encode = json.JSONEncoder(check_circular=False).encode

    def __call__(self, record: dict) -> None:
        self._fh.write(self._encode(record) + "\n")


@contextmanager
def _outputs(writes: dict[str, str], reads: dict[str, str | None]):
    """Paths to write the `writes` at, which show there only once the block completes.

    Both maps go from option name to path. An output that resolves to the
    same file as another output or an input (None: not given) is refused
    with ValueError before anything is created. Each output is created
    empty as a temporary file next to its path, so a missing directory
    fails at once; after the block has written and closed them all, they
    are moved onto their paths with os.replace. On any failure the
    temporary files are removed, so no path is created and a file already
    there keeps its content. A path that exists and is not a regular file,
    such as /dev/null, is yielded as it is and written in place.
    """
    named = {Path(path).resolve(): option for option, path in reads.items() if path is not None}
    for option, path in writes.items():
        target = Path(path).resolve()
        if target in named:
            raise ValueError(f"{named[target]} and {option} name the same file: {path}")
        named[target] = option
    staged = []  # (the path the block writes, target path)
    try:
        for number, path in enumerate(writes.values()):
            target = temp = Path(path).resolve()
            if target.is_file() or not target.exists():
                temp = target.with_name(f".{target.name}.{os.getpid()}-{number}.tmp")
                try:
                    open(temp, "x").close()
                except OSError as exc:  # name the path asked for, not the temporary one
                    raise OSError(exc.errno, exc.strerror, path) from exc
            staged.append((temp, target))
        yield [temp for temp, _ in staged]
        for temp, target in staged:
            if temp != target:
                os.replace(temp, target)
    finally:
        for temp, target in staged:
            if temp != target:
                temp.unlink(missing_ok=True)


def _text(path: Path) -> IO[str]:
    """Open an output for text as given, with no newline translation (the CSV's CRLF)."""
    return open(path, "w", encoding="utf-8", newline="")


def _stream(args: argparse.Namespace):
    """The config and stream of `run` and `bench`.

    run_pipeline refuses a config that does not fit the stream before it
    reads a frame, and `_outputs` then removes the staged output files.
    """
    config = default_config() if args.config is None else load_config(args.config)
    return config, PlaybackBackend(args.tensors, loop_count=args.loop)


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.scenario is None) == (args.spec_file is None):
        raise ValueError("give exactly one of --scenario or --spec-file")
    if args.scenario is not None:
        catalog = builtin_scenarios()
        if args.scenario not in catalog:
            raise ValueError(f"unknown scenario '{args.scenario}' "
                             f"(available: {', '.join(sorted(catalog))})")
        spec = catalog[args.scenario]
    else:
        spec = load_json(args.spec_file, scenario_from_json, ScenarioError, "scenario description")

    config = default_config() if args.config is None else load_config(args.config)
    gt_frames, tensors = encode_scenario(spec, config.decode, SCENE_NUM_CLASSES)
    header = TensorStreamHeader(
        num_classes=SCENE_NUM_CLASSES,
        image_width=spec.image_width,
        image_height=spec.image_height,
        strides=config.decode.strides,
        frame_count=len(tensors),
    )
    writes = {"--out-tensors": args.out_tensors, "--out-gt": args.out_gt}
    reads = {"--spec-file": args.spec_file, "--config": args.config}
    with _outputs(writes, reads) as (stream_path, gt_path):
        write_tensor_stream(stream_path, header, tensors)
        with _text(gt_path) as fh:
            json.dump(ground_truth_to_json(gt_frames), fh)
            fh.write("\n")
    logger.info("wrote %d frames to %s", len(tensors), args.out_tensors)
    print(json.dumps({"frames": len(tensors), "tensors": str(args.out_tensors),
                      "ground_truth": str(args.out_gt)}))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config, backend = _stream(args)
    writes = {"--alerts-out": args.alerts_out, "--results-out": args.results_out}
    reads = {"--tensors": args.tensors, "--config": args.config}
    with _outputs(writes, reads) as (alerts_path, results_path), \
            _text(alerts_path) as alerts_fh, _text(results_path) as results_fh:
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
    check_efficiency_input("power_w", args.power_w, "--power-w")
    if args.accuracy_pct is not None:
        check_efficiency_input("accuracy_pct", args.accuracy_pct, "--accuracy-pct")
    if args.warmup < 0:
        raise ValueError(f"--warmup must be >= 0, got {args.warmup}")
    config, backend = _stream(args)
    total = backend.header.frame_count * args.loop
    if args.warmup >= total:
        raise InsufficientSamplesError(
            f"insufficient samples: warmup {args.warmup} consumes the whole stream of "
            f"{total} frames"
        )
    reads = {"--tensors": args.tensors, "--config": args.config}
    with _outputs({"--out-csv": args.out_csv}, reads) as (csv_path,), _text(csv_path) as csv_fh:
        stats, records, run = measure_latency(backend, config, warmup_frames=args.warmup)
        write_bench_csv(csv_fh, records)
    # Efficiency needs an accuracy, which bench does not measure, and a
    # latency, which it lacks when every frame was skipped.
    latency_ms = None if stats is None else stats.mean_ms
    efficiency = None
    if args.accuracy_pct is not None and latency_ms is not None:
        efficiency = compute_efficiency(args.accuracy_pct, latency_ms, args.power_w)
    print(json.dumps({
        "accuracy_pct": args.accuracy_pct,
        "latency": None if stats is None else stats.to_record(),
        "latency_ms": latency_ms,
        "power_w": args.power_w,
        "efficiency": efficiency,
        "errors": run.error_count,
    }))
    return EXIT_RUNTIME if run.error_count else EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = []
    with open(args.pred, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            with reading(ScenarioError, f"prediction record at line {number}"):
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError(f"a record must be an object, got {type(record).__name__}")
                if "error" in record and "frame" in record:  # a skipped frame detects nothing
                    record = {"frame": record["frame"], "detections": []}
                if "detections" in record:  # else the frameless record of a failed backend
                    predictions.append(detections_from_record(record))
    ground_truth = load_json(args.gt, ground_truth_from_json, ScenarioError, "ground truth")
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
        with _outputs({"--out": args.out}, {}) as (path,):
            save_config(config, path)
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
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="render a scenario to tensors + ground truth")
    simulate.add_argument("--scenario", help="built-in scenario name")
    simulate.add_argument("--spec-file", help="scenario description JSON")
    simulate.add_argument("--config", help="pipeline config JSON (default: built-in scene)")
    simulate.add_argument("--out-tensors", required=True, help="output tensor stream path")
    simulate.add_argument("--out-gt", required=True, help="output ground truth JSON path")
    simulate.set_defaults(func=cmd_simulate)

    stream = argparse.ArgumentParser(add_help=False)  # the input of run and bench
    stream.add_argument("--tensors", required=True, help="input tensor stream")
    stream.add_argument("--config", help="pipeline config JSON (default: built-in scene)")
    stream.add_argument("--loop", type=int, default=1, help="play the stream this many times")

    run = commands.add_parser("run", parents=[stream], help="monitor a tensor stream")
    run.add_argument("--alerts-out", required=True, help="alert JSON Lines output")
    run.add_argument("--results-out", required=True, help="per-frame result JSON Lines output")
    run.set_defaults(func=cmd_run)

    bench = commands.add_parser("bench", parents=[stream], help="time the pipeline over a stream")
    bench.add_argument("--power-w", type=float, required=True, help="platform power draw in watts")
    bench.add_argument("--warmup", type=int, default=0, help="frames to discard before measuring")
    bench.add_argument("--out-csv", required=True, help="per-frame timing CSV output")
    bench.add_argument("--accuracy-pct", type=float, default=None,
                       help="accuracy percentage to score efficiency with")
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
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, InsufficientSamplesError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StationError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        if isinstance(exc, SinkWriteError):
            print(json.dumps(exc.partial_summary.to_record()), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
