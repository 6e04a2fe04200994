"""The measured process: replays one rendered stream and reports on stdout.

`run.py` starts it once per set-up. It imports the package, builds the
workload's config, opens a `PlaybackBackend` on the stream, prints
`ready`, and then waits on stdin: `go` starts the timed replay, anything
else ends the process. Rendering happened in the parent, so this
process's peak RSS is the monitor's own memory.

With --trace 1 the time is split between untraced and traced replays, in
alternating rounds, so the tracing overhead is measured on the same inputs
in the same process. The first pass of the records of the first replay of
each kind is written to --out-dir for the parent's correctness checks,
next to the spans of all traced replays.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

# The backend reads frames lazily, so this only bounds the stream: the
# replay deadline ends it long before.
LOOPS = 1_000_000
# Noisy neighbours slow this process for seconds at a time, so untraced
# and traced replays alternate in rounds of about seconds / 20 each.
TRACE_ROUNDS = 10


def peak_rss_mb() -> float:
    """This process's peak resident memory since exec, in MiB.

    `getrusage` would also count the parent's peak: Linux carries the
    high-water mark across the vfork and exec that started this process.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def totals(runs) -> dict:
    frames = sum(run.summary.frames_processed for run in runs)
    return {
        "frames": frames,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.summary.error_count for run in runs),
        "frames_per_s": frames / sum(run.wall_s for run in runs),
    }


def write_records(path: Path, records: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for kind, text in records:
            fh.write(f"{kind}\t{text}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--stream", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-frames", type=int, required=True)
    parser.add_argument("--first-pass", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [args.src, str(Path(__file__).resolve().parent)]
    import workloads
    from harness import Tracer, layer_metrics, percentiles, replay
    from stationwatch import PlaybackBackend

    config = workloads.config_for(args.workload)
    backend = PlaybackBackend(args.stream, loop_count=LOOPS)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    out_dir = Path(args.out_dir)
    if not args.trace:
        plain = replay(backend, config, args.seconds, args.min_frames, args.first_pass)
        write_records(out_dir / "records.txt", plain.kept)
        report = {
            "frames": plain.summary.frames_processed,
            "attempted": plain.attempted,
            "failed": plain.summary.error_count,
            "frames_per_s": plain.frames_per_s,
            **percentiles("frame_ms", plain.frame_ms),
            "peak_rss_mb": peak_rss_mb(),
        }
        print(json.dumps(report), flush=True)
        return 0

    # Untraced and traced replays alternate in short rounds, each from the
    # start of the stream, so both see the same machine and the gap between
    # their rates is the cost of tracing rather than of a noisy neighbour.
    # The first round of each kind replays a full pass for the correctness
    # checks; the last one tops the kind up to --min-frames.
    tracer = Tracer()
    plain_runs, traced_runs = [], []
    seconds = args.seconds / (2 * TRACE_ROUNDS)
    for round_ in range(TRACE_ROUNDS):
        for traced in ((False, True) if round_ % 2 == 0 else (True, False)):
            runs = traced_runs if traced else plain_runs
            if round_ == 0:
                min_frames = args.first_pass
            elif round_ == TRACE_ROUNDS - 1:
                done = sum(run.summary.frames_processed for run in runs)
                min_frames = max(1, args.min_frames - done)
            else:
                min_frames = 1
            if backend is None:
                backend = PlaybackBackend(args.stream, loop_count=LOOPS)
            runs.append(replay(backend, config, seconds, min_frames, args.first_pass,
                               tracer if traced else None))
            backend = None
    write_records(out_dir / "records.txt", plain_runs[0].kept)
    write_records(out_dir / "traced-records.txt", traced_runs[0].kept)
    tracer.write(out_dir / "spans.csv")
    metrics, shares, missing = layer_metrics(tracer)
    report = {**totals(plain_runs), "trace": {
        **totals(traced_runs), "metrics": metrics, "shares": shares, "missing": missing,
    }}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
