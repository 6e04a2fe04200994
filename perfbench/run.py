"""The stationwatch benchmark: one seeded workload, replayed end to end.

    python3 perfbench/run.py --workload scenes|dense|crowd --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ./src, takes
metric units from ./BENCHMARK.json and works in ./.bench_work. Set-up
renders the workload from the seed, writes it as a `.yxt` stream and
starts a replay process (replay.py) that imports the package and opens a
`PlaybackBackend`; that is done SETUP_REPS times and `setup_s` is the
median. The last replay process then runs `run_pipeline` in a closed loop
for S seconds (and at least MIN_FRAMES frames and one full pass of the
stream). The first pass of its output is checked against the recorded
digest (expected.json) and scored against ground truth.

--trace 0 reports the end-to-end metrics; --trace 1 splits the time
between an untraced and a traced replay and reports the per-layer
metrics, the tracing overhead, and where each frame's time went. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 5
MIN_FRAMES = 200  # p95 then has at least ten samples beyond it
CHILD_TIMEOUT_S = 170.0

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scenes", "dense", "crowd"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, args) -> dict:
    import numpy
    import stationwatch

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "stationwatch": stationwatch.__version__,
        "git_commit": git_commit(root),
    }


def start_replay(root: Path, args, stream: Path, work: Path, first_pass: int) -> subprocess.Popen:
    command = [
        sys.executable, str(BENCH_DIR / "replay.py"),
        "--src", str(root / "src"),
        "--workload", args.workload,
        "--stream", str(stream),
        "--out-dir", str(work),
        "--seconds", repr(args.seconds),
        "--min-frames", str(max(MIN_FRAMES, first_pass)),
        "--first-pass", str(first_pass),
        "--trace", str(args.trace),
    ]
    # A fixed hash seed removes one source of run-to-run variation between processes.
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=env)


def stop(child: subprocess.Popen | None) -> None:
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()


def set_up(root: Path, args, work: Path):
    """Render, write and open the workload SETUP_REPS times; keep the last."""
    import workloads
    from stationwatch import write_tensor_stream

    stream = work / f"{args.workload}.yxt"
    reps = []
    child = None
    for _ in range(SETUP_REPS):
        if child is not None:
            child.communicate("quit\n", timeout=CHILD_TIMEOUT_S)
        t0 = clock()
        workload = workloads.render(args.workload, args.seed)
        t1 = clock()
        write_tensor_stream(stream, workload.header, workload.frames)
        t2 = clock()
        child = start_replay(root, args, stream, work, len(workload.frames))
        if child.stdout.readline().strip() != "ready":
            child.wait()
            raise BenchError(f"replay process failed to start (exit {child.returncode})")
        t3 = clock()
        reps.append({"total": t3 - t0, "render": t1 - t0, "write": t2 - t1,
                     "open": t3 - t2, "encode": workload.encode_s})
    setup = {key: statistics.median(rep[key] for rep in reps) for key in reps[0]}
    return workload, child, setup


def read_records(path: Path) -> list[tuple[str, dict]]:
    with open(path, encoding="utf-8") as fh:
        return [(kind, json.loads(text)) for kind, text in
                (line.rstrip("\n").split("\t", 1) for line in fh)]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "stationwatch" / "__init__.py").is_file():
        print(f"run.py: no package sources at {root / 'src' / 'stationwatch'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    import checks

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = checks.load_expected()
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    child = None
    try:
        workload, child, setup = set_up(root, args, work)
        out, _ = child.communicate("go\n", timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise BenchError(f"replay process exited with {child.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
        outputs = checks.summarize_outputs(read_records(work / "records.txt"),
                                           workload.ground_truth)
        results = checks.output_checks(args.workload, args.seed, outputs,
                                       workload.live_cells, expected)
        warnings = []
        missing = {}
        attempted, failed = report["attempted"], report["failed"]
        if args.trace:
            trace = report["trace"]
            attempted += trace["attempted"]
            failed += trace["failed"]
            traced = checks.summarize_outputs(read_records(work / "traced-records.txt"),
                                              workload.ground_truth)
            results.append(("trace_transparent", traced.digest == outputs.digest,
                            "traced replay emits the same first-pass records"))
            warnings = checks.share_checks(args.workload, trace["shares"])
            missing = trace["missing"]
            spans = root / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.csv"
            shutil.move(str(work / "spans.csv"), spans)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        stop(child)
        shutil.rmtree(work, ignore_errors=True)

    error_ratio = failed / attempted
    if args.trace:
        metrics = dict(trace["metrics"])
        metrics.update({
            "tensor_stream.write_s": setup["write"],
            "scenario.encode_s": setup["encode"],
            "scenario.objects_encoded": workload.objects_encoded,
            "bench.evaluate_s": outputs.evaluate_s,
            "trace.frames_per_s": trace["frames_per_s"],
            "trace.untraced_frames_per_s": report["frames_per_s"],
            "trace.overhead_ratio": 1.0 - trace["frames_per_s"] / report["frames_per_s"],
        })
        metrics.update({f"share.{layer}": share for layer, share in trace["shares"].items()})
    else:
        metrics = {
            "setup_s": setup["total"],
            "frames_per_s": report["frames_per_s"],
            "frame_ms.p50": report["frame_ms.p50"],
            "frame_ms.p95": report["frame_ms.p95"],
            "person_accuracy": outputs.person_accuracy,
            "frame_ok_ratio": 1.0 - error_ratio,
            "peak_rss_mb": report["peak_rss_mb"],
        }
    correct = all(passed for _, passed, _ in results) and failed == 0

    print(f"stationwatch benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"(closed loop: 1 process, 1 thread, 1 stream)")
    print(f"  frames {report['frames']} untraced"
          + (f", {trace['frames']} traced" if args.trace else "")
          + f"; set-up median of {SETUP_REPS}: render {setup['render']:.4f} s, "
          f"write {setup['write']:.4f} s, start+open {setup['open']:.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6f} {units[name]}")
    print(f"  {'error_ratio':<34} {error_ratio:>14.6f} ratio "
          f"({failed} errors / {attempted} attempted)")
    for name, passed, detail in results:
        print(f"check {'PASS' if passed else 'FAIL'} {name}: {detail}")
    for name, passed, detail in warnings:
        print(f"check {'PASS' if passed else 'WARN'} {name}: {detail}")
    for layer, why in missing.items():
        print(f"missing layer {layer}: {why}")
    print("provenance " + json.dumps(provenance(root, args)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
