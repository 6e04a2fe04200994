"""Which lines of the package do the production paths never run?

    python3 tools/linetrace.py

Run it from the repository root. It imports the package from ./src and the
benchmark's modules from ./perfbench, and changes no file of either. With
`sys.settrace` on from before the package is imported, it runs, in this
one process:

- `default-config` to stdout and with `--out`; then every CLI command on
  each of the three built-in scenes, `simulate`, `run` (with the config
  file just written), `evaluate` and `bench`; then `simulate --spec-file`
  on a spec file of one of them, and `verify`;
- each benchmark workload at seed 0, as `perfbench/run.py` and
  `perfbench/replay.py` run it: `workloads.render`, the stream written and
  read back through `PlaybackBackend`, `harness.replay` untraced and traced
  over one pass, and `checks.output_checks` on the untraced pass.

It then prints every executable line under src/ that none of this ran, and
their count. Unrun lines with no run executable line between them print as
one block, `path:first-last  source of the first line`. An executable line is one that a code
object's `co_lines()` maps bytecode to, less each function's first line,
which carries only the function's entry. The tool uses only the standard
library, and no test runs it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
PACKAGE = SRC / "stationwatch"


def executable_lines(path: Path) -> set[int]:
    """Lines of `path` that its compiled code objects, nested ones included, map to."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        own = {line for _, _, line in code.co_lines() if line is not None}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTrace:
    """Records every (file, line) run under the package directory."""

    def __init__(self):
        self.ran: set[tuple[str, int]] = set()
        self.prefix = str(PACKAGE) + os.sep

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
            return self._local
        return None

    @contextlib.contextmanager
    def on(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def cli_paths(trace: LineTrace, work: Path) -> None:
    from stationwatch import cli
    from stationwatch.scenario import builtin_scenarios, scenario_to_json

    def command(*argv: str) -> None:
        with trace.on():
            code = cli.main(list(argv))
        shown = " ".join(argv).replace(f"{work}{os.sep}", "")
        print(f"  exit {code}: stationwatch {shown}", file=sys.__stdout__)

    config = str(work / "config.json")
    command("default-config")
    command("default-config", "--out", config)
    for name in sorted(builtin_scenarios()):
        stream, gt = str(work / f"{name}.yxt"), str(work / f"{name}-gt.json")
        results = str(work / f"{name}-results.jsonl")
        command("simulate", "--scenario", name, "--out-tensors", stream, "--out-gt", gt)
        command("run", "--tensors", stream, "--config", config,
                "--alerts-out", str(work / f"{name}-alerts.jsonl"), "--results-out", results)
        command("evaluate", "--pred", results, "--gt", gt)
        command("bench", "--tensors", stream, "--power-w", "10.737", "--accuracy-pct", "70.791",
                "--out-csv", str(work / f"{name}-bench.csv"))
    # The spec file is written untraced: writing it is not a production path.
    spec = work / "spec.json"
    spec.write_text(json.dumps(scenario_to_json(builtin_scenarios()["crossing_during_approach"])))
    command("simulate", "--spec-file", str(spec), "--out-tensors", str(work / "spec.yxt"),
            "--out-gt", str(work / "spec-gt.json"))
    command("verify")


def benchmark_paths(trace: LineTrace, work: Path) -> None:
    import checks
    import harness
    import workloads
    from stationwatch import PlaybackBackend, write_tensor_stream

    expected = checks.load_expected()
    for name in workloads.NAMES:
        stream = work / f"{name}.yxt"
        with trace.on():
            workload = workloads.render(name, 0)
            write_tensor_stream(stream, workload.header, workload.frames)
            config = workloads.config_for(name)
            passes = len(workload.frames)
            plain = harness.replay(PlaybackBackend(stream), config, 0.0, passes, passes)
            harness.replay(PlaybackBackend(stream), config, 0.0, passes, passes,
                           harness.Tracer())
            records = [(kind, json.loads(text)) for kind, text in plain.kept]
            outputs = checks.summarize_outputs(records, workload.ground_truth)
            results = checks.output_checks(name, 0, outputs, workload.live_cells, expected)
        failed = [check for check, passed, _ in results if not passed]
        print(f"  {name}: {plain.summary.frames_processed} frames, failed checks {failed}",
              file=sys.__stdout__)


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    trace = LineTrace()
    with trace.on():  # module-level lines count as run
        for path in sorted(PACKAGE.glob("*.py")):
            importlib.import_module(f"stationwatch.{path.stem}".removesuffix(".__init__"))

    with tempfile.TemporaryDirectory() as tmp:
        print("running the CLI paths", file=sys.__stdout__)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            cli_paths(trace, Path(tmp))
        print("running the benchmark paths", file=sys.__stdout__)
        benchmark_paths(trace, Path(tmp))

    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        blocks: list[list[int]] = []
        previous_ran = True
        for line in sorted(executable_lines(path)):
            ran = (str(path), line) in trace.ran
            if not ran:
                unrun += 1
                if previous_ran:
                    blocks.append([line, line])
                blocks[-1][1] = line
            previous_ran = ran
        for first, last in blocks:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"{path.relative_to(ROOT)}:{span}  {source[first - 1].strip()}")
    print(f"{unrun} executable lines under {PACKAGE.relative_to(ROOT)} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
