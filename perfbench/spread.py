"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads scenes dense crowd --runs 10 [--out FILE]

Run from the repository root. For every workload it runs `run.py --trace 0`
once per seed (0, 1, ...) with BENCHMARK.json's `run_seconds`, prints each
end-to-end metric's median, quartiles and spread (interquartile distance
over the median) next to its bound, and then makes one `--trace 1` run on
seed 0. With --out it also writes every run's metrics and provenance to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}

    def run(name, seed, trace):
        command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
        done = subprocess.run(command, check=True, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
        if not result["correct"]:
            print(f"{name} seed {seed}: run reported incorrect output", file=sys.stderr)
        return {"seed": seed, "provenance": provenance, **result}

    for name in names:
        runs = [run(name, seed, 0) for seed in range(args.runs)]
        table = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            table[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "" if spread < bound / 3 else "  <-- spread above a third of the bound"
            print(f"{name:<7} {metric:<16} median {median:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  "
                  f"spread {spread:.4f}  bound {bound}{flag}", flush=True)
        traced = run(name, 0, 1)
        overhead = traced["metrics"]["trace.overhead_ratio"]["value"]
        shares = {k[6:]: round(v["value"], 4) for k, v in traced["metrics"].items()
                  if k.startswith("share.")}
        print(f"{name:<7} tracing overhead {overhead:.4f} of untraced frames_per_s; "
              f"frame time shares {shares}")
        summary["workloads"][name] = {"metrics": table, "runs": runs, "traced_run": traced}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
