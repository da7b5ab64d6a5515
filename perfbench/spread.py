"""Run the benchmark on several seeds and report each metric's median and quartiles.

    python3 perfbench/spread.py --workload mc_classical --seeds 1-10 [--trace 0] [--out FILE]

The spread of a metric is the distance between its first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of its median; the
benchmark counts as steady when every end-to-end spread except that of
`setup_s` is below a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result and the summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": proc.returncode, **result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs if key in r["metrics"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        summary[key] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        limit = f" (bound/3 = {bounds[key] / 3:.3f})" if key in bounds else ""
        print(f"{args.workload} {key}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}{limit}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                              "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
