"""Run the benchmark on several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 bench/repeat.py --workload spoiling --seeds 0-9
    python3 bench/repeat.py --workload lattice --seeds 0-4 --trace 1 --out l.json

Each run is a fresh ``bench/run.py`` process.  For every metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json,
and it reports whether the work counts of each task were the same in every
run.  ``--out`` writes all of it, with every run's result, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                  if k in bounds or args.trace == 0), flush=True)

    table = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else values * 3)
        spread = (q3 - q1) / med if med else None
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds.get(name), "values": values}
        if args.trace == 0:
            print(f"{name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bounds.get(name)}")
    counts = [r["detail"]["counts"] for r in runs]
    same = all(c == counts[0] for c in counts)
    print(f"work counts identical in every run: {same}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "metrics": table, "counts_identical": same, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
