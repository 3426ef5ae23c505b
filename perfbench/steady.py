"""Steadiness report: repeat the benchmark over seeds and print, for each
end-to-end metric, its median, quartiles and spread (interquartile distance
over the median) beside the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--json FILE]

Run it from the root of a checkout.  A metric is steady when its spread is
below a third of its bound; ``setup_s`` is listed but exempt from the
spread rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--json", help="also write the summary to this file")
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    run_cmd = [sys.executable, *bench["command"][1:]]
    samples: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*run_cmd, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: run not correct", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in samples.items()),
              flush=True)

    summary = {name: summarize(values) for name, values in samples.items()}
    steady = True
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, s in summary.items():
        bound = bounds[name]
        ok = name == "setup_s" or s["spread"] < bound / 3
        steady = steady and ok
        print(f"{name:<14}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
              f"{s['spread']:>9.2%}{bound:>8.2f}" + ("" if ok else "  NOT STEADY"))
    if args.json:
        Path(args.json).write_text(json.dumps({args.workload: summary}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
