#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --workloads matrix-n8 resolve-n9 \\
        --seeds 1-10 --seconds 22 [--trace 1] [--out FILE]

For every workload and metric it prints the median of the per-run values
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--out`` the values, medians and spreads are also written as JSON.
Stops at the first run that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float | None:
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="N or FIRST-LAST")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        values: dict[str, list] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        for name, xs in values.items():
            median = statistics.median(xs)
            report[workload][name] = {"values": xs, "median": median, "spread": spread(xs)}
            print(f"{workload} {name}: median {median:.6g}, spread {spread(xs)}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
