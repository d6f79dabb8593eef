"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/steadiness.py --workloads trace-pack,fleet-json \\
        --seeds 101-110 --out e2ebench/steadiness.json

Runs ``BENCHMARK.json``'s command once per (workload, seed), from the
current directory (a checkout root), and reports for every end-to-end
metric its median, quartiles and spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  A metric steady
enough for its bound shows a spread below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: {result}")
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: {walls[-1]:.1f}s", file=sys.stderr)
        rows = {}
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": m.get("bound"),
                "values": vals,
            }
        report["workloads"][name] = {"wall_s_max": max(walls), "metrics": rows}
        for m, row in rows.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"{name:14s} {m:28s} median {row['median']:.4g} spread {spread} "
                  f"bound {row['bound']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
