"""Run one benchmark workload and print its result as the last line.

    python3 e2ebench/run.py --workload trace-pack --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported and
started from ``./src``.  ``--trace 0`` prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs the separate traced run and
prints every per-layer metric.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any failed output check makes ``correct`` false; a run
that cannot measure at all exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import traceback

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import BenchError, WorkDir  # noqa: E402

WORKLOADS = ("trace-pack", "serve-durable", "fleet-json", "defrag-replay")


def _expected(root: str, key: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still stops the services it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source at {src}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    work = WorkDir(root)
    try:
        if args.workload in ("trace-pack", "defrag-replay"):
            import inproc

            metrics, attempted, failed, errors = inproc.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work.path, env
            )
        else:
            import service

            metrics, attempted, failed, errors = service.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work, env
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        work.close()

    want = _expected(root, "per_layer" if args.trace else "end_to_end")
    if sorted(want) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}",
              file=sys.stderr)
        return 1
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            errors.append(f"metric {name} is not finite")
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in want
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
