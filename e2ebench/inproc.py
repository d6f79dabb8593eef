"""The in-process batch workloads: ``trace-pack`` and ``defrag-replay``.

Both call only public functions of ``repro.traces``, ``repro.core``,
``repro.multidim`` and ``repro.algorithms``.  A run repeats one *pass*
(input to finished packing result) until its time is up and reports
the median pass, scaled to the reference host speed
(:func:`common.kernel_s`); the output checks run after the timed passes.
"""

from __future__ import annotations

import os
import subprocess
from contextlib import nullcontext
import sys
import time

from common import REF_KERNEL_S, BenchError, kernel_s, median, percentile, self_peak_rss_mb

#: trace-pack: rows in the generated Azure-schema trace.  With the
#: lifetime spread raised to mu=5000 (default 50) about 200 bins are
#: open at the peak (130 on average), so the 128-bin first-fit index
#: builds on every pass.
TRACE_ROWS = 10_000
TRACE_MU = 5000.0
#: a dirty-record share like real traces have, so the skip path runs
TRACE_MALFORMED = 0.001

#: defrag-replay: Poisson jobs at mu=8 with arrivals dense enough that
#: about 12 bins are open on average (about 20 at peak); the migration
#: planner's cost grows faster than linearly in open bins, so the load
#: is kept there.
DEFRAG_JOBS = 5_000
DEFRAG_RATE = 16.0
DEFRAG_MU = 8.0
DEFRAG_BUDGET = 4

#: fresh interpreters started to measure set-up; the median is reported
SETUP_REPEATS = 7

_SETUP_SNIPPET = """
import repro.traces, repro.core, repro.multidim, repro.algorithms
from repro.algorithms import BudgetedRepack, make_algorithm
from repro.multidim import make_vector_algorithm
make_algorithm("first-fit"); make_vector_algorithm("vector-first-fit")
BudgetedRepack(budget=%d)
""" % DEFRAG_BUDGET


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter, from spawn to exit, that
    imports the package and constructs the policies."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET], env=env,
            capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        samples.append(elapsed)
    return median(samples)


def usage_ratio(result, items) -> float:
    """Total usage time over the Prop. 1 bound max(span, time-space demand)."""
    return result.total_usage_time / max(items.span, items.time_space_demand)


class TracePack:
    """Trace file -> load_items + normalize_items -> FF, scalar and 2-D."""

    name = "trace-pack"

    def __init__(self, seed: int, work: str):
        from repro import traces

        self.path = os.path.join(work, "azure.csv")
        traces.generate_azure_trace(
            self.path, TRACE_ROWS, seed=seed, mu=TRACE_MU, malformed=TRACE_MALFORMED
        )
        self.results = None
        self.rows = 0
        self.skipped = 0

    def run_pass(self, rec=None):
        from repro import traces
        from repro.algorithms import make_algorithm
        from repro.core import run_packing
        from repro.multidim import make_vector_algorithm, run_vector_packing

        out = []
        rows = skipped = 0
        for vector in (False, True):
            span = rec.span("traces.ingest") if rec is not None else nullcontext()
            with span:
                raw, stats = traces.load_items(self.path, schema="azure", vector=vector)
                items, _ = traces.normalize_items(raw)
            rows += stats.records
            skipped += stats.malformed + stats.orphaned + stats.unfinished + stats.censored
            if vector:
                result = run_vector_packing(items, make_vector_algorithm("vector-first-fit"))
            else:
                result = run_packing(items, make_algorithm("first-fit"))
            out.append((items, result))
        self.rows, self.skipped = rows, skipped
        self.results = out
        return sum(len(items) for items, _ in out)

    def check(self) -> list[str]:
        """Indexed packings equal the reference (indexed=False) scans."""
        from repro.algorithms import make_algorithm
        from repro.core import run_packing
        from repro.multidim import make_vector_algorithm, run_vector_packing

        (items, res), (vitems, vres) = self.results
        ref = run_packing(items, make_algorithm("first-fit"), indexed=False)
        vref = run_vector_packing(
            vitems, make_vector_algorithm("vector-first-fit"), indexed=False
        )
        errors = []
        if ref.item_bin != res.item_bin or ref.total_usage_time != res.total_usage_time:
            errors.append("trace-pack: scalar first-fit differs from indexed=False")
        if vref.item_bin != vres.item_bin or vref.total_usage_time != vres.total_usage_time:
            errors.append("trace-pack: vector first-fit differs from indexed=False")
        return errors

    def usage_ratio(self) -> float:
        items, res = self.results[0]
        return usage_ratio(res, items)


class DefragReplay:
    """run_packing with repack-ff (budget 4) on a seeded Poisson instance."""

    name = "defrag-replay"

    def __init__(self, seed: int, work: str):
        from repro.workloads.random_workloads import poisson_workload

        self.items = poisson_workload(
            DEFRAG_JOBS, seed=seed, arrival_rate=DEFRAG_RATE, mu_target=DEFRAG_MU
        )
        self.result = None

    def run_pass(self, rec=None):
        from repro.algorithms import BudgetedRepack
        from repro.core import run_packing

        self.result = run_packing(self.items, BudgetedRepack(budget=DEFRAG_BUDGET))
        return len(self.items)

    def check(self) -> list[str]:
        from repro.algorithms import BudgetedRepack
        from repro.core import run_packing

        res = self.result
        ref = run_packing(self.items, BudgetedRepack(budget=DEFRAG_BUDGET), indexed=False)
        if ref.item_bin != res.item_bin or ref.total_usage_time != res.total_usage_time:
            return ["defrag-replay: repack-ff differs from indexed=False"]
        return []

    def usage_ratio(self) -> float:
        return usage_ratio(self.result, self.items)


def timed_passes(workload, seconds: float):
    """Run passes until ``seconds`` elapse.

    Returns each pass's seconds, the same scaled to the reference host
    speed (each pass sits between two reference-kernel runs), and the
    jobs per pass.
    """
    times, scaled = [], []
    jobs = 0
    deadline = time.perf_counter() + seconds
    before = kernel_s()
    while True:
        t0 = time.perf_counter()
        jobs = workload.run_pass()
        times.append(time.perf_counter() - t0)
        after = kernel_s()
        scaled.append(times[-1] * REF_KERNEL_S / ((before + after) / 2))
        before = after
        if time.perf_counter() >= deadline and len(times) >= 3:
            break
    return times, scaled, jobs


def end_to_end(scaled, jobs, setup_s, workload) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs / median(scaled), "jobs/s"),
        "usage_ratio": (workload.usage_ratio(), "ratio"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, work: str, env: dict):
    """Returns ``(metrics, attempted, failed, errors)``."""
    cls = {"trace-pack": TracePack, "defrag-replay": DefragReplay}[name]
    workload = cls(seed, work)
    workload.run_pass()  # warm-up: imports, caches, lazy set-up
    if not trace:
        setup_s = measure_setup(env)
        times, scaled, jobs = timed_passes(workload, seconds)
        errors = workload.check()
        metrics = end_to_end(scaled, jobs, setup_s, workload)
        return metrics, len(times) * jobs, 0, errors

    import spans
    import layers

    # untraced and traced passes alternate, so host drift hits both alike
    rec = spans.Recorder()
    times, traced_times = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced_times) < 2:
        t0 = time.perf_counter()
        jobs = workload.run_pass()
        times.append(time.perf_counter() - t0)
        undo = spans.install(rec)
        try:
            t0 = time.perf_counter()
            workload.run_pass(rec)
            traced_times.append(time.perf_counter() - t0)
        finally:
            spans.uninstall(undo)
    errors = workload.check()
    summary = spans.summarize(spans.from_recorder(rec))
    extra = {
        "unscaled.jobs_per_s": jobs / median(times),
        "latency_p50_ms": median(times) * 1e3,
        "latency_p99_ms": percentile(times, 99) * 1e3,
    }
    if name == "trace-pack":
        passes = len(traced_times)
        extra["traces.rows"] = workload.rows
        extra["traces.rows_skipped"] = workload.skipped
        ingest = summary["spans"].get("traces.ingest")
        extra["traces.ingest_us_per_row"] = (
            ingest["self_s"] * 1e6 / (workload.rows * passes) if ingest else 0.0
        )
    metrics = layers.per_layer(summary, extra)
    metrics.update(layers.overhead(
        jobs / median(times), jobs / median(traced_times),
        median(times) * 1e3, median(traced_times) * 1e3,
    ))
    attempted = (len(times) + len(traced_times)) * jobs
    return metrics, attempted, 0, errors
