"""Per-layer metrics of the traced run, computed from span summaries.

Every workload prints every metric in :data:`PER_LAYER`; a layer that
does not run on a workload reads 0 there.  Metrics that the benchmark
measures outside the spans (rows read, /proc CPU, the WAL's own
counters from the ``stats`` op, the client's lateness) arrive in
``extra`` and override the span-derived value.
"""

from __future__ import annotations

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("traces.rows", "count", "higher"),
    ("traces.ingest_us_per_row", "us", "lower"),
    ("traces.rows_skipped", "count", "lower"),
    ("core.driver.events", "count", "higher"),
    ("core.driver.us_per_event", "us", "lower"),
    ("core.state.place_us", "us", "lower"),
    ("core.state.depart_us", "us", "lower"),
    ("core.state.migrate_calls", "count", "lower"),
    ("core.state.migrate_us", "us", "lower"),
    ("core.ffindex.builds", "count", "lower"),
    ("core.ffindex.queries", "count", "higher"),
    ("core.ffindex.us_per_query", "us", "lower"),
    ("core.ffindex.tree_share", "fraction", "higher"),
    ("multidim.us_per_event", "us", "lower"),
    ("algorithms.migration.plans", "count", "lower"),
    ("algorithms.migration.us_per_plan", "us", "lower"),
    ("algorithms.migration.moves", "count", "lower"),
    ("algorithms.migration.useful_frac", "fraction", "higher"),
    ("service.engine.calls", "count", "higher"),
    ("service.engine.submit_us", "us", "lower"),
    ("service.engine.depart_us", "us", "lower"),
    ("service.metrics.calls", "count", "lower"),
    ("service.metrics.us_per_event", "us", "lower"),
    ("service.wal.records", "count", "higher"),
    ("service.wal.bytes", "B", "lower"),
    ("service.wal.append_us", "us", "lower"),
    ("service.wal.fsyncs", "count", "lower"),
    ("service.wal.records_per_fsync", "ratio", "higher"),
    ("service.snapshot.checkpoints", "count", "lower"),
    ("service.snapshot.checkpoint_ms_p50", "ms", "lower"),
    ("service.snapshot.checkpoint_ms_max", "ms", "lower"),
    ("service.snapshot.bytes_last", "B", "lower"),
    ("service.snapshot.busy_share", "fraction", "lower"),
    ("service.snapshot.restore_ms", "ms", "lower"),
    ("service.recovery.submit_us", "us", "lower"),
    ("service.recovery.replayed_records", "count", "lower"),
    ("service.recovery.replay_us_per_record", "us", "lower"),
    ("service.protocol.frames", "count", "lower"),
    ("service.protocol.bytes_in", "B", "lower"),
    ("service.protocol.bytes_out", "B", "lower"),
    ("service.protocol.decode_us_per_frame", "us", "lower"),
    ("service.protocol.encode_us_per_frame", "us", "lower"),
    ("service.server.cpu_us_per_request", "us", "lower"),
    ("service.server.self_us_per_request", "us", "lower"),
    ("service.router.cpu_us_per_request", "us", "lower"),
    ("service.router.shard_skew", "ratio", "lower"),
    ("service.router.retries", "count", "lower"),
    ("service.router.breaker_rejects", "count", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
    ("client.jobs_per_frame", "ratio", "higher"),
    ("client.backlog_max", "count", "lower"),
    ("client.low.latency_p50_ms", "ms", "lower"),
    ("client.low.latency_p99_ms", "ms", "lower"),
    ("client.sustainable_rps", "jobs/s", "higher"),
    ("unscaled.jobs_per_s", "jobs/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("failed_frac", "fraction", "lower"),
    ("recover_s", "s", "lower"),
    ("trace.overhead.jobs_per_s", "fraction", "lower"),
    ("trace.overhead.latency_p50", "fraction", "lower"),
)


def _row(summary, label):
    return summary["spans"].get(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": ()})


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def per_layer(summary: dict, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric as ``{name: (value, unit)}``."""
    import numpy as np

    counts = summary["counts"]
    row = lambda label: _row(summary, label)  # noqa: E731
    m: dict = {}

    driver = row("core.driver.run_events")
    m["core.driver.events"] = counts.get("core.driver.events", 0)
    m["core.driver.us_per_event"] = _ratio(driver["self_s"] * 1e6, m["core.driver.events"])
    place, depart, migrate = row("core.state.place"), row("core.state.depart"), row("core.state.migrate")
    m["core.state.place_us"] = _ratio(place["total_s"] * 1e6, place["calls"])
    m["core.state.depart_us"] = _ratio(depart["total_s"] * 1e6, depart["calls"])
    m["core.state.migrate_calls"] = migrate["calls"]
    m["core.state.migrate_us"] = _ratio(migrate["total_s"] * 1e6, migrate["calls"])
    query, select = row("core.ffindex.query"), row("core.ffindex.select")
    m["core.ffindex.builds"] = row("core.ffindex.build")["calls"]
    m["core.ffindex.queries"] = query["calls"]
    m["core.ffindex.us_per_query"] = _ratio(query["total_s"] * 1e6, query["calls"])
    m["core.ffindex.tree_share"] = _ratio(query["calls"], select["calls"])
    vec = row("multidim.run_events")
    m["multidim.us_per_event"] = _ratio(vec["self_s"] * 1e6, counts.get("multidim.events", 0))

    plan = row("algorithms.migration.plan")
    m["algorithms.migration.plans"] = plan["calls"]
    m["algorithms.migration.us_per_plan"] = _ratio(plan["total_s"] * 1e6, plan["calls"])
    m["algorithms.migration.moves"] = counts.get("algorithms.migration.moves", 0)
    m["algorithms.migration.useful_frac"] = _ratio(
        counts.get("algorithms.migration.useful", 0), plan["calls"]
    )

    submit, edepart = row("service.engine.submit"), row("service.engine.depart")
    engine_events = submit["calls"] + edepart["calls"]
    m["service.engine.calls"] = engine_events
    m["service.engine.submit_us"] = _ratio(submit["self_s"] * 1e6, submit["calls"])
    m["service.engine.depart_us"] = _ratio(edepart["self_s"] * 1e6, edepart["calls"])
    mcall = row("service.metrics.call")
    m["service.metrics.calls"] = mcall["calls"]
    m["service.metrics.us_per_event"] = _ratio(mcall["total_s"] * 1e6, engine_events)

    append = row("service.wal.append")
    m["service.wal.append_us"] = _ratio(
        append["total_s"] * 1e6, counts.get("service.wal.appended", 0)
    )
    ckpt = row("service.snapshot.checkpoint")
    durations = np.asarray(ckpt["durations"], dtype=float)
    m["service.snapshot.checkpoints"] = ckpt["calls"]
    m["service.snapshot.checkpoint_ms_p50"] = float(np.median(durations)) * 1e3 if len(durations) else 0.0
    m["service.snapshot.checkpoint_ms_max"] = float(durations.max()) * 1e3 if len(durations) else 0.0
    m["service.snapshot.busy_share"] = _ratio(ckpt["total_s"], row("service.server.frame")["total_s"])
    durable = row("service.recovery.submit")
    m["service.recovery.submit_us"] = _ratio(durable["self_s"] * 1e6, submit["calls"])

    m["_decode_s"] = row("service.protocol.decode")["total_s"]
    m["_encode_s"] = row("service.protocol.encode")["total_s"]

    out = {}
    m.update(extra)
    frames = m.get("service.protocol.frames", 0)
    m["service.protocol.decode_us_per_frame"] = _ratio(m.pop("_decode_s") * 1e6, frames)
    m["service.protocol.encode_us_per_frame"] = _ratio(m.pop("_encode_s") * 1e6, frames)
    for name, unit, _ in PER_LAYER:
        out[name] = (float(m.get(name, 0.0)), unit)
    return out


def overhead(jobs_untraced, jobs_traced, p50_untraced, p50_traced) -> dict:
    """Tracing overhead as fractions: throughput lost, latency added."""
    return {
        "trace.overhead.jobs_per_s": (1.0 - _ratio(jobs_traced, jobs_untraced), "fraction"),
        "trace.overhead.latency_p50": (_ratio(p50_traced, p50_untraced) - 1.0, "fraction"),
    }
