"""The service workloads: ``serve-durable`` (open loop) and ``fleet-json``
(closed loop).

Both start the deployed commands (``repro serve``, ``repro fleet``) as
separate processes and drive them from this one client process over
one connection, speaking :mod:`repro.service.protocol`.  CPU time and
peak RSS of every server, router and worker process are read from
``/proc``.  The output checks compare what the service answered with a
batch ``run_packing`` of the same jobs, after the timed region.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import time

from common import (
    REF_PROBE_S, BenchError, ProcStats, Service, host_steal_s, median, online_cpus,
    percentile, probe_s,
)

# -- serve-durable -------------------------------------------------------------
#: Poisson stream at mu=8 whose arrival rate keeps about 5 bins open
#: (at most ~13): the 128-bin first-fit index never builds here.
SERVE_TRACE_RATE = 5.0
SERVE_MU = 8.0
#: offered rates (jobs/s) of the fixed steps
LOW_RPS = 500.0
HIGH_RPS = 1500.0
#: ladder for the sustainable rate (traced run, untraced steps; LOW and
#: HIGH are its first steps); it stops at the first rate past HIGH that
#: misses the limit
LADDER_RPS = (500.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0)
#: p99 latency a rate must meet to count as sustainable.  It sits above
#: the checkpoint stall (about 250 ms once 7500 jobs are served), which
#: every rate above ~100 jobs/s pays at p99; below the limit the figure
#: measures capacity, and the stall itself shows in latency_p99_ms.
P99_LIMIT_MS = 500.0
#: generator p99 lateness beyond which a step is not a valid open loop
LATE_LIMIT_MS = 5.0
#: a job without a reply this long after it was due counts as failed
REPLY_TIMEOUT_S = 30.0
#: fresh servers per timed run, each serving the whole stream at HIGH;
#: jobs_per_s reports the fastest (the quiet host), setup_s the median
SERVE_REPEATS = 5

# -- fleet-json ----------------------------------------------------------------
FLEET_SHARDS = 2
FLEET_TENANTS = 16
FLEET_TRACE_RATE = 5.0
FLEET_MU = 8.0
#: jobs per second of ``--seconds``: every fleet replays the same
#: ``seconds * FLEET_JOBS_PER_S / FLEET_REPEATS`` jobs (submit and depart
#: each), which on a quiet host fills about half of its share of the
#: run; booting the fleet takes the other half
FLEET_JOBS_PER_S = 350
#: requests between two runs of the reference probe (common.probe_s)
FLEET_PROBE_EVERY = 100
#: fresh fleets per timed run, each replaying the same stream, so every
#: fleet does the same work (its checkpoints grow with the jobs served);
#: jobs_per_s and setup_s report the median
FLEET_REPEATS = 4


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise BenchError("service closed the connection")
        buf += chunk
    return bytes(buf)


def _recv_line(sock: socket.socket, buf: bytearray) -> bytes:
    while True:
        nl = buf.find(b"\n")
        if nl >= 0:
            line = bytes(buf[:nl])
            del buf[: nl + 1]
            return line
        chunk = sock.recv(65536)
        if not chunk:
            raise BenchError("service closed the connection")
        buf += chunk


class BinaryConn:
    """One binary-protocol connection (negotiated with a JSON hello)."""

    def __init__(self, port: int):
        from repro.service import protocol as wire

        self.wire = wire
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(wire.hello_line("binary"))
        ack = json.loads(_recv_line(self.sock, bytearray()))
        if not ack.get("ok") or ack.get("protocol") != "binary":
            raise BenchError(f"binary hello refused: {ack}")

    def call_json(self, request: dict) -> dict:
        wire = self.wire
        data = wire.frame(wire.encode_json_request(request))
        self.sock.sendall(data)
        (length,) = wire.HEADER.unpack(_recv_exact(self.sock, wire.HEADER.size))
        return wire.decode_response(_recv_exact(self.sock, length))

    def close(self) -> None:
        self.sock.close()


class StepResult:
    """What one open-loop step at one offered rate observed."""

    def __init__(self, rate: float):
        self.rate = rate
        self.latencies_ms: list[float] = []
        self.late_ms: list[float] = []
        self.frames = 0
        self.jobs = 0
        self.failed = 0
        self.backlog_max = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.bins: dict[int, int] = {}
        self.errors: list[str] = []
        self.setup_s = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.wal: dict = {}
        self.wal_dir = ""

    @property
    def p50(self) -> float:
        return percentile(self.latencies_ms, 50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies_ms, 99)

    @property
    def late_p99(self) -> float:
        return percentile(self.late_ms, 99)


def open_loop(conn: BinaryConn, items, rate: float, step: StepResult) -> None:
    """Send each job when it is due; time it from its due time to its reply.

    Due times follow the seeded Poisson arrivals, scaled so the mean
    offered rate is ``rate`` jobs/s.  Every job already due when the
    generator wakes goes out in one BATCH frame, so a stall in the
    server never delays a send; it shows as latency of the jobs that
    were due during it.
    """
    wire = conn.wire
    sock = conn.sock
    n = len(items)
    span = items[n - 1].arrival - items[0].arrival
    scale = (n - 1) / (span * rate)  # wall seconds per trace time unit
    base = items[0].arrival
    offsets = [(it.arrival - base) * scale for it in items]
    subs = [wire.encode_submit(it) for it in items]
    header = wire.HEADER
    hsize = header.size
    frames: list[tuple[int, int]] = []  # (first job, end job) of each frame in flight
    replies: list[tuple[int, int, float, bytes]] = []
    rbuf = bytearray()
    sock.setblocking(False)
    start = time.perf_counter() + 0.01
    due = [start + off for off in offsets]
    sent = 0
    done = 0
    head = 0  # frames answered
    last_progress = time.perf_counter()
    try:
        while done < n:
            now = time.perf_counter()
            if sent < n and due[sent] <= now:
                end = sent
                while end < n and due[end] <= now:
                    end += 1
                data = wire.frame(wire.encode_batch(subs[sent:end]))
                sock.setblocking(True)
                sock.sendall(data)
                sock.setblocking(False)
                t_sent = time.perf_counter()
                step.late_ms.extend((t_sent - due[k]) * 1e3 for k in range(sent, end))
                step.bytes_in += len(data)
                frames.append((sent, end))
                step.frames += 1
                sent = end
                backlog = sent - done
                if backlog > step.backlog_max:
                    step.backlog_max = backlog
                continue
            wait = (due[sent] - time.perf_counter()) if sent < n else 0.5
            if wait > 0:
                ready, _, _ = select.select([sock], [], [], wait)
                if not ready:
                    if sent >= n and time.perf_counter() - last_progress > REPLY_TIMEOUT_S:
                        break
                    continue
            try:
                chunk = sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not chunk:
                raise BenchError("server closed the connection mid-run")
            t_recv = time.perf_counter()
            last_progress = t_recv
            step.bytes_out += len(chunk)
            rbuf += chunk
            while len(rbuf) >= hsize:
                (length,) = header.unpack_from(rbuf)
                if len(rbuf) < hsize + length:
                    break
                payload = bytes(rbuf[hsize : hsize + length])
                del rbuf[: hsize + length]
                first, end = frames[head]
                head += 1
                replies.append((first, end, t_recv, payload))
                done = end
    finally:
        sock.setblocking(True)
    step.jobs = n
    # decode after the timed loop: the generator's own work stays small
    answered = 0
    for first, end, t_recv, payload in replies:
        subs_out = wire.split_batch(payload)
        for k, sub in zip(range(first, end), subs_out):
            doc = wire.decode_response(sub)
            answered += 1
            placement = doc.get("placement") if doc.get("ok") else None
            if placement is None or placement["action"] != "placed":
                step.failed += 1
                step.errors.append(f"job {items[k].item_id}: {doc}")
                continue
            step.bins[items[k].item_id] = placement["bin"]
            step.latencies_ms.append((t_recv - due[k]) * 1e3)
    step.failed += n - answered


def serve_jobs(seconds: float, rates) -> int:
    """Jobs per step so that open loops at ``rates`` fill ``seconds``.

    Every step replays the same seeded stream from its start on a fresh
    server, so every step carries the same history (the checkpoint grows
    with every job served).  A count that is not a multiple of the
    checkpoint interval leaves a WAL tail for recovery to replay.
    """
    n = int(seconds / sum(1.0 / r for r in rates))
    return n + 1 if n % 1000 == 0 else n


def serve_stream(seed: int, jobs: int):
    from repro.workloads.random_workloads import poisson_workload

    return poisson_workload(
        jobs, seed=seed, arrival_rate=SERVE_TRACE_RATE, mu_target=SERVE_MU
    )


def start_server(env, work, tag, trace_dir=None) -> Service:
    wal_dir = work.sub(f"wal-{tag}")
    port_file = os.path.join(work.path, f"port-{tag}")
    svc = Service(
        ["serve", "--port", "0", "--port-file", port_file, "--wal-dir", wal_dir, "--quiet"],
        traced_env(env, trace_dir), port_file, os.path.join(work.path, f"serve-{tag}.log"), wal_dir,
    )
    return svc.start()


def serve_step(items, rate, env, work, tag, trace_dir=None) -> StepResult:
    """One fresh durable server, one open-loop pass at ``rate``.

    ``cpu_s`` is the server's CPU time from ready to the end of the
    pass, so it excludes boot.  Untraced servers are killed (SIGKILL)
    after the pass; traced ones are shut down so they write their spans.
    """
    step = StepResult(rate)
    svc = start_server(env, work, tag, trace_dir)
    step.wal_dir = svc.wal_dir
    try:
        step.setup_s = svc.setup_s
        proc = svc.stats()
        cpu0 = proc.cpu_s()
        conn = BinaryConn(svc.port)
        try:
            open_loop(conn, items, rate, step)
            stats = conn.call_json({"op": "stats"})
            step.wal = stats.get("stats", {}).get("wal", {})
            step.cpu_s = proc.cpu_s() - cpu0
            step.rss_mb = proc.peak_rss_mb()
            if trace_dir is not None:
                conn.call_json({"op": "shutdown"})
        finally:
            conn.close()
        if trace_dir is not None:
            svc.wait()
    finally:
        svc.kill()
    return step


def traced_env(env: dict, trace_dir) -> dict:
    """``env`` plus, for a traced process, the start-up hook that records spans."""
    if trace_dir is None:
        return env
    hook = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook")
    return dict(env, E2EBENCH_SPANS_DIR=trace_dir,
                PYTHONPATH=env["PYTHONPATH"] + os.pathsep + hook)


def batch_packing(items):
    from repro.algorithms import make_algorithm
    from repro.core import run_packing

    return run_packing(items, make_algorithm("first-fit"))


def check_step(step: StepResult, batch) -> list[str]:
    errors = list(step.errors[:5])
    if step.bins != batch.item_bin:
        wrong = sum(1 for k, v in batch.item_bin.items() if step.bins.get(k) != v)
        errors.append(f"serve-durable @{step.rate:g}/s: {wrong} live placements differ from batch")
    return errors


def recover_and_check(step: StepResult, batch):
    """Time ``recover`` on the killed server's WAL dir; finish and compare."""
    from repro.service.metrics import MetricsRegistry
    from repro.service.recovery import recover
    from repro.service.server import build_engine

    t0 = time.perf_counter()
    durable, report = recover(
        step.wal_dir, engine_builder=build_engine, metrics=MetricsRegistry()
    )
    recover_s = time.perf_counter() - t0
    try:
        result = durable.engine.finish()
    finally:
        durable.close()
    errors = []
    if result.item_bin != batch.item_bin or result.total_usage_time != batch.total_usage_time:
        errors.append("serve-durable: recovered engine's packing differs from batch")
    return recover_s, report, errors


def sustainable_rate(steps) -> float:
    """Highest ladder rate meeting the p99 limit with a valid generator.

    Rates past the first failing step do not count.  Interpolated
    (log-log) between the last passing and the first failing step, so
    the figure moves smoothly with the service's speed.
    """
    ok = lambda s: s.failed == 0 and s.p99 <= P99_LIMIT_MS and s.late_p99 <= LATE_LIMIT_MS  # noqa: E731
    steps = sorted(steps, key=lambda s: s.rate)
    best = None
    for i, s in enumerate(steps):
        if not ok(s):
            break
        best = i
    if best is None:
        return 0.0  # not even the lowest rate meets the limit
    if best == len(steps) - 1:
        return steps[best].rate
    lo, hi = steps[best], steps[best + 1]
    if hi.p99 <= lo.p99 or hi.failed or hi.late_p99 > LATE_LIMIT_MS:
        return lo.rate
    frac = (math.log(P99_LIMIT_MS) - math.log(lo.p99)) / (math.log(hi.p99) - math.log(lo.p99))
    return lo.rate * (hi.rate / lo.rate) ** min(max(frac, 0.0), 1.0)


def _usage_ratio(total_usage, items) -> float:
    return total_usage / max(items.span, items.time_space_demand)


def run_serve(seed, seconds, trace, work, env):
    import repro.service.recovery  # noqa: F401  (imported before recover is timed)

    errors: list[str] = []
    if not trace:
        # the end-to-end metrics are the HIGH rate's; LOW runs in the
        # traced run, whose untraced ladder includes it
        items = serve_stream(seed, serve_jobs(seconds / SERVE_REPEATS, (HIGH_RPS,)))
        batch = batch_packing(items)
        highs = [serve_step(items, HIGH_RPS, env, work, f"high{r}") for r in range(SERVE_REPEATS)]
        for step in highs:
            errors += check_step(step, batch)
        _, _, rerrors = recover_and_check(highs[-1], batch)
        errors += rerrors
        metrics = {
            "setup_s": (median([s.setup_s for s in highs]), "s"),
            # the server's own speed, not the offered rate an open loop
            # completes; the fastest server stands for the quiet host
            "jobs_per_s": (max(s.jobs / s.cpu_s for s in highs), "jobs/s"),
            "usage_ratio": (_usage_ratio(batch.total_usage_time, items), "ratio"),
            "peak_rss_mb": (max(s.rss_mb for s in highs), "MB"),
        }
        return metrics, sum(s.jobs for s in highs), sum(s.failed for s in highs), errors

    import layers
    import spans

    # untraced: the sustainable-rate ladder (its LOW and HIGH steps are
    # the reference for the tracing overhead); traced: HIGH again
    items = serve_stream(seed, serve_jobs(seconds, (LOW_RPS, HIGH_RPS)))
    batch = batch_packing(items)
    ladder = []
    for i, rate in enumerate(LADDER_RPS):
        step = serve_step(items, rate, env, work, f"ladder{i}")
        errors += check_step(step, batch)
        ladder.append(step)
        if step.rate > HIGH_RPS and step.p99 > P99_LIMIT_MS:
            break  # the first failing step bounds the interpolation
    plain = {s.rate: s for s in ladder}
    recover_s, _, rerrors = recover_and_check(plain[HIGH_RPS], batch)
    errors += rerrors
    trace_dir = work.sub("spans")
    traced = serve_step(items, HIGH_RPS, env, work, "traced", trace_dir=trace_dir)
    errors += check_step(traced, batch)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        _, report, rerrors = recover_and_check(traced, batch)
    finally:
        spans.uninstall(undo)
    errors += rerrors
    server = spans.merge([
        spans.summarize(spans.load(os.path.join(trace_dir, name)))
        for name in sorted(os.listdir(trace_dir)) if name.endswith(".spans")
    ])
    bench = spans.summarize(spans.from_recorder(rec))
    restore = bench["spans"].get("service.snapshot.restore", {"total_s": 0.0})
    replay = bench["spans"].get("service.recovery.replay", {"total_s": 0.0, "calls": 0})
    high = plain[HIGH_RPS]
    attempted = sum(s.jobs for s in ladder) + traced.jobs
    failed = sum(s.failed for s in ladder) + traced.failed
    extra = {
        **wal_metrics([traced.wal]),
        "service.snapshot.bytes_last": _last_checkpoint_bytes(traced.wal_dir),
        "service.snapshot.restore_ms": restore["total_s"] * 1e3,
        "service.recovery.replayed_records": report.replayed,
        "service.recovery.replay_us_per_record": (
            replay["total_s"] * 1e6 / replay["calls"] if replay["calls"] else 0.0
        ),
        "service.protocol.frames": traced.frames,
        "service.protocol.bytes_in": traced.bytes_in,
        "service.protocol.bytes_out": traced.bytes_out,
        "service.server.cpu_us_per_request": traced.cpu_s * 1e6 / traced.jobs,
        "service.server.self_us_per_request": (
            (traced.cpu_s - server["root_children_s"]) * 1e6 / traced.jobs
        ),
        "unscaled.jobs_per_s": high.jobs / high.cpu_s,
        "latency_p50_ms": high.p50,
        "latency_p99_ms": high.p99,
        "client.late_p99_ms": high.late_p99,
        "client.jobs_per_frame": high.jobs / high.frames,
        "client.backlog_max": high.backlog_max,
        "client.low.latency_p50_ms": plain[LOW_RPS].p50,
        "client.low.latency_p99_ms": plain[LOW_RPS].p99,
        "client.sustainable_rps": sustainable_rate(ladder),
        "failed_frac": failed / attempted,
        "recover_s": recover_s,
    }
    metrics = layers.per_layer(server, extra)
    metrics.update(layers.overhead(
        high.jobs / high.cpu_s, traced.jobs / traced.cpu_s, high.p50, traced.p50,
    ))
    return metrics, attempted, failed, errors


def wal_metrics(wal_stats: list) -> dict:
    """The WAL layer's own counters, summed over the ``stats`` op replies."""
    records = sum(w.get("records_written", 0) for w in wal_stats)
    fsyncs = sum(w.get("fsyncs", 0) for w in wal_stats)
    return {
        "service.wal.records": records,
        "service.wal.bytes": sum(w.get("bytes_written", 0) for w in wal_stats),
        "service.wal.fsyncs": fsyncs,
        "service.wal.records_per_fsync": records / fsyncs if fsyncs else 0.0,
    }


def _last_checkpoint_bytes(wal_dir: str) -> int:
    from repro.service.recovery import CHECKPOINT_PREFIX

    names = sorted(n for n in os.listdir(wal_dir) if n.startswith(CHECKPOINT_PREFIX))
    return os.path.getsize(os.path.join(wal_dir, names[-1])) if names else 0


# -- fleet-json ---------------------------------------------------------------
def fleet_jobs(seconds: float, fleets: int) -> int:
    return max(100, int(seconds * FLEET_JOBS_PER_S / fleets))


def fleet_events(seed: int, jobs: int):
    """Submit and depart events of ``jobs`` seeded Poisson jobs, in time order."""
    from repro.service.loadgen import build_events, tenantize
    from repro.workloads.random_workloads import poisson_workload

    items = poisson_workload(
        jobs, seed=seed, arrival_rate=FLEET_TRACE_RATE, mu_target=FLEET_MU
    )
    ordered = tenantize(sorted(items, key=lambda it: it.arrival), FLEET_TENANTS)
    return build_events(ordered, departs=True)


def boot_fleet(env, work, tag):
    wal_dir = work.sub(f"fleet-{tag}")
    port_file = os.path.join(work.path, f"fleet-port-{tag}")
    svc = Service(
        ["fleet", "--shards", str(FLEET_SHARDS), "--wal-dir", wal_dir, "--port", "0",
         "--port-file", port_file, "--tenants", str(FLEET_TENANTS), "--quiet"],
        env, port_file, os.path.join(work.path, f"fleet-{tag}.log"), wal_dir,
    )
    return svc.start()


class JsonConn:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.bytes_in = 0
        self.bytes_out = 0

    def call(self, request: dict) -> dict:
        line = (json.dumps(request) + "\n").encode()
        self.sock.sendall(line)
        reply = _recv_line(self.sock, self.buf)
        self.bytes_in += len(line)
        self.bytes_out += len(reply) + 1
        return json.loads(reply)

    def close(self) -> None:
        self.sock.close()


def fleet_pass(events, env, work, tag, trace_dir=None):
    """Boot a fleet, send every event closed-loop, drain, shut down.

    ``cpu_s`` is the CPU time of router and workers from ready to the
    last reply; ``steal_share`` the share of the machine's CPU time the
    hypervisor gave other tenants meanwhile (:func:`host_steal_s`);
    ``probe_s`` the reference probe's time (:func:`probe_s`, run in this
    process every ``FLEET_PROBE_EVERY`` requests while the fleet waits):
    the mean over CPUs of each CPU's median.  ``wall_s`` leaves the
    probes out.
    """
    from repro.service.loadgen import DEPART_EVENT

    svc = boot_fleet(traced_env(env, trace_dir), work, tag)
    out = {"setup_s": svc.setup_s, "latencies_ms": [], "failed": 0, "errors": [],
           "bins": {}, "submitted": [], "router_pid": svc.proc.pid}
    try:
        router = svc.stats()
        procs = [router] + [ProcStats(pid) for pid in router.children()]
        conn = JsonConn(svc.port)
        try:
            cpu0 = [p.cpu_s() for p in procs]
            steal0 = host_steal_s()
            t0 = time.perf_counter()
            n = 0
            probes: list[list[float]] = []
            probe_wall = 0.0
            for _, kind, it in events:
                is_submit = kind != DEPART_EVENT
                if is_submit:
                    request = {"op": "submit", "job": {
                        "id": it.item_id, "size": it.size,
                        "arrival": it.arrival, "departure": it.departure}}
                elif it.item_id in out["bins"]:
                    request = {"op": "depart", "id": it.item_id}
                else:
                    continue  # its submit was never answered
                sent = time.perf_counter()
                reply = conn.call(request)
                out["latencies_ms"].append((time.perf_counter() - sent) * 1e3)
                n += 1
                if n % FLEET_PROBE_EVERY == 0:
                    w0 = time.perf_counter()
                    probes.append(probe_s())
                    probe_wall += time.perf_counter() - w0
                if not reply.get("ok"):
                    out["failed"] += 1
                    out["errors"].append(f"{request['op']} {it.item_id}: {reply}")
                elif is_submit:
                    out["bins"][it.item_id] = reply["placement"]["bin"]
                    out["submitted"].append(it)
            wall = time.perf_counter() - t0
            cpu = [p.cpu_s() - c for p, c in zip(procs, cpu0)]
            out["steal_share"] = (host_steal_s() - steal0) / (online_cpus() * wall)
            out["wall_s"] = wall - probe_wall
            out["probe_s"] = sum(median(on_cpu) for on_cpu in zip(*probes)) / len(probes[0])
            out["cpu_s"] = sum(cpu)
            out["router_cpu_s"], out["worker_cpu_s"] = cpu[0], sum(cpu[1:])
            out["requests"] = n
            out["bytes_in"], out["bytes_out"] = conn.bytes_in, conn.bytes_out
            out["drain"] = conn.call({"op": "drain"})
            stats = conn.call({"op": "stats"})
            out["router"] = stats.get("stats", {}).get("router", {})
            out["shard_stats"] = stats.get("stats", {}).get("shards", [])
            out["rss_mb"] = sum(p.peak_rss_mb() for p in procs)
            conn.call({"op": "shutdown"})
        finally:
            conn.close()
        svc.wait()
    finally:
        svc.kill()
    out["checkpoint_bytes"] = sum(
        _last_checkpoint_bytes(os.path.join(svc.wal_dir, name))
        for name in sorted(os.listdir(svc.wal_dir)) if name.startswith("shard-")
    )
    return out


def check_fleet(out) -> list[str]:
    """Each shard's packing equals a batch packing of its tenant subset."""
    from repro.core import ItemList
    from repro.service.router import partition_items

    errors = list(out["errors"][:5])
    parts = partition_items(out["submitted"], FLEET_SHARDS, tenants=FLEET_TENANTS)
    shards = out["drain"].get("shards", [])
    if len(shards) != FLEET_SHARDS:
        return errors + [f"fleet-json: drain reported {len(shards)} shards"]
    for k, part in enumerate(parts):
        if not part:
            continue
        batch = batch_packing(ItemList(part))
        live = {it.item_id: out["bins"][it.item_id] for it in part}
        if live != batch.item_bin:
            errors.append(f"fleet-json: shard {k} placements differ from batch")
        if shards[k]["total_usage_time"] != batch.total_usage_time:
            errors.append(f"fleet-json: shard {k} usage time differs from batch")
    return errors


def fleet_jobs_per_cpu_s(out) -> float:
    """Submits per CPU second of router + workers, on a quiet machine.

    The callers' wall-clock rate is set by the host's wake-up delays,
    which swing it by more than any bound, so the fleet's own CPU time
    is counted instead.  That too moves with the load of other tenants,
    in two ways, and is corrected for both:

    - while the hypervisor takes the machine's CPUs, the fleet's CPU
      time grows (by up to 1.7x as it took a quarter of them): it is
      discounted by the share of CPU time they held during the pass;
    - while the CPUs are shared less visibly, everything runs slower (a
      fixed kernel's CPU time swings by up to 1.7x): it is scaled by
      ``REF_PROBE_S / probe_s``, the reference probe interleaved with
      the pass.

    On a quiet machine both factors are 1.
    """
    quiet_cpu_s = out["cpu_s"] * (1.0 - out["steal_share"]) * REF_PROBE_S / out["probe_s"]
    return len(out["submitted"]) / quiet_cpu_s


def fleet_usage_ratio(out) -> float:
    from repro.core import ItemList

    items = ItemList(out["submitted"])
    return _usage_ratio(out["drain"]["total_usage_time"], items)


def run_fleet(seed, seconds, trace, work, env):
    if not trace:
        events = fleet_events(seed, fleet_jobs(seconds, FLEET_REPEATS))
        runs = [fleet_pass(events, env, work, f"run{r}") for r in range(FLEET_REPEATS)]
        errors = [e for out in runs for e in check_fleet(out)]
        metrics = {
            "setup_s": (median([out["setup_s"] for out in runs]), "s"),
            "jobs_per_s": (median([fleet_jobs_per_cpu_s(out) for out in runs]), "jobs/s"),
            "usage_ratio": (median([fleet_usage_ratio(out) for out in runs]), "ratio"),
            "peak_rss_mb": (max(out["rss_mb"] for out in runs), "MB"),
        }
        attempted = sum(out["requests"] for out in runs)
        return metrics, attempted, sum(out["failed"] for out in runs), errors

    import layers
    import spans

    events = fleet_events(seed, fleet_jobs(seconds, 2))
    plain = fleet_pass(events, env, work, "plain")
    trace_dir = work.sub("spans")
    traced = fleet_pass(events, env, work, "traced", trace_dir=trace_dir)
    errors = check_fleet(plain) + check_fleet(traced)
    procs = {
        name: spans.summarize(spans.load(os.path.join(trace_dir, name)))
        for name in sorted(os.listdir(trace_dir)) if name.endswith(".spans")
    }
    summary = spans.merge(list(procs.values()))
    worker_children = sum(
        p["root_children_s"] for name, p in procs.items()
        if name != f"{traced['router_pid']}.spans"
    )
    requests = traced["requests"]
    per_shard = traced["router"].get("per_shard_requests", [])
    mean = sum(per_shard) / len(per_shard) if per_shard else 0.0
    extra = {
        **wal_metrics([sh.get("wal", {}) for sh in traced["shard_stats"]]),
        "service.snapshot.bytes_last": traced["checkpoint_bytes"],
        "service.protocol.frames": requests,
        "service.protocol.bytes_in": traced["bytes_in"],
        "service.protocol.bytes_out": traced["bytes_out"],
        "service.server.cpu_us_per_request": traced["worker_cpu_s"] * 1e6 / requests,
        "service.server.self_us_per_request": (
            (traced["worker_cpu_s"] - worker_children) * 1e6 / requests
        ),
        "service.router.cpu_us_per_request": traced["router_cpu_s"] * 1e6 / requests,
        "service.router.shard_skew": max(per_shard) / mean if mean else 0.0,
        "service.router.retries": sum(traced["router"].get("reconnects", [])),
        "service.router.breaker_rejects": sum(traced["router"].get("breaker_rejected", [])),
        "unscaled.jobs_per_s": len(plain["submitted"]) / plain["wall_s"],
        "latency_p50_ms": percentile(plain["latencies_ms"], 50),
        "latency_p99_ms": percentile(plain["latencies_ms"], 99),
    }
    attempted = plain["requests"] + traced["requests"]
    failed = plain["failed"] + traced["failed"]
    extra["failed_frac"] = failed / attempted
    metrics = layers.per_layer(summary, extra)
    metrics.update(layers.overhead(
        plain["requests"] / plain["wall_s"], traced["requests"] / traced["wall_s"],
        percentile(plain["latencies_ms"], 50), percentile(traced["latencies_ms"], 50),
    ))
    return metrics, attempted, failed, errors


def run(name, seed, seconds, trace, work, env):
    if name == "serve-durable":
        return run_serve(seed, seconds, trace, work, env)
    return run_fleet(seed, seconds, trace, work, env)
