"""Shared helpers: host-speed scaling, percentiles, /proc accounting, spawning.

Every process the benchmark starts is accounted for from outside:
CPU time from ``/proc/<pid>/task/*/schedstat`` and peak RSS
(``VmHWM``) from ``/proc/<pid>/status``, read before the process is
reaped.  No hook inside the program is needed for either.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

#: Seconds a service process may take to bind its port.
READY_TIMEOUT_S = 60.0

#: Nominal duration of one reference-kernel run (see :func:`kernel_s`).
REF_KERNEL_S = 0.015
#: Objects in the small kernel of :func:`probe_s`, and its nominal CPU time.
PROBE_OBJECTS = 2_000
REF_PROBE_S = REF_KERNEL_S * PROBE_OBJECTS / 20_000


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _kernel(n: int = 20_000) -> float:
    objs = []
    index = {}
    for i in range(n):
        obj = _Obj(i, i * 0.5)
        objs.append(obj)
        index[i] = obj
    total = 0.0
    for obj in objs:
        total += obj.b
        if obj.a in index:
            total += 1.0
    objs.sort(key=lambda o: -o.b)
    return total


def kernel_s() -> float:
    """Seconds one run of a fixed pure-Python reference kernel takes now.

    The host's speed drifts by tens of percent over seconds to minutes
    as other tenants come and go, and moves every timing with it.  The
    kernel (object allocation, dict and attribute access, a sort, like
    the program's own hot paths) slows down with the host; a timing
    taken between two kernel runs, scaled by ``REF_KERNEL_S / kernel_s``,
    reads what it would on a host where the kernel takes its nominal
    time.  Best of three runs, about 50 ms.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def probe_s() -> list[float]:
    """CPU seconds of one run of the reference kernel at a tenth of its size,
    on each CPU this process may use.

    Thread time, about 1.5 ms per CPU: short enough to interleave with
    the requests of a service pass, so that a pass's probes track the
    machine's speed while the pass ran (see :func:`kernel_s`).  Each CPU
    is probed, pinned to it, because their speeds differ and change
    apart (one CPU's kernel took 0.9 ms while the other's took 1.5 ms,
    and a second later both took 0.9 ms), and the service processes run
    on all of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.thread_time()
            _kernel(PROBE_OBJECTS)
            times.append(time.thread_time() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


class BenchError(RuntimeError):
    """The run cannot produce a valid result (reported, exit code 1)."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


class ProcStats:
    """CPU seconds and peak RSS of one live process, read from /proc."""

    def __init__(self, pid: int):
        self.pid = pid

    def cpu_s(self) -> float:
        """CPU time of the live threads, in ns resolution (schedstat)."""
        total = 0
        for tid in os.listdir(f"/proc/{self.pid}/task"):
            try:
                with open(f"/proc/{self.pid}/task/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:
                continue  # the thread ended between listdir and open
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(f"no VmHWM for pid {self.pid}")

    def children(self) -> list[int]:
        kids: list[int] = []
        for tid in os.listdir(f"/proc/{self.pid}/task"):
            try:
                with open(f"/proc/{self.pid}/task/{tid}/children") as f:
                    kids.extend(int(p) for p in f.read().split())
            except FileNotFoundError:
                continue
        return kids


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine, over all CPUs.

    The ``steal`` column of ``/proc/stat``; 0 on a machine that is not
    a guest.  Divided by ``online_cpus() * wall seconds`` it is the
    share of the machine's CPU time other tenants held in an interval.
    """
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def online_cpus() -> int:
    with open("/proc/stat") as f:
        return sum(1 for line in f if line.startswith("cpu") and line[3].isdigit())


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: str):
        self.path = os.path.join(root, ".e2ebench_work", str(os.getpid()))
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass


class Service:
    """One ``repro`` service process (``serve`` or ``fleet``) we started.

    ``start`` measures spawn-to-ready: the port file appears once the
    process has booted (including the boot-time WAL recovery) and bound
    its socket; ready means a TCP connect to it succeeds.
    """

    def __init__(self, args: list[str], env: dict, port_file: str, log_path: str,
                 wal_dir: str):
        self.args = args
        self.env = env
        self.port_file = port_file
        self.log_path = log_path
        self.wal_dir = wal_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "Service":
        try:
            os.remove(self.port_file)
        except FileNotFoundError:
            pass
        log = open(self.log_path, "ab")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.args],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        finally:
            log.close()
        deadline = t0 + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"repro {self.args[0]} exited with rc {self.proc.returncode} "
                    f"before binding (log: {self.log_path})"
                )
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    port = int(text)
                    with socket.create_connection(("127.0.0.1", port), timeout=5):
                        pass
                    self.port = port
                    break
            except (FileNotFoundError, ValueError, OSError):
                pass
            if time.perf_counter() > deadline:
                raise BenchError(f"repro {self.args[0]} not ready after {READY_TIMEOUT_S}s")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        return self

    def stats(self) -> ProcStats:
        return ProcStats(self.proc.pid)

    def wait(self, timeout: float = 30.0) -> int:
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"repro {self.args[0]} did not exit within {timeout}s")

    def kill(self) -> None:
        """SIGKILL the whole process group (fleet workers included) and reap."""
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
