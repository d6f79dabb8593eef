"""Span recording for the traced run, installed from outside the program.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces
public entry points of each layer (functions on modules, methods on
classes) with wrappers that record one span per call: name, start,
end, parent.  Spans stay in memory in compact arrays and are written
once, when the process ends (:func:`dump`).  The benchmark process
installs the wrappers directly; service processes get them through
``hook/sitecustomize.py`` on the traced run's ``PYTHONPATH``.

Self time of a span is its duration minus the time its direct children
cover (:func:`summarize`).  Because wrappers are installed on the
class or module attribute, a caller that bound the original function
before :func:`install` ran keeps calling it untraced; every target
below is looked up at call time by the code that calls it.  Every
target is a plain function that returns before the event loop runs
anything else, so one span stack per process is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from array import array
from time import perf_counter

#: (span name, module, attribute path) for every wrapped entry point.
#: The span name's prefix is the layer it is attributed to.
TARGETS = (
    ("core.driver.run_events", "repro.core.packing", "run_events"),
    ("multidim.run_events", "repro.multidim.packing", "run_events"),
    ("core.state.place", "repro.core.state", "BasePackingState.place"),
    ("core.state.depart", "repro.core.state", "BasePackingState.depart"),
    ("core.state.migrate", "repro.core.state", "BasePackingState.migrate"),
    ("core.state.place", "repro.core.state", "PackingState.place"),
    ("core.state.depart", "repro.core.state", "PackingState.depart"),
    ("core.state.migrate", "repro.core.state", "PackingState.migrate"),
    ("core.ffindex.build", "repro.core.state", "BasePackingState._activate_index"),
    ("core.ffindex.select", "repro.core.state", "PackingState.first_fit_bin"),
    ("core.ffindex.select", "repro.multidim.state", "VectorPackingState.first_fit_bin"),
    ("core.ffindex.query", "repro.core.ffindex", "FirstFitIndex.first_fit"),
    ("core.ffindex.query", "repro.core.ffindex", "VectorFirstFitIndex.first_fit"),
    ("algorithms.migration.plan", "repro.algorithms.migration", "BudgetedRepack.plan_migrations"),
    ("service.engine.submit", "repro.service.engine", "StreamingEngine.submit"),
    ("service.engine.depart", "repro.service.engine", "StreamingEngine._apply_departure"),
    ("service.metrics.call", "repro.service.metrics", "Counter.inc"),
    ("service.metrics.call", "repro.service.metrics", "Gauge.set"),
    ("service.metrics.call", "repro.service.metrics", "Gauge.inc"),
    ("service.metrics.call", "repro.service.metrics", "Histogram.observe"),
    ("service.wal.append", "repro.service.wal", "WriteAheadLog.append"),
    ("service.wal.append", "repro.service.wal", "WriteAheadLog.append_many"),
    ("service.snapshot.checkpoint", "repro.service.recovery", "DurableEngine.checkpoint_now"),
    ("service.snapshot.restore", "repro.service.recovery", "restore_engine"),
    ("service.recovery.submit", "repro.service.recovery", "DurableEngine.submit"),
    ("service.recovery.submit", "repro.service.recovery", "DurableEngine.submit_many"),
    ("service.recovery.replay", "repro.service.recovery", "_replay_record"),
    ("service.protocol.decode", "repro.service.protocol", "split_batch"),
    ("service.protocol.decode", "repro.service.protocol", "decode_submit"),
    ("service.protocol.decode", "repro.service.protocol", "decode_depart"),
    ("service.protocol.decode", "repro.service.protocol", "decode_response"),
    ("service.protocol.encode", "repro.service.protocol", "encode_batch"),
    ("service.protocol.encode", "repro.service.protocol", "encode_placement"),
    ("service.protocol.encode", "repro.service.protocol", "encode_clock"),
    ("service.protocol.encode", "repro.service.protocol", "encode_json_response"),
    ("service.protocol.encode", "repro.service.protocol", "encode_json_request"),
    ("service.server.frame", "repro.service.server", "AllocationService._dispatch_frame"),
)

#: Counts taken from a wrapped call's arguments and result:
#: span name -> ``tally(args, result)`` returning ``{counter: amount}``.
TALLIES = {
    "core.driver.run_events": lambda args, out: {"core.driver.events": 2 * len(args[0])},
    "multidim.run_events": lambda args, out: {"multidim.events": 2 * len(args[0])},
    "algorithms.migration.plan": lambda args, out: {
        "algorithms.migration.moves": len(out),
        "algorithms.migration.useful": 1 if out else 0,
    },
    "service.wal.append": lambda args, out: {
        "service.wal.appended": len(out) if isinstance(out, list) else 1,
    },
}

#: Spans kept per process; calls past the cap are counted, not stored.
MAX_SPANS = 3_000_000


class Recorder:
    """Spans of one process, as parallel arrays (about 28 bytes a span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.dropped = 0
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        rec = self
        tally = TALLIES.get(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            if idx >= MAX_SPANS:
                rec.dropped += 1
                return fn(*args, **kwargs)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if tally is not None:
                for key, amount in tally(args, out).items():
                    rec.count(key, amount)
            return out

        traced.__wrapped_by_e2ebench__ = True
        return traced

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own calls)."""
        return _Span(self, self.name_id(name))

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            head = json.dumps({
                "names": self.names,
                "n": len(self.start),
                "dropped": self.dropped,
                "counts": self.counts,
            }).encode()
            f.write(len(head).to_bytes(8, "little"))
            f.write(head)
            self.name.tofile(f)
            self.start.tofile(f)
            self.end.tofile(f)
            self.parent.tofile(f)
        os.replace(tmp, path)


class _Span:
    __slots__ = ("rec", "nid", "idx", "t0")

    def __init__(self, rec: Recorder, nid: int):
        self.rec = rec
        self.nid = nid

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.start)
        rec.name.append(self.nid)
        rec.parent.append(rec.stack[-1] if rec.stack else -1)
        rec.start.append(0.0)
        rec.end.append(0.0)
        rec.stack.append(self.idx)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.end[self.idx] = perf_counter()
        rec.start[self.idx] = self.t0
        rec.stack.pop()
        return False


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(rec: Recorder) -> list:
    """Wrap every target; returns ``(owner, attr, original)`` for :func:`uninstall`."""
    undo = []
    for name, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if getattr(original, "__wrapped_by_e2ebench__", False):
            continue
        setattr(owner, attr, rec.wrap(name, original))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def load(path: str) -> dict:
    """Read one dumped span file back as numpy arrays."""
    import numpy as np

    with open(path, "rb") as f:
        size = int.from_bytes(f.read(8), "little")
        head = json.loads(f.read(size))
        n = head["n"]
        name = np.fromfile(f, dtype=np.uint16, count=n)
        start = np.fromfile(f, dtype=np.float64, count=n)
        end = np.fromfile(f, dtype=np.float64, count=n)
        parent = np.fromfile(f, dtype=np.int64, count=n)
    head.update(name=name, start=start, end=end, parent=parent)
    return head


def from_recorder(rec: Recorder) -> dict:
    """The in-memory equivalent of :func:`load` for this process's spans."""
    import numpy as np

    return {
        "names": list(rec.names),
        "n": len(rec.start),
        "dropped": rec.dropped,
        "counts": dict(rec.counts),
        "name": np.frombuffer(rec.name, dtype=np.uint16).copy(),
        "start": np.frombuffer(rec.start, dtype=np.float64).copy(),
        "end": np.frombuffer(rec.end, dtype=np.float64).copy(),
        "parent": np.frombuffer(rec.parent, dtype=np.int64).copy(),
    }


def summarize(trace: dict) -> dict:
    """Per span name ``calls``, ``total_s``, ``self_s`` and ``durations``.

    Self time is a span's duration minus its direct children's.  Also
    returns the process's counts, the spans dropped past the cap, and
    ``root_children_s``: time inside top-level spans that an
    instrumented child layer accounts for.
    """
    import numpy as np

    name, parent = trace["name"], trace["parent"]
    dur = trace["end"] - trace["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    rows = {}
    for nid, label in enumerate(trace["names"]):
        mask = name == nid
        rows[label] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "durations": dur[mask],
        }
    roots = ~has_parent
    under_root = has_parent.copy()
    under_root[has_parent] = roots[parent[has_parent]]
    return {
        "spans": rows,
        "counts": dict(trace.get("counts", {})),
        "dropped": int(trace.get("dropped", 0)),
        "root_children_s": float(dur[under_root].sum()),
    }


def merge(summaries: list) -> dict:
    """Add up the summaries of several processes."""
    import numpy as np

    out = {"spans": {}, "counts": {}, "dropped": 0, "root_children_s": 0.0}
    for summary in summaries:
        out["dropped"] += summary["dropped"]
        out["root_children_s"] += summary["root_children_s"]
        for key, value in summary["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0.0) + value
        for label, row in summary["spans"].items():
            acc = out["spans"].get(label)
            if acc is None:
                out["spans"][label] = dict(row)
                continue
            acc["calls"] += row["calls"]
            acc["total_s"] += row["total_s"]
            acc["self_s"] += row["self_s"]
            acc["durations"] = np.concatenate([acc["durations"], row["durations"]])
    return out
