"""Tests for the streaming simulation engine and collectors."""

import pytest

from repro.algorithms import ALGORITHM_REGISTRY, FirstFit, NextFit, make_algorithm
from repro.algorithms.base import PackingAlgorithm
from repro.core.engine import (
    OpenBinsCollector,
    PlacementLogCollector,
    Snapshot,
    UtilizationCollector,
    simulate,
)
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.workloads.random_workloads import poisson_workload


def sample():
    return ItemList(
        [Item(0, 0.6, 0.0, 2.0), Item(1, 0.5, 0.5, 1.5), Item(2, 0.4, 1.0, 3.0)]
    )


class TestSimulate:
    def test_one_snapshot_per_event(self):
        snaps = list(simulate(sample(), FirstFit()))
        assert len(snaps) == 2 * 3

    def test_matches_batch_driver(self):
        """The generator and run_packing agree on the final state."""
        items = poisson_workload(60, seed=2)
        snaps = list(simulate(items, FirstFit()))
        batch = run_packing(items, FirstFit())
        assert snaps[-1].num_bins_used == batch.num_bins
        assert snaps[-1].num_open_bins == 0

    def test_snapshot_times_monotone(self):
        items = poisson_workload(40, seed=3)
        times = [s.time for s in simulate(items, NextFit())]
        assert times == sorted(times)

    def test_total_level_conserved(self):
        """Total level after each event equals the active-size sweep."""
        items = sample()
        active = 0.0
        for snap in simulate(items, FirstFit()):
            if snap.event.kind.name == "ARRIVE":
                active += snap.event.item.size
            else:
                active -= snap.event.item.size
            assert snap.total_level == pytest.approx(max(active, 0.0))

    def test_utilization_bounds(self):
        for snap in simulate(poisson_workload(50, seed=5), FirstFit()):
            assert 0.0 <= snap.utilization <= 1.0 + 1e-9

    def test_accepts_plain_item_iterable(self):
        """``items`` is taken as ``run_packing`` takes it: a plain list works."""
        snaps = list(simulate([Item(0, 0.6, 0.0, 2.0)], FirstFit()))
        assert [s.num_bins_used for s in snaps] == [1, 1]
        assert snaps[-1].num_open_bins == 0
        listed = [s.total_level for s in simulate(list(sample()), FirstFit())]
        assert listed == [s.total_level for s in simulate(sample(), FirstFit())]

    def test_lazy_evaluation(self):
        """The generator does work incrementally (can stop early)."""
        gen = simulate(poisson_workload(100, seed=7), FirstFit())
        first = next(gen)
        assert isinstance(first, Snapshot)
        gen.close()  # no error on abandoning the stream


class TestCollectors:
    def test_open_bins_collector_peak(self):
        c = OpenBinsCollector()
        c.consume(simulate(sample(), FirstFit()))
        batch = run_packing(sample(), FirstFit())
        assert c.peak == batch.max_concurrent_bins
        assert c.series[-1][1] == 0

    def test_utilization_collector_range(self):
        c = UtilizationCollector()
        c.consume(simulate(poisson_workload(80, seed=8), FirstFit()))
        assert 0.0 < c.mean_utilization <= 1.0

    def test_utilization_empty_stream(self):
        assert UtilizationCollector().mean_utilization == 0.0

    def test_placement_log(self):
        c = PlacementLogCollector()
        c.consume(simulate(sample(), FirstFit()))
        assert [e[1] for e in c.log] == [0, 1, 2]  # arrival order
        assert c.log[-1][2] == 2  # two bins used by then


def _batch_trace(items, algorithm):
    """``(num_open, num_bins_used, total_level)`` after each ``run_packing`` event."""
    trace = []

    def watch(event, state):
        trace.append((state.num_open, state.num_bins_used, state.total_level))

    run_packing(items, algorithm, observers=[watch])
    return trace


class _ClosedBinChooser(PackingAlgorithm):
    """Targets the first closed bin it finds — a driver-level bug."""

    name = "rogue-closed"

    def choose_bin(self, state, size):
        closed = [b for b in state.bins if b.is_closed]
        return closed[0] if closed else None


class _OverfullChooser(PackingAlgorithm):
    """Always targets the earliest open bin, whether or not it fits."""

    name = "rogue-overfull"

    def choose_bin(self, state, size):
        bins = state.open_bins()
        return bins[0] if bins else None


class TestSimulateMatchesRunPacking:
    """``simulate`` steps the batch driver: same states, event by event."""

    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_per_event_states(self, name):
        # dense enough that repack-ff finds evacuations to make
        items = poisson_workload(400, seed=3, arrival_rate=20)
        batch = _batch_trace(items, make_algorithm(name))
        stream = [
            (s.num_open_bins, s.num_bins_used, s.total_level)
            for s in simulate(items, make_algorithm(name))
        ]
        assert stream == batch

    @pytest.mark.parametrize(
        "rogue, items",
        [
            # bin 0 closes at t=1 before the second job arrives
            (_ClosedBinChooser, [Item(0, 0.5, 0.0, 1.0), Item(1, 0.5, 2.0, 3.0)]),
            (_OverfullChooser, [Item(0, 0.7, 0.0, 2.0), Item(1, 0.6, 1.0, 3.0)]),
        ],
        ids=["closed-bin", "overfull"],
    )
    def test_rogue_policy_raises_same_error(self, rogue, items):
        with pytest.raises(RuntimeError) as batch:
            run_packing(items, rogue())
        with pytest.raises(RuntimeError) as stream:
            list(simulate(items, rogue()))
        assert str(stream.value) == str(batch.value)
        assert str(batch.value).startswith(rogue.name + " chose ")
