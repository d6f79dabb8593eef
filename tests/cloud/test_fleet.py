"""Tests for heterogeneous fleet dispatching."""

import pytest

from repro.algorithms import FirstFit
from repro.cloud.billing import ContinuousBilling, HourlyBilling
from repro.cloud.fleet import (
    DEFAULT_FLEET_CATALOGUE,
    BestDensity,
    CheapestFitting,
    FleetDispatcher,
    SmallestFitting,
)
from repro.cloud.server import InstanceType
from repro.core.items import Item, ItemList
from repro.core.packing import run_packing
from repro.workloads.gaming import gaming_workload
from repro.workloads.random_workloads import poisson_workload


def jobs(*tuples):
    return ItemList([Item(i, s, a, d) for i, (s, a, d) in enumerate(tuples)])


SMALL = InstanceType("s", capacity=0.5, hourly_price=0.6)
MEDIUM = InstanceType("m", capacity=1.0, hourly_price=1.0)
LARGE = InstanceType("l", capacity=2.0, hourly_price=1.8)
CAT = (SMALL, MEDIUM, LARGE)


class TestLaunchPolicies:
    def test_smallest_fitting(self):
        item = Item(0, 0.4, 0, 1)
        assert SmallestFitting().choose_type(CAT, item) is SMALL
        item = Item(0, 0.7, 0, 1)
        assert SmallestFitting().choose_type(CAT, item) is MEDIUM

    def test_cheapest_fitting(self):
        # price order: s (0.6) < m (1.0) < l (1.8)
        assert CheapestFitting().choose_type(CAT, Item(0, 0.4, 0, 1)) is SMALL
        assert CheapestFitting().choose_type(CAT, Item(0, 1.5, 0, 1)) is LARGE

    def test_best_density(self):
        # density: s 1.2, m 1.0, l 0.9 → large wins whenever feasible
        assert BestDensity().choose_type(CAT, Item(0, 0.1, 0, 1)) is LARGE

    def test_no_feasible_type_raises(self):
        with pytest.raises(ValueError, match="no instance type"):
            SmallestFitting().choose_type((SMALL,), Item(0, 0.9, 0, 1))


class TestFleetDispatcher:
    def test_oversized_job_rejected(self):
        d = FleetDispatcher((SMALL,))
        with pytest.raises(ValueError, match="exceeds"):
            d.dispatch(jobs((0.9, 0, 1)))

    def test_first_fit_across_types(self):
        # job 0 opens a small server; job 1 fits it and must reuse it
        d = FleetDispatcher(CAT, launch_policy=SmallestFitting())
        report = d.dispatch(jobs((0.2, 0, 4), (0.2, 1, 3)))
        assert report.num_servers == 1
        assert report.servers[0].instance_type is SMALL

    def test_launch_when_nothing_fits(self):
        d = FleetDispatcher(CAT, launch_policy=SmallestFitting())
        report = d.dispatch(jobs((0.5, 0, 4), (0.3, 1, 3)))
        # first job fills the small server exactly → second needs a new one
        assert report.num_servers == 2

    def test_large_server_consolidates(self):
        d = FleetDispatcher(CAT, launch_policy=BestDensity())
        report = d.dispatch(jobs((0.8, 0, 4), (0.8, 1, 3), (0.4, 2, 4)))
        # one large server (capacity 2) holds all three (peak 2.0)
        assert report.num_servers == 1
        assert report.servers[0].instance_type is LARGE

    def test_costs_use_type_price(self):
        d = FleetDispatcher((MEDIUM,), billing=ContinuousBilling())
        report = d.dispatch(jobs((0.5, 0, 3)))
        assert report.total_cost == pytest.approx(3.0 * MEDIUM.hourly_price)

    def test_hourly_billing_rounds_up(self):
        d = FleetDispatcher((MEDIUM,), billing=HourlyBilling())
        report = d.dispatch(jobs((0.5, 0.0, 2.5)))
        assert report.total_cost == pytest.approx(3.0)

    def test_all_jobs_served_and_servers_closed(self):
        stream = gaming_workload(150, seed=3)
        report = FleetDispatcher().dispatch(stream)
        served = sorted(j for s in report.servers for j in s.jobs)
        assert served == sorted(it.item_id for it in stream)
        assert all(not s.is_open for s in report.servers)

    def test_reports_aggregate_consistently(self):
        report = FleetDispatcher().dispatch(gaming_workload(100, seed=5))
        assert report.total_cost == pytest.approx(sum(report.costs))
        assert sum(report.servers_by_type().values()) == report.num_servers
        assert sum(report.cost_by_type().values()) == pytest.approx(report.total_cost)

    def test_empty_catalogue_rejected(self):
        with pytest.raises(ValueError):
            FleetDispatcher(())

    def test_capacity_never_violated(self):
        stream = gaming_workload(200, seed=9)
        report = FleetDispatcher(CAT).dispatch(stream)
        # replay levels per server from the job set
        for s in report.servers:
            events = []
            for jid in s.jobs:
                it = next(x for x in stream if x.item_id == jid)
                events.append((it.arrival, it.size))
                events.append((it.departure, -it.size))
            events.sort(key=lambda e: (e[0], e[1]))
            level = 0.0
            for _, delta in events:
                level += delta
                assert level <= s.instance_type.capacity + 1e-9


class TestSingleTypeEqualsFirstFit:
    """A one-type unit catalogue is the paper's model: the fleet is First Fit.

    Pins the fleet's bespoke loop to the shared driver's packing, so the
    dispatcher can later move onto it without changing a placement.
    """

    @pytest.mark.parametrize("rate", [2.0, 20.0, 200.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_same_servers_and_usage_time(self, seed, rate):
        items = poisson_workload(300, seed=seed, arrival_rate=rate)
        report = FleetDispatcher((InstanceType("m", 1.0, 1.0),)).dispatch(items)
        ff = run_packing(items, FirstFit())
        fleet_map = {j: s.server_id for s in report.servers for j in s.jobs}
        assert fleet_map == ff.item_bin
        assert report.total_usage_time == pytest.approx(ff.total_usage_time, rel=1e-12)
