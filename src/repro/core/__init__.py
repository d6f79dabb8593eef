"""Core substrate: intervals, items, events, bins, and the packing driver."""

from .bins import Bin, CAPACITY_EPS
from .driver import EventStepper, run_events
from .engine import (
    Collector,
    OpenBinsCollector,
    PlacementLogCollector,
    Snapshot,
    UtilizationCollector,
    simulate,
)
from .events import Event, EventKind, EventQueue, event_sequence
from .intervals import (
    EMPTY_INTERVAL,
    Interval,
    coverage_at,
    intervals_intersect,
    merge_intervals,
    span,
    total_length,
    union_length,
)
from .items import Item, ItemList, validate_items
from .metrics import (
    aggregate_level_timeline,
    open_bins_timeline,
    time_weighted_average,
    utilization_timeline,
)
from .packing import run_packing
from .result import PackingResult
from .state import BasePackingState, PackingState

__all__ = [
    "BasePackingState",
    "Bin",
    "Collector",
    "OpenBinsCollector",
    "PlacementLogCollector",
    "Snapshot",
    "UtilizationCollector",
    "simulate",
    "CAPACITY_EPS",
    "EMPTY_INTERVAL",
    "Event",
    "EventKind",
    "EventQueue",
    "Interval",
    "Item",
    "ItemList",
    "PackingResult",
    "PackingState",
    "aggregate_level_timeline",
    "coverage_at",
    "event_sequence",
    "intervals_intersect",
    "merge_intervals",
    "open_bins_timeline",
    "run_events",
    "EventStepper",
    "run_packing",
    "span",
    "time_weighted_average",
    "total_length",
    "union_length",
    "utilization_timeline",
    "validate_items",
]
