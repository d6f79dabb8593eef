"""The resource-agnostic event driver shared by every packing engine.

:class:`EventStepper` holds the *single* event-loop body of the
repository, and is the only code that mutates a packing state.
:func:`run_events` feeds it an instance's event sequence: the scalar
1-D engine (:func:`repro.core.packing.run_packing`) and the
multi-dimensional engine (:func:`repro.multidim.packing.run_vector_packing`)
are thin wrappers that build an instance-specific state and hand it to
this loop, and :func:`repro.core.engine.simulate`, lazy First Fit and
the streaming service step the same body.  The driver — not the
algorithm and not the wrapper — owns correctness: it streams events in
the canonical order (time-ordered, departures before arrivals at ties,
instance order within a kind, as C-sorted tuples), validates every
placement and migration against the chosen bin's lifecycle and
capacity, reveals departures only when they occur, and dispatches
observers after each applied event.

The loop is generic over the *resource type* via a small structural
protocol (see ``docs/ARCHITECTURE.md``):

- ``item.size`` — the demand revealed to the policy (a ``float`` for the
  scalar engine, a tuple of floats for the vector engine).  Departure
  times are never revealed.
- ``bin.index`` / ``bin.is_open`` / ``bin.fits(item)`` / ``bin.level``
  — lifecycle and feasibility on the bin side.
- ``state.place`` / ``state.depart`` / ``state.migrate`` /
  ``state.num_open`` — the mutations, implemented once in
  :class:`~repro.core.state.BasePackingState`.

Because both engines raise from the same lines below, infeasible and
closed-bin placements produce *identical* error messages in the scalar
and vector engines — pinned by ``tests/multidim/test_guardrails.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .events import Event, EventKind, event_tuples

__all__ = ["run_events", "check_move", "EventStepper", "Observer"]

#: Observer callback signature: ``(event, state)`` after each event is
#: applied.  The state is the engine-specific packing state (scalar or
#: vector); observers that only read the shared surface
#: (``num_open``, ``num_bins_used``, ``total_level``, ``now``) work
#: unchanged on both engines.
Observer = Callable[[Event, object], None]


def check_move(name: str, state, item, target):
    """Validate one planned migration; returns the item's source bin.

    The driver-owned counterpart of the arrival checks in
    :meth:`EventStepper.arrive`: a migration-capable policy proposes
    ``(item, target)`` moves, and the driver — not the policy — verifies
    that the target is a *different*, still-open bin that fits the item
    before mutating.  Every move, event-coupled or from the service
    defragmenter, passes through :meth:`EventStepper.apply_migrations`
    and so through here (migrations are rare; a helper call per move is
    fine).
    """
    src = state.bins[state.item_bin[item.item_id]]
    if target is src:
        raise RuntimeError(
            f"{name} migration kept item {item.item_id} in bin {src.index}"
        )
    if not target.is_open:
        raise RuntimeError(f"{name} migration chose closed bin {target.index}")
    if not target.fits(item):
        raise RuntimeError(
            f"{name} migration chose bin {target.index} at level "
            f"{target.level} for item of size {item.size}"
        )
    return src


class EventStepper:
    """One-event-at-a-time driver: the only code that mutates a packing state.

    :meth:`arrive`, :meth:`depart` and :meth:`apply_migrations` are the
    loop body of every replay path in the repository: the batch loop
    (:func:`run_events`), the snapshot generator
    (:func:`repro.core.engine.simulate`), lazy First Fit
    (:func:`repro.deferral.run_deferred_first_fit`) and the streaming
    service (:mod:`repro.service`), which pushes jobs one at a time.
    Feeding the stepper an instance's canonical event sequence *is* a
    batch run: same placements, same validation, same error messages,
    same observer dispatch.

    The constructor resets ``algorithm`` and resolves its per-event
    callables once.  ``on_placed``/``on_departed`` are skipped when the
    concrete class inherits them unchanged from ``hook_base`` (most
    policies keep no per-placement state; ``None`` always calls), and a
    migration-capable policy — one exposing ``plan_migrations(state)``
    returning ``(item, target)`` moves — is asked for a plan after every
    event.

    ``fault_hook`` is the chaos-testing seam: when set (by the fault
    injection harness, :mod:`repro.service.faults`), it is called with
    a point name at the named kill-points of the step —
    ``arrive.pre`` / ``arrive.post`` / ``depart.pre`` / ``depart.post``,
    plus ``migrate.pre`` / ``migrate.post`` around each applied move
    — so crash-recovery tests can kill the engine *inside* an event,
    between the WAL append and the state mutation, or between the
    mutation and the acknowledgement.  ``None`` (the default) costs one
    attribute read per step.
    """

    def __init__(
        self,
        algorithm,
        state,
        observers: Sequence[Observer] = (),
        hook_base: type | None = None,
    ):
        algorithm.reset()
        #: set to a callable(name) to arm the named kill-points (an
        #: instance attribute: read once per step on the hot path)
        self.fault_hook = None
        #: set to a callable(item, src, target) to observe each applied
        #: migration (the streaming engine counts moves and bills bins
        #: that close by evacuation through this seam)
        self.migration_hook = None
        self.algorithm = algorithm
        self.state = state
        self.observers = tuple(observers)
        self.clairvoyant = getattr(algorithm, "clairvoyant", False)
        self._choose_bin = (
            algorithm.choose_bin_clairvoyant if self.clairvoyant else algorithm.choose_bin
        )
        cls = type(algorithm)
        self._on_placed = algorithm.on_placed
        self._on_departed = algorithm.on_departed
        if hook_base is not None:
            if cls.on_placed is hook_base.on_placed:
                self._on_placed = None
            if cls.on_departed is hook_base.on_departed:
                self._on_departed = None
        self._plan_migrations = getattr(algorithm, "plan_migrations", None)

    def arrive(self, time: float, seq: int, item):
        """Apply one arrival; returns the bin the item was placed in."""
        fault_hook = self.fault_hook
        if fault_hook is not None:
            fault_hook("arrive.pre")
        state = self.state
        state.now = time
        # clairvoyant policies (known-departure model) receive the full
        # item; everyone else sees only the demand
        target = self._choose_bin(state, item if self.clairvoyant else item.size)
        if target is not None:
            if not target.is_open:
                raise RuntimeError(
                    f"{self.algorithm.name} chose closed bin {target.index}"
                )
            if not target.fits(item):
                raise RuntimeError(
                    f"{self.algorithm.name} chose bin {target.index} at level "
                    f"{target.level} for item of size {item.size}"
                )
        placed = state.place(item, target)
        if self._on_placed is not None:
            self._on_placed(state, placed, item.size)
        if self._plan_migrations is not None:
            moves = self._plan_migrations(state)
            if moves:
                self.apply_migrations(moves)
        if self.observers:
            event = Event(time, EventKind.ARRIVE, seq, item)
            for obs in self.observers:
                obs(event, state)
        if fault_hook is not None:
            fault_hook("arrive.post")
        return placed

    def depart(self, time: float, seq: int, item):
        """Apply one departure; returns the bin the item left (may be closed)."""
        fault_hook = self.fault_hook
        if fault_hook is not None:
            fault_hook("depart.pre")
        state = self.state
        state.now = time
        source = state.depart(item)
        if self._on_departed is not None:
            self._on_departed(state, source)
        if self._plan_migrations is not None:
            moves = self._plan_migrations(state)
            if moves:
                self.apply_migrations(moves)
        if self.observers:
            event = Event(time, EventKind.DEPART, seq, item)
            for obs in self.observers:
                obs(event, state)
        if fault_hook is not None:
            fault_hook("depart.post")
        return source

    def apply_migrations(self, moves) -> int:
        """Apply planned ``(item, target)`` moves; returns how many.

        Every move is validated (:func:`check_move`) and wrapped in its
        own ``migrate.pre`` / ``migrate.post`` kill-points, so a crash
        between two moves of one plan is a recoverable position like any
        other.  Used both for event-coupled migrations (policies with a
        ``plan_migrations``) and by the service's background
        defragmenter, which plans out-of-band but applies through here.
        """
        applied = 0
        state = self.state
        name = self.algorithm.name
        for item, target in moves:
            if self.fault_hook is not None:
                self.fault_hook("migrate.pre")
            src = check_move(name, state, item, target)
            state.migrate(item, target)
            if self.migration_hook is not None:
                self.migration_hook(item, src, target)
            if self.fault_hook is not None:
                self.fault_hook("migrate.post")
            applied += 1
        return applied

    def finish(self) -> None:
        """Assert the terminal invariant of a complete run."""
        assert self.state.num_open == 0, "all bins must be closed after the last departure"


def run_events(
    items: Iterable,
    algorithm,
    state,
    observers: Sequence[Observer] = (),
    hook_base: type | None = None,
) -> None:
    """Replay ``items``'s arrival/departure stream through ``algorithm``.

    Parameters
    ----------
    items:
        Any iterable of items with ``arrival``/``departure`` attributes
        (:class:`~repro.core.items.ItemList`,
        :class:`~repro.multidim.items.VectorItemList`, ...).
    algorithm:
        The placement policy.  It is ``reset()`` before the run and its
        ``choose_bin(state, size)`` is called once per arrival — or
        ``choose_bin_clairvoyant(state, item)`` when the policy declares
        ``clairvoyant = True`` (known-departure reference model).
    state:
        A :class:`~repro.core.state.BasePackingState` subclass instance.
        Mutated in place; read the packing off it afterwards.
    observers:
        Callbacks invoked after every applied event.
    hook_base:
        The algorithm base class whose ``on_placed``/``on_departed`` are
        known no-ops (see :class:`EventStepper`).  ``None`` always calls.
    """
    stepper = EventStepper(algorithm, state, observers, hook_base)
    arrive = stepper.arrive
    depart = stepper.depart
    for time, kind, seq, item in event_tuples(items):
        if kind:  # EventKind.ARRIVE
            arrive(time, seq, item)
        else:
            depart(time, seq, item)
    stepper.finish()
