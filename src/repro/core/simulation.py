"""The sequential discrete-event engine.

One :class:`Simulation` owns the component set, the pending-event queue
and the simulated clock for a single *rank*.  The parallel engine
(:mod:`repro.core.parallel`) composes several of these, one per rank.

Typical direct use (the config layer in :mod:`repro.config` builds all
of this from a :class:`~repro.config.graph.ConfigGraph` instead)::

    sim = Simulation(seed=7)
    ping = Pinger(sim, "ping", Params({...}))
    pong = Ponger(sim, "pong", Params({...}))
    sim.connect(ping, "out", pong, "in", latency="10ns")
    result = sim.run(max_time="1ms")
    print(sim.stat_table())
"""

from __future__ import annotations

import os
import time as _wall_time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import units
from .clock import Clock, ClockArbiter, ClockHandler, _ArbiterTickEvent
from .component import Component
from .event import (PRIORITY_CLOCK, PRIORITY_EVENT, CallbackEvent, Event,
                    Handler)
from .eventqueue import EventQueueBase, make_queue
from .link import Link, LinkError, Port
from .statistics import StatisticGroup
from .units import SimTime


class SimulationError(RuntimeError):
    """Engine misuse (running twice, connecting after setup, ...)."""


@dataclass
class RunResult:
    """Outcome of a :meth:`Simulation.run` call."""

    reason: str  #: "exhausted" | "max_time" | "max_events" | "exit" | "stopped"
    end_time: SimTime
    events_executed: int
    wall_seconds: float
    #: events executed per wall-clock second (engine throughput)
    events_per_second: float = field(init=False)

    def __post_init__(self) -> None:
        self.events_per_second = (
            self.events_executed / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (embedded in run manifests)."""
        return {
            "reason": self.reason,
            "end_time_ps": self.end_time,
            "events_executed": self.events_executed,
            "wall_seconds": self.wall_seconds,
            "events_per_second": self.events_per_second,
        }


class Simulation:
    """A single-rank discrete-event simulation.

    Parameters
    ----------
    queue:
        Pending-event set implementation: ``"heap"`` (default) or
        ``"binned"`` (see :mod:`repro.core.eventqueue`).
    seed:
        Base seed for all per-component random streams.
    rank, num_ranks:
        Identity within a parallel run; ``(0, 1)`` for sequential.
    rank_seed:
        Seed of this rank's *engine-level* random stream
        (:attr:`engine_rng`).  Defaults to the ``rank``-th child of
        ``numpy.random.SeedSequence(seed).spawn(num_ranks)``, so every
        rank of a parallel run draws a distinct, collision-free stream.
        Component streams are unaffected — they key off the base
        ``seed`` and the component name (see
        :func:`~repro.core.component.stable_seed`), which is what keeps
        sequential and parallel statistics bit-identical.
    verbose:
        Enables :meth:`Component.debug` tracing.
    clock_arbiter:
        Share one tick chain among same-(period, priority, phase) clocks
        (see :class:`~repro.core.clock.ClockArbiter`).  Default
        ``None`` reads the ``REPRO_CLOCK_ARBITER`` environment knob
        (enabled unless set to ``0``/``off``/``false``/``no``); pass
        ``True``/``False`` to force it.
    """

    def __init__(self, *, queue: str = "heap", seed: int = 1, rank: int = 0,
                 num_ranks: int = 1, rank_seed: Optional[int] = None,
                 verbose: bool = False,
                 queue_kwargs: Optional[Dict[str, Any]] = None,
                 clock_arbiter: Optional[bool] = None):
        self.now: SimTime = 0
        self.seed = seed
        self.rank = rank
        self.num_ranks = num_ranks
        if rank_seed is None:
            children = np.random.SeedSequence(seed).spawn(max(num_ranks, rank + 1))
            rank_seed = int(children[rank].generate_state(1)[0])
        #: distinct per-rank engine RNG seed (seed-sequence spawn)
        self.rank_seed = rank_seed
        self._engine_rng: Optional[np.random.Generator] = None
        self.verbose = verbose
        self.queue_kind = queue
        self._queue: EventQueueBase = make_queue(queue, **(queue_kwargs or {}))
        self._components: Dict[str, Component] = {}
        self._links: List[Link] = []
        self._clocks: List[Clock] = []
        if clock_arbiter is None:
            clock_arbiter = os.environ.get(
                "REPRO_CLOCK_ARBITER", "1").strip().lower() not in (
                    "0", "off", "false", "no")
        #: shared-tick-chain mode (see ClockArbiter); resolved once here
        #: so forked rank workers inherit the parent's choice.
        self.clock_arbiter_enabled = bool(clock_arbiter)
        #: one arbiter per (period, priority, phase residue) clock class
        self._arbiters: Dict[Tuple[SimTime, int, SimTime], ClockArbiter] = {}
        self._setup_done = False
        self._finished = False
        self._running = False
        self._stop_requested = False
        self._events_executed = 0
        #: time of the most recently executed event (excludes idle advance)
        self.last_event_time: SimTime = 0
        # --- observability dispatch (repro.obs) -----------------------
        # The hot loop pays a single `self._instr is None` check per
        # event; the compiled dispatcher below is rebuilt whenever
        # observers change and is None when nothing is installed.
        self._trace_observers: List[Any] = []
        self._span_observers: List[Any] = []
        self._heartbeats: Dict[Any, int] = {}
        self._instr = None
        #: causal tracer (repro.obs.causal); duck-typed — anything with
        #: on_dispatch(record) and a `cell` one-slot list.  Folded into
        #: the instrumented dispatcher, so with tracing off dispatch
        #: pays nothing and the instrumented path pays one check.
        self._causal = None
        #: live-plane publisher (repro.obs.live); duck-typed — anything
        #: with on_kernel_enter()/on_kernel_exit().  The kernel loop
        #: pays one `is not None` check per *invocation* (not per
        #: event).
        self._live_publisher = None
        #: engine-level statistics (parallel-sync metrics etc.) — kept
        #: separate from component stats so sequential/parallel stat
        #: equivalence is preserved; see sync_stats().
        self.engine_stats = StatisticGroup()
        # exit protocol state
        self._primary_components: set = set()
        self._primaries_pending = 0
        # --- checkpointing (repro.ckpt) -------------------------------
        #: the ConfigGraph this simulation was built from (set by
        #: repro.config.build); snapshots embed it so restore can
        #: rebuild the graph and validate identity.
        self.config_graph = None
        #: lineage: set by repro.ckpt.restore() on a resumed simulation,
        #: recorded into run manifests (obs.manifest).
        self.checkpoint_lineage: Optional[Dict[str, Any]] = None
        #: snapshot directories written by run(checkpoint_every=...).
        self.checkpoints_written: List[str] = []

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    def _register_component(self, component: Component) -> None:
        if self._setup_done:
            raise SimulationError(
                f"cannot add component {component.name!r} after setup()"
            )
        if component.name in self._components:
            raise SimulationError(f"duplicate component name {component.name!r}")
        self._components[component.name] = component

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise SimulationError(f"no component named {name!r}") from None

    @property
    def components(self) -> Dict[str, Component]:
        return dict(self._components)

    def connect(self, comp_a: Union[Component, Port], port_a: Optional[str] = None,
                comp_b: Optional[Union[Component, Port]] = None,
                port_b: Optional[str] = None, *,
                latency: Union[str, int] = "1ps",
                name: Optional[str] = None) -> Link:
        """Wire ``comp_a.port_a`` to ``comp_b.port_b`` with the given latency.

        Accepts either ``connect(compA, "out", compB, "in", latency=...)``
        or pre-fetched ports ``connect(portA, portB=...)`` — the config
        layer uses the former exclusively.
        """
        if isinstance(comp_a, Port):
            pa = comp_a
            pb = port_a if isinstance(port_a, Port) else comp_b
            if not isinstance(pb, Port):
                raise SimulationError("connect(Port, Port) form requires two ports")
        else:
            if comp_b is None or port_a is None or port_b is None:
                raise SimulationError("connect requires component/port pairs")
            assert isinstance(comp_b, Component)
            pa = comp_a.port(port_a)
            pb = comp_b.port(port_b)
        lat = units.parse_time(latency, default_unit="ps")
        link_name = name or f"{pa.full_name()}--{pb.full_name()}"
        link = Link.connect(link_name, lat, pa, pb, self, self)
        self._links.append(link)
        return link

    def self_link(self, component: Component, port_name: str,
                  latency: Union[str, int] = "1ps") -> Link:
        """Create a self-link (delay line back to the same component)."""
        lat = units.parse_time(latency, default_unit="ps")
        port = component.port(port_name)
        link = Link.self_loop(f"{port.full_name()}--self", lat, port, self)
        self._links.append(link)
        return link

    @property
    def links(self) -> List[Link]:
        return list(self._links)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def _push(self, when: SimTime, priority: int, handler: Handler,
              event: Optional[Event]) -> None:
        if when < self.now:
            raise SimulationError(
                f"event scheduled in the past ({when} < now {self.now})"
            )
        self._queue.push(when, priority, handler, event)

    def schedule_callback(self, delay: SimTime, callback: Callable[[Any], None],
                          payload: Any = None,
                          priority: int = PRIORITY_EVENT) -> None:
        """Run ``callback(payload)`` ``delay`` picoseconds from now."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        event = CallbackEvent(callback, payload)
        self._push(self.now + delay, priority, _invoke_callback, event)

    def register_clock(self, freq: Any, handler: ClockHandler, *,
                       name: str = "clock", priority: int = PRIORITY_CLOCK,
                       phase: SimTime = 0) -> Clock:
        """Register a periodic handler at ``freq`` (string like ``"2GHz"``).

        In arbiter mode (the default) clocks sharing a
        ``(period, priority, phase residue)`` class ride one shared tick
        chain — one queue event per boundary instead of one per clock —
        with handlers fired in registration order (see
        :class:`~repro.core.clock.ClockArbiter`).
        """
        period = units.freq_to_period(freq) if not isinstance(freq, int) else freq
        arbiter = None
        if self.clock_arbiter_enabled and period > 0:
            first = self.now + phase + period
            key = (period, priority, first % period)
            arbiter = self._arbiters.get(key)
            if arbiter is None:
                arbiter = ClockArbiter(
                    self, period, priority,
                    name=f"{period}ps/p{priority}/r{first % period}")
                self._arbiters[key] = arbiter
        clock = Clock(self, name, period, handler, priority=priority,
                      phase=phase, arbiter=arbiter)
        self._clocks.append(clock)
        return clock

    # ------------------------------------------------------------------
    # exit protocol (SST's Exit object)
    # ------------------------------------------------------------------
    def _exit_register(self, component: Component) -> None:
        self._primary_components.add(component.name)

    def _exit_not_ok(self, component: Component) -> None:
        self._primaries_pending += 1

    def _exit_ok(self, component: Component) -> None:
        self._primaries_pending -= 1
        assert self._primaries_pending >= 0

    @property
    def primaries_pending(self) -> int:
        return self._primaries_pending

    def end_simulation(self) -> None:
        """Request an immediate stop (after the current event)."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Finalize the graph and call every component's ``setup()``.

        After all setups ran (components may still consume parameters
        there), every component's :meth:`Params.finalize_check` runs so
        typoed config keys warn instead of silently no-oping.  With
        ``validate_events`` enabled (``build(validate_events=True)`` or
        ``sim.validate_events = True`` before setup), handlers of ports
        whose declaration names an event class are wrapped with
        isinstance checks — diagnostics only, never on by default, so
        the default hot path is unaffected.
        """
        if self._setup_done:
            return
        self._setup_done = True
        for comp in self._components.values():
            comp.setup()
        for comp in self._components.values():
            comp.params.finalize_check(comp.name)
        if getattr(self, "validate_events", False):
            for comp in self._components.values():
                comp._install_event_checks()

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        for comp in self._components.values():
            comp.finish()

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, max_time: Optional[Union[str, int]] = None,
            max_events: Optional[int] = None, *,
            finalize: bool = True, ignore_exit: bool = False,
            checkpoint_every: Optional[Union[str, int]] = None,
            checkpoint_dir: Optional[str] = None) -> RunResult:
        """Execute events until exhaustion, exit, or a limit.

        ``max_time`` is inclusive: events *at* the limit still execute.
        Returns a :class:`RunResult`; the stop reason is one of
        ``exhausted`` (no events left), ``exit`` (all primary components
        done), ``max_time``, ``max_events`` or ``stopped``
        (:meth:`end_simulation`).

        ``ignore_exit`` disables the primary-component exit protocol —
        useful to *drain* in-flight events after an exit-terminated run
        (e.g. messages still travelling when the last sender finished).

        With ``checkpoint_every`` (a simulated-time interval, e.g.
        ``"10us"``) the run writes a `repro.ckpt` snapshot into
        ``checkpoint_dir`` at every interval boundary; the run is
        segmented at those boundaries but executes the exact same event
        sequence (snapshot boundaries are invisible to the models).
        Snapshot paths accumulate in :attr:`checkpoints_written`.

        The loop itself lives in :func:`repro.core.kernel.kernel_run`;
        this method only assembles the :class:`~repro.core.kernel.RunContext`.
        """
        if checkpoint_every is not None:
            from ..ckpt import checkpointed_run

            return checkpointed_run(
                self, checkpoint_every, checkpoint_dir,
                max_time=max_time, max_events=max_events,
                finalize=finalize, ignore_exit=ignore_exit)
        from .kernel import RunContext, kernel_run

        ctx = RunContext.for_sim(self, max_time=max_time,
                                 max_events=max_events,
                                 ignore_exit=ignore_exit, finalize=finalize)
        return kernel_run(self, ctx)

    def run_step(self, until: SimTime) -> int:
        """Execute all events with ``time <= until`` (parallel-engine epoch).

        Does not honour max_time/exit protocol — the sync strategy
        coordinates those globally.  Returns the number of events run.
        Delegates to :func:`repro.core.kernel.kernel_step`, the same
        loop every execution backend drives per rank.
        """
        from .kernel import kernel_step

        return kernel_step(self, until)

    # ------------------------------------------------------------------
    # observability dispatch (repro.obs attaches through these)
    # ------------------------------------------------------------------
    def add_trace_observer(self, fn) -> None:
        """Add a per-event observer ``fn(time, handler, event)``.

        Called *before* the handler executes, from the next event on
        (also when added from inside a handler).  Any number may
        coexist; with none installed the hot loop pays a single
        ``is None`` check.  See :class:`repro.core.tracelog.EventTraceLog`
        for a ready-made filtering writer.
        """
        if fn not in self._trace_observers:
            self._trace_observers.append(fn)
        self._rebuild_instr()

    def remove_trace_observer(self, fn) -> None:
        try:
            self._trace_observers.remove(fn)
        except ValueError:
            pass
        self._rebuild_instr()

    def add_span_observer(self, fn) -> None:
        """Add a span observer ``fn(time, handler, event, wall_seconds)``.

        Called *after* the handler executes with the measured wall-clock
        duration of that single handler invocation.  The profiler and
        the Chrome-trace exporter attach here.
        """
        if fn not in self._span_observers:
            self._span_observers.append(fn)
        self._rebuild_instr()

    def remove_span_observer(self, fn) -> None:
        try:
            self._span_observers.remove(fn)
        except ValueError:
            pass
        self._rebuild_instr()

    def add_heartbeat(self, fn, *, every_events: int = 10_000) -> None:
        """Call ``fn(sim)`` every ``every_events`` executed events.

        Progress reporting and telemetry sampling hang off this; the
        callback runs inline in the event loop, so it should be cheap
        (rate-limit expensive work on wall-clock inside the callback).
        """
        if every_events < 1:
            raise SimulationError("every_events must be >= 1")
        self._heartbeats[fn] = every_events
        self._rebuild_instr()

    def remove_heartbeat(self, fn) -> None:
        self._heartbeats.pop(fn, None)
        self._rebuild_instr()

    @property
    def observers_installed(self) -> bool:
        """True when any observer makes the loop run instrumented."""
        return self._instr is not None

    def _rebuild_instr(self) -> None:
        """(Re)compile the instrumented event executor.

        Folds trace observers, span observers, heartbeats and the causal
        tracer into one closure so the hot loop only ever checks a single
        attribute.  With nothing installed the dispatcher is ``None`` and
        the loop calls each record's handler directly.
        """
        traces = tuple(self._trace_observers)
        span_fns = tuple(self._span_observers)
        heartbeats = tuple(self._heartbeats.items())
        causal = self._causal
        if not traces and not span_fns and not heartbeats and causal is None:
            self._instr = None
            return
        hb_counts = [0] * len(heartbeats)
        perf = _wall_time.perf_counter
        sim = self
        causal_note = causal.on_dispatch if causal is not None else None
        causal_cell = causal.cell if causal is not None else None

        def _instr(record) -> None:
            time, _priority, _seq, handler, event = record
            if causal_note is not None:
                # Record this node and arm the cause cell: every push the
                # handler makes is stamped with this record's seq.
                causal_note(record)
            if type(event) is _ArbiterTickEvent:
                # Shared clock chain: let the arbiter fire its members
                # with per-member trace/span calls, so observers see
                # every clock tick exactly as under per-clock
                # scheduling.  Heartbeats advance by the member count.
                fired = handler.__self__._dispatch_instrumented(
                    event, traces, span_fns, perf)
                count = fired if fired > 0 else 1
            else:
                for fn in traces:
                    fn(time, handler, event)
                if span_fns:
                    t0 = perf()
                    if handler is not None:
                        handler(event)
                    elapsed = perf() - t0
                    for fn in span_fns:
                        fn(time, handler, event, elapsed)
                elif handler is not None:
                    handler(event)
                count = 1
            if causal_cell is not None:
                # Disarm before heartbeats: events a heartbeat callback
                # schedules are roots, not children of this event.
                causal_cell[0] = None
            for i, (fn, every) in enumerate(heartbeats):
                n = hb_counts[i] + count
                if n >= every:
                    hb_counts[i] = 0
                    fn(sim)
                else:
                    hb_counts[i] = n

        self._instr = _instr

    def next_event_time(self) -> Optional[SimTime]:
        return self._queue.peek_time()

    @property
    def engine_rng(self) -> np.random.Generator:
        """Engine-level random stream, distinct per parallel rank.

        Seeded from :attr:`rank_seed` (a seed-sequence spawn of the base
        seed), so rank streams never collide even though every rank
        shares the base ``seed``.  Use this for engine/infrastructure
        randomness (sampling, jitter, future optimistic sync); model
        randomness belongs on :attr:`Component.rng`, whose
        component-keyed seeding is what keeps sequential and parallel
        statistics identical.
        """
        if self._engine_rng is None:
            self._engine_rng = np.random.default_rng(self.rank_seed)
        return self._engine_rng

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # statistics harvest
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """All statistics, flat-keyed ``<component>.<stat>`` -> Statistic."""
        out: Dict[str, Any] = {}
        for comp in self._components.values():
            for stat_name, stat in comp.stats.all().items():
                out[f"{comp.name}.{stat_name}"] = stat
        return out

    def stat_values(self) -> Dict[str, float]:
        """Headline value of every statistic (for quick assertions)."""
        return {key: stat.value() for key, stat in self.stats().items()}

    def sync_stats(self) -> Dict[str, Any]:
        """Engine-level statistics (``sync.*`` parallel metrics etc.).

        Kept out of :meth:`stats` so sequential/parallel component-stat
        equivalence holds; the parallel engine merges these across ranks
        with the same :meth:`Statistic.merge` machinery.
        """
        return self.engine_stats.all()

    def stat_table(self) -> str:
        """Human-readable statistics dump."""
        rows = []
        for key, stat in sorted(self.stats().items()):
            data = stat.as_dict()
            detail = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in data.items()
                if k not in ("type", "name", "bins") and v is not None
            )
            rows.append(f"{key:<48} {data['type']:<12} {detail}")
        return "\n".join(rows)


def _invoke_callback(event: Event) -> None:
    assert isinstance(event, CallbackEvent)
    event.invoke()
