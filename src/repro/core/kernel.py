"""Layer 1: the kernel event loop.

Every execution path in the engine — ``Simulation.run`` for sequential
runs, ``Simulation.run_step`` for a conservative-sync epoch window, and
the per-rank workers of the execution backends
(:mod:`repro.core.backends`) — drives the *same* pop/dispatch loop
defined here.  The loop itself is policy-free: limits, the exit
protocol, observability dispatch and the final statistics harvest are
threaded in through a :class:`RunContext`, so the sequential engine,
the serial epoch step and a forked per-rank worker all execute
events identically.

Layering (see docs/ARCHITECTURE.md):

* **kernel** (this module) — pop the next ``(time, priority, seq,
  handler, event)`` record, advance ``now``, dispatch to the handler or
  through the compiled observability slot.
* **ConservativeSync** (:mod:`repro.core.sync`) — decides *how far* each
  rank may run (epoch windows, lookahead, cross-rank exchange).
* **ExecutionBackend** (:mod:`repro.core.backends`) — decides *where*
  each rank's kernel loop executes (inline or in a forked process).

Checkpoint contract (:mod:`repro.ckpt`): snapshots are only taken
*between* kernel invocations — at conservative-sync epoch boundaries
for parallel runs, between ``max_time``-bounded segments for
sequential ones — never from inside a loop body.  Two loop-level facts
make restored runs bit-identical: (1) dispatch reads ``sim._instr`` per
event and records are plain tuples with no engine-side reuse, so a
snapshot holds no dispatch state — re-attaching the same observers
before resuming reproduces the observed run; (2) the total event
order is ``(time, priority, seq)`` and the queue's ``seq`` counter is
part of the snapshot, so records pushed after a restore tie-break
exactly as they would have in the uninterrupted run.
"""

from __future__ import annotations

import time as _wall_time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

from . import units
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .simulation import RunResult, Simulation

#: ``until`` bound of a run with no time limit
_FOREVER = float("inf")


@dataclass
class RunContext:
    """Everything one kernel-loop invocation needs, in one place.

    Threads run identity (seed, queue kind, rank), limits, the exit
    protocol and the post-run statistics harvest uniformly through the
    sequential engine, the per-rank epoch step and the process-backend
    workers, so none of them grow private variations of the loop.
    """

    #: base seed of the owning simulation (component streams key off it)
    seed: int = 1
    #: pending-event-set implementation name ("heap" / "binned")
    queue_kind: str = "heap"
    rank: int = 0
    num_ranks: int = 1
    #: inclusive simulated-time limit in ps (events *at* the limit run)
    limit: Optional[SimTime] = None
    max_events: Optional[int] = None
    #: disable the primary-component exit protocol (drain mode)
    ignore_exit: bool = False
    #: call ``sim.finish()`` when the loop ends on a terminal reason
    finalize: bool = True
    #: optional stats harvest hook, called with the simulation after a
    #: finalized run — the process backend ships its result across the
    #: rank boundary, the sequential engine ignores it.
    harvest: Optional[Callable[["Simulation"], Any]] = None

    @classmethod
    def for_sim(cls, sim: "Simulation", *,
                max_time: Optional[Union[str, int]] = None,
                max_events: Optional[int] = None,
                ignore_exit: bool = False,
                finalize: bool = True,
                harvest: Optional[Callable[["Simulation"], Any]] = None,
                ) -> "RunContext":
        """Build the context for a run of ``sim``, parsing ``max_time``."""
        limit = (units.parse_time(max_time, default_unit="ps")
                 if max_time is not None else None)
        return cls(seed=sim.seed, queue_kind=sim.queue_kind, rank=sim.rank,
                   num_ranks=sim.num_ranks, limit=limit,
                   max_events=max_events, ignore_exit=ignore_exit,
                   finalize=finalize, harvest=harvest)


def kernel_run(sim: "Simulation", ctx: RunContext) -> "RunResult":
    """Run ``sim``'s queue to exhaustion, exit, or a context limit.

    This is the full-service loop behind :meth:`Simulation.run`; the
    stop reason is one of ``exhausted``, ``exit``, ``max_time``,
    ``max_events`` or ``stopped``.

    One loop serves every run: it reads ``sim._instr`` per event and
    calls the compiled observability dispatcher when one is installed,
    else the record's handler directly.  Observers attached or removed
    from inside a handler therefore take effect at the next event.

    Causal tracing (:mod:`repro.obs.causal`) rides the same switch: an
    attached tracer forces ``sim._instr`` non-None, and the compiled
    ``_instr`` closure notes each record and arms/clears the tracer's
    cause cell around dispatch.
    """
    from .simulation import RunResult, SimulationError

    if sim._running:
        raise SimulationError("run() re-entered")
    if not sim._setup_done:
        sim.setup()
    limit = ctx.limit
    until = _FOREVER if limit is None else limit
    sim._running = True
    sim._stop_requested = False
    reason = None
    start_wall = _wall_time.perf_counter()
    start_events = sim._events_executed
    queue = sim._queue
    pop = queue.pop
    check_exit = not ctx.ignore_exit and bool(sim._primary_components)
    # Records budget (max_events counts popped records);
    # float("inf") turns "no budget" into a single cheap comparison.
    budget = ctx.max_events if ctx.max_events is not None else float("inf")
    records = 0
    # Live-plane boundary marks (repro.obs.live): per-invocation, never
    # per-event.
    live = sim._live_publisher
    if live is not None:
        live.on_kernel_enter()
    try:
        while True:
            record = pop(until)
            if record is None:
                if queue:
                    reason = "max_time"
                    sim.now = limit
                else:
                    reason = "exhausted"
                break
            now, _priority, _seq, handler, event = record
            sim.now = now
            sim.last_event_time = now
            # Counted before dispatch so heartbeat/telemetry callbacks
            # observe the event that triggered them.
            sim._events_executed += 1
            records += 1
            instr = sim._instr
            if instr is not None:
                instr(record)
            elif handler is not None:
                handler(event)
            if sim._stop_requested:
                reason = "stopped"
                break
            if check_exit and sim._primaries_pending == 0:
                reason = "exit"
                break
            if records >= budget:
                reason = "max_events"
                break
    finally:
        sim._running = False
        if live is not None:
            live.on_kernel_exit()
    wall = _wall_time.perf_counter() - start_wall
    if ctx.finalize and reason in ("exhausted", "exit", "stopped", "max_time"):
        sim.finish()
        if ctx.harvest is not None:
            ctx.harvest(sim)
    return RunResult(
        reason=reason,
        end_time=sim.now,
        events_executed=sim._events_executed - start_events,
        wall_seconds=wall,
    )


def kernel_step(sim: "Simulation", until: SimTime) -> int:
    """Execute all events with ``time <= until`` (one epoch window).

    The epoch-window variant of the kernel loop behind
    :meth:`Simulation.run_step` and every execution backend's per-rank
    step.  Does not honour max_time or the exit protocol — the sync
    strategy coordinates those globally.  Dispatch is the same per-event
    ``sim._instr`` switch as :func:`kernel_run`.  Returns the number of
    events executed; afterwards ``sim.now == max(until, last event time)``.
    """
    pop = sim._queue.pop
    start_executed = sim._events_executed
    live = sim._live_publisher
    if live is not None:
        live.on_kernel_enter()
    while True:
        record = pop(until)
        if record is None:
            break
        now, _priority, _seq, handler, event = record
        sim.now = now
        sim.last_event_time = now
        sim._events_executed += 1
        instr = sim._instr
        if instr is not None:
            instr(record)
        elif handler is not None:
            handler(event)
    if sim.now < until:
        sim.now = until
    if live is not None:
        # No finally: if a handler raised, the rank dies RUNNING and the
        # watchdog's publish-age signal picks it up.
        live.on_kernel_exit()
    return sim._events_executed - start_executed


def harvest_stats(sim: "Simulation") -> Dict[str, Dict[str, Any]]:
    """Per-component statistic objects, keyed ``component -> stat name``.

    The uniform stats-harvest shape carried by :class:`RunContext` and
    shipped across the rank boundary by the process backend (statistic
    collectors are plain slotted objects, so they pickle cleanly).
    """
    return {name: dict(comp.stats.all())
            for name, comp in sim._components.items()}


def harvest_engine_stats(sim: "Simulation") -> Dict[str, Any]:
    """Engine-level statistics (``sync.*``, ``obs.*``) in harvest shape.

    The engine-stats companion to :func:`harvest_stats`: a flat
    ``name -> Statistic`` dict of ``sim.engine_stats``.  The process
    backend ships this across the rank boundary so worker-registered
    collectors (e.g. the rank-local telemetry counters) survive the
    worker's death; parent-side the adoption is *additive only* — names
    the parent already tracks (the ``sync.*`` metrics it maintains
    itself) are never overwritten by the worker's stale copies.
    """
    return dict(sim.engine_stats.all())
