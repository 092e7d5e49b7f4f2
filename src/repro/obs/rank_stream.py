"""Per-rank observability for a ParallelSimulation, on every backend.

Instruments attached to a :class:`~repro.core.parallel.ParallelSimulation`
never touch its rank simulations.  They register on the run's plan
instead, and the execution backend builds the per-rank half where the
rank's kernel actually runs:

* :class:`RankStreamPlan` — the parent-side registry
  (``psim.rank_plan``, created by :func:`ensure_rank_plan`).  The
  telemetry recorder, handler profiler, Chrome trace exporter, causal
  capture and live metrics register their needs here before the run.
* :class:`RankRecorder` — the rank-local producer.  The ``serial``
  backend builds one per rank in-process; the ``processes`` backend
  builds one inside each forked worker.  Either way the backend drives
  the same ``on_step`` / ``finish`` hooks, so both backends write the
  same per-rank JSONL shards (``<metrics>.rank<k>``), run the same
  rank-local profiler, causal tracer and live slot, and send the same
  records to the parent.  Those records reach the plan's
  :meth:`~RankStreamPlan.deliver` / :meth:`~RankStreamPlan.absorb`
  routing by a direct call on ``serial`` and as a pipe batch riding the
  :class:`~repro.core.backends.RankStep` on ``processes``.

Shard record kinds (schema ``repro-rank-stream/1``, one JSON object per
line): ``rank_start``, ``rank_epoch`` (one per conservative-sync epoch
window executed on the rank), ``rank_sample`` (heartbeat-driven engine
samples), ``span`` (per-handler wall-time rows, only when a Chrome
trace exporter asked for them), ``rank_end``.  Each ``run()`` appends
one ``rank_start`` … ``rank_end`` section.  All wall-clock fields named
``mono_s`` are raw ``time.perf_counter()`` readings — CLOCK_MONOTONIC
on Linux, comparable across the rank processes of one run — which is
what lets :mod:`repro.obs.merge` line the per-rank streams up on a
single timeline.
"""

from __future__ import annotations

import json
import os
import time as _wall_time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Union

from .profiler import HandlerProfiler, attribute_event

if TYPE_CHECKING:  # pragma: no cover
    from ..core.parallel import ParallelSimulation

#: bump when a shard record field changes meaning.
RANK_STREAM_SCHEMA = "repro-rank-stream/1"

#: record kinds a registered Chrome trace exporter draws.
_EXPORTER_KINDS = ("rank_epoch", "span")


def rank_shard_path(metrics_base: Union[str, Path], rank: int) -> Path:
    """The JSONL shard path for ``rank``: ``<metrics>.rank<k>``."""
    base = Path(metrics_base)
    return base.with_name(f"{base.name}.rank{rank}")


def span_record(rank: int, time: int, handler: Any, event: Any,
                wall_seconds: float) -> Dict[str, Any]:
    """The ``span`` record for one handler invocation that just ended."""
    component, label = attribute_event(handler, event)
    return {
        "kind": "span",
        "rank": rank,
        "mono_s": _wall_time.perf_counter() - wall_seconds,
        "dur_us": wall_seconds * 1e6,
        "component": component,
        "handler": label,
        "event": type(event).__name__ if event is not None else "-",
        "sim_ps": time,
    }


def ensure_rank_plan(psim: "ParallelSimulation") -> "RankStreamPlan":
    """The plan attached to ``psim``, creating an empty one if needed."""
    plan = getattr(psim, "rank_plan", None)
    if plan is None:
        plan = RankStreamPlan()
        psim.rank_plan = plan
    return plan


class RankStreamPlan:
    """What each rank's recorder should do, and where its results go.

    Parent-side instruments register their needs before the run; the
    backend builds a :class:`RankRecorder` per rank from the plan (the
    plan rides the fork into ``processes`` workers), and the plan routes
    everything that comes back (record batches after each epoch,
    profile buckets and rank summaries at finalize) to the registered
    instruments.
    """

    def __init__(self) -> None:
        #: metrics path of the owning TelemetryRecorder; shards land at
        #: ``<metrics_base>.rank<k>``.  None = no shard files.
        self.metrics_base: Optional[Path] = None
        #: events between rank_sample heartbeat records on a rank.
        self.heartbeat_every: int = 5_000
        #: hard cap on span rows per rank and run; overflow is counted
        #: in the rank's ``obs.rank_dropped`` counter, not kept.
        self.span_limit: int = 200_000
        # --- live plane (repro.obs.live) ------------------------------
        #: live segment path; each recorder re-opens it by path and owns
        #: its rank slot.  None = no live publishing.
        self.live_path: Optional[str] = None
        #: rank-side sampler republish period (seconds).
        self.live_interval_s: float = 0.25
        #: when set, processes-backend workers register the SIGUSR1
        #: faulthandler stack-dump handler into
        #: ``<live_dump_base>.stack.rank<k>`` at startup so the stall
        #: watchdog can extract stacks from hung workers.
        self.live_dump_base: Optional[str] = None
        # --- causal tracing (repro.obs.causal) ------------------------
        #: when set, each recorder uses a CausalTracer writing
        #: ``<causal_base>.causal.rank<k>``.  None = no capture.
        self.causal_base: Optional[str] = None
        #: rank -> CausalTracer built in this process.  They live until
        #: close_causal(), so one capture's causal shard spans every
        #: run() of an in-process (serial) simulation.
        self._causal_tracers: Dict[int, Any] = {}
        self._profilers: List[Any] = []
        self._recorders: List[Any] = []
        self._exporters: List[Any] = []
        #: shard paths an earlier, finished run() of this plan wrote;
        #: later runs append to them instead of truncating.
        self._opened: Set[str] = set()
        #: per-rank summaries harvested at finalize: rank -> dict.
        self.rank_reports: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # parent-side registration (instruments call these)
    # ------------------------------------------------------------------
    def register_profiler(self, profiler: Any) -> None:
        if profiler not in self._profilers:
            self._profilers.append(profiler)

    def unregister_profiler(self, profiler: Any) -> None:
        if profiler in self._profilers:
            self._profilers.remove(profiler)

    def register_recorder(self, recorder: Any) -> None:
        """A TelemetryRecorder with a *stream* sink: every rank record
        is sent to the parent and emitted inline into its stream."""
        if recorder not in self._recorders:
            self._recorders.append(recorder)

    def unregister_recorder(self, recorder: Any) -> None:
        if recorder in self._recorders:
            self._recorders.remove(recorder)

    def register_exporter(self, exporter: Any) -> None:
        if exporter not in self._exporters:
            self._exporters.append(exporter)

    def unregister_exporter(self, exporter: Any) -> None:
        if exporter in self._exporters:
            self._exporters.remove(exporter)

    # ------------------------------------------------------------------
    # state the backend inspects
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Anything at all for a rank recorder to do?"""
        return (self.metrics_base is not None
                or bool(self._recorders or self._profilers or self._exporters)
                or self.live_path is not None
                or self.causal_base is not None)

    def shard_paths(self, num_ranks: int) -> List[str]:
        """Expected shard paths for a ``num_ranks`` run ([] if shard-less)."""
        if self.metrics_base is None:
            return []
        return [str(rank_shard_path(self.metrics_base, r))
                for r in range(num_ranks)]

    # ------------------------------------------------------------------
    # hooks the backends drive (duck-typed from core)
    # ------------------------------------------------------------------
    def rank_recorder(self, psim: "ParallelSimulation",
                      rank: int) -> Optional["RankRecorder"]:
        """Build ``rank``'s recorder where that rank's kernel runs."""
        if not self.active:
            return None
        return RankRecorder(self, psim, rank)

    def causal_tracer(self, psim: "ParallelSimulation", rank: int) -> Any:
        """``rank``'s causal tracer in this process, built on first use."""
        tracer = self._causal_tracers.get(rank)
        if tracer is None:
            from .causal import CausalTracer

            tracer = CausalTracer(psim._sims[rank], self.causal_base,
                                  psim=psim)
            self._causal_tracers[rank] = tracer
        return tracer

    def close_causal(self) -> None:
        """Finish this process's causal shards and end the capture."""
        for tracer in self._causal_tracers.values():
            tracer.close()
        self._causal_tracers = {}
        self.causal_base = None

    def deliver(self, rank: int, records: List[Dict[str, Any]]) -> None:
        """Route a batch of rank records to the parent-side instruments."""
        for record in records:
            for recorder in self._recorders:
                recorder.emit_record(record)
            if record.get("kind") in _EXPORTER_KINDS:
                for exporter in self._exporters:
                    exporter.add_rank_record(record)

    def absorb(self, rank: int, payload: Optional[Dict[str, Any]]) -> None:
        """Fold one recorder's finish payload back into the instruments."""
        if not payload:
            return
        if payload.get("shard"):
            self._opened.add(payload["shard"])
        for profiler, buckets in zip(self._profilers,
                                     payload.pop("profile", ())):
            profiler.absorb_buckets(buckets)
        batch = payload.pop("pending_batch", None)
        if batch:
            self.deliver(rank, batch)
        self.rank_reports[rank] = payload


class RankRecorder:
    """The rank-local half of the plan, built where the rank runs.

    Opens its own shard file (never the parent's sink), attaches a span
    observer, heartbeat, rank-local profilers and live slot to the
    rank's :class:`Simulation`, drives the rank's causal tracer,
    annotates every
    :class:`RankStep` with the records bound for the parent, and
    packages the harvest for :meth:`finish`.  :meth:`close` detaches
    everything; the ``serial`` backend relies on it, because its rank
    simulations outlive the run.
    """

    def __init__(self, plan: RankStreamPlan, psim: "ParallelSimulation",
                 rank: int):
        self.plan = plan
        self.rank = rank
        sim = self.sim = psim._sims[rank]
        self.shard_path: Optional[str] = None
        self._sink = None
        if plan.metrics_base is not None:
            path = rank_shard_path(plan.metrics_base, rank)
            path.parent.mkdir(parents=True, exist_ok=True)
            self.shard_path = str(path)
            mode = "a" if self.shard_path in plan._opened else "w"
            self._sink = open(path, mode, encoding="utf-8")
        #: parent stream recorders take every record; exporters take
        #: epoch and span records.
        self._stream = bool(plan._recorders)
        self._export = bool(plan._exporters)
        self._buffer: List[Dict[str, Any]] = []
        self._epoch = 0
        self._span_rows = 0
        # Rank-local counters registered in the rank's engine stats;
        # they merge across ranks through the ordinary sync_stats()
        # machinery (adopted from the workers under processes).
        stats = sim.engine_stats
        self._c_records = stats.counter("obs.rank_records")
        self._c_samples = stats.counter("obs.rank_samples")
        self._c_spans = stats.counter("obs.rank_spans")
        self._c_dropped = stats.counter("obs.rank_dropped")
        self._emit({
            "kind": "rank_start",
            "schema": RANK_STREAM_SCHEMA,
            "rank": rank,
            "ranks": psim.num_ranks,
            "backend": psim.backend,
            "pid": os.getpid(),
            "mono_s": _wall_time.perf_counter(),
            "created_unix": _wall_time.time(),
        })
        # One rank-local profiler per registered profiler, with its
        # sampling stride; finish() hands their buckets back in order.
        self._profilers = [HandlerProfiler(sim, sample_every=p.sample_every)
                           for p in plan._profilers]
        if self._export:
            sim.add_span_observer(self._on_span)
        self._heartbeat = (plan.heartbeat_every >= 1
                           and (self._sink is not None or self._stream))
        if self._heartbeat:
            sim.add_heartbeat(self._on_heartbeat,
                              every_events=plan.heartbeat_every)
        # Live plane: re-open the segment the parent created (by path,
        # so it works across the fork) and own this rank's slot.
        # Kernel-boundary state flips come free via sim._live_publisher;
        # the sampler keeps the slot moving mid-window.  Failures
        # degrade to a rank without live metrics, never a failed run.
        self._live = None
        self._live_segment = None
        self._live_sampler = None
        if plan.live_path is not None:
            try:
                from .live.publish import SlotSampler
                from .live.segment import LiveSegment, RankSlotWriter

                self._live_segment = LiveSegment.open(plan.live_path)
                self._live = RankSlotWriter(self._live_segment, rank, sim)
                sim._live_publisher = self._live
                self._live_sampler = SlotSampler([self._live],
                                                 plan.live_interval_s)
            except Exception:  # pragma: no cover - defensive
                self._close_live()
        # Causal tracing: the tracer splices into the rank sim's queue +
        # dispatch and outlives the run (the plan closes it); failures
        # degrade to a rank without causal capture.
        self._causal = None
        if plan.causal_base is not None:
            try:
                self._causal = plan.causal_tracer(psim, rank)
            except Exception:  # pragma: no cover - defensive
                self._causal = None

    # ------------------------------------------------------------------
    # record routing
    # ------------------------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        kept = False
        if self._sink is not None:
            self._sink.write(json.dumps(record) + "\n")
            kept = True
        if self._stream or (self._export
                            and record["kind"] in _EXPORTER_KINDS):
            self._buffer.append(record)
            kept = True
        if kept:
            self._c_records.add()

    # ------------------------------------------------------------------
    # observers (attached to the rank's simulation)
    # ------------------------------------------------------------------
    def _on_span(self, time: int, handler: Any, event: Any,
                 wall_seconds: float) -> None:
        if self._span_rows >= self.plan.span_limit:
            self._c_dropped.add()
            return
        self._span_rows += 1
        self._c_spans.add()
        self._emit(span_record(self.rank, time, handler, event,
                               wall_seconds))

    def _on_heartbeat(self, sim: Any) -> None:
        self._c_samples.add()
        self._emit({
            "kind": "rank_sample",
            "rank": self.rank,
            "mono_s": _wall_time.perf_counter(),
            "sim_ps": sim.now,
            "events": sim.events_executed,
            "queued": sim.pending_events,
        })

    # ------------------------------------------------------------------
    # hooks the backend drives
    # ------------------------------------------------------------------
    def on_step(self, step: Any, epoch_end: int) -> None:
        """Record one executed epoch window; attach the parent batch."""
        from ..core.backends import outbox_count

        if self._sink is not None or self._stream or self._export:
            end = _wall_time.perf_counter()
            self._emit({
                "kind": "rank_epoch",
                "rank": self.rank,
                "epoch": self._epoch,
                "mono_s": end - step.wall_seconds,
                "wall_s": step.wall_seconds,
                "events": step.events,
                "sent": outbox_count(step.outbox),
                "window_end_ps": epoch_end,
                "sim_ps": step.now,
            })
        self._epoch += 1
        if self._live is not None:
            try:
                self._live.record_step(step.wall_seconds)
                self._live.publish()
            except Exception:  # pragma: no cover - defensive
                self._close_live()
        if self._buffer:
            step.obs_records = self._buffer
            self._buffer = []
        if self._sink is not None:
            self._sink.flush()
        if self._causal is not None:
            try:
                self._causal.flush()
            except Exception:  # pragma: no cover - defensive
                self._causal = None

    def finish(self) -> Dict[str, Any]:
        """End the rank's section, close, and package the harvest."""
        self._emit({
            "kind": "rank_end",
            "rank": self.rank,
            "mono_s": _wall_time.perf_counter(),
            "events": self.sim.events_executed,
            "epochs": self._epoch,
            "records": self._c_records.count,
        })
        payload: Dict[str, Any] = {
            "rank": self.rank,
            "shard": self.shard_path,
            "causal_shard": (str(self._causal.path)
                             if self._causal is not None else None),
            "epochs": self._epoch,
            "records": self._c_records.count,
            "samples": self._c_samples.count,
            "spans": self._c_spans.count,
            "dropped": self._c_dropped.count,
        }
        if self._profilers:
            payload["profile"] = [p._buckets for p in self._profilers]
        if self._buffer:
            payload["pending_batch"] = self._buffer
            self._buffer = []
        self.close()
        return payload

    def close(self) -> None:
        """Detach from the rank simulation and release every resource.

        Safe to call repeatedly.  A run that fails mid-epoch ends here
        without :meth:`finish`: its shards stop short of ``rank_end``,
        which :mod:`repro.obs.merge` reports as truncated lanes.
        """
        sim = self.sim
        self._close_live()
        if self._export:
            sim.remove_span_observer(self._on_span)
            self._export = False
        if self._heartbeat:
            sim.remove_heartbeat(self._on_heartbeat)
            self._heartbeat = False
        for profiler in self._profilers:
            profiler.detach()
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def _close_live(self) -> None:
        if self._live_sampler is not None:
            try:
                self._live_sampler.stop()
            except Exception:  # pragma: no cover - defensive
                pass
            self._live_sampler = None
        if self._live is not None:
            if getattr(self.sim, "_live_publisher", None) is self._live:
                self.sim._live_publisher = None
            self._live.close()
            self._live = None
        if self._live_segment is not None:
            self._live_segment.close()
            self._live_segment = None
