"""Chrome trace-event exporter (Perfetto / chrome://tracing loadable).

Converts handler-execution spans and conservative-sync epochs into the
Trace Event JSON format: open the resulting ``trace.json`` at
https://ui.perfetto.dev (or ``chrome://tracing``) and scrub through the
run on a wall-clock timeline.

Mapping:

* **process (pid)** — parallel rank (0 for sequential runs);
* **thread (tid)**  — the simulated component the handler belongs to
  (one swim-lane per component), plus an ``[engine] epochs`` lane per
  rank for epoch windows;
* **complete events (ph "X")** — one span per handler invocation
  (``dur`` = measured wall time) and one per rank-epoch execution;
* **metadata (ph "M")** — process/thread naming.

Timestamps are wall-clock microseconds since the exporter attached.
On a parallel run the exporter is a sink of the rank stream
(:mod:`repro.obs.rank_stream`): each rank's recorder stamps its
``rank_epoch`` and ``span`` records where the rank runs, so under the
``serial`` backend the rank epochs show one after another, as they
executed.
"""

from __future__ import annotations

import json
import time as _wall_time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.parallel import ParallelSimulation
from ..core.simulation import Simulation
from .rank_stream import span_record


def build_trace_dict(events: List[Dict[str, Any]], *,
                     dropped_events: int = 0,
                     exporter: str = "repro.obs.chrome_trace",
                     extra: Union[Dict[str, Any], None] = None) -> Dict[str, Any]:
    """Wrap trace events in the Trace Event JSON envelope.

    Shared by the live :class:`ChromeTraceExporter` and the post-hoc
    cross-rank merge (:mod:`repro.obs.merge`), so both produce files the
    Perfetto UI loads identically.
    """
    other: Dict[str, Any] = {
        "exporter": exporter,
        "dropped_events": dropped_events,
    }
    if extra:
        other.update(extra)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def flow_pair(*, flow_id: int, name: str, cat: str,
              src: Tuple[int, int, float],
              dest: Tuple[int, int, float]) -> List[Dict[str, Any]]:
    """One Perfetto flow arrow as its ("s", "f") trace-event pair.

    ``src``/``dest`` are ``(pid, tid, ts_us)`` triples; the timestamps
    must fall inside enclosing "X" slices on those lanes for the UI to
    bind the arrow.  Used by :mod:`repro.obs.merge` to draw cross-rank
    causal edges (``obs merge --flows``).
    """
    src_pid, src_tid, src_ts = src
    dest_pid, dest_tid, dest_ts = dest
    return [
        {"ph": "s", "id": flow_id, "name": name, "cat": cat,
         "ts": src_ts, "pid": src_pid, "tid": src_tid},
        {"ph": "f", "bp": "e", "id": flow_id, "name": name, "cat": cat,
         "ts": dest_ts, "pid": dest_pid, "tid": dest_tid},
    ]


def rank_trace_event(record: Dict[str, Any], ts_us: float,
                     tid: Callable[[str], int]) -> Optional[Dict[str, Any]]:
    """The "X" trace event for one rank-stream ``rank_epoch`` or
    ``span`` record (None for other kinds).

    ``ts_us`` is the record's start on the trace timeline and ``tid``
    maps a lane label to its thread id on the record's rank.  Shared by
    the live exporter and the post-hoc merge (:mod:`repro.obs.merge`).
    """
    kind = record.get("kind")
    rank = int(record.get("rank", 0))
    if kind == "rank_epoch":
        return {
            "ph": "X",
            "name": f"epoch {record.get('epoch')}",
            "cat": "epoch",
            "ts": ts_us,
            "dur": float(record.get("wall_s", 0.0)) * 1e6,
            "pid": rank,
            "tid": tid("[engine] epochs"),
            "args": {"events": record.get("events"),
                     "sent": record.get("sent"),
                     "window_end_ps": record.get("window_end_ps"),
                     "sim_ps": record.get("sim_ps")},
        }
    if kind == "span":
        component = record.get("component", "<unknown>")
        return {
            "ph": "X",
            "name": f"{component}.{record.get('handler', '?')}",
            "cat": record.get("event", "-"),
            "ts": ts_us,
            "dur": float(record.get("dur_us", 0.0)),
            "pid": rank,
            "tid": tid(component),
            "args": {"sim_ps": record.get("sim_ps")},
        }
    return None


class ChromeTraceExporter:
    """Collect handler/epoch spans and write a ``trace.json``.

    Parameters
    ----------
    path:
        Output file for :meth:`close` (``None`` keeps events in memory;
        use :meth:`trace_dict`).
    max_events:
        Hard cap on collected span events — busy simulations produce
        millions of spans and the JSON grows linearly.  Once hit, new
        spans are dropped and ``dropped_events`` counts them.  On a
        parallel run each rank also caps its span rows at the rank
        plan's ``span_limit`` (counted in ``obs.rank_dropped``).
    """

    def __init__(self, path: Union[str, Path, None] = None, *,
                 max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.path = Path(path) if path is not None else None
        self.max_events = max_events
        self.events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        self._span_count = 0  # "X" records only; metadata is uncapped
        self._t0 = _wall_time.perf_counter()
        self._target: Union[Simulation, ParallelSimulation, None] = None
        self._plan = None
        self._tids: Dict[Tuple[int, str], int] = {}
        self._named_pids: set = set()

    # ------------------------------------------------------------------
    # attach
    # ------------------------------------------------------------------
    def attach(self, target: Union[Simulation, ParallelSimulation]) -> "ChromeTraceExporter":
        """Collect ``target``'s spans: a sequential run through a span
        observer, a parallel run as a sink of its rank plan."""
        self._t0 = _wall_time.perf_counter()
        self._target = target
        if isinstance(target, ParallelSimulation):
            from .rank_stream import ensure_rank_plan
            self._plan = ensure_rank_plan(target)
            self._plan.register_exporter(self)
        else:
            target.add_span_observer(self._on_span)
        return self

    def detach(self) -> None:
        target, self._target = self._target, None
        if self._plan is not None:
            self._plan.unregister_exporter(self)
            self._plan = None
        elif target is not None:
            target.remove_span_observer(self._on_span)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _tid(self, pid: int, label: str) -> int:
        key = (pid, label)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            if pid not in self._named_pids:
                self._named_pids.add(pid)
                self.events.append({
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"rank {pid}"},
                })
            self.events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
        return tid

    def _on_span(self, time, handler, event, wall_seconds) -> None:
        self.add_rank_record(span_record(self._target.rank, time, handler,
                                         event, wall_seconds))

    def add_rank_record(self, record: Dict[str, Any]) -> None:
        """Add one rank-stream ``rank_epoch`` or ``span`` record.

        Records stamp their start with a raw ``perf_counter`` reading
        (``mono_s``) — CLOCK_MONOTONIC, system-wide on Linux — so
        subtracting this exporter's own ``_t0`` puts every rank on one
        timeline.
        """
        if self._span_count >= self.max_events:
            self.dropped_events += 1
            return
        rank = int(record.get("rank", 0))
        event = rank_trace_event(
            record, (float(record["mono_s"]) - self._t0) * 1e6,
            lambda label: self._tid(rank, label))
        if event is not None:
            self._span_count += 1
            self.events.append(event)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def trace_dict(self) -> Dict[str, Any]:
        return build_trace_dict(list(self.events),
                                dropped_events=self.dropped_events)

    def close(self) -> Union[Path, None]:
        """Detach and write ``trace.json``; returns the path written."""
        self.detach()
        if self.path is None:
            return None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.trace_dict()) + "\n",
                             encoding="utf-8")
        return self.path

    def __enter__(self) -> "ChromeTraceExporter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
