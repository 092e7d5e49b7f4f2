"""The traced run: spans around every public layer call, and the
per-layer ledger derived from them.

Spans are recorded from outside the program, around the benchmark's own
calls into each layer (graph declare and build, ``partition``, ``run``,
the epoch observer, ``snapshot``/``restore``, recorder finalize,
``stat_values``).  Checkpoint capture and shard writes happen inside
``Simulation.run``, so they are timed by swapping the module attributes
``repro.ckpt.snapshot.capture_sim_state``/``write_shard`` and
``repro.ckpt.restore.snapshot`` for timing wrappers for the duration of
the traced run.  Handler time comes from ``repro.obs.HandlerProfiler``.

Every ledger metric is printed on every workload.  A layer that does no
work on a workload reads 0 there (no parallel epochs on the serial
engine, no snapshots outside ``cluster_ckpt``, ...).
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from repro import ckpt
from repro.core import partition
from repro.obs import HandlerProfiler

import workloads as wl

# ``repro.ckpt`` re-exports functions named ``snapshot`` and ``restore``,
# which shadow the submodules as package attributes.
ckpt_snapshot = import_module("repro.ckpt.snapshot")
ckpt_restore = import_module("repro.ckpt.restore")

#: sequential runs sample the pending-event count every this many events
HEARTBEAT_EVERY = 1000

#: model families whose handler time the ledger reports separately
FAMILIES = ("memory", "processor", "network", "miniapps", "cluster")

#: every per-layer metric and its unit, in report order
LEDGER = {
    "config.declare_s": "s", "config.build_s": "s",
    "config.components": "count", "config.links": "count",
    "partition.s": "s", "partition.cut_links": "count",
    "partition.imbalance": "ratio", "partition.lookahead_ps": "ps",
    "kernel.events": "count", "kernel.run_s": "s", "kernel.ns_per_event": "ns",
    "kernel.handler_s": "s", "kernel.overhead_s": "s",
    "eventqueue.depth_max": "count",
    "parallel.start_s": "s", "parallel.finalize_s": "s",
    "parallel.epochs": "count", "parallel.remote_events": "count",
    "parallel.exchange_bytes": "bytes", "parallel.exec_s": "s",
    "parallel.barrier_wait_s": "s", "parallel.exchange_s": "s",
    "parallel.epoch_us_p50": "us", "parallel.epoch_us_p99": "us",
    "parallel.lookahead_util": "ratio", "parallel.unattributed_s": "s",
    **{f"{family}.handler_s": "s" for family in FAMILIES},
    "memory.l1_hit_rate": "ratio", "memory.mean_latency_ns": "ns",
    "miniapps.runtime_us": "us", "cluster.utilization": "ratio",
    "cluster.mean_wait_s": "s",
    "ckpt.snapshots": "count", "ckpt.capture_s": "s", "ckpt.write_s": "s",
    "ckpt.bytes": "bytes", "ckpt.restore_s": "s",
    "obs.records": "count", "obs.metrics_bytes": "bytes",
    # ratios of medians over several iterations, computed by run.py
    "obs.overhead_frac": "ratio", "trace.overhead_frac": "ratio",
}


class Epoch(NamedTuple):
    """One parallel epoch as the epoch observer saw it."""

    seen: float  #: perf_counter() when the observer was called
    wall: float  #: the backend step (every rank through the window)
    exchange: float  #: the cross-rank exchange before the step
    rank_walls: float  #: sum over ranks of each rank's own step time


class Tracer:
    """Spans ``(name, start, end, parent)`` kept in memory until the run ends.

    ``parent`` is the index of the enclosing span (None at top level).
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.record(name, perf_counter(), math.nan)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def record(self, name: str, start: float, end: float) -> int:
        """Add a finished span under the innermost open one."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    @contextmanager
    def wrapping(self, module: Any, attr: str, name: str) -> Iterator[None]:
        """Time every call to ``module.attr`` as a span while inside."""
        original: Callable[..., Any] = getattr(module, attr)

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, timed)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def as_records(self) -> List[Dict[str, Any]]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced_iteration(name: str, size: wl.Size, seed: int,
                     work: Path) -> Dict[str, Any]:
    """Run the workload once with every layer spanned; return the ledger."""
    tracer = Tracer()
    parallel = wl.backend_for(name) is not None
    depth = [0]
    epochs: List[Epoch] = []

    def on_heartbeat(sim) -> None:
        depth[0] = max(depth[0], sim.pending_events)

    def on_epoch(info) -> None:
        now = perf_counter()
        tracer.record("parallel.epoch",
                      now - info.wall_seconds - info.exchange_seconds, now)
        epochs.append(Epoch(now, info.wall_seconds, info.exchange_seconds,
                            sum(info.per_rank_wall)))

    with tracer.wrapping(ckpt_snapshot, "capture_sim_state", "ckpt.capture"), \
            tracer.wrapping(ckpt_snapshot, "write_shard", "ckpt.write"), \
            tracer.wrapping(ckpt_restore, "snapshot", "ckpt.snapshot"):
        with tracer.span("config.declare"):
            graph = wl.declare(name, size)
        nodes, edges, weights = graph.partition_inputs()
        with tracer.span("core.partition"):
            part = partition(nodes, edges, wl.ranks_for(name),
                             strategy=wl.WORKLOADS[name].strategy,
                             weights=weights)
        with tracer.span("config.build"):
            sim = wl.build_engine(name, graph, seed)
        with tracer.span("obs.attach"):
            recorder = wl.attach_recorder(name, sim, work)
        profiler = HandlerProfiler(sim)
        if parallel:
            sim.add_epoch_observer(on_epoch)
        # Per-event observers do not cross the fork, so the queue depth
        # is sampled only where the kernels run in this process.
        if wl.backend_for(name) != "processes":
            ranks = ([sim.rank_sim(r) for r in range(sim.num_ranks)]
                     if parallel else [sim])
            for rank_sim in ranks:
                rank_sim.add_heartbeat(on_heartbeat,
                                       every_events=HEARTBEAT_EVERY)
        gc.collect()
        t0 = perf_counter()
        with tracer.span("core.run") as run_span:
            result = sim.run(**wl.run_kwargs(name, size, work))
        if recorder is not None:
            with tracer.span("obs.finalize"):
                recorder.finalize(result, graph=graph)
        with tracer.span("core.stat_values"):
            values = sim.stat_values()
        run_s = perf_counter() - t0
        profiler.detach()
        resume_diffs: List[str] = []
        if name == "cluster_ckpt":
            middle = sim.checkpoints_written[len(sim.checkpoints_written) // 2]
            with tracer.span("ckpt.restore"):
                resumed = ckpt.restore(middle)
            with tracer.span("core.resume"):
                resumed.run()
            resume_diffs = wl.same_stats(resumed.stat_values(), values)

    metrics: Dict[str, float] = {
        "config.declare_s": tracer.seconds("config.declare"),
        "config.build_s": tracer.seconds("config.build"),
        "config.components": len(graph.components()),
        "config.links": len(graph.links()),
        "partition.s": tracer.seconds("core.partition"),
        "partition.cut_links": part.cut_edges,
        "partition.imbalance": part.imbalance,
        "partition.lookahead_ps": part.min_cut_latency or 0,
    }
    metrics.update(_kernel_metrics(tracer, run_span, result, profiler,
                                   epochs, depth[0], parallel))
    if parallel:
        metrics.update(_parallel_metrics(tracer, run_span, result, epochs))
    else:
        metrics.update({k: 0 for k in LEDGER if k.startswith("parallel.")})
    # Handler time per model family: ``memory.Cache`` -> ``memory``.
    family = {c.name: c.type_name.split(".", 1)[0] for c in graph.components()}
    rows = profiler.rows()
    for fam in FAMILIES:
        metrics[f"{fam}.handler_s"] = sum(
            row.wall_seconds for row in rows if family.get(row.component) == fam)
    metrics.update(wl.simulated_outputs(name, sim, size))
    metrics.update(_ckpt_obs_metrics(tracer, sim, recorder, work))
    return {"metrics": metrics, "spans": tracer.as_records(), "run_s": run_s,
            "events": result.events_executed, "values": values,
            "resume_diffs": resume_diffs}


def _kernel_metrics(tracer: Tracer, run_span: int, result, profiler,
                    epochs: List[Epoch], depth_max: int,
                    parallel: bool) -> Dict[str, float]:
    run_s = tracer.duration(run_span)
    handler_s = profiler.total_seconds()
    # Kernel busy time: the run itself on the serial engine, the sum of
    # every rank's epoch execution time on the parallel one.
    busy_s = sum(e.rank_walls for e in epochs) if parallel else run_s
    return {
        "kernel.events": result.events_executed,
        "kernel.run_s": run_s,
        "kernel.ns_per_event": run_s / result.events_executed * 1e9,
        "kernel.handler_s": handler_s,
        "kernel.overhead_s": busy_s - handler_s,
        "eventqueue.depth_max": depth_max,
    }


def _parallel_metrics(tracer: Tracer, run_span: int, result,
                      epochs: List[Epoch]) -> Dict[str, float]:
    run_start, run_end = tracer.spans[run_span][1:3]
    first, last = epochs[0], epochs[-1]
    # start: run() called -> first epoch begins; finalize: last epoch's
    # callback -> run() returns.  What is left after subtracting those
    # and every epoch's exchange + step time is loop bookkeeping that no
    # engine counter attributes.
    start_s = first.seen - first.wall - first.exchange - run_start
    finalize_s = run_end - last.seen
    epoch_s = sum(e.wall + e.exchange for e in epochs)
    walls_us = [e.wall * 1e6 for e in epochs]
    return {
        "parallel.start_s": start_s,
        "parallel.finalize_s": finalize_s,
        "parallel.epochs": result.epochs,
        "parallel.remote_events": result.remote_events,
        "parallel.exchange_bytes": result.exchange_bytes,
        "parallel.exec_s": result.exec_seconds,
        "parallel.barrier_wait_s": result.barrier_wait_seconds,
        "parallel.exchange_s": result.exchange_seconds,
        "parallel.epoch_us_p50": percentile(walls_us, 0.50),
        "parallel.epoch_us_p99": percentile(walls_us, 0.99),
        "parallel.lookahead_util": result.lookahead_utilization,
        "parallel.unattributed_s": (run_end - run_start) - start_s
                                   - epoch_s - finalize_s,
    }


def _ckpt_obs_metrics(tracer: Tracer, sim, recorder: Optional[Any],
                      work: Path) -> Dict[str, float]:
    snapshots = len(sim.checkpoints_written)
    metrics_file = work / "metrics.jsonl"
    records = bytes_ = 0
    if recorder is not None:
        with open(metrics_file, encoding="utf-8") as fh:
            records = sum(1 for _ in fh)
        bytes_ = metrics_file.stat().st_size + recorder.manifest_path.stat().st_size
    return {
        "ckpt.snapshots": snapshots,
        "ckpt.capture_s": tracer.seconds("ckpt.capture"),
        "ckpt.write_s": tracer.seconds("ckpt.write"),
        "ckpt.bytes": wl.tree_bytes(work / "ckpt") if snapshots else 0,
        "ckpt.restore_s": tracer.seconds("ckpt.restore"),
        "obs.records": records,
        "obs.metrics_bytes": bytes_,
    }
