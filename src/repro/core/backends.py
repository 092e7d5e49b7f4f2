"""Layer 3: execution backends — where each rank's kernel loop runs.

An :class:`ExecutionBackend` executes one conservative-sync epoch on
every rank of a :class:`~repro.core.parallel.ParallelSimulation` and
reports a :class:`RankStep` per rank.  Two substrates are provided:

* :class:`SerialBackend`    — ranks step one after another in the
  calling thread.  Zero concurrency, 100% determinism; the reference
  backend used by the equivalence tests.
* :class:`ProcessesBackend` — true multi-process PDES: one forked
  worker per rank, exchanging pickled event batches over pipes.
  This is the backend that scales past the GIL.  Requirements and
  caveats:

  - the ``fork`` start method (Linux/macOS); workers inherit the fully
    wired per-rank simulations, so nothing but events and statistics
    ever crosses the process boundary;
  - events sent over cross-rank links must be picklable (slotted
    payload-only events are; events carrying live object references
    are not, and raise a descriptive error);
  - per-event observers attached directly to a rank simulation are
    detached inside the workers with a one-time
    :class:`RankObservabilityWarning`;
  - parent-side component *objects* are not synchronized back, but
    their registered statistics are (adopted in ``finalize()``), so
    ``stat_values()`` equivalence holds across all backends.

Per-rank observability takes one path on both backends.  When the run
carries an active rank plan (``psim.rank_plan``, duck-typed — see
:mod:`repro.obs.rank_stream`), the backend builds one rank recorder per
rank where that rank runs (in-process for ``serial``, inside each
worker for ``processes``), hands it every :class:`RankStep`, and routes
the records it returns to ``plan.deliver`` after each epoch and its
harvest to ``plan.absorb`` at ``finalize()``.

The same substrate names power :class:`JobPool`, the coarse-grained
variant used by :func:`repro.dse.sweep` to evaluate independent design
points in parallel.
"""

from __future__ import annotations

import os
import pickle
import time as _wall_time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from .kernel import harvest_engine_stats, harvest_stats, kernel_step
from .simulation import SimulationError
from .statistics import adopt_state
from .sync import OutboxEntry
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .parallel import ParallelSimulation
    from .simulation import Simulation


class RankObservabilityWarning(UserWarning):
    """A per-event observer was detached at the process-fork boundary.

    Raised (once per unique observer set) by :class:`ProcessesBackend`
    when a rank simulation carries trace/span/heartbeat observers at
    fork time: their sinks live in the parent process, so inside the
    forked worker they would silently record into memory that dies with
    the worker.  Attach through ``repro.obs`` instead (its instruments
    register on the rank plan and work on every backend), and use
    ``python -m repro obs merge`` on the per-rank shards for the merged
    post-hoc view.
    """


def _describe_observer(fn: Any) -> str:
    """Human-readable identity of an observer callback for warnings."""
    qual = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{getattr(fn, '__name__', qual)}"
    return qual or repr(fn)


@dataclass
class RankStep:
    """What one rank reports after executing one epoch window."""

    wall_seconds: float
    events: int
    #: cross-rank sends made during this window (undelivered), batched
    #: per destination rank: ``outbox[dest_rank] -> [OutboxEntry, ...]``.
    #: Empty list when the rank sent nothing this window.
    outbox: List[List[OutboxEntry]]
    #: earliest event still queued on this rank, or None when drained
    next_time: Optional[SimTime]
    #: primary components on this rank still holding the run open
    primaries_pending: int
    last_event_time: SimTime
    now: SimTime
    #: rank recorder records bound for the parent (riding the pipe
    #: under processes); handed to the rank plan before the step
    #: reaches the sync strategy.
    obs_records: Optional[List[Dict[str, Any]]] = None


def outbox_count(outbox: List[List[OutboxEntry]]) -> int:
    """Total entries across a per-destination outbox (0 for empty)."""
    if not outbox:
        return 0
    return sum(len(bucket) for bucket in outbox)


def drain_outbox(psim: "ParallelSimulation", rank: int) -> List[List[OutboxEntry]]:
    """Snapshot-and-clear ``rank``'s per-destination outbox.

    Returns the per-destination nested lists when anything was sent this
    window, or ``[]`` (falsy) when the rank was silent.  Buckets are
    cleared in place — the sender closures hold references to them.
    """
    by_dest = psim._outboxes[rank]
    if not any(by_dest):
        return []
    drained = [list(bucket) for bucket in by_dest]
    for bucket in by_dest:
        bucket.clear()
    return drained


def deliver_cross_rank(psim: "ParallelSimulation", rank: int,
                       entries: Sequence[OutboxEntry]) -> None:
    """Push exchanged entries into ``rank``'s queue, in the given order.

    Entries arrive pre-sorted on the global deterministic key (see
    :meth:`~repro.core.sync.ConservativeSync.exchange`); the local queue
    assigns fresh sequence numbers in that order, which keeps
    tie-breaking backend independent.  Destination ports are resolved
    from the link id, so this works identically in-process and inside a
    forked worker (which inherited the same cross-link table).
    """
    sim = psim._sims[rank]
    queue = sim._queue
    cross = psim._cross_links
    causal = sim._causal
    if causal is None:
        for when, priority, link_id, dest_rank, _seq, event in entries:
            link = cross[link_id]
            port = link.port_b if dest_rank == link.rank_b else link.port_a
            queue.push(when, priority, port.deliver, event)
        return
    # Causal tracing (repro.obs.causal): record each arrival's local
    # node id against its (link, send_seq) identity so the analyzer can
    # stitch the cross-rank edge back to the sender's cause node.
    for when, priority, link_id, dest_rank, send_seq, event in entries:
        link = cross[link_id]
        port = link.port_b if dest_rank == link.rank_b else link.port_a
        seq = queue.push(when, priority, port.deliver, event)
        causal.on_cross_recv(seq, link_id, send_seq, when, priority)


def _timed_step(sim: "Simulation", epoch_end: SimTime) -> RankStep:
    """Run one rank's kernel window and package the result.

    Wall time is measured where the rank runs, so the processes backend
    sees true per-rank durations; the outbox is drained by the caller (it
    lives on the ParallelSimulation, per source rank).
    """
    perf = _wall_time.perf_counter
    t0 = perf()
    events = kernel_step(sim, epoch_end)
    wall = perf() - t0
    return RankStep(wall_seconds=wall, events=events, outbox=[],
                    next_time=sim.next_event_time(),
                    primaries_pending=sim.primaries_pending,
                    last_event_time=sim.last_event_time, now=sim.now)


def start_recorder(psim: "ParallelSimulation", rank: int) -> Optional[Any]:
    """Build ``rank``'s recorder from the run's rank plan, where the
    rank runs; None when no plan is attached or it has nothing to do.

    Observability must never fail a run: a recorder that cannot start
    degrades to a bare rank.
    """
    plan = psim.rank_plan
    if plan is None:
        return None
    try:
        return plan.rank_recorder(psim, rank)
    except Exception:  # pragma: no cover - defensive
        import sys
        import traceback

        print(f"repro: rank {rank} telemetry recorder failed to start; "
              f"continuing without it:\n{traceback.format_exc()}",
              file=sys.stderr)
        return None


def record_step(recorder: Optional[Any], step: RankStep,
                epoch_end: SimTime) -> Optional[Any]:
    """Hand ``step`` to ``recorder``; returns the recorder to keep using,
    or None once it failed (a failed recorder is closed and dropped)."""
    if recorder is None:
        return None
    try:
        recorder.on_step(step, epoch_end)
    except Exception:  # pragma: no cover - defensive
        try:
            recorder.close()
        except Exception:
            pass
        return None
    return recorder


class ExecutionBackend:
    """Interface: execute epoch windows for every rank of a parallel run."""

    name = "base"

    #: bytes moved by the most recent :meth:`step`'s exchange (transport
    #: payload both directions); 0 for in-process backends, surfaced per
    #: epoch through :class:`~repro.core.parallel.EpochInfo`.
    last_exchange_bytes: int = 0

    def __init__(self, psim: "ParallelSimulation"):
        self.psim = psim

    def start(self) -> None:
        """Acquire execution resources (workers).  Idempotent."""

    def initial_next_times(self) -> List[Optional[SimTime]]:
        """Per-rank earliest queued event before the first epoch."""
        return [sim.next_event_time() for sim in self.psim._sims]

    def step(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        """Deliver this epoch's exchanged events, run every rank through
        ``epoch_end`` (inclusive), and report per-rank results."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Synchronize any out-of-process rank state back to the parent.

        Called once after a run's epoch loop completes normally; a
        no-op for in-process backends."""

    def snapshot_rank(self, rank: int, shard_path: str) -> Dict[str, Any]:
        """Write ``rank``'s engine state as a checkpoint shard file.

        Called by :func:`repro.ckpt.snapshot_parallel` at an epoch
        boundary (outboxes drained into the sync strategy, no rank
        mid-window), which is the only point where per-rank state is
        globally consistent.  The state must be captured *where the
        live rank lives*: in-process backends capture directly, the
        processes backend delegates to the worker that owns the rank.
        Returns the shard metadata dict (``sha256``, ``size``) recorded
        in the snapshot manifest.
        """
        from ..ckpt.snapshot import write_rank_shard

        return write_rank_shard(self.psim, rank, shard_path)

    def _deliver_records(self, steps: List[RankStep]) -> None:
        """Hand the recorders' parent-bound records to the rank plan
        before the sync strategy ever sees the steps."""
        plan = self.psim.rank_plan
        if plan is None:
            return
        for rank, step in enumerate(steps):
            if step.obs_records:
                plan.deliver(rank, step.obs_records)
                step.obs_records = None

    def close(self) -> None:
        """Release execution resources.  Safe to call repeatedly."""


class SerialBackend(ExecutionBackend):
    """Ranks step one after another in the calling thread (reference)."""

    name = "serial"

    def __init__(self, psim: "ParallelSimulation"):
        super().__init__(psim)
        #: one rank recorder (or None) per rank, built by start()
        self._recorders: List[Optional[Any]] = []

    def start(self) -> None:
        if not self._recorders:
            self._recorders = [start_recorder(self.psim, rank)
                               for rank in range(self.psim.num_ranks)]

    def step(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        psim = self.psim
        for rank, entries in enumerate(deliveries):
            if entries:
                deliver_cross_rank(psim, rank, entries)
        recorders = self._recorders
        steps = []
        for rank, sim in enumerate(psim._sims):
            result = _timed_step(sim, epoch_end)
            result.outbox = drain_outbox(psim, rank)
            recorders[rank] = record_step(recorders[rank], result, epoch_end)
            steps.append(result)
        self._deliver_records(steps)
        return steps

    def finalize(self) -> None:
        plan = self.psim.rank_plan
        for rank, recorder in enumerate(self._recorders):
            if recorder is not None:
                plan.absorb(rank, recorder.finish())
        self._recorders = []

    def close(self) -> None:
        for recorder in self._recorders:
            if recorder is not None:
                recorder.close()
        self._recorders = []


def _send_msg(conn, msg: Any) -> None:
    """One pickled batch per pipe write (highest pickle protocol).

    Every exchange message — the epoch's whole per-destination entry
    batch included — crosses the pipe as a single ``send_bytes`` of one
    pre-pickled buffer, rather than leaving framing and (older-protocol)
    pickling to ``Connection.send``.
    """
    conn.send_bytes(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))


def _recv_msg(conn) -> Any:
    return pickle.loads(conn.recv_bytes())


class ProcessesBackend(ExecutionBackend):
    """One forked worker process per rank, event batches over pipes.

    The parent process runs the sync strategy and the epoch loop; each
    worker owns one rank's :class:`Simulation` (inherited fully wired
    via fork) and runs its kernel windows on command.  Only exchanged
    events, step metadata and the final statistics harvest cross the
    process boundary, each message as one pickled batch per pipe write.
    """

    name = "processes"

    def __init__(self, psim: "ParallelSimulation"):
        super().__init__(psim)
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise SimulationError(
                "the 'processes' backend requires the fork start method "
                "(Linux/macOS); use backend='serial' here"
            )
        self._ctx = mp.get_context("fork")
        self._procs: List[Any] = []
        self._conns: List[Any] = []

    def start(self) -> None:
        if self._procs:
            return
        self._warn_uncovered_observers()
        # Fork AFTER setup(): workers inherit wired graphs, queued
        # setup events and registered primaries.  The parent keeps the
        # setup-time outbox entries (workers clear their copies).
        for rank in range(self.psim.num_ranks):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self.psim, rank, child_conn),
                name=f"repro-rank{rank}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _warn_uncovered_observers(self) -> None:
        """Detaching an observer at the fork boundary must not be silent.

        Workers strip every per-event observer attached to a rank
        simulation (``repro.obs`` instruments attach none: they work
        through the rank plan), so name each one in a structured
        one-time warning.
        """
        doomed: List[str] = []
        for rank, sim in enumerate(self.psim._sims):
            candidates: List[Any] = list(sim._trace_observers)
            candidates.extend(sim._span_observers)
            candidates.extend(sim._heartbeats)
            for fn in candidates:
                doomed.append(f"rank {rank}: {_describe_observer(fn)}")
        if doomed:
            warnings.warn(
                "processes backend: detaching per-event observers "
                "attached to rank simulations — "
                + "; ".join(sorted(set(doomed)))
                + ".  Their sinks live in the parent process and would "
                "record into memory that dies with the workers.  Attach "
                "the repro.obs instruments to the ParallelSimulation "
                "instead (a TelemetryRecorder with a metrics path writes "
                "per-rank JSONL shards), then merge post-hoc with "
                "'python -m repro obs merge <metrics.jsonl>'.",
                RankObservabilityWarning,
                stacklevel=3,
            )

    def step(self, epoch_end: SimTime,
             deliveries: List[List[OutboxEntry]]) -> List[RankStep]:
        sent = 0
        for conn, entries in zip(self._conns, deliveries):
            blob = pickle.dumps(("step", epoch_end, entries),
                                pickle.HIGHEST_PROTOCOL)
            conn.send_bytes(blob)
            sent += len(blob)
        self.last_exchange_bytes = sent
        steps = []
        for rank in range(self.psim.num_ranks):
            raw = self._recv_raw(rank)
            self.last_exchange_bytes += len(raw)
            msg = pickle.loads(raw)
            if msg[0] == "error":
                raise msg[1]
            steps.append(msg[1])
        self._deliver_records(steps)
        return steps

    def finalize(self) -> None:
        """Adopt worker-side results into the parent-side simulations.

        Workers run ``finish()`` (so component finish hooks see their
        true final state) and ship their statistic collectors back; the
        parent copies collector state into its own objects in place, so
        existing references (``component.stats``, merged harvests)
        observe the worker's results.  Component attributes other than
        statistics are *not* synchronized — use stats, that's what they
        are for.
        """
        if not self._procs:
            return
        for conn in self._conns:
            _send_msg(conn, ("finish",))
        for rank in range(self.psim.num_ranks):
            payload = self._recv(rank)
            sim = self.psim._sims[rank]
            sim.now = payload["now"]
            sim.last_event_time = payload["last_event_time"]
            sim._events_executed = payload["events_executed"]
            sim._primaries_pending = payload["primaries_pending"]
            # comp.finish() already ran worker-side with live state;
            # running it again on the stale parent copy would corrupt
            # the adopted statistics.
            sim._finished = True
            for comp_name, stats in payload["stats"].items():
                group = sim._components[comp_name].stats.all()
                for stat_name, remote in stats.items():
                    _adopt_stat(group[stat_name], remote)
            # Engine stats are adopted *additively only*: names the
            # parent already tracks (sync.* — maintained parent-side
            # during the epoch loop) keep their live values; names only
            # the worker registered (obs.* rank-telemetry counters) are
            # adopted wholesale so harvest_stats-style merging sees
            # them.  _register returns the existing collector untouched
            # when the name is taken, which is exactly that rule.
            for name, remote in (payload.get("engine_stats") or {}).items():
                sim.engine_stats._register(name, remote)
            plan = self.psim.rank_plan
            if plan is not None:
                plan.absorb(rank, payload.get("obs"))

    def snapshot_rank(self, rank: int, shard_path: str) -> Dict[str, Any]:
        """Ask the worker that owns ``rank`` to write its own shard.

        The parent's rank simulations are stale copies under this
        backend (frozen at fork time); the live state is in the worker,
        so the shard is captured and written worker-side and only the
        checksum metadata crosses the pipe.
        """
        _send_msg(self._conns[rank], ("snapshot", shard_path))
        return self._recv(rank)

    def worker_pid(self, rank: int) -> Optional[int]:
        """The pid of the forked worker that owns ``rank`` (or None)."""
        if rank < len(self._procs):
            return self._procs[rank].pid
        return None

    def request_stack_dump(self, rank: int, dump_path: str, *,
                           timeout_s: float = 2.0) -> Optional[str]:
        """Extract a stack dump from rank ``rank``'s worker via SIGUSR1.

        Only works when the run's plan carried ``live_dump_base`` (the
        worker registered the faulthandler signal at startup — see
        :func:`repro.obs.live.watchdog.enable_stack_dump_signal`).  The
        pipe command channel is deliberately not used: a wedged worker
        never returns to the command loop, while the signal path dumps
        from any state.
        """
        from ..obs.live.watchdog import request_stack_dump

        pid = self.worker_pid(rank)
        if pid is None:
            return None
        return request_stack_dump(pid, dump_path, timeout_s=timeout_s)

    def _recv_raw(self, rank: int) -> bytes:
        try:
            return self._conns[rank].recv_bytes()
        except (EOFError, OSError) as exc:
            raise SimulationError(
                f"rank {rank} worker process died unexpectedly"
            ) from exc

    def _recv(self, rank: int):
        msg = pickle.loads(self._recv_raw(rank))
        if msg[0] == "error":
            raise msg[1]
        return msg[1]

    def close(self) -> None:
        for conn in self._conns:
            try:
                _send_msg(conn, ("close",))
            except (OSError, ValueError, BrokenPipeError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
        self._procs = []
        self._conns = []


def _adopt_stat(local, remote) -> None:
    """Copy a worker statistic's state into the parent's collector.

    In-place state copy (not object replacement) so references held by
    the parent component — ``self.received`` and friends — observe the
    adopted values too.  Delegates to
    :func:`repro.core.statistics.adopt_state`, the same primitive the
    checkpoint layer uses to adopt snapshot statistics.
    """
    try:
        adopt_state(local, remote)
    except TypeError as exc:
        raise SimulationError(str(exc)) from None


def _worker_main(psim: "ParallelSimulation", rank: int, conn) -> None:
    """Per-rank worker loop (runs in a forked child process).

    Every command — epoch steps, snapshots, the final harvest and
    shutdown — arrives on the rank's pipe.
    """
    import traceback

    sim = psim._sims[rank]
    # Per-event observers cannot usefully cross the process boundary
    # (their sinks — files, aggregation dicts — live in the parent);
    # detach them so the kernel loop dispatches handlers directly.  The
    # parent warned about each one.
    sim._trace_observers = []
    sim._span_observers = []
    sim._heartbeats = {}
    sim._rebuild_instr()
    recorder = start_recorder(psim, rank)
    plan = psim.rank_plan
    if plan is not None:
        # Watchdog stack dumps: register SIGUSR1 -> faulthandler so the
        # parent can extract this worker's stack even while it is wedged
        # inside a handler.
        dump_base = getattr(plan, "live_dump_base", None)
        if dump_base:
            try:
                from ..obs.live.watchdog import enable_stack_dump_signal
                enable_stack_dump_signal(f"{dump_base}.stack.rank{rank}")
            except Exception:  # pragma: no cover - defensive
                pass
    # Setup-time sends were captured by the parent at fork; drop the
    # inherited copies so they are not delivered twice.
    for by_dest in psim._outboxes:
        for bucket in by_dest:
            bucket.clear()

    def send_error(exc: BaseException) -> None:
        try:
            _send_msg(conn, ("error", exc))
        except Exception:  # unpicklable exception: ship the traceback text
            _send_msg(conn, ("error", SimulationError(
                f"rank {rank} worker failed:\n{traceback.format_exc()}"
            )))

    def run_step(epoch_end, entries) -> None:
        try:
            deliver_cross_rank(psim, rank, entries)
            result = _timed_step(sim, epoch_end)
        except Exception as exc:
            send_error(exc)
            return
        result.outbox = drain_outbox(psim, rank)
        nonlocal recorder
        recorder = record_step(recorder, result, epoch_end)
        try:
            _send_msg(conn, ("ok", result))
        except Exception as exc:
            send_error(SimulationError(
                f"rank {rank}: a cross-rank event is not "
                f"serializable (events crossing ranks under the "
                f"processes backend must be picklable): {exc}"
            ))

    def handle_control(msg) -> bool:
        """Dispatch one pipe control command; False = stop the worker."""
        cmd = msg[0]
        if cmd == "snapshot":
            _, shard_path = msg
            try:
                from ..ckpt.snapshot import write_rank_shard

                _send_msg(conn, ("ok", write_rank_shard(psim, rank,
                                                        shard_path)))
            except Exception as exc:
                send_error(exc)
        elif cmd == "finish":
            nonlocal recorder
            try:
                sim.finish()
                obs_payload = None
                if recorder is not None:
                    try:
                        obs_payload = recorder.finish()
                    except Exception:  # pragma: no cover - defensive
                        obs_payload = None
                    recorder = None
                payload = {
                    "stats": harvest_stats(sim),
                    "engine_stats": harvest_engine_stats(sim),
                    "obs": obs_payload,
                    "events_executed": sim._events_executed,
                    "now": sim.now,
                    "last_event_time": sim.last_event_time,
                    "primaries_pending": sim.primaries_pending,
                }
                _send_msg(conn, ("ok", payload))
            except Exception as exc:
                send_error(exc)
        elif cmd == "close":
            return False
        return True

    try:
        while True:
            try:
                msg = _recv_msg(conn)
            except (EOFError, OSError):
                return
            if msg[0] == "step":
                run_step(msg[1], msg[2])
            elif not handle_control(msg):
                return
    finally:
        if recorder is not None:
            recorder.close()
        if plan is not None:
            plan.close_causal()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


#: Registry used by ParallelSimulation(backend="...") and the CLI.
BACKENDS: Dict[str, Callable[["ParallelSimulation"], ExecutionBackend]] = {
    "serial": SerialBackend,
    "processes": ProcessesBackend,
}


def make_backend(name: str, psim: "ParallelSimulation") -> ExecutionBackend:
    """Instantiate an execution backend by name."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; options: {sorted(BACKENDS)}"
        ) from None
    return factory(psim)


# ----------------------------------------------------------------------
# Coarse-grained job pools (the dse.sweep substrate)
# ----------------------------------------------------------------------

def default_jobs() -> int:
    """Usable CPU count (affinity-aware), >= 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class JobPool:
    """Evaluate independent jobs on one of the engine's substrates.

    The coarse-grained sibling of :class:`ExecutionBackend`: where a
    backend parallelises ranks *within* one simulation, a job pool
    parallelises *whole simulations* (design-space sweep points).  The
    substrate names match (``serial`` / ``processes``).
    """

    name = "base"

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """``[fn(x) for x in items]`` on this pool's substrate, in order."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialJobPool(JobPool):
    name = "serial"

    def map(self, fn, items):
        return [fn(item) for item in items]


class ProcessesJobPool(JobPool):
    """Fork-based process pool; jobs and results must be picklable."""

    name = "processes"

    def __init__(self, jobs: int):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise SimulationError(
                "the 'processes' job pool requires the fork start method"
            )
        self._pool = mp.get_context("fork").Pool(processes=jobs)

    def map(self, fn, items):
        return self._pool.map(fn, list(items))

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def make_job_pool(backend: str = "serial",
                  jobs: Optional[int] = None) -> JobPool:
    """Instantiate a job pool by substrate name.

    ``jobs`` defaults to the usable CPU count; the serial pool ignores
    it.  One job per design point is the intended granularity.
    """
    jobs = jobs if jobs is not None else default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if backend == "serial":
        return SerialJobPool()
    if backend == "processes":
        return ProcessesJobPool(jobs)
    raise ValueError(
        f"unknown job-pool backend {backend!r}; options: "
        f"{sorted(BACKENDS)}"
    )
