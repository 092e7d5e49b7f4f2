"""Determinism regression tests for the PR 4 hot-path optimisations.

The shared-clock arbiter, the tuple event records and the batched
cross-rank exchange all rewrite hot paths whose *correctness contract*
is deterministic execution order: identical builds must pop identical
``(time, priority, seq)`` sequences and land on identical statistics,
on every execution backend.  These tests pin that contract with a mixed
clocked+link workload:

* run-to-run: the same partitioned graph, run twice per backend, yields
  bit-identical per-rank pop traces (serial, where the rank engines are
  observable in-process) and bit-identical final stats (both backends,
  including processes where the trace stays in the forked workers);
* cross-backend: every backend produces the serial reference's stats,
  end time, event, epoch and remote-event counts;
* arbiter ablation: arbiter-on and arbiter-off runs of one sequential
  simulation agree on everything observable — stats, end time, executed
  events, and the ordered non-tick event sequence — even though their
  internal tick bookkeeping records differ by design;
* checkpoint/resume (PR 5): a run segmented by engine snapshots pops
  the *same* ``(time, priority, seq)`` sequence as an uninterrupted
  one, and a run resumed from a snapshot pops exactly the suffix the
  uninterrupted run would have popped after the snapshot time — the
  repro.ckpt exactness contract, sequential and parallel.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigGraph, build, build_parallel
from repro.core.backends import BACKENDS

ALL_BACKENDS = sorted(BACKENDS)


class RecordingQueue:
    """Transparent event-queue proxy that logs every popped record.

    The kernel hoists ``sim._queue``/``.pop`` once per run, so installing
    the proxy before ``run()`` captures the full execution order: every
    record ``pop(until)`` returns is logged as its ``(time, priority,
    seq)`` key plus the event class.
    """

    def __init__(self, inner, trace):
        self._inner = inner
        self.trace = trace

    def pop(self, until):
        record = self._inner.pop(until)
        if record is not None:
            time, priority, seq, _handler, event = record
            self.trace.append((time, priority, seq, type(event).__name__))
        return record

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def __bool__(self):
        return bool(self._inner)


def mixed_graph() -> ConfigGraph:
    """Clocked + link-event workload with cross-rank traffic when split."""
    graph = ConfigGraph("determinism")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": 40})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="3ns")
    graph.component("src", "testlib.Source", {"count": 25, "period": "2ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "in", latency="4ns")
    # Same-frequency clocks land in one shared arbiter; the 500 MHz one
    # gets its own, so both arbiter code paths run.
    for i in range(4):
        graph.component(f"clk{i}", "testlib.Clocked",
                        {"clock": "1GHz", "n_ticks": 120})
    graph.component("slow", "testlib.Clocked",
                    {"clock": "500MHz", "n_ticks": 60})
    return graph


def run_parallel_traced(backend: str):
    """One 2-rank run; returns (per-rank traces, stats, result tuple)."""
    psim = build_parallel(mixed_graph(), 2, strategy="round_robin",
                          seed=7, backend=backend)
    traces = []
    for rank in range(psim.num_ranks):
        sim = psim.rank_sim(rank)
        sim._queue = RecordingQueue(sim._queue, [])
        traces.append(sim._queue.trace)
    result = psim.run()
    summary = (result.reason, result.end_time, result.events_executed,
               result.epochs, result.remote_events)
    return traces, psim.stat_values(), summary


class TestBackendDeterminism:
    def test_run_to_run_traces_and_stats(self):
        """PR 4 acceptance: two runs per backend, identical
        (time, priority, seq) traces and identical final stats."""
        runs = {}
        for backend in ALL_BACKENDS:
            first = run_parallel_traced(backend)
            second = run_parallel_traced(backend)
            if backend == "processes":
                # Rank engines execute in forked workers: the in-process
                # trace stays empty there, so the run-to-run contract is
                # pinned through stats + the result summary instead.
                assert first[1] == second[1], backend
                assert first[2] == second[2], backend
            else:
                assert first == second, backend
            runs[backend] = first
        # Cross-backend: identical stats and result summary everywhere.
        for backend in ALL_BACKENDS:
            assert runs[backend][1] == runs["serial"][1], backend
            assert runs[backend][2] == runs["serial"][2], backend

    def test_trace_is_nonempty_and_ordered(self):
        """Sanity on the harness itself: the proxy actually records, and
        pops come out in nondecreasing (time, priority, seq) order per
        rank."""
        traces, stats, summary = run_parallel_traced("serial")
        assert summary[0] == "exit"
        for trace in traces:
            assert len(trace) > 100
            keys = [entry[:3] for entry in trace]
            assert keys == sorted(keys)
        assert any(name == "_ArbiterTickEvent"
                   for trace in traces for (_, _, _, name) in trace)


class TestArbiterAblationEquivalence:
    def test_sequential_observables_identical(self, monkeypatch):
        """Arbiter on vs off: same stats, end time, executed-event count
        and ordered non-tick event stream.  Raw (seq) values differ by
        design — the arbiter collapses N tick records into one — so the
        comparison filters the internal tick bookkeeping."""

        def run(arbiter_on: bool):
            monkeypatch.setenv("REPRO_CLOCK_ARBITER",
                               "1" if arbiter_on else "0")
            sim = build(mixed_graph(), seed=7)
            sim._queue = RecordingQueue(sim._queue, [])
            result = sim.run()
            ticks = ("_ClockTickEvent", "_ArbiterTickEvent")
            visible = [(t, prio, name)
                       for (t, prio, _seq, name) in sim._queue.trace
                       if name not in ticks]
            return (sim.stat_values(), result.reason, result.end_time,
                    result.events_executed, visible)

        on = run(True)
        off = run(False)
        assert on == off

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_parallel_stats_match_arbiter_off(self, backend, monkeypatch):
        """Every backend lands on the pre-arbiter stats."""
        monkeypatch.setenv("REPRO_CLOCK_ARBITER", "0")
        baseline = run_parallel_traced(backend)[1]
        monkeypatch.setenv("REPRO_CLOCK_ARBITER", "1")
        assert run_parallel_traced(backend)[1] == baseline


class TestCheckpointResumeBitIdentity:
    """PR 5 acceptance: checkpoint/resume is bit-identical, not merely
    stats-equivalent.  The queue seq counter and the bare/instrumented
    dispatch modes are part of the snapshot, so the resumed engine pops
    the exact (time, priority, seq) triples the uninterrupted engine
    would have popped."""

    def _sequential_reference(self):
        sim = build(mixed_graph(), seed=7)
        sim._queue = RecordingQueue(sim._queue, [])
        result = sim.run()
        return sim._queue.trace, sim.stat_values(), result

    def test_sequential_checkpointed_trace_identical(self, tmp_path):
        """Segmenting a run into checkpoint intervals is invisible: the
        full pop trace matches an unsegmented run's exactly."""
        trace, stats, cold = self._sequential_reference()
        sim = build(mixed_graph(), seed=7)
        sim._queue = RecordingQueue(sim._queue, [])
        sim.run(checkpoint_every=cold.end_time // 4,
                checkpoint_dir=str(tmp_path))
        assert sim._queue.trace == trace
        assert sim.stat_values() == stats

    def test_sequential_resume_trace_is_exact_suffix(self, tmp_path):
        from repro.ckpt import restore, snapshot_info

        trace, stats, cold = self._sequential_reference()
        sim = build(mixed_graph(), seed=7)
        sim.run(checkpoint_every=cold.end_time // 4,
                checkpoint_dir=str(tmp_path))
        mid = sim.checkpoints_written[1]
        cut = snapshot_info(mid)["sim_time_ps"]
        resumed = restore(mid)
        resumed._queue = RecordingQueue(resumed._queue, [])
        resumed.run()
        suffix = [entry for entry in trace if entry[0] > cut]
        assert resumed._queue.trace == suffix
        assert suffix  # the cut really was mid-run
        assert resumed.stat_values() == stats

    def test_parallel_resume_traces_are_exact_suffixes(self, tmp_path):
        """2-rank exact restore: every rank's resumed pop trace is the
        uninterrupted run's per-rank suffix after the snapshot time
        (pending cross-rank sends included, with the same seqs)."""
        from repro.ckpt import restore, snapshot_info

        traces, stats, _summary = run_parallel_traced("serial")
        psim = build_parallel(mixed_graph(), 2, strategy="round_robin",
                              seed=7, backend="serial")
        psim.run(checkpoint_every="60ns", checkpoint_dir=str(tmp_path))
        mid = psim.checkpoints_written[0]
        cut = snapshot_info(mid)["sim_time_ps"]
        psim.close()
        resumed = restore(mid)
        resumed_traces = []
        for rank in range(resumed.num_ranks):
            sim = resumed.rank_sim(rank)
            sim._queue = RecordingQueue(sim._queue, [])
            resumed_traces.append(sim._queue.trace)
        resumed.run()
        resumed.close()
        assert resumed.stat_values() == stats
        for rank in range(2):
            suffix = [entry for entry in traces[rank] if entry[0] > cut]
            assert resumed_traces[rank] == suffix, rank
            assert suffix, rank
