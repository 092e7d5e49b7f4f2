"""Tests for the cluster workload family and the subcomponent-slot layer.

Covers the slot mechanics end to end (registry resolution, choices and
base-class validation at graph build, scoped sub-params, statistics
registered through the parent), the scheduling pipeline itself
(conservation, rejection, policy ablation, determinism), checkpointing
an in-flight backfill queue plus the generator-backed job stream, the
SWF-style trace reader, and the bursty ≥1M-event heap stress demanded
by the workload's scale.
"""

from __future__ import annotations

import pytest

from repro.cluster import JobSource, Scheduler
from repro.cluster.scheduler import EASYBackfillPolicy, FCFSPolicy
from repro.config import ConfigGraph, build
from repro.config.graph import ConfigError
from repro.core import SubComponent, sweep_axes
from repro.core.eventqueue import HeapEventQueue


def cluster_graph(policy="cluster.FCFS", jobs=300, nodes=16, *,
                  mode="poisson", mean_interarrival="2ms",
                  mean_runtime="40ms", extra_sched=None,
                  source_extra=None) -> ConfigGraph:
    g = ConfigGraph("test-cluster")
    g.component("src", "cluster.JobSource",
                {"jobs": jobs, "mode": mode,
                 "mean_interarrival": mean_interarrival,
                 "mean_runtime": mean_runtime, "max_nodes": 8,
                 "window": 4, **(source_extra or {})})
    g.component("sched", "cluster.Scheduler",
                {"nodes": nodes, "policy": policy, **(extra_sched or {})})
    g.component("pool", "cluster.NodePool", {"nodes": nodes})
    g.component("slo", "cluster.SLOStats", {"capacity": nodes})
    g.link("src", "out", "sched", "submit", latency="10ns")
    g.link("sched", "pool", "pool", "sched", latency="10ns")
    g.link("sched", "report", "slo", "report", latency="10ns")
    return g


class TestSlotMechanics:
    def test_slot_resolves_registered_type_from_params(self):
        sim = build(cluster_graph("cluster.EASYBackfill"), seed=3)
        sched = sim.component("sched")
        assert isinstance(sched.policy, EASYBackfillPolicy)
        assert isinstance(sched.policy, SubComponent)
        assert sched.policy.parent is sched
        assert sched.policy.name == "policy"

    def test_slot_default_used_when_param_absent(self):
        from repro.core import Params, Simulation

        sim = Simulation(seed=1)
        sched = Scheduler(sim, "s", Params({"nodes": 4}))
        assert isinstance(sched.policy, FCFSPolicy)

    def test_sub_statistics_register_on_parent(self):
        sim = build(cluster_graph("cluster.EASYBackfill"), seed=3)
        sched = sim.component("sched")
        registered = sched.stats.all()
        assert registered["policy.scheduled"] is sched.policy.s_scheduled
        assert registered["policy.backfilled"] is sched.policy.s_backfilled
        sim.run()
        # Slot stats surface through the ordinary engine rollup.
        values = sim.stat_values()
        assert "sched.policy.scheduled" in values
        assert values["sched.policy.scheduled"] > 0

    def test_scoped_slot_params_reach_the_subcomponent(self):
        sim = build(cluster_graph("cluster.EASYBackfill",
                                  extra_sched={"policy.scan_limit": 5}),
                    seed=3)
        assert sim.component("sched").policy.scan_limit == 5

    def test_unknown_slot_type_is_build_time_config_error(self):
        with pytest.raises(ConfigError, match="unknown subcomponent type"):
            build(cluster_graph("cluster.NoSuchPolicy"), seed=3)

    def test_component_type_in_slot_rejected(self):
        # A Component is not a SubComponent: the slot's base check fires.
        with pytest.raises(ConfigError):
            build(cluster_graph("cluster.JobSource"), seed=3)

    def test_slot_choices_enforced(self):
        # Registered subcomponent of the right base but outside choices.
        from repro.core.registry import register

        @register("testlib.RoguePolicy")
        class RoguePolicy(FCFSPolicy):
            pass

        with pytest.raises(ConfigError, match="not one of"):
            build(cluster_graph("testlib.RoguePolicy"), seed=3)

    def test_subcomponent_rng_is_stable_per_slot(self):
        sim = build(cluster_graph(), seed=3)
        sim2 = build(cluster_graph(), seed=3)
        a = sim.component("sched").policy.rng.integers(0, 1 << 30, 4)
        b = sim2.component("sched").policy.rng.integers(0, 1 << 30, 4)
        assert list(a) == list(b)

    def test_telemetry_gauges_include_slot_state(self):
        sim = build(cluster_graph("cluster.EASYBackfill"), seed=3)
        gauges = sim.component("sched").telemetry_gauges()
        assert "policy._shadow_ps" in gauges


class TestSweepAxes:
    def test_scheduler_policy_axis_from_slot_choices(self):
        axes = sweep_axes(Scheduler)
        assert axes["policy"] == ("cluster.FCFS", "cluster.EASYBackfill",
                                  "cluster.Priority")

    def test_param_choices_become_axes(self):
        axes = sweep_axes(JobSource)
        assert axes["mode"] == ("poisson", "burst", "trace")

    def test_params_without_choices_are_not_axes(self):
        assert "jobs" not in sweep_axes(JobSource)
        assert "nodes" not in sweep_axes(Scheduler)


class TestClusterPipeline:
    def test_every_submitted_job_completes_and_reports(self):
        sim = build(cluster_graph(jobs=200), seed=7, validate_events=True)
        result = sim.run()
        assert result.reason == "exit"
        v = sim.stat_values()
        assert v["src.emitted"] == 200
        assert v["sched.submitted"] == 200
        assert v["sched.completed"] == 200
        assert v["slo.jobs"] == 200
        # all nodes returned, nothing left allocated
        sched = sim.component("sched")
        assert sched._free == sched.nodes and not sched._running

    def test_too_wide_jobs_rejected_not_wedged(self):
        # 8-node-wide jobs against a 4-node machine must be dropped
        # without stalling the exit protocol.
        sim = build(cluster_graph(jobs=120, nodes=4), seed=7)
        result = sim.run()
        assert result.reason == "exit"
        v = sim.stat_values()
        assert v["sched.rejected"] > 0
        assert v["sched.submitted"] + v["sched.rejected"] == 120
        assert v["sched.completed"] == v["sched.submitted"]

    def test_backfill_strictly_beats_fcfs_utilization(self):
        def util(policy):
            sim = build(cluster_graph(policy, jobs=400), seed=7)
            sim.run()
            return sim.component("slo").manifest_summary()

        fcfs, easy = util("cluster.FCFS"), util("cluster.EASYBackfill")
        assert easy["utilization"] > fcfs["utilization"]
        assert easy["jobs"] == fcfs["jobs"] == 400
        assert easy["makespan_s"] <= fcfs["makespan_s"]

    def test_same_seed_same_stats(self):
        runs = []
        for _ in range(2):
            sim = build(cluster_graph("cluster.EASYBackfill", jobs=150),
                        seed=11)
            sim.run()
            runs.append(sim.stat_values())
        assert runs[0] == runs[1]

    def test_burst_mode_floods_same_timestamp(self):
        sim = build(cluster_graph(jobs=128, mode="burst",
                                  source_extra={"burst_size": 32,
                                                "burst_gap": "100ms"}),
                    seed=7)
        result = sim.run()
        assert result.reason == "exit"
        assert sim.stat_values()["slo.jobs"] == 128

    def test_torus_placement_records_span(self):
        sim = build(cluster_graph(jobs=150), seed=7)
        sim.run()
        v = sim.stat_values()
        assert v["pool.energy_j"] > 0
        pool = sim.component("pool")
        assert pool.s_span.count > 0
        assert pool.s_span.maximum <= sum(pool._dims)

    def test_manifest_carries_slo_summary(self):
        from repro.obs import build_manifest

        g = cluster_graph(jobs=100)
        sim = build(g, seed=7)
        result = sim.run()
        manifest = build_manifest(sim, result, graph=g)
        slo = manifest["summary"]["slo"]
        assert slo["jobs"] == 100
        assert 0 < slo["utilization"] <= 1
        assert slo["p95_bounded_slowdown"] >= 1


class TestClusterCheckpoint:
    def test_snapshot_mid_backfill_restores_bit_identical(self, tmp_path):
        from repro.ckpt import restore, snapshot

        def make():
            return cluster_graph("cluster.EASYBackfill", jobs=250)

        cold = build(make(), seed=7)
        cold_result = cold.run()
        cold_stats = cold.stat_values()

        warm = build(make(), seed=7)
        warm.run(max_time=cold_result.end_time // 2, finalize=False)
        sched = warm.component("sched")
        # The snapshot genuinely lands mid-backfill: pending queue and
        # in-flight jobs both non-empty.
        assert sched._queue or sched._running
        path = snapshot(warm, tmp_path / "mid-backfill")
        resumed = restore(path)
        # Restored slot holds a fresh, equivalent subcomponent.
        rsched = resumed.component("sched")
        assert isinstance(rsched.policy, EASYBackfillPolicy)
        assert rsched.policy.parent is rsched
        result = resumed.run()
        assert resumed.stat_values() == cold_stats
        assert result.end_time == cold_result.end_time

    def test_checkpoint_size_independent_of_trace_length(self, tmp_path):
        """Generator-backed arrival state: a 100x longer trace must not
        grow the snapshot (the stream is replayed, not stored)."""
        from repro.ckpt import snapshot

        sizes = {}
        for jobs in (1_000, 100_000):
            sim = build(cluster_graph(jobs=jobs), seed=7)
            sim.run(max_time=100_000_000, finalize=False)  # 100us warmup
            path = snapshot(sim, tmp_path / f"snap-{jobs}")
            sizes[jobs] = sum(f.stat().st_size
                              for f in path.rglob("*") if f.is_file())
            sim.finish()
        assert sizes[100_000] < sizes[1_000] * 1.5

    def test_restored_source_continues_exact_stream(self, tmp_path):
        from repro.ckpt import restore, snapshot

        cold = build(cluster_graph(jobs=120), seed=13)
        cold.run()
        cold_emitted = cold.stat_values()["src.emitted"]

        warm = build(cluster_graph(jobs=120), seed=13)
        warm.run(max_time=50_000_000_000, finalize=False)
        resumed = restore(snapshot(warm, tmp_path / "src-snap"))
        resumed.run()
        assert resumed.stat_values()["src.emitted"] == cold_emitted


class TestTraceReader:
    SWF = """\
; SWF-ish header comment
# another comment
1 0    0 120 2  -1 -1 2 200 -1
2 5    0  60 1  -1 -1 1 100 -1
3 12   0 240 4  -1 -1 4 300 -1
4 30   0  30 1  -1 -1 1  -1 -1
"""

    def test_swf_trace_drives_the_pipeline(self, tmp_path):
        trace = tmp_path / "tiny.swf"
        trace.write_text(self.SWF, encoding="utf-8")
        g = cluster_graph(mode="trace",
                          source_extra={"trace": str(trace),
                                        "trace_unit": "1ms", "jobs": 0})
        sim = build(g, seed=7)
        result = sim.run()
        assert result.reason == "exit"
        v = sim.stat_values()
        assert v["src.emitted"] == 4
        assert v["slo.jobs"] == 4
        # submit gaps respect the trace: last submit at 30 trace-seconds
        slo = sim.component("slo")
        assert slo.s_submit.maximum == 30 * 1_000_000_000  # 30 x 1ms

    def test_trace_job_cap(self, tmp_path):
        trace = tmp_path / "tiny.swf"
        trace.write_text(self.SWF, encoding="utf-8")
        g = cluster_graph(mode="trace",
                          source_extra={"trace": str(trace),
                                        "trace_unit": "1ms", "jobs": 2})
        sim = build(g, seed=7)
        sim.run()
        assert sim.stat_values()["src.emitted"] == 2


class TestArrivalStress:
    """Satellite: >=1M queued arrival events through the heap path."""

    def test_million_event_burst_waves_stay_bounded_and_ordered(self):
        queue = HeapEventQueue()
        total = 1_000_000
        wave = 50_000  # live queue depth per wave (bursty flood shape)
        pushed = popped = 0
        t = 0
        last = (-1, -1, -1)
        while popped < total:
            while pushed < total and pushed - popped < wave:
                # bursts of 64 share a timestamp, like burst arrivals
                t += 1 if pushed % 64 == 0 else 0
                queue.push(t, pushed % 3, None, None)
                pushed += 1
            key = queue.pop(t)[:3]
            assert key > last, f"pop order regressed: {key} after {last}"
            last = key
            popped += 1
        assert len(queue) == 0
        assert queue.seq == total
