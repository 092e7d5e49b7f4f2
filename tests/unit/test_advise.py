"""Feedback-driven repartitioning: from recorded telemetry to a resume.

* ``restore(assignment=...)`` — the pinned repartition restore the
  ``obs partition-advise`` flow feeds;
* :class:`PartitionProfile` / :func:`build_profile` / :func:`advise` —
  feedback-driven repartitioning from recorded telemetry.
"""

from __future__ import annotations

import pytest

from repro.config import ConfigGraph, build_parallel
from repro.core.partition import (PartitionEdge, PartitionProfile,
                                  partition)
from repro.obs import build_profile


def _ckpt_graph() -> ConfigGraph:
    graph = ConfigGraph("advise-ckpt")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": 30})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="3ns")
    graph.component("src", "testlib.Source", {"count": 20, "period": "2ns"})
    graph.component("sink", "testlib.Sink", {})
    graph.link("src", "out", "sink", "in", latency="4ns")
    return graph


class TestAssignmentRestore:
    def test_restore_with_pinned_assignment(self, tmp_path):
        """An explicit component->rank map forces the repartition path
        and lands every component on its advised rank, with the final
        statistics unchanged."""
        from repro.ckpt import restore

        ref = build_parallel(_ckpt_graph(), 2, strategy="round_robin",
                             seed=7)
        ref_result = ref.run()
        ref_stats = ref.stat_values()

        psim = build_parallel(_ckpt_graph(), 2, strategy="round_robin",
                              seed=7)
        psim.run(checkpoint_every=ref_result.end_time // 3,
                 checkpoint_dir=str(tmp_path))
        mid = psim.checkpoints_written[0]
        psim.close()

        assignment = {"ping": 0, "pong": 0, "src": 1, "sink": 1}
        resumed = restore(mid, assignment=assignment)
        placed = {name: rank for rank in range(resumed.num_ranks)
                  for name in resumed.rank_sim(rank).components}
        assert placed == assignment
        result = resumed.run()
        stats = resumed.stat_values()
        resumed.close()
        assert result.reason == "exit"
        assert stats == ref_stats

    def test_restore_rejects_unknown_component(self, tmp_path):
        from repro.ckpt import CheckpointError, restore

        psim = build_parallel(_ckpt_graph(), 2, strategy="round_robin",
                              seed=7)
        psim.run(checkpoint_every="40ns", checkpoint_dir=str(tmp_path))
        mid = psim.checkpoints_written[0]
        psim.close()
        with pytest.raises(CheckpointError):
            restore(mid, assignment={"nonexistent": 0})


# ----------------------------------------------------------------------
# PartitionProfile / build_profile / advise
# ----------------------------------------------------------------------

class TestPartitionProfile:
    def test_scaled_node_weights(self):
        profile = PartitionProfile(node_multipliers={"a": 2.5})
        scaled = profile.scaled_node_weights({"a": 2.0, "b": 3.0})
        assert scaled == {"a": 5.0, "b": 3.0}

    def test_weighted_edges_add_traffic(self):
        profile = PartitionProfile(
            edge_traffic={frozenset(("a", "b")): 9.0})
        edges = [PartitionEdge("a", "b", weight=1.0, latency=10),
                 PartitionEdge("b", "c", weight=2.0, latency=20)]
        out = profile.weighted_edges(edges)
        assert out[0].weight == 10.0 and out[0].latency == 10
        assert out[1].weight == 2.0

    def test_partition_accepts_profile(self):
        nodes = ["a", "b", "c", "d"]
        edges = [PartitionEdge("a", "b"), PartitionEdge("b", "c"),
                 PartitionEdge("c", "d")]
        heavy = PartitionProfile(node_multipliers={"a": 50.0})
        result = partition(nodes, edges, 2, strategy="kl",
                           weights={n: 1.0 for n in nodes}, profile=heavy)
        # 'a' carries ~50/53 of the observed work: a balance-aware
        # strategy must leave it alone on its rank.
        rank_a = result.assignment["a"]
        assert [result.assignment[n] for n in "bcd"].count(rank_a) == 0


class TestAdvise:
    NAMES = {"src0", "sink0", "src1", "sink1"}

    def _graph(self) -> ConfigGraph:
        graph = ConfigGraph("advise-unit")
        for i in range(2):
            graph.component(f"src{i}", "testlib.Source",
                            {"count": 10, "period": "2ns"})
            graph.component(f"sink{i}", "testlib.Sink", {})
            graph.link(f"src{i}", "out", f"sink{i}", "in", latency="5ns")
        return graph

    def test_build_profile_from_busy_and_cut_edges(self):
        graph = self._graph()
        nodes, edges, weights = graph.partition_inputs()
        baseline = partition(nodes, edges, 2, strategy="round_robin",
                             weights=weights)
        cut = [{"name": "src0.out--sink0.in", "crossings": 12},
               {"name": "not-a-link", "crossings": 99}]
        profile = build_profile(graph, baseline, [3.0, 1.0], cut)
        # rank 0 ran 1.5x the mean, rank 1 0.5x: every component
        # inherits its rank's ratio.
        for node, rank in baseline.assignment.items():
            expected = 1.5 if rank == 0 else 0.5
            assert profile.node_multipliers[node] == pytest.approx(expected)
        assert profile.edge_traffic == {frozenset(("src0", "sink0")): 12.0}

    def test_advise_from_recorded_metrics(self, tmp_path):
        from repro.obs import TelemetryRecorder, advise

        graph = self._graph()
        metrics = tmp_path / "m.jsonl"
        psim = build_parallel(graph, 2, strategy="round_robin", seed=3)
        recorder = TelemetryRecorder(metrics).attach(psim)
        result = psim.run()
        recorder.finalize(result, graph=graph)
        psim.close()

        advice = advise(metrics, graph, num_ranks=2,
                        original_strategy="round_robin", strategy="kl")
        assert advice.num_ranks == 2
        assert set(advice.advised.assignment) == self.NAMES
        assert set(advice.advised.assignment.values()) <= {0, 1}
        doc = advice.as_dict()
        assert doc["version"] == 1
        assert set(doc["assignment"]) == self.NAMES
        assert doc["moved"] == advice.moved
        assert advice.report().strip()

    def test_advise_requires_parallel_metrics(self, tmp_path):
        from repro.obs import AdviseError, advise

        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"kind": "run_start", "mode": "sequential"}\n')
        with pytest.raises(AdviseError):
            advise(empty, self._graph(), num_ranks=2,
                   original_strategy="round_robin")
