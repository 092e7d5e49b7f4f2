"""Tests for causal event tracing and critical-path analysis (PR 8).

The load-bearing contracts:

* capture is **opt-in** — an untraced run never compiles the
  instrumented dispatcher and never writes a shard, and a closed tracer
  leaves the engine (and the event-record pool) exactly as it found it;
* node ids ``(rank, seq)`` ride the determinism contract, so the
  critical path reported from the per-rank shards is **identical across
  execution backends** — including processes, where causality has to be
  stitched back together from ``(src_rank, send_seq)`` link rows;
* the cut-edge ranking is deterministic run to run.
"""

from __future__ import annotations

import json

import pytest

from repro.config import ConfigGraph, build, build_parallel
from repro.core import Component, Simulation
from repro.core.backends import BACKENDS
from repro.obs import CausalCapture
from repro.obs.causal import CausalTracer, causal_shard_path, find_causal_shards
from repro.obs.critpath import (CausalAnalysisError, analyze, critical_path,
                                cut_edge_report, load_causal)

ALL_BACKENDS = sorted(BACKENDS)


def crossed_graph(rounds=20, ticks=30) -> ConfigGraph:
    """Cross-rank traffic under round_robin: ping/rank0 <-> pong/rank1."""
    graph = ConfigGraph("causal-test")
    graph.component("ping", "testlib.PingPong",
                    {"initiator": True, "n_round_trips": rounds})
    graph.component("pong", "testlib.PingPong", {})
    graph.link("ping", "io", "pong", "io", latency="3ns")
    for i in range(4):
        graph.component(f"clk{i}", "testlib.Clocked",
                        {"clock": "1GHz", "n_ticks": ticks})
    return graph


def traced_parallel_run(tmp_path, backend, *, name=None, seed=7):
    """One 2-rank captured run; returns the shard base path."""
    base = tmp_path / (name or f"{backend}.jsonl")
    psim = build_parallel(crossed_graph(), 2, strategy="round_robin",
                          seed=seed, backend=backend)
    capture = CausalCapture(base)
    capture.attach(psim)
    psim.run()
    capture.close()
    psim.close()
    return base


def path_key(path):
    """The acceptance identity: the ordered node-id sequence."""
    return [(n["time_ps"], n["priority"], n["seq"], n["rank"])
            for n in path.nodes]


class TestCaptureLifecycle:
    def test_off_by_default(self, tmp_path, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=5)
        sim.run()
        assert sim._instr is None
        assert sim._causal is None
        assert find_causal_shards(tmp_path / "m.jsonl") == {}

    def test_close_restores_bare_engine(self, tmp_path, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=5)
        queue_before = sim._queue
        capture = CausalCapture(tmp_path / "m.jsonl")
        capture.attach(sim)
        assert sim._causal is not None
        sim.run()
        # Every dispatch drains its seq -> cause entry: a drained queue
        # leaves no provenance behind.
        assert sim._queue.causes == {}
        capture.close()
        assert sim._causal is None
        assert sim._instr is None
        assert sim._queue is queue_before

    def test_shard_schema_and_batching(self, tmp_path, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=8)
        capture = CausalCapture(tmp_path / "m.jsonl")
        capture.attach(sim)
        result = sim.run()
        capture.close()
        shard = causal_shard_path(tmp_path / "m.jsonl", 0)
        records = [json.loads(line) for line in
                   shard.read_text().splitlines()]
        assert records[0]["kind"] == "causal_start"
        assert records[0]["schema"] == "repro-causal/1"
        assert records[-1]["kind"] == "causal_end"
        nodes = sum(len(r["rows"]) for r in records
                    if r["kind"] == "causal_nodes")
        assert nodes == records[-1]["nodes"] == result.events_executed


class TestSequentialCausality:
    def test_chain_and_roots(self, tmp_path, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=10)
        capture = CausalCapture(tmp_path / "m.jsonl")
        capture.attach(sim)
        sim.run()
        capture.close()
        graph = load_causal(tmp_path / "m.jsonl")
        causes = {seq: row[2] for (_, seq), row in graph.nodes.items()}
        roots = [seq for seq, cause in causes.items() if cause is None]
        # The setup() serve is the only root; every later token was
        # scheduled from the handler of the one before it.
        assert roots == [0]
        assert all(causes[seq] == seq - 1 for seq in causes if seq > 0)

    def test_component_attribution(self, tmp_path, make_pingpong):
        sim = Simulation(seed=1)
        make_pingpong(sim, n=6)
        capture = CausalCapture(tmp_path / "m.jsonl")
        capture.attach(sim)
        sim.run()
        capture.close()
        path = analyze(tmp_path / "m.jsonl")
        assert set(path.by_class) == {"PingPong"}
        names = {n["component"] for n in path.nodes}
        assert names == {"ping", "pong"}

    def test_component_anchor(self, tmp_path, make_pingpong):
        sim = Simulation(seed=1)
        ping, pong = make_pingpong(sim, n=6)
        capture = CausalCapture(tmp_path / "m.jsonl")
        capture.attach(sim)
        sim.run()
        capture.close()
        path = analyze(tmp_path / "m.jsonl", component="pong")
        assert path.anchor == "component:pong"
        assert path.nodes[-1]["component"] == "pong"
        with pytest.raises(CausalAnalysisError):
            analyze(tmp_path / "m.jsonl", component="no-such-component")


class TestCrossBackendIdentity:
    def test_critical_path_identical_across_backends(self, tmp_path):
        """PR 8 acceptance: the processes backend reproduces the serial
        backend's critical path node for node, and the cut-edge ranking
        matches too."""
        paths = {backend: analyze(traced_parallel_run(tmp_path, backend))
                 for backend in ALL_BACKENDS}
        reference = paths["serial"]
        assert len(reference.nodes) > 10
        for backend in ALL_BACKENDS:
            assert path_key(paths[backend]) == path_key(reference), backend
            assert paths[backend].cut_edges == reference.cut_edges, backend
            assert paths[backend].by_class == reference.by_class, backend

    def test_cut_edges_cross_ranks(self, tmp_path):
        path = analyze(traced_parallel_run(tmp_path, "serial"))
        assert len(path.cut_edges) == 1
        edge = path.cut_edges[0]
        assert edge["name"] == "ping.io--pong.io"
        assert {edge["rank_a"], edge["rank_b"]} == {0, 1}
        assert edge["crossings"] > 10
        assert edge["weight_ps"] > 0
        # Path nodes mark the same hops the edge aggregates.
        cuts = sum(1 for n in path.nodes if n["via_link"] is not None)
        assert cuts == edge["crossings"]
        assert cut_edge_report(path) == path.cut_edges

    def test_cut_edge_ranking_deterministic(self, tmp_path):
        first = analyze(traced_parallel_run(tmp_path, "processes",
                                            name="a.jsonl"))
        second = analyze(traced_parallel_run(tmp_path, "processes",
                                             name="b.jsonl"))
        assert first.cut_edges == second.cut_edges
        assert path_key(first) == path_key(second)

    def test_recv_rows_join_send_rows(self, tmp_path):
        graph = load_causal(traced_parallel_run(tmp_path, "serial"))
        assert graph.ranks == [0, 1]
        assert graph.recvs and graph.sends
        for (rank, _seq), (link_id, send_seq) in graph.recvs.items():
            link = graph.links[link_id]
            src = link["rank_b"] if rank == link["rank_a"] else link["rank_a"]
            assert (src, send_seq) in graph.sends


class TestAnalyzerErrors:
    def test_missing_shards(self, tmp_path):
        with pytest.raises(CausalAnalysisError, match="trace-causal"):
            load_causal(tmp_path / "never-ran.jsonl")

    def test_truncated_shard_tail_tolerated(self, tmp_path):
        base = traced_parallel_run(tmp_path, "serial")
        shard = causal_shard_path(base, 1)
        text = shard.read_text()
        shard.write_text(text[: int(len(text) * 0.8)])
        graph = load_causal(base)  # no raise; partial rank 1
        assert graph.nodes
        path = critical_path(graph)
        assert path.nodes

    def test_as_dict_roundtrips_json(self, tmp_path):
        path = analyze(traced_parallel_run(tmp_path, "serial"))
        payload = json.loads(json.dumps(path.as_dict()))
        assert payload["schema"] == "repro-critpath/1"
        assert payload["length"] == len(path.nodes)
        assert payload["cut_edges"] == path.cut_edges
        assert path.render(top=5)


class TestSequentialBuildPath:
    def test_build_and_capture_matches_two_rank_span(self, tmp_path):
        """A sequential run of the same graph reaches the same end time;
        its critical path span matches the partitioned run's."""
        par = analyze(traced_parallel_run(tmp_path, "serial"))
        sim = build(crossed_graph(), seed=7)
        capture = CausalCapture(tmp_path / "seq.jsonl")
        capture.attach(sim)
        sim.run()
        capture.close()
        seq = analyze(tmp_path / "seq.jsonl")
        assert seq.nodes[-1]["time_ps"] == par.nodes[-1]["time_ps"]
        assert seq.cut_edges == []  # one rank, nothing crosses


class TestCausalCli:
    def test_run_critpath_merge_flows_roundtrip(self, tmp_path, capsys):
        from repro.config import save
        from repro.__main__ import main

        config = tmp_path / "machine.json"
        save(crossed_graph(), config)
        metrics = tmp_path / "cli.jsonl"
        assert main(["run", str(config), "--ranks", "2",
                     "--strategy", "round_robin",
                     "--backend", "processes", "--trace-causal",
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "causal shards ->" in out
        assert sorted(find_causal_shards(metrics)) == [0, 1]

        assert main(["obs", "critpath", str(metrics), "--top", "5",
                     "--json", str(tmp_path / "cp.json")]) == 0
        out = capsys.readouterr().out
        assert "critical path (run-end):" in out
        assert "cut edges" in out
        payload = json.loads((tmp_path / "cp.json").read_text())
        assert payload["schema"] == "repro-critpath/1"
        assert payload["path"] and payload["cut_edges"]

        assert main(["obs", "merge", str(metrics), "--flows",
                     "-o", str(tmp_path / "flows.json")]) == 0
        trace = json.loads((tmp_path / "flows.json").read_text())
        flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]
        assert flows and len(flows) % 2 == 0
        assert all(e["cat"] == "causal" for e in flows)
        assert trace["otherData"]["causal_flows"]["flows"] == len(flows) // 2

    def test_critpath_without_capture_is_one_line_error(self, tmp_path,
                                                        capsys):
        from repro.__main__ import main

        assert main(["obs", "critpath",
                     str(tmp_path / "never.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "trace-causal" in err
        assert "Traceback" not in err

    def test_merge_flows_without_capture_degrades(self, tmp_path, capsys):
        from repro.config import save
        from repro.__main__ import main

        config = tmp_path / "machine.json"
        save(crossed_graph(), config)
        metrics = tmp_path / "nf.jsonl"
        assert main(["run", str(config), "--ranks", "2",
                     "--strategy", "round_robin",
                     "--backend", "processes",
                     "--metrics", str(metrics)]) == 0
        assert main(["obs", "merge", str(metrics), "--flows",
                     "-o", str(tmp_path / "nf-trace.json")]) == 0
        trace = json.loads((tmp_path / "nf-trace.json").read_text())
        assert not [e for e in trace["traceEvents"]
                    if e["ph"] in ("s", "f")]
        assert "trace-causal" in trace["otherData"]["causal_flows"]["note"]


class TestWorkerSideCapture:
    def test_processes_shards_written_by_workers(self, tmp_path):
        base = traced_parallel_run(tmp_path, "processes")
        shards = find_causal_shards(base)
        assert sorted(shards) == [0, 1]
        for rank, shard in shards.items():
            records = [json.loads(line) for line in
                       shard.read_text().splitlines()]
            assert records[0]["rank"] == rank
            assert records[-1]["kind"] == "causal_end"

    def test_setup_sends_become_roots_under_processes(self, tmp_path):
        """The parent performs setup()-time sends pre-fork, so the
        processes shards carry no send row for them; the analyzer must
        treat the arrival as a root, exactly as the serial backend's
        cause=None row concludes."""
        serial = load_causal(traced_parallel_run(tmp_path, "serial"))
        procs = load_causal(traced_parallel_run(tmp_path, "processes",
                                                name="p.jsonl"))
        assert len(procs.recvs) == len(serial.recvs)
        missing = set(serial.sends) - set(procs.sends)
        assert all(serial.sends[key][0] is None for key in missing)
