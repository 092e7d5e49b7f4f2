"""Tests for the event-trace logging facility."""

import io

import pytest

from repro.core import (Component, EventTraceLog, Params, Simulation,
                        describe_handler)
from repro.core.tracelog import EventTraceLog as _ETL
from tests.conftest import Sink, Source


def _machine(seed=2, count=5):
    sim = Simulation(seed=seed)
    src = Source(sim, "src", Params({"count": count, "period": "2ns"}))
    sink = Sink(sim, "sink")
    sim.connect(src, "out", sink, "in", latency="1ns")
    return sim, src, sink


class TestDescribeHandler:
    def test_port_handler(self):
        sim, src, sink = _machine()
        port = sink.port("in")
        assert describe_handler(port.deliver) == "sink.in"

    def test_clock_handler(self):
        sim = Simulation()
        comp = Component(sim, "c")
        clock = comp.register_clock("1GHz", lambda cycle: True)
        assert describe_handler(clock._tick) == "clock:c.clock"

    def test_none(self):
        assert describe_handler(None) == "<none>"

    def test_plain_function(self):
        def fn(event):
            pass

        assert describe_handler(fn) == "fn"


class TestEventTraceLog:
    def test_records_every_event_in_memory(self):
        sim, src, sink = _machine(count=5)
        log = EventTraceLog(sim)
        sim.run()
        # 5 source timer callbacks + 5 deliveries.
        assert log.total_events == 10
        assert log.matched_events == 10
        assert len(log.records) == 10
        times = [t for t, _, _ in log.records]
        assert times == sorted(times)

    def test_component_filter(self):
        sim, src, sink = _machine(count=5)
        log = EventTraceLog(sim, component_filter="sink.*")
        sim.run()
        assert log.total_events == 10
        assert log.matched_events == 5
        assert all(target == "sink.in" for _, target, _ in log.records)

    def test_stream_sink(self):
        sim, src, sink = _machine(count=3)
        buffer = io.StringIO()
        log = EventTraceLog(sim, buffer)
        sim.run()
        log.detach()
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 6
        assert "sink.in" in buffer.getvalue()
        assert "Token" in buffer.getvalue()

    def test_file_sink(self, tmp_path):
        sim, src, sink = _machine(count=3)
        path = tmp_path / "trace.log"
        with EventTraceLog(sim, path, component_filter="sink.*"):
            sim.run()
        content = path.read_text()
        assert content.count("sink.in") == 3

    def test_max_records_caps_storage_not_counting(self):
        sim, src, sink = _machine(count=20)
        log = EventTraceLog(sim, max_records=5)
        sim.run()
        assert len(log.records) == 5
        assert log.matched_events == 40

    def test_detach_stops_observing(self):
        sim, src, sink = _machine(count=10)
        log = EventTraceLog(sim)
        sim.run(max_events=4)
        log.detach()
        sim.run()
        assert log.total_events == 4

    def test_no_observer_no_cost_path(self):
        sim, src, sink = _machine(count=3)
        assert not sim.observers_installed
        sim.run()
        assert sink.received.count == 3

    def test_validation(self):
        sim, *_ = _machine()
        with pytest.raises(ValueError):
            EventTraceLog(sim, max_records=0)


class TestTruncation:
    def test_counts_keep_running_past_cap(self):
        sim, src, sink = _machine(count=10)
        log = EventTraceLog(sim, max_records=4)
        sim.run()
        # 10 timer callbacks + 10 deliveries matched; only 4 recorded.
        assert log.matched_events == 20
        assert log.records_written == 4
        assert len(log.records) == 4
        assert log.truncated

    def test_not_truncated_below_cap(self):
        sim, src, sink = _machine(count=2)
        log = EventTraceLog(sim, max_records=100)
        sim.run()
        assert not log.truncated
        assert log.matched_events == log.records_written == 4

    def test_stream_sink_gets_trailing_marker(self):
        sim, src, sink = _machine(count=10)
        buffer = io.StringIO()
        log = EventTraceLog(sim, buffer, max_records=3)
        sim.run()
        log.detach()
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 4  # 3 records + the marker
        assert lines[-1] == "... truncated (20 matched, 3 recorded)"

    def test_marker_written_once_on_double_detach(self):
        sim, src, sink = _machine(count=10)
        buffer = io.StringIO()
        log = EventTraceLog(sim, buffer, max_records=3)
        sim.run()
        log.detach()
        log.detach()
        assert buffer.getvalue().count("... truncated") == 1

    def test_untruncated_file_has_no_marker(self, tmp_path):
        sim, src, sink = _machine(count=3)
        path = tmp_path / "trace.log"
        with EventTraceLog(sim, path):
            sim.run()
        assert "truncated" not in path.read_text()


class TestCliTrace:
    def test_run_with_trace_flag(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.config import ConfigGraph, save

        graph = ConfigGraph("m")
        graph.component("src", "testlib.Source", {"count": 4, "period": "2ns"})
        graph.component("sink", "testlib.Sink")
        graph.link("src", "out", "sink", "in", latency="1ns")
        config = tmp_path / "m.json"
        save(graph, config)
        trace = tmp_path / "events.log"
        assert main(["run", str(config), "--trace", str(trace),
                     "--trace-filter", "sink.*"]) == 0
        out = capsys.readouterr().out
        assert "trace: 4 events (of 8)" in out
        assert trace.read_text().count("sink.in") == 4
