"""ENG-2 — hot-path ablation: the shared-clock arbiter on and off.

The kernel's hot-path design (shared :class:`repro.core.ClockArbiter`,
tuple event records, one dispatch loop per kernel entry point) targets
the same-frequency clocked-fabric shape that dominates architectural
models: hundreds of components all ticking at the core clock.  This bench measures that
shape — 1000 components x 200 ticks — for both pending-event-set
implementations with the arbiter enabled (the default) and disabled
(``REPRO_CLOCK_ARBITER=0``, the pre-PR per-clock scheduling path), and
asserts the headline claim: the arbiter is at least 2x faster on the
heap queue.  Records append to the ``engine_throughput`` trajectory
(``BENCH_engine_throughput.json``) alongside ENG-1's, distinguished by
their ``workload``/``arbiter`` fields.

``benchmarks/check_throughput_regression.py`` gates CI on these
numbers; see docs/PERFORMANCE.md.
"""

import pytest

from repro.core import Component, Simulation

# Records land in the engine_throughput trajectory next to ENG-1's.
BENCH_RECORD_EXPERIMENT = "engine_throughput"

N_COMPONENTS = 1_000
N_TICKS = 200


def _set_arbiter(monkeypatch, enabled: bool) -> None:
    monkeypatch.setenv("REPRO_CLOCK_ARBITER", "1" if enabled else "0")


def big_fabric(queue, n_components=N_COMPONENTS, n_ticks=N_TICKS):
    """The 1k-component same-frequency fabric the PR is measured on."""
    sim = Simulation(seed=1, queue=queue,
                     queue_kwargs={"bin_width": 1000} if queue == "binned" else None)

    class Ticker(Component):
        def __init__(self, s, name, params=None):
            super().__init__(s, name, params)
            self.ticks = 0
            self.register_clock("1GHz", self.on_tick)

        def on_tick(self, cycle):
            self.ticks += 1
            return self.ticks >= n_ticks

    for i in range(n_components):
        Ticker(sim, f"t{i}")
    return sim


@pytest.mark.parametrize("queue", ["heap", "binned"])
@pytest.mark.parametrize("arbiter", ["on", "off"])
def test_eng2_fabric_arbiter_ablation(benchmark, queue, arbiter, report,
                                      perf_fields, monkeypatch):
    _set_arbiter(monkeypatch, arbiter == "on")

    def run():
        sim = big_fabric(queue)
        return sim.run()

    result = benchmark(run)
    report(f"ENG-2 fabric [{queue}, arbiter {arbiter}]: "
           f"{result.events_executed} events, "
           f"{result.events_per_second:,.0f} events/s")
    perf_fields(result, workload="hotpath_fabric", queue=queue,
                arbiter=arbiter)
    assert result.reason == "exhausted"
    # Events = handler invocations, identical either way (the arbiter
    # compensates its fan-out into the executed-event count).
    assert result.events_executed == N_COMPONENTS * N_TICKS


def test_eng2_arbiter_speedup(report, perf_fields, monkeypatch):
    """The PR 4 acceptance gate: >= 2x events/s, arbiter on vs off.

    Machine-independent (a ratio of two runs on the same box), so it can
    assert a floor.  Local headroom is ~10x on the heap queue; 2x keeps
    the gate robust on slow shared CI runners.
    """

    def best_eps(enabled: bool) -> float:
        _set_arbiter(monkeypatch, enabled)
        best = 0.0
        for _ in range(3):
            sim = big_fabric("heap")
            result = sim.run()
            assert result.events_executed == N_COMPONENTS * N_TICKS
            best = max(best, result.events_per_second)
        return best

    # Warm-up evens out allocator/cache effects before the timed pairs.
    best_eps(True)
    eps_off = best_eps(False)
    eps_on = best_eps(True)
    speedup = eps_on / eps_off
    report(f"ENG-2 arbiter speedup [heap]: {eps_off:,.0f} -> "
           f"{eps_on:,.0f} events/s ({speedup:.2f}x)")
    perf_fields(workload="hotpath_speedup", queue="heap",
                events_per_second=eps_on,
                events_per_second_arbiter_off=eps_off,
                arbiter_speedup=speedup)
    assert speedup >= 2.0, (
        f"shared-clock arbiter speedup regressed: {speedup:.2f}x < 2x "
        f"({eps_off:,.0f} -> {eps_on:,.0f} events/s)"
    )


def test_eng2_pingpong_no_regression(report, perf_fields, monkeypatch):
    """Arbiter machinery must not tax clock-free workloads.

    A pure link-event ping-pong never touches the arbiter; on/off should
    be within noise.  The assertion is deliberately loose (40%) because
    two 20k-event runs on a shared runner can jitter; the CI baseline
    check (check_throughput_regression.py) is the tighter gate.
    """
    from bench_engine_throughput import pingpong_machine

    def best_eps(enabled: bool) -> float:
        _set_arbiter(monkeypatch, enabled)
        best = 0.0
        for _ in range(3):
            sim = pingpong_machine("heap", 20_000)
            result = sim.run()
            best = max(best, result.events_per_second)
        return best

    best_eps(True)  # warm-up
    eps_off = best_eps(False)
    eps_on = best_eps(True)
    report(f"ENG-2 ping-pong arbiter on/off [heap]: "
           f"{eps_off:,.0f} / {eps_on:,.0f} events/s")
    perf_fields(workload="hotpath_pingpong", queue="heap",
                events_per_second=eps_on,
                events_per_second_arbiter_off=eps_off)
    assert eps_on >= 0.6 * eps_off, (
        f"arbiter machinery slowed the clock-free path: "
        f"{eps_off:,.0f} -> {eps_on:,.0f} events/s"
    )
