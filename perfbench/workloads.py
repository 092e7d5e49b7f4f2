"""The benchmark's workloads, built from the model library through the
public API (``repro.config``, ``repro.ckpt``, ``repro.obs``).

Each workload is one simulation run to completion.  Its graph is
declared here, built on the sequential engine or on a 2-rank parallel
engine, and its simulated statistics are checked twice: for identity
against a reference run of the same graph and seed (``run.py``), and
against conservation rules the models must obey (:func:`check`).  The
checks test identity, not accuracy: the models are unvalidated against
hardware, and every modelled cache starts cold.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import ConfigGraph, build, build_parallel
from repro.miniapps.machine import build_app_machine
from repro.obs import TelemetryRecorder


@dataclass(frozen=True)
class Workload:
    """Which graph a workload runs, and on which engine."""

    graph: str  #: "memhier", "torus_app" or "cluster"
    #: ParallelSimulation backend, or None for the sequential engine
    backend: Optional[str] = None
    strategy: str = "linear"  #: partition strategy of the parallel engine
    #: job streams a run cycles its iterations through (see input_seeds)
    input_seeds: int = 1


WORKLOADS = {
    "memhier": Workload("memhier"),
    "memhier_2rank": Workload("memhier", "processes"),
    # The 2-rank torus on the in-process backend: the same epochs, sync
    # windows and exchanges as torus_app_2rank, without fork and pipes.
    "torus_app_inproc": Workload("torus_app", "serial", "bfs"),
    # The EASY backfill scan grows with the queue, which each Poisson
    # stream fills differently: host time per event differs by up to
    # 15 % between seeds, so a run averages over four streams.
    "cluster_ckpt": Workload("cluster", input_seeds=4),
    # Not in BENCHMARK.json: its wall time swings with hypervisor steal
    # on small shared VMs (see README.md), but its ledger is the place
    # to read per-epoch transport cost.
    "torus_app_2rank": Workload("torus_app", "processes", "bfs"),
}
NAMES = tuple(WORKLOADS)


@dataclass(frozen=True)
class Size:
    """How much work one iteration does."""

    chains: int = 16  #: memhier: generator -> L1 -> L2 -> DRAM chains
    requests: int = 1000  #: memhier: requests per generator
    app_ranks: int = 64  #: torus_app: HPCCG ranks (one NIC each)
    app_iterations: int = 5  #: torus_app: HPCCG iterations
    jobs: int = 4000  #: cluster_ckpt: Poisson job arrivals
    snapshots: int = 8  #: cluster_ckpt: mid-run snapshots aimed for


FULL = Size()
#: Seconds-long smoke size for the benchmark's own tests.
SMOKE = Size(chains=4, requests=40, app_ranks=8, app_iterations=1,
             jobs=150, snapshots=4)

#: cluster_ckpt: Poisson mean gap; the run's simulated span is close to
#: ``jobs * CLUSTER_SPAN_PER_JOB_PS`` (the queue saturates).
CLUSTER_INTERARRIVAL = "1500us"
CLUSTER_SPAN_PER_JOB_PS = 2_250_000_000
CLUSTER_NODES = 32


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def ranks_for(name: str) -> int:
    """2 ranks on the parallel engine, never more than the CPUs this
    process may run on; 1 on the sequential engine."""
    return min(2, usable_cpus()) if WORKLOADS[name].backend else 1


def backend_for(name: str) -> Optional[str]:
    return WORKLOADS[name].backend


def input_seeds(name: str, seed: int) -> List[int]:
    """The seeds a run with ``--seed seed`` gives its iterations in turn:
    ``seed`` itself, or for a workload with ``k`` input seeds
    ``seed * k`` to ``seed * k + k - 1``."""
    k = WORKLOADS[name].input_seeds
    return [seed] if k == 1 else [seed * k + i for i in range(k)]


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------

def declare(name: str, size: Size) -> ConfigGraph:
    """The workload's machine description (no model code runs yet)."""
    graph = WORKLOADS[name].graph
    if graph == "memhier":
        return _memhier(size)
    if graph == "torus_app":
        return build_app_machine("miniapps.HPCCG", size.app_ranks,
                                 iterations=size.app_iterations)
    return _cluster(size)


def _memhier(size: Size) -> ConfigGraph:
    # Random traffic over 4 MB against a 32 KB L1 and 256 KB L2: almost
    # every request reaches DRAM, so all three memory models are busy.
    # Chains are declared one after another, so a linear 2-way split
    # cuts no link and the 2-rank run is a single epoch.
    g = ConfigGraph("memhier")
    for i in range(size.chains):
        g.component(f"cpu{i}", "processor.TrafficGenerator",
                    {"requests": size.requests, "pattern": "random",
                     "footprint": "4MB", "write_fraction": 0.3,
                     "outstanding": 8})
        g.component(f"l1_{i}", "memory.Cache",
                    {"size": "32KB", "ways": 8, "hit_latency": "1ns",
                     "level": "L1"})
        g.component(f"l2_{i}", "memory.Cache",
                    {"size": "256KB", "ways": 8, "hit_latency": "4ns",
                     "level": "L2"})
        g.component(f"mc{i}", "memory.MemController",
                    {"technology": "DDR3-1333"})
        g.link(f"cpu{i}", "mem", f"l1_{i}", "cpu", latency="500ps")
        g.link(f"l1_{i}", "mem", f"l2_{i}", "cpu", latency="1ns")
        g.link(f"l2_{i}", "mem", f"mc{i}", "cpu", latency="2ns")
    return g


def _cluster(size: Size) -> ConfigGraph:
    g = ConfigGraph("cluster")
    g.component("src", "cluster.JobSource",
                {"jobs": size.jobs, "mode": "poisson",
                 "mean_interarrival": CLUSTER_INTERARRIVAL,
                 "mean_runtime": "20ms", "max_nodes": 8, "window": 32})
    g.component("sched", "cluster.Scheduler",
                {"nodes": CLUSTER_NODES, "policy": "cluster.EASYBackfill"})
    g.component("pool", "cluster.NodePool", {"nodes": CLUSTER_NODES})
    g.component("slo", "cluster.SLOStats", {"capacity": CLUSTER_NODES})
    g.link("src", "out", "sched", "submit", latency="10ns")
    g.link("sched", "pool", "pool", "sched", latency="10ns")
    g.link("sched", "report", "slo", "report", latency="10ns")
    return g


def checkpoint_every_ps(size: Size) -> int:
    """cluster_ckpt snapshot interval: about ``size.snapshots`` per run."""
    return size.jobs * CLUSTER_SPAN_PER_JOB_PS // (size.snapshots + 1)


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------

def build_engine(name: str, graph: ConfigGraph, seed: int, *,
                 backend: Optional[str] = None):
    """Instantiate ``graph`` the way the workload runs it; ``backend``
    overrides the parallel workloads' execution backend."""
    workload = WORKLOADS[name]
    if workload.backend is None:
        return build(graph, seed=seed)
    return build_parallel(graph, ranks_for(name), strategy=workload.strategy,
                          backend=backend or workload.backend, seed=seed)


def attach_recorder(name: str, sim, work: Path) -> Optional[TelemetryRecorder]:
    """cluster_ckpt records telemetry to a JSONL file; others record none."""
    if name != "cluster_ckpt":
        return None
    return TelemetryRecorder(work / "metrics.jsonl").attach(sim)


def run_kwargs(name: str, size: Size, work: Path) -> Dict[str, object]:
    if name != "cluster_ckpt":
        return {}
    return {"checkpoint_every": checkpoint_every_ps(size),
            "checkpoint_dir": str(work / "ckpt")}


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------

def same_stats(got: Dict[str, float], want: Dict[str, float]) -> List[str]:
    """Keys whose values differ (NaN equals NaN; missing keys differ)."""
    diffs = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a == b:
            continue
        if (isinstance(a, float) and isinstance(b, float)
                and math.isnan(a) and math.isnan(b)):
            continue
        diffs.append(key)
    return diffs


def within_tie_caveat(key: str, parallel: float, sequential: float) -> bool:
    """Whether a parallel-vs-sequential difference is the PDES tie caveat.

    Cross-rank deliveries are re-sequenced at the epoch exchange, so
    same-timestamp arrivals at a bandwidth-serialised resource can be
    served in another (still deterministic) order than in the sequential
    engine.  Only timing statistics may move, and only this far; the
    rule is the one ``tests/integration/test_full_machine.py`` applies
    to the same machines.
    """
    if key.endswith(("wait_ps", "comm_ps")):
        return abs(parallel - sequential) <= max(0.5 * abs(sequential), 1e7)
    if key.endswith("_ps"):
        return abs(parallel - sequential) <= max(0.02 * abs(sequential), 1e6)
    return False


def check(name: str, values: Dict[str, float], size: Size) -> List[str]:
    """Conservation rules the finished run's statistics must obey."""
    errors: List[str] = []

    def expect(key: str, want: float) -> None:
        got = values.get(key)
        if got != want:
            errors.append(f"{key} = {got}, expected {want}")

    graph = WORKLOADS[name].graph
    if graph == "memhier":
        for i in range(size.chains):
            expect(f"cpu{i}.issued", size.requests)
            expect(f"cpu{i}.completed", size.requests)
            l1, l2 = f"l1_{i}", f"l2_{i}"
            expect(f"{l1}.hits", size.requests - values.get(f"{l1}.misses", 0))
            # L2 sees every L1 miss fetch and every L1 writeback; DRAM
            # sees every L2 miss fetch and every L2 writeback.
            expect(f"{l2}.hits", values.get(f"{l1}.misses", 0)
                   + values.get(f"{l1}.writebacks", 0)
                   - values.get(f"{l2}.misses", 0))
            expect(f"mc{i}.requests", values.get(f"{l2}.misses", 0)
                   + values.get(f"{l2}.writebacks", 0))
    elif graph == "torus_app":
        for i in range(size.app_ranks):
            expect(f"rank{i}.iterations", size.app_iterations)
        sent = sum(values.get(f"nic{i}.sent", 0) for i in range(size.app_ranks))
        received = sum(values.get(f"nic{i}.received", 0)
                       for i in range(size.app_ranks))
        if sent == 0 or sent != received:
            errors.append(f"NICs sent {sent} messages but received {received}")
    else:
        expect("slo.jobs", size.jobs)
        expect("sched.completed", size.jobs)
    return errors


# ----------------------------------------------------------------------
# simulated outputs reported by the ledger
# ----------------------------------------------------------------------

def simulated_outputs(name: str, sim, size: Size) -> Dict[str, float]:
    """Headline simulated results, reported exactly to show identity."""
    out = {"memory.l1_hit_rate": 0.0, "memory.mean_latency_ns": 0.0,
           "miniapps.runtime_us": 0.0, "cluster.utilization": 0.0,
           "cluster.mean_wait_s": 0.0}
    stats = sim.stats()
    graph = WORKLOADS[name].graph
    if graph == "memhier":
        hits = sum(stats[f"l1_{i}.hits"].value() for i in range(size.chains))
        misses = sum(stats[f"l1_{i}.misses"].value() for i in range(size.chains))
        lat = [stats[f"cpu{i}.latency_ps"] for i in range(size.chains)]
        out["memory.l1_hit_rate"] = hits / (hits + misses)
        out["memory.mean_latency_ns"] = (sum(a.total for a in lat)
                                         / sum(a.count for a in lat) / 1e3)
    elif graph == "torus_app":
        out["miniapps.runtime_us"] = max(
            stats[f"rank{i}.runtime_ps"].value()
            for i in range(size.app_ranks)) / 1e6
    else:
        slo = sim.component("slo").manifest_summary()
        out["cluster.utilization"] = slo["utilization"]
        out["cluster.mean_wait_s"] = slo["mean_wait_s"]
    return out
