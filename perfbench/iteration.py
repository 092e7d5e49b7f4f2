"""One benchmark iteration, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/iteration.py '<spec json>'`` with ``src`` on
``PYTHONPATH``.  The spec names the workload, seed, size, working
directory and mode:

* ``reference`` — the sequential engine on the same graph and seed and,
  for a parallel workload, the same partitioned engine run in-process;
  every other iteration must reproduce these statistics exactly;
* ``timed``     — the measured iteration: set-up several times, run the
  last engine built, harvest statistics (``cluster_ckpt`` then restores
  its middle snapshot and resumes it to the end); the calibration
  kernel is timed between the set-ups and the run, and after the run
  (see :func:`calibrate`);
* ``bare``      — ``cluster_ckpt`` without the telemetry recorder, for
  the recorder's overhead ratio;
* ``traced``    — the traced run (see ``ledger.py``).

The last line of standard output is one JSON object.  A fresh process
per iteration gives each its own peak RSS, and a crash or hang in one
iteration cannot take the others with it.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from repro.ckpt import restore
from repro.config import build

import workloads as wl

#: set-ups per timed iteration; setup_s pools every one of them
SETUP_REPS = 5
#: items the calibration kernel pushes through its heap
CALIBRATION_ITEMS = 50_000


class _Item:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: int, key: int, value: int):
        self.time = time
        self.key = key
        self.value = value

    def __lt__(self, other: "_Item") -> bool:
        return self.time < other.time


def calibrate(procs: int) -> float:
    """Mean seconds that ``procs`` processes at once (this one and
    ``procs - 1`` forked helpers) take for :func:`_kernel`.

    On a shared host the speed of the machine drifts by tens of percent
    over minutes; timing this kernel next to each measurement lets
    ``run.py`` scale the measurement to a fixed host speed, while a
    change to the simulator still shows in full.  A run on ``n`` rank
    workers is slowed by the host on ``n`` CPUs, so it is calibrated
    on as many."""
    helpers: List[tuple] = []
    for _ in range(procs - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the helper never returns into the caller's code
            try:
                os.close(read_fd)
                os.write(write_fd, repr(_kernel()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        helpers.append((pid, read_fd))
    times = [_kernel()]
    for pid, read_fd in helpers:
        with os.fdopen(read_fd) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _kernel() -> float:
    """Seconds for a fixed pure-Python kernel (no simulator code): a
    heap of small slotted objects, comparisons, attribute reads and dict
    updates, the interpreter work a discrete-event loop is made of."""
    t0 = perf_counter()
    heap: list = []
    totals: Dict[int, int] = {}
    for i in range(CALIBRATION_ITEMS):
        heapq.heappush(heap, _Item(i * 7919 % 10007, i & 63, i))
        if len(heap) > 64:
            item = heapq.heappop(heap)
            totals[item.key] = totals.get(item.key, 0) + item.value
    return perf_counter() - t0


def reference(name: str, size: wl.Size, seed: int, work: Path) -> Dict[str, Any]:
    """The sequential engine's statistics and, for a parallel workload,
    those of the same partitioned engine run in-process."""
    sim = build(wl.declare(name, size), seed=seed)
    sim.run()
    out: Dict[str, Any] = {"values": sim.stat_values()}
    if wl.backend_for(name) is not None:
        psim = wl.build_engine(name, wl.declare(name, size), seed,
                               backend="serial")
        psim.run()
        out["parallel_values"] = psim.stat_values()
    return out


def timed(name: str, size: wl.Size, seed: int, work: Path) -> Dict[str, Any]:
    setup_s = []
    procs = wl.ranks_for(name) if wl.backend_for(name) == "processes" else 1
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        graph = wl.declare(name, size)
        sim = wl.build_engine(name, graph, seed)
        recorder = wl.attach_recorder(name, sim, work)
        setup_s.append(perf_counter() - t0)
        if rep + 1 < SETUP_REPS:
            if recorder is not None:
                with recorder:  # detach and close the discarded recorder
                    pass
            gc.collect()
    calib_between = calibrate(procs)
    t1 = perf_counter()
    result = sim.run(**wl.run_kwargs(name, size, work))
    if recorder is not None:
        recorder.finalize(result, graph=graph)
    values = sim.stat_values()
    run_s = perf_counter() - t1
    peak_mb = peak_rss_mb(name)  # before calibration helpers are reaped
    calib_after = calibrate(procs)
    out: Dict[str, Any] = {"setup_s": setup_s, "run_s": run_s,
                           # calibration kernel time after the set-ups
                           # and around the run
                           "setup_calib_s": calib_between,
                           "run_calib_s": (calib_between + calib_after) / 2,
                           "events": result.events_executed,
                           "peak_rss_mb": peak_mb,
                           "values": values}
    if name == "cluster_ckpt":
        if not sim.checkpoints_written:
            raise RuntimeError("cluster_ckpt wrote no snapshot")
        middle = sim.checkpoints_written[len(sim.checkpoints_written) // 2]
        t2 = perf_counter()
        resumed = restore(middle)
        out["restore_s"] = perf_counter() - t2
        resumed.run()
        out["resume_diffs"] = wl.same_stats(resumed.stat_values(), values)
        out["ckpt_mb"] = wl.tree_bytes(work / "ckpt") / 1e6
    return out


def bare(name: str, size: wl.Size, seed: int, work: Path) -> Dict[str, Any]:
    sim = wl.build_engine(name, wl.declare(name, size), seed)
    gc.collect()
    t0 = perf_counter()
    result = sim.run(**wl.run_kwargs(name, size, work))
    values = sim.stat_values()
    return {"run_s": perf_counter() - t0, "events": result.events_executed,
            "values": values}


def peak_rss_mb(name: str) -> float:
    """Peak RSS of this process plus, on the processes backend, ranks
    times the largest rank worker's peak (workers are reaped by now)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = 0
    if wl.backend_for(name) == "processes":
        workers = wl.ranks_for(name) * resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024  # ru_maxrss is in KiB on Linux


def main(argv) -> int:
    spec = json.loads(argv[1])
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    size = wl.SMOKE if spec["size"] == "smoke" else wl.FULL
    if spec["mode"] == "traced":
        from ledger import traced_iteration as mode
    else:
        mode = {"reference": reference, "timed": timed, "bare": bare}[spec["mode"]]
    try:
        out = mode(spec["workload"], size, spec["seed"], work)
        out["ok"] = True
    except Exception:  # reported to the parent, which counts the failure
        out = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
