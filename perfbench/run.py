"""PySST end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload memhier --seed 1 --seconds 15 --trace 0

Runs one workload (``memhier``, ``memhier_2rank``, ``torus_app_inproc``,
``cluster_ckpt`` or the ungated ``torus_app_2rank``; see README.md) for
``--seconds`` seconds of iterations.  Every iteration runs in a fresh process
(``iteration.py``), and its simulated statistics must equal those of a
plain serial run of the same graph and seed, made first.  An iteration
that raises, times out or differs counts as failed.  ``setup_s`` and
``events_per_s`` are scaled to a fixed host speed by a calibration kernel
timed next to each set-up and run (``iteration.calibrate``); the record
also carries them unscaled.  ``cluster_ckpt`` iterations take turns on
four input seeds (``workloads.input_seeds``), each with its own
reference run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer ledger
(``ledger.py``).  Both print human-readable lines, then a record line
with the run's context and each metric's median, quartiles and sample
count, and last one JSON line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

Records are appended to ``perfbench/results/records.jsonl`` and the
traced run's spans go to ``perfbench/results/spans-<workload>-seed<n>.json``.
Exits 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: end-to-end metrics of every workload (the last line's, with --trace 0)
END_TO_END = {"setup_s": "s", "events_per_s": "events/s", "peak_rss_mb": "MB"}
#: end-to-end metrics of cluster_ckpt alone (human lines and record only)
CLUSTER_ONLY = {"restore_s": "s", "ckpt_mb": "MB"}
#: record only: the timings before scaling, and the host slowdown (the
#: calibration kernel's time around the run over CALIBRATION_REF_S)
UNSCALED = {"setup_s_unscaled": "s", "events_per_s_unscaled": "events/s",
            "host_slowdown": "ratio"}
#: the reference host's time for ``iteration.calibrate`` (about its median
#: on a 2-vCPU Intel Xeon VM, Python 3.11.7): setup_s and events_per_s
#: are scaled to a host that runs the kernel in this time
CALIBRATION_REF_S = 0.1
#: a run makes at least this many rounds of iterations
MIN_ROUNDS = 3
#: an iteration process is killed after this many seconds
ITERATION_TIMEOUT_S = 45.0
#: no new round starts this many seconds after the run began
DEADLINE_S = 100.0


def main(argv: Optional[List[str]] = None, *, size: str = "full") -> int:
    """Run the benchmark; ``size="smoke"`` shrinks every workload (tests)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no PySST sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from ledger import LEDGER

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    RESULTS.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, size,
                  RESULTS / f"work-{os.getpid()}")
    try:
        if args.trace:
            samples = bench.traced(args.seconds)
        else:
            samples = bench.untraced(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    record = {**context(wl, args), "trace": args.trace,
              "attempted": bench.attempted, "failed": bench.failed,
              "errors": bench.errors[:5], "tie_shifted": bench.tie_shifted,
              "metrics": {name: summarize(values, unit)
                          for name, (values, unit) in samples.items()}}
    print_human(record)
    if not args.trace and args.workload in ("memhier", "memhier_2rank"):
        print_speedup(record)
    print(json.dumps(record))
    with open(RESULTS / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if bench.spans:
        spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(bench.spans))

    names = LEDGER if args.trace else END_TO_END
    metrics = {name: {"value": record["metrics"][name]["median"],
                      "unit": names[name]}
               for name in names if name in record["metrics"]}
    complete = len(metrics) == len(names)
    print(json.dumps({"correct": complete and bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0 if complete else 1


class Bench:
    """One run of one workload: rounds of measured iterations, cycling
    through the workload's input seeds, each seed's first preceded by
    its reference run; failures are counted and kept as error lines."""

    def __init__(self, workload: str, seed: int, size: str, work: Path):
        import workloads as wl

        self.wl = wl
        self.workload = workload
        self.seeds = wl.input_seeds(workload, seed)
        self.size = size
        self.work = work
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: per input seed, the statistics every measured iteration must
        #: reproduce exactly (None when the reference run failed)
        self.reference: Dict[int, Optional[Dict[str, float]]] = {}
        #: statistics where the parallel engine differs from the
        #: sequential one within the PDES tie caveat
        self.tie_shifted: List[str] = []
        self.spans: List[Dict[str, Any]] = []

    def iteration(self, mode: str) -> Optional[Dict[str, Any]]:
        """Run one measured iteration on the next input seed; its output,
        or None if it failed."""
        seed = self.seeds[self.attempted % len(self.seeds)]
        if seed not in self.reference:
            self.reference[seed] = None
            self.child(seed, "reference")
        return self.child(seed, mode)

    def child(self, seed: int, mode: str) -> Optional[Dict[str, Any]]:
        """Run one iteration process; its output, or None if it failed."""
        out = run_child({"workload": self.workload, "seed": seed,
                         "size": self.size, "mode": mode,
                         "work": str(self.work / f"{mode}-{self.attempted}")},
                        self.timeout())
        problem = self.problem(seed, mode, out)
        if mode != "reference":
            self.attempted += 1
        if problem is not None:
            self.errors.append(f"{mode} #{self.attempted}: {problem[-2000:]}")
            self.failed += mode != "reference"
            return None
        return out

    def problem(self, seed: int, mode: str,
                out: Dict[str, Any]) -> Optional[str]:
        """Why an iteration's output is wrong, or None."""
        if not out.get("ok"):
            return out.get("error") or "no result"
        if mode == "reference":
            return self.check_reference(seed, out)
        if self.reference[seed] is None:
            return "no valid reference run to compare against"
        diffs = self.wl.same_stats(out["values"], self.reference[seed])
        if diffs:
            return (f"{len(diffs)} statistics differ from the reference "
                    f"engine's: {', '.join(diffs[:5])}")
        if out.get("resume_diffs"):
            return ("the resumed run's statistics differ from the "
                    f"uninterrupted run's: {', '.join(out['resume_diffs'][:5])}")
        return None

    def check_reference(self, seed: int,
                        out: Dict[str, Any]) -> Optional[str]:
        """Check the reference run; on success keep the statistics every
        iteration must equal (the in-process parallel engine's, for a
        parallel workload, which must match the sequential engine's up
        to the PDES tie caveat; ``tie_shifted`` lists what moved)."""
        size = self.wl.SMOKE if self.size == "smoke" else self.wl.FULL
        sequential = out["values"]
        values = out.get("parallel_values", sequential)
        errors = self.wl.check(self.workload, values, size)
        shifted = self.wl.same_stats(values, sequential)
        errors += [f"{key}: {values.get(key)} on the parallel engine, "
                   f"{sequential.get(key)} on the sequential one"
                   for key in shifted if not self.wl.within_tie_caveat(
                       key, values.get(key), sequential.get(key))]
        if errors:
            return "; ".join(errors)
        self.reference[seed] = values
        self.tie_shifted = sorted(set(self.tie_shifted) | set(shifted))
        return None

    def timeout(self) -> float:
        left = DEADLINE_S + ITERATION_TIMEOUT_S - self.elapsed()
        return max(1.0, min(ITERATION_TIMEOUT_S, left))

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def rounds(self, seconds: float) -> Iterator[int]:
        """Yield rounds until ``seconds`` of them are spent (at least
        MIN_ROUNDS, none starting past DEADLINE_S)."""
        start = time.perf_counter()
        done = 0
        while ((done < MIN_ROUNDS or time.perf_counter() - start < seconds)
               and (done == 0 or self.elapsed() < DEADLINE_S)):
            yield done
            done += 1

    def untraced(self, seconds: float) -> Dict[str, Any]:
        runs = [out for _ in self.rounds(seconds)
                if (out := self.iteration("timed")) is not None]
        # A host that runs the calibration kernel slower by some factor
        # runs the simulator slower by about the same factor, so each
        # timing is scaled by the kernel time measured around it.
        samples = {
            "setup_s": ([s * CALIBRATION_REF_S / r["setup_calib_s"]
                         for r in runs for s in r["setup_s"]], "s"),
            "events_per_s": ([r["events"] / r["run_s"] * r["run_calib_s"]
                              / CALIBRATION_REF_S for r in runs], "events/s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in runs], "MB"),
            "setup_s_unscaled": ([s for r in runs for s in r["setup_s"]], "s"),
            "events_per_s_unscaled": ([r["events"] / r["run_s"] for r in runs],
                                      "events/s"),
            "host_slowdown": ([r["run_calib_s"] / CALIBRATION_REF_S
                               for r in runs], "ratio"),
        }
        if self.workload == "cluster_ckpt":
            for name, unit in CLUSTER_ONLY.items():
                samples[name] = ([r[name] for r in runs], unit)
        return {name: s for name, s in samples.items() if s[0]}

    def traced(self, seconds: float) -> Dict[str, Any]:
        """Alternate untraced and traced iterations (and, on cluster_ckpt,
        recorder-less ones); the ledger is the traced runs' medians."""
        from ledger import LEDGER

        plain: List[float] = []
        traced: List[Dict[str, Any]] = []
        bare: List[float] = []
        for _ in self.rounds(seconds):
            for mode, sink in (("timed", plain), ("traced", traced),
                               ("bare", bare)):
                if mode == "bare" and self.workload != "cluster_ckpt":
                    continue
                out = self.iteration(mode)
                if out is not None:
                    sink.append(out if mode == "traced" else out["run_s"])
        if not traced:
            return {}
        self.spans = traced[-1]["spans"]
        samples = {name: ([t["metrics"][name] for t in traced], LEDGER[name])
                   for name in traced[0]["metrics"]}
        traced_s = statistics.median(t["run_s"] for t in traced)
        if plain:
            samples["trace.overhead_frac"] = (
                [traced_s / statistics.median(plain)], "ratio")
            samples["obs.overhead_frac"] = (
                [statistics.median(plain) / statistics.median(bare)
                 if bare else 0.0], "ratio")
        return samples


def run_child(spec: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run ``iteration.py`` in its own session; kill the whole session
    (the iteration and any rank workers it forked) when it ends."""
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               TMPDIR=str(work))
    proc = subprocess.Popen([sys.executable, str(HERE / "iteration.py"),
                             json.dumps(spec)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    finally:
        stop_session(proc)
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False,
                "error": f"exit code {proc.returncode}: {err.strip()[-2000:]}"}


def stop_session(proc: subprocess.Popen) -> None:
    """Kill every process left in the child's session, reap the child and
    wait (up to 5 s) until no process of the session is left."""
    for _ in range(500):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.01)
    proc.communicate()


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric."""
    if len(values) >= 2:
        p25, median, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = median = p75 = values[0]
    return {"unit": unit, "median": median, "p25": p25, "p75": p75,
            "n": len(values)}


def context(wl, args) -> Dict[str, Any]:
    return {"workload": args.workload, "seed": args.seed,
            "input_seeds": wl.input_seeds(args.workload, args.seed),
            "seconds": args.seconds, "commit": git_commit(),
            "src_sha256": src_digest(), "usable_cpus": wl.usable_cpus(),
            "python": platform.python_version(),
            "ranks": wl.ranks_for(args.workload),
            "backend": wl.backend_for(args.workload) or "serial-engine"}


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over every ``src`` Python file: names the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def print_human(record: Dict[str, Any]) -> None:
    seeds = record["input_seeds"]
    inputs = f" inputs={','.join(map(str, seeds))}" if len(seeds) > 1 else ""
    print(f"perfbench {record['workload']} seed={record['seed']}{inputs} "
          f"ranks={record['ranks']} backend={record['backend']} "
          f"usable_cpus={record['usable_cpus']} python={record['python']} "
          f"commit={record['commit'] or 'src:' + record['src_sha256'][:12]}")
    attempted, failed = record["attempted"], record["failed"]
    fail_frac = failed / attempted if attempted else 1.0
    print(f"  {'fail_frac':<26} {fail_frac:<14.4g} {'ratio':<9}"
          f"({failed} of {attempted} iterations failed)")
    for name, m in record["metrics"].items():
        print(f"  {name:<26} {m['median']:<14.6g} {m['unit']:<9}"
              f"[p25 {m['p25']:.6g}, p75 {m['p75']:.6g}, n={m['n']}]")
    if record["tie_shifted"]:
        print(f"  note: {len(record['tie_shifted'])} statistics differ from the "
              f"sequential engine within the PDES tie caveat: "
              f"{', '.join(record['tie_shifted'][:5])}")
    for error in record["errors"]:
        print(f"  FAILED {error}")


def print_speedup(record: Dict[str, Any]) -> None:
    """``speedup_2rank`` from this record and the latest untraced record
    of the other memhier workload for the same code (reported, not gated)."""
    other = "memhier" if record["workload"] == "memhier_2rank" else "memhier_2rank"
    match = None
    records_file = RESULTS / "records.jsonl"
    if records_file.exists():
        for line in records_file.read_text().splitlines():
            r = json.loads(line)
            if (r["workload"] == other and not r["trace"]
                    and r["src_sha256"] == record["src_sha256"]
                    and r["usable_cpus"] == record["usable_cpus"]
                    and "events_per_s" in r["metrics"]):
                match = r
    if match is None or "events_per_s" not in record["metrics"]:
        return
    rate = {record["workload"]: record, other: match}
    ratio = (rate["memhier_2rank"]["metrics"]["events_per_s"]["median"]
             / rate["memhier"]["metrics"]["events_per_s"]["median"])
    print(f"  {'speedup_2rank':<26} {ratio:<14.4g} {'x':<9}(memhier_2rank / "
          f"memhier events_per_s medians; usable_cpus={record['usable_cpus']})")


if __name__ == "__main__":
    sys.exit(main())
