"""The benchmark's own tests, at smoke size: ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import ledger  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    """Run the benchmark at smoke size with results under ``tmp_path``;
    returns (exit code, stdout lines)."""
    monkeypatch.setattr(run, "RESULTS", tmp_path)

    def invoke(workload, trace=0):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)],
                        size="smoke")
        return code, capsys.readouterr().out.strip().splitlines()

    return invoke


def test_benchmark_json_names_what_the_code_prints():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == ledger.LEDGER


@pytest.mark.parametrize("workload", wl.NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(bench, workload):
    code, lines = bench(workload)
    assert code == 0
    last = json.loads(lines[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= run.MIN_ROUNDS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())
    record = json.loads(lines[-2])
    expected = {**run.END_TO_END, **run.UNSCALED}
    if workload == "cluster_ckpt":
        expected.update(run.CLUSTER_ONLY)
    assert {k: m["unit"] for k, m in record["metrics"].items()} == expected
    for m in record["metrics"].values():
        assert m["p25"] <= m["median"] <= m["p75"] and m["n"] >= run.MIN_ROUNDS
    for key in ("commit", "src_sha256", "usable_cpus", "python", "seed",
                "input_seeds", "ranks", "attempted"):
        assert key in record
    human = "\n".join(lines[:-2])
    for name, unit in [("fail_frac", "ratio"), *expected.items()]:
        assert any(name in line and f" {unit} " in line
                   for line in human.splitlines()), name


@pytest.mark.parametrize("workload", wl.NAMES)
def test_traced_run_prints_every_ledger_metric(bench, workload, tmp_path):
    code, lines = bench(workload, trace=1)
    assert code == 0
    last = json.loads(lines[-1])
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == ledger.LEDGER
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["kernel.events"] > 0 and metrics["config.build_s"] > 0
    assert metrics["trace.overhead_frac"] > 0
    if wl.backend_for(workload):
        assert metrics["parallel.epochs"] >= 1
    if workload == "cluster_ckpt":
        assert metrics["ckpt.snapshots"] >= 1 and metrics["obs.records"] >= 1
    spans = json.loads((tmp_path / f"spans-{workload}-seed5.json").read_text())
    names = {s["name"] for s in spans}
    assert {"config.declare", "config.build", "core.partition", "core.run",
            "core.stat_values"} <= names
    assert all(s["start"] <= s["end"] for s in spans)


def test_wrong_statistics_count_as_failed_iterations(bench, monkeypatch):
    real = run.run_child

    def corrupting(spec, timeout):
        out = real(spec, timeout)
        if spec["mode"] == "timed":
            out["values"]["cpu0.completed"] += 1
        return out

    monkeypatch.setattr(run, "run_child", corrupting)
    code, lines = bench("memhier")
    last = json.loads(lines[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= run.MIN_ROUNDS
    assert any("fail_frac" in line and line.split()[1] == "1" for line in lines)
    assert any("cpu0.completed" in line for line in lines if "FAILED" in line)
    assert code == 1  # no valid iteration, so no metric to print


def test_a_failing_resume_is_counted(bench, monkeypatch):
    real = run.run_child

    def diverging(spec, timeout):
        out = real(spec, timeout)
        if spec["mode"] == "timed" and spec["work"].endswith("-0"):
            out["resume_diffs"] = ["slo.jobs"]
        return out

    monkeypatch.setattr(run, "run_child", diverging)
    code, lines = bench("cluster_ckpt")
    last = json.loads(lines[-1])
    assert code == 0 and last["correct"] is False and last["failed"] == 1


def test_conservation_checks_catch_a_lost_request():
    graph = wl.declare("memhier", wl.SMOKE)
    sim = wl.build_engine("memhier", graph, 5)
    sim.run()
    values = sim.stat_values()
    assert wl.check("memhier", values, wl.SMOKE) == []
    values["mc0.requests"] -= 1
    assert wl.check("memhier", values, wl.SMOKE) == [
        f"mc0.requests = {values['mc0.requests']}, expected "
        f"{values['mc0.requests'] + 1}"]


def test_tie_caveat_covers_only_timing_statistics():
    assert wl.within_tie_caveat("net.r0.queue_wait_ps", 1.2e9, 1.0e9)
    assert not wl.within_tie_caveat("net.r0.queue_wait_ps", 3.0e9, 1.0e9)
    assert wl.within_tie_caveat("rank0.runtime_ps", 1.01e9, 1.0e9)
    assert not wl.within_tie_caveat("rank0.runtime_ps", 1.1e9, 1.0e9)
    assert not wl.within_tie_caveat("nic0.sent", 11, 10)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "memhier",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json",
                                                           "perfbench"]
