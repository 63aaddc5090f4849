"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size, so the whole file takes about a
minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import benchstats as st  # noqa: E402
from layertrace import Tracer  # noqa: E402
from run import end_to_end, latency_limits_us, leg_plan  # noqa: E402
from workloads import WORKLOADS, Leg  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: per-workload ``--seconds`` of a single shrunk leg that still fires
#: every layer the workload needs
SECONDS = {"khop": 0.5, "snb-mixed": 0.5, "skew-churn": 2.5}
SIMULATED = ("read_p50_us", "read_tail_us", "sim_ops_s", "slo_miss_frac",
             "failed_frac")


def run_bench(workload: str, *, seed: int = 3, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS[workload]),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    return proc, result


@pytest.mark.parametrize("workload", sorted(SECONDS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    proc, result = run_bench(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(SECONDS))
def test_traced_run_emits_every_per_layer_metric(workload):
    proc, result = run_bench(workload, trace=1)
    # A traced leg whose simulated output differs from its untraced twin
    # makes the run incorrect, so success here also shows the wrappers
    # only observe.
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", sorted(SECONDS))
def test_same_seed_gives_identical_simulated_metrics(workload):
    _, first = run_bench(workload, seed=5)
    _, second = run_bench(workload, seed=5)
    for name in SIMULATED:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", sorted(SECONDS))
def test_traced_leg_equals_untraced_leg(workload):
    wl = WORKLOADS[workload]
    ctx = wl.setup()
    n_legs, scale = leg_plan(SECONDS[workload])
    leg_input = wl.legs(ctx, 11, n_legs, scale)[0]
    base = wl.run_leg(ctx, wl.prepare(ctx, leg_input))
    prepared = wl.prepare(ctx, leg_input)
    tracer = Tracer()
    with tracer:
        traced = wl.run_leg(ctx, prepared)
    assert traced.fingerprint() == base.fingerprint()
    assert wl.check_leg(ctx, traced) == 0
    totals = tracer.layer_totals()
    submitted = base.reads_attempted - base.notes.get("dropped_reads", 0)
    assert totals["engine.submit"]["calls"] == submitted
    assert totals["simclock"]["calls"] >= 1


def test_seconds_set_leg_count_and_size():
    assert leg_plan(20) == (4, 1.0)
    assert leg_plan(0.5) == (1, 0.1)
    assert leg_plan(2.5) == (1, 0.5)


def test_every_workload_has_a_latency_limit_in_benchmark_json():
    limits = latency_limits_us(SPEC)
    assert set(limits) == set(WORKLOADS)
    assert all(limit > 0 for limit in limits.values())
    with pytest.raises(ValueError):
        latency_limits_us({"workloads": [{"name": "x", "why": "no limit"}]})


def test_late_mismatched_read_counts_once_as_an_slo_miss():
    # Read 1 is late and matched, read 2 late and mismatched, read 0 on
    # time and mismatched: three misses out of three reads, not four.
    leg = Leg(wall_s=1.0, cpu_s=1.0, span_us=100.0, reads_attempted=3,
              read_latencies_us=[10.0, 900.0, 800.0], reads_failed=0,
              mismatched=[0, 2])
    result = end_to_end([leg], setup_s=1.0, rss_mb=1.0, limit_us=500.0)
    assert result["details"]["slo_misses"] == 3
    assert result["values"]["slo_miss_frac"] == st.rare_fraction(3, 3)
    assert result["failed"] == 2


def test_uninstall_restores_every_wrapped_attribute():
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.graph.partition import PartitionedGraph

    submit = AsyncPSTMEngine.__dict__["submit"]
    from_graph = PartitionedGraph.__dict__["from_graph"]
    tracer = Tracer()
    with tracer:
        assert AsyncPSTMEngine.__dict__["submit"] is not submit
    assert AsyncPSTMEngine.__dict__["submit"] is submit
    assert PartitionedGraph.__dict__["from_graph"] is from_graph


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    for nid, start, end, parent in ((0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0),
                                    (1, 5.0, 6.0, 0)):
        tracer.name_id.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.qid.append(-1)
    totals = tracer.layer_totals()
    assert totals["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_tail_reports_highest_percentile_with_ten_beyond():
    assert st.tail(list(range(1, 101))) == (90.0, 90)
    assert st.tail(list(range(1, 1001))) == (99.0, 990)
    assert st.tail(list(range(1, 15)))[0] == 50.0


def test_rare_fraction_is_never_zero_and_tracks_counts():
    assert st.rare_fraction(0, 99) == pytest.approx(0.005)
    assert st.rare_fraction(50, 99) == pytest.approx(0.505)
    with pytest.raises(ValueError):
        st.rare_fraction(3, 2)


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "khop", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
