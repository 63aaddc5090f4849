"""Run the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload khop --seed 1 --seconds 20 --trace 0

``--workload`` is ``khop``, ``snb-mixed``, ``skew-churn`` or ``all``. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs every leg twice, untraced and then with per-layer wrappers
installed, and reports the per-layer metrics (see perfbench/NOTES.md).
Every completed read is checked against the reference executor. Metric
names, units and each workload's latency limit come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when a result differed from the reference (or
a traced leg differed from its untraced twin, or ``skew-churn`` failed to
fire a layer it exists to fire), and 2 when the program's sources or
BENCHMARK.json are not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import benchstats as st

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
#: per-run reports and span dumps (ignored by git)
OUT_DIR = ROOT / ".bench_out"

#: wall seconds one leg takes on the reference machine; a run holds
#: round(seconds / LEG_SECONDS) legs, so its work is fixed by the seed and
#: ``--seconds`` alone, never by how fast the machine happens to be
LEG_SECONDS = 5.0
SETUP_REPEATS = 7

#: how a workload's ``why`` in BENCHMARK.json states its latency limit
SLO_PATTERN = re.compile(r"\bSLO (\d+(?:\.\d+)?) ms sim\b")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("khop", "snb-mixed", "skew-churn", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def leg_plan(seconds: float) -> Tuple[int, float]:
    """Legs in a run and the share of a full leg's work each holds.

    A run of ``seconds`` holds ``round(seconds / LEG_SECONDS)`` full legs;
    below one leg's worth it holds a single leg shrunk to that share.
    """
    return (max(1, round(seconds / LEG_SECONDS)),
            min(1.0, seconds / LEG_SECONDS))


def latency_limits_us(spec: Dict[str, Any]) -> Dict[str, float]:
    """Each workload's latency limit, as its ``why`` in BENCHMARK.json
    states it (``SLO <n> ms sim``)."""
    limits = {}
    for workload in spec["workloads"]:
        match = SLO_PATTERN.search(workload["why"])
        if match is None:
            raise ValueError(f"BENCHMARK.json: workload {workload['name']!r} "
                             f"states no 'SLO <n> ms sim' latency limit")
        limits[workload["name"]] = float(match.group(1)) * 1000.0
    return limits


def fingerprint() -> Dict[str, Any]:
    """The machine and toolchain a run measured."""
    from repro.runtime.config import EngineConfig
    from repro.runtime.kernels import kernel_name_for

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_tier": kernel_name_for(EngineConfig()),
    }


def peak_rss_mb() -> float:
    """High-water resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(legs, setup_s: float, rss_mb: float,
               limit_us: float) -> Dict[str, Any]:
    """The end-to-end metrics of one untraced run, plus their details."""
    latencies = st.flatten([leg.read_latencies_us for leg in legs])
    reads = sum(leg.reads_attempted for leg in legs)
    late = sum(leg.late_reads(limit_us) for leg in legs)
    unserved = sum(leg.reads_failed + leg.mismatches for leg in legs)
    failed = sum(leg.failed for leg in legs)
    attempted = sum(leg.attempted for leg in legs)
    ops = sum(leg.ops for leg in legs)
    span_s = sum(leg.span_us for leg in legs) / 1e6
    tail_pct, tail_us = st.tail(latencies) if latencies else (0.0, 0.0)
    values = {
        "setup_s": setup_s,
        "ops_per_wall_s": st.ratio(ops, sum(leg.wall_s for leg in legs)),
        "read_p50_us": st.percentile(latencies, 50.0) if latencies else 0.0,
        "read_tail_us": tail_us,
        "sim_ops_s": st.ratio(ops, span_s),
        "slo_miss_frac": st.rare_fraction(late + unserved, reads),
        "failed_frac": st.rare_fraction(failed, attempted),
        "peak_rss_mb": rss_mb,
    }
    details = {
        "legs": len(legs),
        "reads_attempted": reads,
        "reads_completed": len(latencies),
        "read_tail_percentile": tail_pct,
        "latency_limit_us": limit_us,
        "slo_misses": late + unserved,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "mismatches": sum(leg.mismatches for leg in legs),
        "leg_wall_s": [leg.wall_s for leg in legs],
        "wall_cpu_ratio": st.ratio(sum(leg.cpu_s for leg in legs),
                                   sum(leg.wall_s for leg in legs)),
        "leg_notes": [leg.notes for leg in legs],
    }
    return {"values": values, "details": details,
            "attempted": attempted, "failed": failed}


def run_untraced(wl, args, spec: Dict[str, Any]) -> Dict[str, Any]:
    n_legs, scale = leg_plan(args.seconds)
    walls = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        # Release the previous set-up, and its garbage, before timing the
        # next, so every set-up starts from the same heap.
        ctx = None
        gc.collect()
        ctx, wall, _cpu = st.timed(wl.setup)
        walls.append(wall)
    setup_s = st.median(walls)
    legs = []
    rss_mb = 0.0
    for i, leg_input in enumerate(wl.legs(ctx, args.seed, n_legs, scale)):
        leg = wl.run_leg(ctx, wl.prepare(ctx, leg_input))
        if i == 0:
            # Before any output check: the check's reference runs are
            # the benchmark's cost, not the program's.
            rss_mb = peak_rss_mb()
        wl.check_leg(ctx, leg)
        leg.engine, leg.checks = None, []
        legs.append(leg)
    result = end_to_end(legs, setup_s, rss_mb, latency_limits_us(spec)[wl.name])
    result["details"].update(setup_walls_s=walls, leg_scale=scale)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result.pop("values").items()}
    problems = []
    if result["details"]["mismatches"]:
        problems.append(f"{result['details']['mismatches']} reads differ "
                        f"from the reference executor")
    unfired = getattr(wl, "unfired", None)
    if unfired is not None:
        missing = unfired([leg.notes for leg in legs])
        if missing:
            problems.append("layers not fired: " + ", ".join(missing))
    result["problems"] = problems
    return result


def run_traced(wl, args, spec: Dict[str, Any]) -> Dict[str, Any]:
    from layertrace import Tracer, layer_metrics

    n_legs, scale = leg_plan(args.seconds)
    ctx = wl.setup()
    inputs = wl.legs(ctx, args.seed, n_legs, scale)
    tracer = Tracer()
    with tracer:
        traced_ctx = wl.setup()
    traced, untraced_wall = [], 0.0
    problems = []
    for i, leg_input in enumerate(inputs):
        base = wl.run_leg(ctx, wl.prepare(ctx, leg_input))
        untraced_wall += base.wall_s
        prepared = wl.prepare(traced_ctx, leg_input)
        with tracer:
            leg = wl.run_leg(traced_ctx, prepared)
        if leg.fingerprint() != base.fingerprint():
            problems.append(f"leg {i}: traced run differs from untraced run")
        if wl.check_leg(traced_ctx, leg):
            problems.append(f"leg {i}: {leg.mismatches} reads differ from "
                            f"the reference executor")
        base.engine, leg.checks = None, []
        traced.append(leg)
    values = layer_metrics(tracer, traced, untraced_wall)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(values) != set(units):
        problems.append("per-layer metrics differ from BENCHMARK.json: "
                        + ", ".join(sorted(set(values) ^ set(units))))
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
    count = tracer.dump(str(spans))
    return {
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
        "attempted": sum(leg.attempted for leg in traced),
        "failed": sum(leg.failed for leg in traced),
        "details": {"legs": len(traced), "leg_scale": scale, "spans": count,
                    "span_file": str(spans),
                    "layers": tracer.layer_totals()},
        "problems": problems,
    }


def print_report(name: str, result: Dict[str, Any]) -> None:
    details = result["details"]
    print(f"== {name}")
    for metric, entry in result["metrics"].items():
        line = f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}"
        if metric == "read_tail_us":
            line += (f"  (p{details['read_tail_percentile']:g} of "
                     f"{details['reads_completed']} completed reads)")
        elif metric == "slo_miss_frac":
            line += (f"  ({details['slo_misses']} of {details['reads_attempted']}"
                     f" reads missed {details['latency_limit_us']:g} us)")
        elif metric == "failed_frac":
            line += f"  ({details['failed']} of {details['attempted']} ops)"
        print(line)
    for problem in result["problems"]:
        print(f"  !! {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    if not SPEC_FILE.is_file():
        print(f"perfbench: no {SPEC_FILE.name} at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = fingerprint()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    results = {}
    for name in names:
        runner = run_traced if args.trace else run_untraced
        result = runner(WORKLOADS[name], args, spec)
        print_report(name, result)
        results[name] = result
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / (f"report-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "args": vars(args), "results": results},
                  fh, indent=1, default=str)
    print(f"report: {report.relative_to(ROOT)}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{metric}": entry for name, result in results.items()
                   for metric, entry in result["metrics"].items()}
    correct = not any(result["problems"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
