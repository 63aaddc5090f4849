"""Command-line interface: run paper experiments and demos.

Usage::

    python -m repro list                 # available experiments
    python -m repro run fig10            # one experiment, table to stdout
    python -m repro run table2 fig12     # several experiments
    python -m repro demo                 # the Fig 1 quickstart query
    python -m repro explain khop3        # show a compiled plan
    python -m repro faults --drop-rate 0.01 --seed 1   # fault-injection demo
    python -m repro trace --cancel --out trace.jsonl   # observability demo

Experiment names map to the functions in :mod:`repro.bench.experiments`;
heavyweight experiments accept their default (benchmark-suite) parameters.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.bench import experiments as exp
from repro.bench.report import Table

#: name → (function, description). Functions take no arguments and return
#: a Table (bound with the benchmark-suite defaults).
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (exp.table1_workload_characteristics,
               "Table I: workload-class characteristics"),
    "table2": (exp.table2_datasets, "Table II: dataset summaries"),
    "fig7": (exp.fig7_mixed_workload,
             "Fig 7: mixed LDBC workload, TCR sweep (slow)"),
    "fig8-latency": (exp.fig8_ic_latency, "Fig 8: per-IC latency (slow)"),
    "fig8-throughput": (exp.fig8_ic_throughput,
                        "Fig 8: IC throughput under concurrency (slow)"),
    "fig8-graphscope": (exp.fig8_graphscope_comparison,
                        "§V-A3: single-node comparison"),
    "fig9-vertical": (exp.fig9_vertical, "Fig 9: vertical scalability (slow)"),
    "fig9-horizontal": (exp.fig9_horizontal,
                        "Fig 9: horizontal scalability (slow)"),
    "fig9-longest": (exp.fig9_bsp_long_query,
                     "Fig 9: BSP wins the longest query (slow)"),
    "fig10": (exp.fig10_weight_coalescing, "Fig 10: weight coalescing"),
    "fig11": (exp.fig11_message_counts, "Fig 11: progress message counts"),
    "fig12": (exp.fig12_io_scheduler, "Fig 12: two-tier I/O scheduler"),
    "fig13": (exp.fig13_hardware, "Fig 13: hardware sensitivity"),
}


def _register_ablations() -> None:
    """Ablation experiments live next to their benchmarks; import lazily so
    `python -m repro list` stays fast."""
    from benchmarks import test_ablation_design as design
    from benchmarks import test_ablation_straggler as straggler

    EXPERIMENTS.update({
        "ablation-flush": (design.run_flush_threshold_sweep,
                           "ablation: tier-1 flush threshold sweep"),
        "ablation-batch": (design.run_batch_size_sweep,
                           "ablation: worker batch size sweep"),
        "ablation-hybrid": (design.run_hybrid_comparison,
                            "ablation: hybrid sync/async switching (slow)"),
        "ablation-idle": (straggler.run_bsp_idle_fraction,
                          "ablation: BSP barrier-idle fraction (slow)"),
        "ablation-straggler": (straggler.run_straggler_experiment,
                               "ablation: hardware straggler injection"),
    })


try:  # the benchmarks package is present in source checkouts
    _register_ablations()
except ImportError:  # pragma: no cover - installed without benchmarks/
    pass


def cmd_list(_args: argparse.Namespace) -> int:
    """List the available experiments."""
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_fn, description) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run the named experiments and print their tables."""
    unknown = [n for n in args.experiments if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list`", file=sys.stderr)
        return 2
    for name in args.experiments:
        fn, _description = EXPERIMENTS[name]
        table: Table = fn()
        print(table.render())
        if getattr(args, "bars", False):
            column = _first_numeric_column(table)
            if column is not None:
                print()
                print(table.render_bars(column))
        print()
    return 0


def _first_numeric_column(table: Table) -> str:
    """The first column whose values are all numeric (for --bars)."""
    for i, header in enumerate(table.headers):
        values = [row[i] for row in table.rows]
        if values and all(isinstance(v, (int, float)) for v in values):
            if any(isinstance(v, float) for v in values):
                return header
    return None


def cmd_demo(_args: argparse.Namespace) -> int:
    """Run the Fig 1 quickstart query on a generated graph."""
    from repro.bench.harness import khop_traversal
    from repro.datasets.synthetic import LIVEJOURNAL_LIKE, powerlaw_graph
    from repro.runtime.cluster import ClusterConfig
    from repro.runtime.variants import make_graphdance

    print("generating LiveJournal-like graph...")
    graph = powerlaw_graph(LIVEJOURNAL_LIKE, seed=13)
    cluster = ClusterConfig(nodes=4, workers_per_node=4)
    engine = make_graphdance(cluster.partition(graph), cluster)
    plan = khop_traversal(3).compile(engine.graph)
    result = engine.run(plan, {"start": 4242})
    print(f"3-hop top-10 influencers of vertex 4242 "
          f"({result.latency_ms:.3f} ms simulated):")
    for vertex, weight in result.rows:
        print(f"  vertex {vertex:6d}  weight {weight}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the compiled physical plan of a query."""
    from repro.bench.harness import khop_traversal
    from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
    from repro.graph.partition import PartitionedGraph

    name = args.query
    if not name.startswith("khop"):
        print("explain currently supports khop<k> queries (e.g. khop3)",
              file=sys.stderr)
        return 2
    try:
        k = int(name[len("khop"):])
    except ValueError:
        print(f"bad k in {name!r}", file=sys.stderr)
        return 2
    graph = powerlaw_graph(PowerLawConfig("demo", 100, 4.0), seed=1)
    pg = PartitionedGraph.from_graph(graph, 4)
    plan = khop_traversal(k).compile(pg)
    print(plan.describe())
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run a k-hop batch fault-free and under an injected FaultPlan.

    The worked example of docs/FAULTS.md: the same queries are executed
    twice on the same graph — once on a healthy cluster, once with message
    drops (and optionally duplications, delays, and a worker crash) — and
    the rows are compared. Exit code 0 means every faulted query returned
    the fault-free answer.
    """
    import random as _random

    from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
    from repro.graph.partition import PartitionedGraph
    from repro.query.traversal import Traversal
    from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
    from repro.runtime.faults import FaultPlan, WorkerFault

    nodes, wpn = 4, 2
    config = PowerLawConfig("faults-demo", 400, 6.0)
    graph = PartitionedGraph.from_graph(
        powerlaw_graph(config, seed=7), nodes * wpn
    )
    plan = (
        Traversal("khop3_count")
        .v_param("start")
        .khop(config.edge_label, k=3)
        .count()
        .compile(graph)
    )
    rng = _random.Random(42)
    starts = [rng.randrange(config.num_vertices) for _ in range(args.queries)]

    def run_batch(engine_config: EngineConfig):
        engine = AsyncPSTMEngine(graph, nodes, wpn, config=engine_config)
        sessions = [engine.submit(plan, {"start": s}) for s in starts]
        engine.clock.run_until_idle()
        return engine, sessions

    def describe(engine, sessions, label: str) -> None:
        done = sum(1 for s in sessions if s.qmetrics.done and not s.failed)
        mean_lat = sum(s.qmetrics.latency_us for s in sessions) / len(sessions)
        m = engine.metrics
        print(
            f"{label:<11} {done}/{len(sessions)} queries ok, "
            f"mean latency {mean_lat:8.1f} us, {m.packets_sent} packets, "
            f"{m.retransmits} retransmits, {m.query_retries} retries"
        )

    worker_faults = ()
    if args.crash:
        fields = args.crash.split(":")
        if len(fields) not in (2, 3):
            print("--crash expects WID:AT_US[:DOWN_US]", file=sys.stderr)
            return 2
        worker_faults = (
            WorkerFault(
                wid=int(fields[0]),
                at_us=float(fields[1]),
                down_us=float(fields[2]) if len(fields) == 3 else None,
            ),
        )
    fault_plan = FaultPlan(
        seed=args.seed,
        drop_rate=args.drop_rate,
        dup_rate=args.dup_rate,
        delay_rate=args.delay_rate,
        worker_faults=worker_faults,
    )

    base_engine, base = run_batch(EngineConfig())
    describe(base_engine, base, "fault-free")
    faulted_engine, faulted = run_batch(EngineConfig(fault_plan=fault_plan))
    describe(faulted_engine, faulted, "faulted")
    counts = faulted_engine.faults.counts
    print(
        f"injected    drops={counts['drops']} dups={counts['duplicates']} "
        f"delays={counts['delays']} crashes={counts['crashes']} "
        f"stalls={counts['stalls']}"
    )
    identical = all(
        f.results == b.results and not f.failed for f, b in zip(faulted, base)
    )
    print(f"rows identical to fault-free run: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


def cmd_overload(args: argparse.Namespace) -> int:
    """Run the overload soak (open-loop LDBC mix, rising arrival rates)."""
    from repro.bench import overload

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.check:
        forwarded.append("--check")
    if args.unprotected:
        forwarded.append("--unprotected")
    if args.count is not None:
        forwarded.extend(["--count", str(args.count)])
    if args.out:
        forwarded.extend(["--out", args.out])
    return overload.main(forwarded)


def cmd_recovery(args: argparse.Namespace) -> int:
    """Run the recovery bench (crash + force-retry vs checkpoint restore)."""
    from repro.bench import recovery

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.check:
        forwarded.append("--check")
    if args.out:
        forwarded.extend(["--out", args.out])
    return recovery.main(forwarded)


def cmd_preempt(args: argparse.Namespace) -> int:
    """Run the preemption bench (interactive tail latency, pause/resume)."""
    from repro.bench import preempt

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.check:
        forwarded.append("--check")
    if args.out:
        forwarded.extend(["--out", args.out])
    return preempt.main(forwarded)


def cmd_migrate(args: argparse.Namespace) -> int:
    """Run the migration bench (mined live migration vs static hash)."""
    from repro.bench import migration

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.check:
        forwarded.append("--check")
    if args.out:
        forwarded.extend(["--out", args.out])
    return migration.main(forwarded)


def cmd_mixed(args: argparse.Namespace) -> int:
    """Run the mixed bench (IC reads under concurrent SNB updates)."""
    from repro.bench import mixed

    forwarded: List[str] = []
    if args.quick:
        forwarded.append("--quick")
    if args.check:
        forwarded.append("--check")
    if args.out:
        forwarded.extend(["--out", args.out])
    return mixed.main(forwarded)


def _parse_crash(spec: str):
    """``WID:AT_US[:DOWN_US]`` → a WorkerFault tuple (empty spec → ())."""
    from repro.runtime.faults import WorkerFault

    if not spec:
        return ()
    fields = spec.split(":")
    if len(fields) not in (2, 3):
        raise ValueError("crash spec expects WID:AT_US[:DOWN_US]")
    return (
        WorkerFault(
            wid=int(fields[0]),
            at_us=float(fields[1]),
            down_us=float(fields[2]) if len(fields) == 3 else None,
        ),
    )


def _trace_run(recipe: Dict):
    """Execute one traced batch described by a replay recipe dict.

    The recipe is the *complete* input of a traced run — workload, query
    count, engine/fault seed, drop rate, cancel flag, crash spec, and
    checkpoint interval. The simulator is deterministic, so the same
    recipe always produces the same trace, which is what makes
    ``python -m repro trace --replay`` a bit-for-bit check. Returns the
    drained ``(engine, sessions)``.
    """
    import random as _random

    from repro.graph.partition import PartitionedGraph
    from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
    from repro.runtime.faults import FaultPlan

    nodes, wpn = 4, 2
    workload = recipe.get("workload", "khop3")
    queries = int(recipe["queries"])
    rng = _random.Random(42)
    if workload in ("khop3", "two_stage"):
        from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
        from repro.query.traversal import Traversal

        config = PowerLawConfig("trace-demo", 400, 6.0)
        graph = PartitionedGraph.from_graph(
            powerlaw_graph(config, seed=7), nodes * wpn
        )
        if workload == "khop3":
            plan = (
                Traversal("khop3_count")
                .v_param("start")
                .khop(config.edge_label, k=3)
                .count()
                .compile(graph)
            )
        else:
            # Fused, so the k-hop frontier folds into the group_count
            # partial; the barrier is a stage boundary a crash can
            # restore from.
            plan = (
                Traversal("two_stage")
                .v_param("start")
                .khop(config.edge_label, k=2)
                .as_("v")
                .group_count("v")
                .out(config.edge_label)
                .count()
                .compile(graph, fuse=True)
            )
        params = [
            {"start": rng.randrange(config.num_vertices)}
            for _ in range(queries)
        ]
    elif workload == "ic9":
        from repro.ldbc.generator import SNB_TINY, generate_snb
        from repro.ldbc.queries.ic import IC_QUERIES

        dataset = generate_snb(SNB_TINY)
        graph = dataset.partitioned(nodes * wpn)
        qdef = IC_QUERIES[9]
        plan = qdef.build().compile(graph)
        params = [qdef.make_params(dataset, rng) for _ in range(queries)]
    else:
        raise ValueError(f"unknown trace workload {workload!r}")

    worker_faults = _parse_crash(recipe.get("crash") or "")
    drop_rate = float(recipe.get("drop_rate", 0.0))
    fault_plan = None
    if drop_rate > 0 or worker_faults:
        fault_plan = FaultPlan(
            seed=int(recipe["seed"]), drop_rate=drop_rate,
            worker_faults=worker_faults,
        )
    engine = AsyncPSTMEngine(
        graph, nodes, wpn,
        config=EngineConfig(
            trace=True, fault_plan=fault_plan,
            checkpoint_interval_us=recipe.get("checkpoint_interval_us"),
        ),
        seed=int(recipe["seed"]),
    )
    sessions = [engine.submit(plan, p) for p in params]
    if recipe.get("cancel") and sessions:
        engine.clock.schedule_at(
            40.0, lambda: engine.cancel(sessions[0], "caller")
        )
    engine.clock.run_until_idle()
    return engine, sessions


def _cmd_trace_replay(path: str) -> int:
    """Deterministically re-execute a dumped trace and compare bit for bit.

    Reads the JSONL dump, extracts its ``replay_recipe`` record, re-runs
    the exact engine configuration, and compares every regenerated event
    (kind, timestamp, query id, full payload) against the recorded ones.
    The simulator is deterministic, so any mismatch means the runtime's
    behavior changed since the dump — or the dump was edited. Exit 0 =
    identical and the regenerated trace audits clean.
    """
    import json as _json

    from repro.runtime.trace import WeightLedgerAuditor

    recipe = None
    recorded: List[Dict] = []
    with open(path) as fh:
        for line in fh:
            rec = _json.loads(line)
            if rec.get("kind") == "replay_recipe":
                recipe = rec
            elif rec.get("kind") == "run_metrics":
                continue
            else:
                recorded.append(rec)
    if recipe is None:
        print(f"{path}: no replay_recipe record — re-dump it with "
              f"`python -m repro trace --out {path}` first", file=sys.stderr)
        return 2

    engine, _sessions = _trace_run(recipe)
    # Normalize through one JSON round trip so the comparison sees exactly
    # what a dump of the regenerated trace would contain.
    regenerated = [
        _json.loads(_json.dumps(ev.as_dict())) for ev in engine.trace.events
    ]
    print(f"replaying {recipe.get('workload', 'khop3')} "
          f"({recipe['queries']} queries, seed {recipe['seed']}) "
          f"from {path}")
    print(f"recorded events:    {len(recorded)}")
    print(f"regenerated events: {len(regenerated)}")
    identical = regenerated == recorded
    if not identical:
        shown = 0
        for i, (old, new) in enumerate(zip(recorded, regenerated)):
            if old != new:
                print(f"  first divergence at event {i}:")
                print(f"    recorded:    {old}")
                print(f"    regenerated: {new}")
                shown = 1
                break
        if not shown:
            print("  one trace is a prefix of the other")
    report = WeightLedgerAuditor(engine.trace.events).audit()
    print(f"replay {'IDENTICAL' if identical else 'DIVERGED'}; {report}")
    return 0 if identical and report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced batch, audit the trace, and print a summary.

    The worked example of docs/OBSERVABILITY.md: a batch of queries
    (k-hop by default; the fused two-stage plan with ``--workload
    two_stage``; LDBC IC9 with ``--workload ic9``) runs with
    ``EngineConfig.trace`` enabled (optionally under injected faults, a
    worker crash, checkpointing, and a mid-flight cancellation), the
    per-query trace summary and event-kind histogram are printed, and the
    :class:`~repro.runtime.trace.WeightLedgerAuditor` replays the trace to
    re-derive the Theorem-1 ledger. Exit code 0 means zero violations.

    JSONL dumps embed a ``replay_recipe`` record; ``--replay FILE``
    re-executes a dump's recipe and verifies the regenerated trace is
    bit-for-bit identical (docs/OBSERVABILITY.md, docs/RECOVERY.md).
    """
    from repro.runtime.trace import WeightLedgerAuditor

    if args.replay:
        return _cmd_trace_replay(args.replay)
    try:
        _parse_crash(args.crash)
    except ValueError as exc:
        print(f"--crash: {exc}", file=sys.stderr)
        return 2
    recipe = {
        "kind": "replay_recipe",
        "workload": args.workload,
        "queries": args.queries,
        "seed": args.seed,
        "drop_rate": args.drop_rate,
        "cancel": bool(args.cancel),
        "crash": args.crash,
        "checkpoint_interval_us": args.checkpoint_interval,
    }
    engine, sessions = _trace_run(recipe)
    trace = engine.trace

    print(f"{len(trace)} trace events from {len(sessions)} queries")
    kinds: Dict[str, int] = {}
    for ev in trace:
        kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
    for kind in sorted(kinds, key=kinds.get, reverse=True):
        print(f"  {kind:<16} {kinds[kind]:>7}")
    print()
    print(f"{'query':>6} {'events':>7} {'traversers':>10} "
          f"{'spawned':>8} {'cpu_us':>10}")
    for qid, row in sorted(engine.trace.summary().items()):
        if qid < 0:
            continue
        print(f"{qid:>6} {row['events']:>7} {row['traversers']:>10} "
              f"{row['spawned']:>8} {row['cpu_us']:>10.1f}")

    if args.out:
        if args.out.endswith(".json"):
            import json as _json

            with open(args.out, "w") as fh:
                _json.dump(trace.to_chrome_trace(), fh)
            print(f"\nwrote Chrome trace to {args.out} "
                  f"(load in chrome://tracing or Perfetto)")
        else:
            import json as _json

            n = trace.dump_jsonl(args.out, metrics=engine.metrics)
            # Append the replay recipe so the dump is self-reproducing:
            # `python -m repro trace --replay <file>` re-runs it bit for bit.
            with open(args.out, "a") as fh:
                fh.write(_json.dumps(recipe))
                fh.write("\n")
            print(f"\nwrote {n + 1} JSONL records to {args.out} "
                  f"(incl. the replay recipe)")

    report = WeightLedgerAuditor(trace.events).audit()
    print(f"\n{report}")
    for violation in report.violations[:10]:
        print(f"  {violation}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphDance/PSTM reproduction: run paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        fn=cmd_list
    )
    run = sub.add_parser("run", help="run experiments and print tables")
    run.add_argument("experiments", nargs="+", metavar="NAME")
    run.add_argument("--bars", action="store_true",
                     help="also print an ASCII bar chart of the first "
                          "numeric column")
    run.set_defaults(fn=cmd_run)
    sub.add_parser("demo", help="run the Fig 1 quickstart query").set_defaults(
        fn=cmd_demo
    )
    explain = sub.add_parser("explain", help="print a compiled plan")
    explain.add_argument("query", metavar="QUERY", help="e.g. khop3")
    explain.set_defaults(fn=cmd_explain)
    faults = sub.add_parser(
        "faults", help="fault-injection demo: same queries, lossy cluster"
    )
    faults.add_argument("--drop-rate", type=float, default=0.01,
                        help="per-packet drop probability (default 0.01)")
    faults.add_argument("--dup-rate", type=float, default=0.0,
                        help="per-packet duplication probability")
    faults.add_argument("--delay-rate", type=float, default=0.0,
                        help="per-packet delay probability")
    faults.add_argument("--seed", type=int, default=1,
                        help="fault-plan RNG seed (default 1)")
    faults.add_argument("--queries", type=int, default=24,
                        help="k-hop queries per batch (default 24)")
    faults.add_argument("--crash", metavar="WID:AT_US[:DOWN_US]", default="",
                        help="also crash worker WID at AT_US (recovering "
                             "after DOWN_US if given)")
    faults.set_defaults(fn=cmd_faults)
    overload = sub.add_parser(
        "overload",
        help="overload soak: open-loop LDBC mix at rising arrival rates",
    )
    overload.add_argument("--quick", action="store_true",
                          help="CI soak: smaller mix, fewer arrivals")
    overload.add_argument("--check", action="store_true",
                          help="exit nonzero unless degradation gates hold")
    overload.add_argument("--unprotected", action="store_true",
                          help="also soak a default-config engine at the "
                               "top rate")
    overload.add_argument("--count", type=int, default=None,
                          help="arrivals per rate point")
    overload.add_argument("--out", default=None,
                          help="write a JSON report here")
    overload.set_defaults(fn=cmd_overload)
    trace = sub.add_parser(
        "trace",
        help="observability demo: traced batch + weight-ledger audit "
             "+ deterministic replay",
    )
    trace.add_argument("--queries", type=int, default=12,
                       help="queries per batch (default 12)")
    trace.add_argument("--seed", type=int, default=1,
                       help="engine/fault RNG seed (default 1)")
    trace.add_argument("--workload", choices=("khop3", "two_stage", "ic9"),
                       default="khop3",
                       help="traced workload: synthetic 3-hop count, the "
                            "fused two-stage plan (2-hop group_count, "
                            "then one more hop, counted) or LDBC IC9 "
                            "(default khop3)")
    trace.add_argument("--drop-rate", type=float, default=0.0,
                       help="also inject per-packet drops at this rate")
    trace.add_argument("--cancel", action="store_true",
                       help="cancel the first query mid-flight")
    trace.add_argument("--crash", metavar="WID:AT_US[:DOWN_US]", default="",
                       help="also crash worker WID at AT_US (recovering "
                            "after DOWN_US if given)")
    trace.add_argument("--checkpoint-interval", type=float, default=None,
                       metavar="US",
                       help="arm stage-boundary checkpointing at this "
                            "interval (0 = every boundary; see "
                            "docs/RECOVERY.md)")
    trace.add_argument("--out", default=None,
                       help="dump the trace here (.json = Chrome trace "
                            "format, anything else = JSONL with an "
                            "embedded replay recipe)")
    trace.add_argument("--replay", metavar="FILE", default=None,
                       help="re-execute a JSONL dump's recipe and verify "
                            "the regenerated trace is bit-for-bit "
                            "identical (ignores the other options)")
    trace.set_defaults(fn=cmd_trace)
    recovery = sub.add_parser(
        "recovery",
        help="recovery bench: crash + force-retry vs checkpoint restore",
    )
    recovery.add_argument("--quick", action="store_true",
                          help="CI variant: fewer crash points")
    recovery.add_argument("--check", action="store_true",
                          help="exit nonzero unless restore replays "
                               "strictly less work than force-retry")
    recovery.add_argument("--out", default=None,
                          help="write a JSON report here")
    recovery.set_defaults(fn=cmd_recovery)
    preempt = sub.add_parser(
        "preempt",
        help="preemption bench: interactive tail latency with "
             "pause/evict/resume on one slot",
    )
    preempt.add_argument("--quick", action="store_true",
                         help="CI variant: fewer arrivals")
    preempt.add_argument("--check", action="store_true",
                         help="exit nonzero unless preemption strictly "
                              "improves interactive P99 with analytics "
                              "resumed, not shed")
    preempt.add_argument("--out", default=None,
                         help="write a JSON report here")
    preempt.set_defaults(fn=cmd_preempt)
    migrate = sub.add_parser(
        "migrate",
        help="migration bench: mined live vertex migration vs static "
             "hash placement on a Zipf-skewed workload",
    )
    migrate.add_argument("--quick", action="store_true",
                         help="CI variant: fewer queries per wave")
    migrate.add_argument("--check", action="store_true",
                         help="exit nonzero unless migration cuts wave-3 "
                              "traverser messages by >= 25%% with identical "
                              "rows and clean audits on every kernel tier")
    migrate.add_argument("--out", default=None,
                         help="write a JSON report here")
    migrate.set_defaults(fn=cmd_migrate)
    mixed = sub.add_parser(
        "mixed",
        help="mixed bench: IC read latency under concurrent LDBC SNB "
             "update transactions at 0/25/50%% update ratios",
    )
    mixed.add_argument("--quick", action="store_true",
                       help="CI variant: fewer queries per ratio")
    mixed.add_argument("--check", action="store_true",
                       help="exit nonzero unless rows are bit-identical "
                            "across tiers and solo snapshot runs, audits "
                            "are clean, and crash recovery replays the "
                            "version log before traversal restore")
    mixed.add_argument("--out", default=None,
                       help="write a JSON report here")
    mixed.set_defaults(fn=cmd_mixed)
    return parser


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
