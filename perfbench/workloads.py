"""The benchmark's three workloads: ``khop``, ``snb-mixed``, ``skew-churn``.

Each workload splits into a *set-up* (dataset generation, partitioning,
plan compilation, engine build — timed as ``setup_s``), a list of *legs*
made from the workload seed, a timed simulation per leg, and an untimed
output check per leg. Everything the program sees is generated here from
the seed; the program itself is only driven through its public API.

Legs are independent engine runs over fresh inputs. Simulated metrics pool
the samples of every leg, so they are an exact function of the seed and
the leg count; wall metrics sum the legs' timed regions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.datasets import synthetic
from repro.graph.partition import PartitionedGraph
from repro.graph.property_graph import OUT
from repro.ldbc import generator
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.short import IS_QUERIES
from repro.ldbc.workload import WorkloadConfig, build_schedule, run_mixed_workload
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.lifecycle import QueryState
from repro.runtime.migrate import Migrator, TrafficMiner
from repro.runtime.reference import LocalExecutor

from benchstats import timed

#: graph seed of the LiveJournal-like power-law graph (the bench suite's)
LJ_GRAPH_SEED = 13
#: engine seed (session RNG streams); fixed so only the workload seed varies
ENGINE_SEED = 7


@dataclass
class Leg:
    """What one timed leg did, in both clocks."""

    wall_s: float
    cpu_s: float
    #: simulated span of the leg (µs)
    span_us: float
    reads_attempted: int
    #: simulated latency of every read that completed, in submission order
    read_latencies_us: List[float]
    #: reads that did not complete: failed, refused, timed out or dropped
    reads_failed: int
    updates_attempted: int = 0
    updates_committed: int = 0
    #: indices (into ``read_latencies_us``) of the reads whose rows differ
    #: from the reference executor (set by the check)
    mismatched: List[int] = field(default_factory=list)
    #: result rows of every completed read, in submission order
    rows: List[Any] = field(default_factory=list)
    #: (plan, params, rows, reference key) of each completed read
    checks: List[Tuple[Any, Dict[str, Any], Any, Any]] = field(default_factory=list)
    engine: Optional[AsyncPSTMEngine] = None
    #: workload-specific facts (e.g. layers a workload must fire)
    notes: Dict[str, Any] = field(default_factory=dict)

    @property
    def mismatches(self) -> int:
        return len(self.mismatched)

    def late_reads(self, limit_us: float) -> int:
        """Completed reads over ``limit_us`` whose rows matched the
        reference; a mismatched read already counts as unserved."""
        bad = set(self.mismatched)
        return sum(1 for i, v in enumerate(self.read_latencies_us)
                   if v > limit_us and i not in bad)

    @property
    def ops(self) -> int:
        """Completed operations: reads plus committed updates."""
        return len(self.read_latencies_us) + self.updates_committed

    @property
    def attempted(self) -> int:
        return self.reads_attempted + self.updates_attempted

    @property
    def failed(self) -> int:
        return (self.reads_failed + self.mismatches
                + self.updates_attempted - self.updates_committed)

    def fingerprint(self) -> Tuple[Any, ...]:
        """Everything simulated: equal fingerprints mean equal runs."""
        return (self.span_us, tuple(self.read_latencies_us), self.reads_failed,
                self.updates_committed, repr(self.rows))


def _sessions_in_order(engine: AsyncPSTMEngine) -> List[Any]:
    """Every session the engine saw, in submission order.

    Recovery re-keys a session under a fresh query id; its metrics keep
    the id it was submitted under, which is what orders them here."""
    seen: Dict[int, Any] = {}
    for session in list(engine.completed.values()) + list(engine.sessions.values()):
        seen.setdefault(id(session), session)
    return sorted(seen.values(), key=lambda s: s.qmetrics.query_id)


def _collect_reads(leg: Leg, sessions: List[Any], ref_key) -> None:
    """Fill a leg's read latencies, failures, rows and check list."""
    for s in sessions:
        if s.lifecycle.state is QueryState.DONE:
            leg.read_latencies_us.append(s.qmetrics.latency_us)
            leg.rows.append(s.results)
            leg.checks.append((s.plan, s.params, s.results, ref_key(s)))
        else:
            leg.reads_failed += 1


def _check(leg: Leg, executor_for) -> int:
    """Compare every completed read with the reference executor.

    ``executor_for(key)`` returns the reference run for a read's key; runs
    of identical (plan, params, key) are computed once."""
    cache: Dict[Any, Any] = {}
    leg.mismatched = []
    for i, (plan, params, rows, key) in enumerate(leg.checks):
        memo_key = (plan.name, tuple(sorted(params.items())), key)
        if memo_key not in cache:
            cache[memo_key] = executor_for(key).run(plan, params)
        if cache[memo_key] != rows:
            leg.mismatched.append(i)
    return leg.mismatches


def two_hop_reach(raw) -> List[int]:
    """Per vertex, the summed out-degree of its out-neighbours: a cheap
    proxy of how far a traversal from it spreads, used to stratify starts."""
    degree = [raw.degree(v, OUT) for v in range(raw.vertex_count)]
    return [sum(degree[u] for u in raw.out_neighbors(v))
            for v in range(raw.vertex_count)]


# -- khop ------------------------------------------------------------------------


def khop_count_traversal(k: int) -> Traversal:
    """k-hop neighbourhood size."""
    return Traversal(f"khop{k}_count").v_param("start").khop("knows", k=k).count()


def fig1_traversal(k: int) -> Traversal:
    """The paper's Fig 1 query: top-10 heaviest vertices within k hops."""
    return (
        Traversal(f"khop{k}_fig1")
        .v_param("start")
        .khop("knows", k=k)
        .filter_(X.vertex().neq(X.param("start")))
        .values("w", "weight")
        .as_("vid")
        .select("vid", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("vid"), "asc"))
        .limit(10)
    )


class Khop:
    """Closed loop of 3-hop analytics from uniform random starts.

    Four simulated clients each keep one query in flight, alternating the
    3-hop count and the Fig 1 top-10 query, on the LiveJournal-like graph
    over a 4×4 cluster (auto kernel tier, fused plans). Starts are a
    stratified uniform sample: vertices are ordered by the summed
    out-degree of their out-neighbours (a cheap proxy of 3-hop reach) and
    every stratum contributes one start per plan, so the mix of light and
    heavy queries is the same for every seed while the vertices differ.
    """

    name = "khop"
    nodes, workers_per_node = 4, 4
    clients = 4
    queries_per_leg = 64

    def setup(self) -> Dict[str, Any]:
        raw = synthetic.powerlaw_graph(synthetic.LIVEJOURNAL_LIKE, seed=LJ_GRAPH_SEED)
        graph = PartitionedGraph.from_graph(raw, self.nodes * self.workers_per_node)
        plans = (khop_count_traversal(3).compile(graph, fuse=True),
                 fig1_traversal(3).compile(graph, fuse=True))
        self.engine(graph)  # set-up includes one engine build
        return {"raw": raw, "graph": graph, "plans": plans}

    def engine(self, graph: PartitionedGraph) -> AsyncPSTMEngine:
        return AsyncPSTMEngine(graph, self.nodes, self.workers_per_node,
                               config=EngineConfig(), seed=ENGINE_SEED)

    def legs(self, ctx, seed: int, n_legs: int, scale: float) -> List[Any]:
        n = ctx["raw"].vertex_count
        reach = two_hop_reach(ctx["raw"])
        order = sorted(range(n), key=lambda v: (reach[v], v))
        rng = random.Random(seed)
        # One stratum per (count, fig1) pair of the whole run, dealt to
        # the legs in turn, so every leg spans the full range of reach.
        strata = n_legs * max(1, round(self.queries_per_leg * scale / 2))
        legs: List[List[Tuple[int, int]]] = [[] for _ in range(n_legs)]
        for i in range(strata):
            lo, hi = i * n // strata, (i + 1) * n // strata
            count_start, fig1_start = rng.sample(order[lo:hi], 2)
            legs[i % n_legs] += [(0, count_start), (1, fig1_start)]
        for queries in legs:
            rng.shuffle(queries)
        return legs

    def prepare(self, ctx, queries) -> Any:
        return queries

    def run_leg(self, ctx, queries) -> Leg:
        engine = self.engine(ctx["graph"])
        plans = ctx["plans"]
        pending = list(reversed(queries))

        def issue(_session=None) -> None:
            if pending:
                plan_idx, start = pending.pop()
                engine.submit(plans[plan_idx], {"start": start}, on_done=issue)

        def loop() -> None:
            for _ in range(min(self.clients, len(pending))):
                issue()
            engine.clock.run_until_idle()

        _, wall, cpu = timed(loop)
        leg = Leg(wall, cpu, engine.clock.now, len(queries), [], 0, engine=engine)
        _collect_reads(leg, _sessions_in_order(engine), lambda s: None)
        return leg

    def check_leg(self, ctx, leg: Leg) -> int:
        executor = LocalExecutor(ctx["graph"])
        return _check(leg, lambda _key: executor)


# -- snb-mixed ---------------------------------------------------------------------


class SnbMixed:
    """Open-loop LDBC SNB interactive mix with concurrent update transactions.

    IC1–14 and IS1–7 reads plus UP1–8 updates (about 20 % of operations)
    arrive as Poisson streams in simulated time, replayed by
    ``ldbc.workload.run_mixed_workload`` on a transactional engine
    (``transactions=True``) over the sf300-sim dataset and a 4×4 cluster.
    Set-up compiles the 21 read plans once, as the other workloads do.
    The workload driver compiles them again inside each timed leg, while
    it builds the leg's schedule; ``prepare`` times that same build, and
    the leg's notes carry it as ``schedule_build_s``.
    """

    name = "snb-mixed"
    nodes, workers_per_node = 4, 4
    #: time compression ratio: offered load is 1/TCR times the LDBC rates
    tcr = 0.015
    #: simulated seconds of arrivals per leg
    leg_duration_s = 0.06

    def setup(self) -> Dict[str, Any]:
        dataset = generator.generate_snb(generator.SNB_SF300_SIM)
        graph = dataset.partitioned(self.nodes * self.workers_per_node)
        # Set-up includes the 21 plan compiles; the workload driver
        # compiles its own copies in each leg.
        config = WorkloadConfig()
        for n in config.include_ic:
            IC_QUERIES[n].build().compile(graph)
        for n in config.include_is:
            IS_QUERIES[n].build().compile(graph)
        self.engine(graph)  # set-up includes one engine build
        return {"dataset": dataset, "graph": graph}

    def engine(self, graph: PartitionedGraph) -> AsyncPSTMEngine:
        return AsyncPSTMEngine(graph, self.nodes, self.workers_per_node,
                               config=EngineConfig(transactions=True),
                               seed=ENGINE_SEED)

    def legs(self, ctx, seed: int, n_legs: int, scale: float) -> List[Any]:
        rng = random.Random(seed)
        return [WorkloadConfig(tcr=self.tcr,
                               duration_s=self.leg_duration_s * scale,
                               seed=rng.randrange(1 << 31))
                for _ in range(n_legs)]

    def prepare(self, ctx, config: WorkloadConfig) -> Tuple[WorkloadConfig, int, int, float]:
        """The leg's config with its scheduled read and update counts, and
        the wall seconds building the schedule took: the driver rebuilds
        the same schedule inside the timed leg."""
        schedule, build_s, _cpu = timed(
            lambda: build_schedule(ctx["dataset"], ctx["graph"], config))
        reads = sum(1 for a in schedule if a.plan is not None)
        return config, reads, len(schedule) - reads, build_s

    def run_leg(self, ctx, prepared) -> Leg:
        config, reads, updates, build_s = prepared
        dataset = ctx["dataset"]
        engine = self.engine(ctx["graph"])
        _, wall, cpu = timed(lambda: run_mixed_workload(engine, dataset, config))
        sessions = _sessions_in_order(engine)
        plane = engine.txnplane
        # Past its overload cap the driver stops submitting without
        # saying how often; every arrival it never submitted is failed.
        leg = Leg(wall, cpu, engine.clock.now, reads, [], reads - len(sessions),
                  updates_attempted=updates,
                  updates_committed=plane.updates_applied, engine=engine)
        _collect_reads(leg, sessions, lambda s: s.snapshot_ts)
        leg.notes.update(dropped_reads=reads - len(sessions),
                         txn_aborts=engine.metrics.txn_aborts,
                         schedule_build_s=build_s)
        return leg

    def check_leg(self, ctx, leg: Leg) -> int:
        plane = leg.engine.txnplane
        executors: Dict[int, LocalExecutor] = {}

        def executor_for(ts: int) -> LocalExecutor:
            if ts not in executors:
                executors[ts] = LocalExecutor(plane.snapshot_graph(ts))
            return executors[ts]

        return _check(leg, executor_for)


# -- skew-churn ----------------------------------------------------------------------


def khop2_count_traversal() -> Traversal:
    return Traversal("khop2_count").v_param("start").khop("knows", k=2).count()


def two_stage_traversal() -> Traversal:
    """2-hop expansion grouped per vertex, then one more hop, counted.

    The ``group_count`` barrier is a stage boundary, so a crash after it
    can restore from a checkpoint (single-stage plans never can)."""
    return (
        Traversal("two_stage")
        .v_param("start")
        .khop("knows", k=2)
        .as_("v")
        .group_count("v")
        .out("knows")
        .count()
    )


@dataclass
class ChurnLeg:
    """Inputs of one skew-churn leg."""

    arrivals: List[Tuple[float, int, int]]   # (at µs, plan index, root)
    wave_starts: List[float]
    wave_span_us: float
    fault_seed: int
    crash_wids: List[int]
    crash_offsets: List[float]                # fraction of a wave's span


class SkewChurn:
    """Three open-loop waves of Zipf-skewed hot-root traversals under churn.

    Each wave mixes a 2-hop count with a two-stage plan from a handful of
    hot roots on the LiveJournal-like graph (2×2 cluster), arriving at
    jittered intervals. A traffic miner watches from the start; a mined
    batch migrates live in the middle of wave 2 and a second batch just
    before wave 3. Checkpoints are taken at every stage boundary, a seeded
    fault plan drops a small share of packets, and workers crash: twice in
    wave 1 at instants a probe of the leg picks so that one crash restores
    a checkpoint and the other force-retries, and once at a seeded instant
    in wave 2, around the live migration.
    """

    name = "skew-churn"
    nodes, workers_per_node = 2, 2
    hot_roots = 8
    #: hot roots are drawn from these ranks of two-hop reach
    root_ranks = (32, 96)
    zipf_s = 1.1
    waves = 3
    queries_per_wave = 24
    #: share of each wave running the two-stage plan (the rest: 2-hop count)
    two_stage_share = 1 / 3
    mean_spacing_us = 2000.0
    wave_gap_us = 6000.0
    drop_rate = 0.01
    crash_down_us = 200.0
    #: waves that also crash a worker at a seeded instant (wave 2 crashes
    #: around its live migration)
    crash_waves = (1,)
    #: miner settings of the placement bench (two rounds: ring, then shell)
    mine = dict(top_k=128, min_gain=2, balance_slack=1.20, dominance=1.5)

    def setup(self) -> Dict[str, Any]:
        raw = synthetic.powerlaw_graph(synthetic.LIVEJOURNAL_LIKE, seed=LJ_GRAPH_SEED)
        graph, _plans = self._partition(raw)
        # Set-up includes one engine build; legs build their own.
        AsyncPSTMEngine(graph, self.nodes, self.workers_per_node,
                        config=self._config(0, ()), seed=ENGINE_SEED)
        return {"raw": raw}

    def _partition(self, raw) -> Tuple[PartitionedGraph, Tuple[Any, Any]]:
        graph = PartitionedGraph.from_graph(raw, self.nodes * self.workers_per_node)
        plans = (khop2_count_traversal().compile(graph, fuse=True),
                 two_stage_traversal().compile(graph, fuse=True))
        return graph, plans

    def _config(self, fault_seed: int, crashes: Tuple[WorkerFault, ...]) -> EngineConfig:
        plan = FaultPlan(seed=fault_seed, drop_rate=self.drop_rate,
                         worker_faults=crashes)
        return EngineConfig(fault_plan=plan, checkpoint_interval_us=0.0)

    def legs(self, ctx, seed: int, n_legs: int, scale: float) -> List[ChurnLeg]:
        reach = two_hop_reach(ctx["raw"])
        ranked = sorted(range(ctx["raw"].vertex_count),
                        key=lambda v: (-reach[v], v))
        pool = ranked[self.root_ranks[0]:self.root_ranks[1]]
        weights = [1.0 / (i + 1) ** self.zipf_s for i in range(self.hot_roots)]
        per_wave = max(2, round(self.queries_per_wave * scale))
        span = per_wave * self.mean_spacing_us
        period = span + self.wave_gap_us
        rng = random.Random(seed)
        legs = []
        # One root per band of the pool, hottest band most popular: the
        # roots differ per seed, their degree profile does not.
        band = len(pool) // self.hot_roots
        for _ in range(n_legs):
            roots = [rng.choice(pool[i * band:(i + 1) * band])
                     for i in range(self.hot_roots)]
            arrivals = []
            starts = [w * period for w in range(self.waves)]
            two_stage = max(1, round(per_wave * self.two_stage_share))
            for start in starts:
                # A fixed share of two-stage queries per wave, in seeded
                # order: the two plans' latencies form separate modes, and
                # a share that drifted with the seed would move the median
                # from one mode to the other.
                kinds = [1] * two_stage + [0] * (per_wave - two_stage)
                rng.shuffle(kinds)
                t = start
                for kind in kinds:
                    t += self.mean_spacing_us * rng.uniform(0.5, 1.5)
                    root = rng.choices(roots, weights)[0]
                    arrivals.append((t, kind, root))
            legs.append(ChurnLeg(
                arrivals, starts, span, rng.randrange(1 << 31),
                [rng.randrange(self.nodes * self.workers_per_node)
                 for _ in range(self.waves)],
                [rng.uniform(0.3, 0.7) for _ in range(self.waves)],
            ))
        return legs

    def _engine(self, graph, leg: ChurnLeg, crashes) -> AsyncPSTMEngine:
        return AsyncPSTMEngine(graph, self.nodes, self.workers_per_node,
                               config=self._config(leg.fault_seed, crashes),
                               seed=ENGINE_SEED)

    def prepare(self, ctx, leg: ChurnLeg) -> Dict[str, Any]:
        """A fresh partitioned graph (live migration rewrites placement)
        and the leg's crash schedule."""
        graph, plans = self._partition(ctx["raw"])
        crashes = self._probe_crashes(graph, plans, leg)
        for w in self.crash_waves:
            crashes.append(WorkerFault(
                wid=leg.crash_wids[w],
                at_us=leg.wave_starts[w] + leg.crash_offsets[w] * leg.wave_span_us,
                down_us=self.crash_down_us))
        return {"leg": leg, "graph": graph, "plans": plans, "crashes": tuple(crashes)}

    def _probe_crashes(self, graph, plans, leg: ChurnLeg) -> List[WorkerFault]:
        """Two wave-1 crashes: one that must restore, one that must retry.

        A probe engine runs the leg with no worker faults and samples its
        state on a fine grid. The first crash goes to the first instant at
        which some worker holds a query with a checkpoint; it is injected
        into the probe right there, exactly as the fault plan will inject
        it. The second goes to the first later instant, once that worker is
        back, at which some worker holds a query with no checkpoint yet.
        Up to each crash the faulted run replays the probe event for event,
        so both hit the same queries. The probe stops before any migration.
        Missing instants fall back to the seeded wave-1 offset.
        """
        engine = self._engine(graph, leg, ())
        TrafficMiner(engine).attach()
        for at, plan_idx, root in leg.arrivals:
            engine.submit(plans[plan_idx], {"start": root}, at=at)
        start, span = leg.wave_starts[0], leg.wave_span_us
        first = leg.crash_wids[0]
        order = [first] + [w for w in range(len(engine.workers)) if w != first]
        crashes: List[WorkerFault] = []
        ready = [start + 0.1 * span]

        def holds(worker, checkpointed: bool) -> bool:
            held = set(worker.runtime.memo_store.active_queries())
            held |= worker.resident_queries()
            latest = engine.checkpoints.latest
            return any(q in engine.sessions
                       and (latest(q) is not None) == checkpointed for q in held)

        def sample() -> None:
            now = engine.clock.now
            if len(crashes) == 2 or now < ready[0]:
                return
            for wid in order:
                if holds(engine.workers[wid], checkpointed=not crashes):
                    fault = WorkerFault(wid=wid, at_us=now, down_us=self.crash_down_us)
                    crashes.append(fault)
                    engine.recovery.inject_worker_fault(fault)
                    ready[0] = now + self.crash_down_us
                    return

        # The odd step keeps samples off the instants events run at.
        t = start + 0.1 * span
        while t < start + span:
            engine.clock.schedule_at(t, sample)
            t += 7.31
        clock = engine.clock
        while len(crashes) < 2 and clock.pending and clock.now < start + span:
            clock.step()
        at = start + leg.crash_offsets[0] * span
        while len(crashes) < 2:
            if crashes:
                at = crashes[-1].at_us + 2 * self.crash_down_us
            crashes.append(WorkerFault(wid=first, at_us=at, down_us=self.crash_down_us))
        return crashes

    def run_leg(self, ctx, prepared: Dict[str, Any]) -> Leg:
        leg, graph, plans = prepared["leg"], prepared["graph"], prepared["plans"]
        engine = self._engine(graph, leg, prepared["crashes"])
        miner = TrafficMiner(engine)
        miner.attach()
        migrator = Migrator(engine)

        def mine_and_migrate() -> None:
            moves = miner.mine(**self.mine)
            miner.reset()
            migrator.migrate(moves)

        def run() -> None:
            for at, plan_idx, root in leg.arrivals:
                engine.submit(plans[plan_idx], {"start": root}, at=at)
            clock.schedule_at(leg.wave_starts[1] + leg.wave_span_us / 2,
                              mine_and_migrate)
            clock.schedule_at(leg.wave_starts[2] - 1.0, mine_and_migrate)
            clock.run_until_idle()

        clock = engine.clock
        _, wall, cpu = timed(run)
        out = Leg(wall, cpu, clock.now, len(leg.arrivals), [], 0, engine=engine)
        _collect_reads(out, _sessions_in_order(engine), lambda s: None)
        m = engine.metrics
        out.notes.update(migrations=m.migrations, restores=m.checkpoint_restores,
                         fallbacks=m.checkpoint_fallbacks, retransmits=m.retransmits)
        return out

    def check_leg(self, ctx, leg: Leg) -> int:
        executor = LocalExecutor(leg.engine.graph)
        return _check(leg, lambda _key: executor)

    @staticmethod
    def unfired(notes: List[Dict[str, Any]]) -> List[str]:
        """Layers this workload exists to fire that no leg fired."""
        keys = ("migrations", "restores", "fallbacks", "retransmits")
        return [k for k in keys if sum(n.get(k, 0) for n in notes) < 1]


WORKLOADS = {w.name: w for w in (Khop(), SnbMixed(), SkewChurn())}
