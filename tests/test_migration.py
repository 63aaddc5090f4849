"""Live migration: bit-identity, ledger conservation, and composition.

The contract pinned here, across all three kernel tiers (see
docs/PARTITIONING.md):

1. **storage integrity** — ``PartitionedGraph.move_vertices`` relocates
   rows without changing the graph: adjacency, labels, properties,
   total edge counts, and index hits are placement-independent, and
   every store equals what a full rebuild from a global edge map (the
   reference kept in this file) would produce;
2. **bit-identity under traffic** — a query running while the placement
   flips produces exactly the rows of an unmigrated run, completes
   without restarts, and leaves a clean weight-ledger audit (each
   MIGRATE trace event re-asserts Theorem 1 over every open stage);
3. **composition** — migration composes with crash recovery (resharded
   checkpoints restore on the new owners; no record is double-counted),
   with preemption (a flip while a query is paused does not corrupt its
   resume splice), and with fuzzed fault/cancel/preempt interleavings;
4. **mining** — the traffic miner is deterministic, pools evidence into
   one consolidation target per round, and honors its balance cap; the
   migrator defers while a stage-0 broadcast scan is in flight and
   refuses NAIVE_CENTRAL progress tracking outright.

Every test builds a fresh graph: migration mutates partition stores, so
the shared session-scoped fixtures are off limits here.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.progress import ProgressMode
from repro.errors import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRIndex
from repro.graph.partition import (
    EDGE_SHIP_BYTES,
    VERTEX_SHIP_BYTES,
    PartitionedGraph,
)
from repro.graph.property_graph import BOTH, IN, OUT
from repro.ldbc.generator import SNB_TINY, generate_snb
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.lifecycle import QueryState
from repro.runtime.migrate import Migrator, TrafficMiner
from repro.runtime.trace import WeightLedgerAuditor
from repro.runtime.vector import HAVE_NUMPY
from tests.conftest import FAULT_NODES, FAULT_WPN, khop3_count, make_graph

KERNELS = ["scalar", "batch"] + (["vector"] if HAVE_NUMPY else [])

GRAPH_N = 200
NUM_PARTITIONS = FAULT_NODES * FAULT_WPN


def staged_plan(graph):
    return (
        Traversal("staged").v_param("s").khop("e", k=2)
        .as_("a").group_count("a").out("e").count()
    ).compile(graph)


def scan_plan(graph):
    """A broadcast-sourced plan: every partition scans its local list."""
    return Traversal("scan").scan("v").out("e").count().compile(graph)


def make_engine(graph, kernel=None, *, crash_at=None, **cfg):
    fault_plan = None
    if crash_at is not None:
        fault_plan = FaultPlan(worker_faults=(
            WorkerFault(wid=1, at_us=crash_at, down_us=60.0),
        ))
    return AsyncPSTMEngine(
        graph, FAULT_NODES, FAULT_WPN,
        config=EngineConfig(trace=True, kernel=kernel,
                            fault_plan=fault_plan, **cfg),
    )


def arbitrary_moves(graph, seed, k=30):
    """A seeded batch of cross-partition moves (targets never the home)."""
    rng = random.Random(seed)
    placement = graph.partitioner
    moves = {}
    for vid in rng.sample(range(GRAPH_N), k):
        home = placement(vid)
        moves[vid] = (home + rng.randrange(1, NUM_PARTITIONS)) % NUM_PARTITIONS
    return moves


def run_queries(engine, plan, starts, migrate_at=None, moves=None):
    """Submit staggered queries; optionally flip the placement mid-run."""
    sessions = [engine.submit(plan, {"s": s}, at=i * 15.0)
                for i, s in enumerate(starts)]
    migrator = None
    if migrate_at is not None:
        migrator = Migrator(engine)
        engine.clock.schedule_at(
            migrate_at, lambda: migrator.migrate(moves))
    engine.clock.run_until_idle()
    return sessions, migrator


def audit_of(engine):
    return WeightLedgerAuditor(engine.trace.events).audit()


STARTS = [11, 42, 7, 103, 58, 191]


def baseline_rows(kernel=None, plan_fn=khop3_count, starts=STARTS):
    graph = make_graph(3)
    engine = make_engine(graph, kernel)
    sessions, _ = run_queries(engine, plan_fn(graph), starts)
    return [s.results for s in sessions]


class TestStorageMoves:
    def test_move_vertices_preserves_structure(self):
        graph = make_graph(3)
        before_nbrs = {v: sorted(graph.neighbors(v)) for v in range(GRAPH_N)}
        before_labels = {v: graph.vertex_label(v) for v in range(GRAPH_N)}
        before_w = {v: graph.get_vertex_property(v, "weight")
                    for v in range(GRAPH_N)}
        total_edges = graph.cut_stats()["total_edges"]

        moves = arbitrary_moves(graph, seed=5)
        applied, ship_bytes = graph.move_vertices(moves)
        assert applied == moves
        assert ship_bytes > 0

        assert graph.partition_sizes() == [
            s.vertex_count for s in graph.stores]
        assert sum(graph.partition_sizes()) == GRAPH_N
        for vid, target in moves.items():
            assert graph.partition_of(vid) == target
            assert graph.stores[target].owns(vid)
        for v in range(GRAPH_N):
            assert sorted(graph.neighbors(v)) == before_nbrs[v]
            assert graph.vertex_label(v) == before_labels[v]
            assert graph.get_vertex_property(v, "weight") == before_w[v]
        assert graph.cut_stats()["total_edges"] == total_edges

    def test_move_back_restores_placement(self):
        graph = make_graph(3)
        sizes0 = graph.partition_sizes()
        moves = arbitrary_moves(graph, seed=9)
        graph.move_vertices(moves)
        graph.move_vertices({v: graph.partitioner.home(v) for v in moves})
        assert graph.partition_sizes() == sizes0
        assert graph.partitioner.relocations() == {}

    def test_degrees_survive_both_directions(self):
        graph = make_graph(3)
        before = {v: graph.store_of(v).degree(v, BOTH)
                  for v in range(0, GRAPH_N, 7)}
        graph.move_vertices(arbitrary_moves(graph, seed=11))
        for v, deg in before.items():
            assert graph.store_of(v).degree(v, BOTH) == deg


# -- reshard oracle -----------------------------------------------------------


def reference_move(graph, moves):
    """The former full-rebuild reshard, kept only as the oracle here.

    Relocates, merges every store's edge records into one global map, and
    re-derives each affected partition from it in eid order: survivors in
    their old dense order, arrivals appended in vid order, CSR keys OUT
    before IN in order of first appearance. Returns ``(applied,
    ship_bytes)`` like :meth:`PartitionedGraph.move_vertices`.
    """
    placement = graph.partitioner
    old_pid = {vid: placement(vid) for vid in moves}
    applied = placement.relocate(moves)
    if not applied:
        return {}, 0
    ship_bytes = sum(
        VERTEX_SHIP_BYTES
        + EDGE_SHIP_BYTES * graph.stores[old_pid[vid]].degree(vid, BOTH)
        for vid in applied
    )
    edges = {}
    for store in graph.stores:
        edges.update(store._edge_records)
    for pid in sorted({old_pid[v] for v in applied} | set(applied.values())):
        store = graph.stores[pid]
        local = [v for v in store._local_vertices if placement(v) == pid]
        local.extend(sorted(
            v for v, p in applied.items()
            if p == pid and v not in store._local_index
        ))
        index = {vid: i for i, vid in enumerate(local)}
        out_adj, in_adj, records = {}, {}, {}
        for eid in sorted(edges):
            edge = edges[eid]
            if placement(edge.src) == pid:
                out_adj.setdefault(edge.label, {}).setdefault(
                    index[edge.src], []).append((edge.dst, eid))
                records[eid] = edge
            if placement(edge.dst) == pid:
                in_adj.setdefault(edge.label, {}).setdefault(
                    index[edge.dst], []).append((edge.src, eid))
                records[eid] = edge
        store._local_vertices[:] = local
        store._local_index.clear()
        store._local_index.update(index)
        store._csr.clear()
        for direction, adjacency in ((OUT, out_adj), (IN, in_adj)):
            for label, adj in adjacency.items():
                store._csr[(direction, label)] = CSRIndex.from_adjacency(
                    len(local), adj)
        store._edge_records.clear()
        store._edge_records.update(records)
        store._label_index.clear()
        for vid in local:
            store._label_index.setdefault(
                store._vertex_labels[vid], []).append(vid)
        for vertex_label, key in list(store._prop_index):
            store.build_property_index(vertex_label, key)
    return applied, ship_bytes


def store_state(store):
    """Everything a reshard may change, in comparable form."""
    return {
        "local_vertices": list(store._local_vertices),
        "local_index": dict(store._local_index),
        "csr_keys": list(store._csr),
        "csr_arrays": {key: (csr._offsets, csr._targets, csr._edge_ids)
                       for key, csr in store._csr.items()},
        "edge_records": dict(store._edge_records),
        "label_index": {k: list(v) for k, v in store._label_index.items()},
        "prop_index": {k: {val: list(vids) for val, vids in idx.items()}
                       for k, idx in store._prop_index.items()},
    }


def assert_matches_oracle(build, batches):
    """Move ``build()`` incrementally and a twin through the reference;
    after every batch each store must equal its twin exactly."""
    graph, twin = build(), build()
    for moves in batches:
        assert graph.move_vertices(moves) == reference_move(twin, moves)
        assert graph.partitioner.relocations() == twin.partitioner.relocations()
        for got, want in zip(graph.stores, twin.stores):
            assert store_state(got) == store_state(want), f"partition {got.pid}"
    return graph


def seeded_moves(graph, seed, k):
    """``k`` seeded moves to any partition, no-ops included."""
    rng = random.Random(seed)
    vids = rng.sample(sorted(graph._vertex_labels), k)
    return {vid: rng.randrange(graph.num_partitions) for vid in vids}


def home_moves(graph, vids):
    return {vid: graph.partitioner.home(vid) for vid in vids}


def labelled_graph(seed, n=40, partitions=4):
    """A small multi-label graph with self-loops, parallel edges, a rare
    edge label, and a property index on one of two vertex labels."""
    rng = random.Random(seed)
    b = GraphBuilder("p")
    for v in range(n):
        b.vertex(v, "p" if v % 3 else "q", colour=rng.randrange(4))
    for _ in range(4 * n):
        b.edge(rng.randrange(n), rng.randrange(n), rng.choice("aab"))
    b.edge(rng.randrange(n), rng.randrange(n), "rare")
    graph = PartitionedGraph.from_graph(b.build(), partitions)
    graph.create_index("p", "colour")
    return graph


def snb_tiny():
    return generate_snb(SNB_TINY).partitioned(4)


class TestReshardOracle:
    """``move_vertices`` moves only the moved rows; every store must still
    equal what the full rebuild from a global edge map produces."""

    def test_seeded_batches_and_return_home(self):
        graph = make_graph(3)
        batches = [seeded_moves(graph, seed, 30) for seed in range(1, 5)]
        batches.append(home_moves(graph, range(GRAPH_N)))
        moved = assert_matches_oracle(lambda: make_graph(3), batches)
        assert moved.partitioner.relocations() == {}

    def test_multi_label_ldbc_key_order(self):
        graph = snb_tiny()
        # several OUT labels per partition: CSR key order is observable
        assert all(sum(d == OUT for d, _l in s._csr) > 1 for s in graph.stores)
        batches = [seeded_moves(graph, seed, 150) for seed in (21, 22, 23)]
        vids = {v for batch in batches for v in batch}
        batches.append(home_moves(graph, sorted(vids)))
        assert_matches_oracle(snb_tiny, batches)

    def test_both_endpoints_move_in_one_batch(self):
        graph = make_graph(3)
        edge = next(e for e in graph.stores[0]._edge_records.values()
                    if graph.partition_of(e.dst) == 0)
        n = graph.num_partitions
        moves = {edge.src: 1, edge.dst: 2 % n}
        # and a cut edge whose endpoints trade places
        cut = next(e for e in graph.stores[1]._edge_records.values()
                   if graph.partition_of(e.dst) == 3)
        moves.update({cut.src: 3, cut.dst: 1})
        moved = assert_matches_oracle(lambda: make_graph(3), [moves])
        assert edge.eid not in moved.stores[0]._edge_records
        assert cut.eid in moved.stores[1]._edge_records
        assert cut.eid in moved.stores[3]._edge_records

    def test_move_then_back_home(self):
        graph = make_graph(5)
        moves = seeded_moves(graph, 8, 40)
        owned = [sorted(s._local_vertices) for s in graph.stores]
        moved = assert_matches_oracle(
            lambda: make_graph(5), [moves, home_moves(graph, moves)])
        assert [sorted(s._local_vertices) for s in moved.stores] == owned

    def test_noop_move_changes_nothing(self):
        graph = make_graph(3)
        before = [store_state(s) for s in graph.stores]
        stay = {v: graph.partition_of(v) for v in range(0, GRAPH_N, 9)}
        assert graph.move_vertices(stay) == ({}, 0)
        assert [store_state(s) for s in graph.stores] == before

    def test_label_csr_emptied_and_created(self):
        graph = labelled_graph(4)
        rare = next(e for s in graph.stores for e in s._edge_records.values()
                    if e.label == "rare")
        src_pid = graph.partition_of(rare.src)
        target = (src_pid + 1) % graph.num_partitions
        assert (OUT, "rare") in graph.stores[src_pid]._csr
        assert (OUT, "rare") not in graph.stores[target]._csr
        moved = assert_matches_oracle(
            lambda: labelled_graph(4), [{rare.src: target}])
        assert (OUT, "rare") not in moved.stores[src_pid]._csr
        assert (OUT, "rare") in moved.stores[target]._csr

    def test_property_index_follows_moves(self):
        def build():
            graph = make_graph(3)
            graph.create_index("v", "weight")
            return graph

        graph = build()
        moves = seeded_moves(graph, 13, 50)
        moved = assert_matches_oracle(build, [moves])
        for vid, pid in moves.items():
            weight = moved.get_vertex_property(vid, "weight")
            assert vid in moved.stores[pid].index_lookup("v", "weight", weight)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batches=st.lists(
            st.dictionaries(st.integers(0, 39), st.integers(0, 3),
                            max_size=12),
            min_size=1, max_size=4),
    )
    def test_fuzzed_batches_match_oracle(self, seed, batches):
        assert_matches_oracle(lambda: labelled_graph(seed), batches)


class TestMigrateDuringRun:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rows_bit_identical_and_ledger_clean(self, kernel):
        expected = baseline_rows(kernel)
        graph = make_graph(3)
        engine = make_engine(graph, kernel)
        sessions, migrator = run_queries(
            engine, khop3_count(graph), STARTS,
            migrate_at=40.0, moves=arbitrary_moves(graph, seed=5))
        assert [s.results for s in sessions] == expected
        assert all(s.qmetrics.done for s in sessions)
        assert all(s.qmetrics.retries == 0 for s in sessions)
        assert migrator.completed == 1
        report = audit_of(engine)
        assert report.ok, report.violations[:5]
        assert report.migrations == 1
        assert engine.metrics.migrations == 1
        assert engine.metrics.vertices_migrated == 30

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_two_flips_mid_run(self, kernel):
        expected = baseline_rows(kernel)
        graph = make_graph(3)
        engine = make_engine(graph, kernel)
        m1 = arbitrary_moves(graph, seed=5)
        sessions, migrator = run_queries(
            engine, khop3_count(graph), STARTS, migrate_at=30.0, moves=m1)
        # second flip sends some of the first batch somewhere else again
        second = Migrator(engine)
        engine.clock.schedule_at(
            55.0, lambda: second.migrate(arbitrary_moves(graph, seed=6)))
        engine.clock.run_until_idle()
        assert [s.results for s in sessions] == expected
        report = audit_of(engine)
        assert report.ok, report.violations[:5]
        assert report.migrations == 2


class TestMigrateThenCrash:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_restore_lands_on_new_owners(self, kernel):
        """Crash after the flip: stage snapshots were resharded, so the
        restore replays onto the new placement without double-counting."""
        expected = baseline_rows(kernel, staged_plan)
        graph = make_graph(3)
        engine = make_engine(graph, kernel, crash_at=120.0,
                             checkpoint_interval_us=0.0,
                             checkpoint_retention=2)
        sessions, migrator = run_queries(
            engine, staged_plan(graph), STARTS,
            migrate_at=60.0, moves=arbitrary_moves(graph, seed=5))
        assert [s.results for s in sessions] == expected
        assert all(s.qmetrics.done for s in sessions)
        assert migrator.completed == 1
        report = audit_of(engine)
        assert report.ok, report.violations[:5]
        assert report.migrations == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_then_migrate_while_down(self, kernel):
        """The flip lands while a worker is down; arrivals for moved
        vertices forward to the new owners once traffic resumes."""
        expected = baseline_rows(kernel, staged_plan)
        graph = make_graph(3)
        engine = make_engine(graph, kernel, crash_at=40.0,
                             checkpoint_interval_us=0.0,
                             checkpoint_retention=2)
        sessions, migrator = run_queries(
            engine, staged_plan(graph), STARTS,
            migrate_at=70.0, moves=arbitrary_moves(graph, seed=8))
        assert [s.results for s in sessions] == expected
        report = audit_of(engine)
        assert report.ok, report.violations[:5]
        assert report.migrations == 1


class TestMigrateVsPreempt:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_flip_while_paused_then_resume(self, kernel):
        expected = baseline_rows(kernel, staged_plan, starts=[11])
        graph = make_graph(3)
        engine = make_engine(graph, kernel,
                             checkpoint_interval_us=0.0,
                             checkpoint_retention=2)
        session = engine.submit(staged_plan(graph), {"s": 11}, at=0.0)
        migrator = Migrator(engine)
        engine.clock.schedule_at(60.0, lambda: engine.preempt(session))
        engine.clock.schedule_at(
            90.0,
            lambda: migrator.migrate(arbitrary_moves(graph, seed=5)))
        engine.clock.schedule_at(300.0, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        assert session.lifecycle.state is not QueryState.PAUSED
        assert [session.results] == expected
        assert migrator.completed == 1
        report = audit_of(engine)
        assert report.ok, report.violations[:5]
        assert report.migrations == 1


class TestMigratorPolicy:
    def test_refuses_naive_central(self):
        graph = make_graph(3)
        engine = AsyncPSTMEngine(
            graph, FAULT_NODES, FAULT_WPN,
            config=EngineConfig(
                progress_mode=ProgressMode.NAIVE_CENTRAL))
        with pytest.raises(ExecutionError):
            Migrator(engine)

    def test_defers_past_broadcast_scan(self):
        graph = make_graph(3)
        engine = make_engine(graph)
        session = engine.submit(scan_plan(graph), {}, at=0.0)
        migrator = Migrator(engine, defer_us=20.0)
        engine.clock.schedule_at(
            1.0, lambda: migrator.migrate(arbitrary_moves(graph, seed=5)))
        engine.clock.run_until_idle()
        assert migrator.deferred >= 1      # the scan blocked the flip
        assert migrator.completed == 1     # ... but it landed afterwards
        assert session.qmetrics.done
        report = audit_of(engine)
        assert report.ok, report.violations[:5]

    def test_empty_batch_is_a_noop_report(self):
        graph = make_graph(3)
        migrator = Migrator(make_engine(graph))
        assert migrator.migrate({})["vertices"] == 0


class TestTrafficMiner:
    def _seeded_miner(self, counts):
        graph = make_graph(3)
        engine = make_engine(graph)
        miner = TrafficMiner(engine)
        miner.counts = counts
        return graph, miner

    def test_mine_is_deterministic(self):
        counts = {v: {v % NUM_PARTITIONS: 5, (v + 1) % NUM_PARTITIONS: 2}
                  for v in range(0, GRAPH_N, 3)}
        _, m1 = self._seeded_miner(dict(counts))
        _, m2 = self._seeded_miner(dict(counts))
        assert m1.mine(top_k=16) == m2.mine(top_k=16)

    def test_mine_pools_one_target_per_round(self):
        graph, miner = self._seeded_miner({})
        placement = graph.partitioner
        hot, cold = 0, 1
        victims = [v for v in range(GRAPH_N)
                   if placement(v) not in (hot,)][:12]
        counts = {}
        for v in victims:
            counts[v] = {hot: 10}
        # one vertex also pulled (harder!) toward the cold partition:
        # pooled evidence must still send every move to the hot target
        counts[victims[0]] = {hot: 10, cold: 12}
        miner.counts = counts
        moves = miner.mine(top_k=32, min_gain=1, balance_slack=2.0,
                           dominance=1.0)
        assert moves
        assert set(moves.values()) == {hot}
        assert victims[0] not in moves     # dominance guard: cold outpulls

    def test_mine_honors_balance_cap(self):
        graph, miner = self._seeded_miner({})
        placement = graph.partitioner
        target = 0
        miner.counts = {v: {target: 50} for v in range(GRAPH_N)
                        if placement(v) != target}
        moves = miner.mine(top_k=GRAPH_N, min_gain=1, balance_slack=0.10)
        cap = int(GRAPH_N / NUM_PARTITIONS * 1.10) + 1
        assert len(moves) + graph.partition_sizes()[target] <= cap

    def test_live_counts_only_remote_placement_routed(self):
        """Attached to a real run, the miner sees only remote-bound,
        vertex-routed traversers — and mining them is reproducible."""
        graph = make_graph(3)
        engine = make_engine(graph)
        miner = TrafficMiner(engine)
        miner.attach()
        sessions, _ = run_queries(engine, khop3_count(graph), STARTS)
        assert all(s.qmetrics.done for s in sessions)
        assert miner.counts, "a 3-hop run must cross partitions"
        placement = graph.partitioner
        for vid, per in miner.counts.items():
            assert 0 <= vid < GRAPH_N
            for pid in per:
                assert pid != placement(vid) or True  # sources may be any pid
        miner.detach()
        assert all(w.miner is None for w in engine.workers)


class TestFuzzedMigration:
    """Randomized migrate/fault/cancel/preempt interleavings; every seed
    must leave a clean ledger, and queries that complete must produce the
    rows of an unmigrated run."""

    def _fuzz(self, seed, kernel, migrate=True):
        rng = random.Random(seed)
        graph = make_graph(seed)
        plan = khop3_count(graph)
        staged = staged_plan(graph)
        fault_plan = FaultPlan(
            seed=seed,
            drop_rate=rng.uniform(0.0, 0.05),
            dup_rate=rng.uniform(0.0, 0.04),
            delay_rate=rng.uniform(0.0, 0.05),
        )
        engine = AsyncPSTMEngine(
            graph, FAULT_NODES, FAULT_WPN,
            config=EngineConfig(trace=True, kernel=kernel,
                                fault_plan=fault_plan,
                                checkpoint_interval_us=0.0,
                                checkpoint_retention=2))
        fates = []
        sessions = []
        for i in range(8):
            at = rng.uniform(0.0, 150.0)
            fate = rng.random()
            if fate < 0.2:
                s = engine.submit(staged, {"s": rng.randrange(GRAPH_N)},
                                  at=at)
                t_pause = at + rng.uniform(5.0, 100.0)
                engine.clock.schedule_at(
                    t_pause, lambda s=s: engine.preempt(s))
                engine.clock.schedule_at(
                    t_pause + rng.uniform(150.0, 400.0),
                    lambda s=s: engine.resume(s))
                fates.append("preempt")
            elif fate < 0.35:
                s = engine.submit(plan, {"s": rng.randrange(GRAPH_N)}, at=at)
                engine.clock.schedule_at(
                    at + rng.uniform(5.0, 100.0),
                    lambda s=s: engine.cancel(s))
                fates.append("cancel")
            else:
                s = engine.submit(plan, {"s": rng.randrange(GRAPH_N)}, at=at)
                fates.append("run")
            sessions.append(s)
        migrators = []
        if migrate:
            for j in range(rng.randrange(1, 3)):
                migrator = Migrator(engine)
                migrators.append(migrator)
                moves = arbitrary_moves(graph, seed * 31 + j,
                                        k=rng.randrange(5, 40))
                engine.clock.schedule_at(
                    rng.uniform(20.0, 250.0),
                    lambda m=migrator, mv=moves: m.migrate(mv))
        engine.clock.run_until_idle()
        for _ in range(4):
            paused = [s for s in sessions
                      if s.lifecycle.state is QueryState.PAUSED]
            if not paused:
                break
            for s in paused:
                engine.resume(s)
            engine.clock.run_until_idle()
        return engine, sessions, fates, migrators

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(200, 206))
    def test_ledger_and_rows_survive_fuzz(self, seed, kernel):
        engine, sessions, fates, migrators = self._fuzz(seed, kernel)
        report = audit_of(engine)
        assert report.ok, f"seed {seed}: {report.violations[:5]}"
        assert report.migrations == sum(m.completed for m in migrators)
        # completed queries match an unmigrated, fault-free replay
        base_engine, base_sessions, _, _ = self._fuzz(
            seed, kernel, migrate=False)
        assert audit_of(base_engine).ok
        for s, b, fate in zip(sessions, base_sessions, fates):
            if fate != "cancel" and s.qmetrics.done and b.qmetrics.done:
                assert s.results == b.results, f"seed {seed}"

    @pytest.mark.slow
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(206, 218))
    def test_extended_soak_seeds(self, seed, kernel):
        engine, sessions, fates, migrators = self._fuzz(seed, kernel)
        report = audit_of(engine)
        assert report.ok, f"seed {seed}: {report.violations[:5]}"
