"""Fault injection & recovery: the chaos suite (docs/FAULTS.md).

Three layers of guarantees are pinned here:

1. **equivalence** — with no :class:`FaultPlan` configured (and even with an
   armed all-zero plan) the engine's simulated output is bit-for-bit
   identical to the fault-free engine: same rows, same latency, same packet
   counts;
2. **masking** — injected drops, duplicates, delays and recoverable worker
   crashes never change query *answers*; the ack/retransmit layer and the
   crash-retry path only cost simulated time;
3. **bounded recovery** — a query whose data is permanently unreachable
   fails loudly with :class:`RetryBudgetExceededError`, never silently.

All chaos runs are seeded and therefore exactly reproducible; the seeds
used below were chosen so every scenario actually injects faults.
"""

import random

import pytest

from repro.errors import ConfigurationError, RetryBudgetExceededError
from repro.core.progress import ProgressMode
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import (
    CRASH,
    STALL,
    FaultInjector,
    FaultPlan,
    WorkerFault,
)
from tests.conftest import khop3_count, make_graph, run_batch, run_one

NODES, WPN = 2, 2


# -- plan validation --------------------------------------------------------


class TestValidation:
    def test_rates_must_be_probabilities(self):
        for field in ("drop_rate", "dup_rate", "delay_rate", "ack_drop_rate"):
            with pytest.raises(ConfigurationError):
                FaultPlan(**{field: 1.0})
            with pytest.raises(ConfigurationError):
                FaultPlan(**{field: -0.1})

    def test_worker_fault_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerFault(wid=0, at_us=-1.0)
        with pytest.raises(ConfigurationError):
            WorkerFault(wid=0, at_us=0.0, kind="explode")
        with pytest.raises(ConfigurationError):
            WorkerFault(wid=0, at_us=0.0, down_us=0.0)

    def test_worker_fault_wid_checked_against_cluster(self):
        graph = make_graph(1, n=40, degree=3)
        plan = FaultPlan(worker_faults=(WorkerFault(wid=99, at_us=10.0),))
        with pytest.raises(ConfigurationError):
            AsyncPSTMEngine(graph, NODES, WPN,
                            config=EngineConfig(fault_plan=plan))

    def test_engine_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(fault_plan=FaultPlan(), retry_budget=-1)
        with pytest.raises(ConfigurationError):
            EngineConfig(fault_plan=FaultPlan(), watchdog_timeout_us=0.0)

    def test_naive_progress_mode_rejects_faults(self):
        # Dropped messages corrupt the naive central counter irreparably:
        # there is no ledger invariant to detect the loss. Forbidden.
        with pytest.raises(ConfigurationError):
            EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL,
                         fault_plan=FaultPlan(drop_rate=0.01))

    def test_injector_is_deterministic(self):
        plan = FaultPlan(seed=5, drop_rate=0.3, dup_rate=0.3, delay_rate=0.3)
        a, b = FaultInjector(plan), FaultInjector(plan)
        fates_a = [a.packet_fate() for _ in range(200)]
        fates_b = [b.packet_fate() for _ in range(200)]
        assert fates_a == fates_b
        assert a.counts == b.counts
        assert a.total_injected > 0


# -- equivalence: the fault machinery must be invisible when disarmed -------


class TestFaultFreeEquivalence:
    def _signature(self, engine, result):
        m = engine.metrics
        return (result.rows, result.latency_us, m.packets_sent, m.bytes_sent,
                m.steps_executed, m.flushes, dict(m.messages))

    def test_no_plan_runs_are_bit_identical(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        sig_a = self._signature(*run_one(graph, plan, {"s": 5}))
        sig_b = self._signature(*run_one(graph, plan, {"s": 5}))
        assert sig_a == sig_b

    def test_armed_zero_rate_plan_is_bit_identical_to_no_plan(self):
        """An armed FaultPlan that never fires (all rates 0, no worker
        faults) must not perturb the simulation: acks ride the wire for
        free and the retransmit timeout strictly exceeds the ack round
        trip, so no timer ever fires spuriously."""
        graph = make_graph(3)
        plan = khop3_count(graph)
        baseline = self._signature(*run_one(graph, plan, {"s": 5}))
        for seed in (0, 1, 2):
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed))
            engine, result = run_one(graph, plan, {"s": 5}, cfg)
            assert self._signature(engine, result) == baseline
            assert engine.metrics.retransmits == 0
            assert engine.metrics.acks_sent > 0  # protocol ran, invisibly
            assert not result.degraded

    def test_chaos_runs_are_reproducible(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        cfg = EngineConfig(fault_plan=FaultPlan(seed=1, drop_rate=0.05,
                                                dup_rate=0.05))
        sig_a = self._signature(*run_one(graph, plan, {"s": 5}, cfg))
        sig_b = self._signature(*run_one(graph, plan, {"s": 5}, cfg))
        assert sig_a == sig_b


# -- message-loss masking ---------------------------------------------------


class TestDropRecovery:
    # Seeds chosen so a 1% drop rate hits the ~170 packets of this batch.
    DROP_SEEDS = (1, 4, 5)
    STARTS = [{"s": s} for s in range(0, 48, 2)]

    def test_khop_batch_survives_one_percent_drops(self):
        graph = make_graph(3, partitions=8)
        plan = khop3_count(graph)
        base_engine, base = run_batch(graph, plan, self.STARTS,
                                      nodes=4, wpn=2)
        expected = [s.results for s in base]
        for seed in self.DROP_SEEDS:
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed, drop_rate=0.01))
            engine, sessions = run_batch(graph, plan, self.STARTS, cfg,
                                         nodes=4, wpn=2)
            assert [s.results for s in sessions] == expected, seed
            assert engine.metrics.retransmits > 0, seed
            assert engine.metrics.packets_dropped > 0, seed
            assert engine.network.unacked_packets == 0, seed
            # The retransmits are attributed to the queries that lost data.
            assert sum(s.qmetrics.retransmits for s in sessions) > 0, seed
            assert sum(s.qmetrics.faults_injected for s in sessions) > 0, seed

    def test_heavy_drops_still_mask(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        for seed in (1, 2, 3):
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed, drop_rate=0.25,
                                                    ack_drop_rate=0.25))
            engine, result = run_one(graph, plan, {"s": 5}, cfg)
            assert result.rows == base.rows
            assert engine.network.unacked_packets == 0

    def test_duplicates_and_delays_mask(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        cfg = EngineConfig(fault_plan=FaultPlan(
            seed=7, dup_rate=0.2, delay_rate=0.2, delay_us=300.0,
            ack_drop_rate=0.1))
        engine, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.rows == base.rows
        assert engine.metrics.duplicates_suppressed > 0
        assert engine.metrics.packets_delayed > 0


# -- LDBC interactive-complex under drops -----------------------------------


@pytest.mark.slow
class TestLDBCUnderFaults:
    # Seeds chosen so a 1% drop rate hits this batch's ~50 packets.
    DROP_SEEDS = (1, 5, 6)

    @pytest.fixture(scope="class")
    def snb(self):
        from repro.ldbc.generator import SNB_TINY, generate_snb
        dataset = generate_snb(SNB_TINY)
        return dataset, dataset.partitioned(NODES * WPN)

    def test_ic9_batch_survives_one_percent_drops(self, snb):
        from repro.ldbc.queries.ic import IC_QUERIES
        dataset, graph = snb
        qdef = IC_QUERIES[9]
        plan = qdef.build().compile(graph)
        params = [qdef.make_params(dataset, random.Random(900 + i))
                  for i in range(16)]
        _, base = run_batch(graph, plan, params)
        expected = [s.results for s in base]
        for seed in self.DROP_SEEDS:
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed, drop_rate=0.01))
            engine, sessions = run_batch(graph, plan, params, cfg)
            assert [s.results for s in sessions] == expected, seed
            assert engine.metrics.retransmits > 0, seed


# -- worker crash & stall ---------------------------------------------------


class TestWorkerFaults:
    def test_recoverable_crash_forces_retry_and_masks(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        for wid in range(NODES * WPN):
            cfg = EngineConfig(
                fault_plan=FaultPlan(seed=1, worker_faults=(
                    WorkerFault(wid=wid, at_us=30.0, down_us=3000.0),)),
                watchdog_timeout_us=20_000.0,
            )
            engine, result = run_one(graph, plan, {"s": 5}, cfg)
            assert result.rows == base.rows, wid
            assert result.metrics.retries >= 1, wid
            assert result.degraded, wid
            assert engine.metrics.worker_crashes == 1, wid
            assert engine.metrics.query_retries >= 1, wid
            # The lost attempt is paid for in simulated latency.
            assert result.latency_us > base.latency_us, wid

    def test_stall_delays_but_needs_no_retry(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        cfg = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=1, at_us=30.0, kind=STALL, down_us=2000.0),)),
            watchdog_timeout_us=50_000.0,
        )
        engine, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.rows == base.rows
        assert result.metrics.retries == 0
        assert not result.degraded
        assert engine.metrics.worker_stalls == 1

    def test_crash_after_completion_is_harmless(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        cfg = EngineConfig(fault_plan=FaultPlan(seed=1, worker_faults=(
            WorkerFault(wid=1, at_us=base.latency_us + 1000.0),)))
        _, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.rows == base.rows
        assert result.metrics.retries == 0

    def test_permanent_crash_exhausts_retry_budget(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        home = graph.partition_of(5)  # the start vertex's partition
        cfg = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=home, at_us=0.0),)),
            watchdog_timeout_us=5_000.0,
            retry_budget=2,
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=cfg)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            engine.run(plan, {"s": 5})
        assert excinfo.value.retries == 2
        assert engine.metrics.query_retries == 2

    def test_cleanup_after_recovery(self):
        """After a crash-retried query completes, no stray state survives:
        no open sessions, no memos, no queued traversers, no unacked
        packets, no open ledgers."""
        graph = make_graph(3)
        plan = khop3_count(graph)
        cfg = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=0, at_us=30.0, down_us=3000.0),)),
            watchdog_timeout_us=20_000.0,
        )
        engine, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.metrics.retries >= 1
        assert not engine.sessions
        assert engine.network.unacked_packets == 0
        for runtime in engine.runtimes:
            assert runtime.memo_store.active_queries() == []
            assert not runtime.queue

    def test_force_retry_evicts_the_dead_attempt_everywhere(self):
        """A force-retry purges the dead attempt from every partition *and*
        every surviving worker: no queued, inboxed or tier-1 buffered
        traverser and no unflushed accumulator of the old id survives to
        be flushed onto the wire later, and the purge is counted in the
        query's ``traversers_reclaimed``."""
        graph = make_graph(3)
        plan = khop3_count(graph)
        cfg = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=0, at_us=30.0, down_us=3000.0),)),
            watchdog_timeout_us=20_000.0,
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=cfg)
        recover = engine.recovery.recover_query
        probes = []

        def probed_recover(session):
            old = session.query_id
            resident = sum(
                sum(t.query_id == old for t in r.queue)
                + sum(t.query_id == old for t in r.inbox)
                for r in engine.runtimes
            ) + sum(
                t.query_id == old
                for w in engine.workers
                for pairs in w._trav_buffers.values()
                for _pid, t, _size in pairs
            )
            holders = [w.wid for w in engine.workers
                       if old in w.resident_queries()]
            before = session.qmetrics.traversers_reclaimed
            recover(session)
            probes.append((holders, resident,
                           session.qmetrics.traversers_reclaimed - before))
            for w in engine.workers:
                assert old not in w.resident_queries(), w.wid
            for r in engine.runtimes:
                assert r.memo_store.peek(old) is None
                assert not any(k[0] == old for k in r.stage_counts)

        engine.recovery.recover_query = probed_recover
        result = engine.run(plan, {"s": 5})
        _, base = run_one(graph, plan, {"s": 5})
        assert result.rows == base.rows
        ((holders, resident, reclaimed),) = probes
        assert holders  # surviving workers held the dead attempt's state
        assert resident > 0
        assert reclaimed == resident
