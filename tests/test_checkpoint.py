"""Stage-boundary checkpointing & deterministic restore (docs/RECOVERY.md).

The contract pinned here, across all three kernel tiers:

1. **invisibility** — an armed checkpoint plane on a healthy run is
   bit-for-bit identical to the unarmed engine (same rows, same simulated
   latency), and every stored snapshot drains by engine quiescence;
2. **restore** — a worker crash after a stage boundary resumes from the
   boundary snapshot: identical rows, a clean weight-ledger audit, and
   *strictly less* replayed kernel work than the PR4 force-retry path;
3. **fallback** — a crash before the first boundary falls back to
   force-retry (stage 0 never snapshots), still masking the fault;
4. **re-restorability** — checkpoints are re-keyed to the restored
   attempt, so a second crash restores again from the same boundary.

The two-stage plan's boundary for this graph/seed is crossed at
t ~= 86.8 us and the healthy run finishes at t ~= 175 us; the crash
times below are chosen against those instants.
"""

import pytest

from repro.core.memo import QueryMemo
from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
from repro.errors import ConfigurationError
from repro.core.progress import ProgressMode
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.checkpoint import StageCheckpoint
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.trace import EXEC, RECLAIM, RESTORE, WeightLedgerAuditor
from repro.runtime.vector import HAVE_NUMPY

NODES, WPN = 4, 2
ENGINE_SEED = 3
GRAPH_SEED = 7
START = {"start": 11}

#: crash instants relative to the two-stage plan's timeline (see module doc)
BEFORE_BOUNDARY = 40.0
AFTER_BOUNDARY = 120.0
SECOND_CRASH = 140.0

KERNELS = ["scalar", "batch"] + (["vector"] if HAVE_NUMPY else [])

GRAPH_CFG = PowerLawConfig("ck-demo", 400, 6.0)


@pytest.fixture(scope="module")
def ck_graph():
    return PartitionedGraph.from_graph(
        powerlaw_graph(GRAPH_CFG, seed=GRAPH_SEED), NODES * WPN
    )


def two_stage_plan(graph):
    return (
        Traversal("two_stage_heavy")
        .v_param("start")
        .khop(GRAPH_CFG.edge_label, k=2)
        .as_("v")
        .group_count("v")
        .out(GRAPH_CFG.edge_label)
        .count()
        .compile(graph)
    )


def three_stage_plan(graph):
    return (
        Traversal("three_stage")
        .v_param("start")
        .khop(GRAPH_CFG.edge_label, k=1)
        .as_("a")
        .group_count("a")
        .out(GRAPH_CFG.edge_label)
        .as_("b")
        .group_count("b")
        .out(GRAPH_CFG.edge_label)
        .count()
        .compile(graph)
    )


def run_ck(
    graph,
    plan,
    *,
    crashes=(),
    checkpoint=False,
    kernel=None,
    retention=1,
    trace=True,
    hook=None,
):
    """One seeded engine run; returns ``(engine, result)``. ``hook`` is
    called with the engine before the run starts."""
    fault_plan = None
    if crashes:
        fault_plan = FaultPlan(worker_faults=tuple(
            WorkerFault(wid=wid, at_us=at, down_us=30.0)
            for wid, at in crashes
        ))
    engine = AsyncPSTMEngine(
        graph, NODES, WPN,
        config=EngineConfig(
            trace=trace,
            kernel=kernel,
            fault_plan=fault_plan,
            checkpoint_interval_us=0.0 if checkpoint else None,
            checkpoint_retention=retention,
        ),
        seed=ENGINE_SEED,
    )
    if hook is not None:
        hook(engine)
    return engine, engine.run(plan, START)


def audit_of(engine):
    return WeightLedgerAuditor(engine.trace.events).audit()


# -- configuration validation ------------------------------------------------


class TestValidation:
    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(checkpoint_interval_us=-1.0)

    def test_retention_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(checkpoint_interval_us=0.0, checkpoint_retention=0)

    def test_naive_progress_mode_rejected(self):
        # The checkpoint cut is certified by the stage ledger reaching the
        # root weight; the naive central counter certifies nothing.
        with pytest.raises(ConfigurationError):
            EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL,
                         checkpoint_interval_us=0.0)

    def test_disarmed_engine_has_no_plane(self, ck_graph):
        engine = AsyncPSTMEngine(ck_graph, NODES, WPN, config=EngineConfig())
        assert engine.checkpoints is None


# -- armed-but-healthy equivalence -------------------------------------------


class TestArmedEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_armed_run_is_bit_identical_and_drains(self, ck_graph, kernel):
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        engine, armed = run_ck(ck_graph, plan, kernel=kernel, checkpoint=True)
        assert armed.rows == base.rows
        assert armed.latency_us == base.latency_us
        assert engine.metrics.checkpoints_taken == 1  # one boundary
        assert engine.checkpoints.stored == 0  # dropped at retire
        assert audit_of(engine).ok


# -- crash recovery: restore vs fallback, all kernels ------------------------


class TestCrashRecovery:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_after_boundary_restores(self, ck_graph, kernel):
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        engine, result = run_ck(
            ck_graph, plan, kernel=kernel, checkpoint=True,
            crashes=((2, AFTER_BOUNDARY),),
        )
        assert result.rows == base.rows
        assert result.metrics.restores == 1
        assert result.metrics.retries == 1
        assert result.metrics.resumed
        assert engine.metrics.checkpoint_restores == 1
        assert engine.metrics.checkpoint_fallbacks == 0
        assert engine.checkpoints.stored == 0
        audit = audit_of(engine)
        assert audit.ok, audit.violations[:3]
        # The RESTORE event carries the resume point.
        (restore,) = engine.trace.by_kind(RESTORE)
        assert restore.data["stage"] == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_before_boundary_falls_back(self, ck_graph, kernel):
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        engine, result = run_ck(
            ck_graph, plan, kernel=kernel, checkpoint=True,
            crashes=((2, BEFORE_BOUNDARY),),
        )
        assert result.rows == base.rows
        assert result.metrics.restores == 0
        assert result.metrics.retries == 1
        assert engine.metrics.checkpoint_fallbacks == 1
        assert engine.metrics.checkpoint_restores == 0
        assert audit_of(engine).ok

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_restore_replays_strictly_less_than_force_retry(
        self, ck_graph, kernel
    ):
        plan = two_stage_plan(ck_graph)
        crashes = ((2, AFTER_BOUNDARY),)
        retry_engine, retry = run_ck(
            ck_graph, plan, kernel=kernel, crashes=crashes
        )
        ck_engine, restored = run_ck(
            ck_graph, plan, kernel=kernel, checkpoint=True, crashes=crashes
        )
        assert restored.rows == retry.rows
        retry_exec = len(retry_engine.trace.by_kind(EXEC))
        ck_exec = len(ck_engine.trace.by_kind(EXEC))
        assert ck_exec < retry_exec
        # ...and the restored attempt still pays for the lost work in
        # simulated time relative to a healthy run, just less of it.
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        assert base.latency_us < restored.latency_us <= retry.latency_us

    def test_second_crash_restores_again(self, ck_graph):
        """Checkpoints are re-keyed to the restored attempt's query id, so
        a crash *during the restored stage* restores from the same
        boundary a second time."""
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan)
        engine, result = run_ck(
            ck_graph, plan, checkpoint=True,
            crashes=((2, AFTER_BOUNDARY), (3, SECOND_CRASH)),
        )
        assert result.rows == base.rows
        assert result.metrics.restores == 2
        assert engine.metrics.checkpoint_restores == 2
        assert engine.checkpoints.stored == 0
        assert audit_of(engine).ok

    def test_evicted_attempt_reclaims_never_report_weight(self, ck_graph):
        """The dead attempt's purge during a restore never reports weight:
        every RECLAIM of the evicted id is emitted for observability but
        carries reported=False, so the ProgressTracker never double-counts
        the checkpointed frontier the restored attempt re-dispatches."""
        plan = two_stage_plan(ck_graph)
        engine, _ = run_ck(
            ck_graph, plan, checkpoint=True, crashes=((2, AFTER_BOUNDARY),),
        )
        (restore,) = engine.trace.by_kind(RESTORE)
        evicted = [ev for ev in engine.trace.by_kind(RECLAIM)
                   if ev.query_id == restore.data["restored_from"]]
        # One report-free reclaim per partition and per worker purged.
        assert len(evicted) == len(engine.runtimes) + len(engine.workers)
        assert all(ev.data["reported"] is False for ev in evicted)

    def test_restore_inside_combine_window_drops_stale_combine(self, ck_graph):
        """A restore landing between the final stage's last partial and
        its deferred combine (the tracker's charge window) retires that
        attempt id, so the queued combine resolves to nothing instead of
        combining the restored attempt's empty partials and retiring it
        with wrong rows."""
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan)
        windows = []

        def restore_mid_combine(engine):
            charge = engine.tracker.charge

            def charge_then_restore(at, cost_us):
                done_at = charge(at, cost_us)
                (session,) = engine.sessions.values()
                if not windows and session.cursor.current == 1:
                    windows.append((at, done_at))
                    engine.clock.schedule_at(
                        (at + done_at) / 2,
                        lambda: engine.recovery.recover_query(session))
                return done_at

            engine.tracker.charge = charge_then_restore

        engine, result = run_ck(ck_graph, plan, checkpoint=True,
                                hook=restore_mid_combine)
        ((at, done_at),) = windows
        assert at < done_at
        (restore,) = engine.trace.by_kind(RESTORE)
        assert at < restore.ts < done_at
        assert result.rows == base.rows
        assert result.metrics.restores == 1
        assert audit_of(engine).ok


# -- retention ---------------------------------------------------------------


class TestRetention:
    def test_eviction_keeps_newest(self, ck_graph):
        plan = three_stage_plan(ck_graph)  # two checkpointable boundaries
        engine, _ = run_ck(ck_graph, plan, checkpoint=True, retention=1)
        assert engine.checkpoints.taken == 2
        assert engine.checkpoints.evicted == 1
        assert engine.checkpoints.stored == 0

    def test_wide_retention_evicts_nothing(self, ck_graph):
        plan = three_stage_plan(ck_graph)
        engine, _ = run_ck(ck_graph, plan, checkpoint=True, retention=2)
        assert engine.checkpoints.taken == 2
        assert engine.checkpoints.evicted == 0


# -- snapshot isolation ------------------------------------------------------


class TestSnapshotIsolation:
    def test_memo_snapshot_is_isolated_from_live_memo(self):
        memo = QueryMemo()
        memo.put("dist", 7, 2)
        memo.append("paths", 7, [1, 2])
        snap = memo.snapshot()
        memo.put("dist", 7, 99)  # live memo keeps mutating post-boundary
        memo.append("paths", 7, [3])
        assert snap["dist"][7] == 2
        assert snap["paths"][7] == [[1, 2]]

    def test_build_memo_copies_per_restore_attempt(self):
        memo = QueryMemo()
        memo.put("dist", 7, 2)
        ckpt = StageCheckpoint(
            query_id=1, stage=1, ts=0.0, seeds=(),
            rng_state=None, memos={0: memo.snapshot()},
        )
        first = ckpt.build_memo(0)
        first.put("dist", 7, 99)  # first restore attempt mutates its copy
        second = ckpt.build_memo(0)
        assert second.get("dist", 7) == 2  # the stored shard is untouched
        assert ckpt.build_memo(3) is None  # empty partitions stay empty
        assert ckpt.record_count() == 1
