"""Voluntary preemption: pause, evict, and resume (docs/RECOVERY.md).

The contract pinned here, across all three kernel tiers:

1. **bit-identity** — a query preempted at a stage boundary and resumed
   later produces exactly the rows of an uninterrupted run, spawns the
   same total traverser count, consumes no retry budget, and leaves a
   clean weight-ledger audit;
2. **forced snapshot** — the pause snapshot bypasses the checkpoint
   interval gate (it is the only copy of the evicted frontier), and the
   eviction's reclaims take the no-report path;
3. **composition** — preemption composes with crashes (crash while
   PAUSING restores or falls back, then pauses at the next boundary of
   the recovered attempt), with cancellation (cooperative while PAUSING,
   immediate drop while PAUSED), and with resource budgets (counters
   carry across the pause);
4. **policy** — under admission control, a higher-priority parked waiter
   preempts the lowest-priority resident past its first checkpoint, and
   the paused query resumes through the normal slot handoff.

Timeline facts for this graph/seed (see tests/test_checkpoint.py): the
two-stage plan crosses its boundary at t ~= 86.8 us and finishes at
t ~= 175 us; the three-stage plan crosses boundaries at t ~= 86.8 and
t ~= 204 us and finishes at t ~= 345 us; the one-hop interactive plan
finishes in a single stage at t ~= 56 us.
"""

import pytest

from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
from repro.errors import (
    ConfigurationError,
    LifecycleError,
    QueryCancelledError,
    ResourceBudgetExceededError,
)
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.lifecycle import (
    LEGAL_TRANSITIONS,
    QueryLifecycle,
    QueryState,
)
from repro.runtime.trace import (
    CHECKPOINT,
    PAUSE,
    PREEMPT,
    RECLAIM,
    RESUME,
    WeightLedgerAuditor,
)
from repro.runtime.vector import HAVE_NUMPY

NODES, WPN = 4, 2
ENGINE_SEED = 3
GRAPH_SEED = 7
START = {"start": 11}

#: instants relative to the plans' timelines (see module doc)
PREEMPT_EARLY = 40.0      # two-stage: mid stage 0, before the 86.8 boundary
PREEMPT_MID = 100.0       # both plans: mid stage 1
RESUME_AT = 400.0         # well after every paused run has gone quiet
CRASH_WHILE_PAUSING = 120.0

KERNELS = ["scalar", "batch"] + (["vector"] if HAVE_NUMPY else [])

GRAPH_CFG = PowerLawConfig("ck-demo", 400, 6.0)


@pytest.fixture(scope="module")
def pe_graph():
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
        Traversal("analytics")
        .v_param("start")
        .khop(GRAPH_CFG.edge_label, k=2)
        .as_("a")
        .group_count("a")
        .out(GRAPH_CFG.edge_label)
        .as_("b")
        .group_count("b")
        .out(GRAPH_CFG.edge_label)
        .count()
        .compile(graph)
    )


def interactive_plan(graph):
    return (
        Traversal("ic_short")
        .v_param("start")
        .out(GRAPH_CFG.edge_label)
        .count()
        .compile(graph)
    )


def make_engine(graph, *, interval=0.0, retention=2, crashes=(),
                kernel=None, **cfg):
    fault_plan = None
    if crashes:
        fault_plan = FaultPlan(worker_faults=tuple(
            WorkerFault(wid=wid, at_us=at, down_us=30.0)
            for wid, at in crashes
        ))
    return AsyncPSTMEngine(
        graph, NODES, WPN,
        config=EngineConfig(
            trace=True,
            kernel=kernel,
            fault_plan=fault_plan,
            checkpoint_interval_us=interval,
            checkpoint_retention=retention,
            **cfg,
        ),
        seed=ENGINE_SEED,
    )


def baseline(graph, plan, kernel=None):
    """An uninterrupted run on an unarmed engine (the bit-identity ref)."""
    engine = AsyncPSTMEngine(
        graph, NODES, WPN, config=EngineConfig(trace=True, kernel=kernel),
        seed=ENGINE_SEED,
    )
    return engine.run(plan, START)


def audit_of(engine):
    return WeightLedgerAuditor(engine.trace.events).audit()


# -- configuration validation ------------------------------------------------


class TestValidation:
    def test_preemption_requires_admission_control(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(preemption=True, checkpoint_interval_us=0.0)

    def test_preemption_requires_checkpoint_plane(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(preemption=True, max_concurrent_queries=2)

    def test_min_checkpoints_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(
                preemption=True,
                max_concurrent_queries=2,
                checkpoint_interval_us=0.0,
                preemption_min_checkpoints=-1,
            )


# -- lifecycle edges ---------------------------------------------------------


class TestLifecycleEdges:
    def test_pause_loop_edges_are_legal(self):
        for edge in [
            (QueryState.RUNNING, QueryState.PAUSING),
            (QueryState.PAUSING, QueryState.PAUSED),
            (QueryState.PAUSING, QueryState.DONE),
            (QueryState.PAUSING, QueryState.CANCELLING),
            (QueryState.PAUSING, QueryState.FAILED),
            (QueryState.PAUSED, QueryState.ADMITTED),
            (QueryState.PAUSED, QueryState.CANCELLING),
        ]:
            assert edge in LEGAL_TRANSITIONS

    def test_pause_requires_the_pausing_window(self):
        # RUNNING → PAUSED must go through PAUSING (the yield window).
        lc = QueryLifecycle()
        lc.to(QueryState.ADMITTED)
        lc.to(QueryState.RUNNING)
        with pytest.raises(LifecycleError):
            lc.to(QueryState.PAUSED)

    def test_resume_requires_readmission(self):
        # PAUSED → RUNNING must go through ADMITTED (slot re-acquired).
        lc = QueryLifecycle()
        lc.to(QueryState.ADMITTED)
        lc.to(QueryState.RUNNING)
        lc.to(QueryState.PAUSING)
        lc.to(QueryState.PAUSED)
        with pytest.raises(LifecycleError):
            lc.to(QueryState.RUNNING)

    def test_queued_query_cannot_pause(self):
        lc = QueryLifecycle()
        with pytest.raises(LifecycleError):
            lc.to(QueryState.PAUSING)


# -- pause/resume bit-identity, all kernels ----------------------------------


class TestPauseResume:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_resumed_run_is_bit_identical(self, pe_graph, kernel):
        plan = three_stage_plan(pe_graph)
        base = baseline(pe_graph, plan, kernel=kernel)
        engine = make_engine(pe_graph, kernel=kernel)
        session = engine.submit(plan, START)
        accepted = []
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: accepted.append(engine.preempt(session)))
        engine.clock.schedule_at(RESUME_AT, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        result = engine.result_of(session)
        assert accepted == [True]
        assert result.rows == base.rows
        assert result.metrics.traversers_spawned == \
            base.metrics.traversers_spawned
        assert result.metrics.retries == 0       # no retry budget consumed
        assert result.metrics.pauses == 1
        assert result.metrics.pause_wait_us > 0.0
        assert engine.metrics.preemptions == 1
        assert engine.metrics.resumes == 1
        assert engine.metrics.pause_wait_us == result.metrics.pause_wait_us
        # The pause costs simulated time, and the checkpoint store drains.
        assert result.latency_us > base.latency_us
        assert engine.checkpoints.stored == 0
        audit = audit_of(engine)
        assert audit.ok, audit.violations[:3]

    def test_paused_query_waits_for_an_explicit_resume(self, pe_graph):
        plan = two_stage_plan(pe_graph)
        engine = make_engine(pe_graph)
        session = engine.submit(plan, START)
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: engine.preempt(session))
        engine.clock.run_until_idle()
        # The run went quiet with the query evicted: nothing in flight,
        # its whole existence is the stored boundary snapshot.
        assert session.paused
        assert session.lifecycle.state is QueryState.PAUSED
        assert engine.checkpoints.stored == 1
        assert engine.metrics.preemptions == 1
        assert engine.metrics.resumes == 0
        assert engine.preempt(session) is False  # already paused
        assert engine.resume(session) is True
        engine.clock.run_until_idle()
        base = baseline(pe_graph, plan)
        assert engine.result_of(session).rows == base.rows

    def test_forced_snapshot_bypasses_interval_gate(self, pe_graph):
        """With an (effectively) infinite checkpoint interval no boundary
        would ever snapshot — the pause must force one anyway, because
        that snapshot is the evicted query."""
        plan = two_stage_plan(pe_graph)
        base = baseline(pe_graph, plan)
        engine = make_engine(pe_graph, interval=1e12)
        session = engine.submit(plan, START)
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: engine.preempt(session))
        engine.clock.schedule_at(RESUME_AT, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        assert engine.result_of(session).rows == base.rows
        assert engine.metrics.checkpoints_taken == 1
        (ck,) = engine.trace.by_kind(CHECKPOINT)
        assert ck.data["forced"] is True
        assert audit_of(engine).ok

    def test_trace_tells_the_pause_story(self, pe_graph):
        plan = two_stage_plan(pe_graph)
        engine = make_engine(pe_graph)
        session = engine.submit(plan, START)
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: engine.preempt(session))
        engine.clock.schedule_at(RESUME_AT, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        engine.result_of(session)
        (pre,) = engine.trace.by_kind(PREEMPT)
        (pause,) = engine.trace.by_kind(PAUSE)
        (resume,) = engine.trace.by_kind(RESUME)
        assert pre.data["stage"] == 0        # requested mid stage 0
        assert pre.data["reason"] == "caller"
        assert pause.query_id == pre.query_id
        assert pause.data["stage"] == 1      # yielded at the stage-1 boundary
        assert pause.data["n_seeds"] > 0     # the checkpointed frontier
        assert resume.query_id != pause.query_id  # fresh attempt id
        assert resume.data["resumed_from"] == pause.query_id
        assert resume.data["stage"] == 1
        assert resume.data["n_seeds"] == pause.data["n_seeds"]
        assert resume.data["wait_us"] == pytest.approx(RESUME_AT - pause.ts)
        # Every reclaim of the evicted attempt took the no-report path.
        evicted = [ev for ev in engine.trace.by_kind(RECLAIM)
                   if ev.query_id == pause.query_id]
        assert evicted
        assert all(ev.data["reported"] is False for ev in evicted)


# -- refusals and overtaking -------------------------------------------------


class TestEdgeCases:
    def test_preempt_without_checkpoint_plane_refuses(self, pe_graph):
        engine = AsyncPSTMEngine(
            pe_graph, NODES, WPN, config=EngineConfig(trace=True),
            seed=ENGINE_SEED,
        )
        session = engine.submit(two_stage_plan(pe_graph), START)
        refused = []
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: refused.append(engine.preempt(session)))
        engine.clock.run_until_idle()
        assert refused == [False]
        assert engine.metrics.preemptions == 0
        assert engine.result_of(session).rows  # completed untouched

    def test_double_preempt_and_stray_resume_refuse(self, pe_graph):
        plan = two_stage_plan(pe_graph)
        engine = make_engine(pe_graph)
        session = engine.submit(plan, START)
        outcomes = {}
        engine.clock.schedule_at(
            20.0, lambda: outcomes.update(resume_running=engine.resume(session)))
        engine.clock.schedule_at(
            PREEMPT_EARLY,
            lambda: outcomes.update(first=engine.preempt(session)))
        engine.clock.schedule_at(
            50.0, lambda: outcomes.update(while_pausing=engine.preempt(session)))
        engine.clock.schedule_at(
            200.0, lambda: outcomes.update(while_paused=engine.preempt(session)))
        engine.clock.schedule_at(RESUME_AT, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        engine.result_of(session)
        assert outcomes == {
            "resume_running": False,  # nothing to resume yet
            "first": True,
            "while_pausing": False,   # already yielding
            "while_paused": False,    # already evicted
        }
        assert engine.metrics.preemptions == 1

    def test_completion_overtakes_a_final_stage_preempt(self, pe_graph):
        """A preempt landing mid final stage never sees another boundary:
        the query simply finishes (PAUSING → DONE), nothing is paused."""
        plan = two_stage_plan(pe_graph)
        base = baseline(pe_graph, plan)
        engine = make_engine(pe_graph)
        session = engine.submit(plan, START)
        accepted = []
        engine.clock.schedule_at(
            PREEMPT_MID, lambda: accepted.append(engine.preempt(session)))
        engine.clock.run_until_idle()
        result = engine.result_of(session)
        assert accepted == [True]
        assert result.rows == base.rows
        assert result.metrics.pauses == 0
        assert engine.metrics.preemptions == 0
        assert engine.metrics.lifecycle_transitions["pausing->done"] == 1
        assert audit_of(engine).ok

    def test_resource_budget_carries_across_the_pause(self, pe_graph):
        """The traverser budget counts work from before and after the
        pause: a limit one short of the full run's spawn count trips
        after the resume, not at it."""
        plan = two_stage_plan(pe_graph)
        base = baseline(pe_graph, plan)
        total = base.metrics.traversers_spawned
        engine = make_engine(
            pe_graph, max_traversers_per_query=total - 1)
        session = engine.submit(plan, START)
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: engine.preempt(session))
        engine.clock.schedule_at(RESUME_AT, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        with pytest.raises(ResourceBudgetExceededError):
            engine.result_of(session)
        assert session.qmetrics.pauses == 1   # the pause did happen first
        assert engine.metrics.budget_cancels == 1
        assert audit_of(engine).ok


# -- cancellation composition ------------------------------------------------


class TestCancelInteraction:
    def test_cancel_while_paused_drops_checkpoints(self, pe_graph):
        plan = two_stage_plan(pe_graph)
        engine = make_engine(pe_graph)
        done = []
        session = engine.submit(plan, START, on_done=done.append)
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: engine.preempt(session))
        engine.clock.schedule_at(
            200.0, lambda: engine.cancel(session, "shed"))
        engine.clock.run_until_idle()
        with pytest.raises(QueryCancelledError):
            engine.result_of(session)
        assert engine.checkpoints.stored == 0  # snapshot discarded
        assert engine.metrics.lifecycle_transitions["paused->cancelling"] == 1
        assert engine.metrics.queries_cancelled == 1
        assert done == [session]  # completion callback still fires
        assert audit_of(engine).ok

    def test_cancel_while_pausing_is_cooperative(self, pe_graph):
        """A cancel landing in the yield window (PAUSING, ledger still
        open) is the ordinary cooperative cancellation — the pause never
        happens."""
        plan = two_stage_plan(pe_graph)
        engine = make_engine(pe_graph)
        session = engine.submit(plan, START)
        engine.clock.schedule_at(
            PREEMPT_EARLY, lambda: engine.preempt(session))
        engine.clock.schedule_at(
            60.0, lambda: engine.cancel(session, "shed"))
        engine.clock.run_until_idle()
        with pytest.raises(QueryCancelledError):
            engine.result_of(session)
        assert engine.metrics.preemptions == 0  # no boundary was reached
        assert engine.metrics.lifecycle_transitions["pausing->cancelling"] == 1
        assert engine.checkpoints.stored == 0
        assert audit_of(engine).ok


# -- crash composition -------------------------------------------------------


class TestCrashWhilePausing:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_while_pausing_restores_then_pauses(self, pe_graph, kernel):
        """A worker crash in the yield window flows through the normal
        restore path; the session stays PAUSING and yields at the next
        boundary of the restored attempt."""
        plan = three_stage_plan(pe_graph)
        base = baseline(pe_graph, plan, kernel=kernel)
        engine = make_engine(
            pe_graph, kernel=kernel, crashes=((2, CRASH_WHILE_PAUSING),))
        session = engine.submit(plan, START)
        engine.clock.schedule_at(
            PREEMPT_MID, lambda: engine.preempt(session))
        engine.clock.schedule_at(600.0, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        result = engine.result_of(session)
        assert result.rows == base.rows
        assert result.metrics.retries == 1    # the crash, not the pause
        assert result.metrics.restores == 1
        assert result.metrics.pauses == 1
        assert engine.metrics.checkpoint_restores == 1
        assert engine.metrics.preemptions == 1
        assert engine.metrics.resumes == 1
        assert engine.checkpoints.stored == 0
        audit = audit_of(engine)
        assert audit.ok, audit.violations[:3]

    def test_crash_before_first_boundary_falls_back_then_pauses(
        self, pe_graph
    ):
        """Crash while PAUSING with nothing checkpointed yet: force-retry
        replays stage 0 under a fresh id, the PAUSING intent survives the
        retry, and the new attempt pauses at its first boundary."""
        plan = two_stage_plan(pe_graph)
        base = baseline(pe_graph, plan)
        engine = make_engine(pe_graph, crashes=((2, PREEMPT_EARLY),))
        session = engine.submit(plan, START)
        engine.clock.schedule_at(30.0, lambda: engine.preempt(session))
        engine.clock.schedule_at(600.0, lambda: engine.resume(session))
        engine.clock.run_until_idle()
        result = engine.result_of(session)
        assert result.rows == base.rows
        assert result.metrics.retries == 1
        assert result.metrics.restores == 0
        assert result.metrics.pauses == 1
        assert engine.metrics.checkpoint_fallbacks == 1
        assert engine.metrics.preemptions == 1
        assert audit_of(engine).ok


# -- admission-control policy ------------------------------------------------


def policy_engine(pe_graph, *, preemption, min_checkpoints=1):
    return AsyncPSTMEngine(
        pe_graph, NODES, WPN,
        config=EngineConfig(
            trace=True,
            checkpoint_interval_us=0.0,
            checkpoint_retention=2,
            max_concurrent_queries=1,
            admission_queue_size=8,
            preemption=preemption,
            preemption_min_checkpoints=min_checkpoints,
        ),
        seed=ENGINE_SEED,
    )


def run_mixed(engine, pe_graph, *, analytics_priority=1, ic_at=120.0):
    """One analytics query holding the only slot, one interactive query
    arriving later at higher priority. Returns per-query finish instants
    and the two sessions."""
    done_at = {}

    def stamp(name):
        return lambda s: done_at.__setitem__(name, engine.clock.now)

    analytics = engine.submit(
        three_stage_plan(pe_graph), START,
        priority=analytics_priority, on_done=stamp("analytics"))
    ic = engine.submit(
        interactive_plan(pe_graph), START,
        priority=0, at=ic_at, on_done=stamp("ic"))
    engine.clock.run_until_idle()
    return done_at, analytics, ic


class TestPolicy:
    def test_waiter_preempts_lower_priority_resident(self, pe_graph):
        solo = baseline(pe_graph, three_stage_plan(pe_graph))

        on = policy_engine(pe_graph, preemption=True)
        done_on, analytics, ic = run_mixed(on, pe_graph)
        # The resident analytics query paused at its next boundary, the
        # interactive query ran in the freed slot and finished first,
        # and the analytics query resumed — not shed — with its full
        # answer intact.
        assert on.metrics.preemptions == 1
        assert on.metrics.resumes == 1
        assert done_on["ic"] < done_on["analytics"]
        assert analytics.qmetrics.pauses == 1
        assert on.result_of(analytics).rows == solo.rows
        assert on.result_of(ic).rows
        assert audit_of(on).ok

        off = policy_engine(pe_graph, preemption=False)
        done_off, analytics_off, _ = run_mixed(off, pe_graph)
        assert off.metrics.preemptions == 0
        # Preemption strictly improves the interactive finish time; the
        # analytics answer is identical either way.
        assert done_on["ic"] < done_off["ic"]
        assert off.result_of(analytics_off).rows == solo.rows

    def test_equal_priority_is_never_preempted(self, pe_graph):
        engine = policy_engine(pe_graph, preemption=True)
        done_at, analytics, _ic = run_mixed(
            engine, pe_graph, analytics_priority=0)
        # Only *strictly* lower-priority residents yield.
        assert engine.metrics.preemptions == 0
        assert analytics.qmetrics.pauses == 0
        assert done_at["analytics"] < done_at["ic"]

    def test_no_preempt_before_first_checkpoint(self, pe_graph):
        engine = policy_engine(pe_graph, preemption=True)
        # The interactive query arrives before the analytics query has
        # crossed any boundary: nothing restorable exists yet, so the
        # policy refuses and the waiter queues behind it.
        done_at, analytics, _ic = run_mixed(engine, pe_graph, ic_at=40.0)
        assert engine.metrics.preemptions == 0
        assert analytics.qmetrics.pauses == 0
        assert done_at["analytics"] < done_at["ic"]
        assert audit_of(engine).ok
