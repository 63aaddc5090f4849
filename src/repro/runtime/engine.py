"""The asynchronous PSTM engine — GraphDance's runtime (paper §IV).

:class:`AsyncPSTMEngine` executes compiled plans on a simulated cluster.
It is the composition root of a layered runtime; each mechanism lives in
its own module and the engine wires them together and owns the public API:

* **query lifecycle** (:mod:`repro.runtime.lifecycle`) — every submission
  walks one validated state machine (QUEUED → ... → DONE/FAILED/
  REJECTED/PARTIAL); the engine performs the transitions at submission,
  admission, dispatch, cancellation, and completion;
* **execution** (:mod:`repro.runtime.worker` + :mod:`repro.runtime.kernels`)
  — one single-threaded worker per partition (shared-nothing; the
  non-partitioned baseline attaches several workers to one shared per-node
  partition instead), each draining through a pluggable execution kernel;
* **delivery** (:mod:`repro.runtime.delivery`) — message routing, cancel
  filtering, exactly-once weight reclamation and credit release, and the
  serial tracker actor;
* **transport** (:mod:`repro.runtime.network`) — two-tier message passing;
* **progress** (:mod:`repro.core.progress`) — weight-based tracking with
  optional coalescing, hosted on the centralized tracker;
* **recovery** (:mod:`repro.runtime.faults`) — worker-fault firing, the
  progress watchdog, and bounded query retry;
* **overload protection** (:mod:`repro.runtime.overload`) — admission
  control and credit-based backpressure.

Queries run **for real** — every operator touches real partitioned data and
the result rows are exact; the simulation only decides *when* things happen,
which is what the paper's evaluation measures.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.machine import resolve_partition
from repro.core.memo import MemoStore
from repro.core.progress import ProgressMode, ProgressTracker
from repro.core.subquery import GatheredPartial
from repro.core.traverser import Traverser
from repro.errors import (
    AdmissionTimeoutError,
    ConfigurationError,
    ExecutionError,
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
    ResourceBudgetExceededError,
    RetryBudgetExceededError,
)
from repro.graph.partition import PartitionedGraph
from repro.query.plan import PhysicalPlan
from repro.runtime.config import EngineConfig, IO_SYNC, IO_TLC, IO_TLC_NLC
from repro.runtime.costmodel import (
    DEFAULT_COST_MODEL,
    CostModel,
    HardwareProfile,
    MODERN,
    validate_cluster,
)
from repro.runtime.delivery import DeliveryPlane, TrackerActor
from repro.runtime.kernels import kernel_name_for
from repro.runtime.faults import FaultInjector, RecoveryManager
from repro.runtime.lifecycle import (
    REASON_ADMISSION_TIMEOUT,
    REASON_QUEUE_FULL,
    QueryProfile,
    QueryResult,
    QuerySession,
    QueryState,
    salvage_partial,
    stage0_seeds,
)
from repro.runtime.metrics import LatencyRecorder, MsgKind, RunMetrics
from repro.runtime.network import TRACKER_DST, Message, Network
from repro.runtime.checkpoint import CheckpointPlane
from repro.runtime.overload import MEMO_CHECK_INTERVAL, AdmissionController
from repro.runtime.preempt import (cancel_paused, pause_at_boundary,
                                   request_preempt, resume_session, try_resume)
from repro.runtime.simclock import SimClock
from repro.runtime.trace import SEED_DISPATCH, STAGE_CLOSE, STAGE_OPEN, TraceRecorder
from repro.runtime.txnplane import TxnPlane
from repro.runtime.worker import PartitionRuntime, Worker

__all__ = [
    "AsyncPSTMEngine",
    "CANCEL_MSG_BYTES",
    "EngineConfig",
    "IO_SYNC",
    "IO_TLC",
    "IO_TLC_NLC",
    "MEMO_CHECK_INTERVAL",
    "QueryProfile",
    "QueryResult",
    "QuerySession",
    "QueryState",
]

#: wire size of one CANCEL control message (tag + query id + stage)
CANCEL_MSG_BYTES = 16


class AsyncPSTMEngine:
    """GraphDance: asynchronous distributed PSTM execution (simulated)."""

    def __init__(
        self,
        graph: PartitionedGraph,
        nodes: int,
        workers_per_node: int,
        hardware: HardwareProfile = MODERN,
        cost_model: Optional[CostModel] = None,
        config: EngineConfig = EngineConfig(),
        seed: int = 0,
    ) -> None:
        validate_cluster(nodes, workers_per_node, hardware)
        expected = nodes * workers_per_node if config.partitioned_state else nodes
        if graph.num_partitions != expected:
            raise ConfigurationError(
                f"{config.name}: graph has {graph.num_partitions} partitions "
                f"but this configuration needs {expected} "
                f"({nodes} nodes × {workers_per_node} workers, "
                f"partitioned_state={config.partitioned_state})"
            )
        self.graph = graph
        self.nodes = nodes
        self.workers_per_node = workers_per_node
        self.config = config
        self.seed = seed
        base_cost = cost_model or DEFAULT_COST_MODEL
        self.cost = replace(
            base_cost.with_hardware(hardware), cpu_scale=config.cpu_scale
        )
        self.num_partitions = graph.num_partitions
        self.partitions_per_node = self.num_partitions // nodes

        self.clock = SimClock()
        self.metrics = RunMetrics()
        #: observability plane (docs/OBSERVABILITY.md); None → hooks are off
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder(
                self.clock, mode=config.progress_mode.value,
                kernel=kernel_name_for(config),
                nodes=nodes, partitions=self.num_partitions, seed=seed,
            )
            if config.trace else None
        )
        #: fault source (None → no faults, no reliability layer, no watchdog)
        self.faults: Optional[FaultInjector] = (
            FaultInjector(config.fault_plan) if config.fault_plan is not None
            else None
        )
        #: routing, cancel filtering, reclamation, credit gates
        self.delivery = DeliveryPlane(self)
        #: worker faults, progress watchdog, bounded query retry
        self.recovery = RecoveryManager(self)
        #: stage-boundary checkpoint store (docs/RECOVERY.md); None → off,
        #: and recovery falls back to force-retry from stage 0
        self.checkpoints: Optional[CheckpointPlane] = (
            CheckpointPlane(config.checkpoint_interval_us,
                            config.checkpoint_retention)
            if config.checkpoint_interval_us is not None else None
        )
        self.network = Network(
            self.clock,
            nodes,
            self.cost,
            self.metrics,
            self.delivery.deliver,
            node_combining=(config.io_mode == IO_TLC_NLC),
            faults=self.faults,
            on_retransmit=self.recovery.note_retransmit,
            on_packet_fault=self.recovery.note_packet_fault,
            trace=self.trace,
        )
        # Effective tier-1 flush threshold: IO_SYNC flushes every message.
        self._flush_threshold = (
            1 if config.io_mode == IO_SYNC else config.flush_threshold_bytes
        )

        self.runtimes: List[PartitionRuntime] = [
            PartitionRuntime(p, graph.stores[p], MemoStore(p))
            for p in range(self.num_partitions)
        ]
        self.workers: List[Worker] = []
        if config.partitioned_state:
            for pid in range(self.num_partitions):
                self.workers.append(
                    Worker(self, pid, self.node_of(pid), self.runtimes[pid])
                )
        else:
            wid = 0
            for node in range(nodes):
                for _ in range(workers_per_node):
                    self.workers.append(Worker(self, wid, node, self.runtimes[node]))
                    wid += 1

        self.tracker_node = 0
        self.tracker = TrackerActor(self)
        #: transaction plane (docs/TRANSACTIONS.md); None keeps the read
        #: path bit-identical to the pre-transactional engine
        self.txnplane: Optional[TxnPlane] = (
            TxnPlane(self) if config.transactions else None
        )
        self.progress = ProgressTracker(config.progress_mode, self._stage_terminated)
        self.sessions: Dict[int, QuerySession] = {}
        self.completed: Dict[int, QuerySession] = {}
        self._next_query_id = 0
        # -- overload protection (all None/False for default configs, so the
        # -- hot paths see one falsy check and stay bit-identical) ----------
        self._admission: Optional[AdmissionController] = (
            AdmissionController(
                self, config.max_concurrent_queries, config.admission_queue_size
            )
            if config.max_concurrent_queries is not None
            else None
        )
        self._budgets_armed = (
            config.max_traversers_per_query is not None
            or config.max_memo_bytes_per_query is not None
        )
        if config.fault_plan is not None:
            for wf in config.fault_plan.worker_faults:
                if not 0 <= wf.wid < len(self.workers):
                    raise ConfigurationError(
                        f"worker fault targets wid {wf.wid}, but this "
                        f"cluster has {len(self.workers)} workers"
                    )
                self.clock.schedule_at(
                    wf.at_us, lambda f=wf: self.recovery.inject_worker_fault(f)
                )

    # -- topology -----------------------------------------------------------

    def node_of(self, pid: int) -> int:
        """The node hosting a partition."""
        return pid // self.partitions_per_node

    def resolve_target(self, trav: Traverser, routed: Optional[int]) -> int:
        """The partition a traverser should execute on."""
        return resolve_partition(trav, self.graph.partitioner, routed)

    def worker_utilization(self, window_us: Optional[float] = None) -> float:
        """Mean fraction of worker CPU time spent busy over a window.

        Defaults to the full simulated run (``clock.now``). The async
        model's headline advantage over BSP is exactly this number: no
        barrier ever parks a worker that has local work (§II-C2).
        """
        window = window_us if window_us is not None else self.clock.now
        if window <= 0:
            return 0.0
        busy = sum(worker.busy_total for worker in self.workers)
        return busy / (window * len(self.workers))

    def overload_snapshot(self) -> Dict[str, Any]:
        """Observability for the overload layer (bench + leak assertions).

        ``open_stages`` and ``cancelling`` must both be 0 at quiescence —
        a nonzero value is a leaked ledger or a cancellation that never
        finalized. ``peak_inbox_depth`` must stay ≤ ``inbox_capacity``
        when credit gating is armed (the bounded-memory claim).
        """
        gates = self.delivery.gates or []
        stalls = sum(g.stalls for g in gates)
        self.metrics.credit_stalls = stalls
        snap: Dict[str, Any] = {
            "open_stages": self.progress.open_stage_count,
            "cancelling": len(self.delivery.cancelling),
            "active_sessions": len(self.sessions),
            "peak_queue_depth": max(
                (r.peak_queue_depth for r in self.runtimes), default=0
            ),
            "peak_inbox_depth": max(
                (r.peak_inbox_depth for r in self.runtimes), default=0
            ),
            "credit_stalls": stalls,
            "peak_credits_in_use": max((g.peak_in_use for g in gates), default=0),
            "waiting_sends": sum(g.waiting_sends for g in gates),
        }
        if self._admission is not None:
            snap["admission_running"] = self._admission.running
            snap["admission_waiting"] = self._admission.waiting
            snap["admission_peak_waiting"] = self._admission.peak_waiting
        return snap

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Flat counter snapshot with gate-derived counters synced first
        (``credit_stalls`` lives in the gates between syncs)."""
        self.metrics.credit_stalls = sum(
            g.stalls for g in (self.delivery.gates or [])
        )
        return self.metrics.snapshot()

    # -- layer shims --------------------------------------------------------

    @property
    def flush_threshold_bytes(self) -> int:
        """Effective tier-1 flush threshold (workers read this per flush)."""
        return self._flush_threshold

    @property
    def _gates(self):
        """Back-compat alias for the delivery plane's credit gates."""
        return self.delivery.gates

    def tracker_handle(self, msg: Message) -> None:
        """Process one tracker-bound message (delegates to the delivery
        plane; kept on the engine as the tracker actor's stable target)."""
        self.delivery.tracker_handle(msg)

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        plan: PhysicalPlan,
        params: Optional[Dict[str, Any]] = None,
        on_done: Optional[Callable[[QuerySession], None]] = None,
        at: Optional[float] = None,
        time_limit_us: Optional[float] = None,
        priority: int = 0,
    ) -> QuerySession:
        """Submit a query now (or at simulated time ``at``).

        ``time_limit_us`` arms an abort deadline: interactive serving
        systems run under strict budgets (the paper's §II-A example gives a
        search engine ~50 ms — "any queries ... that fail to complete
        within this time limit will simply be aborted"). An aborted query's
        session is torn down (memos cleared, in-flight traversers dropped)
        and its metrics stay incomplete; ``on_done`` still fires so closed
        loops keep moving.

        With admission control armed (``max_concurrent_queries``), the
        submission may instead wait in the bounded admission queue, be shed
        (``rejected``), or expire (``admission_timed_out``); ``priority``
        orders waiters (lower dispatches sooner) and the execution deadline
        counts from dispatch, not submission — the admission wait is bounded
        separately by ``admission_timeout_us``.
        """
        session = QuerySession(
            self, self._next_query_id, plan, dict(params or {}), on_done
        )
        self._next_query_id += 1
        session.priority = priority
        session.time_limit_us = time_limit_us
        if self._admission is not None:
            if at is None:
                self._admit_or_queue(session)
            else:
                self.clock.schedule_at(at, lambda: self._admit_or_queue(session))
            return session
        self.sessions[session.query_id] = session
        session.lifecycle.to(QueryState.ADMITTED)
        session.arrival_us = at if at is not None else self.clock.now
        if at is None:
            self._do_submit(session)
        else:
            self.clock.schedule_at(at, lambda: self._do_submit(session))
        if time_limit_us is not None:
            deadline = (at if at is not None else self.clock.now) + time_limit_us
            self.clock.schedule_at(
                deadline, lambda: self._abort_if_running(session, time_limit_us)
            )
        return session

    # -- admission control -------------------------------------------------

    def _admit_or_queue(self, session: QuerySession) -> None:
        """Route one arriving submission: start, wait, or shed."""
        adm = self._admission
        session.arrival_us = self.clock.now
        if adm.has_slot:
            self._start_admitted(session)
        elif adm.queue_full:
            session.lifecycle.to(QueryState.REJECTED, REASON_QUEUE_FULL)
            self.metrics.queries_rejected += 1
            self.completed[session.query_id] = session
            if session.on_done is not None:
                session.on_done(session)
        else:
            adm.enqueue(session, session.priority)
            adm.maybe_preempt()
            if self.config.admission_timeout_us is not None:
                self.clock.schedule_at(
                    self.clock.now + self.config.admission_timeout_us,
                    lambda: self._admission_expired(session),
                )

    def _start_admitted(self, session: QuerySession) -> None:
        """Take an execution slot and dispatch (or resume) the session."""
        self._admission.acquire()
        if session.lifecycle.state is QueryState.PAUSED:
            session.lifecycle.to(QueryState.ADMITTED)
            resume_session(self, session)
            return
        session.lifecycle.to(QueryState.ADMITTED)
        self.sessions[session.query_id] = session
        self._do_submit(session)
        if session.time_limit_us is not None:
            self.clock.schedule_at(
                self.clock.now + session.time_limit_us,
                lambda: self._abort_if_running(session, session.time_limit_us),
            )

    def _admission_expired(self, session: QuerySession) -> None:
        """Admission deadline passed while the session was still waiting."""
        if not session.parked or session.lifecycle.state is not QueryState.QUEUED:
            return  # dispatched/rejected in time, or re-parked by a pause
        self._admission.withdraw(session)
        session.lifecycle.to(QueryState.REJECTED, REASON_ADMISSION_TIMEOUT)
        self.metrics.admission_timeouts += 1
        self.completed[session.query_id] = session
        if session.on_done is not None:
            session.on_done(session)

    def _retire(self, session: QuerySession) -> None:
        """Single exit point for sessions that held an execution slot:
        record completion, release the admission slot (dispatching the next
        waiter), and fire ``on_done``."""
        if self.checkpoints is not None:
            self.checkpoints.drop(session.query_id)
        self.completed[session.query_id] = session
        if self._admission is not None:
            self._admission.on_closed()
        if session.on_done is not None:
            session.on_done(session)

    def _abort_if_running(self, session: QuerySession, limit_us: float) -> None:
        """Deadline handler: cancel a query that overran its time budget.

        Cooperative in weighted modes — a CANCEL fans out, partitions purge
        and reclaim, and the stage ledger closes by Theorem 1 — so the
        timeout path leaves zero residue on every partition without
        watchdog involvement. See :meth:`_begin_cancel`.
        """
        if self.sessions.get(session.query_id) is not session:
            return  # finished in time
        self._begin_cancel(session, "timeout")

    # -- cancellation & weight reclamation (docs/OVERLOAD.md) ---------------

    def cancel(self, session: QuerySession, reason: str = "caller") -> bool:
        """Cancel an in-flight query (caller abort).

        Returns True when a cancellation was begun, False when the session
        was not running (already finished, rejected, or still waiting for
        admission — a waiter is simply withdrawn).
        """
        if session.lifecycle.state is QueryState.PAUSED:
            cancel_paused(self, session, reason)
            return True
        if session.parked:
            self._admission.withdraw(session)
            session.qmetrics.cancelled = True
            session.qmetrics.cancel_reason = reason
            session.lifecycle.to(QueryState.REJECTED, f"cancelled:{reason}")
            self.metrics.queries_cancelled += 1
            self.completed[session.query_id] = session
            if session.on_done is not None:
                session.on_done(session)
            return True
        if self.sessions.get(session.query_id) is not session:
            return False
        self._begin_cancel(session, reason)
        return True

    # -- voluntary preemption (docs/RECOVERY.md) ----------------------------

    def preempt(self, session: QuerySession, reason: str = "caller") -> bool:
        """Pause a running query at its next certified stage boundary; it
        snapshots, evicts, and later resumes bit-for-bit through admission
        or :meth:`resume`. Requires an armed checkpoint plane; returns
        False when the session cannot pause (docs/RECOVERY.md)."""
        return request_preempt(self, session, reason)

    def resume(self, session: QuerySession) -> bool:
        """Resume a PAUSED query from its boundary snapshot now. False
        unless it is PAUSED (and a slot is free, under admission)."""
        return try_resume(self, session)

    def _begin_cancel(self, session: QuerySession, reason: str) -> None:
        """Start tearing down a running query (timeout / budget / caller).

        In weighted progress modes with outstanding stage weight this is
        **cooperative**: the session leaves ``sessions`` immediately (new
        arrivals for it are discarded), its lifecycle moves to CANCELLING,
        a CANCEL control message fans out to every partition, and each
        partition purges the query's queued / inboxed / buffered
        traversers, reporting their progression weight back to the tracker.
        The stage ledger then closes by the same ``Σ active + finished = 1``
        argument as normal termination (Theorem 1), and
        :meth:`_finalize_cancel` retires the session with provably zero
        residue — no watchdog, no grace timers. Otherwise (naive mode, or
        no open ledger) teardown is immediate and the lifecycle jumps
        straight to its terminal state.
        """
        query_id = session.query_id
        if self.sessions.get(query_id) is not session:
            return  # already finished / cancelled
        session.qmetrics.cancelled = True
        session.qmetrics.cancel_reason = reason
        self.metrics.queries_cancelled += 1
        self.sessions.pop(query_id, None)
        if (
            reason.startswith("budget")
            and self.config.allow_partial_results
            and not session.cursor.finished
            and session.plan.is_final_stage(session.cursor.current)
        ):
            salvage_partial(self, session)
        now = self.clock.now
        stage = session.cursor.current if not session.cursor.finished else -1
        ledger = self.progress.ledger(query_id, stage)
        cooperative = (
            self.config.progress_mode.is_weighted
            and ledger is not None
            and not ledger.terminated
        )
        if not cooperative:
            session.lifecycle.to(
                QueryState.PARTIAL if session._salvaged else QueryState.FAILED,
                reason,
            )
            self.delivery.evict_attempt(session, "teardown")
            self._retire(session)
            return
        session.lifecycle.to(QueryState.CANCELLING, reason)
        self.delivery.cancelling[query_id] = session
        for pid in range(self.num_partitions):
            self.network.send(
                self.tracker_node,
                self.node_of(pid),
                [
                    Message(
                        MsgKind.CONTROL,
                        pid,
                        ("cancel", query_id, stage),
                        CANCEL_MSG_BYTES,
                        query_id,
                    )
                ],
                now,
            )

    def _finalize_cancel(self, session: QuerySession, stage: int = -1) -> None:
        """The cancelled stage's ledger closed: finish the teardown.

        By this point every partition has processed its CANCEL, all
        reclaimed and still-executing weight has reached the ledger, and
        nothing of the query remains queued or in flight. The remaining
        cleanup (memo stores, stage counts, inflight entry, progress
        state) is idempotent.
        """
        query_id = session.query_id
        if self.delivery.cancelling.pop(query_id, None) is None:
            return
        if self.trace is not None:
            # stage >= 0: the ledger closed by reclamation; -1: crash-forced.
            self.trace.emit(STAGE_CLOSE, query_id, stage=stage,
                            reason="cancelled" if stage >= 0 else "cancel_forced")
        session.lifecycle.to(
            QueryState.PARTIAL if session._salvaged else QueryState.FAILED,
            session.qmetrics.cancel_reason,
        )
        self.delivery.evict_attempt(session, "teardown")
        self._retire(session)

    # -- dispatch -----------------------------------------------------------

    def _do_submit(self, session: QuerySession) -> None:
        if self.sessions.get(session.query_id) is not session:
            return  # cancelled between admission and a deferred dispatch
        session.lifecycle.to(QueryState.RUNNING)
        now = self.clock.now
        session.qmetrics.submitted_at_us = now
        if self.txnplane is not None and session.snapshot_ts is None:
            # Pin once: a recovery retry re-enters RUNNING but keeps the
            # original version cut, so its rows replay bit-identically.
            self.txnplane.pin(session)
        ready_at = now
        if self.config.per_query_instantiation:
            # Dataflow-style engines (Banyan, GAIA) instantiate every
            # operator in every worker thread before the query can start:
            # each worker pays a parallel setup cost, and the coordinator
            # serially registers the (ops × workers) channel endpoints —
            # the linear-in-threads overhead behind Fig 9's flattening.
            setup = self.cost.operator_instantiation_us * len(session.plan.ops)
            for worker in self.workers:
                worker.add_setup_cost(now, setup)
            coord_setup = (
                self.cost.operator_instantiation_us
                * 0.25
                * len(self.workers)
                * len(session.plan.ops)
            )
            ready_at = self.tracker.charge(now, coord_setup)
        self.progress.open_stage(session.query_id, 0)
        if self.trace is not None:
            self.trace.emit(STAGE_OPEN, session.query_id, stage=0)
        seeds = self._stage0_seeds(session)
        if ready_at > now:
            self.clock.schedule_at(
                ready_at, lambda: self._dispatch_seeds(session, seeds, self.clock.now)
            )
        else:
            self._dispatch_seeds(session, seeds, now)
        self.recovery.arm_watchdog(session)

    def _stage0_seeds(self, session: QuerySession) -> List[Traverser]:
        # Body lives in lifecycle.stage0_seeds; recovery calls this too.
        return stage0_seeds(self, session)

    def _dispatch_seeds(
        self, session: QuerySession, seeds: List[Traverser], now: float
    ) -> None:
        """Route seed traversers from the coordinator to their partitions."""
        if self.trace is not None and seeds:
            self.trace.emit(SEED_DISPATCH, session.query_id,
                            stage=seeds[0].stage, n=len(seeds),
                            weight=sum(t.weight for t in seeds))
        if self.config.progress_mode is ProgressMode.NAIVE_CENTRAL and seeds:
            # The coordinator knows the seed count; no message needed.
            self.progress.add_naive_active(
                session.query_id, seeds[0].stage, len(seeds)
            )
        delivery = self.delivery
        by_pid: Dict[int, List[Traverser]] = {}
        for trav in seeds:
            pid = self.resolve_target(trav, session.machine.route(trav))
            by_pid.setdefault(pid, []).append(trav)
        for pid, travs in by_pid.items():
            size = sum(t.estimated_size_bytes() for t in travs)
            if delivery.track_inflight:
                delivery.note_outbound(session.query_id)
            self.network.send(
                self.tracker_node,
                self.node_of(pid),
                [Message(MsgKind.SEED, pid, travs, size, session.query_id)],
                now,
            )

    # -- stage lifecycle ------------------------------------------------------------------

    def _stage_terminated(self, query_id: int, stage: int) -> None:
        """Weight ledger hit 1: gather the barrier's partials (Fig 6)."""
        cancelling = self.delivery.cancelling.get(query_id)
        if cancelling is not None:
            # A cancelled stage's ledger closed: all outstanding weight was
            # executed or reclaimed, so nothing of the query remains queued,
            # buffered, or in flight — finish the teardown.
            self._finalize_cancel(cancelling, stage)
            return
        session = self.sessions.get(query_id)
        if session is None or session.cursor.current != stage:
            return
        if (
            self.config.progress_mode is ProgressMode.NAIVE_CENTRAL
            and not self.delivery.query_quiescent(query_id, stage)
        ):
            # Transient zero crossing: traversers are still in transit.
            # Their own reports will re-trigger the zero check later.
            return
        barrier = session.cursor.barrier()
        now = self.clock.now
        expected = 0
        for pid, runtime in enumerate(self.runtimes):
            memo = runtime.memo_store.peek(query_id)
            if memo is None:
                continue
            value = barrier.partial(memo)
            if value is None:
                continue
            expected += 1
            size = barrier.estimated_partial_size(value)
            self.network.send(
                self.node_of(pid),
                self.tracker_node,
                [
                    Message(
                        MsgKind.PARTIAL,
                        TRACKER_DST,
                        ("partial", query_id, stage,
                         GatheredPartial(pid, value, size)),
                        size,
                        query_id,
                    )
                ],
                now,
            )
        session.expected_partials = expected
        session.partials = []
        if expected == 0:
            self._complete_stage(query_id, stage)

    def _complete_stage(self, query_id: int, stage: int) -> None:
        session = self.sessions.get(query_id)
        if session is None or session.cursor.current != stage or session.cursor.finished:
            return  # attempt retired (or stage done) while the combine was queued
        # The stage's ledger has served its purpose; drop it so late
        # (retransmitted / stale) weight reports resolve to "unknown stage"
        # instead of accumulating terminated ledgers for the query's life.
        self.progress.close_stage(session.query_id, stage)
        if self.trace is not None:
            self.trace.emit(STAGE_CLOSE, session.query_id, stage=stage,
                            reason="terminated")
        seeds = session.cursor.complete_stage(session.partials, session.rng)
        # Vacuously-empty intermediate stages terminate immediately.
        while not seeds and not session.cursor.finished:
            seeds = session.cursor.complete_stage([], session.rng)
        if session.cursor.finished:
            self._finish_query(session)
            return
        if session.lifecycle.state is QueryState.PAUSING:
            # Voluntary yield point: quiescence is certified and the next
            # stage's ledger is not open yet — snapshot the seeds and evict.
            pause_at_boundary(self, session, seeds)
            return
        self.progress.open_stage(session.query_id, session.cursor.current)
        if self.trace is not None:
            self.trace.emit(STAGE_OPEN, session.query_id,
                            stage=session.cursor.current)
        if (
            self.checkpoints is not None
            and session.lifecycle.state is QueryState.RUNNING
        ):
            # The certified quiescent cut: the closed ledger proves no
            # traverser of the query exists anywhere, the next stage's
            # seeds are split but not yet dispatched. The lifecycle fence
            # keeps cancelling/torn-down sessions out of the store.
            self.checkpoints.maybe_snapshot(self, session, seeds)
        self._dispatch_seeds(session, seeds, self.clock.now)

    def _finish_query(self, session: QuerySession) -> None:
        session.lifecycle.to(QueryState.DONE)
        session.qmetrics.completed_at_us = self.clock.now
        session.qmetrics.result_rows = len(session.results)
        for runtime in self.runtimes:
            runtime.memo_store.clear_query(session.query_id)
            runtime.drop_query(session.query_id)
        for worker in self.workers:
            worker.drop_query(session.query_id)
        self.delivery.inflight.pop(session.query_id, None)
        self.progress.close_query(session.query_id)
        self.sessions.pop(session.query_id, None)
        self._retire(session)

    # -- convenience runners ------------------------------------------------------------------

    def run(
        self,
        plan: PhysicalPlan,
        params: Optional[Dict[str, Any]] = None,
        max_events: Optional[int] = None,
        time_limit_us: Optional[float] = None,
    ) -> QueryResult:
        """Submit one query and simulate to completion.

        Raises :class:`~repro.errors.QueryTimeoutError` when
        ``time_limit_us`` is set and the query overruns it.
        """
        session = self.submit(plan, params, time_limit_us=time_limit_us)
        self.clock.run_until_idle(max_events)
        return self.result_of(session, time_limit_us=time_limit_us)

    def result_of(
        self,
        session: QuerySession,
        time_limit_us: Optional[float] = None,
    ) -> QueryResult:
        """Resolve a drained session into a result, or raise its outcome.

        Outcome precedence mirrors the submission lifecycle: shed before
        dispatch (``QueryRejectedError``), expired waiting
        (``AdmissionTimeoutError``), deadline abort (``QueryTimeoutError``),
        budget trip (partial :class:`QueryResult` when salvaged, else
        ``ResourceBudgetExceededError``), caller cancel
        (``QueryCancelledError``), retry exhaustion
        (``RetryBudgetExceededError``). The returned result carries the
        session's terminal lifecycle state.
        """
        if session.rejected:
            raise QueryRejectedError(
                session.query_id, self.config.admission_queue_size
            )
        if session.admission_timed_out:
            raise AdmissionTimeoutError(
                session.query_id, self.config.admission_timeout_us or 0.0
            )
        if session.timed_out:
            limit = (
                time_limit_us
                if time_limit_us is not None
                else (session.time_limit_us or 0)
            )
            raise QueryTimeoutError(session.query_id, limit / 1e3)
        if session.budget_exceeded:
            if session.partial_result:
                return QueryResult(
                    session.results,
                    session.qmetrics.latency_us,
                    session.qmetrics,
                    state=session.lifecycle.state,
                )
            budget, detail = session.budget_error or ("resource", "exceeded")
            raise ResourceBudgetExceededError(session.query_id, budget, detail)
        if session.cancelled:
            raise QueryCancelledError(
                session.query_id, session.cancel_reason or "cancelled"
            )
        if session.failed:
            raise RetryBudgetExceededError(
                session.qmetrics.query_id, session.qmetrics.retries
            )
        if not session.qmetrics.done:
            raise ExecutionError(
                f"query {session.query_id} did not complete (plan "
                f"{session.plan.name!r}); simulation deadlock?"
            )
        return QueryResult(
            session.results,
            session.qmetrics.latency_us,
            session.qmetrics,
            state=session.lifecycle.state,
        )

    def profile(
        self,
        plan: PhysicalPlan,
        params: Optional[Dict[str, Any]] = None,
        max_events: Optional[int] = None,
    ) -> "QueryProfile":
        """EXPLAIN ANALYZE: run a query and return per-operator counts.

        Shows, for every physical operator, how many traversers executed it
        and how many children it spawned — where a query's traverser volume
        actually comes from (e.g. which Expand explodes, how many arrivals
        a Dedup prunes).
        """
        session = self.submit(plan, params)
        self.clock.run_until_idle(max_events)
        if not session.qmetrics.done:
            raise ExecutionError(f"profiled query {session.query_id} incomplete")
        return QueryProfile(
            plan,
            dict(session.op_steps),
            dict(session.op_spawned),
            session.qmetrics,
            session.results,
        )

    def run_closed_loop(
        self,
        make_query: Callable[[int], Tuple[PhysicalPlan, Dict[str, Any]]],
        clients: int,
        total_queries: int,
        max_events: Optional[int] = None,
    ) -> Tuple[float, LatencyRecorder]:
        """Closed-loop throughput: ``clients`` concurrent issuers.

        Returns (queries per second of simulated time, latency recorder).
        """
        recorder = LatencyRecorder()
        state = {"issued": 0, "done": 0}

        def issue() -> None:
            if state["issued"] >= total_queries:
                return
            index = state["issued"]
            state["issued"] += 1
            plan, params = make_query(index)
            self.submit(plan, params, on_done=on_done)

        def on_done(session: QuerySession) -> None:
            state["done"] += 1
            recorder.record(session.qmetrics.latency_us)
            issue()

        for _ in range(min(clients, total_queries)):
            issue()
        start = self.clock.now
        self.clock.run_until_idle(max_events)
        elapsed_us = self.clock.now - start
        if state["done"] != total_queries:
            raise ExecutionError(
                f"closed loop finished {state['done']}/{total_queries} queries"
            )
        qps = total_queries / (elapsed_us / 1e6) if elapsed_us > 0 else float("inf")
        return qps, recorder
