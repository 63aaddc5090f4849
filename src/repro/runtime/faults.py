"""Deterministic fault injection for the simulated cluster.

The async engine's weight invariant (``Σ active weights + finished weight
= 1``, paper Theorem 1) is exactly the bookkeeping needed to *detect* lost
work: a dropped traverser message silently subtracts its weight from the
ledger's eventual total, so the stage's :class:`~repro.core.weight.WeightLedger`
never reaches the root weight and the query visibly hangs instead of
silently returning partial results. This module supplies the faults *and*
the query-level recovery machinery that turns a hang back into a correct
answer: :class:`RecoveryManager` hosts the worker-fault firing, the
progress-fingerprint watchdog, and the bounded query retry. The packet-level
recovery (ack/retransmit) lives in :mod:`repro.runtime.network`. The failure
model is documented end to end in ``docs/FAULTS.md``.

Everything here is **deterministic**: all fault decisions are drawn from one
``random.Random(plan.seed)`` in simulated-event order, so a given
``(workload, cluster, FaultPlan)`` triple always injects the same faults at
the same simulated instants. Chaos runs are therefore exactly replayable —
a failing seed in CI reproduces locally bit for bit.

Fault taxonomy (see ``docs/FAULTS.md`` for the full model):

* **drop** — a NIC packet leaves the wire and never arrives;
* **duplicate** — the network delivers a second copy of a packet;
* **delay** — a packet takes an extra detour before arriving;
* **ack drop** — the receiver's acknowledgement is lost (forces a
  spurious retransmit, which duplicate suppression then absorbs);
* **worker crash** — a worker dies at a simulated instant, losing its run
  queue, tier-1 buffers, and coalescing accumulators (and, for the
  shared-nothing configuration, the partition's memos);
* **worker stall** — a worker freezes but loses no state (a long GC pause
  or scheduler hiccup); it resumes where it left off.

Faults only apply to *remote* NIC packets: same-node traffic rides shared
memory, which this failure model treats as reliable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runtime.lifecycle import REASON_RETRY_BUDGET, QueryState
from repro.runtime.trace import RESTORE, STAGE_OPEN, WORKER_FAULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.checkpoint import StageCheckpoint
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.lifecycle import QuerySession
    from repro.runtime.network import Message

#: Worker-fault kinds.
CRASH = "crash"
STALL = "stall"


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled worker failure.

    Args:
        wid: index of the worker (== partition id in the shared-nothing
            configuration) to fail.
        at_us: absolute simulated time of the failure.
        kind: :data:`CRASH` (state lost) or :data:`STALL` (state kept).
        down_us: how long the worker stays down; ``None`` means it never
            recovers (a permanent crash — the scenario that exhausts the
            engine's retry budget).
    """

    wid: int
    at_us: float
    kind: str = CRASH
    down_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in (CRASH, STALL):
            raise ConfigurationError(f"unknown worker fault kind {self.kind!r}")
        if self.at_us < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.at_us}")
        if self.down_us is not None and self.down_us <= 0:
            raise ConfigurationError(f"down_us must be > 0, got {self.down_us}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault schedule for one engine run.

    Passed via :attr:`repro.runtime.engine.EngineConfig.fault_plan`. With no
    plan configured the engine's fault machinery is entirely disarmed and
    the simulated output is bit-for-bit identical to an engine built before
    this subsystem existed (the equivalence suite asserts it).

    Rates are per-packet probabilities in ``[0, 1)`` evaluated independently
    at each NIC transmission; ``worker_faults`` are scheduled at absolute
    simulated times.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    #: extra one-way latency added to a delayed packet
    delay_us: float = 500.0
    #: probability an acknowledgement is lost
    ack_drop_rate: float = 0.0
    worker_faults: Tuple[WorkerFault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "delay_rate", "ack_drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {rate}")
        if self.delay_us < 0:
            raise ConfigurationError(f"delay_us must be >= 0, got {self.delay_us}")

    @property
    def injects_packet_faults(self) -> bool:
        """True when any network-level fault can actually fire."""
        return (
            self.drop_rate > 0
            or self.dup_rate > 0
            or self.delay_rate > 0
            or self.ack_drop_rate > 0
        )


@dataclass
class PacketFate:
    """The injector's verdict for one packet transmission."""

    drop: bool = False
    duplicate: bool = False
    delay_us: float = 0.0


class FaultInjector:
    """Runtime fault source: draws every decision from one seeded RNG.

    Decisions are drawn in a fixed order per packet (drop, duplicate,
    delay) so the sequence of faults depends only on the plan's seed and
    the deterministic simulated event order.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: aggregate injection counters, keyed by fault kind
        self.counts: Dict[str, int] = {
            "drops": 0,
            "duplicates": 0,
            "delays": 0,
            "ack_drops": 0,
            "crashes": 0,
            "stalls": 0,
        }

    def packet_fate(self) -> PacketFate:
        """Decide the fate of one NIC packet transmission."""
        plan = self.plan
        rng = self._rng
        fate = PacketFate()
        if plan.drop_rate > 0 and rng.random() < plan.drop_rate:
            fate.drop = True
            self.counts["drops"] += 1
        if plan.dup_rate > 0 and rng.random() < plan.dup_rate:
            fate.duplicate = True
            self.counts["duplicates"] += 1
        if plan.delay_rate > 0 and rng.random() < plan.delay_rate:
            fate.delay_us = plan.delay_us
            self.counts["delays"] += 1
        return fate

    def drop_ack(self) -> bool:
        """Decide whether one acknowledgement frame is lost."""
        if self.plan.ack_drop_rate > 0 and self._rng.random() < self.plan.ack_drop_rate:
            self.counts["ack_drops"] += 1
            return True
        return False

    def note_worker_fault(self, kind: str) -> None:
        """Record one injected worker crash/stall (scheduled by the engine)."""
        self.counts["crashes" if kind == CRASH else "stalls"] += 1

    @property
    def total_injected(self) -> int:
        """Total faults of all kinds injected so far."""
        return sum(self.counts.values())


class RecoveryManager:
    """Query-level fault recovery: worker faults, watchdog, bounded retry.

    Owns the three recovery mechanisms of docs/FAULTS.md that operate at
    query granularity (packet-level ack/retransmit lives in the network):

    * firing scheduled :class:`WorkerFault` entries — a crash loses worker
      state and force-retries every query holding state there;
    * the progress-fingerprint watchdog that declares a query stuck when
      its observable progress is unchanged for a full timeout window;
    * :meth:`recover_query` — tear the attempt down and re-execute under a
      fresh query id, bounded by ``EngineConfig.retry_budget``.

    Constructed unconditionally by the engine; with no fault plan armed the
    watchdog never schedules and nothing here runs, keeping the fault-free
    path bit-identical to the pre-fault engine.
    """

    def __init__(self, engine: "AsyncPSTMEngine") -> None:
        self.engine = engine

    # -- worker faults -------------------------------------------------------

    def inject_worker_fault(self, wf: WorkerFault) -> None:
        """Fire one scheduled worker crash/stall from the fault plan.

        A crash loses the worker's core-resident state (run queue, tier-1
        buffers, weight accumulators) and invalidates the partition's memos,
        so every query holding state there is immediately forced through
        :meth:`recover_query` — waiting for the watchdog would risk a query
        completing with corrupted memo state (e.g. a Dedup set silently
        reset). A stall just freezes the worker; its state and weights
        survive, so no recovery is needed.
        """
        engine = self.engine
        worker = engine.workers[wf.wid]
        now = engine.clock.now
        engine.faults.note_worker_fault(wf.kind)
        if engine.trace is not None:
            engine.trace.emit(WORKER_FAULT, -1, wid=wf.wid, fault=wf.kind,
                              down_us=wf.down_us)
        if wf.kind == CRASH:
            engine.metrics.worker_crashes += 1
            runtime = worker.runtime
            affected = set(runtime.memo_store.invalidate_all())
            affected.update(worker.resident_queries())
            worker.crash()
            plane = getattr(engine, "txnplane", None)
            if plane is not None:
                # Recovery composition (docs/TRANSACTIONS.md): replay the
                # version log synchronously, *before* the deferred
                # recover_if_current events below can restore any
                # traversal — a resumed query must never read a delta the
                # recovery scan has not certified back to the LCT.
                plane.replay_after_crash(wf.wid)
            for query_id in affected:
                session = engine.sessions.get(query_id)
                if session is not None and session.query_id == query_id:
                    # Defer so one crash handler never recurses into seed
                    # dispatch while still iterating engine state.
                    engine.clock.schedule_at(
                        now,
                        lambda s=session, q=query_id: self.recover_if_current(s, q),
                    )
                    continue
                cancelling = engine.delivery.cancelling.get(query_id)
                if cancelling is not None:
                    # The crash destroyed reclaimed-weight the cancelled
                    # stage's ledger was waiting on; it can never close now.
                    # Force the finalize — the teardown is idempotent and
                    # late arrivals resolve to a dead session.
                    engine.clock.schedule_at(
                        now, lambda s=cancelling: engine._finalize_cancel(s)
                    )
        else:
            engine.metrics.worker_stalls += 1
            worker.stall()
        if wf.down_us is not None:
            engine.clock.schedule_at(
                now + wf.down_us, lambda w=worker: w.recover(engine.clock.now)
            )

    def recover_if_current(self, session: "QuerySession", query_id: int) -> None:
        """Run recovery only if this attempt is still the live one."""
        engine = self.engine
        if engine.sessions.get(query_id) is session and session.query_id == query_id:
            self.recover_query(session)

    # -- fault attribution ---------------------------------------------------

    def note_retransmit(self, messages: List["Message"]) -> None:
        """Attribute one packet retransmission to its queries' metrics."""
        sessions = self.engine.sessions
        for query_id in {m.query_id for m in messages if m.query_id >= 0}:
            session = sessions.get(query_id)
            if session is not None:
                session.qmetrics.retransmits += 1

    def note_packet_fault(self, kind: str, messages: List["Message"]) -> None:
        """Attribute one injected packet fault to its queries' metrics."""
        sessions = self.engine.sessions
        for query_id in {m.query_id for m in messages if m.query_id >= 0}:
            session = sessions.get(query_id)
            if session is not None:
                session.qmetrics.faults_injected += 1

    # -- watchdog ------------------------------------------------------------

    def arm_watchdog(self, session: "QuerySession") -> None:
        """Schedule the next stuck-query check for one attempt.

        The watchdog is the loss detector of docs/FAULTS.md: if a query's
        progress fingerprint — current stage, the stage ledger's received
        weight sum, executed steps, gathered partials — is unchanged after
        a full timeout window, some progression weight has left the system
        (crashed worker, exhausted transport) and the stage ledger can
        never reach the root weight. Only armed when a fault plan exists.
        """
        engine = self.engine
        if engine.faults is None:
            return
        snapshot = self.progress_snapshot(session)
        engine.clock.schedule_at(
            engine.clock.now + engine.config.watchdog_timeout_us,
            lambda s=session, snap=snapshot: self.watchdog_check(s, snap),
        )

    def progress_snapshot(self, session: "QuerySession") -> Tuple:
        """Fingerprint of a query attempt's observable progress."""
        query_id = session.query_id
        stage = session.cursor.current if not session.cursor.finished else -1
        ledger = self.engine.progress.ledger(query_id, stage)
        return (
            query_id,
            stage,
            None if ledger is None else ledger.received,
            session.qmetrics.steps_executed,
            len(session.partials),
        )

    def watchdog_check(self, session: "QuerySession", snapshot: Tuple) -> None:
        """Compare fingerprints; recover the query if nothing moved."""
        engine = self.engine
        query_id = snapshot[0]
        if engine.sessions.get(query_id) is not session or session.query_id != query_id:
            return  # finished, aborted, or already retried under a new id
        fresh = self.progress_snapshot(session)
        if fresh != snapshot:
            engine.clock.schedule_at(
                engine.clock.now + engine.config.watchdog_timeout_us,
                lambda s=session, snap=fresh: self.watchdog_check(s, snap),
            )
            return
        self.recover_query(session)

    # -- bounded retry -------------------------------------------------------

    def recover_query(self, session: "QuerySession") -> None:
        """Re-execute a stuck query under a fresh query id (bounded).

        With checkpointing armed and a stage-boundary checkpoint stored,
        recovery resumes from it (:meth:`restore_query`) and replays only
        the work after the boundary. Otherwise the abandoned attempt is
        evicted completely (``DeliveryPlane.evict_attempt``: memos,
        queued, buffered and accumulated state, progress ledgers) and the
        query restarts from its stage-0 seeds. Either way the fresh
        attempt gets a **new query id**, so anything of the old attempt
        still in flight (retransmitted packets, stale weight reports)
        resolves to a dead session on arrival and is discarded instead of
        contaminating the retry. Budget exhaustion moves the session's
        lifecycle to FAILED; :meth:`AsyncPSTMEngine.run` surfaces that as
        RetryBudgetExceededError.
        """
        engine = self.engine
        checkpoints = engine.checkpoints
        if checkpoints is not None:
            ckpt = checkpoints.latest(session.query_id)
            if ckpt is not None:
                self.restore_query(session, ckpt)
                return
            # Armed but nothing stored yet (crash before the first stage
            # boundary, or the interval gate skipped every boundary so
            # far): fall back to the full force-retry below.
            engine.metrics.checkpoint_fallbacks += 1
        # "recover" drops the abandoned attempt's open stage ledgers in the
        # auditor without the terminated/cancelled closing assertions: a
        # crash or exhausted transport legitimately lost weight mid-stage.
        engine.delivery.evict_attempt(session, "recover")
        if self._charge_retry(session):
            self.install_attempt(session)

    def restore_query(
        self, session: "QuerySession", ckpt: "StageCheckpoint"
    ) -> None:
        """Resume a stuck query from its newest stage-boundary checkpoint.

        The same splice as the force retry — evict the dead attempt, run
        the next under a **fresh query id** so the dead attempt's strays
        resolve to a dead session — but instead of restarting from the
        stage-0 seeds, every partition's memo shard is rolled back to the
        checkpointed boundary and the checkpointed frontier (whose weights
        sum to the root weight by construction) is re-dispatched. Only the
        work after the boundary is replayed; the rows are bit-for-bit
        identical to an uncrashed run because the checkpoint carries the
        session RNG state as of the boundary (docs/RECOVERY.md).
        """
        engine = self.engine
        old_query_id = session.query_id
        engine.delivery.evict_attempt(session, "restore")
        if not self._charge_retry(session):
            return
        session.qmetrics.restores += 1
        engine.metrics.checkpoint_restores += 1
        self.install_attempt(session, ckpt, RESTORE, restored_from=old_query_id,
                             n_seeds=len(ckpt.seeds))

    def _charge_retry(self, session: "QuerySession") -> bool:
        """Spend one retry of an evicted attempt's budget; when the budget
        is exhausted, fail and retire the session instead (False)."""
        engine = self.engine
        if session.qmetrics.retries >= engine.config.retry_budget:
            session.lifecycle.to(QueryState.FAILED, REASON_RETRY_BUDGET)
            engine._retire(session)
            return False
        session.qmetrics.retries += 1
        engine.metrics.query_retries += 1
        return True

    def install_attempt(
        self,
        session: "QuerySession",
        ckpt: Optional["StageCheckpoint"] = None,
        event: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Start the next attempt of an evicted query under a fresh id.

        The install half of the attempt splice (docs/RECOVERY.md), shared
        by force-retry (``ckpt=None``: stage-0 seeds), checkpoint restore,
        and resume (``preempt.resume_session``). The session's per-attempt
        state is reset in one place (``QuerySession.reset_attempt``) from
        the checkpoint's stage and RNG state, the checkpoint chain and its
        memo shards move to the new id, and the stage ledger opens before
        the frontier is dispatched and the watchdog armed. ``event``
        (RESTORE / RESUME) is traced under the new id with ``fields``
        just before its STAGE_OPEN.
        """
        engine = self.engine
        old_query_id = session.query_id
        query_id = engine._next_query_id
        engine._next_query_id += 1
        if ckpt is None:
            session.reset_attempt(query_id)
            seeds = engine._stage0_seeds(session)
        else:
            session.reset_attempt(query_id, ckpt.stage, ckpt.rng_state)
            engine.checkpoints.rekey(old_query_id, query_id)
            for pid, runtime in enumerate(engine.runtimes):
                memo = ckpt.build_memo(pid)
                if memo is not None:
                    runtime.memo_store.install(query_id, memo)
            seeds = [t.evolve(query_id=query_id) for t in ckpt.seeds]
        engine.sessions[query_id] = session
        stage = session.cursor.current
        engine.progress.open_stage(query_id, stage)
        if engine.trace is not None:
            if event is not None:
                engine.trace.emit(event, query_id, stage=stage, **fields)
            engine.trace.emit(STAGE_OPEN, query_id, stage=stage,
                              retry_of=old_query_id)
        engine._dispatch_seeds(session, seeds, engine.clock.now)
        self.arm_watchdog(session)
