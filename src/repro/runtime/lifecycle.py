"""Query lifecycle: the explicit state machine behind every submission.

Every query the async engine touches moves through one small, validated
state machine::

                      +-----------+
        submit -----> |  QUEUED   | ----------------+
                      +-----------+                 |
                            |                       v
                            | slot acquired    +----------+
                            v                  | REJECTED |  (shed, expired,
                      +-----------+            +----------+   withdrawn)
                      | ADMITTED  |
                      +-----------+
                            | seeds dispatched
                            v
                      +-----------+   ledger hit 1   +--------+
                      |  RUNNING  | ---------------> |  DONE  |
                      +-----------+                  +--------+
                        |       \\
          cooperative   |        \\  non-cooperative cancel /
          cancel        v         \\ retry budget exhausted
                  +------------+   +-----> FAILED or PARTIAL
                  | CANCELLING |
                  +------------+
                        |  reclaimed weight closed the ledger
                        +-----> FAILED or PARTIAL

Voluntary preemption (docs/RECOVERY.md) adds a pause loop on the left::

                  preempt         boundary snapshot
      RUNNING ------------> PAUSING ------------> PAUSED
         ^                     |                    |
         |    slot re-acquired |  final stage       | re-enters the
         +---- ADMITTED <------+--> DONE            | admission queue
                   ^           |                    |
                   |           +--> CANCELLING <----+   (cancel while
                   +--------------------------------+    pausing/paused)

Before this module existed the same facts were scattered over eight
independent booleans on the session (``rejected``, ``timed_out``,
``cancelled``, ``failed``, ...), several of which could be set in
contradictory combinations. Now there is exactly one source of truth:
:class:`QueryLifecycle` validates every transition against
:data:`LEGAL_TRANSITIONS` (an illegal one raises
:class:`~repro.errors.LifecycleError`) and counts it in the engine's
:class:`~repro.runtime.metrics.RunMetrics` so soak harnesses can audit
that no run ever took an edge outside the diagram. The legacy flags
survive as derived, read-only properties.

This module also hosts the session/result types that travel the state
machine: :class:`QuerySession` (runtime state of one in-flight query),
:class:`QueryResult` (outcome, with ``partial``/``rejected`` derived from
the terminal state) and :class:`QueryProfile` (EXPLAIN ANALYZE output).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.machine import PSTMMachine
from repro.core.steps import FixedVertexSource, StepContext
from repro.core.subquery import GatheredPartial, StageCursor
from repro.core.traverser import Traverser, make_root
from repro.core.weight import ROOT_WEIGHT, split_weight
from repro.errors import ExecutionError, LifecycleError
from repro.query.plan import PhysicalPlan
from repro.runtime.metrics import QueryMetrics
from repro.runtime.trace import LIFECYCLE, MEMO_ATTACH

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import Counter

    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.trace import TraceRecorder


class QueryState(Enum):
    """States of the query lifecycle machine (see the module diagram)."""

    #: created; waiting for dispatch (possibly parked in the admission queue)
    QUEUED = "queued"
    #: holds an execution slot; seeds not yet dispatched
    ADMITTED = "admitted"
    #: executing: traversers live somewhere in the cluster
    RUNNING = "running"
    #: a CANCEL fanned out; waiting for the stage ledger to re-absorb all
    #: outstanding progression weight (docs/OVERLOAD.md)
    CANCELLING = "cancelling"
    #: terminal: completed with exact results
    DONE = "done"
    #: terminal: timed out / cancelled / budget-tripped / retries exhausted
    FAILED = "failed"
    #: terminal: never dispatched (shed, admission expiry, withdrawn)
    REJECTED = "rejected"
    #: terminal: budget cancellation salvaged exact final-stage partials
    PARTIAL = "partial"
    #: a preempt request is outstanding; the query yields at its next
    #: certified stage boundary (docs/RECOVERY.md)
    PAUSING = "pausing"
    #: evicted onto the checkpoint plane; no cluster state remains, the
    #: session waits (usually parked in the admission queue) to resume
    PAUSED = "paused"

    @property
    def terminal(self) -> bool:
        """True for states with no outgoing edges."""
        return self in TERMINAL_STATES


TERMINAL_STATES = frozenset(
    {QueryState.DONE, QueryState.FAILED, QueryState.REJECTED, QueryState.PARTIAL}
)

#: The exhaustive legal-transition table. Anything not listed here raises
#: :class:`~repro.errors.LifecycleError` — there is no other way for a
#: session to change state.
LEGAL_TRANSITIONS = frozenset(
    {
        (QueryState.QUEUED, QueryState.ADMITTED),
        (QueryState.QUEUED, QueryState.REJECTED),
        (QueryState.ADMITTED, QueryState.RUNNING),
        # cancelled between admission and the (deferred) seed dispatch
        (QueryState.ADMITTED, QueryState.FAILED),
        (QueryState.RUNNING, QueryState.CANCELLING),
        (QueryState.RUNNING, QueryState.DONE),
        (QueryState.RUNNING, QueryState.FAILED),
        (QueryState.RUNNING, QueryState.PARTIAL),
        (QueryState.CANCELLING, QueryState.FAILED),
        (QueryState.CANCELLING, QueryState.PARTIAL),
        # -- voluntary preemption (docs/RECOVERY.md) --
        (QueryState.RUNNING, QueryState.PAUSING),
        # forced boundary snapshot taken, cluster state evicted
        (QueryState.PAUSING, QueryState.PAUSED),
        # the final stage terminated before a boundary arrived: the
        # preempt request is overtaken by completion
        (QueryState.PAUSING, QueryState.DONE),
        # cancelled while yielding (ledger still open → cooperative)
        (QueryState.PAUSING, QueryState.CANCELLING),
        # crash-while-pausing recovery exhausted the retry budget, or a
        # non-cooperative cancel landed in the boundary window
        (QueryState.PAUSING, QueryState.FAILED),
        # slot re-acquired: resumes from the boundary checkpoint
        (QueryState.PAUSED, QueryState.ADMITTED),
        # cancelled while paused (checkpoints dropped, closes immediately)
        (QueryState.PAUSED, QueryState.CANCELLING),
    }
)

# Well-known terminal reasons (free-form strings elsewhere, e.g.
# "budget:traversers" or "cancel:caller").
REASON_QUEUE_FULL = "queue_full"
REASON_ADMISSION_TIMEOUT = "admission_timeout"
REASON_RETRY_BUDGET = "retry_budget"


class QueryLifecycle:
    """One query's walk through the state machine.

    Owns the current :class:`QueryState` plus the terminal ``reason``
    string, validates every transition against :data:`LEGAL_TRANSITIONS`,
    and counts each taken edge in a shared counter (the engine passes its
    ``RunMetrics.lifecycle_transitions``) so the whole run's edge set can
    be audited after the fact.
    """

    __slots__ = ("state", "reason", "_counts", "_trace", "_query_id")

    def __init__(self, counts: Optional["Counter"] = None,
                 trace: Optional["TraceRecorder"] = None,
                 query_id: int = -1) -> None:
        self.state = QueryState.QUEUED
        #: why a terminal state was entered ("timeout", "queue_full", ...)
        self.reason: Optional[str] = None
        self._counts = counts
        # Trace events carry the submission-time query id: a crash-retried
        # session keeps its lifecycle (and this id) across attempts.
        self._trace = trace
        self._query_id = query_id

    def to(self, state: QueryState, reason: Optional[str] = None) -> None:
        """Take one validated edge; illegal edges raise LifecycleError."""
        if (self.state, state) not in LEGAL_TRANSITIONS:
            raise LifecycleError(self.state.value, state.value)
        if self._counts is not None:
            self._counts[f"{self.state.value}->{state.value}"] += 1
        if self._trace is not None:
            self._trace.emit(LIFECYCLE, self._query_id, src=self.state.value,
                             dst=state.value, reason=reason)
        self.state = state
        if reason is not None:
            self.reason = reason

    @property
    def terminal(self) -> bool:
        """True once the session reached a terminal state."""
        return self.state in TERMINAL_STATES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = f", reason={self.reason!r}" if self.reason else ""
        return f"QueryLifecycle({self.state.value}{detail})"


@dataclass
class QueryResult:
    """Outcome of one query run.

    ``state`` is the session's terminal lifecycle state; ``partial`` and
    ``rejected`` are derived from it, so the contradictory flag
    combinations the old independent booleans allowed (e.g. a result both
    partial and rejected) are unrepresentable.
    """

    rows: List[Any]
    latency_us: float
    metrics: QueryMetrics
    #: terminal lifecycle state the result was resolved from
    state: QueryState = QueryState.DONE

    @property
    def partial(self) -> bool:
        """True when a budget cancellation salvaged final-stage partials.

        The rows are an exact subset of the full answer (docs/OVERLOAD.md).
        """
        return self.state is QueryState.PARTIAL

    @property
    def rejected(self) -> bool:
        """True when the query never dispatched (admission shed/expiry)."""
        return self.state is QueryState.REJECTED

    @property
    def latency_ms(self) -> float:
        """Simulated latency in milliseconds."""
        return self.latency_us / 1000.0

    @property
    def degraded(self) -> bool:
        """True when the rows come from a crash-recovery re-execution.

        The answer is still exact (the retry starts from invalidated
        memos), but the latency includes the lost attempt(s).
        """
        return self.metrics.degraded


@dataclass
class QueryProfile:
    """EXPLAIN ANALYZE output: per-operator execution statistics."""

    plan: PhysicalPlan
    op_steps: Dict[int, int]
    op_spawned: Dict[int, int]
    metrics: QueryMetrics
    rows: List[Any]

    def steps_of(self, op_idx: int) -> int:
        """Traversers that executed the operator at ``op_idx``."""
        return self.op_steps.get(op_idx, 0)

    def spawned_of(self, op_idx: int) -> int:
        """Children produced by the operator at ``op_idx``."""
        return self.op_spawned.get(op_idx, 0)

    def hottest(self, k: int = 3) -> List[int]:
        """Operator indexes by descending execution count."""
        return sorted(self.op_steps, key=lambda i: -self.op_steps[i])[:k]

    def render(self) -> str:
        """Per-operator table aligned with ``plan.describe()``."""
        lines = [f"profile of {self.plan.name!r} "
                 f"({self.metrics.latency_us / 1000:.3f} ms simulated, "
                 f"{self.metrics.steps_executed} steps)"]
        for op in self.plan.ops:
            executed = self.op_steps.get(op.idx, 0)
            spawned = self.op_spawned.get(op.idx, 0)
            marker = "*" if op.is_barrier else " "
            lines.append(
                f"  [{op.idx:>2}]{marker} {op.name:<32} "
                f"executed={executed:<8d} spawned={spawned}"
            )
        return "\n".join(lines)


class QuerySession:
    """Runtime state of one in-flight query.

    Outcome flags (``rejected``, ``timed_out``, ``cancelled``, ...) are
    read-only views over :attr:`lifecycle` and the per-query metrics; the
    only mutable outcome state is the lifecycle machine itself.
    """

    def __init__(
        self,
        engine: "AsyncPSTMEngine",
        query_id: int,
        plan: PhysicalPlan,
        params: Dict[str, Any],
        on_done: Optional[Callable[["QuerySession"], None]],
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.params = params
        self.on_done = on_done
        self.machine = PSTMMachine(
            plan,
            engine.graph.partitioner,
            barrier_route=0 if engine.config.centralized_agg else None,
        )
        self.reset_attempt(query_id)
        self.qmetrics = QueryMetrics(query_id, plan.name, submitted_at_us=0.0)
        #: the one source of truth for this query's outcome
        self.lifecycle = QueryLifecycle(
            engine.metrics.lifecycle_transitions,
            trace=getattr(engine, "trace", None), query_id=query_id,
        )
        #: True while parked in the admission wait queue (queue bookkeeping
        #: owned by :class:`~repro.runtime.overload.AdmissionController`;
        #: distinct from the lifecycle because a QUEUED session may also be
        #: a deferred ``at=...`` submission that was never parked)
        self.parked = False
        #: admission priority (lower dispatches sooner)
        self.priority = 0
        #: per-query deadline, armed when the session is dispatched
        self.time_limit_us: Optional[float] = None
        #: simulated submission instant (before any admission wait)
        self.arrival_us = 0.0
        #: (budget, detail) of the resource budget that tripped, if any
        self.budget_error: Optional[Tuple[str, str]] = None
        #: set when a budget cancellation salvaged final-stage partials
        self._salvaged = False
        #: simulated instant the session was evicted to PAUSED (None while
        #: not paused); drives the ``pause_wait_us`` counters on resume
        self.paused_at_us: Optional[float] = None
        #: sampling phase for the memo-byte budget check
        self._memo_check_tick = 0
        #: per-operator execution counts (op index → traversers executed),
        #: the EXPLAIN ANALYZE data behind :meth:`AsyncPSTMEngine.profile`
        self.op_steps: Dict[int, int] = {}
        #: per-operator spawn counts (op index → children produced)
        self.op_spawned: Dict[int, int] = {}
        #: snapshot timestamp pinned at admission by the transaction plane
        #: (docs/TRANSACTIONS.md); None when the plane is disarmed. Set
        #: once and deliberately never reset by crash recovery or
        #: checkpoint restore, so every retry replays the same version cut
        self.snapshot_ts: Optional[int] = None

    def reset_attempt(
        self, query_id: int, stage: int = 0, rng_state: Optional[tuple] = None
    ) -> None:
        """Start a fresh execution attempt under ``query_id``.

        The one place every per-attempt field is (re)set — the first
        attempt at submission and each retry, restore, or resume
        (``RecoveryManager.install_attempt``), so nothing of a dead
        attempt can leak into the next. The cursor opens at ``stage``;
        the RNG continues from ``rng_state`` (a checkpoint's boundary
        state) or, without one, is seeded from the attempt id.
        """
        self.query_id = query_id
        self.cursor = StageCursor(self.plan, query_id)
        self.cursor.current = stage
        if rng_state is None:
            self.rng = random.Random((self.engine.seed << 20) ^ query_id)
        else:
            self.rng = random.Random(0)
            self.rng.setstate(rng_state)
        self._contexts: List[Optional[StepContext]]
        self._contexts = [None] * self.engine.num_partitions
        self.partials: List[GatheredPartial] = []
        self.expected_partials = 0

    # -- derived outcome flags (legacy API, now contradiction-free) --------

    @property
    def state(self) -> QueryState:
        """Current lifecycle state."""
        return self.lifecycle.state

    @property
    def rejected(self) -> bool:
        """True when the admission queue was full at submission (shed)."""
        return (
            self.lifecycle.state is QueryState.REJECTED
            and self.lifecycle.reason == REASON_QUEUE_FULL
        )

    @property
    def admission_timed_out(self) -> bool:
        """True when the admission deadline passed before dispatch."""
        return (
            self.lifecycle.state is QueryState.REJECTED
            and self.lifecycle.reason == REASON_ADMISSION_TIMEOUT
        )

    @property
    def admission_waiting(self) -> bool:
        """True while parked in the admission wait queue."""
        return self.parked

    @property
    def timed_out(self) -> bool:
        """True when the query was aborted by its time limit (§II-A)."""
        return self.qmetrics.cancel_reason == "timeout"

    @property
    def cancelled(self) -> bool:
        """True when a cancellation was begun (timeout / budget / caller)."""
        return self.qmetrics.cancelled

    @property
    def cancel_reason(self) -> Optional[str]:
        """Why the cancellation was begun, if one was."""
        return self.qmetrics.cancel_reason

    @property
    def budget_exceeded(self) -> bool:
        """True when a resource budget tripped the cancellation."""
        return self.budget_error is not None

    @property
    def partial_result(self) -> bool:
        """True when a budget cancellation salvaged final-stage partials."""
        return self._salvaged

    @property
    def paused(self) -> bool:
        """True while evicted onto the checkpoint plane (docs/RECOVERY.md)."""
        return self.lifecycle.state is QueryState.PAUSED

    @property
    def failed(self) -> bool:
        """True when crash recovery exhausted the retry budget."""
        return (
            self.lifecycle.state is QueryState.FAILED
            and self.lifecycle.reason == REASON_RETRY_BUDGET
        )

    # -- execution state ---------------------------------------------------

    def context(self, pid: int) -> StepContext:
        """The query's StepContext on one partition (lazy)."""
        ctx = self._contexts[pid]
        if ctx is None:
            runtime = self.engine.runtimes[pid]
            store = runtime.store
            plane = getattr(self.engine, "txnplane", None)
            if plane is not None and self.snapshot_ts is not None:
                # Transaction plane armed: all kernels on every partition
                # read through the same pinned version cut.
                store = plane.store_for(pid, self.snapshot_ts)
            ctx = StepContext(
                store,
                runtime.memo_store.for_query(self.query_id),
                self.engine.graph.partitioner,
                self.params,
            )
            self._contexts[pid] = ctx
            trace = getattr(self.engine, "trace", None)
            if trace is not None:
                trace.emit(MEMO_ATTACH, self.query_id, pid=pid)
        return ctx

    @property
    def results(self) -> List[Any]:
        """The finished query's rows (raises if not finished)."""
        if self.cursor.results is None:
            raise ExecutionError(f"query {self.query_id} has not finished")
        return self.cursor.results


def salvage_partial(engine: "AsyncPSTMEngine", session: QuerySession) -> None:
    """Best-effort partial result for a budget-cancelled final stage.

    The final stage's barrier partials that already exist in partition
    memos are gathered synchronously (no messages — the query is being
    torn down, modelling its latency is pointless) and finalized into
    rows flagged ``partial``. Degraded-mode answer, exact subset.
    """
    query_id = session.query_id
    barrier = session.cursor.barrier()
    gathered: List[GatheredPartial] = []
    for pid, runtime in enumerate(engine.runtimes):
        memo = runtime.memo_store.peek(query_id)
        if memo is None:
            continue
        value = barrier.partial(memo)
        if value is None:
            continue
        gathered.append(
            GatheredPartial(pid, value, barrier.estimated_partial_size(value))
        )
    session.cursor.complete_stage(gathered, session.rng)
    if session.cursor.finished:
        session._salvaged = True
        session.qmetrics.completed_at_us = engine.clock.now
        session.qmetrics.result_rows = len(session.cursor.results or [])


def stage0_seeds(
    engine: "AsyncPSTMEngine", session: QuerySession
) -> List[Traverser]:
    """Build the root traversers for a query's stage 0.

    Broadcast sources seed one root per partition (encoded as a negative
    routing vertex); fixed-vertex sources seed the one start vertex. The
    root weight is split across all seeds so the stage ledger opens at
    exactly ``ROOT_WEIGHT`` (Theorem 1's invariant).
    """
    plan = session.plan
    specs: List[Traverser] = []
    for source in plan.source_ops():
        if source.broadcast:
            for pid in range(engine.num_partitions):
                specs.append(
                    make_root(
                        session.query_id, -pid - 1, source.idx,
                        plan.payload_width, 0,
                    )
                )
        else:
            assert isinstance(source, FixedVertexSource)
            vertex = source.start_vertex(session.params)
            specs.append(
                make_root(
                    session.query_id, vertex, source.idx, plan.payload_width, 0
                )
            )
    weights = split_weight(ROOT_WEIGHT, len(specs), session.rng)
    return [t.evolve(weight=w) for t, w in zip(specs, weights)]
