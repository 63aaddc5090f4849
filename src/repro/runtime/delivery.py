"""The delivery plane: message routing, cancel filtering, and reclamation.

:class:`DeliveryPlane` is the layer between the simulated network and the
partition runtimes. It owns every invariant about what happens to a
message *after* the wire and *before* a worker executes it:

* **Routing** — :meth:`deliver` is the network's terminal callback:
  tracker-bound messages queue behind the serial :class:`TrackerActor`,
  traversers/seeds enqueue at their partition (through the credit-gated
  inbox when backpressure is armed), CANCELs purge.
* **Exactly-once weight reclamation** — a cancelled query's progression
  weight must reach the stage ledger exactly once no matter where the
  CANCEL catches it (queued, inboxed, buffered in a worker, racing in
  flight, or popped by a drain). Every one of those paths funnels through
  one audited helper, :meth:`reclaim`, so the bookkeeping (global and
  per-query counters, the tracker report) cannot diverge between paths.
* **Exactly-once credit release** — inboxed or in-flight traversers of
  cancelled queries release their sender credits here (and only here),
  so a cancellation can never deadlock a credit channel.
* **In-flight accounting** — the naive progress mode's transient-zero
  suppression (:meth:`note_outbound` / :meth:`query_quiescent`).

The engine composes a DeliveryPlane and delegates to it; workers reach it
as ``engine.delivery``. It deliberately knows nothing about admission,
budgets, or the query lifecycle — those stay above it in the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.progress import ProgressMode
from repro.core.traverser import Traverser
from repro.core.weight import GROUP_MODULUS
from repro.errors import ExecutionError
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST, Message
from repro.runtime.overload import CreditGate
from repro.runtime.trace import MEMO_CLEAR, QUERY_CLOSE, RECLAIM, TRACKER_REPORT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.lifecycle import QuerySession
    from repro.runtime.worker import PartitionRuntime

__all__ = ["DeliveryPlane", "TrackerActor"]


class DeliveryPlane:
    """Routing, cancel filtering, credit accounting, and reclamation."""

    def __init__(self, engine: "AsyncPSTMEngine") -> None:
        self.engine = engine
        config = engine.config
        #: queries mid-cancellation: cancelled but their stage ledger has
        #: not yet re-absorbed all outstanding progression weight
        self.cancelling: Dict[int, "QuerySession"] = {}
        #: per-partition credit gates (None → backpressure disarmed)
        self.gates: Optional[List[CreditGate]] = (
            [
                CreditGate(pid, config.inbox_capacity, engine.clock,
                           trace=engine.trace)
                for pid in range(engine.num_partitions)
            ]
            if config.inbox_capacity is not None
            else None
        )
        # Worker-bound traversers buffered or in flight, per query. Only the
        # naive progress mode needs this (its active counter can transiently
        # hit zero while traversers are in transit); weighted modes skip the
        # bookkeeping entirely.
        self.inflight: Dict[int, int] = {}
        self.track_inflight = config.progress_mode is ProgressMode.NAIVE_CENTRAL
        #: armed by the live migrator after the first placement flip:
        #: arrivals routed under the old placement (tier-1 buffered or in
        #: flight at flip time) are re-checked here and forwarded one extra
        #: hop to their new owner. Stays False — one attribute read per
        #: delivery — on unmigrated runs, which therefore stay bit-identical.
        self.forwarding = False

    # -- in-flight accounting (naive progress mode) --------------------------

    def note_outbound(self, query_id: int) -> None:
        """Record a worker-bound message entering a buffer or the network."""
        self.inflight[query_id] = self.inflight.get(query_id, 0) + 1

    def query_quiescent(self, query_id: int, stage: int) -> bool:
        """True when no traverser of this (query, stage) exists anywhere:
        not queued, not buffered, not in flight."""
        if self.inflight.get(query_id, 0) > 0:
            return False
        return all(
            runtime.stage_counts.get((query_id, stage), 0) <= 0
            for runtime in self.engine.runtimes
        )

    # -- message delivery ----------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Terminal network callback: route one arrived message."""
        engine = self.engine
        if msg.dst_pid == TRACKER_DST:
            engine.tracker.submit(msg, engine.clock.now, engine.cost.tracker_msg_us)
            return
        runtime = engine.runtimes[msg.dst_pid]
        if msg.kind is MsgKind.TRAVERSER:
            if self.track_inflight and msg.query_id in self.inflight:
                self.inflight[msg.query_id] -= len(msg.payload)
            travs = msg.payload
            if self.cancelling:
                # Batches can mix queries (tier-1 buffers pack per node),
                # so arrivals of cancelling queries are filtered out here
                # one traverser at a time, weight reclaimed.
                travs = self.filter_cancelled(travs, msg.dst_pid)
                if not travs:
                    return
            if self.forwarding:
                travs = self.forward_strays(travs, msg.dst_pid)
                if not travs:
                    return
            if self.gates is not None:
                runtime.enqueue_remote(travs, engine.clock.now)
            else:
                runtime.enqueue(travs, engine.clock.now)
        elif msg.kind is MsgKind.SEED:
            if self.track_inflight and msg.query_id in self.inflight:
                self.inflight[msg.query_id] -= 1
            travs = list(msg.payload)
            if self.cancelling:
                travs = self.filter_cancelled(travs, msg.dst_pid, gated=False)
                if not travs:
                    return
            if self.forwarding:
                travs = self.forward_strays(travs, msg.dst_pid, gated=False)
                if not travs:
                    return
            # Seeds bypass the credit gate: the coordinator must always be
            # able to start/advance admitted queries, and seed cardinality
            # is bounded by the partition count.
            runtime.enqueue(travs, engine.clock.now)
        elif msg.kind is MsgKind.CONTROL:
            tag, query_id, stage = msg.payload
            if tag == "cancel":
                self.cancel_at_partition(query_id, stage, msg.dst_pid)
            elif tag == "preempt":
                # Voluntary preemption (docs/RECOVERY.md): the partition
                # drops nothing — the query yields at the coordinator when
                # the stage ledger closes, and this arrival just models
                # the control-plane fan-out cost (like CANCEL's).
                pass
            elif tag == "migrate":
                # Live migration state shipment (docs/PARTITIONING.md): the
                # actual store/memo moves happened atomically at the flip
                # event; this arrival models the CSR-row + memo bytes
                # crossing the wire to the new owner.
                pass
            else:  # pragma: no cover - no other control verbs exist
                raise ExecutionError(f"unexpected control message {tag!r}")
        else:  # pragma: no cover - no other worker-bound kinds exist
            raise ExecutionError(f"unexpected worker message kind {msg.kind}")

    def filter_cancelled(
        self, travs: List[Traverser], pid: int, gated: Optional[bool] = None
    ) -> List[Traverser]:
        """Drop arriving traversers of mid-cancellation queries.

        They were in flight when the CANCEL fanned out (racing ahead of or
        behind it); their progression weight is reclaimed here and — on the
        credit-gated path — their sender credits released immediately,
        since they will never occupy the inbox.
        """
        cancelling = self.cancelling
        kept = [t for t in travs if t.query_id not in cancelling]
        n_dropped = len(travs) - len(kept)
        if not n_dropped:
            return kept
        dropped: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for t in travs:
            if t.query_id in cancelling:
                key = (t.query_id, t.stage)
                w, c = dropped.get(key, (0, 0))
                dropped[key] = ((w + t.weight) % GROUP_MODULUS, c + 1)
        if (self.gates is not None) if gated is None else gated:
            self.gates[pid].release(n_dropped)
        for (query_id, stage), (weight, count) in dropped.items():
            self.reclaim(query_id, stage, weight, count)
        return kept

    def forward_strays(
        self, travs: List[Traverser], pid: int, gated: Optional[bool] = None
    ) -> List[Traverser]:
        """Re-route arrivals whose owner changed while they were in flight.

        Armed only after a live migration has flipped the placement
        (:attr:`forwarding`). A traverser routed before the flip can
        arrive at the *old* owner of its target — a partition that no
        longer holds the vertex's CSR rows or memo records — so it takes
        one extra hop to the new owner instead of executing against the
        wrong store. Its progression weight stays active (forwarding is
        invisible to the stage ledger: nothing is reclaimed); gated
        arrivals release this inbox's credits and re-acquire at the new
        home through the forward's gate submit.
        """
        from repro.runtime.migrate import forward_batch, retarget_pid

        engine = self.engine
        kept: List[Traverser] = []
        strays: Dict[int, List[Traverser]] = {}
        for t in travs:
            target = retarget_pid(engine, t, pid)
            if target == pid:
                kept.append(t)
            else:
                strays.setdefault(target, []).append(t)
        if not strays:
            return kept
        n = len(travs) - len(kept)
        if (self.gates is not None) if gated is None else gated:
            self.gates[pid].release(n)
        engine.metrics.traversers_forwarded += n
        forward_batch(engine, engine.node_of(pid), strays, engine.clock.now)
        return kept

    def tracker_handle(self, msg: Message) -> None:
        """Process one tracker-bound message (progress report or partial)."""
        engine = self.engine
        if msg.kind is MsgKind.PROGRESS:
            tag, query_id, stage, value = msg.payload
            if engine.trace is not None:
                # core.progress stays trace-free (cross-package layering);
                # every report passes through here, so emit at the boundary.
                engine.trace.emit(TRACKER_REPORT, query_id, stage=stage,
                                  tag=tag, value=value)
            if tag == "weight":
                engine.progress.report_weight(query_id, stage, value)
            else:
                engine.progress.report_delta(query_id, stage, value)
        elif msg.kind is MsgKind.PARTIAL:
            _tag, query_id, stage, partial = msg.payload
            session = engine.sessions.get(query_id)
            if session is None or session.cursor.current != stage:
                return
            session.partials.append(partial)
            if len(session.partials) >= session.expected_partials:
                done_at = engine.tracker.charge(
                    engine.clock.now,
                    engine.cost.combine_partial_us * len(session.partials),
                )
                # Keyed by attempt id: a restore in the charge window
                # retires this id, so the stale combine resolves to nothing.
                engine.clock.schedule_at(
                    done_at,
                    lambda q=query_id, st=stage: engine._complete_stage(q, st),
                )
        else:  # pragma: no cover
            raise ExecutionError(f"unexpected tracker message kind {msg.kind}")

    # -- weight reclamation & purge (docs/OVERLOAD.md) -----------------------

    def reclaim(
        self,
        query_id: int,
        stage: int,
        weight: int,
        count: int,
        report: bool = True,
        session: Optional["QuerySession"] = None,
    ) -> None:
        """The one reclamation bookkeeping path (exactly-once invariant).

        Every site that removes a cancelled/aborted query's traversers —
        the deliver-time filter, the CANCEL purge at a partition, the
        worker-buffer purge, and the drain loop's dead-session drop —
        funnels through here: ``count`` traversers are charged to the
        global and per-query reclaim counters, and ``weight`` (mod 2^64)
        is folded into the stage ledger via one tracker-direct report (a
        costless control-plane shortcut: the cancel fan-out already paid
        the wire, and a reclamation report has no ordering hazard since
        the ledger only sums). ``report=False`` is :meth:`evict_attempt`'s
        variant: the attempt's ledgers are being closed outright, so the
        weight is discarded and only the traverser counters are charged.
        ``session`` overrides the mid-cancellation lookup for queries no
        longer in :attr:`cancelling`.
        """
        if self.engine.trace is not None:
            self.engine.trace.emit(RECLAIM, query_id, stage=stage,
                                   weight=weight % GROUP_MODULUS, count=count,
                                   reported=report)
        if count:
            self.engine.metrics.traversers_reclaimed += count
            if session is None:
                session = self.cancelling.get(query_id)
            if session is not None:
                session.qmetrics.traversers_reclaimed += count
        if not report:
            return
        weight %= GROUP_MODULUS
        if weight:
            self.engine.metrics.weight_reclaim_reports += 1
            self.engine.progress.report_reclaimed(query_id, stage, weight)

    def purge_partition(
        self, runtime: "PartitionRuntime", query_id: int
    ) -> Tuple[int, int]:
        """Purge one partition's queue + inbox for a query, releasing the
        inboxed traversers' sender credits. Returns (weight, n_purged)."""
        weight, n_queue, n_inbox = runtime.reclaim_query(query_id)
        if n_inbox and self.gates is not None:
            self.gates[runtime.pid].release(n_inbox)
        return weight, n_queue + n_inbox

    def cancel_at_partition(self, query_id: int, stage: int, pid: int) -> None:
        """CANCEL arrival at one partition: purge, reclaim, report.

        Every unit of the query's progression weight resident here —
        queued, inboxed, buffered in worker tier-1 buffers, or absorbed
        into weight accumulators — is removed exactly once and reported
        straight to the tracker.
        """
        engine = self.engine
        runtime = engine.runtimes[pid]
        runtime.memo_store.clear_query(query_id)
        if engine.trace is not None:
            engine.trace.emit(MEMO_CLEAR, query_id, pid=pid, site="cancel")
        weight, n = self.purge_partition(runtime, query_id)
        for worker in engine.workers:
            if worker.runtime is runtime:
                w_weight, w_n = worker.reclaim_query(query_id)
                weight = (weight + w_weight) % GROUP_MODULUS
                n += w_n
        self.reclaim(query_id, stage, weight, n)

    def evict_attempt(self, session: "QuerySession", reason: str) -> None:
        """Remove every trace of one query attempt from the cluster.

        The evict half of the attempt splice (docs/RECOVERY.md), shared by
        cancel/abort (``"teardown"``), force-retry (``"recover"``),
        checkpoint restore (``"restore"``), and pause (``"pause"``): the
        attempt's memos, queued / inboxed / worker-buffered traversers,
        and unflushed accumulator weight leave exactly once, then its
        progress state is closed. Every purge takes :meth:`reclaim`'s
        ``report=False`` form — the attempt's ledgers close outright, and
        a retry/restore/resume re-dispatches the frontier under a fresh
        id, so reporting the purged weight would double-count it. Nothing
        can re-enter between the purges: credit grants are clock events.
        """
        engine = self.engine
        query_id = session.query_id
        if engine.trace is not None:
            engine.trace.emit(MEMO_CLEAR, query_id, pid=-1, site=reason)
            engine.trace.emit(QUERY_CLOSE, query_id, reason=reason)
        for runtime in engine.runtimes:
            runtime.memo_store.clear_query(query_id)
            w, n = self.purge_partition(runtime, query_id)
            self.reclaim(query_id, -1, w, n, report=False, session=session)
        for worker in engine.workers:
            w, n = worker.reclaim_query(query_id)
            self.reclaim(query_id, -1, w, n, report=False, session=session)
        self.inflight.pop(query_id, None)
        engine.progress.close_query(query_id)
        engine.sessions.pop(query_id, None)


class TrackerActor:
    """The centralized progress tracker / query coordinator CPU.

    A serial resource: progress and partial messages queue behind each
    other, which is exactly the bottleneck weight coalescing relieves.
    """

    def __init__(self, engine: "AsyncPSTMEngine") -> None:
        self.engine = engine
        self.free_at = 0.0
        self.messages_processed = 0

    def submit(self, msg: Message, at: float, cost_us: float) -> None:
        """Queue a message behind the tracker's serial CPU."""
        start = max(self.free_at, at)
        self.free_at = start + cost_us
        self.messages_processed += 1
        self.engine.clock.schedule_at(
            self.free_at, lambda m=msg: self.engine.tracker_handle(m)
        )

    def charge(self, at: float, cost_us: float) -> float:
        """Occupy the tracker CPU for ``cost_us``; returns completion time."""
        start = max(self.free_at, at)
        self.free_at = start + cost_us
        return self.free_at
