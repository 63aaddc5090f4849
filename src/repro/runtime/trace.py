"""Query-scoped tracing and the trace-driven weight-ledger auditor.

The observability plane (docs/OBSERVABILITY.md). A :class:`TraceRecorder`
is attached to the engine only when ``EngineConfig.trace`` is set; every
hook in the runtime guards on ``trace is not None``, so the disabled mode
allocates nothing on the hot path. Events are plain timestamped records —
lifecycle transitions, kernel executions, weight reclamations, tracker
reports, credit movements, network sends/retransmits, memo lifecycle —
appended in simulated-time order (the simulator is single-threaded, so the
event list is totally ordered for free).

Three consumers:

* :meth:`TraceRecorder.dump_jsonl` — one flat JSON object per line, for
  ``jq``-style offline analysis;
* :meth:`TraceRecorder.to_chrome_trace` — ``chrome://tracing`` / Perfetto
  JSON, kernel executions as duration spans keyed by partition (pid) and
  worker (tid);
* :class:`WeightLedgerAuditor` — replays a trace and re-derives the
  Theorem-1 progression-weight ledger *independently of the tracker*: for
  every ``(query, stage)`` it folds exec / reclaim / crash events into
  ``active + finished + reclaimed + lost ≡ 1 (mod 2^64)`` and, at stage
  close, checks both that no active weight survived and that the weight
  the tracker actually received (progress reports + reclaim reports) sums
  to the root weight.

This module is an observation *leaf*: it may not import the engine, the
delivery plane, or any other runtime layer (enforced by
``tools/check_layering.py``); hooks hand it plain values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.weight import GROUP_MODULUS, ROOT_WEIGHT

if TYPE_CHECKING:  # typing only; trace stays below every runtime layer
    from repro.runtime.metrics import RunMetrics
    from repro.runtime.simclock import SimClock

# -- event kinds -------------------------------------------------------------
# Stable string constants: exporters and the auditor match on these, and
# they appear verbatim in JSONL dumps (docs/OBSERVABILITY.md has the full
# taxonomy with per-kind payload fields).

RUN_CONFIG = "run_config"          # engine construction: mode/kernel/cluster
LIFECYCLE = "lifecycle"            # state-machine edge: src, dst, reason
STAGE_OPEN = "stage_open"          # ledger opened: stage
SEED_DISPATCH = "seed_dispatch"    # stage seeds sent: stage, n, weight
STAGE_CLOSE = "stage_close"        # stage, reason: terminated|cancelled|cancel_forced
QUERY_CLOSE = "query_close"        # reason: teardown|recover|restore|pause
CHECKPOINT = "checkpoint"          # stage-boundary snapshot: stage, n_seeds,
#                                    partitions, records
RESTORE = "restore"                # resumed from a checkpoint: stage,
#                                    restored_from (old attempt id), n_seeds
PREEMPT = "preempt"                # preempt requested: stage, reason
PAUSE = "pause"                    # evicted at a certified boundary: stage
#                                    (the resume point), n_seeds, records
RESUME = "resume"                  # paused query re-admitted: stage,
#                                    resumed_from (paused attempt id),
#                                    n_seeds, wait_us
EXEC = "exec"                      # kernel run: pid, wid, stage, op_idx, n,
#                                    spawned, w_in, w_fin[, w_out], cpu
WEIGHT_FLUSH = "weight_flush"      # coalesced accumulator flushed: wid, stage, weight
ACCUM_RECLAIM = "accum_reclaim"    # unflushed accumulator drained: wid, stage, weight
RECLAIM = "reclaim"                # delivery-plane reclaim: stage, weight, count, reported
CRASH_LOSS = "crash_loss"          # weight destroyed by a crash: wid, stage, weight, count
TRACKER_REPORT = "tracker_report"  # progress message at tracker: stage, tag, value
MEMO_ATTACH = "memo_attach"        # per-partition memo view created: pid
MEMO_CLEAR = "memo_clear"          # memos invalidated: pid (-1 = all), site
MSG_SEND = "msg_send"              # network send: src, dst, n, bytes
MSG_DELIVER = "msg_deliver"        # payload handed to delivery: n
MSG_RETRANSMIT = "msg_retransmit"  # RTO fired: src, dst, seq, attempts
MSG_FAULT = "msg_fault"            # injected packet fate: fault
CREDIT_ACQUIRE = "credit_acquire"  # inbox credits taken: pid, n
CREDIT_RELEASE = "credit_release"  # inbox credits returned: pid, n
CREDIT_STALL = "credit_stall"      # sender parked on a full inbox: pid, n
WORKER_FAULT = "worker_fault"      # injected worker fault: wid, kind
MIGRATE = "migrate"                # placement flip: vertices, pairs, bytes,
#                                    swept (traversers re-routed at the flip)
SNAPSHOT_PIN = "snapshot_pin"      # query pinned to a version cut: ts (the
#                                    node-cached LCT at admission)
TXN_BEGIN = "txn_begin"            # write txn began: txn, read_ts
TXN_COMMIT = "txn_commit"          # write txn committed: txn, commit_ts, ops
TXN_ABORT = "txn_abort"            # write txn aborted: txn, reason
#                                    (lock conflict or torn_commit)
VERSION_REPLAY = "version_replay"  # crash-recovery version scan: lct,
#                                    partitions, discarded

#: close reasons that certify a ledger actually closed (auditor asserts)
_CLOSED_REASONS = ("terminated", "cancelled")


class TraceEvent:
    """One structured trace record: ``ts`` (simulated µs), ``kind``,
    ``query_id`` (-1 when not attributable to one query), payload dict."""

    __slots__ = ("ts", "kind", "query_id", "data")

    def __init__(self, ts: float, kind: str, query_id: int,
                 data: Dict[str, Any]) -> None:
        self.ts = ts
        self.kind = kind
        self.query_id = query_id
        self.data = data

    def as_dict(self) -> Dict[str, Any]:
        """Flatten to one JSON-ready dict (payload keys promoted to top
        level; the JSONL exporter writes exactly this)."""
        out = {"ts": self.ts, "kind": self.kind, "query_id": self.query_id}
        out.update(self.data)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.ts:.1f}, {self.kind}, q{self.query_id}, {self.data})"


#: an event as recorded, or as re-read from a JSONL dump
TraceLike = Union[TraceEvent, Dict[str, Any]]


class TraceRecorder:
    """Collects :class:`TraceEvent` records in simulated-time order.

    Constructed once per engine; ``run_info`` keyword arguments become the
    leading :data:`RUN_CONFIG` event (progress mode, kernel, cluster shape)
    so a dumped trace is self-describing.
    """

    def __init__(self, clock: "SimClock", **run_info: Any) -> None:
        self._clock = clock
        self.events: List[TraceEvent] = []
        if run_info:
            self.emit(RUN_CONFIG, -1, **run_info)

    # -- recording ----------------------------------------------------------

    def emit(self, kind: str, query_id: int, **data: Any) -> None:
        """Append one event stamped with the current simulated time."""
        self.events.append(TraceEvent(self._clock.now, kind, query_id, data))

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        """Every recorded event of one kind, in simulated-time order."""
        return [ev for ev in self.events if ev.kind == kind]

    def for_query(self, query_id: int) -> List[TraceEvent]:
        """Every event attributed to one query, in simulated-time order."""
        return [ev for ev in self.events if ev.query_id == query_id]

    # -- exporters ----------------------------------------------------------

    def dump_jsonl(self, path: str,
                   metrics: Optional["RunMetrics"] = None) -> int:
        """Write one flat JSON object per event; when ``metrics`` is given a
        final ``{"kind": "run_metrics", ...}`` record carries the engine's
        counter snapshot. Returns the number of records written."""
        n = 0
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev.as_dict()))
                fh.write("\n")
                n += 1
            if metrics is not None:
                fh.write(json.dumps(
                    {"kind": "run_metrics", **metrics.snapshot()}))
                fh.write("\n")
                n += 1
        return n

    def to_chrome_trace(self) -> Dict[str, Any]:
        """``chrome://tracing`` JSON: kernel executions become complete
        ("X") duration spans on a (partition, worker) track; everything
        else becomes an instant event. Timestamps are simulated µs."""
        out: List[Dict[str, Any]] = []
        for ev in self.events:
            if ev.kind == EXEC:
                out.append({
                    "name": f"q{ev.query_id} op{ev.data.get('op_idx', '?')}",
                    "cat": "exec",
                    "ph": "X",
                    "ts": ev.ts,
                    "dur": ev.data.get("cpu", 0.0),
                    "pid": ev.data.get("pid", 0),
                    "tid": ev.data.get("wid", 0),
                    "args": ev.as_dict(),
                })
            else:
                out.append({
                    "name": ev.kind,
                    "cat": ev.kind,
                    "ph": "i",
                    "s": "g",
                    "ts": ev.ts,
                    "pid": ev.data.get("pid", 0),
                    "tid": ev.data.get("wid", 0),
                    "args": ev.as_dict(),
                })
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    def summary(self) -> Dict[int, Dict[str, Any]]:
        """Aggregate per-query view: event counts by kind plus the headline
        execution numbers (the per-query ``RunMetrics`` extension surfaced
        by ``python -m repro trace``)."""
        out: Dict[int, Dict[str, Any]] = {}
        for ev in self.events:
            row = out.setdefault(ev.query_id, {
                "events": 0, "kinds": {}, "traversers": 0, "spawned": 0,
                "reclaimed_count": 0, "cpu_us": 0.0,
            })
            row["events"] += 1
            row["kinds"][ev.kind] = row["kinds"].get(ev.kind, 0) + 1
            if ev.kind == EXEC:
                row["traversers"] += ev.data.get("n", 0)
                row["spawned"] += ev.data.get("spawned", 0)
                row["cpu_us"] += ev.data.get("cpu", 0.0)
            elif ev.kind == RECLAIM:
                row["reclaimed_count"] += ev.data.get("count", 0)
        return out


# -- the auditor -------------------------------------------------------------


class _StageLedger:
    """Re-derived Theorem-1 ledger for one (query, stage); all fields are
    group elements mod 2^64. ``tracker_sum`` independently accumulates what
    the *tracker* saw (progress reports + reclaim reports)."""

    __slots__ = ("active", "finished", "reclaimed", "lost", "tracker_sum")

    def __init__(self) -> None:
        self.active = ROOT_WEIGHT
        self.finished = 0
        self.reclaimed = 0
        self.lost = 0
        self.tracker_sum = 0


@dataclass
class AuditReport:
    """Outcome of one :meth:`WeightLedgerAuditor.audit` pass."""

    violations: List[str] = field(default_factory=list)
    events: int = 0
    checks: int = 0
    stages_opened: int = 0
    stages_closed: int = 0      # closed with the terminal invariants asserted
    stages_dropped: int = 0     # torn down without a closed ledger (crash paths)
    migrations: int = 0         # placement flips replayed (ledger re-checked)
    txn_commits: int = 0        # writer commits replayed (ledger re-checked)
    version_replays: int = 0    # crash-recovery version scans replayed

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        head = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (f"audit {head}: {self.events} events, {self.checks} invariant "
                f"checks, stages opened={self.stages_opened} "
                f"closed={self.stages_closed} dropped={self.stages_dropped}")


def _normalize(ev: TraceLike) -> Tuple[str, int, Dict[str, Any]]:
    if isinstance(ev, dict):
        return ev["kind"], ev.get("query_id", -1), ev
    return ev.kind, ev.query_id, ev.data


class WeightLedgerAuditor:
    """Replays a trace and re-derives the progression-weight ledger.

    Accepts :class:`TraceEvent` objects (``recorder.events``) or plain
    dicts (a re-read JSONL dump). The audit is independent of the engine's
    own :class:`~repro.core.progress.ProgressTracker`: it reconstructs each
    stage's ledger purely from kernel exec events, reclaim events and crash
    losses, and separately sums what the tracker was told, then checks

    * ``active + finished + reclaimed + lost ≡ ROOT_WEIGHT`` after every
      ledger-touching event (Theorem 1, extended with the reclamation and
      fault terms of PR2/PR3);
    * scalar exec events conserve weight exactly: ``w_in = w_out + w_fin``;
    * each stage's seed weights sum to the root weight;
    * at ``stage_close(terminated|cancelled)``: no active weight survives
      *and* the tracker independently received exactly the root weight;
    * no exec on a never-opened (or already-closed) stage, no reopen, and
      no stage left open at end of trace;
    * transaction-plane events are ledger-neutral: every open ledger still
      conserves the root weight across a writer commit and across a
      crash-recovery version scan (Theorem 1 is untouched by interleaved
      writers), and commit timestamps are strictly monotonic;
    * snapshot isolation: a query pins at most the last committed
      timestamp (``snapshot_pin.ts`` never exceeds the LCT implied by the
      ``txn_commit`` prefix), and no exec event cites a served version
      (``version_ts``) newer than its query's pinned snapshot.

    Naive-central traces carry no weight ledger and are rejected.
    """

    def __init__(self, events: Iterable[TraceLike]) -> None:
        self._events = list(events)

    def audit(self) -> AuditReport:
        """Replay the trace once and return the :class:`AuditReport`."""
        rep = AuditReport()
        stages: Dict[Tuple[int, int], _StageLedger] = {}
        pins: Dict[int, int] = {}  # query -> pinned snapshot timestamp
        lct_seen = 0               # LCT implied by the txn_commit prefix
        M = GROUP_MODULUS

        def violate(i: int, msg: str) -> None:
            rep.violations.append(f"event {i}: {msg}")

        def check(i: int, key: Tuple[int, int], st: _StageLedger) -> None:
            rep.checks += 1
            total = (st.active + st.finished + st.reclaimed + st.lost) % M
            if total != ROOT_WEIGHT % M:
                violate(i, f"stage {key}: active+finished+reclaimed+lost "
                           f"= {total} != {ROOT_WEIGHT} (mod 2^64)")

        for i, raw in enumerate(self._events):
            kind, qid, data = _normalize(raw)
            rep.events += 1

            if kind == RUN_CONFIG:
                if str(data.get("mode", "")).startswith("naive"):
                    raise ValueError(
                        "naive-central traces carry no weight ledger; "
                        "audit requires a weighted progress mode")

            elif kind == STAGE_OPEN:
                key = (qid, data["stage"])
                if key in stages:
                    violate(i, f"stage {key} opened twice")
                stages[key] = _StageLedger()
                rep.stages_opened += 1

            elif kind == SEED_DISPATCH:
                if data["weight"] % M != ROOT_WEIGHT % M:
                    violate(i, f"stage ({qid}, {data['stage']}) seeds carry "
                               f"weight {data['weight'] % M}, not the root "
                               f"weight {ROOT_WEIGHT}")

            elif kind == EXEC:
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is None:
                    violate(i, f"exec on unopened/closed stage {key}")
                    continue
                w_fin = data["w_fin"] % M
                st.active = (st.active - w_fin) % M
                st.finished = (st.finished + w_fin) % M
                if "w_out" in data and (
                        (data["w_out"] + w_fin - data["w_in"]) % M):
                    violate(i, f"stage {key}: split does not conserve "
                               f"weight (w_in={data['w_in'] % M}, "
                               f"w_out={data['w_out'] % M}, w_fin={w_fin})")
                if "version_ts" in data:
                    pin = pins.get(qid)
                    if pin is not None and data["version_ts"] > pin:
                        violate(i, f"query {qid} exec cites version "
                                   f"{data['version_ts']} newer than its "
                                   f"pinned snapshot {pin}")
                check(i, key, st)

            elif kind == ACCUM_RECLAIM:
                # Finished weight drained from an unflushed coalescing
                # accumulator: it never reached the tracker, and the worker
                # purge re-reports it through the reclaim funnel — move it
                # back to active so the reclaim event below balances.
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is not None:
                    w = data["weight"] % M
                    st.finished = (st.finished - w) % M
                    st.active = (st.active + w) % M
                    check(i, key, st)

            elif kind == RECLAIM:
                if not data.get("reported", False):
                    continue  # evict_attempt's report-free form: no ledger effect
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is None:
                    continue  # late reclaim; the tracker ignores it too
                w = data["weight"] % M
                st.active = (st.active - w) % M
                st.reclaimed = (st.reclaimed + w) % M
                st.tracker_sum = (st.tracker_sum + w) % M
                check(i, key, st)

            elif kind == CRASH_LOSS:
                key = (qid, data["stage"])
                st = stages.get(key)
                if st is not None:
                    w = data["weight"] % M
                    st.active = (st.active - w) % M
                    st.lost = (st.lost + w) % M
                    check(i, key, st)

            elif kind == TRACKER_REPORT:
                if data.get("tag") != "weight":
                    continue
                st = stages.get((qid, data["stage"]))
                if st is not None:
                    st.tracker_sum = (st.tracker_sum + data["value"]) % M

            elif kind == STAGE_CLOSE:
                key = (qid, data["stage"])
                st = stages.pop(key, None)
                reason = data.get("reason", "")
                if reason in _CLOSED_REASONS:
                    if st is None:
                        violate(i, f"stage {key} closed ({reason}) but was "
                                   f"never opened")
                        continue
                    if st.active % M:
                        violate(i, f"stage {key} closed ({reason}) with "
                                   f"active weight {st.active} outstanding")
                    if st.lost % M:
                        violate(i, f"stage {key} closed ({reason}) despite "
                                   f"crash-lost weight {st.lost}")
                    if st.tracker_sum % M != ROOT_WEIGHT % M:
                        violate(i, f"stage {key} closed ({reason}) but the "
                                   f"tracker received {st.tracker_sum}, not "
                                   f"the root weight {ROOT_WEIGHT}")
                    rep.stages_closed += 1
                else:
                    # cancel_forced: a crash destroyed the cancelling
                    # query's weight; the ledger never closes and the
                    # teardown below accounts for the remains. stage=-1
                    # marks a forced finalize with no ledger attached —
                    # the query's open stages are dropped by its
                    # teardown QUERY_CLOSE, so counting here would
                    # double-book the drop.
                    if st is not None:
                        rep.stages_dropped += 1

            elif kind == MIGRATE:
                # A placement flip is ledger-neutral: swept traversers are
                # re-routed (unreported reclaims), never dropped, so every
                # open ledger must still conserve the root weight across
                # the flip — re-assert all of them at the migration point.
                rep.migrations += 1
                for key, st in stages.items():
                    check(i, key, st)

            elif kind == SNAPSHOT_PIN:
                ts = data["ts"]
                if ts > lct_seen:
                    violate(i, f"query {qid} pinned snapshot {ts} beyond "
                               f"the last committed timestamp {lct_seen} "
                               f"(uncommitted/future version exposed)")
                pins[qid] = ts

            elif kind == TXN_COMMIT:
                commit_ts = data["commit_ts"]
                if commit_ts <= lct_seen:
                    violate(i, f"txn commit_ts {commit_ts} not strictly "
                               f"monotonic (LCT already {lct_seen})")
                lct_seen = commit_ts
                rep.txn_commits += 1
                # Writers are ledger-neutral: a commit moves versions, never
                # traversal weight — re-assert every open ledger at the
                # commit point (Theorem 1 under writer interleavings).
                for key, st in stages.items():
                    check(i, key, st)

            elif kind == VERSION_REPLAY:
                # Recovery's version scan discards torn (post-LCT) versions;
                # it must leave every open traversal ledger untouched.
                rep.version_replays += 1
                for key, st in stages.items():
                    check(i, key, st)

            elif kind == QUERY_CLOSE:
                for key in [k for k in stages if k[0] == qid]:
                    del stages[key]
                    rep.stages_dropped += 1

        for key in sorted(stages):
            rep.violations.append(
                f"end of trace: stage {key} still open (no stage_close or "
                f"query_close event)")
        return rep
