"""Per-layer spans for the traced benchmark run.

:class:`Tracer` replaces the public entry point of each layer with a thin
wrapper that records one span per call: name, wall start, wall end, the
enclosing span and, where the call carries one, the query id. Spans live
in flat arrays while the run lasts and are written out once at the end.
Nothing is installed unless :meth:`Tracer.install` is called, and
:meth:`Tracer.uninstall` puts every original attribute back, so untraced
runs execute the program exactly as shipped.

A span's *self time* is its duration minus the durations of its direct
child spans: wall time spent in that layer's own code, not in another
wrapped layer it called.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchstats import ratio
from repro.datasets import synthetic
from repro.graph.partition import PartitionedGraph
from repro.ldbc import generator
from repro.query.traversal import Traversal
from repro.runtime.checkpoint import CheckpointPlane
from repro.runtime.delivery import DeliveryPlane, TrackerActor
from repro.runtime.engine import AsyncPSTMEngine
from repro.runtime.faults import RecoveryManager
from repro.runtime.kernels import BatchKernel, ScalarKernel
from repro.runtime.metrics import MsgKind
from repro.runtime.migrate import Migrator, TrafficMiner
from repro.runtime.network import Network
from repro.runtime.simclock import SimClock
from repro.runtime.txnplane import TxnPlane
from repro.runtime.vector import VectorKernel
from repro.runtime.worker import Worker

QidFn = Callable[..., int]


def _msg_qid(_self, msg, *_a, **_k) -> int:
    return msg.query_id


def _session_qid(_self, _engine, session, *_a, **_k) -> int:
    return session.query_id


def _restore_qid(_self, session, *_a, **_k) -> int:
    return session.query_id


class Tracer:
    """Span recorder plus the side counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.qid = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_started = 0.0
        #: Σ cost_us handed to TrackerActor.submit / charge
        self.tracker_cost_us = 0.0
        #: wid -> Σ cost_us handed to Worker.add_setup_cost
        self.setup_cost_us: Dict[int, float] = {}
        #: distinct (plane, pid, ts) snapshot views asked of store_for
        self._views: set = set()
        #: most checkpoints held at once, read after every maybe_snapshot
        self.checkpoints_stored_peak = 0
        self.gc_s = 0.0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        span = self._patch
        span(generator, "generate_snb", "ldbc.generator")
        span(synthetic, "powerlaw_graph", "datasets.synthetic")
        span(PartitionedGraph, "from_graph", "graph.partition")
        span(Traversal, "compile", "query.compiler")
        span(AsyncPSTMEngine, "submit", "engine.submit",
             qid_out=lambda session: session.query_id)
        span(SimClock, "run_until_idle", "simclock")
        for kernel in (ScalarKernel, BatchKernel, VectorKernel):
            span(kernel, "drain", "kernels.drain")
        span(DeliveryPlane, "deliver", "delivery.deliver", qid_in=_msg_qid)
        span(Network, "send", "network.send")
        span(TrackerActor, "submit", "tracker.submit", qid_in=_msg_qid,
             before=self._tracker_submit)
        span(TrackerActor, "charge", "tracker.charge",
             before=self._tracker_charge)
        span(Worker, "add_setup_cost", "worker.add_setup_cost",
             before=self._setup_cost)
        span(TxnPlane, "apply_update", "txnplane.apply_update")
        span(TxnPlane, "store_for", "txnplane.store_for",
             before=self._store_for)
        span(CheckpointPlane, "maybe_snapshot", "checkpoint.maybe_snapshot",
             qid_in=_session_qid, after=self._snapshot_taken)
        span(RecoveryManager, "restore_query", "faults.restore_query",
             qid_in=_restore_qid)
        span(TrafficMiner, "mine", "migrate.mine")
        span(Migrator, "migrate", "migrate.migrate")
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        qid_in: Optional[QidFn] = None,
        qid_out: Optional[Callable[[Any], int]] = None,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, qids, stack = self.parent, self.qid, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            qids.append(qid_in(*args, **kwargs) if qid_in is not None else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if qid_out is not None:
                qids[idx] = qid_out(result)
            if after is not None:
                after(*args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    # -- side counters ---------------------------------------------------------

    def _tracker_submit(self, _actor, _msg, _at, cost_us) -> None:
        self.tracker_cost_us += cost_us

    def _tracker_charge(self, _actor, _at, cost_us) -> None:
        self.tracker_cost_us += cost_us

    def _setup_cost(self, worker, _now, cost_us) -> None:
        self.setup_cost_us[worker.wid] = (
            self.setup_cost_us.get(worker.wid, 0.0) + cost_us
        )

    def _store_for(self, plane, pid, ts) -> None:
        self._views.add((id(plane), pid, ts))

    def _snapshot_taken(self, plane, *_a, **_k) -> None:
        self.checkpoints_stored_peak = max(
            self.checkpoints_stored_peak, plane.stored
        )

    def _gc_callback(self, phase: str, _info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started:
            self.gc_s += time.perf_counter() - self._gc_started
            self._gc_started = 0.0

    @property
    def views_built(self) -> int:
        """Distinct snapshot views the transaction plane was asked for."""
        return len(self._views)

    # -- read-out ----------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        names, name_ids = self.names, self.name_id
        for i in range(n):
            row = out[names[name_ids[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def dump(self, path: str) -> int:
        """Write every span as gzipped JSON lines; returns the span count.

        The first line names the fields; each further line is
        ``[name, start_s, end_s, parent_index, query_id]`` with the parent
        index pointing at an earlier line (-1 for a root span).
        """
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s",
                                            "parent", "query_id"]}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(json.dumps([names[self.name_id[i]], self.start[i],
                                     self.end[i], self.parent[i],
                                     self.qid[i]]) + "\n")
        return len(self.start)


def layer_metrics(
    tracer: Tracer, legs: List[Any], untraced_wall_s: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by its BENCHMARK.json name.

    ``legs`` are the traced legs, each still holding its engine; the
    program's own counters (``RunMetrics``, clock, tracker, workers) are
    summed over them, and wrapper spans give calls and self seconds.
    Layers a workload never reaches read 0.
    """
    totals = tracer.layer_totals()

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    ops = sum(leg.ops for leg in legs)
    span_us = sum(leg.span_us for leg in legs)
    runs = [leg.engine.metrics for leg in legs]

    def metric(field: str) -> float:
        return sum(getattr(m, field) for m in runs)

    def messages(kind) -> int:
        return sum(m.message_count(kind) for m in runs)

    busy: Dict[int, float] = {}
    for leg in legs:
        for worker in leg.engine.workers:
            busy[worker.wid] = busy.get(worker.wid, 0.0) + worker.busy_total
    for wid, cost in tracer.setup_cost_us.items():
        busy[wid] = busy.get(wid, 0.0) + cost
    fractions = [ratio(b, span_us) for b in busy.values()] or [0.0]
    busy_mean = sum(fractions) / len(fractions)
    cuts = [leg.engine.graph.cut_stats() for leg in legs]
    steps = metric("steps_executed")
    commits, aborts = metric("txn_commits"), metric("txn_aborts")
    restores, fallbacks = metric("checkpoint_restores"), metric("checkpoint_fallbacks")
    traced_wall = sum(leg.wall_s for leg in legs)
    return {
        "ldbc.generator.s": self_s("ldbc.generator"),
        "datasets.synthetic.s": self_s("datasets.synthetic"),
        "graph.partition.s": self_s("graph.partition"),
        "query.compiler.s": self_s("query.compiler"),
        "engine.submit.calls": calls("engine.submit"),
        "engine.submit.s": self_s("engine.submit"),
        "simclock.events": sum(leg.engine.clock.events_run for leg in legs),
        "simclock.events_per_op": ratio(
            sum(leg.engine.clock.events_run for leg in legs), ops),
        "simclock.self_s": self_s("simclock"),
        "kernels.drain.calls": calls("kernels.drain"),
        "kernels.drain.s": self_s("kernels.drain"),
        "kernels.us_per_step": ratio(self_s("kernels.drain") * 1e6, steps),
        "core.steps.steps_per_op": ratio(steps, ops),
        "core.steps.spawned_per_op": ratio(metric("traversers_spawned"), ops),
        "core.steps.edges_per_op": ratio(metric("edges_scanned"), ops),
        "core.memo.ops_per_op": ratio(metric("memo_ops"), ops),
        "worker.busy_mean": busy_mean,
        "worker.busy_max": max(fractions),
        "worker.imbalance": ratio(max(fractions), busy_mean),
        "delivery.deliver.calls": calls("delivery.deliver"),
        "delivery.deliver.s": self_s("delivery.deliver"),
        "delivery.local_frac": ratio(metric("local_deliveries"),
                                      calls("delivery.deliver")),
        "network.send.calls": calls("network.send"),
        "network.send.s": self_s("network.send"),
        "network.packets_per_op": ratio(metric("packets_sent"), ops),
        "network.bytes_per_op": ratio(metric("bytes_sent"), ops),
        "network.traverser_msgs_per_op": ratio(messages(MsgKind.TRAVERSER), ops),
        "network.progress_msgs_per_op": ratio(messages(MsgKind.PROGRESS), ops),
        "network.flushes_per_op": ratio(metric("flushes"), ops),
        "network.retransmits": metric("retransmits"),
        "tracker.msgs_per_op": ratio(
            sum(leg.engine.tracker.messages_processed for leg in legs), ops),
        "tracker.busy": ratio(tracer.tracker_cost_us, span_us),
        "txnplane.apply_update.calls": calls("txnplane.apply_update"),
        "txnplane.apply_update.s": self_s("txnplane.apply_update"),
        "txn.commits": commits,
        "txn.abort_frac": ratio(aborts, commits + aborts),
        "txnplane.updates_deferred": sum(
            leg.engine.txnplane.updates_deferred for leg in legs
            if leg.engine.txnplane is not None),
        "txnplane.store_for.calls": calls("txnplane.store_for"),
        "txnplane.views_built": tracer.views_built,
        "checkpoint.maybe_snapshot.calls": calls("checkpoint.maybe_snapshot"),
        "checkpoint.maybe_snapshot.s": self_s("checkpoint.maybe_snapshot"),
        "checkpoint.taken": metric("checkpoints_taken"),
        "checkpoint.stored_peak": tracer.checkpoints_stored_peak,
        "faults.crashes": metric("worker_crashes"),
        "faults.restores": restores,
        "faults.fallbacks": fallbacks,
        "faults.restore_frac": ratio(restores, restores + fallbacks),
        "faults.retries": metric("query_retries"),
        "migrate.mine.s": self_s("migrate.mine"),
        "migrate.migrate.s": self_s("migrate.migrate"),
        "migrate.vertices": metric("vertices_migrated"),
        "migrate.bytes": metric("migration_bytes"),
        "migrate.forwarded": metric("traversers_forwarded"),
        "placement.cut_fraction": sum(c["cut_fraction"] for c in cuts) / len(cuts),
        "placement.size_imbalance": sum(c["imbalance"] for c in cuts) / len(cuts),
        "gc.s": tracer.gc_s,
        "process.cpu_s": sum(leg.cpu_s for leg in legs),
        "trace.overhead": ratio(traced_wall, untraced_wall_s) - 1.0,
    }
