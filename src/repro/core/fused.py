"""Fused physical operators produced by the plan-level fusion pass.

The fusion pass (:mod:`repro.query.fusion`) collapses short operator
chains into single fused ops so a run never materializes the intermediate
frontier: the fused op applies the whole chain per traverser and only
emits the survivors (or, for sinks, nothing at all — survivors are folded
directly into the downstream barrier's partition-local partial). The
k-hop frontier ops fold the same way: :class:`FusedMinDistCount` counts
admissions in place, and :class:`FusedMinDistChain` with a pushable
barrier folds exit-chain survivors into it, so an admitted traverser
keeps only its loop continuation.

A fused plan is a *different* plan from its unfused source: simulated
timings and traverser counts legitimately differ (that is the point).
The contracts that do hold, and that the equivalence suites assert:

* **result equivalence** — a fused plan produces exactly the same result
  rows as the unfused plan it was derived from;
* **kernel equivalence** — on the *same* fused plan, the scalar, batch,
  and vector kernels produce bit-for-bit identical simulated output, so
  every fused op's ``apply`` and ``apply_batch`` must be observationally
  identical (children order, per-traverser cost counts, memo effects).

Fusion legality notes (enforced by the pass, relied on here):

* chains only fuse when every intermediate hop would have executed on the
  partition the fused op runs on — e.g. expand→expand only fuses on an
  unpartitioned store, and expand→filter only when the filter is
  payload-only (``needs_vertex=False``);
* sinks and frontier folds absorb into the *original* barrier's memo
  label, and the barrier op itself stays in the plan at its index, so
  stage-termination partial gathering (which reads the barrier op, on
  every partition) is unchanged;
* a fold prices each absorbed row as the barrier step it replaces
  (+1 base, +1 memo op) and folds through the barrier's own ``absorb``
  (scalar) or one bulk ``apply_batch`` per run (batched), which fold
  rows in the same order with the same partial updates;
* replaced ops keep their plan index and jump targets, so other ops that
  jump *into* the middle of a fused chain still execute the original
  (unreplaced) intermediate ops.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.steps import (
    AggregateOp,
    BatchOutcome,
    ChildSpec,
    DedupOp,
    ExpandOp,
    FilterOp,
    MinDistBranchOp,
    PhysicalOp,
    ProjectOp,
    StepContext,
    StepOutcome,
    VertexRoutedOp,
    _NO_CHILDREN,
)
from repro.core.traverser import Traverser
from repro.graph.partition import HashPartitioner

__all__ = [
    "FusedMinDistCount",
    "FusedMinDistChain",
    "FusedCountSink",
    "FusedCollectSink",
    "FusedGroupCountSink",
    "FusedChain",
    "FusedExpandFilter",
    "FusedExpandExpand",
]

#: Shared cost tuples of :class:`FusedMinDistCount` (identity-cached by
#: the batched kernels like ``_EXPAND_COSTS``).
_FUSED_PRUNE: Tuple[int, int, int, int] = (1, 0, 1, 0)
_FUSED_ADMIT: Tuple[int, int, int, int] = (2, 0, 2, 0)


def _add(a: int, b: int) -> int:
    return a + b


class FusedMinDistCount(VertexRoutedOp):
    """``MinDistBranch`` whose exit chain ends at a ``count()`` barrier
    (the k-hop counting plan's hot loop, paper Fig 5 + Fig 6 fused).

    Instead of spawning an exit child that travels to the barrier just to
    bump a counter, an admitted traverser bumps the partition-local count
    partial in place and only the loop continuation (when ``d < k``) is
    materialized — with the *full* parent weight (no split, no RNG draw),
    since there is no sibling. Count partials are gathered from every
    partition at stage termination, so absorbing at the branch's home
    partition instead of the barrier's routed home is result-identical.

    Two exit shapes fuse:

    * ``exit → Count`` — every admitted (improving) traverser counts;
    * ``exit → Dedup(vertex) → Count`` (the ``khop().count()`` lowering,
      ``count_first=True``) — only the *first* admission of each vertex
      counts. Exact because a vertex-keyed dedup deduplicates exactly the
      vertices whose distance entry already exists, and both the branch
      memo and the dedup table live at the vertex's home partition.
    """

    def __init__(
        self,
        branch: MinDistBranchOp,
        agg: AggregateOp,
        count_first: bool = False,
    ) -> None:
        suffix = "+dedup" if count_first else ""
        super().__init__(f"FusedMinDistCount(k={branch.max_dist}{suffix})")
        self.dist_slot = branch.dist_slot
        self.max_dist = branch.max_dist
        self.memo_label = branch.memo_label
        self.agg_label = agg.memo_label()
        self.count_first = count_first
        self.loop_idx = branch.loop_idx
        self.exit_idx = branch.exit_idx  # kept for plan validation/dumps
        self.stage = branch.stage

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        out.cost.memo_ops += 1
        dist = trav.payload[self.dist_slot]
        tbl = ctx.memo.table(self.memo_label)
        vertex = trav.vertex
        old = tbl.get(vertex)
        if old is not None and dist >= old:
            return out  # pruned: an earlier traverser got here no later
        tbl[vertex] = dist
        out.cost.base += 1
        out.cost.memo_ops += 1
        if old is None or not self.count_first:
            ctx.memo.accumulate(self.agg_label, "partial", 1, _add)
        if dist < self.max_dist:
            out.child(trav.vertex, self.loop_idx, trav.payload, trav.loops)
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        append = children.append
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        tbl = ctx.memo.table(self.memo_label)
        tbl_get = tbl.get
        dist_slot = self.dist_slot
        max_dist = self.max_dist
        loop_idx = self.loop_idx
        count_first = self.count_first
        counted = 0
        for trav in travs:
            dist = trav.payload[dist_slot]
            vertex = trav.vertex
            old = tbl_get(vertex)
            if old is not None and dist >= old:
                append(_NO_CHILDREN)
                cost_append(_FUSED_PRUNE)
                continue
            tbl[vertex] = dist
            if old is None or not count_first:
                counted += 1
            cost_append(_FUSED_ADMIT)
            if dist < max_dist:
                append([(vertex, loop_idx, trav.payload, trav.loops)])
            else:
                append(_NO_CHILDREN)
        if counted:
            atbl = ctx.memo.table(self.agg_label)
            atbl["partial"] = atbl.get("partial", 0) + counted
        return BatchOutcome(children, costs)


class FusedCountSink(PhysicalOp):
    """Any single-successor op whose children all feed a ``count()``
    barrier: apply the inner op, count its children into the partition
    partial, emit nothing.

    Works for Expand, Filter, Dedup, Project — and for already-fused
    inner ops like :class:`FusedExpandFilter` (giving the full
    expand→filter→count collapse of one chain into one op).
    """

    def __init__(self, inner: PhysicalOp, agg: AggregateOp) -> None:
        super().__init__(f"Fused({inner.name}+Count)")
        self.inner = inner
        self.agg_label = agg.memo_label()
        self.routing_mode = inner.routing_mode
        self.next_idx = inner.next_idx  # validation only; never spawned to
        self.stage = inner.stage

    def routing(self, partitioner: HashPartitioner, trav: Traverser):
        return self.inner.routing(partitioner, trav)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = self.inner.apply(ctx, trav)
        n = len(out.children)
        if n:
            ctx.memo.accumulate(self.agg_label, "partial", n, _add)
            out.children = []
        out.cost.base += 1
        out.cost.memo_ops += 1
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        outc = self.inner.apply_batch(ctx, travs)
        total = 0
        for specs in outc.children:
            total += len(specs)
        if total:
            atbl = ctx.memo.table(self.agg_label)
            atbl["partial"] = atbl.get("partial", 0) + total
        # Bump each cost tuple by the absorb (+1 base, +1 memo op),
        # preserving tuple sharing so the kernels' identity cost caches
        # keep hitting.
        bumped = {}
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        for ct in outc.costs:
            nt = bumped.get(id(ct))
            if nt is None:
                nt = (ct[0] + 1, ct[1], ct[2] + 1, ct[3])
                bumped[id(ct)] = nt
            cost_append(nt)
        n = len(travs)
        return BatchOutcome([_NO_CHILDREN] * n, costs)


class _FusedAbsorbSink(PhysicalOp):
    """Shared machinery of the aggregation-pushdown sinks: apply the
    inner op, fold each surviving child row into the partition-local
    partial of the downstream barrier (via its own ``absorb``), emit
    nothing. Cost accounting mirrors :class:`FusedCountSink`: every
    inner cost tuple is bumped by the absorb (+1 base, +1 memo op),
    preserving tuple sharing for the kernels' identity cost caches.
    """

    def __init__(self, inner: PhysicalOp, agg: AggregateOp, tag: str) -> None:
        super().__init__(f"Fused({inner.name}+{tag})")
        self.inner = inner
        self.agg = agg
        self.routing_mode = inner.routing_mode
        self.next_idx = inner.next_idx  # validation only; never spawned to
        self.stage = inner.stage
        # Chain inners take a direct-walk batch path: the links are walked
        # here and survivors folded straight into the barrier partial,
        # skipping the intermediate child-spec lists. The bumped prefix
        # tuples are precomputed (and shared across runs) so the slim
        # kernels' identity cost caches keep hitting.
        if type(inner) is FusedChain:
            self._chain_links = inner._links
            self._chain_bumped = [
                (b + 1, e, m + 1, p) for (b, e, m, p) in inner._prefix
            ]
        else:
            self._chain_links = None
            self._chain_bumped = None

    def routing(self, partitioner: HashPartitioner, trav: Traverser):
        return self.inner.routing(partitioner, trav)

    def _absorb_specs(
        self, ctx: StepContext, query_id: int, stage: int, specs
    ) -> None:
        absorb = self.agg.absorb
        probe = Traverser(query_id, -1, 0, (), 0, stage, 0)
        for vertex, _ix, payload, loops in specs:
            probe.vertex = vertex
            probe.payload = payload
            probe.loops = loops
            absorb(ctx, probe)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = self.inner.apply(ctx, trav)
        if out.children:
            self._absorb_specs(ctx, trav.query_id, trav.stage, out.children)
            out.children = []
        out.cost.base += 1
        out.cost.memo_ops += 1
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        links = self._chain_links
        if links is not None:
            return self._chain_absorb_run(ctx, travs)
        outc = self.inner.apply_batch(ctx, travs)
        qid = travs[0].query_id
        stage = travs[0].stage
        # One bulk fold for the whole run: the barrier's own apply_batch
        # fetches the partial once and folds rows in the same order (and
        # with the same push/pop sequence) as per-row absorb would.
        probes = [
            Traverser(qid, vertex, 0, payload, 0, stage, loops)
            for specs in outc.children
            for vertex, _ix, payload, loops in specs
        ]
        if probes:
            self.agg.apply_batch(ctx, probes)
        bumped = {}
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        for ct in outc.costs:
            nt = bumped.get(id(ct))
            if nt is None:
                nt = (ct[0] + 1, ct[1], ct[2] + 1, ct[3])
                bumped[id(ct)] = nt
            cost_append(nt)
        return BatchOutcome([_NO_CHILDREN] * len(travs), costs)

    def _chain_absorb_run(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        """Direct-walk batch path for ``FusedChain`` inners: the chain
        links run inline (same link semantics and drop pricing as
        :meth:`FusedChain.apply_batch`) and survivors fold straight into
        the barrier partial via one bulk ``apply_batch`` — no per-survivor
        child-spec lists, no second pass over the costs."""
        links = self._chain_links
        bumped = self._chain_bumped
        full = bumped[-1]
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        probes: List[Traverser] = []
        probe_append = probes.append
        memo = ctx.memo
        insert_if_absent = memo.insert_if_absent
        walk = Traverser(0, -1, self.next_idx, (), 0, self.stage, 0)
        for trav in travs:
            payload = trav.payload
            walk.query_id = trav.query_id
            walk.vertex = trav.vertex
            walk.payload = payload
            walk.loops = trav.loops
            for j, link in enumerate(links):
                kind = link[0]
                if kind == "p":
                    pl = list(payload)
                    for slot, expr in link[1]:
                        pl[slot] = expr(ctx, walk)
                    payload = tuple(pl)
                    walk.payload = payload
                elif kind == "f":
                    if not link[1](ctx, walk):
                        cost_append(bumped[j])
                        break
                elif not insert_if_absent(link[1], trav.vertex):
                    cost_append(bumped[j])
                    break
            else:
                cost_append(full)
                probe_append(
                    Traverser(
                        trav.query_id, trav.vertex, 0, payload, 0,
                        trav.stage, trav.loops,
                    )
                )
        if probes:
            self.agg.apply_batch(ctx, probes)
        return BatchOutcome([_NO_CHILDREN] * len(travs), costs)


class FusedCollectSink(_FusedAbsorbSink):
    """Any single-successor op whose children all feed an *ordered*
    ``Collect`` barrier with a totally-ordered sort key: the classic
    distributed top-N pushdown — partial top-N below the exchange,
    merged at stage termination by the barrier's own ``combine``.

    Legality is gated by a tie-free sort key
    (:attr:`CollectAgg.unique_order`: the query declared
    ``order_by(..., unique=True)``, or every selected column is a bare
    binding term of the key, so equal keys mean equal rows):
    :meth:`CollectAgg.combine` sorts merged rows by the order key alone,
    so when distinct rows never tie, which partition absorbed a row (and
    in what arrival order) cannot change the final top-N. Otherwise ties
    at the cutoff resolve by barrier-arrival order, which pushdown does
    not preserve — the fusion pass skips those plans.
    """

    def __init__(self, inner: PhysicalOp, agg: AggregateOp) -> None:
        super().__init__(inner, agg, "Collect")


class FusedGroupCountSink(_FusedAbsorbSink):
    """Any single-successor op whose children all feed a ``groupCount``
    barrier. Unconditionally sound (unlike the collect pushdown):
    per-key counts merge by addition — commutative and associative —
    and the barrier's finalize orders groups by ``(-count, key)``, so
    absorption partition and order are unobservable in the result.
    """

    def __init__(self, inner: PhysicalOp, agg: AggregateOp) -> None:
        super().__init__(inner, agg, "GroupCount")


class FusedChain(PhysicalOp):
    """A run of consecutive unary, vertex-preserving ops — ``Filter``,
    ``Project``, vertex-keyed ``Dedup`` — applied in sequence per
    traverser, without materializing the intermediate hops.

    All three op kinds pass ``trav.vertex`` through unchanged, so the
    whole chain can execute at one partition. The fused op routes by
    vertex when *any* link needs the vertex's partition (property reads,
    the vertex dedup memo) — exact, because the vertex never changes —
    and stays free-routed otherwise. Custom-keyed dedups route by key
    hash and are excluded by the fusion pass (their memo must shard by
    key, not by vertex).

    A traverser dropped at link *j* (failed filter, duplicate key) is
    priced for links ``0..j``; survivors for the whole chain. The prefix
    cost tuples are precomputed and shared so the batched kernels'
    identity cost caches keep hitting.
    """

    def __init__(self, subs: Sequence[PhysicalOp]) -> None:
        super().__init__("Chain(" + "+".join(s.name for s in subs) + ")")
        self.subs = list(subs)
        self.next_idx = subs[-1].next_idx
        self.stage = subs[0].stage
        self.routing_mode = (
            "vertex"
            if any(s.routing_mode == "vertex" for s in subs)
            else subs[0].routing_mode
        )
        links: List[Tuple[Any, ...]] = []
        prefix: List[Tuple[int, int, int, int]] = []
        base = memo = props = 0
        for s in subs:
            t = type(s)
            base += 1
            if t is FilterOp:
                links.append(("f", s.predicate))
                props += 1
            elif t is ProjectOp:
                links.append(("p", list(s.assignments)))
                props += len(s.assignments)
            else:
                # Vertex-keyed DedupOp: the fusion pass only admits
                # ``routing_mode == "vertex"``, which implies the default
                # ``trav.vertex`` key — so the key_fn call is elided.
                links.append(("d", s.memo_label))
                memo += 1
            prefix.append((base, 0, memo, props))
        self._links = links
        self._prefix = prefix

    def routing(self, partitioner: HashPartitioner, trav: Traverser):
        if self.routing_mode == "vertex":
            return partitioner(trav.vertex)
        return None

    def _walk(
        self, ctx: StepContext, trav: Traverser
    ) -> Tuple[Tuple[int, int, int, int], Optional[Tuple[Any, ...]]]:
        """Run the chain for one traverser: (cost tuple, payload | None)."""
        payload = trav.payload
        probe = Traverser(
            trav.query_id, trav.vertex, self.next_idx, payload, 0,
            trav.stage, trav.loops,
        )
        memo = ctx.memo
        for j, link in enumerate(self._links):
            kind = link[0]
            if kind == "p":
                pl = list(payload)
                for slot, expr in link[1]:
                    pl[slot] = expr(ctx, probe)
                payload = tuple(pl)
                probe.payload = payload
            elif kind == "f":
                if not link[1](ctx, probe):
                    return self._prefix[j], None
            elif not memo.insert_if_absent(link[1], trav.vertex):
                return self._prefix[j], None
        return self._prefix[-1], payload

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        ct, payload = self._walk(ctx, trav)
        cost = out.cost
        cost.base = ct[0]
        cost.memo_ops = ct[2]
        cost.props = ct[3]
        if payload is not None:
            out.child(trav.vertex, self.next_idx, payload, trav.loops)
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        # Inlined :meth:`_walk` with one probe object reused across the
        # whole batch (constructing a Traverser per link evaluation is the
        # chain's main overhead at batch sizes).
        children: List[List[ChildSpec]] = []
        append = children.append
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        links = self._links
        prefix = self._prefix
        full = prefix[-1]
        nxt = self.next_idx
        memo = ctx.memo
        insert_if_absent = memo.insert_if_absent
        probe = Traverser(0, -1, nxt, (), 0, self.stage, 0)
        for trav in travs:
            payload = trav.payload
            probe.query_id = trav.query_id
            probe.vertex = trav.vertex
            probe.payload = payload
            probe.loops = trav.loops
            for j, link in enumerate(links):
                kind = link[0]
                if kind == "p":
                    pl = list(payload)
                    for slot, expr in link[1]:
                        pl[slot] = expr(ctx, probe)
                    payload = tuple(pl)
                    probe.payload = payload
                elif kind == "f":
                    if not link[1](ctx, probe):
                        cost_append(prefix[j])
                        append(_NO_CHILDREN)
                        break
                elif not insert_if_absent(link[1], trav.vertex):
                    cost_append(prefix[j])
                    append(_NO_CHILDREN)
                    break
            else:
                cost_append(full)
                append([(trav.vertex, nxt, payload, trav.loops)])
        return BatchOutcome(children, costs)


class FusedMinDistChain(VertexRoutedOp):
    """``MinDistBranch`` with its exit chain applied inline — the k-hop
    *frontier* hot loop of plans that post-process k-hop results rather
    than counting them. The chain's successor is absorbed too when it is
    a plain same-vertex ``Expand`` or a pushable aggregation barrier.

    The unfused lowering makes every admission spawn an exit child that
    hops through ``Dedup``/``Filter``/``Project`` ops at the same
    partition before leaving the loop. Those local hops interleave with
    the loop's expand children in the partition queue and shatter the
    batched kernels' homogeneous runs. Inlining the chain (all links are
    vertex-preserving, and the branch memo, dedup table, and vertex
    properties all live at the vertex's home partition) emits the chain
    *survivor* directly at the chain successor, and:

    * when the successor is a plain same-vertex ``Expand`` (``expand``),
      its adjacency is also local, so the survivor's expansion children
      are emitted directly;
    * when the successor is a barrier the fusion pass may push down
      (``agg``: ``Count``, ``GroupCount``, or a tie-free ordered
      ``Collect``), the survivor is folded into the barrier's
      partition-local partial — one bulk ``apply_batch`` per run, priced
      +1 base / +1 memo op like the barrier step it replaces — so an
      admitted traverser keeps only its loop child, at full weight and
      with no RNG draw. Partials are gathered from every partition at
      stage termination, exactly as for the pushdown sinks.

    Result-exactness of inlining the dedup links: every exit child routes
    to the chain head at its own vertex's partition via the local FIFO
    queue, so the first-arriving exit for a vertex is the first branch
    admission — exactly the traverser the inline dedup admits. The fusion
    pass additionally requires the chain ops to have no other
    predecessors, so no foreign traverser can race the shared memo label.
    """

    def __init__(
        self,
        branch: MinDistBranchOp,
        chain: FusedChain,
        expand: Optional[ExpandOp] = None,
        agg: Optional[AggregateOp] = None,
    ) -> None:
        assert expand is None or agg is None
        tail = expand if expand is not None else agg
        suffix = f"+{tail.name}" if tail is not None else ""
        super().__init__(f"Fused({branch.name}+{chain.name}{suffix})")
        self.dist_slot = branch.dist_slot
        self.max_dist = branch.max_dist
        self.memo_label = branch.memo_label
        self.loop_idx = branch.loop_idx
        self.exit_idx = branch.exit_idx  # kept for plan validation/dumps
        self.stage = branch.stage
        self.expand = expand
        self.agg = agg
        # With a folded barrier, next_idx is validation only (never
        # spawned to), like the pushdown sinks'.
        self.next_idx = (
            expand.next_idx if expand is not None else chain.next_idx
        )
        self._links = chain._links
        # Chain prefixes shifted by the branch's own cost (+1 base,
        # +1 memo op); dropped-at-link-j exits price links 0..j.
        self._prefix = [
            (b + 1, e, m + 1, p) for b, e, m, p in chain._prefix
        ]
        # A folded survivor also pays the barrier step (+1 base, +1 memo).
        b, e, m, p = self._prefix[-1]
        self._folded = (b + 1, e, m + 1, p)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        cost = out.cost
        dist = trav.payload[self.dist_slot]
        vertex = trav.vertex
        tbl = ctx.memo.table(self.memo_label)
        old = tbl.get(vertex)
        if old is not None and dist >= old:
            cost.memo_ops += 1
            return out  # pruned
        tbl[vertex] = dist
        payload = trav.payload
        probe = Traverser(
            trav.query_id, vertex, self.next_idx, payload, 0,
            trav.stage, trav.loops,
        )
        memo = ctx.memo
        ct = self._prefix[-1]
        for j, link in enumerate(self._links):
            kind = link[0]
            if kind == "p":
                pl = list(payload)
                for slot, expr in link[1]:
                    pl[slot] = expr(ctx, probe)
                payload = tuple(pl)
                probe.payload = payload
            elif kind == "f":
                if not link[1](ctx, probe):
                    ct, payload = self._prefix[j], None
                    break
            elif not memo.insert_if_absent(link[1], vertex):
                ct, payload = self._prefix[j], None
                break
        if payload is not None and self.agg is not None:
            self.agg.absorb(ctx, probe)
            ct, payload = self._folded, None  # folded: no exit child
        cost.base = ct[0]
        cost.memo_ops = ct[2]
        cost.props = ct[3]
        if payload is not None:
            if self.expand is not None:
                probe.payload = payload
                ex_out = self.expand.apply(ctx, probe)
                ex_cost = ex_out.cost
                cost.base += ex_cost.base
                cost.edges += ex_cost.edges
                cost.memo_ops += ex_cost.memo_ops
                cost.props += ex_cost.props
                out.children.extend(ex_out.children)
            else:
                out.child(vertex, self.next_idx, payload, trav.loops)
        if dist < self.max_dist:
            out.child(vertex, self.loop_idx, trav.payload, trav.loops)
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        append = children.append
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        memo = ctx.memo
        tbl = memo.table(self.memo_label)
        tbl_get = tbl.get
        insert_if_absent = memo.insert_if_absent
        dist_slot = self.dist_slot
        max_dist = self.max_dist
        loop_idx = self.loop_idx
        nxt = self.next_idx
        links = self._links
        prefix = self._prefix
        full = prefix[-1]
        expand = self.expand
        expand_apply = None if expand is None else expand.apply
        fold = self.agg is not None
        folded = self._folded
        survivors: List[Traverser] = []
        survivor_append = survivors.append
        probe = Traverser(0, -1, nxt, (), 0, self.stage, 0)
        for trav in travs:
            orig = trav.payload
            dist = orig[dist_slot]
            vertex = trav.vertex
            old = tbl_get(vertex)
            if old is not None and dist >= old:
                append(_NO_CHILDREN)
                cost_append(_FUSED_PRUNE)
                continue
            tbl[vertex] = dist
            payload = orig
            probe.query_id = trav.query_id
            probe.vertex = vertex
            probe.payload = payload
            probe.loops = trav.loops
            ct = full
            for j, link in enumerate(links):
                kind = link[0]
                if kind == "p":
                    pl = list(payload)
                    for slot, expr in link[1]:
                        pl[slot] = expr(ctx, probe)
                    payload = tuple(pl)
                    probe.payload = payload
                elif kind == "f":
                    if not link[1](ctx, probe):
                        ct, payload = prefix[j], None
                        break
                elif not insert_if_absent(link[1], vertex):
                    ct, payload = prefix[j], None
                    break
            if payload is None:
                specs: List[ChildSpec] = []
            elif fold:
                # Folded after the loop in one bulk apply_batch, in the
                # same order the scalar path absorbs.
                survivor_append(
                    Traverser(
                        trav.query_id, vertex, nxt, payload, 0,
                        trav.stage, trav.loops,
                    )
                )
                ct = folded
                specs = []
            elif expand_apply is not None:
                probe.payload = payload
                ex_out = expand_apply(ctx, probe)
                ex_cost = ex_out.cost
                ct = (
                    ct[0] + ex_cost.base, ct[1] + ex_cost.edges,
                    ct[2] + ex_cost.memo_ops, ct[3] + ex_cost.props,
                )
                specs = ex_out.children
            else:
                specs = [(vertex, nxt, payload, trav.loops)]
            if dist < max_dist:
                specs.append((vertex, loop_idx, orig, trav.loops))
            append(specs if specs else _NO_CHILDREN)
            cost_append(ct)
        if survivors:
            self.agg.apply_batch(ctx, survivors)
        return BatchOutcome(children, costs)


class FusedExpandFilter(VertexRoutedOp):
    """Expand fused with a payload-only filter: survivors jump straight
    to the filter's successor, failed children are never materialized.

    Legal only for ``needs_vertex=False`` predicates — those read the
    candidate traverser (payload, vertex id, loops) and the query
    parameters but never the partition store, so evaluating them at the
    *parent's* partition (before routing) is exact.
    """

    def __init__(self, expand: ExpandOp, filt: FilterOp) -> None:
        super().__init__(f"Fused({expand.name}+{filt.name})")
        self.expand = expand
        self.filt = filt
        self.next_idx = filt.next_idx
        self.stage = expand.stage

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = self.expand.apply(ctx, trav)
        specs = out.children
        nc = len(specs)
        out.cost.base += 1
        out.cost.props += nc
        if nc:
            pred = self.filt.predicate
            nxt = self.next_idx
            qid = trav.query_id
            stg = trav.stage
            kept: List[ChildSpec] = []
            for vertex, _ix, payload, loops in specs:
                probe = Traverser(qid, vertex, nxt, payload, 0, stg, loops)
                if pred(ctx, probe):
                    kept.append((vertex, nxt, payload, loops))
            out.children = kept
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        outc = self.expand.apply_batch(ctx, travs)
        pred = self.filt.predicate
        nxt = self.next_idx
        children: List[List[ChildSpec]] = []
        append = children.append
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        for trav, specs, ct in zip(travs, outc.children, outc.costs):
            nc = len(specs)
            cost_append((ct[0] + 1, ct[1], ct[2], ct[3] + nc))
            if nc:
                qid = trav.query_id
                stg = trav.stage
                kept: List[ChildSpec] = []
                for vertex, _ix, payload, loops in specs:
                    probe = Traverser(qid, vertex, nxt, payload, 0, stg, loops)
                    if pred(ctx, probe):
                        kept.append((vertex, nxt, payload, loops))
                append(kept if kept else _NO_CHILDREN)
            else:
                append(_NO_CHILDREN)
        return BatchOutcome(children, costs)


class FusedExpandExpand(VertexRoutedOp):
    """Two-hop expansion in one step — legal only on an *unpartitioned*
    store (the fusion pass gates on ``num_partitions == 1``), where every
    intermediate vertex's adjacency is local. Grandchildren jump straight
    to the second expand's successor; the intermediate frontier is never
    materialized."""

    def __init__(self, first: ExpandOp, second: ExpandOp) -> None:
        super().__init__(f"Fused({first.name}+{second.name})")
        self.first = first
        self.second = second
        self.next_idx = second.next_idx
        self.stage = first.stage

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out1 = self.first.apply(ctx, trav)
        out = StepOutcome()
        out.cost = out1.cost
        second = self.second
        qid = trav.query_id
        stg = trav.stage
        children = out.children
        for vertex, _ix, payload, loops in out1.children:
            probe = Traverser(qid, vertex, 0, payload, 0, stg, loops)
            o2 = second.apply(ctx, probe)
            out.cost.add(o2.cost)
            children.extend(o2.children)
        return out
