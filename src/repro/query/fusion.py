"""Plan-level operator fusion: collapse short chains into fused ops.

:func:`fuse_plan` rewrites a compiled :class:`~repro.query.plan.PhysicalPlan`
by replacing the *head* op of each fusable chain with a fused op from
:mod:`repro.core.fused`, **in place at its index**. The downstream ops of
the chain stay in the plan at their indexes, so:

* all operator indexes (and therefore jump targets, stage entry points,
  and barrier indexes) are unchanged;
* any *other* op that jumps into the middle of a fused chain still
  executes the original intermediate ops;
* stage-termination partial gathering still reads the original barrier
  op — count sinks absorb into that barrier's own memo label.

Fusion rules (docs/PERFORMANCE.md):

1. ``MinDistBranch`` whose exit chain is a ``Count`` barrier — directly,
   or through a vertex-keyed ``Dedup`` (the ``khop().count()`` lowering)
   → :class:`~repro.core.fused.FusedMinDistCount` (the k-hop counting
   hot loop: no exit children, no weight splits in the loop). Otherwise,
   an exit chain of unary vertex-preserving ops (each with exactly one
   predecessor) is inlined at the branch →
   :class:`~repro.core.fused.FusedMinDistChain`. When the chain ends at a
   barrier rule 5 can push down, the frontier folds its survivors into
   that barrier's partition-local partial (``agg``), so an admitted
   traverser keeps only its loop child; when it ends at a plain
   same-vertex ``Expand``, survivors expand in place (``expand``).
2. ``Expand`` (plain: single direction+label, no edge bindings) whose
   successor is a payload-only ``Filter`` →
   :class:`~repro.core.fused.FusedExpandFilter`; if the filter's
   successor is a ``Count`` barrier the whole expand→filter→count chain
   collapses into one count sink.
3. Maximal runs of consecutive unary vertex-preserving ops (``Filter``,
   ``Project``, vertex-keyed ``Dedup``) →
   :class:`~repro.core.fused.FusedChain`; single such ops (or whole
   chains) whose successor is a ``Count`` barrier →
   :class:`~repro.core.fused.FusedCountSink`.
4. ``Expand`` → ``Expand`` → :class:`~repro.core.fused.FusedExpandExpand`
   — only on an unpartitioned store (``num_partitions == 1``), where the
   intermediate vertex's adjacency is guaranteed local.
5. Aggregation pushdown: wherever rule 1/2/3 looks for a pushable
   barrier, a ``Count`` or ``GroupCount`` barrier always qualifies
   (:class:`~repro.core.fused.FusedGroupCountSink` — per-key sums merge
   commutatively), and an ordered ``Collect`` barrier qualifies when its
   sort key is tie-free (:attr:`CollectAgg.unique_order
   <repro.core.steps.CollectAgg.unique_order>`: declared with
   ``order_by(..., unique=True)``, or inferred by the compiler when every
   selected column is a bare binding term of the key) →
   :class:`~repro.core.fused.FusedCollectSink`, the distributed top-N
   pushdown: partition-local bounded partials, merged by the barrier's
   ``combine`` at stage termination.

A fused plan produces exactly the same result rows as its source plan,
and all kernel tiers execute it bit-for-bit identically; simulated
*timings* differ from the unfused plan by design (that is the win).
"""

from __future__ import annotations

from typing import Optional

from repro.core.fused import (
    FusedChain,
    FusedCollectSink,
    FusedCountSink,
    FusedExpandExpand,
    FusedExpandFilter,
    FusedGroupCountSink,
    FusedMinDistChain,
    FusedMinDistCount,
)
from repro.core.steps import (
    CollectAgg,
    CountAgg,
    DedupOp,
    ExpandOp,
    FilterOp,
    ForkOp,
    GroupCountAgg,
    MinDistBranchOp,
    ProjectOp,
)
from repro.query.plan import PhysicalPlan

__all__ = ["fuse_plan"]


def _plain_expand(op: ExpandOp) -> bool:
    """Expand shapes the fused ops handle: no edge bindings (the CSR fast
    path's own gate; bound edges take the generic store path anyway)."""
    return op.edge_slot is None and op.edge_prop is None


def _chain_link(op) -> bool:
    """Ops :class:`FusedChain` may absorb: unary, vertex-preserving, and
    executable at the vertex's partition. Custom-keyed dedups are out —
    their memo must shard by key hash, not by vertex."""
    t = type(op)
    if t is FilterOp or t is ProjectOp:
        return True
    return t is DedupOp and op.routing_mode == "vertex"


#: The pushdown sink of each barrier type (see :func:`_pushable`).
_SINKS = {
    CountAgg: FusedCountSink,
    GroupCountAgg: FusedGroupCountSink,
    CollectAgg: FusedCollectSink,
}


def _pushable(succ) -> bool:
    """Whether barrier ``succ`` may absorb rows at any partition.

    * ``Count`` — always pushable (pure commutative sum).
    * ``GroupCount`` — always pushable (per-key sums merge by addition;
      finalize orders by ``(-count, key)``, independent of absorption
      partition and order).
    * ordered ``Collect`` — pushable only when its sort key is tie-free
      (``CollectAgg.unique_order``: declared with
      ``order_by(..., unique=True)``, or inferred by the compiler when
      the key covers every selected column): the merge sorts by the
      order key alone, so tie-freedom makes the partition-local bounded
      partials exact. Unordered collects are never pushed (their row
      order *is* barrier-arrival order).
    """
    st = type(succ)
    if st is CountAgg or st is GroupCountAgg:
        return True
    return (
        st is CollectAgg
        and succ.order_key is not None
        and succ.unique_order
    )


def _sink_for(inner, succ) -> Optional[object]:
    """A pushdown sink fusing ``inner`` with its successor barrier
    ``succ``, or None when the successor is not a pushable barrier."""
    if not _pushable(succ):
        return None
    return _SINKS[type(succ)](inner, succ)


def _ref_counts(plan: PhysicalPlan) -> dict:
    """How many plan edges (jump targets + stage entries) reference each
    op index. Used to gate rules that inline an op *out* of the plan:
    inlining is only exact when nothing else can jump to it."""
    refs: dict = {}

    def bump(idx: int) -> None:
        refs[idx] = refs.get(idx, 0) + 1

    for op in plan.ops:
        bump(op.next_idx)
        t = type(op)
        if t is MinDistBranchOp:
            bump(op.loop_idx)
            bump(op.exit_idx)
        elif t is ForkOp:
            for target in op.targets:
                bump(target)
    for stage in plan.stages:
        for entry in stage.entry_points:
            bump(entry)
    return refs


def fuse_plan(
    plan: PhysicalPlan, num_partitions: Optional[int] = None
) -> PhysicalPlan:
    """Return a fused copy of ``plan`` (or ``plan`` itself when nothing
    fuses). ``num_partitions`` gates locality-sensitive rules; ``None``
    means unknown, which disables them."""
    ops = list(plan.ops)
    n = len(ops)
    changed = False
    refs = _ref_counts(plan)
    for i, op in enumerate(ops):
        t = type(op)
        if t is MinDistBranchOp:
            ex = op.exit_idx
            if not 0 <= ex < n:
                continue
            exit_op = ops[ex]
            et = type(exit_op)
            if et is CountAgg:
                ops[i] = FusedMinDistCount(op, exit_op)
                changed = True
            elif (
                et is DedupOp
                and exit_op.routing_mode == "vertex"
                and 0 <= exit_op.next_idx < n
                and type(ops[exit_op.next_idx]) is CountAgg
            ):
                # The ``khop().count()`` lowering: exit → vertex dedup →
                # count. Only first admissions count (count_first).
                ops[i] = FusedMinDistCount(
                    op, ops[exit_op.next_idx], count_first=True
                )
                changed = True
            elif _chain_link(exit_op):
                # Exit chain of unary vertex-preserving ops, inlined at
                # the branch. Each chain op must have exactly one
                # predecessor (its chain neighbour / the branch exit) —
                # inlining a dedup that another path also feeds could
                # reorder arrivals at the shared memo label.
                chain = []
                j = ex
                seen = set()
                while (
                    0 <= j < n
                    and j not in seen
                    and _chain_link(ops[j])
                    and refs.get(j, 0) == 1
                    and type(ops[j]) not in (FusedChain, FusedMinDistChain)
                ):
                    seen.add(j)
                    chain.append(ops[j])
                    j = ops[j].next_idx
                if chain:
                    tail = agg = None
                    if 0 <= j < n and _pushable(ops[j]):
                        # The chain ends at a pushable barrier: survivors
                        # fold into its partition-local partial in place
                        # and only the loop continuation remains.
                        agg = ops[j]
                    elif (
                        0 <= j < n
                        and type(ops[j]) is ExpandOp
                        and _plain_expand(ops[j])
                        and refs.get(j, 0) == 1
                    ):
                        # The chain's successor is a same-vertex Expand:
                        # its adjacency is local too, so survivors expand
                        # in place and only remote-bound children remain.
                        tail = ops[j]
                    ops[i] = FusedMinDistChain(
                        op, FusedChain(chain), tail, agg
                    )
                    changed = True
        elif t is ExpandOp and _plain_expand(op):
            nx = op.next_idx
            if not 0 <= nx < n or nx == i:
                continue
            succ = ops[nx]
            st = type(succ)
            sink = _sink_for(op, succ)
            if sink is not None:
                ops[i] = sink
                changed = True
            elif st is FilterOp and not succ.needs_vertex:
                fused = FusedExpandFilter(op, succ)
                nn = succ.next_idx
                sink = (
                    _sink_for(fused, ops[nn]) if 0 <= nn < n else None
                )
                ops[i] = sink if sink is not None else fused
                changed = True
            elif (
                st is ExpandOp
                and _plain_expand(succ)
                and num_partitions == 1
            ):
                ops[i] = FusedExpandExpand(op, succ)
                changed = True
        elif _chain_link(op) or t in (FilterOp, DedupOp, ProjectOp):
            # Greedily absorb the maximal unary chain starting here.
            chain = [op] if _chain_link(op) else []
            j = op.next_idx if chain else i
            seen = {i}
            while (
                chain
                and 0 <= j < n
                and j not in seen
                and _chain_link(ops[j])
            ):
                seen.add(j)
                chain.append(ops[j])
                j = ops[j].next_idx
            if len(chain) >= 2:
                fused = FusedChain(chain)
                sink = _sink_for(fused, ops[j]) if 0 <= j < n else None
                ops[i] = sink if sink is not None else fused
                changed = True
            else:
                nx = op.next_idx
                if 0 <= nx < n:
                    sink = _sink_for(op, ops[nx])
                    if sink is not None:
                        ops[i] = sink
                        changed = True
    if not changed:
        return plan
    return PhysicalPlan(
        plan.name, ops, plan.stages, plan.payload_width,
        list(plan.param_names),
    )
