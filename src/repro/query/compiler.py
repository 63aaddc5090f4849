"""Compile logical traversals to physical PSTM plans.

Lowering walks the (strategy-rewritten) logical step list, allocating
payload slots for bindings, emitting physical operators, and wiring control
flow explicitly (each operator's ``next_idx`` / branch targets). Aggregation
steps close a *stage*: they become barrier operators, and any steps after
them form the next stage (the paper's Fig 6 subquery structure), entered via
the barrier's ``reseed``.

Control-flow wiring uses a *pending patch list*: every emitted operator
leaves behind patch callbacks for "whatever op comes next"; branching steps
(union forks, k-hop loops, join sides) manipulate this list to converge or
divert flow.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import steps as phys
from repro.errors import CompilationError
from repro.query import ast
from repro.query.exprs import X
from repro.query.plan import PhysicalPlan, Stage
from repro.query.strategies import apply_strategies
from repro.query.traversal import Traversal


class _Row:
    """Adapter letting binding expressions evaluate against a result row."""

    __slots__ = ("payload", "vertex", "loops")

    def __init__(self, row: Tuple[Any, ...]) -> None:
        self.payload = row
        self.vertex = -1
        self.loops = 0


def compile_traversal(
    traversal: Traversal, graph: Any, fuse: bool = False
) -> PhysicalPlan:
    """Apply strategies and lower ``traversal`` for execution on ``graph``.

    ``fuse=True`` additionally runs the plan-level operator fusion pass
    (:func:`repro.query.fusion.fuse_plan`), collapsing chains like
    expand→filter→count into single fused ops. A fused plan returns the
    same result rows; its simulated timings differ (fewer materialized
    traversers), which is why fusion is opt-in rather than a default
    strategy.
    """
    steps = apply_strategies(traversal.logical_steps(), graph)
    plan = _Compiler(traversal.name).compile(steps)
    if fuse:
        from repro.query.fusion import fuse_plan

        plan = fuse_plan(plan, getattr(graph, "num_partitions", None))
    return plan


class _Compiler:
    def __init__(self, name: str) -> None:
        self.name = name
        self.ops: List[phys.PhysicalOp] = []
        self.pending: List[Callable[[int], None]] = []
        self.slots: Dict[str, int] = {}
        self.max_width = 0
        self.param_names: List[str] = []
        self.stages: List[Stage] = []
        self.stage_entries: List[int] = []
        self.current_stage = 0
        self.out_names: Optional[List[str]] = None
        self._mark_next_entry = False

    # -- infrastructure ---------------------------------------------------

    def alloc(self, name: str) -> int:
        slot = self.slots.get(name)
        if slot is None:
            slot = len(self.slots)
            self.slots[name] = slot
            self.max_width = max(self.max_width, len(self.slots))
        return slot

    def require_slot(self, name: str) -> int:
        if name not in self.slots:
            raise CompilationError(f"unknown binding {name!r}")
        return self.slots[name]

    def emit(self, op: phys.PhysicalOp, entry: bool = False) -> int:
        """Append ``op``, patch all pending successors to it, and make its
        ``next_idx`` the new pending successor."""
        op.stage = self.current_stage
        self.ops.append(op)
        idx = len(self.ops) - 1
        for patch in self.pending:
            patch(idx)
        self.pending = [lambda i, o=op: setattr(o, "next_idx", i)]
        if entry or self._mark_next_entry:
            self.stage_entries.append(idx)
            self._mark_next_entry = False
        return idx

    def close_stage(self, barrier: phys.AggregateOp) -> int:
        """Emit the barrier terminating the current stage."""
        if not self.stage_entries:
            raise CompilationError("stage closed before any entry op")
        idx = self.emit(barrier)
        self.pending = []  # barriers have no linked successor
        self.stages.append(Stage(self.current_stage, self.stage_entries, idx))
        self.stage_entries = []
        return idx

    def open_next_stage(self, reseed_bindings: List[str]) -> None:
        """Reset binding state for a reseeded stage (slots restart at 0,
        matching the barrier's reseed payload order)."""
        self.current_stage += 1
        self.slots = {}
        for name in reseed_bindings:
            self.alloc(name)
        self._mark_next_entry = True

    # -- main walk -----------------------------------------------------------

    def compile(self, steps: List[ast.LogicalStep]) -> PhysicalPlan:
        if not steps:
            raise CompilationError("empty traversal")
        i = 0
        while i < len(steps):
            step = steps[i]
            is_last = i == len(steps) - 1
            if isinstance(step, (ast.CountStep, ast.SumStep, ast.MaxStep,
                                 ast.MinStep, ast.GroupCountStep)):
                self._lower_aggregation(step, is_last)
            elif isinstance(step, ast.OrderLimitStep):
                if not is_last:
                    raise CompilationError("order/limit must be terminal")
                self._lower_collect(step)
            else:
                self._lower_step(step)
            i += 1
        # A plan must end in a barrier; add the default collector if needed.
        if not self.stages or self.stages[-1].barrier_idx != len(self.ops) - 1:
            self._lower_collect(None)
        return PhysicalPlan(
            self.name,
            self.ops,
            self.stages,
            payload_width=max(self.max_width, 1),
            param_names=self.param_names,
        )

    # -- step lowering ----------------------------------------------------------

    def _lower_step(self, step: ast.LogicalStep) -> None:
        if isinstance(step, ast.VParamStep):
            self.param_names.append(step.param)
            self.emit(phys.FixedVertexSource(step.param), entry=True)
        elif isinstance(step, ast.VConstStep):
            self.emit(phys.FixedVertexSource("", const=step.vertex), entry=True)
        elif isinstance(step, ast.IndexLookupStep):
            self.param_names.append(step.value_param)
            self.emit(
                phys.IndexLookupSource(step.label, step.key, step.value_param),
                entry=True,
            )
        elif isinstance(step, ast.ScanStep):
            self.emit(phys.ScanSource(step.label), entry=True)
        elif isinstance(step, ast.ExpandStep):
            edge_prop = None
            if step.edge_prop_key is not None:
                if step.edge_prop_binding is None:
                    raise CompilationError("edge_prop needs a binding name")
                edge_prop = (step.edge_prop_key, self.alloc(step.edge_prop_binding))
            self.emit(phys.ExpandOp(step.direction, step.label, edge_prop=edge_prop))
        elif isinstance(step, ast.GotoStep):
            self.emit(
                phys.GotoOp(self.require_slot(step.binding), name=step.binding)
            )
        elif isinstance(step, ast.KHopStep):
            self._lower_khop(step)
        elif isinstance(step, ast.FilterStep):
            pred = step.expr.resolve(self.slots)
            self.emit(
                phys.FilterOp(pred, step.expr.describe, step.expr.needs_vertex)
            )
        elif isinstance(step, ast.HasStep):
            self._lower_has(step)
        elif isinstance(step, ast.HasLabelStep):
            label = step.label
            self.emit(
                phys.FilterOp(
                    lambda ctx, trav, l=label: ctx.vertex_label(trav.vertex) == l,
                    f"label == {label!r}",
                )
            )
        elif isinstance(step, ast.AsStep):
            slot = self.alloc(step.name)
            self.emit(
                phys.ProjectOp(
                    [(slot, lambda ctx, trav: trav.vertex)],
                    name=f"as {step.name}",
                    needs_vertex=False,
                )
            )
        elif isinstance(step, ast.ValuesStep):
            slot = self.alloc(step.name)
            expr = X.prop(step.prop_key, step.default).resolve(self.slots)
            self.emit(
                phys.ProjectOp([(slot, expr)], name=f"{step.name}={step.prop_key}")
            )
        elif isinstance(step, ast.ProjectStep):
            assignments = []
            needs_vertex = False
            for name, expr in step.assignments.items():
                assignments.append((self.alloc(name), expr.resolve(self.slots)))
                needs_vertex = needs_vertex or expr.needs_vertex
            self.emit(
                phys.ProjectOp(assignments, name="project", needs_vertex=needs_vertex)
            )
        elif isinstance(step, ast.DedupStep):
            self._lower_dedup(step)
        elif isinstance(step, ast.UnionStep):
            self._lower_union(step)
        elif isinstance(step, ast.JoinStep):
            self._lower_join(step)
        elif isinstance(step, ast.SelectStep):
            for name in step.names:
                self.require_slot(name)
            self.out_names = list(step.names)
        else:
            raise CompilationError(f"cannot lower step {type(step).__name__}")

    def _lower_has(self, step: ast.HasStep) -> None:
        if step.param is not None:
            self.param_names.append(step.param)
            expr = X.prop(step.key).eq(X.param(step.param))
        else:
            expr = X.prop(step.key).eq(X.const(step.const))
        self.emit(phys.FilterOp(expr.resolve(self.slots), expr.describe))

    def _lower_khop(self, step: ast.KHopStep) -> None:
        """Fig 5 plan: dist := 0, memo-branch, loop { expand, memo-branch }."""
        dist_slot = self.alloc(step.dist_binding)
        self.emit(
            phys.ProjectOp(
                [(dist_slot, lambda ctx, trav: 0)],
                name=f"{step.dist_binding}=0",
                needs_vertex=False,
            )
        )
        branch = phys.MinDistBranchOp(
            dist_slot, step.k, memo_label=f"Distance{len(self.ops)}"
        )
        branch_idx = self.emit(branch)
        # Loop body: expand increments dist and feeds back into the branch.
        self.pending = []
        expand = phys.ExpandOp(step.direction, step.label, dist_slot=dist_slot)
        expand_idx = self.emit(expand)
        expand.next_idx = branch_idx
        branch.loop_idx = expand_idx
        # Continuation: the branch's exit edge.
        self.pending = [lambda i, b=branch: setattr(b, "exit_idx", i)]
        if step.emit == "distinct":
            # Fig 2's Dedup step: under async execution a vertex may exit
            # at a longer distance before a shorter one; dedup makes the
            # emitted set (though not the bound distance) deterministic.
            self.emit(
                phys.DedupOp(
                    None, f"__khop_dedup_{len(self.ops)}__", "khop-exit"
                )
            )

    def _lower_dedup(self, step: ast.DedupStep) -> None:
        memo_label = f"__dedup_{len(self.ops)}__"
        if step.by is None:
            key_fn = None
            name = "vertex"
        else:
            slots = tuple(self.require_slot(n) for n in step.by)
            key_fn = lambda trav, s=slots: tuple(trav.payload[i] for i in s)  # noqa: E731
            name = ",".join(step.by)
        self.emit(phys.DedupOp(key_fn, memo_label, name))

    def _lower_union(self, step: ast.UnionStep) -> None:
        fork = phys.ForkOp()
        self.emit(fork)
        self.pending = []
        merged: List[Callable[[int], None]] = []
        for branch_steps in step.branches:
            if not branch_steps:
                raise CompilationError("empty union branch")
            self.pending = [lambda i, f=fork: f.targets.append(i)]
            for sub in branch_steps:
                if isinstance(sub, (ast.CountStep, ast.SumStep, ast.MaxStep,
                                    ast.MinStep, ast.GroupCountStep,
                                    ast.OrderLimitStep, ast.JoinStep)):
                    raise CompilationError(
                        "aggregations and joins are not allowed inside union "
                        "branches"
                    )
                self._lower_step(sub)
            merged.extend(self.pending)
        self.pending = merged

    def _lower_join(self, step: ast.JoinStep) -> None:
        if self.ops:
            raise CompilationError("join must be the first step of a traversal")
        join_label = f"__join_{len(self.ops)}__"

        def merge(pa: Tuple[Any, ...], pb: Tuple[Any, ...]) -> Tuple[Any, ...]:
            return tuple(a if a is not None else b for a, b in zip(pa, pb))

        side_patches: List[Callable[[int], None]] = []
        for side, spec in (("A", step.left), ("B", step.right)):
            self.pending = []
            for sub in spec.steps:
                if isinstance(sub, (ast.CountStep, ast.SumStep, ast.MaxStep,
                                    ast.MinStep, ast.GroupCountStep,
                                    ast.OrderLimitStep, ast.JoinStep,
                                    ast.SelectStep)):
                    raise CompilationError(
                        "aggregations, joins, and select are not allowed "
                        "inside join sides"
                    )
                self._lower_step(sub)
            key_slot = self.require_slot(spec.key)
            join_op = phys.JoinOp(
                join_label,
                side,
                key_fn=lambda trav, s=key_slot: trav.payload[s],
                merge_fn=merge,
            )
            self.emit(join_op)
            side_patches.extend(self.pending)
        self.pending = side_patches

    # -- aggregation lowering -------------------------------------------------------

    def _lower_aggregation(self, step: ast.LogicalStep, is_last: bool) -> None:
        if isinstance(step, ast.CountStep):
            barrier: phys.AggregateOp = phys.CountAgg()
            reseed_bindings = ["count"]
        elif isinstance(step, ast.SumStep):
            barrier = phys.SumAgg(self.require_slot(step.binding))
            reseed_bindings = None
        elif isinstance(step, ast.MaxStep):
            barrier = phys.MaxAgg(self.require_slot(step.binding))
            reseed_bindings = None
        elif isinstance(step, ast.MinStep):
            barrier = phys.MinAgg(self.require_slot(step.binding))
            reseed_bindings = None
        elif isinstance(step, ast.GroupCountStep):
            if step.binding is None:
                key_fn = lambda trav: trav.vertex  # noqa: E731
            else:
                slot = self.require_slot(step.binding)
                key_fn = lambda trav, s=slot: trav.payload[s]  # noqa: E731
            barrier = phys.GroupCountAgg(key_fn, step.limit)
            reseed_bindings = ["key", "count"]
        else:  # pragma: no cover - guarded by caller
            raise CompilationError(f"unknown aggregation {type(step).__name__}")
        self.close_stage(barrier)
        if not is_last:
            if reseed_bindings is None:
                raise CompilationError(
                    f"{type(step).__name__} cannot be followed by further steps"
                )
            self.open_next_stage(reseed_bindings)

    def _lower_collect(self, step: Optional[ast.OrderLimitStep]) -> None:
        """Terminal collector: rows, optional ordering, optional limit."""
        if self.out_names is not None:
            row_slots = tuple(self.slots[name] for name in self.out_names)
            if len(row_slots) == 1:
                s0 = row_slots[0]
                row_fn = lambda trav, s=s0: (trav.payload[s],)  # noqa: E731
            else:
                # itemgetter builds the row tuple at C speed (hot: once
                # per collected result row).
                getter = operator.itemgetter(*row_slots)
                row_fn = lambda trav, g=getter: g(trav.payload)  # noqa: E731
        else:
            row_fn = lambda trav: trav.vertex  # noqa: E731

        order_key = None
        ascending = True
        limit = None
        unique_order = False
        if step is not None:
            limit = step.limit
            if step.parts:
                if self.out_names is None:
                    raise CompilationError("order_by requires a prior select()")
                order_key = self._row_sort_key(step.parts)
                unique_order = step.unique or self._key_covers_select(
                    step.parts
                )
        self.emit(
            phys.CollectAgg(row_fn, order_key, ascending, limit,
                            unique_order=unique_order)
        )
        self.pending = []
        if not self.stage_entries:
            raise CompilationError("plan has no entry op")
        self.stages.append(
            Stage(self.current_stage, self.stage_entries, len(self.ops) - 1)
        )
        self.stage_entries = []

    def _key_covers_select(self, parts: List[Tuple[X, str]]) -> bool:
        """Whether every selected column is a bare ``X.binding(name)``
        term of the order key (either direction). Equal keys then mean
        equal rows, so the key is tie-free in the only sense
        :meth:`~repro.core.steps.CollectAgg.combine` can observe — the
        same assumption ``order_by(..., unique=True)`` declares, and
        likewise void for keys that do not compare as a total order
        (NaN)."""
        assert self.out_names is not None
        bare = {expr.binding_name for expr, _direction in parts}
        return all(name in bare for name in self.out_names)

    def _row_sort_key(
        self, parts: List[Tuple[X, str]]
    ) -> Callable[[Tuple[Any, ...]], Any]:
        assert self.out_names is not None
        row_slots = {name: i for i, name in enumerate(self.out_names)}
        resolved = []
        for expr, direction in parts:
            if direction not in ("asc", "desc"):
                raise CompilationError(f"bad sort direction {direction!r}")
            if expr.needs_vertex:
                raise CompilationError(
                    f"sort expression {expr.describe} reads vertex data; "
                    "select it into a binding first"
                )
            resolved.append((expr.resolve(row_slots), direction == "desc"))

        adapter = _Row(())
        neg_key = phys._NegKey

        def key(row: Tuple[Any, ...]) -> Tuple[Any, ...]:
            # The adapter is reused across calls (the simulation is
            # single-threaded and sort-key evaluation never re-enters).
            adapter.payload = row if type(row) is tuple else (row,)
            out = []
            for fn, desc in resolved:
                value = fn(None, adapter)
                if desc:
                    # Plain numerics invert exactly by negation (same
                    # comparison outcomes as _NegKey, incl. ±0.0/inf/NaN),
                    # and compare at C speed. bool is excluded by the
                    # exact type check (mixed bool/int columns would
                    # otherwise change equality classes — they don't, but
                    # keep the wrapper for anything non-number anyway).
                    tv = type(value)
                    value = (
                        -value if tv is int or tv is float
                        else neg_key(value)
                    )
                out.append(value)
            return tuple(out)

        return key
