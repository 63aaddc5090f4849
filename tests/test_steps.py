"""Unit tests for every physical operator (direct op.apply calls)."""

import pytest

from repro.core.steps import (
    CollectAgg,
    CountAgg,
    DedupOp,
    ExpandOp,
    FilterOp,
    FixedVertexSource,
    ForkOp,
    GotoOp,
    GroupCountAgg,
    IndexLookupSource,
    JoinOp,
    JumpOp,
    MaxAgg,
    MinAgg,
    MinDistBranchOp,
    ProjectOp,
    ScanSource,
    SumAgg,
    TopKAgg,
)
from repro.core.traverser import Traverser
from repro.errors import CompilationError, ExecutionError
from tests.conftest import ContextFactory, build_diamond


def trav(vertex, op_idx=0, payload=(), loops=0, stage=0):
    return Traverser(0, vertex, op_idx, payload, weight=0, stage=stage, loops=loops)


class TestSources:
    def test_fixed_vertex_emits_when_owned(self, diamond, diamond_ctx):
        op = FixedVertexSource("start")
        op.next_idx = 1
        ctx = diamond_ctx.ctx_of_vertex(3)
        out = op.apply(ctx, trav(3))
        assert out.children == [(3, 1, (), 0)]

    def test_fixed_vertex_silent_when_not_owned(self, diamond, diamond_ctx):
        op = FixedVertexSource("start")
        op.next_idx = 1
        pid = diamond.partition_of(3)
        other = (pid + 1) % diamond.num_partitions
        assert op.apply(diamond_ctx.ctx(other), trav(3)).children == []

    def test_fixed_vertex_start_from_params(self):
        op = FixedVertexSource("start")
        assert op.start_vertex({"start": 9}) == 9
        with pytest.raises(ExecutionError):
            op.start_vertex({})

    def test_fixed_vertex_const(self):
        op = FixedVertexSource("", const=5)
        assert op.start_vertex({}) == 5

    def test_scan_source_emits_local_label_vertices(self, diamond, diamond_ctx):
        op = ScanSource("person")
        op.next_idx = 2
        seen = []
        for pid in range(diamond.num_partitions):
            out = op.apply(diamond_ctx.ctx(pid), trav(-pid - 1))
            seen.extend(v for v, _i, _p, _l in out.children)
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_scan_source_unknown_label_is_empty(self, diamond, diamond_ctx):
        op = ScanSource("ghost")
        op.next_idx = 1
        out = op.apply(diamond_ctx.ctx(0), trav(-1))
        assert out.children == []

    def test_index_lookup_source(self, diamond):
        diamond.create_index("person", "name")
        factory = ContextFactory(diamond, params={"who": "p3"})
        op = IndexLookupSource("person", "name", "who")
        op.next_idx = 1
        found = []
        for pid in range(diamond.num_partitions):
            out = op.apply(factory.ctx(pid), trav(-pid - 1))
            found.extend(v for v, _i, _p, _l in out.children)
        assert found == [3]

    def test_sources_are_broadcast_except_fixed(self):
        assert FixedVertexSource("x").broadcast is False
        assert ScanSource().broadcast is True
        assert IndexLookupSource("l", "k", "p").broadcast is True


class TestExpand:
    def test_out_expansion(self, diamond, diamond_ctx):
        op = ExpandOp("out", "knows")
        op.next_idx = 7
        out = op.apply(diamond_ctx.ctx_of_vertex(0), trav(0))
        targets = sorted(v for v, i, _p, _l in out.children)
        assert targets == [1, 2]
        assert all(i == 7 for _v, i, _p, _l in out.children)
        assert out.cost.edges == 2

    def test_in_expansion(self, diamond, diamond_ctx):
        op = ExpandOp("in", "knows")
        op.next_idx = 1
        out = op.apply(diamond_ctx.ctx_of_vertex(3), trav(3))
        assert sorted(v for v, *_ in out.children) == [1, 2]

    def test_both_expansion(self, diamond, diamond_ctx):
        op = ExpandOp("both", "knows")
        op.next_idx = 1
        out = op.apply(diamond_ctx.ctx_of_vertex(3), trav(3))
        assert sorted(v for v, *_ in out.children) == [1, 2, 4]

    def test_dist_slot_incremented(self, diamond, diamond_ctx):
        op = ExpandOp("out", "knows", dist_slot=0)
        op.next_idx = 1
        out = op.apply(diamond_ctx.ctx_of_vertex(0), trav(0, payload=(0,)))
        assert all(p == (1,) for _v, _i, p, _l in out.children)
        out2 = op.apply(diamond_ctx.ctx_of_vertex(0), trav(0, payload=(None,)))
        assert all(p == (1,) for _v, _i, p, _l in out2.children)

    def test_loops_incremented(self, diamond, diamond_ctx):
        op = ExpandOp("out", "knows")
        op.next_idx = 1
        out = op.apply(diamond_ctx.ctx_of_vertex(0), trav(0, loops=2))
        assert all(l == 3 for _v, _i, _p, l in out.children)

    def test_edge_prop_binding(self, diamond, diamond_ctx):
        graph = build_diamond()
        # rebuild with an edge property
        from repro.graph.builder import GraphBuilder
        from repro.graph.partition import PartitionedGraph

        b = GraphBuilder("person")
        b.vertex(0).vertex(1)
        b.edge(0, 1, "knows", since=1999)
        pg = PartitionedGraph.from_graph(b.build(), 2)
        factory = ContextFactory(pg)
        op = ExpandOp("out", "knows", edge_prop=("since", 0))
        op.next_idx = 1
        out = op.apply(factory.ctx_of_vertex(0), trav(0, payload=(None,)))
        assert out.children == [(1, 1, (1999,), 1)]
        assert out.cost.props == 1

    def test_bad_direction_rejected(self):
        with pytest.raises(CompilationError):
            ExpandOp("sideways")

    def test_no_neighbors_finishes(self, diamond, diamond_ctx):
        op = ExpandOp("out", "knows")
        op.next_idx = 1
        out = op.apply(diamond_ctx.ctx_of_vertex(4), trav(4))
        assert out.children == []


class TestFilterAndProject:
    def test_filter_pass_and_drop(self, diamond, diamond_ctx):
        op = FilterOp(lambda ctx, t: t.vertex > 2, "v>2")
        op.next_idx = 5
        assert op.apply(diamond_ctx.ctx_of_vertex(3), trav(3)).children == [
            (3, 5, (), 0)
        ]
        assert op.apply(diamond_ctx.ctx_of_vertex(1), trav(1)).children == []

    def test_filter_routing_depends_on_needs_vertex(self, diamond):
        vertex_free = FilterOp(lambda c, t: True, "x", needs_vertex=False)
        vertex_bound = FilterOp(lambda c, t: True, "x", needs_vertex=True)
        t = trav(3)
        assert vertex_free.routing(diamond.partitioner, t) is None
        assert vertex_bound.routing(diamond.partitioner, t) == diamond.partition_of(3)

    def test_project_assigns_slots(self, diamond, diamond_ctx):
        op = ProjectOp(
            [(0, lambda ctx, t: ctx.vertex_prop(t.vertex, "weight")),
             (1, lambda ctx, t: t.vertex)],
        )
        op.next_idx = 2
        out = op.apply(diamond_ctx.ctx_of_vertex(2), trav(2, payload=(None, None)))
        assert out.children == [(2, 2, (20, 2), 0)]

    def test_goto_moves_to_bound_vertex(self, diamond, diamond_ctx):
        op = GotoOp(0)
        op.next_idx = 3
        out = op.apply(diamond_ctx.ctx(0), trav(1, payload=(4,)))
        assert out.children == [(4, 3, (4,), 0)]

    def test_goto_unset_slot_raises(self, diamond, diamond_ctx):
        op = GotoOp(0)
        op.next_idx = 3
        with pytest.raises(ExecutionError):
            op.apply(diamond_ctx.ctx(0), trav(1, payload=(None,)))


class TestDedup:
    def test_first_passes_rest_pruned(self, diamond, diamond_ctx):
        op = DedupOp()
        op.next_idx = 1
        ctx = diamond_ctx.ctx_of_vertex(3)
        assert len(op.apply(ctx, trav(3)).children) == 1
        assert op.apply(ctx, trav(3)).children == []

    def test_routing_by_vertex_hash(self, diamond):
        op = DedupOp()
        assert op.routing(diamond.partitioner, trav(3)) == \
            diamond.partitioner.key_partition(3)

    def test_custom_key_fn(self, diamond, diamond_ctx):
        op = DedupOp(key_fn=lambda t: t.payload[0])
        op.next_idx = 1
        ctx = diamond_ctx.ctx(0)
        assert len(op.apply(ctx, trav(1, payload=("k",))).children) == 1
        # different vertex, same key: pruned
        assert op.apply(ctx, trav(2, payload=("k",))).children == []

    def test_memo_labels_isolate_dedups(self, diamond, diamond_ctx):
        a = DedupOp(memo_label="d1")
        b = DedupOp(memo_label="d2")
        a.next_idx = b.next_idx = 1
        ctx = diamond_ctx.ctx_of_vertex(3)
        assert len(a.apply(ctx, trav(3)).children) == 1
        assert len(b.apply(ctx, trav(3)).children) == 1  # separate memo set


class TestMinDistBranch:
    def make(self, k=3):
        op = MinDistBranchOp(dist_slot=0, max_dist=k)
        op.loop_idx = 10
        op.exit_idx = 20
        return op

    def test_first_visit_branches_both_ways(self, diamond, diamond_ctx):
        op = self.make()
        ctx = diamond_ctx.ctx_of_vertex(2)
        out = op.apply(ctx, trav(2, payload=(1,)))
        assert (2, 20, (1,), 0) in out.children
        assert (2, 10, (1,), 0) in out.children

    def test_at_max_dist_only_exits(self, diamond, diamond_ctx):
        op = self.make(k=3)
        ctx = diamond_ctx.ctx_of_vertex(2)
        out = op.apply(ctx, trav(2, payload=(3,)))
        assert out.children == [(2, 20, (3,), 0)]

    def test_worse_distance_pruned(self, diamond, diamond_ctx):
        """Paper Fig 4c: traverser B visiting after A with larger distance
        is pruned."""
        op = self.make()
        ctx = diamond_ctx.ctx_of_vertex(2)
        op.apply(ctx, trav(2, payload=(1,)))
        assert op.apply(ctx, trav(2, payload=(2,))).children == []
        assert op.apply(ctx, trav(2, payload=(1,))).children == []

    def test_improvement_re_emitted(self, diamond, diamond_ctx):
        """Paper Fig 4c: a shorter rediscovery must continue exploring."""
        op = self.make()
        ctx = diamond_ctx.ctx_of_vertex(2)
        op.apply(ctx, trav(2, payload=(2,)))
        out = op.apply(ctx, trav(2, payload=(1,)))
        assert len(out.children) == 2


class TestForkAndJump:
    def test_fork_clones_to_all_targets(self, diamond, diamond_ctx):
        op = ForkOp()
        op.targets = [3, 7]
        out = op.apply(diamond_ctx.ctx(0), trav(1, payload=("x",)))
        assert out.children == [(1, 3, ("x",), 0), (1, 7, ("x",), 0)]

    def test_jump_is_free_passthrough(self, diamond, diamond_ctx):
        op = JumpOp()
        op.next_idx = 9
        out = op.apply(diamond_ctx.ctx(0), trav(2))
        assert out.children == [(2, 9, (), 0)]
        assert out.cost.base == 0


class TestJoin:
    def make_sides(self):
        merge = lambda a, b: tuple(  # noqa: E731
            x if x is not None else y for x, y in zip(a, b)
        )
        a = JoinOp("j", "A", key_fn=lambda t: t.payload[0], merge_fn=merge)
        b = JoinOp("j", "B", key_fn=lambda t: t.payload[1], merge_fn=merge)
        a.next_idx = b.next_idx = 50
        return a, b

    def test_double_pipelined_matching(self, diamond, diamond_ctx):
        """Each arrival inserts then probes: A1, B1 (match), A2 (match)."""
        a, b = self.make_sides()
        ctx = diamond_ctx.ctx(0)
        out = a.apply(ctx, trav(1, payload=("k", None)))
        assert out.children == []  # nothing on side B yet
        out = b.apply(ctx, trav(2, payload=(None, "k")))
        assert out.children == [(2, 50, ("k", "k"), 0)]
        out = a.apply(ctx, trav(3, payload=("k", None)))
        assert out.children == [(3, 50, ("k", "k"), 0)]

    def test_mismatched_keys_never_join(self, diamond, diamond_ctx):
        a, b = self.make_sides()
        ctx = diamond_ctx.ctx(0)
        a.apply(ctx, trav(1, payload=("x", None)))
        out = b.apply(ctx, trav(2, payload=(None, "y")))
        assert out.children == []

    def test_merge_order_is_a_side_first(self, diamond, diamond_ctx):
        merge = lambda a, b: ("A" + a[0], "B" + b[1])  # noqa: E731
        a = JoinOp("j", "A", key_fn=lambda t: 0, merge_fn=merge)
        b = JoinOp("j", "B", key_fn=lambda t: 0, merge_fn=merge)
        a.next_idx = b.next_idx = 1
        ctx = diamond_ctx.ctx(0)
        a.apply(ctx, trav(1, payload=("a", "a")))
        out = b.apply(ctx, trav(2, payload=("b", "b")))
        assert out.children[0][2] == ("Aa", "Bb")

    def test_bad_side_rejected(self):
        with pytest.raises(CompilationError):
            JoinOp("j", "C", key_fn=lambda t: 0, merge_fn=lambda a, b: a)

    def test_routing_by_key(self, diamond):
        a, _b = self.make_sides()
        t = trav(1, payload=(42, None))
        assert a.routing(diamond.partitioner, t) == \
            diamond.partitioner.key_partition(42)


class TestAggregations:
    def gather(self, op, factory):
        partials = []
        for pid in range(factory.graph.num_partitions):
            memo = factory.memo_stores[pid].peek(0)
            if memo is None:
                continue
            value = op.partial(memo)
            if value is not None:
                partials.append(value)
        return partials

    def test_count(self, diamond, diamond_ctx):
        op = CountAgg()
        op.idx = 9
        for v in range(5):
            out = op.apply(diamond_ctx.ctx_of_vertex(v), trav(v, stage=0))
            assert out.children == []  # barrier absorbs
        combined = op.combine(self.gather(op, diamond_ctx))
        assert combined == 5
        assert op.finalize(combined) == [5]

    def test_sum_max_min(self, diamond, diamond_ctx):
        values = [(0, 50), (1, 10), (2, 20)]
        ops = [SumAgg(0), MaxAgg(0), MinAgg(0)]
        for i, op in enumerate(ops):
            op.idx = 20 + i
        for v, w in values:
            for op in ops:
                op.apply(diamond_ctx.ctx_of_vertex(v), trav(v, payload=(w,)))
        assert ops[0].combine(self.gather(ops[0], diamond_ctx)) == 80
        assert ops[1].combine(self.gather(ops[1], diamond_ctx)) == 50
        assert ops[2].combine(self.gather(ops[2], diamond_ctx)) == 10

    def test_max_min_empty_is_none(self):
        assert MaxAgg(0).combine([]) is None
        assert MinAgg(0).combine([]) is None

    def test_topk_ascending(self, diamond, diamond_ctx):
        op = TopKAgg(2, sort_key=lambda t: t.payload[0],
                     row_fn=lambda t: t.vertex)
        op.idx = 30
        for v, w in [(0, 50), (1, 10), (2, 20), (3, 30)]:
            op.apply(diamond_ctx.ctx_of_vertex(v), trav(v, payload=(w,)))
        combined = op.combine(self.gather(op, diamond_ctx))
        assert op.finalize(combined) == [1, 2]

    def test_topk_descending(self, diamond, diamond_ctx):
        op = TopKAgg(2, sort_key=lambda t: t.payload[0],
                     row_fn=lambda t: t.vertex, ascending=False)
        op.idx = 31
        for v, w in [(0, 50), (1, 10), (2, 20), (3, 30)]:
            op.apply(diamond_ctx.ctx_of_vertex(v), trav(v, payload=(w,)))
        combined = op.combine(self.gather(op, diamond_ctx))
        assert op.finalize(combined) == [0, 3]

    def test_topk_requires_positive_k(self):
        with pytest.raises(CompilationError):
            TopKAgg(0, sort_key=lambda t: 0)

    def test_topk_partials_are_bounded(self, diamond, diamond_ctx):
        op = TopKAgg(3, sort_key=lambda t: t.payload[0])
        op.idx = 32
        ctx = diamond_ctx.ctx(0)
        for i in range(100):
            op.apply(ctx, trav(1, payload=(i,)))
        partial = op.partial(diamond_ctx.memo_stores[0].peek(0))
        assert len(partial["heap"]) == 3

    def test_group_count(self, diamond, diamond_ctx):
        op = GroupCountAgg(key_fn=lambda t: t.payload[0])
        op.idx = 33
        for v, key in [(0, "a"), (1, "b"), (2, "a"), (3, "a")]:
            op.apply(diamond_ctx.ctx_of_vertex(v), trav(v, payload=(key,)))
        combined = op.combine(self.gather(op, diamond_ctx))
        assert combined == {"a": 3, "b": 1}
        assert op.finalize(combined) == [("a", 3), ("b", 1)]

    def test_group_count_limit(self):
        op = GroupCountAgg(key_fn=lambda t: 0, limit=1)
        assert op.finalize({"a": 3, "b": 5}) == [("b", 5)]

    def test_group_count_reseeds_per_key(self):
        op = GroupCountAgg(key_fn=lambda t: 0)
        seeds = op.reseed({7: 2, "x": 1})
        assert (7, (7, 2)) in seeds
        assert (-1, ("x", 1)) in seeds

    def test_collect_plain(self, diamond, diamond_ctx):
        op = CollectAgg(row_fn=lambda t: t.vertex)
        op.idx = 34
        for v in [3, 1, 4]:
            op.apply(diamond_ctx.ctx_of_vertex(v), trav(v))
        combined = op.combine(self.gather(op, diamond_ctx))
        assert sorted(combined) == [1, 3, 4]

    def test_collect_ordered_limited(self, diamond, diamond_ctx):
        op = CollectAgg(
            row_fn=lambda t: (t.vertex,),
            order_key=lambda row: row[0],
            limit=2,
        )
        op.idx = 35
        for v in [3, 1, 4, 0, 2]:
            op.apply(diamond_ctx.ctx_of_vertex(v), trav(v))
        combined = op.combine(self.gather(op, diamond_ctx))
        assert combined == [(0,), (1,)]

    def test_collect_reseed(self):
        op = CollectAgg()
        assert op.reseed([(1, "a"), 7]) == [(-1, (1, "a")), (-1, (7,))]

    def test_count_reseed(self):
        assert CountAgg().reseed(42) == [(-1, (42,))]

    def test_estimated_partial_sizes(self):
        op = CountAgg()
        assert op.estimated_partial_size(None) == 8
        assert op.estimated_partial_size(5) == 8
        assert op.estimated_partial_size({"a": 1, "b": 2}) == 32
        assert op.estimated_partial_size([1, 2, 3]) == 72

    def test_bounded_collect_partial_priced_per_heap_row(self, diamond_ctx):
        """A bounded Collect partial ({"n", "heap"}) costs 24 B per row it
        holds, like an unbounded row list — not a flat 2-entry dict."""
        op = CollectAgg(row_fn=lambda t: (t.vertex,),
                        order_key=lambda row: row[0], limit=3)
        op.idx = 36
        ctx = diamond_ctx.ctx(0)
        op.apply(ctx, trav(1))
        partial = op.partial(diamond_ctx.memo_stores[0].peek(0))
        assert op.estimated_partial_size(partial) == 24
        for v in range(2, 10):
            op.apply(ctx, trav(v))
        assert len(partial["heap"]) == 3
        assert op.estimated_partial_size(partial) == 72
        assert op.estimated_partial_size(None) == 8
        unbounded = CollectAgg(order_key=lambda row: row)
        assert unbounded.estimated_partial_size([1, 2]) == 48

    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("unique", [True, False])
    def test_bounded_collect_rejection_keeps_heap_layout(
        self, diamond_ctx, ascending, unique
    ):
        """Rejecting a row strictly worse than the heap root before
        building its entry leaves the heap list exactly as the plain
        push/pop sequence would — contents and layout — on the scalar
        and the batch path alike."""
        import heapq
        import random

        from repro.core.steps import _NegKey

        rng = random.Random(7 + ascending + 2 * unique)
        rows = [(rng.randrange(12), i) for i in range(300)]
        limit = 5
        ref, count = [], 0
        for row in rows:
            count += 1
            key = row[0]
            entry = ((_NegKey(key), count, row) if ascending
                     else (key, count, row))
            if unique and len(ref) >= limit:
                if ref[0] < entry:
                    heapq.heappushpop(ref, entry)
            else:
                heapq.heappush(ref, entry)
                if len(ref) > limit:
                    heapq.heappop(ref)
        for pid, batched in ((0, False), (1, True)):
            op = CollectAgg(row_fn=lambda t: t.payload,
                            order_key=lambda row: row[0], ascending=ascending,
                            limit=limit, unique_order=unique)
            op.idx = 37
            ctx = diamond_ctx.ctx(pid)
            travs = [trav(0, payload=row) for row in rows]
            if batched:
                op.apply_batch(ctx, travs)
            else:
                for t in travs:
                    op.apply(ctx, t)
            partial = op.partial(diamond_ctx.memo_stores[pid].peek(0))
            assert [e[1:] for e in partial["heap"]] == [e[1:] for e in ref]
            assert partial["n"] == len(rows)
