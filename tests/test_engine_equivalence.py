"""Property-based cross-engine equivalence.

The core guarantee of the reproduction: the async PSTM engine, the BSP
engine, every baseline variant, and the reference executor run the *same*
compiled plans and must return byte-identical result rows on arbitrary
graphs and queries — execution model changes cost, never answers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fused import (
    FusedCollectSink,
    FusedGroupCountSink,
    FusedMinDistChain,
)
from repro.errors import ConfigurationError
from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime import kernels as kernels_mod
from repro.runtime.bsp import BSPEngine
from repro.runtime.cluster import ClusterConfig
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.reference import LocalExecutor
from repro.runtime.vector import HAVE_NUMPY
from repro.core.progress import ProgressMode

CLUSTER = ClusterConfig(nodes=2, workers_per_node=2)
P = CLUSTER.num_partitions


def make_graph(seed: int, n: int = 40, degree: int = 3) -> PartitionedGraph:
    rng = random.Random(seed)
    b = GraphBuilder("v")
    for v in range(n):
        b.vertex(v, "v", weight=rng.randint(1, 50))
    for v in range(n):
        for _ in range(degree):
            u = rng.randrange(n)
            if u != v:
                b.edge(v, u, "e")
    return PartitionedGraph.from_graph(b.build(), P)


QUERY_BUILDERS = [
    lambda: (Traversal("q0").v_param("s").out("e").as_("v").select("v")),
    lambda: (Traversal("q1").v_param("s").out("e").out("e").dedup()
             .as_("v").select("v")),
    lambda: (Traversal("q2").v_param("s").khop("e", k=3)
             .values("w", "weight").as_("v").select("v", "w")
             .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
             .limit(5)),
    lambda: (Traversal("q3").v_param("s").khop("e", k=2).count()),
    lambda: (Traversal("q4").v_param("s").out("e").values("w", "weight")
             .sum_("w")),
    lambda: (Traversal("q5").v_param("s").out("e").both("e").dedup()
             .group_count()),
    lambda: (Traversal("q6").v_param("s").union(
        lambda b: b.out("e"), lambda b: b.in_("e")).dedup()
        .as_("v").select("v")),
    lambda: (Traversal("q7").v_param("s")
             .khop("e", k=4, dist_binding="d", emit="improving")
             .filter_(X.vertex().neq(X.param("s"))).min_("d")),
    lambda: (Traversal("q8").v_param("s").out("e").as_("v").group_count("v")
             .filter_(X.binding("count").ge(1)).select("key", "count")),
]


def normalized(rows, query_index):
    """Order-insensitive comparison for queries without a defined order."""
    if query_index in (2,):  # explicitly ordered
        return rows
    return sorted(rows, key=repr)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=40, deadline=None)
def test_async_engine_matches_reference(seed, query_index, start):
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    expected = LocalExecutor(graph).run(plan, {"s": start})
    engine = AsyncPSTMEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)
    got = engine.run(plan, {"s": start}).rows
    assert normalized(got, query_index) == normalized(expected, query_index)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=25, deadline=None)
def test_bsp_engine_matches_reference(seed, query_index, start):
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    expected = LocalExecutor(graph).run(plan, {"s": start})
    engine = BSPEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)
    got = engine.run(plan, {"s": start}).rows
    assert normalized(got, query_index) == normalized(expected, query_index)


@pytest.mark.parametrize("mode", list(ProgressMode))
@pytest.mark.parametrize("query_index", range(len(QUERY_BUILDERS)))
def test_every_query_under_every_progress_mode(mode, query_index):
    graph = make_graph(777)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    expected = LocalExecutor(graph).run(plan, {"s": 11})
    engine = AsyncPSTMEngine(
        graph, CLUSTER.nodes, CLUSTER.workers_per_node,
        config=EngineConfig(progress_mode=mode),
    )
    got = engine.run(plan, {"s": 11}).rows
    assert normalized(got, query_index) == normalized(expected, query_index)


# -- kernel tiers and fused plans ----------------------------------------------
#
# The second equivalence axis: on the SAME compiled plan, every kernel
# tier (scalar / batch / vector) must reproduce not just the rows but the
# exact simulated latency — bit for bit, float for float. A fused plan is
# a DIFFERENT plan, so it only owes the same result rows as its unfused
# source (its simulated timings differ by design — that is the win).

KERNELS = ["scalar", "batch"] + (["vector"] if HAVE_NUMPY else [])


def _run_kernel(graph, plan, start, kernel, fault_plan=None):
    engine = AsyncPSTMEngine(
        graph, CLUSTER.nodes, CLUSTER.workers_per_node,
        config=EngineConfig(kernel=kernel, fault_plan=fault_plan),
    )
    result = engine.run(plan, {"s": start})
    return result.rows, result.latency_us


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
    fuse=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_kernel_tiers_bit_identical(seed, query_index, start, fuse):
    """scalar == batch == vector on rows AND exact simulated latency, on
    both the unfused and the fused lowering of every fixed-shape query."""
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[query_index]().compile(graph, fuse=fuse)
    reference = _run_kernel(graph, plan, start, "scalar")
    for kernel in KERNELS[1:]:
        assert _run_kernel(graph, plan, start, kernel) == reference


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=25, deadline=None)
def test_fused_plan_rows_match_unfused(seed, query_index, start):
    graph = make_graph(seed)
    builder = QUERY_BUILDERS[query_index]
    unfused = builder().compile(graph)
    fused = builder().compile(graph, fuse=True)
    expected, _ = _run_kernel(graph, unfused, start, KERNELS[-1])
    got, _ = _run_kernel(graph, fused, start, KERNELS[-1])
    assert normalized(got, query_index) == normalized(expected, query_index)


@pytest.mark.parametrize("fault_seed", [1, 7, 23])
@pytest.mark.parametrize("fuse", [False, True])
def test_kernel_tiers_bit_identical_under_faults(fault_seed, fuse):
    """A seeded fault plan (drops, dups, delays) arms the ack/retransmit
    layer; the kernel tiers must still agree bit for bit."""
    graph = make_graph(99)
    plan = QUERY_BUILDERS[2]().compile(graph, fuse=fuse)
    fault = FaultPlan(
        seed=fault_seed, drop_rate=0.15, dup_rate=0.1, delay_rate=0.1
    )
    reference = _run_kernel(graph, plan, 11, "scalar", fault)
    for kernel in KERNELS[1:]:
        assert _run_kernel(graph, plan, 11, kernel, fault) == reference


def test_kernel_fallback_without_numpy(monkeypatch):
    """With NumPy absent, auto-selection degrades to the batch tier (and
    still answers correctly); asking for "vector" explicitly is a clear
    configuration error naming the repro[fast] extra."""
    monkeypatch.setattr(kernels_mod, "HAVE_NUMPY", False)
    assert kernels_mod.kernel_name_for(EngineConfig()) == "batch"
    assert kernels_mod.kernel_for(EngineConfig()) is kernels_mod.BATCH_KERNEL
    with pytest.raises(ConfigurationError, match=r"repro\[fast\]"):
        kernels_mod.kernel_for(EngineConfig(kernel="vector"))
    graph = make_graph(5)
    plan = QUERY_BUILDERS[0]().compile(graph)
    expected = LocalExecutor(graph).run(plan, {"s": 3})
    engine = AsyncPSTMEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)
    got = engine.run(plan, {"s": 3}).rows
    assert normalized(got, 0) == normalized(expected, 0)


# -- aggregation pushdown (fusion rule 5) --------------------------------------


def _topn_query(unique: bool) -> Traversal:
    # dedup() makes the vertex binding unique per row, so (w desc, v asc)
    # really is a total order and the unique declaration is truthful.
    return (
        Traversal("topn").v_param("s").out("e").dedup()
        .values("w", "weight").as_("v").select("v", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"),
                  unique=unique)
        .limit(4)
    )


def _topn_keyed(*parts) -> Traversal:
    return (
        Traversal("topn").v_param("s").out("e").dedup()
        .values("w", "weight").as_("v").select("v", "w")
        .order_by(*parts).limit(4)
    )


def _pushes_collect(traversal: Traversal, graph) -> bool:
    plan = traversal.compile(graph, fuse=True)
    return any(type(op) is FusedCollectSink for op in plan.ops)


def test_collect_pushdown_gated_on_unique_declaration():
    """The top-N pushdown fires only for a tie-free key: one declared
    with ``unique=True``, or one whose bare binding terms cover every
    selected column (equal keys then mean equal rows). A key leaving a
    selected column uncovered, or covering it only through an
    expression, does not fuse without the declaration."""
    graph = make_graph(321)
    assert _pushes_collect(_topn_query(True), graph)
    assert _pushes_collect(_topn_query(False), graph)  # inferred
    w_only = (X.binding("w"), "desc")
    assert not _pushes_collect(_topn_keyed(w_only), graph)
    expr_key = (X.binding("w").add(1), "desc"), (X.binding("v"), "asc")
    assert not _pushes_collect(_topn_keyed(*expr_key), graph)


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=20, deadline=None)
def test_collect_pushdown_rows_exact(seed, start):
    """The distributed top-N pushdown returns exactly the unfused rows —
    order included — whenever the declared total order is truthful."""
    graph = make_graph(seed)
    unfused = _topn_query(True).compile(graph)
    fused = _topn_query(True).compile(graph, fuse=True)
    rows_u, _ = _run_kernel(graph, unfused, start, KERNELS[-1])
    rows_f, _ = _run_kernel(graph, fused, start, KERNELS[-1])
    assert rows_f == rows_u


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=20, deadline=None)
def test_group_count_pushdown_rows_exact(seed, start):
    graph = make_graph(seed)
    q = lambda: (Traversal("gc").v_param("s").out("e").both("e")
                 .filter_(X.prop("weight").gt(10)).group_count(limit=6))
    fused = q().compile(graph, fuse=True)
    assert any(type(op) is FusedGroupCountSink for op in fused.ops)
    rows_u, _ = _run_kernel(graph, q().compile(graph), start, KERNELS[-1])
    rows_f, _ = _run_kernel(graph, fused, start, KERNELS[-1])
    assert rows_f == rows_u


# -- frontier fold (fusion rule 1 with a pushable barrier) ----------------------

FRONTIER_FOLD_QUERIES = {
    # Fig 1's shape with no unique=True: the (w desc, vid asc) key covers
    # the whole select, so the compiler infers it tie-free.
    "fig1": lambda: (Traversal("fig1").v_param("s").khop("e", k=3)
                     .filter_(X.vertex().neq(X.param("s")))
                     .values("w", "weight").as_("vid").select("vid", "w")
                     .order_by((X.binding("w"), "desc"),
                               (X.binding("vid"), "asc"))
                     .limit(5)),
    # The skew-churn two-stage plan: the group_count stage boundary.
    "two_stage": lambda: (Traversal("two_stage").v_param("s").khop("e", k=2)
                          .as_("v").group_count("v").out("e").count()),
}


@pytest.mark.parametrize("name", sorted(FRONTIER_FOLD_QUERIES))
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=15, deadline=None)
def test_frontier_fold_exact_and_tier_identical(name, seed, start):
    """The k-hop frontier folds its exit-chain survivors into the barrier
    partial: the fused plan returns the unfused rows, and every kernel
    tier runs it bit for bit alike (rows and simulated latency)."""
    graph = make_graph(seed)
    builder = FRONTIER_FOLD_QUERIES[name]
    fused = builder().compile(graph, fuse=True)
    assert any(type(op) is FusedMinDistChain and op.agg is not None
               for op in fused.ops)
    expected, _ = _run_kernel(graph, builder().compile(graph), start, "scalar")
    reference = _run_kernel(graph, fused, start, "scalar")
    assert reference[0] == expected
    for kernel in KERNELS[1:]:
        assert _run_kernel(graph, fused, start, kernel) == reference


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_weight_invariant_holds_for_every_completed_query(seed):
    """After completion, the tracker's ledgers are all terminated and the
    engine holds no active sessions or stray memo state."""
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[2]().compile(graph)
    engine = AsyncPSTMEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)
    engine.run(plan, {"s": seed % 40})
    assert not engine.sessions
    for runtime in engine.runtimes:
        assert runtime.memo_store.active_queries() == []
        assert not runtime.queue
