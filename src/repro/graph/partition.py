"""Graph partitioning: placement-owned sharding and per-partition stores.

The paper (§II-C) divides the vertex set across partitions with a hash
function ``H: V → PartId``; each partition is owned by exactly one
single-threaded worker (shared-nothing, §IV). Placement itself now lives
in :mod:`repro.graph.placement` — the hash baseline plus a relocation
table — and this module keeps the storage side. A partition stores:

* its local vertices with labels and properties,
* CSR adjacency per (direction, edge label) — *all* edges incident to a
  local vertex in that direction, so a worker can expand from any vertex it
  owns without remote lookups,
* optional (label, property) → vertices lookup indexes used by the
  ``IndexLookup`` step.

Cut edges appear in the out-CSR of the source's partition and the in-CSR of
the destination's partition; traversers, not edges, cross partitions.
:meth:`PartitionedGraph.move_vertices` relocates vertices between stores
(adjacency rows, edge records, indexes) in lockstep with the placement flip —
the storage half of live migration (docs/PARTITIONING.md).
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import PartitionError, VertexNotFoundError
from repro.graph.csr import CSRIndex
from repro.graph.placement import Placement, mix64  # noqa: F401 - re-export
from repro.graph.property_graph import BOTH, IN, OUT, Edge, PropertyGraph

#: modelled wire cost of shipping one vertex row / one CSR edge entry
#: during migration (labels + props headers; target gid + edge id)
VERTEX_SHIP_BYTES = 64
EDGE_SHIP_BYTES = 24

#: what a moved vertex ships: its non-empty rows per (direction, label)
#: CSR key as ``(targets, edge_ids)``, and the records of those edges
ShippedRows = Tuple[Dict[Tuple[str, str], Tuple[array, array]], Dict[int, Edge]]


class HashPartitioner(Placement):
    """The paper's partition function ``H: V → {0, ..., n_parts - 1}``.

    A :class:`~repro.graph.placement.Placement` with an (initially) empty
    relocation table: the static-hash special case every graph is built
    with. Assignments are memoized: routing consults the placement several
    times per traverser, and a dict hit is ~5× cheaper than re-mixing.
    Live migration layers relocations on top through the inherited
    :meth:`~repro.graph.placement.Placement.relocate` API.
    """


class PartitionStore:
    """Read-optimized storage for one graph partition."""

    def __init__(
        self,
        pid: int,
        local_vertices: List[int],
        vertex_labels: Dict[int, str],
        vertex_props: Dict[int, Dict[str, Any]],
    ) -> None:
        self.pid = pid
        self._local_vertices = local_vertices
        self._local_index = {vid: i for i, vid in enumerate(local_vertices)}
        self._vertex_labels = vertex_labels
        self._vertex_props = vertex_props
        # (direction, edge_label) -> CSRIndex over local source indexes
        self._csr: Dict[Tuple[str, str], CSRIndex] = {}
        # edge id -> Edge (only edges whose source OR dest is local)
        self._edge_records: Dict[int, Edge] = {}
        # (vertex_label, prop_key) -> {value: [vids]}
        self._prop_index: Dict[Tuple[str, str], Dict[Any, List[int]]] = {}
        # vertex_label -> [local vids]
        self._label_index: Dict[str, List[int]] = {}
        for vid in local_vertices:
            self._label_index.setdefault(vertex_labels[vid], []).append(vid)

    # -- construction ---------------------------------------------------

    def set_csr(self, direction: str, label: str, csr: CSRIndex) -> None:
        """Attach the CSR index for one (direction, label)."""
        self._csr[(direction, label)] = csr

    def add_edge_record(self, edge: Edge) -> None:
        """Register an edge record touching this partition."""
        self._edge_records[edge.eid] = edge

    def build_property_index(self, vertex_label: str, key: str) -> None:
        """Build a (label, key) → vertices exact-match index."""
        index: Dict[Any, List[int]] = {}
        for vid in self._label_index.get(vertex_label, ()):
            value = self._vertex_props[vid].get(key)
            if value is not None:
                index.setdefault(value, []).append(vid)
        self._prop_index[(vertex_label, key)] = index

    # -- ownership ------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._local_vertices)

    def owns(self, vid: int) -> bool:
        """True when this partition owns the vertex."""
        return vid in self._local_index

    def local_vertices(self, label: Optional[str] = None) -> List[int]:
        """Owned vertex ids (optionally one label)."""
        if label is None:
            return self._local_vertices
        return self._label_index.get(label, [])

    def edge_labels(self) -> Iterable[str]:
        """Edge labels with adjacency in this partition."""
        return {label for (_d, label) in self._csr}

    # -- vertex data ----------------------------------------------------

    def vertex_label(self, vid: int) -> str:
        """The label of an owned vertex."""
        self._require_local(vid)
        return self._vertex_labels[vid]

    def vertex_properties(self, vid: int) -> Dict[str, Any]:
        """The property dict of an owned vertex."""
        self._require_local(vid)
        return self._vertex_props[vid]

    def get_vertex_property(self, vid: int, key: str, default: Any = None) -> Any:
        """One property of an owned vertex (or ``default``)."""
        self._require_local(vid)
        return self._vertex_props[vid].get(key, default)

    # -- adjacency ------------------------------------------------------

    def local_of(self, vid: int) -> int:
        """The dense local index of an owned vertex (raises if not owned)."""
        return self._local_of(vid)

    def local_index_map(self) -> Dict[int, int]:
        """The vid → dense local index mapping for owned vertices.

        Batch kernels index this dict directly, skipping two method calls
        per traverser. Callers must not mutate it; a missing vertex raises
        ``KeyError`` instead of :class:`PartitionError`.
        """
        return self._local_index

    def adjacency(self, direction: str, label: str) -> Optional[CSRIndex]:
        """The CSR index for one (direction, label), or ``None``.

        Batch kernels use this to get the raw arrays once per run instead of
        paying a dict lookup per traverser.
        """
        return self._csr.get((direction, label))

    def neighbors(
        self, vid: int, direction: str, label: Optional[str] = None
    ) -> List[int]:
        """Neighbor global ids of a *local* vertex."""
        if direction == BOTH:
            return self.neighbors(vid, OUT, label) + self.neighbors(vid, IN, label)
        local = self._local_of(vid)
        if label is not None:
            csr = self._csr.get((direction, label))
            return csr.neighbors(local) if csr is not None else []
        result: List[int] = []
        for (d, _l), csr in self._csr.items():
            if d == direction:
                result.extend(csr.neighbors(local))
        return result

    def edges(
        self, vid: int, direction: str, label: Optional[str] = None
    ) -> List[Tuple[int, int]]:
        """``(neighbor_gid, eid)`` pairs of a local vertex's edges."""
        if direction == BOTH:
            return self.edges(vid, OUT, label) + self.edges(vid, IN, label)
        local = self._local_of(vid)
        if label is not None:
            csr = self._csr.get((direction, label))
            return csr.edges(local) if csr is not None else []
        result: List[Tuple[int, int]] = []
        for (d, _l), csr in self._csr.items():
            if d == direction:
                result.extend(csr.edges(local))
        return result

    def degree(self, vid: int, direction: str, label: Optional[str] = None) -> int:
        """Degree of an owned vertex in one direction."""
        if direction == BOTH:
            return self.degree(vid, OUT, label) + self.degree(vid, IN, label)
        local = self._local_of(vid)
        if label is not None:
            csr = self._csr.get((direction, label))
            return csr.degree(local) if csr is not None else 0
        return sum(
            csr.degree(local) for (d, _l), csr in self._csr.items() if d == direction
        )

    def edge_record(self, eid: int) -> Optional[Edge]:
        """The Edge record by id, if this partition holds it."""
        return self._edge_records.get(eid)

    # -- index lookup ---------------------------------------------------

    def index_lookup(self, vertex_label: str, key: str, value: Any) -> List[int]:
        """Exact-match lookup; requires :meth:`build_property_index` first."""
        index = self._prop_index.get((vertex_label, key))
        if index is None:
            raise PartitionError(
                f"no index on ({vertex_label!r}, {key!r}) in partition {self.pid}"
            )
        return index.get(value, [])

    def has_property_index(self, vertex_label: str, key: str) -> bool:
        """True when the (label, key) index was built."""
        return (vertex_label, key) in self._prop_index

    # -- migration ------------------------------------------------------

    def _ship_rows(self, vid: int) -> ShippedRows:
        """A resident vertex's adjacency rows and edge records.

        What a migration ships to the new owner: the non-empty
        ``(targets, edge_ids)`` row of every CSR, keyed like ``_csr``, and
        the record of every edge in them. A row lists all of the vertex's
        edges in one direction and label, wherever the neighbors live, so
        it is valid unchanged on any partition.
        """
        local = self._local_index[vid]
        records = self._edge_records
        rows: Dict[Tuple[str, str], Tuple[array, array]] = {}
        shipped: Dict[int, Edge] = {}
        for key, csr in self._csr.items():
            targets, eids = csr.row(local)
            if eids:
                rows[key] = (targets, eids)
                for eid in eids:
                    shipped[eid] = records[eid]
        return rows, shipped

    def _reshard(
        self,
        departed: List[int],
        arrivals: List[int],
        shipped: Mapping[int, ShippedRows],
    ) -> None:
        """Move rows out of and into this partition in place (live migration).

        ``departed`` residents leave; ``arrivals`` (in vid order) join with
        the rows ``shipped`` from their old owners. Survivors keep their
        dense order and their CSR slices are copied as contiguous runs;
        arrivals are appended after them. CSRs left empty are dropped, and
        keys stay ordered OUT before IN, then by smallest eid, the order
        :meth:`PartitionedGraph.from_graph` creates them in. An edge record
        leaves with a departed vertex unless its other endpoint still
        lives here. The cost is O(moved rows + resident count) per
        partition, plus a memcpy of the surviving arrays (and a min-eid
        scan per CSR when several labels share a direction).

        Mutates the existing containers instead of rebinding them:
        kernels, step contexts, and drains hold references to these dicts
        across events, and in-place mutation makes the flip visible to
        all of them at one simulated instant. Built property indexes are
        rebuilt over the new resident set.
        """
        index = self._local_index
        gone = sorted(index[vid] for vid in departed)
        leaving = set(departed)
        local = [vid for vid in self._local_vertices if vid not in leaving]
        local.extend(arrivals)
        arrival_rows = [shipped[vid][0] for vid in arrivals]
        keys = dict.fromkeys(self._csr)
        for rows in arrival_rows:
            keys.update(dict.fromkeys(rows))
        old_n = len(self._local_vertices)
        csrs: Dict[Tuple[str, str], CSRIndex] = {}
        for key in keys:
            base = self._csr.get(key)
            if base is None:  # a label new to this partition
                base = CSRIndex([0] * (old_n + 1), (), ())
            csr = base.resharded(gone, [rows.get(key) for rows in arrival_rows])
            if csr.num_edges:
                csrs[key] = csr

        self._local_vertices[:] = local
        index.clear()
        index.update({vid: i for i, vid in enumerate(local)})
        records = self._edge_records
        for vid in departed:
            for targets, eids in shipped[vid][0].values():
                for other, eid in zip(targets, eids):
                    if other not in index:
                        records.pop(eid, None)
        for vid in arrivals:
            records.update(shipped[vid][1])
        # OUT before IN, then by smallest eid (a lone key needs no scan)
        per_direction = Counter(direction for direction, _l in csrs)

        def rank(key: Tuple[str, str]) -> Tuple[bool, int]:
            crowded = per_direction[key[0]] > 1
            return key[0] != OUT, csrs[key].min_edge_id() if crowded else 0

        self._csr.clear()
        for key in sorted(csrs, key=rank):
            self._csr[key] = csrs[key]
        self._label_index.clear()
        for vid in local:
            self._label_index.setdefault(self._vertex_labels[vid], []).append(vid)
        for vertex_label, key in list(self._prop_index):
            self.build_property_index(vertex_label, key)

    # -- internal -------------------------------------------------------

    def _local_of(self, vid: int) -> int:
        try:
            return self._local_index[vid]
        except KeyError:
            raise PartitionError(
                f"vertex {vid} is not owned by partition {self.pid}"
            ) from None

    def _require_local(self, vid: int) -> None:
        if vid not in self._local_index:
            if vid not in self._vertex_labels:
                raise VertexNotFoundError(vid)
            raise PartitionError(f"vertex {vid} is not owned by partition {self.pid}")


class PartitionedGraph:
    """A property graph sharded into :class:`PartitionStore` shards.

    This is the ``(V, E, λ, H)`` part of the paper's partitioned stateful
    graph model; the memoranda ``M`` live in the runtime
    (:mod:`repro.core.memo`) because their lifetime is query-scoped.
    """

    def __init__(
        self,
        partitioner: HashPartitioner,
        stores: List[PartitionStore],
        vertex_count: int,
        edge_count: int,
        label_counts: Dict[str, int],
    ) -> None:
        self.partitioner = partitioner
        self.stores = stores
        self.vertex_count = vertex_count
        self.edge_count = edge_count
        self.label_counts = label_counts
        self._indexed: List[Tuple[str, str]] = []
        # Stores share one labels dict; it doubles as the vertex-id domain
        # for membership checks in partition_of.
        self._vertex_labels = stores[0]._vertex_labels if stores else {}

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def partition_of(self, vid: int) -> int:
        """The owning partition id of a vertex (the placement lookup).

        Raises :class:`~repro.errors.VertexNotFoundError` for ids outside
        the graph — an out-of-range id would otherwise hash to a valid
        partition and fail much later, deep inside a store lookup.
        """
        if vid not in self._vertex_labels:
            raise VertexNotFoundError(vid)
        return self.partitioner(vid)

    def store_of(self, vid: int) -> PartitionStore:
        """The owning partition store of a vertex."""
        return self.stores[self.partition_of(vid)]

    def create_index(self, vertex_label: str, key: str) -> None:
        """Build the (label, key) index in every partition."""
        for store in self.stores:
            store.build_property_index(vertex_label, key)
        self._indexed.append((vertex_label, key))

    def indexed_keys(self) -> List[Tuple[str, str]]:
        """All (label, key) pairs with built indexes."""
        return list(self._indexed)

    def has_index(self, vertex_label: str, key: str) -> bool:
        """True when the (label, key) index was built."""
        return (vertex_label, key) in self._indexed

    # convenience accessors that route through the owning partition

    def vertex_label(self, vid: int) -> str:
        """A vertex's label, routed through its owner."""
        return self.store_of(vid).vertex_label(vid)

    def get_vertex_property(self, vid: int, key: str, default: Any = None) -> Any:
        """A vertex property, routed through its owner."""
        return self.store_of(vid).get_vertex_property(vid, key, default)

    def neighbors(
        self, vid: int, direction: str = OUT, label: Optional[str] = None
    ) -> List[int]:
        """A vertex's neighbors, routed through its owner."""
        return self.store_of(vid).neighbors(vid, direction, label)

    def partition_sizes(self) -> List[int]:
        """Owned-vertex count per partition."""
        return [store.vertex_count for store in self.stores]

    def cut_stats(self) -> Dict[str, Any]:
        """Edge-cut and balance statistics for the current placement.

        Placement quality, observable without tracing: every out-edge is
        counted once (from its owner's out-CSR) and is *cut* when source
        and destination live in different partitions — cut edges are
        exactly the edges whose traversers cross the network (Fig 11).
        """
        placement = self.partitioner
        cut = 0
        total = 0
        for store in self.stores:
            pid = store.pid
            for (direction, _label), csr in store._csr.items():
                if direction != OUT:
                    continue
                for local in range(csr.num_sources):
                    for dst in csr.neighbors(local):
                        total += 1
                        if placement(dst) != pid:
                            cut += 1
        sizes = self.partition_sizes()
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        return {
            "total_edges": total,
            "cut_edges": cut,
            "cut_fraction": cut / total if total else 0.0,
            "partition_sizes": sizes,
            "max_load": max(sizes) if sizes else 0,
            "mean_load": mean,
            "imbalance": (max(sizes) / mean) if mean else 0.0,
        }

    # -- live migration (storage half) ----------------------------------

    def move_vertices(
        self, moves: Mapping[int, int]
    ) -> Tuple[Dict[int, int], int]:
        """Relocate vertices: flip the placement AND move the stored rows.

        The storage half of live migration: applies the placement
        relocation (write-through, so routing flips atomically), then
        moves each vertex's adjacency rows and edge records from its old
        owner to its new one, resharding every affected store in place
        (cut edges stay in both partitions per the class invariant; built
        indexes follow). Only the moved rows are touched, so the cost
        scales with the batch, not the graph. Returns ``(applied_moves,
        modelled_ship_bytes)``; no-op moves are dropped. Runtime state
        (memos, queued traversers, checkpoints) is the
        :class:`~repro.runtime.migrate.Migrator`'s job — callers that only
        need a static repartition can use this directly.
        """
        placement = self.partitioner
        old_pid: Dict[int, int] = {}
        for vid in moves:
            if vid not in self._vertex_labels:
                raise VertexNotFoundError(vid)
            old_pid[vid] = placement(vid)
        applied = placement.relocate(moves)
        if not applied:
            return {}, 0
        # The stores still hold the pre-flip rows: read what each vertex ships.
        shipped = {
            vid: self.stores[old_pid[vid]]._ship_rows(vid) for vid in applied
        }
        ship_bytes = 0
        departed: Dict[int, List[int]] = {}
        arrivals: Dict[int, List[int]] = {}
        for vid, pid in applied.items():
            degree = sum(len(eids) for _t, eids in shipped[vid][0].values())
            ship_bytes += VERTEX_SHIP_BYTES + degree * EDGE_SHIP_BYTES
            departed.setdefault(old_pid[vid], []).append(vid)
            arrivals.setdefault(pid, []).append(vid)
        for pid in sorted(departed.keys() | arrivals.keys()):
            self.stores[pid]._reshard(
                departed.get(pid, []), sorted(arrivals.get(pid, ())), shipped
            )
        return applied, ship_bytes

    @classmethod
    def from_graph(
        cls,
        graph: PropertyGraph,
        num_partitions: int,
    ) -> "PartitionedGraph":
        """Shard ``graph`` into ``num_partitions`` partitions.

        Every edge is materialized twice when it crosses partitions: in the
        source partition's out-CSR and the destination partition's in-CSR.
        """
        hp = HashPartitioner(num_partitions)
        assignment: Dict[int, int] = {}
        local_lists: List[List[int]] = [[] for _ in range(num_partitions)]
        bound = 0
        for vid in graph.vertices():
            pid = hp(vid)
            assignment[vid] = pid
            local_lists[pid].append(vid)
            if vid >= bound:
                bound = vid + 1
        # Sizes the placement plane's dense bulk-lookup table.
        hp.vertex_bound = bound

        stores: List[PartitionStore] = []
        for pid in range(num_partitions):
            # Share label/props dicts: stores only read the entries they own.
            store = PartitionStore(
                pid,
                local_lists[pid],
                graph._vertex_labels,  # noqa: SLF001 - intentional internal share
                graph._vertex_props,  # noqa: SLF001
            )
            stores.append(store)

        # Group edges per (partition, direction, label) adjacency.
        out_adj: List[Dict[str, Dict[int, List[Tuple[int, int]]]]] = [
            {} for _ in range(num_partitions)
        ]
        in_adj: List[Dict[str, Dict[int, List[Tuple[int, int]]]]] = [
            {} for _ in range(num_partitions)
        ]
        local_index = [
            {vid: i for i, vid in enumerate(vids)} for vids in local_lists
        ]
        for edge in graph.edges():
            sp = assignment[edge.src]
            dp = assignment[edge.dst]
            out_adj[sp].setdefault(edge.label, {}).setdefault(
                local_index[sp][edge.src], []
            ).append((edge.dst, edge.eid))
            in_adj[dp].setdefault(edge.label, {}).setdefault(
                local_index[dp][edge.dst], []
            ).append((edge.src, edge.eid))
            stores[sp].add_edge_record(edge)
            if dp != sp:
                stores[dp].add_edge_record(edge)

        for pid in range(num_partitions):
            n = len(local_lists[pid])
            for label, adj in out_adj[pid].items():
                stores[pid].set_csr(OUT, label, CSRIndex.from_adjacency(n, adj))
            for label, adj in in_adj[pid].items():
                stores[pid].set_csr(IN, label, CSRIndex.from_adjacency(n, adj))

        return cls(
            hp,
            stores,
            graph.vertex_count,
            graph.edge_count,
            graph.label_counts(),
        )
