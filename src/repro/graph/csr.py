"""Compressed sparse row (CSR) adjacency index.

Per-partition workers scan adjacency lists millions of times per query; the
generic dict-of-lists layout of :class:`repro.graph.property_graph.PropertyGraph`
is convenient for construction but slow and memory-hungry for scans. Each
partition therefore builds one :class:`CSRIndex` per (direction, edge label)
over its local vertices.

The three flat arrays are ``array('q')`` typed arrays (signed 64-bit): a
Python list of ``n`` small ints costs ~28 bytes per element in object
headers plus 8 bytes per pointer, while the typed array stores 8 bytes per
element contiguously — a 4–5× memory saving on the largest data structure in
the system, with C-speed slicing for the batch Expand kernel
(:meth:`CSRIndex.arrays` / :meth:`CSRIndex.neighbors_slice`).

Vertex ids inside a CSR index are *local dense indexes*; the owning partition
store keeps the global↔local mapping.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class CSRIndex:
    """Immutable CSR adjacency over densely numbered source vertices.

    Stores, for each local source index ``i``, a slice of
    ``(target_global_id, edge_id)`` pairs in two parallel flat arrays.
    """

    __slots__ = ("_offsets", "_targets", "_edge_ids", "_np_views")

    def __init__(
        self,
        offsets: Sequence[int],
        targets: Sequence[int],
        edge_ids: Sequence[int],
    ) -> None:
        if len(targets) != len(edge_ids):
            raise ValueError("targets and edge_ids must be parallel arrays")
        if not offsets or offsets[0] != 0 or offsets[-1] != len(targets):
            raise ValueError("malformed CSR offsets")
        self._offsets = array("q", offsets)
        self._targets = array("q", targets)
        self._edge_ids = array("q", edge_ids)
        self._np_views = None

    @classmethod
    def from_adjacency(
        cls, num_sources: int, adjacency: Dict[int, List[Tuple[int, int]]]
    ) -> "CSRIndex":
        """Build from ``{local_src: [(target_gid, eid), ...]}``.

        Sources absent from ``adjacency`` get empty slices.
        """
        offsets = [0] * (num_sources + 1)
        for src, pairs in adjacency.items():
            if not 0 <= src < num_sources:
                raise ValueError(f"local source index out of range: {src}")
            offsets[src + 1] = len(pairs)
        for i in range(num_sources):
            offsets[i + 1] += offsets[i]
        targets = [0] * offsets[-1]
        edge_ids = [0] * offsets[-1]
        for src, pairs in adjacency.items():
            base = offsets[src]
            for k, (tgt, eid) in enumerate(pairs):
                targets[base + k] = tgt
                edge_ids[base + k] = eid
        return cls(offsets, targets, edge_ids)

    def resharded(
        self,
        gone: Sequence[int],
        rows: Sequence[Optional[Tuple[array, array]]],
    ) -> "CSRIndex":
        """A new index without the sources ``gone`` and with ``rows`` appended.

        ``gone`` lists local indexes in ascending order; ``rows`` holds one
        ``(targets, edge_ids)`` pair (or ``None`` for no edges) per new
        source, numbered after the survivors. Survivors keep their
        relative order, and each run of consecutive survivors is copied as
        one contiguous slice of the typed arrays, so the Python-level work
        is one offset per source plus one slice per appended row.
        """
        off, tg, ei = self._offsets, self._targets, self._edge_ids
        offsets = array("q", [0])
        targets = array("q")
        edge_ids = array("q")
        start = 0
        for stop in [*gone, len(off) - 1]:
            if stop > start:
                lo, hi = off[start], off[stop]
                shift = len(targets) - lo
                targets += tg[lo:hi]
                edge_ids += ei[lo:hi]
                run = off[start + 1:stop + 1]
                offsets += array("q", [o + shift for o in run]) if shift else run
            start = stop + 1
        for row in rows:
            if row is not None:
                targets += row[0]
                edge_ids += row[1]
            offsets.append(len(targets))
        return CSRIndex(offsets, targets, edge_ids)

    @property
    def num_sources(self) -> int:
        return len(self._offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self._targets)

    def degree(self, local_src: int) -> int:
        """Number of edges of a local source index."""
        return self._offsets[local_src + 1] - self._offsets[local_src]

    def arrays(self) -> Tuple[array, array]:
        """The raw ``(offsets, targets)`` typed arrays (read-only contract).

        The batch Expand kernel reads these directly: one bounds lookup and
        one C-level slice per traverser, instead of a method call chain per
        neighbor list.
        """
        return self._offsets, self._targets

    def np_arrays(self):
        """Zero-copy NumPy int64 views of ``(offsets, targets)``.

        Built lazily with ``np.frombuffer`` over the ``array('q')`` storage
        — no copy, read-only — and cached for the index's lifetime (the
        index is immutable). Requires NumPy; callers gate on availability
        (the vector kernel never asks without it).
        """
        views = self._np_views
        if views is None:
            import numpy as np

            views = self._np_views = (
                np.frombuffer(self._offsets, dtype=np.int64),
                np.frombuffer(self._targets, dtype=np.int64),
            )
        return views

    def slice_bounds(self, local_src: int) -> Tuple[int, int]:
        """The ``[lo, hi)`` range of ``local_src``'s edges in the arrays."""
        return self._offsets[local_src], self._offsets[local_src + 1]

    def neighbors_slice(self, lo: int, hi: int) -> array:
        """Bulk accessor: target gids in ``[lo, hi)`` as a typed array."""
        return self._targets[lo:hi]

    def row(self, local_src: int) -> Tuple[array, array]:
        """``local_src``'s ``(targets, edge_ids)`` slices as typed arrays."""
        lo = self._offsets[local_src]
        hi = self._offsets[local_src + 1]
        return self._targets[lo:hi], self._edge_ids[lo:hi]

    def min_edge_id(self) -> int:
        """The smallest edge id in the index (raises when it has none)."""
        return min(self._edge_ids)

    def neighbors(self, local_src: int) -> List[int]:
        """Target global vertex ids of ``local_src``'s edges."""
        lo = self._offsets[local_src]
        hi = self._offsets[local_src + 1]
        return self._targets[lo:hi].tolist()

    def edges(self, local_src: int) -> List[Tuple[int, int]]:
        """``(target_gid, edge_id)`` pairs of ``local_src``'s edges."""
        lo = self._offsets[local_src]
        hi = self._offsets[local_src + 1]
        return list(zip(self._targets[lo:hi], self._edge_ids[lo:hi]))

    def iter_all(self) -> Iterable[Tuple[int, int, int]]:
        """Yield ``(local_src, target_gid, edge_id)`` for every edge."""
        for src in range(self.num_sources):
            lo = self._offsets[src]
            hi = self._offsets[src + 1]
            for k in range(lo, hi):
                yield src, self._targets[k], self._edge_ids[k]
