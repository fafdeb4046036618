"""Compressed-sparse-row (CSR) snapshot of a social graph.

The mutable :class:`~repro.graph.digraph.SocialGraph` is convenient for
incremental updates, but the inner loops of the scheduling algorithms and the
throughput analyses iterate adjacency lists millions of times.  A frozen CSR
snapshot stores both orientations in flat ``numpy`` arrays, giving compact
memory and cache-friendly scans, mirroring how the paper's MapReduce jobs
stream adjacency data.

:class:`CSRGraph` implements the read-only
:class:`~repro.graph.view.GraphView` protocol, so every algorithm in
:mod:`repro.core` runs on it directly — CHITCHAT always does.  Adjacency
slices are sorted, which the vectorized kernels (hub-graph construction, wedge
intersection, binary-search edge membership) rely on.

Nodes must be dense integers ``0..n-1``.  Graphs with arbitrary hashable ids
must be relabeled first — :meth:`SocialGraph.relabeled` returns a dense-id
copy plus the ``old -> new`` mapping to translate results back::

    dense, mapping = graph.relabeled()
    csr = CSRGraph.from_graph(dense)
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import SocialGraph


class CSRGraph:
    """Immutable dual-orientation CSR representation.

    Attributes
    ----------
    out_indptr, out_indices:
        Standard CSR arrays for the successor (follower) lists.
    in_indptr, in_indices:
        CSR arrays for the predecessor (followee) lists.

    Every adjacency slice is sorted ascending.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
    )

    def __init__(
        self,
        num_nodes: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.num_edges = int(out_indices.shape[0])
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.in_indptr = in_indptr
        self.in_indices = in_indices

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: SocialGraph) -> "CSRGraph":
        """Freeze ``graph`` (nodes must be dense integers ``0..n-1``).

        Raises
        ------
        GraphError
            When any node id is not a plain integer in ``0..n-1``.  Use
            ``graph.relabeled()`` to obtain a dense-id copy (and the
            mapping to translate schedules back) before freezing.
        """
        n = graph.num_nodes
        for node in graph.nodes():
            # bool is an int subclass but makes a nonsensical node id
            if (
                isinstance(node, bool)
                or not isinstance(node, (int, np.integer))
                or not 0 <= node < n
            ):
                raise GraphError(
                    "CSRGraph requires dense integer node ids 0..n-1; "
                    f"got {node!r} among {n} nodes (call "
                    "SocialGraph.relabeled() first and keep its mapping "
                    "to translate results back)"
                )
        m = graph.num_edges
        src = np.fromiter((u for u, _v in graph.edges()), dtype=np.int64, count=m)
        dst = np.fromiter((v for _u, v in graph.edges()), dtype=np.int64, count=m)
        return cls.from_arrays(n, src, dst)

    @classmethod
    def from_arrays(cls, num_nodes: int, src: np.ndarray, dst: np.ndarray) -> "CSRGraph":
        """Build from parallel source/target arrays (no duplicate check).

        Raises
        ------
        GraphError
            On mismatched array lengths, non-integer endpoints, or
            endpoints outside ``0..num_nodes-1``.
        """
        try:
            src = np.asarray(src)
            dst = np.asarray(dst)
            if src.dtype.kind not in "iu" or dst.dtype.kind not in "iu":
                raise GraphError(
                    "edge endpoint arrays must be integer-typed; got "
                    f"{src.dtype} / {dst.dtype} (relabel non-integer node "
                    "ids with SocialGraph.relabeled() first)"
                )
            src = src.astype(np.int64, copy=False)
            dst = dst.astype(np.int64, copy=False)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"invalid edge endpoint arrays: {exc}") from None
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be 1-d arrays of equal length")
        if int(num_nodes) < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        out_indptr, out_indices = _build_csr(num_nodes, src, dst)
        in_indptr, in_indices = _build_csr(num_nodes, dst, src)
        return cls(num_nodes, out_indptr, out_indices, in_indptr, in_indices)

    # ------------------------------------------------------------------
    # GraphView protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: object) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def nodes(self) -> Iterator[int]:
        """Iterate over all node ids (``0..n-1``)."""
        return iter(range(self.num_nodes))

    def has_node(self, node: object) -> bool:
        """Whether ``node`` is a valid id of this snapshot."""
        return (
            isinstance(node, (int, np.integer))
            and not isinstance(node, bool)
            and 0 <= node < self.num_nodes
        )

    def successors(self, node: int) -> np.ndarray:
        """Follower ids of ``node`` as a sorted numpy slice (do not mutate)."""
        return self.out_indices[self.out_indptr[node] : self.out_indptr[node + 1]]

    def predecessors(self, node: int) -> np.ndarray:
        """Followee ids of ``node`` as a sorted numpy slice (do not mutate)."""
        return self.in_indices[self.in_indptr[node] : self.in_indptr[node + 1]]

    def out_degree(self, node: int) -> int:
        """Follower count."""
        return int(self.out_indptr[node + 1] - self.out_indptr[node])

    def in_degree(self, node: int) -> int:
        """Followee count."""
        return int(self.in_indptr[node + 1] - self.in_indptr[node])

    def out_degrees(self) -> np.ndarray:
        """Vector of follower counts for every node."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of followee counts for every node."""
        return np.diff(self.in_indptr)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges in CSR (source-major) order as Python ints."""
        src, dst = self.edge_arrays()
        return zip(src.tolist(), dst.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays in CSR order (copies)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.out_degrees())
        return src, self.out_indices.copy()

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership via binary search (successor lists are sorted)."""
        lo, hi = self.out_indptr[u], self.out_indptr[u + 1]
        pos = np.searchsorted(self.out_indices[lo:hi], v)
        return bool(pos < hi - lo and self.out_indices[lo + pos] == v)

    def edge_id(self, u: int, v: int) -> int:
        """Position of edge ``u -> v`` in CSR order (its global edge id).

        Raises :class:`GraphError` when the edge does not exist.  Edge ids
        index the dense per-edge vectors the schedulers' batch accounting
        uses (e.g. CHITCHAT's uncovered-edge bitmask).
        """
        lo, hi = self.out_indptr[u], self.out_indptr[u + 1]
        pos = int(np.searchsorted(self.out_indices[lo:hi], v))
        if pos >= hi - lo or self.out_indices[lo + pos] != v:
            raise GraphError(f"edge {u!r} -> {v!r} is not in the graph")
        return int(lo) + pos

    def to_graph(self) -> SocialGraph:
        """Thaw back into a mutable :class:`SocialGraph`."""
        g = SocialGraph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def _build_csr(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(src, dst)`` pairs into (indptr, indices) arrays."""
    if src.size and (src.min() < 0 or src.max() >= num_nodes):
        raise GraphError("edge endpoint out of range for declared num_nodes")
    if dst.size and (dst.min() < 0 or dst.max() >= num_nodes):
        raise GraphError("edge endpoint out of range for declared num_nodes")
    counts = np.bincount(src, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # source-major, destination-minor: each adjacency slice comes out sorted
    # so has_edge/edge_id can binary-search and kernels can merge-intersect
    order = np.lexsort((dst, src))
    indices = dst[order]
    return indptr, indices
