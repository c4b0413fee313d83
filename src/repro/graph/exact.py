"""Exact triangle / wedge / clustering computation (ground truth).

Every experiment in the paper reports estimator error against the true
statistic ``X`` of the full graph, so an exact counting substrate is a hard
requirement.  Two flavours are provided:

* Whole-graph counting via the classic degree-ordered neighbour-intersection
  algorithm (Chiba–Nishizeki style), O(a(G)·|K|) where ``a`` is arboricity —
  the same bound the paper quotes for Algorithm 2.
* :class:`ExactStreamCounter`, an incremental counter that maintains the
  exact cumulative triangle/wedge counts of the prefix graph as edges
  arrive.  This supplies the exact time series `(N_t(△), N_t(Λ))` needed by
  the tracking experiments (paper Table 3 and Figure 3) without recounting
  from scratch at every checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import EdgeKey, Node, is_self_loop


def triangle_count(graph: AdjacencyGraph) -> int:
    """Exact number of triangles in ``graph``.

    Uses the degree ordering ``u ≺ v  iff  (deg(u), u) < (deg(v), v)`` and
    counts, for every edge, common out-neighbours in the orientation induced
    by ``≺``.  Each triangle is counted exactly once.
    """
    order = _degree_order(graph)
    forward: Dict[Node, set] = {v: set() for v in graph.nodes()}
    for u, v in graph.edges():
        if order[u] < order[v]:
            forward[u].add(v)
        else:
            forward[v].add(u)
    total = 0
    for u, out_u in forward.items():
        for v in out_u:
            out_v = forward[v]
            if len(out_u) <= len(out_v):
                total += sum(1 for w in out_u if w in out_v)
            else:
                total += sum(1 for w in out_v if w in out_u)
    return total


def wedge_count(graph: AdjacencyGraph) -> int:
    """Exact number of wedges (paths of length 2): Σ_v C(deg(v), 2)."""
    return sum(d * (d - 1) // 2 for d in (graph.degree(v) for v in graph.nodes()))


def global_clustering(graph: AdjacencyGraph) -> float:
    """Global clustering coefficient α = 3·N(△)/N(Λ); 0 for wedge-free graphs."""
    wedges = wedge_count(graph)
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / wedges


def per_edge_triangles(graph: AdjacencyGraph) -> Dict[EdgeKey, int]:
    """Triangles through each edge: |Γ(u) ∩ Γ(v)| per edge {u, v}."""
    return {
        (u, v): len(graph.common_neighbors(u, v)) for u, v in graph.edges()
    }


def per_node_triangles(graph: AdjacencyGraph) -> Dict[Node, int]:
    """Triangles incident to each node (each triangle counted at 3 nodes)."""
    counts: Dict[Node, int] = {v: 0 for v in graph.nodes()}
    order = _degree_order(graph)
    forward: Dict[Node, set] = {v: set() for v in graph.nodes()}
    for u, v in graph.edges():
        if order[u] < order[v]:
            forward[u].add(v)
        else:
            forward[v].add(u)
    for u, out_u in forward.items():
        for v in out_u:
            out_v = forward[v]
            small, large = (out_u, out_v) if len(out_u) <= len(out_v) else (out_v, out_u)
            for w in small:
                if w in large:
                    counts[u] += 1
                    counts[v] += 1
                    counts[w] += 1
    return counts


def local_clustering(graph: AdjacencyGraph, v: Node) -> float:
    """Local clustering coefficient of node ``v``."""
    d = graph.degree(v)
    if d < 2:
        return 0.0
    nbrs = graph.neighbors(v)
    links = 0
    for u in nbrs:
        nbrs_u = graph.neighbors(u)
        if len(nbrs_u) < len(nbrs):
            links += sum(1 for w in nbrs_u if w in nbrs and w != v)
        else:
            links += sum(1 for w in nbrs if w in nbrs_u and w != u)
    # every triangle through v counted twice in the loop above
    return links / (d * (d - 1))


@dataclass(frozen=True)
class GraphStatistics:
    """Exact summary statistics of a graph (the paper's 'ACTUAL' columns)."""

    num_nodes: int
    num_edges: int
    triangles: int
    wedges: int
    clustering: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "triangles": self.triangles,
            "wedges": self.wedges,
            "clustering": self.clustering,
        }


def compute_statistics(graph: AdjacencyGraph) -> GraphStatistics:
    """Exact node/edge/triangle/wedge/clustering statistics of ``graph``."""
    triangles = triangle_count(graph)
    wedges = wedge_count(graph)
    clustering = 3.0 * triangles / wedges if wedges else 0.0
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        triangles=triangles,
        wedges=wedges,
        clustering=clustering,
    )


class ExactStreamCounter:
    """Exact cumulative subgraph counts of a growing edge stream.

    Processing edge ``{u, v}`` updates, in O(min degree):

    * triangles:  +|Γ_t(u) ∩ Γ_t(v)| (new triangles closed by the edge);
    * wedges:     +deg_t(u) + deg_t(v) (new paths of length 2 centred at
      either endpoint), where degrees/neighbourhoods are taken *before* the
      edge is added.

    Used for the exact time series in the tracking experiments.
    """

    __slots__ = ("_graph", "_triangles", "_wedges", "_edges_seen")

    def __init__(self) -> None:
        self._graph = AdjacencyGraph()
        self._triangles = 0
        self._wedges = 0
        self._edges_seen = 0

    def process(self, u: Node, v: Node) -> bool:
        """Account for edge ``{u, v}``; returns False for dup/self-loop."""
        if is_self_loop(u, v) or self._graph.has_edge(u, v):
            return False
        self._triangles += self._graph.triangles_through(u, v)
        self._wedges += self._graph.degree(u) + self._graph.degree(v)
        self._graph.add_edge(u, v)
        self._edges_seen += 1
        return True

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        for u, v in edges:
            self.process(u, v)

    @property
    def triangles(self) -> int:
        return self._triangles

    @property
    def wedges(self) -> int:
        return self._wedges

    @property
    def edges_seen(self) -> int:
        return self._edges_seen

    @property
    def clustering(self) -> float:
        if self._wedges == 0:
            return 0.0
        return 3.0 * self._triangles / self._wedges

    @property
    def graph(self) -> AdjacencyGraph:
        """The prefix graph accumulated so far (live; do not mutate)."""
        return self._graph


def _degree_order(graph: AdjacencyGraph) -> Dict[Node, Tuple[int, int]]:
    """Total order on nodes by (degree, stable index)."""
    return {
        v: (graph.degree(v), idx) for idx, v in enumerate(sorted(graph.nodes(), key=repr))
    }
