"""Anchor territories (paper Section 3.2, function IdentifyTerritories).

An *anchor node* divides long calling contexts into pieces. The territory
of an anchor ``r`` is everything reachable from ``r`` by a bounded
depth-first search that *retreats at other anchor nodes*: a DFS from ``r``
visits a node's outgoing edges only if the node is ``r`` itself or a
non-anchor. Other anchors encountered are included as boundary nodes (the
edges leading to them belong to the territory — the addition on an edge
entering an anchor executes before the push/reset at the anchor's entry).

From the territories we derive:

* ``nanchors[n]`` — anchors whose territory contains node ``n``;
* ``eanchors[e]`` — anchors whose territory contains edge ``e``.

These sets index the per-anchor CAV/ICC tables of Algorithm 2.

When Algorithm 2 adds an anchor, :class:`TerritoryGrowth` updates the
membership instead of recomputing every territory: on an acyclic graph
a new anchor changes only the nodes of its own bounded DFS.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro import obs
from repro.errors import GraphError
from repro.graph.callgraph import CallEdge, CallGraph

__all__ = ["Territories", "TerritoryGrowth", "identify_territories"]


@dataclass
class Territories:
    """Anchor reachability sets for a fixed anchor set."""

    anchors: List[str]
    nanchors: Dict[str, List[str]]
    eanchors: Dict[CallEdge, List[str]]

    def node_anchors(self, node: str) -> List[str]:
        """Anchors that can reach ``node`` within their territory."""
        return self.nanchors.get(node, [])

    def edge_anchors(self, edge: CallEdge) -> List[str]:
        """Anchors that can reach ``edge`` within their territory."""
        return self.eanchors.get(edge, [])

    def territory_nodes(self, anchor: str) -> List[str]:
        """All nodes in one anchor's territory (incl. boundary anchors)."""
        return [n for n, rs in self.nanchors.items() if anchor in rs]

    def territory_edges(self, anchor: str) -> List[CallEdge]:
        return [e for e, rs in self.eanchors.items() if anchor in rs]


def _bounded_dfs(
    graph: CallGraph, root: str, anchors: Set[str]
) -> Tuple[List[str], List[CallEdge]]:
    """Paper's BoundedDFS: traverse from ``root``, retreat at anchors.

    Returns (visited nodes, visited edges), deterministic order. Boundary
    anchors are visited (their incoming edges are part of the territory)
    but never expanded.
    """
    visited_nodes: Dict[str, None] = {root: None}
    # Each node is expanded at most once, so no edge is visited twice.
    visited_edges: List[CallEdge] = []
    stack = [root]
    while stack:
        node = stack.pop()
        for edge in graph.out_edges(node):
            visited_edges.append(edge)
            callee = edge.callee
            if callee in visited_nodes:
                continue
            visited_nodes[callee] = None
            if callee not in anchors:
                stack.append(callee)
    return list(visited_nodes), visited_edges


def identify_territories(
    graph: CallGraph, anchors: Iterable[str]
) -> Territories:
    """Compute ``nanchors`` / ``eanchors`` for the given anchor set.

    The entry node must be among the anchors (it always is in
    Algorithm 2: ``An`` starts as ``{main}``).
    """
    anchor_list = list(dict.fromkeys(anchors))
    anchor_set = set(anchor_list)
    if graph.entry not in anchor_set:
        raise GraphError(
            f"entry {graph.entry!r} must be an anchor (got {anchor_list})"
        )
    for anchor in anchor_list:
        if anchor not in graph:
            raise GraphError(f"anchor {anchor!r} is not a node")

    nanchors: Dict[str, List[str]] = {}
    eanchors: Dict[CallEdge, List[str]] = {}
    visits = 0
    for anchor in anchor_list:
        nodes, edges = _bounded_dfs(graph, anchor, anchor_set)
        visits += len(nodes)
        for node in nodes:
            nanchors.setdefault(node, []).append(anchor)
        for edge in edges:
            eanchors.setdefault(edge, []).append(anchor)
    obs.counter("encode.territory_visits").inc(visits)
    return Territories(anchors=anchor_list, nanchors=nanchors, eanchors=eanchors)


class TerritoryGrowth:
    """Territory membership that follows a growing anchor set.

    Starts from ``territories`` (from :func:`identify_territories`) and
    is updated in place by :meth:`grow`. It keeps what Algorithm 2's
    pass reads, with the exact members and list order a recompute
    would give:

    * ``nanchors[n]``, the anchors whose territory holds ``n``, in
      anchor order;
    * ``out_anchors[n]``, the anchors whose territory holds every
      out-edge of ``n``. A territory expands its own anchor and every
      non-anchor in it, so that is ``[n]`` for an anchor and
      ``nanchors[n]`` for a non-anchor: an edge's anchors are its
      caller's ``out_anchors``.

    The dicts' key order is not a recompute's; recompute once when the
    anchors stop growing to get the final :class:`Territories`.
    """

    def __init__(
        self,
        graph: CallGraph,
        territories: Territories,
        position: Dict[str, int],
    ):
        self.graph = graph
        #: Topological position of every node of the (acyclic) graph.
        self.position = position
        self.anchors: List[str] = list(territories.anchors)
        self.anchor_set: Set[str] = set(self.anchors)
        self.nanchors: Dict[str, List[str]] = dict(territories.nanchors)
        self.out_anchors: Dict[str, List[str]] = dict(self.nanchors)
        for anchor in territories.anchors:
            self.out_anchors[anchor] = [anchor]

    def grow(
        self, new: List[str]
    ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
        """Add the anchors ``new``; return the ``(node, anchor)`` pairs
        that left a territory and those that joined one.

        The graph is acyclic, so no path leads from a new anchor back to
        itself: a node can leave an old anchor's territory only if every
        path to it from that anchor ran through a new one, which puts
        the node in the new anchor's own bounded DFS. Those nodes are
        visited once each in topological order, and a node's anchors
        are re-derived from its in-edges' (its callers' ``out_anchors``,
        already final) plus itself if it is an anchor. Every other
        node keeps its anchors.
        """
        graph, position = self.graph, self.position
        nanchors, out_anchors = self.nanchors, self.out_anchors
        anchor_set = self.anchor_set
        self.anchors.extend(new)
        anchor_set.update(new)
        fresh_set = set(new)
        left: List[Tuple[str, str]] = []
        joined: List[Tuple[str, str]] = []
        heap = [(position[anchor], anchor) for anchor in new]
        heapq.heapify(heap)
        seen = set(fresh_set)
        while heap:
            _, node = heapq.heappop(heap)
            reach = {node} if node in anchor_set else set()
            for edge in graph.in_edges(node):
                reach.update(out_anchors.get(edge.caller, ()))
            members = []
            for anchor in nanchors.get(node, ()):
                if anchor in reach:
                    members.append(anchor)
                else:
                    left.append((node, anchor))
            for anchor in new:
                if anchor in reach:
                    members.append(anchor)
                    joined.append((node, anchor))
            nanchors[node] = members
            if node in fresh_set:
                out_anchors[node] = [node]
            elif node in anchor_set:
                continue  # an old anchor: a boundary, not expanded
            else:
                out_anchors[node] = members
            for edge in graph.out_edges(node):
                callee = edge.callee
                if callee not in seen:
                    seen.add(callee)
                    heapq.heappush(heap, (position[callee], callee))
        obs.counter("encode.territory_visits").inc(len(seen))
        return left, joined
