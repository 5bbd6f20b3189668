"""Call graph data structures.

The encoding algorithms in :mod:`repro.core` consume a call graph in the
exact shape the paper defines (Section 3.1, Algorithm 1):

    CG = <N, E> where each edge is a triple <caller, callee, label> and
    <caller, label> is a *call site* that may dispatch to several callees.

Nodes are function names (strings). A call site is identified by its caller
and a label (the paper uses the bytecode index; we use any hashable label,
typically an int or a string like ``"bb3:5"``). Multiple edges sharing one
call site model virtual dispatch.

All iteration orders are deterministic (insertion order) because the
encoding algorithms' outputs depend on the order in which incoming edges
are processed; determinism makes encodings reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import GraphError

__all__ = ["CallSite", "CallEdge", "CallGraph"]


@dataclass(frozen=True, order=True)
class CallSite:
    """A call site: a location inside ``caller`` that issues a call.

    ``label`` plays the role of the bytecode index in the paper; two call
    sites in the same caller are distinct iff their labels differ.
    """

    caller: str
    label: Hashable

    def __str__(self) -> str:
        return f"{self.caller}@{self.label}"


@dataclass(frozen=True, order=True)
class CallEdge:
    """A directed call edge ``<caller, callee, label>`` (paper's triple)."""

    caller: str
    callee: str
    label: Hashable

    @property
    def site(self) -> CallSite:
        return CallSite(self.caller, self.label)

    def __str__(self) -> str:
        return f"{self.caller}-[{self.label}]->{self.callee}"


class CallGraph:
    """A directed multigraph of functions connected by labelled call edges.

    Parameters
    ----------
    entry:
        Name of the entry function (``main`` in the paper). It is created
        automatically.

    Notes
    -----
    * Parallel edges are allowed only when their labels differ; the same
      triple may not be inserted twice.
    * Several edges with the same ``(caller, label)`` model a virtual call
      site with several dispatch targets.
    """

    #: Set once remove_edge drops the first edge of a site that keeps
    #: others: the site then sits before its first edge's place.
    _sites_unordered = False

    def __init__(self, entry: str = "main"):
        self._entry = entry
        # node -> attribute dict (insertion ordered).
        self._nodes: Dict[str, dict] = {}
        # All edges in insertion order.
        self._edges: List[CallEdge] = []
        self._edge_set: Set[CallEdge] = set()
        # node -> incoming/outgoing edges, insertion ordered.
        self._in: Dict[str, List[CallEdge]] = {}
        self._out: Dict[str, List[CallEdge]] = {}
        # call site -> dispatch target edges, insertion ordered.
        self._site_edges: Dict[CallSite, List[CallEdge]] = {}
        self.add_node(entry)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, **attrs) -> None:
        """Add a function node. Re-adding merges attributes."""
        if name in self._nodes:
            self._nodes[name].update(attrs)
            return
        self._nodes[name] = dict(attrs)
        self._in[name] = []
        self._out[name] = []

    def add_edge(
        self, caller: str, callee: str, label: Hashable = None
    ) -> CallEdge:
        """Add a call edge; creates missing endpoint nodes.

        When ``label`` is None a fresh label unique within the caller is
        generated, producing a monomorphic call site.
        """
        if label is None:
            label = self._fresh_label(caller)
        edge = CallEdge(caller, callee, label)
        if edge in self._edge_set:
            raise GraphError(f"duplicate call edge {edge}")
        self.add_node(caller)
        self.add_node(callee)
        self._edges.append(edge)
        self._edge_set.add(edge)
        self._out[caller].append(edge)
        self._in[callee].append(edge)
        self._site_edges.setdefault(edge.site, []).append(edge)
        return edge

    def add_call(self, caller: str, targets: Iterable[str],
                 label: Hashable = None) -> CallSite:
        """Add one call site dispatching to every function in ``targets``.

        Convenience for building virtual call sites: all resulting edges
        share the same ``(caller, label)`` site.
        """
        targets = list(targets)
        if not targets:
            raise GraphError(f"call site in {caller!r} needs >= 1 target")
        if label is None:
            label = self._fresh_label(caller)
        for callee in targets:
            self.add_edge(caller, callee, label)
        return CallSite(caller, label)

    def remove_edge(self, edge: CallEdge) -> None:
        """Remove one call edge; endpoint nodes stay.

        Raises :class:`GraphError` when the edge is absent. Used by the
        incremental re-encoding path (:mod:`repro.analysis.incremental`)
        to apply deltas without rebuilding the whole graph.
        """
        if edge not in self._edge_set:
            raise GraphError(f"cannot remove missing edge {edge}")
        self._edges.remove(edge)
        self._edge_set.discard(edge)
        self._out[edge.caller].remove(edge)
        self._in[edge.callee].remove(edge)
        remaining = self._site_edges[edge.site]
        if remaining[0] == edge and len(remaining) > 1:
            self._sites_unordered = True
        remaining.remove(edge)
        if not remaining:
            del self._site_edges[edge.site]

    def remove_node(self, name: str) -> None:
        """Remove a node and every edge incident to it.

        The entry node cannot be removed.
        """
        if name not in self._nodes:
            raise GraphError(f"cannot remove unknown node {name!r}")
        if name == self._entry:
            raise GraphError(f"cannot remove the entry node {name!r}")
        for edge in list(self._in[name]) + list(self._out[name]):
            if edge in self._edge_set:
                self.remove_edge(edge)
        del self._nodes[name]
        del self._in[name]
        del self._out[name]

    def _fresh_label(self, caller: str) -> int:
        used = {e.label for e in self._out.get(caller, ())}
        label = len(used)
        while label in used:
            label += 1
        return label

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def entry(self) -> str:
        return self._entry

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    @property
    def edges(self) -> List[CallEdge]:
        return list(self._edges)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def has_edge(self, edge: CallEdge) -> bool:
        """Whether this exact (caller, callee, label) edge is present."""
        return edge in self._edge_set

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node_attrs(self, name: str) -> dict:
        return self._nodes[name]

    def in_edges(self, name: str) -> List[CallEdge]:
        """Incoming edges of ``name`` in insertion order."""
        return list(self._in[name])

    def out_edges(self, name: str) -> List[CallEdge]:
        """Outgoing edges of ``name`` in insertion order."""
        return list(self._out[name])

    def predecessors(self, name: str) -> List[str]:
        """Distinct callers of ``name`` in first-seen order."""
        seen: Dict[str, None] = {}
        for edge in self._in[name]:
            seen.setdefault(edge.caller)
        return list(seen)

    def successors(self, name: str) -> List[str]:
        """Distinct callees of ``name`` in first-seen order."""
        seen: Dict[str, None] = {}
        for edge in self._out[name]:
            seen.setdefault(edge.callee)
        return list(seen)

    @property
    def call_sites(self) -> List[CallSite]:
        return list(self._site_edges)

    def site_targets(self, site: CallSite) -> List[CallEdge]:
        """Dispatch edges of a call site, in insertion order."""
        try:
            return list(self._site_edges[site])
        except KeyError:
            raise GraphError(f"unknown call site {site}") from None

    def sites_in(self, caller: str) -> List[CallSite]:
        """Call sites located in ``caller``, in insertion order."""
        seen: Dict[CallSite, None] = {}
        for edge in self._out[caller]:
            seen.setdefault(edge.site)
        return list(seen)

    def is_virtual_site(self, site: CallSite) -> bool:
        """True when the site has more than one dispatch target."""
        return len(self._site_edges.get(site, ())) > 1

    @property
    def virtual_sites(self) -> List[CallSite]:
        return [s for s, es in self._site_edges.items() if len(es) > 1]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    #
    # Each derived graph is the graph that re-adding its nodes and kept
    # edges in order through add_node/add_edge would build: the same
    # node, edge, adjacency and site orders, with attribute dicts
    # copied. They are built by filtering this graph's tables instead.
    def subgraph(self, keep: Iterable[str], entry: Optional[str] = None) -> "CallGraph":
        """Project onto ``keep``; edges with either endpoint dropped vanish.

        Used by selective encoding (Section 4.2): excluded components are
        removed wholesale and the runtime's call path tracking copes with
        the resulting unexpected call paths.
        """
        keep_set = set(keep)
        new_entry = entry if entry is not None else self._entry
        keep_set.add(new_entry)
        nodes = {new_entry: dict(self._nodes.get(new_entry, ()))}
        for name, attrs in self._nodes.items():
            if name in keep_set and name != new_entry:
                nodes[name] = dict(attrs)
        sub = CallGraph.__new__(CallGraph)
        sub._entry, sub._nodes = new_entry, nodes
        sub._edges = [
            e for e in self._edges
            if e.caller in keep_set and e.callee in keep_set
        ]
        sub._edge_set = set(sub._edges)
        none: List[CallEdge] = []
        sub._in = {
            name: [e for e in self._in.get(name, none) if e.caller in keep_set]
            for name in nodes
        }
        sub._out = {
            name: [e for e in self._out.get(name, none) if e.callee in keep_set]
            for name in nodes
        }
        sites: Dict[CallSite, List[CallEdge]] = {}
        moved = self._sites_unordered
        for site, targets in self._site_edges.items():
            if site.caller in keep_set:
                kept = [e for e in targets if e.callee in keep_set]
                if kept:
                    sites[site] = kept
                    moved = moved or kept[0] is not targets[0]
        sub._site_edges = sub._in_edge_order(sites) if moved else sites
        return sub

    def without_edges(self, drop: Iterable[CallEdge]) -> "CallGraph":
        """Copy of the graph without the given edges (keeps all nodes)."""
        graph = self.copy()
        gone = [e for e in set(drop) if e in self._edge_set]
        if not gone:
            return graph
        # The lists hold the objects add_edge created: drop those.
        gone_ids = {
            id(e) for edge in gone for e in self._out[edge.caller] if e == edge
        }
        graph._edges = [e for e in self._edges if id(e) not in gone_ids]
        graph._edge_set.difference_update(gone)
        for edge in gone:
            for table, name in ((graph._out, edge.caller), (graph._in, edge.callee)):
                table[name] = [e for e in table[name] if id(e) not in gone_ids]
        sites = graph._site_edges
        moved = False
        for site in {edge.site for edge in gone}:
            targets = sites[site]
            kept = [e for e in targets if id(e) not in gone_ids]
            if kept:
                sites[site] = kept
                moved = moved or kept[0] is not targets[0]
            else:
                del sites[site]
        if moved:
            graph._site_edges = graph._in_edge_order(sites)
        return graph

    def copy(self) -> "CallGraph":
        graph = CallGraph.__new__(CallGraph)
        graph._entry = self._entry
        graph._nodes = {name: dict(attrs) for name, attrs in self._nodes.items()}
        graph._edges = list(self._edges)
        graph._edge_set = set(self._edge_set)
        graph._in = {name: list(edges) for name, edges in self._in.items()}
        graph._out = {name: list(edges) for name, edges in self._out.items()}
        graph._site_edges = {
            site: list(edges) for site, edges in self._site_edges.items()
        }
        if self._sites_unordered:
            graph._site_edges = graph._in_edge_order(graph._site_edges)
        return graph

    def _in_edge_order(
        self, sites: Dict[CallSite, List[CallEdge]]
    ) -> Dict[CallSite, List[CallEdge]]:
        """``sites`` reordered by each site's first edge in ``_edges``,
        where add_edge puts a site whose first edge was dropped."""
        first = {id(edges[0]): (site, edges) for site, edges in sites.items()}
        return dict(first[id(e)] for e in self._edges if id(e) in first)

    # ------------------------------------------------------------------
    # Queries used by the encoders
    # ------------------------------------------------------------------
    def reachable_from(self, start: str) -> Set[str]:
        """All nodes reachable from ``start`` (including it)."""
        if start not in self._nodes:
            raise GraphError(f"unknown node {start!r}")
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for edge in self._out[node]:
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    stack.append(edge.callee)
        return seen

    def reaching(self, target: str) -> Set[str]:
        """All nodes from which ``target`` is reachable (including it)."""
        if target not in self._nodes:
            raise GraphError(f"unknown node {target!r}")
        seen = {target}
        stack = [target]
        while stack:
            node = stack.pop()
            for edge in self._in[node]:
                if edge.caller not in seen:
                    seen.add(edge.caller)
                    stack.append(edge.caller)
        return seen

    def validate(self) -> None:
        """Check internal consistency; raises :class:`GraphError`."""
        if self._entry not in self._nodes:
            raise GraphError(f"entry {self._entry!r} is not a node")
        if self._in[self._entry]:
            raise GraphError(
                f"entry {self._entry!r} has incoming edges: "
                f"{self._in[self._entry]}"
            )
        for edge in self._edges:
            if edge.caller not in self._nodes or edge.callee not in self._nodes:
                raise GraphError(f"edge {edge} has unknown endpoint")

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallGraph(entry={self._entry!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)}, sites={len(self._site_edges)})"
        )

    def stats(self) -> dict:
        """Summary statistics in the shape of the paper's Table 1 columns."""
        return {
            "nodes": len(self._nodes),
            "edges": len(self._edges),
            "call_sites": len(self._site_edges),
            "virtual_call_sites": len(self.virtual_sites),
        }
