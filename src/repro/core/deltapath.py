"""DeltaPath Algorithm 1: encoding with dynamic dispatch.

The key departure from PCCE: every call site gets a *single* addition
value even when virtual dispatch gives it several target edges, so the
instrumentation at the site is one constant addition (no switch over the
dynamic dispatch result).

Mechanics (paper Section 3.1, Algorithm 1):

* ``CAV[n]`` (candidate addition value) starts at 0 for every node.
* Nodes are visited in topological order; each call site is processed
  exactly once (the first time one of its dispatch edges is reached).
* A site's addition value is ``a = max(CAV[target] for its targets)``;
  afterwards every target's CAV becomes ``ICC[caller] + a``.
* When the last incoming edge of node ``n`` has been processed,
  ``ICC[n] = CAV[n]``; ``ICC[main] = 1``.

The invariant (Figure 2): for any node, the encoding space ``[0, ICC[n])``
splits into disjoint sub-ranges, one per incoming edge — which is what
makes greatest-addition-value-below-residual decoding precise.

When the program has no virtual calls, ``ICC == NC`` and the encoding
coincides with PCCE (asserted by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.widths import UNBOUNDED, Width
from repro.errors import (
    DecodingError,
    EncodingError,
    EncodingOverflowError,
    UnreachableCallerError,
)
from repro.graph.callgraph import CallEdge, CallGraph, CallSite
from repro.graph.scc import remove_recursion
from repro.graph.topo import topological_order

__all__ = ["DeltaPathEncoding", "encode_deltapath"]


@dataclass
class DeltaPathEncoding:
    """Result of Algorithm 1 over an acyclic call graph."""

    graph: CallGraph
    back_edges: List[CallEdge]
    icc: Dict[str, int]
    av: Dict[CallSite, int]

    # ------------------------------------------------------------------
    # Instrumentation queries
    # ------------------------------------------------------------------
    def site_increment(self, site: CallSite) -> int:
        """The single addition value attached to a call site."""
        try:
            return self.av[site]
        except KeyError:
            raise EncodingError(f"call site {site} was not encoded") from None

    def edge_increment(self, edge: CallEdge) -> int:
        """Addition value of an edge == that of its call site."""
        return self.site_increment(edge.site)

    @property
    def max_id(self) -> int:
        """Static maximum encoding ID (``max ICC - 1``), Table 1's column."""
        return max(self.icc.values()) - 1 if self.icc else 0

    # ------------------------------------------------------------------
    # Encoding / decoding (reference semantics)
    # ------------------------------------------------------------------
    def encode_context(self, context: Tuple[CallEdge, ...]) -> int:
        return sum(self.edge_increment(edge) for edge in context)

    def decode(
        self, node: str, value: int, stop: Optional[str] = None
    ) -> List[CallEdge]:
        """Recover the context ending at ``node`` for encoding ``value``.

        ``stop`` is the node the context is known to begin at; it defaults
        to the entry. Decoding recursion pieces passes the recursion
        target here (the piece began with ID 0 at that node).
        """
        if node not in self.graph:
            raise DecodingError(f"unknown node {node!r}")
        start = stop if stop is not None else self.graph.entry
        if start not in self.graph:
            raise DecodingError(f"unknown start node {start!r}")
        path: List[CallEdge] = []
        current = node
        residual = value
        while current != start:
            best: Optional[CallEdge] = None
            best_av = -1
            for edge in self.graph.in_edges(current):
                if edge.caller != start and self.icc.get(edge.caller, 0) == 0:
                    # Unreachable caller: its sub-range [av, av + ICC) is
                    # empty, so no valid residual selects this edge — but
                    # its addition value can tie with a reachable edge's,
                    # and first-wins tie-breaking must not pick it.
                    continue
                av = self.av[edge.site]
                if best_av < av <= residual:
                    best = edge
                    best_av = av
            if best is None:
                if node not in self.graph.reachable_from(start):
                    raise DecodingError(
                        f"cannot decode a context of {node!r}: it is "
                        f"unreachable from {start!r}, so no valid context "
                        f"exists"
                    )
                raise DecodingError(
                    f"no incoming edge of {current!r} matches residual "
                    f"{residual}"
                )
            path.append(best)
            residual -= best_av
            current = best.caller
        if residual != 0:
            raise DecodingError(
                f"decoding reached {start!r} with nonzero residual {residual}"
            )
        path.reverse()
        return path


def encode_deltapath(
    graph: CallGraph,
    *,
    width: Width = UNBOUNDED,
    edge_priority: Optional[Callable[[CallEdge], float]] = None,
    strict_reachability: bool = False,
) -> DeltaPathEncoding:
    """Run Algorithm 1. Back edges (recursion) are removed first.

    All options are keyword-only, shared with :func:`encode_pcce` and
    :func:`encode_anchored`:

    * ``width`` — integer width the encoding must fit; Algorithm 1 has
      no anchors to fall back on, so an overflow raises
      :class:`~repro.errors.EncodingOverflowError` (use
      :func:`encode_anchored` for bounded widths on large graphs).
    * ``edge_priority`` orders each node's incoming edges before
      processing (higher first). The invariant holds for any order; the
      order only decides *which* edges get the small (often zero)
      addition values — the paper's Section 8 hot-edge optimization
      gives hot edges priority so they become encoding-free.
    * ``strict_reachability`` — raise
      :class:`~repro.errors.UnreachableCallerError` for call sites whose
      caller the entry cannot reach, instead of silently assigning them
      a zero increment.
    """
    acyclic, removed = remove_recursion(graph)
    cav: Dict[str, int] = {n: 0 for n in acyclic.nodes}
    icc: Dict[str, int] = {}
    av: Dict[CallSite, int] = {}
    processed: Set[CallSite] = set()
    unreachable: List[CallSite] = []

    entry = acyclic.entry
    reachable = acyclic.reachable_from(entry)
    icc[entry] = 1

    def calculate_increment(site: CallSite) -> int:
        """Paper's CalculateIncrement: max of target CAVs, then update."""
        edges = acyclic.site_targets(site)
        a = 0
        for edge in edges:
            if cav[edge.callee] > a:
                a = cav[edge.callee]
        caller_icc = icc[site.caller]
        value = caller_icc + a
        if not width.fits(value):
            raise EncodingOverflowError(
                f"Algorithm 1 overflowed width {width} at site {site} "
                f"(candidate CAV {value}); use encode_anchored for "
                f"width-bounded encoding"
            )
        for edge in edges:
            cav[edge.callee] = value
        return a

    for node in topological_order(acyclic):
        incoming = acyclic.in_edges(node)
        if edge_priority is not None:
            incoming = sorted(incoming, key=edge_priority, reverse=True)
        for edge in incoming:
            site = edge.site
            if site in processed:
                continue
            processed.add(site)
            if site.caller not in reachable:
                # Caller unreachable from the entry: the site can never
                # execute. All encoders treat this case uniformly — a
                # zero increment, and no CAV updates so the dead site
                # does not inflate the reachable encoding space.
                av[site] = 0
                unreachable.append(site)
                continue
            av[site] = calculate_increment(site)
        if node != entry:
            icc[node] = cav[node]

    if strict_reachability and unreachable:
        raise UnreachableCallerError(
            f"{len(unreachable)} call site(s) have callers unreachable "
            f"from {entry!r}: {', '.join(str(s) for s in unreachable[:5])}",
            sites=unreachable,
        )
    return DeltaPathEncoding(graph=acyclic, back_edges=removed, icc=icc, av=av)
