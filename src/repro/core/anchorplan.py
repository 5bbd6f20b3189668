"""Anchor pre-seeding: cutting Algorithm 2's restart loop.

Algorithm 2 discovers anchors one overflow at a time, restarting its
analysis after each (`goto again`, paper Line 16; ours resumes at the
new anchor's topological position) — on our synthetic xml.validation at
24-bit width that is 54 restarts. The
overflow points are largely predictable from the *unbounded* context
counts, which cost one cheap pass: wherever NC crosses the width budget,
an anchor will be needed near the crossing.

:func:`suggest_anchors` runs that pass and returns callers of the
crossing edges; feeding them to ``encode_anchored(initial_anchors=...)``
typically collapses the restart count to a handful. This is an
engineering extension beyond the paper (documented in DESIGN.md §7);
Algorithm 2's own overflow handling still runs afterwards, so
correctness never depends on the heuristic's quality — a bad seed set
only costs extra anchors, never a wrong encoding (property-tested).

The budget uses a safety factor: NC ignores ICC inflation from virtual
sites and the accumulation across a node's incoming edges, so seeds are
placed a little before the true crossing.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.widths import Width
from repro.graph.callgraph import CallGraph
from repro.graph.scc import remove_recursion
from repro.graph.topo import topological_order

__all__ = ["suggest_anchors"]


def suggest_anchors(
    graph: CallGraph, width: Width, safety_factor: int = 8
) -> List[str]:
    """Predict anchor locations for ``width`` from unbounded NC growth.

    One topological pass, restarting the count below each suggested
    anchor (mirroring what the anchor will do to the encoding space):

    * ``budget = width.max_value // safety_factor``
    * ``count[n] = Σ count[caller]`` over incoming edges, where an
      *anchored* caller contributes 1;
    * when the sum crosses the budget, every caller contributing more
      than an equal share is suggested as an anchor and the node's count
      restarts from the anchored contributions.
    """
    acyclic, _removed = remove_recursion(graph)
    if not width.is_bounded:
        return []  # unbounded width never overflows: nothing to seed
    budget = max(width.max_value // safety_factor, 1)

    counts: Dict[str, int] = {acyclic.entry: 1}
    anchors: List[str] = []
    anchor_set: Set[str] = set()

    for node in topological_order(acyclic):
        if node == acyclic.entry:
            continue
        incoming = acyclic.in_edges(node)
        if not incoming:
            counts[node] = 0
            continue

        def contribution(caller: str) -> int:
            if caller in anchor_set:
                return 1
            return counts.get(caller, 0)

        total = sum(contribution(edge.caller) for edge in incoming)
        if total > budget:
            # Anchor the heavy callers; their pieces restart at 1.
            share = max(budget // max(len(incoming), 1), 1)
            for edge in incoming:
                caller = edge.caller
                if caller in anchor_set:
                    continue
                if contribution(caller) > share:
                    anchor_set.add(caller)
                    anchors.append(caller)
            total = sum(contribution(edge.caller) for edge in incoming)
        counts[node] = max(total, 1)
    return anchors
