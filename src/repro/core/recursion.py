"""Static recursion planning (paper Section 2, last paragraph).

Cycles in the call graph (recursion) are handled by dividing a recursive
call path into acyclic sub-paths: the encoders remove *back edges* before
numbering, and the runtime pushes ``(RECURSION, callee, current ID)`` and
resets the ID whenever a back-edge call site fires toward a back-edge
target.

This module computes the instrumentation plan: which call sites must carry
the recursion push. A back edge shares its call site with possibly
non-back edges (a virtual site where only one target closes a cycle), so
the plan records *(site, recursive targets)* pairs — the runtime pushes
only when the dynamic dispatch actually lands on a recursive target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set

from repro.graph.callgraph import CallEdge, CallGraph, CallSite
from repro.graph.scc import back_edges

__all__ = ["RecursionPlan", "plan_recursion"]


@dataclass
class RecursionPlan:
    """Call sites that need recursion handling at runtime."""

    #: site -> set of callees for which the site acts as a back edge.
    recursive_targets: Dict[CallSite, FrozenSet[str]]
    removed_edges: List[CallEdge]

    def is_recursive_call(self, site: CallSite, callee: str) -> bool:
        """Whether dispatching ``site`` to ``callee`` re-enters a cycle."""
        targets = self.recursive_targets.get(site)
        return targets is not None and callee in targets

    @property
    def num_sites(self) -> int:
        return len(self.recursive_targets)

    @classmethod
    def from_back_edges(cls, removed: Iterable[CallEdge]) -> "RecursionPlan":
        """Classify already-found back edges (an encoding's
        ``back_edges``) into a runtime plan."""
        removed = list(removed)
        by_site: Dict[CallSite, Set[str]] = {}
        for edge in removed:
            by_site.setdefault(edge.site, set()).add(edge.callee)
        return cls(
            recursive_targets={
                site: frozenset(targets) for site, targets in by_site.items()
            },
            removed_edges=removed,
        )


def plan_recursion(graph: CallGraph) -> RecursionPlan:
    """Classify the graph's back edges into a runtime plan."""
    return RecursionPlan.from_back_edges(back_edges(graph))
