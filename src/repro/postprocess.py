"""Post-processing decoded context logs into classic profile reports.

Encodings are great to *collect*; humans want trees. This module
aggregates decoded contexts into a calling context tree with counts and
renders it the way profilers print hot paths::

    report = ContextTreeReport()
    for node, snapshot, count in histogram:
        report.add(decoder.decode(node, *snapshot), count)
    print(report.render())

Gap markers from hazardous UCPs become explicit ``<?>`` tree nodes, so
dynamically loaded detours show up as their own subtrees instead of
polluting known paths.

:func:`top_k` is the one ranking rule every top-K query shares (the
in-memory service and the durable query engine), so their answers can
be compared entry for entry.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.decoder import DecodedContext

__all__ = ["TreeNode", "ContextTreeReport", "top_k"]

GAP = "<?>"


def top_k(
    counts: Mapping[Hashable, int],
    k: int,
    labels: Optional[Callable[[List[Hashable]], Iterable]] = None,
) -> List[Tuple[int, object]]:
    """The ``k`` largest ``counts`` as ``(count, label)`` pairs, count
    descending, then label ascending.

    Counts are ranked before any key is touched: ``heapq.nlargest``
    finds the k-th largest count, and only the keys whose count reaches
    it are labelled and compared. ``labels`` maps that candidate list
    to the labels returned in its place (a batch decode of context ids
    to paths, say); by default a key is its own label. When ``k``
    covers every key this is one sort. ``k`` must not be negative.
    """
    if k <= 0 or not counts:
        return []
    if k < len(counts):
        floor = heapq.nlargest(k, counts.values())[-1]
        keys = [key for key, count in counts.items() if count >= floor]
    else:
        keys = list(counts)
    ranked = list(zip(
        [counts[key] for key in keys],
        keys if labels is None else labels(keys),
    ))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return ranked[:k]


@dataclass
class TreeNode:
    """One aggregated frame in the report tree."""

    name: str
    count: int = 0
    children: Dict[str, "TreeNode"] = field(default_factory=dict)

    def child(self, name: str) -> "TreeNode":
        node = self.children.get(name)
        if node is None:
            node = TreeNode(name)
            self.children[name] = node
        return node

    @property
    def total(self) -> int:
        """This node's count plus all descendants'."""
        return self.count + sum(c.total for c in self.children.values())


class ContextTreeReport:
    """Aggregates decoded contexts; renders an indented hot-path tree."""

    def __init__(self):
        self.root = TreeNode("<root>")
        self.contexts_added = 0

    # ------------------------------------------------------------------
    def add(self, decoded: DecodedContext, count: int = 1) -> None:
        """Merge one decoded context into the tree, ``count`` times."""
        names = decoded.nodes(gap_marker=GAP)
        self.add_path(names, count)

    def add_path(self, names: Sequence[str], count: int = 1) -> None:
        node = self.root
        for name in names:
            node = node.child(name)
        node.count += count
        self.contexts_added += 1

    # ------------------------------------------------------------------
    def render(
        self,
        min_total: int = 1,
        max_depth: Optional[int] = None,
        indent: str = "  ",
    ) -> str:
        """Indented tree, heaviest subtrees first.

        ``min_total`` hides cold subtrees; ``max_depth`` truncates deep
        ones (a line notes how much was hidden).
        """
        lines: List[str] = []
        grand_total = max(self.root.total, 1)

        def walk(node: TreeNode, depth: int) -> None:
            ordered = sorted(
                node.children.values(), key=lambda c: -c.total
            )
            hidden = 0
            for child in ordered:
                if child.total < min_total:
                    hidden += child.total
                    continue
                if max_depth is not None and depth >= max_depth:
                    hidden += child.total
                    continue
                share = child.total / grand_total
                marker = " [dynamic gap]" if child.name == GAP else ""
                lines.append(
                    f"{indent * depth}{child.total:>8}  {share:>5.1%}  "
                    f"{child.name}{marker}"
                )
                walk(child, depth + 1)
            if hidden:
                lines.append(
                    f"{indent * depth}{hidden:>8}         (hidden)"
                )

        walk(self.root, 0)
        header = (
            f"{'count':>8}  {'share':>5}  calling context tree "
            f"({self.contexts_added} contexts aggregated)"
        )
        return "\n".join([header] + lines)

    # ------------------------------------------------------------------
    def hottest_paths(self, n: int = 5) -> List[tuple]:
        """The ``n`` heaviest leaf-to-root paths as (count, names)."""
        results: List[tuple] = []

        def walk(node: TreeNode, prefix: List[str]) -> None:
            path = prefix + [node.name]
            if node.count:
                results.append((node.count, tuple(path)))
            for child in node.children.values():
                walk(child, path)

        for child in self.root.children.values():
            walk(child, [])
        results.sort(key=lambda item: -item[0])
        return results[:n]
