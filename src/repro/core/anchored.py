"""DeltaPath Algorithm 2: encoding that resolves encoding-space explosion.

The number of calling contexts grows exponentially with call-graph size,
so the addition values of Algorithm 1 can overflow any machine integer.
Algorithm 2 picks *anchor nodes* that cut long contexts into pieces, each
encodable within a fixed :class:`~repro.core.widths.Width`:

* ``An`` starts as ``{main}``. Whenever computing a candidate addition
  value would overflow while processing an edge ``<p, n, l>``, ``p`` is
  added to ``An`` and the analysis restarts. The restart resumes rather
  than starting over (a departure documented in DESIGN.md): nothing
  before the new anchor's topological position can change, so the pass
  undoes its journal back to that position and continues from there,
  with the territories grown by the new anchor rather than recomputed.
* CAV and ICC become two-dimensional — indexed by (node, anchor) — scoped
  by anchor territories (:mod:`repro.core.territories`), because several
  anchors' territories overlap and a call site needs one addition value
  valid relative to every anchor that can reach it.
* At runtime, entering an anchor pushes ``(anchor id, current ID)`` and
  resets the ID to 0; returning pops. Each stack level plus the final ID
  encodes one piece of the context.

Extension beyond the paper (documented in DESIGN.md): if an overflow
recurs on an edge whose caller is *already* an anchor, the paper's Line 15
would loop forever. We then anchor all non-anchor callers of the target
node's incoming edges; if there is nothing left to anchor the width is
genuinely too small for the graph's in-degrees and we raise
:class:`~repro.errors.EncodingOverflowError`.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.core.territories import (
    Territories,
    TerritoryGrowth,
    identify_territories,
)
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

__all__ = ["AnchoredEncoding", "encode_anchored"]


class _Overflow(Exception):
    """Internal signal: processing this site overflowed (paper's -1)."""

    def __init__(self, edge: CallEdge):
        super().__init__(str(edge))
        self.edge = edge


@dataclass
class AnchoredEncoding:
    """Result of Algorithm 2 for a specific integer width."""

    graph: CallGraph
    back_edges: List[CallEdge]
    width: Width
    anchors: List[str]
    territories: Territories
    #: ICC[(node, anchor)] — encoding-space bound for non-anchor nodes;
    #: for anchor nodes only (a, a) -> 1 is present (paper Line 21).
    icc: Dict[Tuple[str, str], int]
    #: Final CAV table: upper bound of the encoding value observable *at
    #: the entry of* node n relative to anchor r, including anchor nodes
    #: (used to verify pushed IDs stay in range).
    bound: Dict[Tuple[str, str], int]
    av: Dict[CallSite, int]
    restarts: int
    #: Decode tables, one per (node, anchor), each built on first use:
    #: the ascending addition values of the node's incoming edges in the
    #: anchor's territory, and the matching edges (plain lists: an
    #: UNBOUNDED width's values outgrow any machine word).
    _in_tables: Dict[
        Tuple[str, str], Tuple[List[int], List[CallEdge]]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Instrumentation queries
    # ------------------------------------------------------------------
    def site_increment(self, site: CallSite) -> int:
        try:
            return self.av[site]
        except KeyError:
            raise EncodingError(f"call site {site} was not encoded") from None

    def edge_increment(self, edge: CallEdge) -> int:
        return self.site_increment(edge.site)

    def is_anchor(self, node: str) -> bool:
        return node in self._anchor_set

    @property
    def _anchor_set(self) -> Set[str]:
        cached = getattr(self, "_anchor_set_cache", None)
        if cached is None:
            cached = set(self.anchors)
            object.__setattr__(self, "_anchor_set_cache", cached)
        return cached

    @property
    def max_id(self) -> int:
        """Largest encoding value any single piece can take (static)."""
        best = 1
        for value in self.icc.values():
            if value > best:
                best = value
        for value in self.bound.values():
            if value > best:
                best = value
        return best - 1

    @property
    def extra_anchors(self) -> List[str]:
        """Anchors beyond the entry (the count Table 1 reports: 6 / 7)."""
        return [a for a in self.anchors if a != self.graph.entry]

    # ------------------------------------------------------------------
    # Reference encoding / decoding of whole contexts
    # ------------------------------------------------------------------
    def encode_context(
        self, context: Tuple[CallEdge, ...]
    ) -> Tuple[Tuple[Tuple[str, int], ...], int]:
        """Encode a full context into ``(stack, current_id)``.

        The stack holds ``(anchor, saved_id)`` pairs bottom-up, exactly
        what the runtime maintains: invoking an anchor pushes the current
        ID (after the incoming edge's addition) and resets to 0.
        """
        stack: List[Tuple[str, int]] = []
        current = 0
        for edge in context:
            current += self.site_increment(edge.site)
            if edge.callee in self._anchor_set:
                stack.append((edge.callee, current))
                current = 0
        return tuple(stack), current

    def decode(
        self, node: str, value: int, stop: Optional[str] = None
    ) -> List[CallEdge]:
        """Decode the current piece — the :class:`Encoding`-protocol form.

        With an anchored encoding a bare ``(node, value)`` pair only
        identifies the piece since the last anchor entry; this decodes
        that piece from ``stop`` (default: the entry, i.e. a context that
        never entered an extra anchor). Use :meth:`decode_context` with
        the runtime's anchor stack to recover a full context.
        """
        if node not in self.graph:
            raise DecodingError(f"unknown node {node!r}")
        start = stop if stop is not None else self.graph.entry
        if start not in self.graph:
            raise DecodingError(f"unknown start node {start!r}")
        if start in self._anchor_set:
            anchor = start
        else:
            reaching = self.territories.node_anchors(start)
            if not reaching:
                raise DecodingError(
                    f"cannot decode at {start!r}: no anchor territory "
                    f"covers it (unreachable from {self.graph.entry!r})"
                )
            anchor = reaching[0]
        return self.decode_piece(node, value, anchor, stop=start)

    def decode_piece(
        self,
        node: str,
        value: int,
        anchor: str,
        stop: Optional[str] = None,
    ) -> List[CallEdge]:
        """Decode one piece: a path from ``stop`` (default: ``anchor``)
        to ``node``, whose edges lie in ``anchor``'s territory.

        Each step takes the incoming edge with the largest addition
        value not above the residual: one bisect in the (node, anchor)
        table.
        """
        start = stop if stop is not None else anchor
        tables = self._in_tables
        path: List[CallEdge] = []
        current = node
        residual = value
        while current != start:
            table = tables.get((current, anchor))
            if table is None:
                table = self._in_table(current, anchor)
            values, edges = table
            i = bisect_right(values, residual)
            if not i:
                raise DecodingError(
                    f"no incoming edge of {current!r} in territory of "
                    f"{anchor!r} matches residual {residual}"
                )
            best = edges[i - 1]
            path.append(best)
            residual -= values[i - 1]
            current = best.caller
        if residual != 0:
            raise DecodingError(
                f"piece decoding reached {start!r} with residual {residual}"
            )
        path.reverse()
        return path

    def _in_table(
        self, node: str, anchor: str
    ) -> Tuple[List[int], List[CallEdge]]:
        """Build and publish the (node, anchor) decode table.

        Where several edges share a value the first in insertion order
        is kept. Threads racing on one key may each build it; every
        build is the same, and lists are never changed once published.
        """
        by_value: Dict[int, CallEdge] = {}
        for edge in self.graph.in_edges(node):
            if anchor in self.territories.edge_anchors(edge):
                by_value.setdefault(self.av[edge.site], edge)
        values = sorted(by_value)
        table = (values, [by_value[v] for v in values])
        self._in_tables[(node, anchor)] = table
        return table

    def decode_context(
        self, node: str, stack: Iterable[Tuple[str, int]], value: int
    ) -> List[CallEdge]:
        """Decode a full context from ``(stack, current id)``.

        Mirrors the paper's Section 3.2 decoding: recover the deepest
        piece from the current ID and the stack-top anchor, pop, repeat.
        """
        entries = list(stack)
        pieces: List[List[CallEdge]] = []
        current_node = node
        current_value = value
        while entries:
            anchor, saved = entries.pop()
            pieces.append(
                self.decode_piece(current_node, current_value, anchor)
            )
            current_node = anchor
            current_value = saved
        pieces.append(
            self.decode_piece(current_node, current_value, self.graph.entry)
        )
        path: List[CallEdge] = []
        for piece in reversed(pieces):
            path.extend(piece)
        return path


def encode_anchored(
    graph: CallGraph,
    *,
    width: Width = UNBOUNDED,
    initial_anchors: Iterable[str] = (),
    max_restarts: Optional[int] = None,
    edge_priority: Optional[Callable[[CallEdge], float]] = None,
    strict_reachability: bool = False,
) -> AnchoredEncoding:
    """Run Algorithm 2 until no addition value overflows ``width``.

    All options are keyword-only, shared with :func:`encode_deltapath`
    and :func:`encode_pcce` where they apply:

    ``initial_anchors`` lets callers seed extra anchors (the hybrid
    encoding of Section 8 anchors the PCC trunk this way). ``max_restarts``
    guards pathological widths; the default allows one restart per node.
    ``edge_priority`` orders incoming-edge processing (higher first) —
    prioritized (hot) edges receive the small/zero addition values.
    ``strict_reachability`` raises
    :class:`~repro.errors.UnreachableCallerError` for call sites whose
    caller no anchor territory covers (i.e. the entry cannot reach),
    instead of silently assigning them a zero addition value.
    """
    t_start = time.perf_counter()
    with obs.span(
        "encode.anchored", nodes=len(graph.nodes), width=str(width)
    ) as sp:
        with obs.span("encode.scc"):
            acyclic, removed = remove_recursion(graph)
        entry = acyclic.entry
        anchors: List[str] = [entry]
        for extra in initial_anchors:
            if extra not in acyclic:
                raise EncodingError(f"initial anchor {extra!r} is not a node")
            if extra not in anchors:
                anchors.append(extra)
        if max_restarts is None:
            max_restarts = len(acyclic.nodes) + 1

        order = topological_order(acyclic)
        position = {node: index for index, node in enumerate(order)}
        with obs.span("encode.territories", anchors=len(anchors)):
            territories = identify_territories(acyclic, anchors)
        growth = TerritoryGrowth(acyclic, territories, position)
        journal = _Journal(territories)
        restarts = 0
        while True:
            try:
                _encode_pass(
                    acyclic, order, growth, width, edge_priority, journal
                )
            except _Overflow as overflow:
                restarts += 1
                if restarts > max_restarts:
                    raise EncodingOverflowError(
                        f"gave up after {restarts - 1} restarts "
                        f"(width {width})"
                    )
                known = len(anchors)
                _grow_anchors(acyclic, anchors, overflow.edge, width)
                # The interrupted node's own writes go too: its pass
                # stopped half way through it.
                journal.rewind(min(
                    [journal.position - 1]
                    + [position[anchor] for anchor in anchors[known:]]
                ))
                with obs.span("encode.territories", anchors=len(anchors)):
                    journal.retarget(*growth.grow(anchors[known:]))
                continue
            bound = journal.cav
            if restarts:
                # The grown membership is exact; the key orders of the
                # final tables are a recompute's.
                with obs.span("encode.territories", anchors=len(anchors)):
                    territories = identify_territories(acyclic, anchors)
                bound = journal.cav_in_order(territories)
            encoding = AnchoredEncoding(
                graph=acyclic,
                back_edges=removed,
                width=width,
                anchors=list(anchors),
                territories=territories,
                icc=journal.icc,
                bound=bound,
                av=journal.av,
                restarts=restarts,
            )
            if strict_reachability:
                dead = [
                    site
                    for site in acyclic.call_sites
                    if not territories.node_anchors(site.caller)
                ]
                if dead:
                    raise UnreachableCallerError(
                        f"{len(dead)} call site(s) have callers "
                        f"unreachable from {entry!r}: "
                        f"{', '.join(str(s) for s in dead[:5])}",
                        sites=dead,
                    )
            sp.set("anchors", len(anchors))
            sp.set("restarts", restarts)
            _record_encode_metrics(encoding, t_start)
            return encoding


def _record_encode_metrics(
    encoding: AnchoredEncoding, t_start: float
) -> None:
    registry = obs.get_registry()
    registry.counter("encode.runs").inc()
    registry.counter("encode.restarts").inc(encoding.restarts)
    registry.histogram("encode.duration_us").observe(
        time.perf_counter() - t_start
    )
    registry.gauge("encode.last_nodes").set(len(encoding.graph.nodes))
    registry.gauge("encode.last_sites").set(len(encoding.av))
    registry.gauge("encode.last_anchors").set(len(encoding.anchors))
    territory_nodes = sum(
        len(reaching) for reaching in encoding.territories.nanchors.values()
    )
    registry.gauge("encode.last_territory_nodes").set(territory_nodes)


def _grow_anchors(
    graph: CallGraph, anchors: List[str], edge: CallEdge, width: Width
) -> None:
    """Paper Line 15 (+ the already-anchored fallback described above)."""
    obs.counter("encode.anchor_growths").inc()
    anchor_set = set(anchors)
    if edge.caller not in anchor_set:
        anchors.append(edge.caller)
        return
    added = False
    for incoming in graph.in_edges(edge.callee):
        if incoming.caller not in anchor_set:
            anchors.append(incoming.caller)
            anchor_set.add(incoming.caller)
            added = True
    if not added:
        raise EncodingOverflowError(
            f"width {width} cannot encode edge {edge}: all callers of "
            f"{edge.callee!r} are already anchors"
        )


class _Journal:
    """Everything a pass has written, in topological order, so that a
    restart can undo back to a position instead of starting over.

    AV and ICC gain each key once, in pass order, so they rewind by
    dropping their newest items. CAV (``cav``, every (node, anchor)
    pair of the territories, zero until written) is kept across
    passes: ``undo`` holds ``callee, anchor, previous value`` for every
    write, and a rewind restores the discarded writes' previous values,
    newest first. ``marks`` holds, per position of the topological
    order, the three lengths as it started. Both lists are flat: a
    tuple per write would be one more object for the garbage collector
    to track, enough on durable-churn's set-ups to trigger an extra
    full collection inside the plan.
    """

    def __init__(self, territories: Territories) -> None:
        self.av: Dict[CallSite, int] = {}
        self.icc: Dict[Tuple[str, str], int] = {}
        self.cav: Dict[Tuple[str, str], int] = {
            (node, anchor): 0
            for node, reaching in territories.nanchors.items()
            for anchor in reaching
        }
        self.undo: List[object] = []
        self.marks: List[int] = []

    @property
    def position(self) -> int:
        """The first position of the topological order not journaled."""
        return len(self.marks) // 3

    def mark(self) -> None:
        """Record that the next position starts here."""
        self.marks.extend((len(self.av), len(self.icc), len(self.undo)))

    def rewind(self, position: int) -> None:
        """Undo every write made at ``position`` or later.

        Exact when every anchor added since those writes sits at
        ``position`` or later: no new anchor reaches a node before it,
        so that node's territories, its out-edges' anchors and every
        value computed up to it are what a pass from scratch would
        compute.
        """
        cut = 3 * position
        av_size, icc_size, undo_size = self.marks[cut:cut + 3]
        while len(self.av) > av_size:
            self.av.popitem()
        while len(self.icc) > icc_size:
            self.icc.popitem()
        undo, cav = self.undo, self.cav
        for at in range(len(undo) - 3, undo_size - 1, -3):
            cav[(undo[at], undo[at + 1])] = undo[at + 2]
        del undo[undo_size:]
        del self.marks[cut:]

    def retarget(
        self, left: List[Tuple[str, str]], joined: List[Tuple[str, str]]
    ) -> None:
        """Follow grown territories: drop the pairs that left one, zero
        the pairs that joined one. No surviving write touches a pair
        that left: its caller sits before the rewind's position, where
        no territory changes."""
        cav = self.cav
        for pair in left:
            del cav[pair]
        for pair in joined:
            cav[pair] = 0

    def cav_in_order(self, territories: Territories) -> Dict[Tuple[str, str], int]:
        """CAV in ``territories``' (node, anchor) order, which must hold
        exactly CAV's pairs."""
        cav = self.cav
        ordered = {
            (node, anchor): cav[(node, anchor)]
            for node, reaching in territories.nanchors.items()
            for anchor in reaching
        }
        if len(ordered) != len(cav):
            raise EncodingError(
                f"grown territories hold {len(cav)} (node, anchor) pairs, "
                f"a recompute {len(ordered)}"
            )
        return ordered


def _encode_pass(
    acyclic: CallGraph,
    order: List[str],
    territories: TerritoryGrowth,
    width: Width,
    edge_priority: Optional[Callable[[CallEdge], float]],
    journal: _Journal,
) -> None:
    """Algorithm 2's main loop for the current anchor set, from the
    first position ``journal`` does not hold, writing into its tables.
    """
    obs.counter("encode.passes").inc()
    anchor_set = territories.anchor_set
    nanchors = territories.nanchors
    edge_anchors = territories.out_anchors.get  # by the edge's caller
    cav, icc, av, undo = journal.cav, journal.icc, journal.av, journal.undo

    def calculate_increment(site: CallSite) -> int:
        edges = acyclic.site_targets(site)
        reaching = edge_anchors(site.caller, ())
        a = 0
        for edge in edges:
            for anchor in reaching:
                candidate = cav.get((edge.callee, anchor), 0)
                if candidate > a:
                    a = candidate
        for edge in edges:
            callee = edge.callee
            for anchor in reaching:
                caller_icc = icc[(edge.caller, anchor)]
                value = caller_icc + a
                if not width.fits(value):
                    raise _Overflow(edge)
                key = (callee, anchor)
                undo.extend((callee, anchor, cav[key]))
                cav[key] = value
        return a

    start = journal.position
    with obs.span(
        "encode.cav_icc", anchors=len(anchor_set), start=start
    ) as sp:
        for index in range(start, len(order)):
            node = order[index]
            journal.mark()
            incoming = acyclic.in_edges(node)
            if edge_priority is not None:
                incoming = sorted(incoming, key=edge_priority, reverse=True)
            for edge in incoming:
                site = edge.site
                if site in av:
                    continue  # processed through another target
                if not edge_anchors(edge.caller):
                    # Site in a node unreachable from any anchor (dead code
                    # relative to the entry): never executes, zero
                    # increment.
                    av[site] = 0
                    continue
                av[site] = calculate_increment(site)
            if node in anchor_set:
                icc[(node, node)] = 1
            else:
                for anchor in nanchors.get(node, ()):
                    icc[(node, anchor)] = cav[(node, anchor)]
        sp.set("sites", len(av))
