"""Static instrumentation plans.

A plan is everything the runtime agent needs, precomputed: per-call-site
addition values, recursion sites, SIDs for call path tracking, anchor
membership, and the encoding itself (for decoding). Building a plan runs
the full static pipeline of the paper's Section 5:

    program --0-CFA--> call graph --[selective projection]-->
    encoded graph --Algorithm 2--> addition values + anchors
                  --union-find--> SIDs
                  --back edges--> recursion sites

Plans are keyed by plain ``(caller, label)`` tuples rather than
:class:`CallSite` objects so the probe's hot path is dictionary lookups
on tuples the interpreter already has.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as _dc_replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro import obs
from repro.analysis.callgraph_builder import Policy, build_callgraph
from repro.analysis.incremental import GraphDelta, apply_delta as _apply_graph_delta
from repro.core.anchored import AnchoredEncoding, encode_anchored
from repro.core.decoder import ContextDecoder, DecodedContext
from repro.core.recursion import RecursionPlan
from repro.core.reencode import ReencodeResult, reencode
from repro.core.selective import project_interesting, reattach_orphans
from repro.core.sid import SidTable, compute_sids, update_sids
from repro.core.stackmodel import EntryKind, StackEntry
from repro.core.widths import W64, Width
from repro.errors import DecodingError, EncodingError, PlanSwapError
from repro.graph.callgraph import CallGraph, CallSite
from repro.lang.model import Program

__all__ = [
    "DeltaPathPlan",
    "PlanUpdate",
    "RemappedSnapshot",
    "build_plan",
    "build_plan_from_graph",
]

SiteKey = Tuple[str, Hashable]


@dataclass
class DeltaPathPlan:
    """Everything the DeltaPath agent consults at runtime."""

    #: The graph the encoding ran on (selective projection applied).
    graph: CallGraph
    encoding: AnchoredEncoding
    sids: SidTable
    recursion: RecursionPlan
    #: (caller, label) -> addition value.
    site_av: Dict[SiteKey, int]
    #: (caller, label) -> recursive dispatch targets (back-edge callees).
    site_recursion: Dict[SiteKey, FrozenSet[str]]
    #: (caller, label) -> expected SID stored before the call.
    site_sid: Dict[SiteKey, int]
    #: (caller, label) -> first static dispatch target (the "expected
    #: callee" whose encoding value the ID represents after the site's
    #: addition; all targets of a site share the addition value).
    site_target: Dict[SiteKey, str]
    #: node -> (SID, is_anchor) for every instrumented function.
    node_info: Dict[str, Tuple[int, bool]]
    #: SID of the entry function (the initial "expected" value).
    entry_sid: int
    #: True when zero-addition-value sites were dropped from the tables
    #: (the Section 8 hot-edge optimization); incompatible with CPT.
    zero_elided: bool = False

    @property
    def instrumented_nodes(self) -> Set[str]:
        return set(self.node_info)

    @property
    def instrumented_site_count(self) -> int:
        """Table 1's CS column: call sites carrying instrumentation."""
        return len(
            set(self.site_av) | set(self.site_recursion)
        )

    def decoder(self) -> ContextDecoder:
        return ContextDecoder(self.encoding)

    def decode_snapshot(self, node: str, snapshot) -> DecodedContext:
        """Decode a probe snapshot ``(stack, id)`` taken at ``node``."""
        stack, current_id = snapshot
        return self.decoder().decode(node, stack, current_id)

    def apply_delta(
        self, delta: GraphDelta, *, max_restarts: Optional[int] = None
    ) -> "PlanUpdate":
        """Repair this plan after a call-graph delta (dynamic loading).

        Runs the incremental pipeline — :func:`repro.core.reencode.reencode`
        over the dirty territories, :func:`repro.core.sid.update_sids`,
        a linear recursion re-scan — and rebuilds the site tables, instead
        of re-running Algorithm 2 over the whole graph. Returns a
        :class:`PlanUpdate` carrying the new plan plus the ID-remap table
        that translates encoding state (snapshots, probe stacks) captured
        under this plan into the new encoding; hand it to
        :meth:`~repro.runtime.agent.DeltaPathProbe.hot_swap` to repair a
        live probe.

        ``delta`` must be expressed against :attr:`graph` — for plans
        built with ``application_only`` that is the *projected* graph,
        so project the delta before applying it.
        """
        t_start = time.perf_counter()
        with obs.span("plan.apply_delta", delta=delta.summary()) as sp:
            new_graph = _apply_graph_delta(self.graph, delta)
            result = reencode(
                new_graph,
                self.encoding,
                touched=delta.touched_nodes(self.graph),
                max_restarts=max_restarts,
            )
            recursion = RecursionPlan.from_back_edges(
                result.encoding.back_edges
            )
            sids = update_sids(self.sids, new_graph, delta)
            new_plan = _assemble_plan(
                new_graph, result.encoding, sids, recursion, self.zero_elided
            )
            promoted = frozenset(result.encoding.anchors) - frozenset(
                self.encoding.anchors
            )
            sp.set("dirty_nodes", len(result.dirty_nodes))
            sp.set("promoted_anchors", len(promoted))
        registry = obs.get_registry()
        registry.counter("plan.deltas_applied").inc()
        registry.histogram("plan.apply_delta_us").observe(
            time.perf_counter() - t_start
        )
        return PlanUpdate(
            old_plan=self,
            plan=new_plan,
            delta=delta,
            reencode=result,
            promoted_anchors=promoted,
        )


def build_plan_from_graph(
    graph: CallGraph,
    *,
    width: Width = W64,
    application_only: bool = False,
    edge_priority: Optional[Callable] = None,
    elide_zero_av_sites: bool = False,
    initial_anchors: Iterable[str] = (),
) -> DeltaPathPlan:
    """Build a plan from an already-constructed call graph.

    ``application_only`` applies selective encoding (Section 4.2): nodes
    whose ``library`` attribute is true are excluded from the encoded
    world; orphaned application nodes are re-rooted with synthetic entry
    edges so their downstream encodings stay decodable.

    ``initial_anchors`` seeds Algorithm 2 (e.g. from
    :func:`repro.core.anchorplan.suggest_anchors`, or to pin anchors in
    tests); Algorithm 2 may still add more on overflow.

    ``edge_priority`` (usually from
    :func:`repro.runtime.profiling.edge_priority_from_counts`) makes hot
    edges receive the zero addition values; ``elide_zero_av_sites`` then
    drops those sites from the instrumentation tables entirely — the
    Section 8 hot-edge optimization. Eliding is incompatible with call
    path tracking (the agent enforces this).
    """
    t_start = time.perf_counter()
    with obs.span("plan.build", nodes=len(graph.nodes)) as sp:
        if application_only:
            with obs.span("plan.project"):
                selection = project_interesting(
                    graph,
                    lambda n: not graph.node_attrs(n).get("library", False),
                )
                encoded_graph = reattach_orphans(selection)
        else:
            encoded_graph = graph

        encoding = encode_anchored(
            encoded_graph,
            width=width,
            edge_priority=edge_priority,
            initial_anchors=initial_anchors,
        )
        # The encoding removed the same back edges.
        with obs.span("plan.recursion"):
            recursion = RecursionPlan.from_back_edges(encoding.back_edges)
        with obs.span("plan.sids"):
            sids = compute_sids(encoded_graph)
        with obs.span("plan.assemble"):
            plan = _assemble_plan(
                encoded_graph, encoding, sids, recursion, elide_zero_av_sites
            )
        sp.set("anchors", len(encoding.anchors))
        sp.set("sites", len(plan.site_av))
    registry = obs.get_registry()
    registry.counter("plan.builds").inc()
    registry.histogram("plan.build_us").observe(time.perf_counter() - t_start)
    return plan


def _assemble_plan(
    encoded_graph: CallGraph,
    encoding: AnchoredEncoding,
    sids: SidTable,
    recursion: RecursionPlan,
    elide_zero_av_sites: bool,
) -> DeltaPathPlan:
    """Build the runtime lookup tables from the analysis artifacts."""
    site_av: Dict[SiteKey, int] = {}
    site_sid: Dict[SiteKey, int] = {}
    site_target: Dict[SiteKey, str] = {}
    for site, av in encoding.av.items():
        key = (site.caller, site.label)
        if _is_synthetic(site):
            continue
        if elide_zero_av_sites and av == 0:
            continue  # encoding-free hot site: no instrumentation at all
        site_av[key] = av
        site_sid[key] = sids.expected_sid(site)
        site_target[key] = encoded_graph.site_targets(site)[0].callee

    site_recursion: Dict[SiteKey, FrozenSet[str]] = {}
    for site, targets in recursion.recursive_targets.items():
        key = (site.caller, site.label)
        site_recursion[key] = targets
        if key not in site_sid:
            site_sid[key] = sids.expected_sid(site)
        if key not in site_target:
            site_target[key] = encoded_graph.site_targets(site)[0].callee

    anchors = set(encoding.anchors)
    node_info = {
        node: (sids.node_sid(node), node in anchors)
        for node in encoded_graph.nodes
    }
    return DeltaPathPlan(
        graph=encoded_graph,
        encoding=encoding,
        sids=sids,
        recursion=recursion,
        site_av=site_av,
        site_recursion=site_recursion,
        site_sid=site_sid,
        site_target=site_target,
        node_info=node_info,
        entry_sid=sids.node_sid(encoded_graph.entry),
        zero_elided=elide_zero_av_sites,
    )


def build_plan(
    program: Program,
    *,
    policy: Policy = Policy.ZERO_CFA,
    width: Width = W64,
    application_only: bool = False,
    edge_priority: Optional[Callable] = None,
    elide_zero_av_sites: bool = False,
    initial_anchors: Iterable[str] = (),
) -> DeltaPathPlan:
    """Full pipeline: program -> static call graph -> plan."""
    graph = build_callgraph(program, policy=policy, include_dynamic=False)
    return build_plan_from_graph(
        graph,
        width=width,
        application_only=application_only,
        edge_priority=edge_priority,
        elide_zero_av_sites=elide_zero_av_sites,
        initial_anchors=initial_anchors,
    )


@dataclass(frozen=True)
class RemappedSnapshot:
    """Encoding state translated from an old plan to its successor.

    ``stack`` and ``current_id`` are the same context expressed in the
    new encoding: decoding them under the new plan yields the context the
    inputs decoded to under the old plan. ``events`` lists the
    addition-value history of the live context root-first — one
    ``("rec", site_key)`` per in-flight recursive call and one
    ``("av", site_key, new_av, had_record)`` per in-flight ordinary call
    (``had_record`` is False for sites the old plan left uninstrumented,
    e.g. elided zero-AV sites) — which is what
    :meth:`~repro.runtime.agent.DeltaPathProbe.hot_swap` consumes to
    rewrite its per-call bookkeeping.
    """

    stack: Tuple[StackEntry, ...]
    current_id: int
    events: Tuple[tuple, ...]


@dataclass
class PlanUpdate:
    """A repaired plan plus the ID-remap table back to its predecessor.

    Produced by :meth:`DeltaPathPlan.apply_delta`. ``plan`` is the new
    plan; :meth:`remap_snapshot` translates encoding state captured under
    ``old_plan`` — probe snapshots, or a live probe's internal stack —
    into the new encoding. Translation can fail with
    :class:`~repro.errors.PlanSwapError` when the live state cannot be
    represented under the new encoding (see :meth:`remap_snapshot`);
    callers should retry at a later safe point or fall back to a restart.
    """

    old_plan: DeltaPathPlan
    plan: DeltaPathPlan
    delta: GraphDelta
    reencode: ReencodeResult
    #: Nodes that are anchors under the new encoding but were not before.
    promoted_anchors: FrozenSet[str]

    def remap_snapshot(
        self,
        node: str,
        stack: Tuple[StackEntry, ...] = (),
        current_id: int = 0,
    ) -> RemappedSnapshot:
        """Translate ``(stack, current_id)`` observed at ``node``.

        The state is decoded under the old plan, then every piece is
        re-encoded by summing the new addition values along its edges, so
        the remapped state decodes to the identical context under the new
        plan. Raises :class:`~repro.errors.PlanSwapError` when no such
        translation exists:

        * a context edge was removed by the delta;
        * a context edge changed recursion classification (a normal call
          became a back edge or vice versa) — the stack would need an
          entry the old run never pushed (or one too many);
        * a node was *promoted* to anchor while a frame past it is live —
          under the new encoding its entry resets the ID, a reset the old
          run never performed (ghost resume targets that never executed
          are exempt);
        * a site the old plan left uninstrumented acquired a nonzero
          addition value while a call through it is in flight.
        """
        try:
            decoded = self.old_plan.decoder().decode(node, stack, current_id)
        except DecodingError as exc:
            raise PlanSwapError(
                f"state at {node!r} does not decode under the old plan: {exc}"
            ) from exc
        segments = decoded.segments
        new_graph = self.plan.graph
        new_back = frozenset(self.plan.recursion.removed_edges)
        events: List[tuple] = []
        values: List[int] = []
        for i, segment in enumerate(segments):
            value = 0
            edges = segment.edges
            last = len(edges) - 1
            for j, edge in enumerate(edges):
                key = (edge.caller, edge.label)
                if not new_graph.has_edge(edge):
                    raise PlanSwapError(
                        f"live context contains {edge}, which the new "
                        f"graph no longer has"
                    )
                if segment.kind is EntryKind.RECURSION and j == 0:
                    # The decoder-injected back edge: the runtime pushed a
                    # RECURSION entry here, so it must stay a back edge.
                    if not self.plan.recursion.is_recursive_call(
                        edge.site, edge.callee
                    ):
                        raise PlanSwapError(
                            f"in-flight recursive call {edge} is not a "
                            f"back edge under the new plan"
                        )
                    events.append(("rec", key))
                    continue
                if edge in new_back:
                    raise PlanSwapError(
                        f"in-flight call {edge} became a back edge under "
                        f"the new plan; its frame cannot be restructured"
                    )
                if edge.callee in self.promoted_anchors and not (
                    j == last and _is_ghost_boundary(segments, i)
                ):
                    raise PlanSwapError(
                        f"{edge.callee!r} was promoted to anchor but a "
                        f"live frame entered it without the ID reset the "
                        f"new encoding requires"
                    )
                av = self.plan.site_av.get(key)
                if av is None:
                    try:
                        av = self.plan.encoding.site_increment(edge.site)
                    except EncodingError as exc:
                        raise PlanSwapError(
                            f"site of in-flight call {edge} has no "
                            f"addition value under the new plan"
                        ) from exc
                had_record = key in self.old_plan.site_av
                if not had_record and av != 0:
                    raise PlanSwapError(
                        f"site {key} was uninstrumented under the old "
                        f"plan but has addition value {av} under the new "
                        f"one; its in-flight call cannot be undone"
                    )
                events.append(("av", key, av, had_record))
                value += av
            values.append(value)
        new_stack = tuple(
            self._remap_entry(entry, values[index])
            for index, entry in enumerate(stack)
        )
        return RemappedSnapshot(
            stack=new_stack,
            current_id=values[-1],
            events=tuple(events),
        )

    def _remap_entry(self, entry: StackEntry, saved_id: int) -> StackEntry:
        if entry.kind is EntryKind.UCP and entry.site is not None:
            key = (entry.site.caller, entry.site.label)
            expected = self.plan.site_sid.get(key, entry.expected_sid)
            return _dc_replace(entry, saved_id=saved_id, expected_sid=expected)
        return _dc_replace(entry, saved_id=saved_id)


def _is_ghost_boundary(segments, index: int) -> bool:
    """Whether segment ``index`` ends at a resume target that never ran.

    The final callee of a piece followed by a UCP gap whose
    ``previous_ran`` is False is only the *expected* dispatch target of a
    call that detoured into unloaded code — no frame of it is live, so
    promoting it to anchor cannot invalidate the state: the piece merely
    ends at its territory boundary.
    """
    if index + 1 >= len(segments):
        return False
    nxt = segments[index + 1]
    return nxt.kind is EntryKind.UCP and not nxt.previous_ran


def _is_synthetic(site: CallSite) -> bool:
    """Synthetic orphan-reattachment edges never execute."""
    label = site.label
    return (
        isinstance(label, tuple)
        and len(label) == 2
        and label[0] == "<synthetic-entry>"
    )
