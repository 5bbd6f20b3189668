"""Incremental call-graph maintenance under dynamic class loading.

The paper's answer to dynamic class loading is detection-only: call path
tracking flags unexpected call paths (Section 4.1), and the only recovery
is rebuilding the whole plan from scratch. This module provides the
missing first half of *repair*: describing what changed as a
:class:`GraphDelta` and applying it to an existing :class:`CallGraph`
without re-running the static analysis over the entire program.

Three entry points:

* :func:`apply_delta` — apply added/removed nodes and edges to a graph;
* :func:`diff_graphs` — exact delta between two graphs (the testing
  oracle: ``apply_delta(old, diff_graphs(old, new))`` equals ``new``);
* :func:`delta_for_loaded_classes` — the dynamic-loading case: compute
  the delta a set of newly loaded dynamic classes contributes, by a
  *scoped* re-analysis that only revisits call sites whose dispatch sets
  can change (virtual sites whose base type admits a loaded subtype,
  static calls into loaded classes) plus the loaded methods' own bodies.

The second half of repair — re-encoding only the dirty territories — is
:mod:`repro.core.reencode`; plan- and probe-level hot-swap live in
:mod:`repro.runtime.plan` and :mod:`repro.runtime.agent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.callgraph_builder import (
    Policy,
    _world_instantiated,
    _world_targets,
    call_sites_of,
)
from repro.errors import GraphError
from repro.graph.callgraph import CallEdge, CallGraph
from repro.lang.model import MethodRef, Program, StaticCall, VirtualCall

__all__ = [
    "GraphDelta",
    "apply_delta",
    "diff_graphs",
    "delta_for_loaded_classes",
]


@dataclass
class GraphDelta:
    """A batch of structural changes to a call graph.

    ``added_nodes`` maps new node names to their attribute dicts (empty
    dict for attribute-less nodes). ``removed_nodes`` implies removal of
    every incident edge, whether or not those edges are also listed in
    ``removed_edges``.
    """

    added_nodes: Dict[str, dict] = field(default_factory=dict)
    removed_nodes: Tuple[str, ...] = ()
    added_edges: Tuple[CallEdge, ...] = ()
    removed_edges: Tuple[CallEdge, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.added_nodes
            or self.removed_nodes
            or self.added_edges
            or self.removed_edges
        )

    @property
    def is_additive(self) -> bool:
        """True when the delta only grows the graph (the class-loading
        case); additive deltas admit cheaper downstream maintenance
        (e.g. incremental SID union instead of a union-find rebuild)."""
        return not (self.removed_nodes or self.removed_edges)

    def touched_nodes(
        self, graph: Optional[CallGraph] = None
    ) -> Set[str]:
        """Every node whose incident edge set (or existence) changes.

        This is the seed of the dirty region for incremental
        re-encoding: a node is *touched* when it is added or removed, or
        when one of its incoming/outgoing edges is.

        Removing a node implicitly removes its incident edges, which
        touches the *neighbors* too even though those edges never appear
        in ``removed_edges``. The delta alone cannot name them, so pass
        the pre-delta ``graph`` whenever ``removed_nodes`` is non-empty
        — an under-approximated touched set makes incremental
        re-encoding unsound (stale territory tables survive).
        """
        touched: Set[str] = set(self.added_nodes)
        touched.update(self.removed_nodes)
        for edge in self.added_edges:
            touched.add(edge.caller)
            touched.add(edge.callee)
        for edge in self.removed_edges:
            touched.add(edge.caller)
            touched.add(edge.callee)
        if graph is not None:
            for node in self.removed_nodes:
                if node not in graph:
                    continue
                for edge in graph.in_edges(node):
                    touched.add(edge.caller)
                for edge in graph.out_edges(node):
                    touched.add(edge.callee)
        return touched

    def compose(self, later: "GraphDelta") -> "GraphDelta":
        """The delta equivalent to applying ``self`` then ``later``.

        Nodes and edges that ``self`` adds and ``later`` removes cancel
        out. This assumes ``added_nodes`` lists genuinely new nodes; an
        attribute-merge re-add of a pre-existing node that ``later``
        then removes composes to a delta that leaves the node in place.
        """
        added_nodes = dict(self.added_nodes)
        added_nodes.update(later.added_nodes)
        for name in later.removed_nodes:
            added_nodes.pop(name, None)
        removed_nodes = tuple(
            dict.fromkeys(
                [n for n in self.removed_nodes if n not in later.added_nodes]
                + [
                    n
                    for n in later.removed_nodes
                    if n not in self.added_nodes
                ]
            )
        )
        later_removed = set(later.removed_edges)
        dead_nodes = set(later.removed_nodes)
        added_edges = tuple(
            e
            for e in list(self.added_edges) + list(later.added_edges)
            if e not in later_removed
            and e.caller not in dead_nodes
            and e.callee not in dead_nodes
        )
        earlier_added = set(self.added_edges)
        removed_edges = tuple(
            dict.fromkeys(
                list(self.removed_edges)
                + [e for e in later.removed_edges if e not in earlier_added]
            )
        )
        return GraphDelta(
            added_nodes=added_nodes,
            removed_nodes=removed_nodes,
            added_edges=added_edges,
            removed_edges=removed_edges,
        )

    def summary(self) -> str:
        return (
            f"+{len(self.added_nodes)}n/+{len(self.added_edges)}e "
            f"-{len(self.removed_nodes)}n/-{len(self.removed_edges)}e"
        )


def apply_delta(
    graph: CallGraph, delta: GraphDelta, in_place: bool = False
) -> CallGraph:
    """Apply ``delta`` to ``graph`` and return the updated graph.

    By default the input graph is left untouched and an updated copy is
    returned (the copy is a plain linear scan — the expensive work the
    incremental pipeline avoids is the *re-encoding*, not the graph
    update). ``in_place=True`` mutates ``graph`` directly and returns it,
    for callers that own the graph and want zero-copy updates.

    Validation: removed edges/nodes must exist, added edges must not,
    and the entry node cannot be removed.
    """
    with obs.span("delta.apply", delta=delta.summary()):
        target = graph if in_place else graph.copy()
        for edge in delta.removed_edges:
            target.remove_edge(edge)
        for name in delta.removed_nodes:
            target.remove_node(name)
        for name, attrs in delta.added_nodes.items():
            target.add_node(name, **attrs)
        for edge in delta.added_edges:
            if edge.callee == target.entry:
                raise GraphError(
                    f"delta edge {edge} would give the entry an incoming "
                    f"edge"
                )
            target.add_edge(edge.caller, edge.callee, edge.label)
    registry = obs.get_registry()
    registry.counter("delta.applied").inc()
    registry.gauge("delta.last_touched_nodes").set(len(delta.touched_nodes()))
    return target


def diff_graphs(old: CallGraph, new: CallGraph) -> GraphDelta:
    """Exact structural delta from ``old`` to ``new``.

    ``apply_delta(old, diff_graphs(old, new))`` reproduces ``new`` up to
    iteration order. Node attribute *changes* on surviving nodes are
    carried in ``added_nodes`` (re-adding merges attributes).
    """
    old_nodes = set(old.nodes)
    new_nodes = set(new.nodes)
    added_nodes = {
        name: dict(new.node_attrs(name)) for name in new.nodes
        if name not in old_nodes
    }
    for name in new.nodes:
        if name in old_nodes and new.node_attrs(name) != old.node_attrs(name):
            added_nodes[name] = dict(new.node_attrs(name))
    old_edges = set(old.edges)
    new_edges = set(new.edges)
    return GraphDelta(
        added_nodes=added_nodes,
        removed_nodes=tuple(n for n in old.nodes if n not in new_nodes),
        added_edges=tuple(e for e in new.edges if e not in old_edges),
        removed_edges=tuple(e for e in old.edges if e not in new_edges),
    )


def delta_for_loaded_classes(
    program: Program,
    graph: CallGraph,
    loaded: Iterable[str],
    policy: Policy = Policy.ZERO_CFA,
) -> GraphDelta:
    """Delta contributed by newly loaded dynamic classes.

    ``graph`` is the current static call graph (typically
    ``plan.graph``); ``loaded`` names dynamic classes that have joined
    the world since it was built (e.g. from
    ``Interpreter.loaded_classes``). Non-dynamic and already-known
    classes in ``loaded`` are ignored, so passing the interpreter's full
    loaded-class list is safe.

    The analysis is scoped: only call sites whose dispatch sets can gain
    targets are re-resolved —

    * virtual sites (in methods already in the graph) whose base type
      has a loaded class among its subtypes;
    * static calls into loaded classes;

    then the loaded methods' own bodies are processed by worklist,
    transitively pulling in further dynamic classes named in ``loaded``.
    Under RTA/0-CFA a loaded class counts as instantiated — dynamic
    loading happens at first instantiation or static invocation, so by
    the time a delta is built the class has been instantiated or is
    about to be invoked.
    """
    with obs.span("delta.loaded_classes") as sp:
        delta = _delta_for_loaded_classes(program, graph, loaded, policy)
        sp.set("summary", delta.summary())
    obs.counter("delta.loaded_scans").inc()
    return delta


def _delta_for_loaded_classes(
    program: Program,
    graph: CallGraph,
    loaded: Iterable[str],
    policy: Policy = Policy.ZERO_CFA,
) -> GraphDelta:
    program.validate()
    known_classes = _graph_world(program, graph)
    loaded_new = [
        k for k in dict.fromkeys(loaded)
        if program.has_class(k)
        and k not in known_classes
        and program.klass(k).dynamic
    ]
    if not loaded_new:
        return GraphDelta()
    world = known_classes | set(loaded_new)

    if policy is Policy.CHA:
        instantiated: Optional[Set[str]] = None
    else:
        instantiated = _world_instantiated(
            program,
            world,
            [k.name for k in program.classes if k.dynamic and k.name in world],
        )

    existing_edges = set(graph.edges)
    existing_nodes = set(graph.nodes)
    added_nodes: Dict[str, dict] = {}
    added_edges: List[CallEdge] = []
    added_edge_set: Set[CallEdge] = set()

    def note_node(ref: MethodRef) -> None:
        name = str(ref)
        if name in existing_nodes or name in added_nodes:
            return
        klass = program.klass(ref.klass)
        added_nodes[name] = {
            "klass": ref.klass,
            "method": ref.method,
            "library": klass.library,
            "dynamic": klass.dynamic,
        }

    def note_edge(caller: MethodRef, label: str, target: MethodRef) -> bool:
        edge = CallEdge(str(caller), str(target), label)
        if edge in existing_edges or edge in added_edge_set:
            return False
        note_node(target)
        added_edges.append(edge)
        added_edge_set.add(edge)
        return True

    worklist: List[MethodRef] = []
    queued: Set[str] = set()

    def queue(ref: MethodRef) -> None:
        name = str(ref)
        if name not in existing_nodes and name not in queued:
            queued.add(name)
            worklist.append(ref)

    # Phase 1: re-resolve the existing sites whose targets can change.
    loaded_set = set(loaded_new)
    affected_bases = {
        base
        for klass in loaded_new
        for base in program.supertypes(klass)
    }
    for name in graph.nodes:
        attrs = graph.node_attrs(name)
        if "klass" not in attrs or "method" not in attrs:
            continue  # synthetic node (not a program method)
        ref = MethodRef(attrs["klass"], attrs["method"])
        for site in call_sites_of(program.method(ref), ref):
            stmt = site.stmt
            if isinstance(stmt, VirtualCall):
                if stmt.base not in affected_bases:
                    continue
            else:
                assert isinstance(stmt, StaticCall)
                if stmt.target.klass not in loaded_set:
                    continue
            for target in _world_targets(program, stmt, instantiated, world):
                if note_edge(ref, site.label, target):
                    queue(target)

    # Phase 2: worklist over the newly added methods' own call sites.
    at = 0
    while at < len(worklist):
        ref = worklist[at]
        at += 1
        note_node(ref)
        for site in call_sites_of(program.method(ref), ref):
            for target in _world_targets(
                program, site.stmt, instantiated, world
            ):
                note_edge(ref, site.label, target)
                queue(target)

    return GraphDelta(
        added_nodes=added_nodes, added_edges=tuple(added_edges)
    )


# ----------------------------------------------------------------------
# World computation helpers
# ----------------------------------------------------------------------
def _graph_world(program: Program, graph: CallGraph) -> Set[str]:
    """Classes visible to the analysis that produced ``graph``: every
    non-dynamic class, plus dynamic classes already present as nodes
    (from previously applied deltas)."""
    world = {k.name for k in program.classes if not k.dynamic}
    for name in graph.nodes:
        attrs = graph.node_attrs(name)
        if attrs.get("dynamic") and "klass" in attrs:
            world.add(attrs["klass"])
    return world
