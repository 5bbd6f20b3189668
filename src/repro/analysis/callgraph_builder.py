"""Call-graph construction from JIP programs (the WALA stand-in).

The paper uses WALA's context-insensitive 0-CFA to build call graphs from
Java bytecode. Our mini language has no local dataflow — virtual-call
receivers are drawn from per-base-type pools of instantiated classes — so
0-CFA's per-site receiver sets degenerate to exactly what Rapid Type
Analysis computes. Three policies are provided:

* **CHA** (class hierarchy analysis): a virtual site targets the resolved
  method of *every* statically known subtype of its base class.
* **RTA** (rapid type analysis): subtypes are restricted to classes
  actually instantiated in reachable code. A worklist computes the
  least fixpoint: each reachable method body is walked once, and a
  class's first instantiation resolves only the virtual sites already
  seen on its supertypes.
* **ZERO_CFA**: alias of RTA with the degeneracy documented — on JIP they
  coincide; it exists so call sites in experiment configs can say what
  the paper said.

Dynamic classes (``Klass.dynamic``) are invisible to all policies; they
only exist at runtime, which is precisely what creates the unexpected
call paths of Section 4.1.

Call-site labels are stable statement paths, e.g. ``"2"`` (third
top-level statement) or ``"2.0.1"`` (inside nested blocks), so graphs are
reproducible and sites can be matched back to statements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import DispatchError
from repro.graph.callgraph import CallGraph
from repro.lang.model import (
    Branch,
    Loop,
    Method,
    MethodRef,
    New,
    Program,
    StaticCall,
    Stmt,
    VirtualCall,
    iter_stmts,
)

__all__ = ["Policy", "CallSiteInfo", "build_callgraph", "call_sites_of"]


class Policy(enum.Enum):
    """Dispatch-set approximation used for virtual call sites."""

    CHA = "cha"
    RTA = "rta"
    ZERO_CFA = "0-cfa"


@dataclass(frozen=True)
class CallSiteInfo:
    """A call statement located inside a method body."""

    owner: MethodRef
    label: str
    stmt: Stmt  # StaticCall or VirtualCall

    @property
    def is_virtual(self) -> bool:
        return isinstance(self.stmt, VirtualCall)


def call_sites_of(method: Method, owner: MethodRef) -> List[CallSiteInfo]:
    """All call statements of a method with their stable labels."""
    sites: List[CallSiteInfo] = []

    def walk(body: Sequence[Stmt], prefix: str) -> None:
        for index, stmt in enumerate(body):
            label = f"{prefix}{index}"
            if isinstance(stmt, (StaticCall, VirtualCall)):
                sites.append(CallSiteInfo(owner, label, stmt))
            elif isinstance(stmt, Loop):
                walk(stmt.body, f"{label}.")
            elif isinstance(stmt, Branch):
                walk(stmt.then, f"{label}.t")
                walk(stmt.orelse, f"{label}.e")

    walk(method.body, "")
    return sites


def build_callgraph(
    program: Program,
    policy: Policy = Policy.ZERO_CFA,
    include_dynamic: bool = False,
) -> CallGraph:
    """Build the static call graph of ``program`` under ``policy``.

    ``include_dynamic=True`` builds the *runtime-complete* graph (as if
    every dynamic class had been loaded) — useful as a ground-truth
    comparison in tests, never available to real static analysis.
    """
    program.validate()
    world = _visible_classes(program, include_dynamic)
    if policy is Policy.CHA:
        instantiated = None
    else:
        instantiated = _instantiated_classes(program, include_dynamic)

    entry_name = str(program.entry)
    graph = CallGraph(entry=entry_name)
    _annotate_node(graph, program, program.entry)

    worklist: List[MethodRef] = [program.entry]
    seen: Set[MethodRef] = {program.entry}
    cursor = 0
    while cursor < len(worklist):
        ref = worklist[cursor]
        cursor += 1
        method = program.method(ref)
        for site in call_sites_of(method, ref):
            targets = _world_targets(program, site.stmt, instantiated, world)
            for target in targets:
                graph.add_node(str(target))
                _annotate_node(graph, program, target)
                graph.add_edge(str(ref), str(target), site.label)
                if target not in seen:
                    seen.add(target)
                    worklist.append(target)
    return graph


def _annotate_node(graph: CallGraph, program: Program, ref: MethodRef) -> None:
    klass = program.klass(ref.klass)
    graph.add_node(
        str(ref),
        klass=ref.klass,
        method=ref.method,
        library=klass.library,
        dynamic=klass.dynamic,
    )


def _resolve(program: Program, klass: str, method: str) -> Optional[MethodRef]:
    """The method a receiver of class ``klass`` runs for a virtual call,
    or None when the class lacks it; callers check its visibility."""
    try:
        return program.resolve(klass, method)
    except DispatchError:
        return None  # abstract-like subtype without the method


def _visible_classes(program: Program, include_dynamic: bool) -> Set[str]:
    """The classes static analysis sees: every non-dynamic class, and
    the dynamic ones too under ``include_dynamic``."""
    return {
        klass.name
        for klass in program.classes
        if include_dynamic or not klass.dynamic
    }


def _instantiated_classes(
    program: Program, include_dynamic: bool
) -> Set[str]:
    """RTA's instantiated classes: those ``New``-ed in methods reachable
    from the entry, where reachability itself depends on the set."""
    return _world_instantiated(
        program, _visible_classes(program, include_dynamic)
    )


def _world_instantiated(
    program: Program, world: Set[str], loaded: Iterable[str] = ()
) -> Set[str]:
    """RTA's instantiated classes with the classes of ``world`` visible
    and the ``loaded`` ones instantiated from the start (dynamic
    loading happens at first instantiation).

    A worklist walks each reachable body once. Virtual sites are
    remembered as the method names called on each base class; when a
    class is first instantiated, only the sites on its supertypes are
    resolved against it. Dispatch grows monotonically with the set, so
    the least fixpoint is unique and equals what re-walking every
    reachable method until nothing changes would compute.
    """
    instantiated: Set[str] = set(loaded)
    reachable: Set[MethodRef] = {program.entry}
    worklist: List[MethodRef] = [program.entry]
    #: base class -> method names called on it, in first-seen order.
    called_on: Dict[str, Dict[str, None]] = {}

    def reach(target: MethodRef) -> None:
        if target not in reachable:
            reachable.add(target)
            worklist.append(target)

    while worklist:
        method = program.method(worklist.pop())
        for stmt in iter_stmts(method.body):
            if isinstance(stmt, New):
                name = stmt.klass
                if name in instantiated or name not in world:
                    continue
                instantiated.add(name)
                for base in program.supertypes(name):
                    for called in called_on.get(base, ()):
                        target = _resolve(program, name, called)
                        if target is not None and target.klass in world:
                            reach(target)
            elif isinstance(stmt, VirtualCall):
                called = called_on.setdefault(stmt.base, {})
                if stmt.method in called:
                    continue  # its targets so far are reached already
                called[stmt.method] = None
                for target in _world_targets(
                    program, stmt, instantiated, world
                ):
                    reach(target)
            elif isinstance(stmt, StaticCall):
                for target in _world_targets(
                    program, stmt, instantiated, world
                ):
                    reach(target)
    return instantiated


def _world_targets(
    program: Program,
    stmt: Stmt,
    instantiated: Optional[Set[str]],
    world: Set[str],
) -> List[MethodRef]:
    """Resolved targets of a call statement with ``world`` visible.

    A static call targets its method when its class is visible. A
    virtual call targets, once each in subtype declaration order, the
    method each visible subtype resolves to, restricted to the
    ``instantiated`` classes unless that is None (CHA). A subtype
    without the method is skipped (``DispatchError``); any other
    resolution fault propagates instead of becoming a missing edge.
    """
    if isinstance(stmt, StaticCall):
        if stmt.target.klass not in world:
            return []
        return [stmt.target]
    assert isinstance(stmt, VirtualCall)
    targets: List[MethodRef] = []
    seen: Set[MethodRef] = set()
    for subtype in program.subtypes(stmt.base, include_dynamic=True):
        if subtype not in world:
            continue
        if instantiated is not None and subtype not in instantiated:
            continue
        resolved = _resolve(program, subtype, stmt.method)
        if resolved is None or resolved.klass not in world:
            continue
        if resolved not in seen:
            seen.add(resolved)
            targets.append(resolved)
    return targets
