"""Parametric random call-graph and program generators.

Two consumers:

* property-based tests drive the encoders with :func:`random_callgraph`
  (arbitrary DAG-ish multigraphs with virtual sites and optional cycles);
* the SPECjvm-shaped benchmarks (:mod:`repro.workloads.specjvm`) assemble
  programs from the building blocks here — layered components, virtual
  dispatch clusters, and *diamond cascades*, the structure that makes
  calling-context counts grow exponentially with depth (each layer
  multiplies the context count by its lane count).

Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.callgraph import CallGraph
from repro.lang.model import (
    Branch,
    Klass,
    Method,
    MethodRef,
    Program,
    StaticCall,
    Stmt,
    VirtualCall,
    Work,
)

__all__ = [
    "random_callgraph",
    "CascadeSpec",
    "add_cascade",
    "add_parallel_cascade",
    "ComponentSpec",
    "add_component",
]


def random_callgraph(
    seed: int,
    layers: int = 4,
    width: int = 4,
    extra_edges: int = 6,
    virtual_sites: int = 2,
    max_dispatch: int = 3,
    back_edges: int = 0,
) -> CallGraph:
    """A random layered call multigraph.

    Nodes sit in ``layers`` layers of up to ``width`` nodes; every node
    gets one incoming edge from an earlier layer (everything reachable),
    then ``extra_edges`` random forward edges and ``virtual_sites``
    shared-label sites with up to ``max_dispatch`` targets are added.
    ``back_edges`` adds cycle-closing edges for recursion testing.
    """
    rng = random.Random(seed)
    graph = CallGraph(entry="main")
    layer_index: Dict[str, int] = {"main": 0}
    layer_nodes: List[List[str]] = [["main"]]
    for layer in range(1, layers + 1):
        count = rng.randint(1, width)
        names = [f"f{layer}_{i}" for i in range(count)]
        layer_nodes.append(names)
        for name in names:
            layer_index[name] = layer
            caller = rng.choice(layer_nodes[rng.randrange(layer)])
            graph.add_edge(caller, name)

    flat = list(layer_index)

    def pick_forward_pair() -> Optional[Tuple[str, str]]:
        for _ in range(30):
            caller, callee = rng.choice(flat), rng.choice(flat)
            if layer_index[caller] < layer_index[callee]:
                return caller, callee
        return None

    for _ in range(extra_edges):
        pair = pick_forward_pair()
        if pair is not None:
            graph.add_edge(*pair)

    for v in range(virtual_sites):
        pair = pick_forward_pair()
        if pair is None:
            continue
        caller, first = pair
        floor = layer_index[caller]
        targets = {first}
        candidates = [n for n in flat if layer_index[n] > floor]
        for _ in range(rng.randint(0, max_dispatch - 1)):
            targets.add(rng.choice(candidates))
        graph.add_call(caller, sorted(targets), label=f"v{v}")

    for b in range(back_edges):
        # A genuine cycle needs the callee to already reach the caller.
        for _ in range(30):
            caller = rng.choice(flat)
            ancestors = [
                n for n in graph.reaching(caller)
                if n not in ("main", caller)
            ]
            if not ancestors:
                continue
            callee = rng.choice(sorted(ancestors))
            graph.add_edge(caller, callee, label=f"back{b}")
            break
    return graph


# ----------------------------------------------------------------------
# Program building blocks
# ----------------------------------------------------------------------
@dataclass
class CascadeSpec:
    """A diamond cascade: ``layers`` levels, each multiplying the context
    count by ``lanes``.

    Layer ``i`` is a junction method making one *virtual* call dispatched
    to ``lanes`` lane methods (subclasses of a per-layer base class);
    every lane calls the next junction statically. Context count at the
    bottom = (count at top) * lanes**layers, while the runtime depth of
    one traversal is only ``2 * layers``.
    """

    prefix: str
    layers: int
    lanes: int = 3
    library: bool = False
    #: True (default): lane selection is a virtual call (one site, many
    #: targets). False: lanes are chosen by seeded branches over static
    #: calls — a monomorphic cascade with the same context blow-up, for
    #: baselines (PCCE) that cannot handle virtual dispatch.
    virtual_lanes: bool = True


def add_cascade(
    program: Program, spec: CascadeSpec
) -> Tuple[MethodRef, MethodRef, List[str]]:
    """Append a cascade; returns (top junction, bottom junction, classes
    to instantiate for dispatch)."""
    lane_classes: List[str] = []
    for layer in range(spec.layers + 1):
        junction_class = f"{spec.prefix}J{layer}"
        program.add_class(Klass(junction_class, library=spec.library))
        if layer == spec.layers:
            program.klass(junction_class).define(Method("step", (Work(1),)))
            break
        lane_names = [
            f"{spec.prefix}L{layer}x{lane}" for lane in range(spec.lanes)
        ]
        if spec.virtual_lanes:
            base_class = f"{spec.prefix}B{layer}"
            program.add_class(Klass(base_class, library=spec.library))
            program.klass(junction_class).define(
                Method("step", (VirtualCall(base_class, "go"),))
            )
            for lane_class in lane_names:
                program.add_class(
                    Klass(
                        lane_class,
                        superclass=base_class,
                        library=spec.library,
                    )
                )
                program.klass(lane_class).define(
                    Method(
                        "go",
                        (StaticCall(MethodRef(f"{spec.prefix}J{layer + 1}", "step")),),
                    )
                )
                lane_classes.append(lane_class)
        else:
            # Monomorphic lanes: a seeded branch ladder picks one lane;
            # each lane is a static call. Same blow-up, no dispatch.
            for lane_class in lane_names:
                program.add_class(Klass(lane_class, library=spec.library))
                program.klass(lane_class).define(
                    Method(
                        "go",
                        (StaticCall(MethodRef(f"{spec.prefix}J{layer + 1}", "step")),),
                    )
                )
            ladder: Tuple[Stmt, ...] = (
                StaticCall(MethodRef(lane_names[-1], "go")),
            )
            for index in range(len(lane_names) - 2, -1, -1):
                weight = 1.0 / (len(lane_names) - index)
                ladder = (
                    Branch(
                        weight,
                        (StaticCall(MethodRef(lane_names[index], "go")),),
                        ladder,
                    ),
                )
            program.klass(junction_class).define(Method("step", ladder))
    top = MethodRef(f"{spec.prefix}J0", "step")
    bottom = MethodRef(f"{spec.prefix}J{spec.layers}", "step")
    return top, bottom, lane_classes


def add_parallel_cascade(
    program: Program,
    prefix: str,
    layers: int,
    fan: int = 3,
    library: bool = False,
) -> Tuple[MethodRef, MethodRef]:
    """A hub cascade: each junction calls the *next junction* directly
    through ``fan`` parallel call sites (a seeded branch ladder picks one
    at runtime).

    Same ``fan ** layers`` context blow-up as a lane cascade, but the
    growth flows through single hub nodes — the structure where
    DeltaPath's anchors shine (anchoring one hub resets the entire
    downstream space) while PCCE-style edge pruning must prune
    ``fan - 1`` of every hub's incoming edges from the overflow frontier
    onward. Returns (top junction, bottom junction).
    """
    for layer in range(layers + 1):
        name = f"{prefix}P{layer}"
        program.add_class(Klass(name, library=library))
        if layer == layers:
            program.klass(name).define(Method("step", (Work(1),)))
            break
        target = MethodRef(f"{prefix}P{layer + 1}", "step")
        ladder: Tuple[Stmt, ...] = (StaticCall(target),)
        for index in range(fan - 2, -1, -1):
            weight = 1.0 / (fan - index)
            ladder = (Branch(weight, (StaticCall(target),), ladder),)
        program.klass(name).define(Method("step", ladder))
    return MethodRef(f"{prefix}P0", "step"), MethodRef(f"{prefix}P{layers}", "step")


@dataclass
class ComponentSpec:
    """A filler component: ``methods`` methods in a layered random DAG.

    Approximates the bulk of a real code base: mostly static calls, a
    fraction of virtual clusters (base + ``dispatch`` impls sharing one
    call site), all reachable from the component root, deterministic
    under ``seed``.
    """

    prefix: str
    methods: int
    seed: int
    extra_calls: int = 1
    virtual_cluster_every: int = 6
    dispatch: int = 3
    library: bool = False
    depth_layers: int = 8
    #: Probability that each call in a body executes at runtime. The
    #: static call graph always contains every edge; thinning keeps the
    #: interpreter's dynamic call tree sub-exponential.
    dynamic_weight: float = 0.4


def add_component(
    program: Program, spec: ComponentSpec
) -> Tuple[MethodRef, List[MethodRef], List[str]]:
    """Append a filler component; returns (root, methods, classes to
    instantiate)."""
    rng = random.Random(spec.seed)
    holder = f"{spec.prefix}H"
    program.add_class(Klass(holder, library=spec.library))

    # Layer assignment; layer 0 holds the root alone.
    refs: List[MethodRef] = [MethodRef(holder, "m0")]
    layer_of: Dict[MethodRef, int] = {refs[0]: 0}
    for i in range(1, spec.methods):
        ref = MethodRef(holder, f"m{i}")
        refs.append(ref)
        layer_of[ref] = rng.randint(1, spec.depth_layers)

    # Per layer, the methods of strictly shallower and of strictly deeper
    # layers, each in ``refs`` order: the seeded draws below index them.
    layers = sorted(set(layer_of.values()))
    shallower = {
        layer: [r for r in refs if layer_of[r] < layer] for layer in layers
    }
    deeper = {
        layer: [r for r in refs if layer_of[r] > layer] for layer in layers
    }

    # Call plan: every non-root method gets >= 1 caller from a strictly
    # shallower layer, guaranteeing reachability; then extra forward
    # calls thicken the graph.
    calls: Dict[MethodRef, List[MethodRef]] = {ref: [] for ref in refs}
    for ref in refs[1:]:
        calls[rng.choice(shallower[layer_of[ref]])].append(ref)
    for ref in refs:
        below = deeper[layer_of[ref]]
        for _ in range(spec.extra_calls):
            if below:
                calls[ref].append(rng.choice(below))

    # Virtual clusters: every Nth method also dispatches to a cluster of
    # impls, each forwarding to a deeper method.
    instantiate: List[str] = []
    cluster_of: Dict[MethodRef, str] = {}
    for i, ref in enumerate(refs):
        if not i or not spec.virtual_cluster_every:
            continue
        if i % spec.virtual_cluster_every:
            continue
        below = deeper[layer_of[ref]]
        if not below:
            continue
        base = f"{spec.prefix}VB{i}"
        program.add_class(Klass(base, library=spec.library))
        for d in range(spec.dispatch):
            impl = f"{spec.prefix}VI{i}x{d}"
            program.add_class(
                Klass(impl, superclass=base, library=spec.library)
            )
            program.klass(impl).define(
                Method("handle", (StaticCall(rng.choice(below)),))
            )
            instantiate.append(impl)
        cluster_of[ref] = base

    for ref in refs:
        body: List = [
            Branch(spec.dynamic_weight, (StaticCall(target),))
            for target in calls[ref]
        ]
        if ref in cluster_of:
            body.append(VirtualCall(cluster_of[ref], "handle"))
        if not body:
            body.append(Work(1))
        program.klass(holder).define(Method(ref.method, tuple(body)))

    return refs[0], refs, instantiate
