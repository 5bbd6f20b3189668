"""The hot-swap delta's worklist RTA against the round-based fixpoint.

``delta_for_loaded_classes`` computes its instantiated classes with the
batch builder's worklist (``_world_instantiated``), with the graph's
world plus the loaded classes visible and the world's dynamic classes
instantiated from the start. ``reference_world_instantiated`` is the
round-based RTA it used before, kept here only as an oracle: it
re-walks every reachable method until a round adds nothing. Both
compute the same least fixpoint, so the instantiated sets, and the
deltas built from them, must be equal.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.analysis import incremental
from repro.analysis.callgraph_builder import (
    Policy,
    _world_instantiated,
    _world_targets,
    build_callgraph,
    call_sites_of,
)
from repro.analysis.incremental import _graph_world, delta_for_loaded_classes
from repro.errors import DispatchError
from repro.lang.model import (
    Branch,
    Klass,
    Loop,
    Method,
    MethodRef,
    New,
    Program,
    StaticCall,
    VirtualCall,
    Work,
    iter_stmts,
)
from repro.workloads.specjvm import benchmark_names, build_benchmark


def reference_world_instantiated(program, world):
    """The round-based RTA with ``world`` visible; the world's dynamic
    classes count as instantiated."""
    instantiated = {
        k.name for k in program.classes if k.dynamic and k.name in world
    }
    reachable = {program.entry}
    changed = True
    while changed:
        changed = False
        for ref in list(reachable):
            method = program.method(ref)
            for site in call_sites_of(method, ref):
                for target in _world_targets(
                    program, site.stmt, instantiated, world
                ):
                    if target not in reachable:
                        reachable.add(target)
                        changed = True
            for stmt in iter_stmts(method.body):
                if (
                    isinstance(stmt, New)
                    and stmt.klass in world
                    and stmt.klass not in instantiated
                ):
                    instantiated.add(stmt.klass)
                    changed = True
    return instantiated


def _delta_value(delta):
    return (
        list(delta.added_nodes.items()),
        delta.removed_nodes,
        delta.added_edges,
        delta.removed_edges,
    )


def _check(program, graph, loaded, monkeypatch):
    """The worklist delta equals the oracle's, instantiated set first."""
    world = _graph_world(program, graph)
    new = [k for k in loaded if k not in world]
    world |= set(new)
    want_set = reference_world_instantiated(program, world)
    seeded = [k.name for k in program.classes if k.dynamic and k.name in world]
    assert _world_instantiated(program, world, seeded) == want_set
    got = delta_for_loaded_classes(program, graph, loaded)
    with monkeypatch.context() as patch:
        patch.setattr(
            incremental,
            "_world_instantiated",
            lambda p, w, loaded=(): set(want_set),
        )
        want = delta_for_loaded_classes(program, graph, loaded)
    assert _delta_value(got) == _delta_value(want)
    return got


def _subsets(names):
    return [
        list(chosen)
        for size in range(len(names) + 1)
        for chosen in itertools.combinations(names, size)
    ]


@pytest.mark.parametrize("name", benchmark_names())
def test_specjvm_every_subset_of_dynamic_classes(name, monkeypatch):
    program = build_benchmark(name).program
    graph = build_callgraph(program, include_dynamic=False)
    dynamic = [k.name for k in program.classes if k.dynamic]
    assert dynamic
    grew = 0
    for loaded in _subsets(dynamic):
        grew += not _check(program, graph, loaded, monkeypatch).is_empty
    assert grew >= 1


def _random_program(seed):
    """A seeded program whose dynamic classes are instantiated, called
    statically and reached virtually, in nested bodies."""
    rng = random.Random(seed)
    program = Program(MethodRef("Main", "main"))
    program.add_class(Klass("Main"))
    classes = []
    for i in range(rng.randint(5, 12)):
        parent = rng.choice(classes) if classes and rng.random() < 0.7 else None
        name = f"C{i}"
        program.add_class(
            Klass(name, superclass=parent, dynamic=rng.random() < 0.3)
        )
        classes.append(name)
    program.klass("Main").define(Method("main"))
    for name in classes:
        for method in ("a", "b", "c"):
            if rng.random() < 0.45:
                program.klass(name).define(Method(method))
    refs = [ref for ref, _method in program.methods()]
    virtual = []
    for base in classes:
        for method in ("a", "b", "c"):
            for sub in program.subtypes(base):
                try:
                    program.resolve(sub, method)
                except DispatchError:
                    continue
                virtual.append((base, method))
                break

    def stmts(depth):
        body = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.3:
                body.append(New(rng.choice(classes)))
            elif roll < 0.5:
                body.append(StaticCall(rng.choice(refs)))
            elif roll < 0.8 and virtual:
                body.append(VirtualCall(*rng.choice(virtual)))
            elif depth < 2 and roll < 0.9:
                body.append(Loop(2, tuple(stmts(depth + 1))))
            elif depth < 2:
                body.append(Branch(0.5, tuple(stmts(depth + 1))))
            else:
                body.append(Work(1))
        return body

    for _ref, method in program.methods():
        method.body = tuple(stmts(0))
    program.validate()
    return program


def test_random_programs_every_subset(monkeypatch):
    grew = 0
    for seed in range(80):
        program = _random_program(seed)
        graph = build_callgraph(program, policy=Policy.ZERO_CFA)
        dynamic = [k.name for k in program.classes if k.dynamic]
        for loaded in _subsets(dynamic[:3]):
            grew += not _check(program, graph, loaded, monkeypatch).is_empty
    assert grew >= 40


def test_each_reachable_body_is_walked_once_on_sunflow(monkeypatch):
    """The two-plugin delta walks each method reachable in its world
    once, and looks up no method beyond that walk and the re-resolved
    bodies of the graph and the delta."""
    program = build_benchmark("sunflow").program
    graph = build_callgraph(program, include_dynamic=False)
    delta = delta_for_loaded_classes(program, graph, ["Plugin", "Plugin2"])
    assert len(delta.added_nodes) == 2
    reachable = {MethodRef.parse(node) for node in graph.nodes}
    reachable |= {MethodRef.parse(node) for node in delta.added_nodes}
    world = _graph_world(program, graph) | {"Plugin", "Plugin2"}

    walks = Counter()
    method = program.method

    def spy(ref):
        walks[ref] += 1
        return method(ref)

    monkeypatch.setattr(program, "method", spy)
    _world_instantiated(program, world, ["Plugin", "Plugin2"])
    assert walks == Counter(reachable)

    walks.clear()
    assert delta_for_loaded_classes(
        program, graph, ["Plugin", "Plugin2"]
    ) == delta
    assert sum(walks.values()) == (
        len(reachable) + len(graph.nodes) + len(delta.added_nodes)
    )
