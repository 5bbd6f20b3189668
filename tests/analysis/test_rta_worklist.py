"""The worklist RTA against the round-based fixpoint it replaced.

``reference_instantiated_classes`` is the round-based algorithm, kept
here only as an oracle: it re-walks every reachable method until a
round adds neither a class nor a method. The worklist walks each
reachable body once. Both compute the least fixpoint, which is unique,
so the instantiated sets and the graphs built from them must be equal.
"""

import random
from collections import Counter

import pytest

from repro.analysis import callgraph_builder
from repro.analysis.callgraph_builder import (
    Policy,
    _instantiated_classes,
    _world_targets,
    build_callgraph,
)
from repro.errors import DispatchError, ProgramError
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
from repro.lang.parser import parse_program
from repro.workloads.specjvm import build_benchmark


def reference_instantiated_classes(program, include_dynamic):
    """The round-based RTA: returns (instantiated, rounds, walks)."""
    world = {
        klass.name
        for klass in program.classes
        if include_dynamic or not klass.dynamic
    }
    instantiated = set()
    reachable = {program.entry}
    rounds = walks = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for ref in list(reachable):
            walks += 1
            for stmt in iter_stmts(program.method(ref).body):
                if isinstance(stmt, New):
                    klass = program.klass(stmt.klass)
                    if klass.dynamic and not include_dynamic:
                        continue
                    if stmt.klass not in instantiated:
                        instantiated.add(stmt.klass)
                        changed = True
                elif isinstance(stmt, (StaticCall, VirtualCall)):
                    for target in _world_targets(
                        program, stmt, instantiated, world
                    ):
                        if target not in reachable:
                            reachable.add(target)
                            changed = True
    return instantiated, rounds, walks


def _graph_value(graph):
    return (
        graph.entry,
        [(n, sorted(graph.node_attrs(n).items())) for n in graph.nodes],
        [(e.caller, e.callee, e.label) for e in graph.edges],
    )


def _chain_program():
    """A program the rounds need many passes over.

    * ``K{i}.step`` instantiates ``K{i+1}``, and is reached only through
      the virtual ``Base.step`` once ``K{i}`` is instantiated: each class
      is instantiated in a method reached through a late class.
    * ``Leaf`` extends ``K2`` without overriding ``step`` (inherited).
    * ``Main.main`` calls ``K1.mid``: a site on a mid-level class.
    * ``Dyn`` is dynamic; what only it reaches appears with
      ``include_dynamic`` alone.
    """
    return parse_program(
        """
        program Main.main
        class Main
        class Base
        class K0 extends Base
        class K1 extends K0
        class K2 extends K1
        class K3 extends K2
        class Leaf extends K2
        class Dyn extends Base dynamic
        class Hidden
        class Late extends Base
        def Main.main
          vcall Base.step
          vcall K1.mid
          new K0
        end
        def K0.step
          new K1
        end
        def K1.step
          branch 0.5
            new K2
          end
        end
        def K1.mid
          work 1
        end
        def K2.step
          loop 2
            new Leaf
          end
          new K3
          new Dyn
        end
        def K2.mid
          call Hidden.seen
        end
        def K3.step
          new Late
        end
        def K3.mid
          work 1
        end
        def Dyn.step
          call Hidden.run
        end
        def Hidden.run
          new Late
        end
        def Hidden.seen
          work 1
        end
        def Late.step
          work 1
        end
        """
    )


def _random_program(seed):
    """A seeded program with a random hierarchy (some classes dynamic,
    some inheriting instead of overriding) and random bodies of ``new``,
    static and virtual calls, nested in loops and branches."""
    rng = random.Random(seed)
    program = Program(MethodRef("Main", "main"))
    program.add_class(Klass("Main"))
    classes = []
    for i in range(rng.randint(5, 12)):
        parent = rng.choice(classes) if classes and rng.random() < 0.7 else None
        name = f"C{i}"
        program.add_class(
            Klass(name, superclass=parent, dynamic=rng.random() < 0.2)
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


SEEDS = range(100)


class TestDifferential:
    @pytest.mark.parametrize("include_dynamic", [False, True])
    def test_chain_needs_many_rounds_and_matches(self, include_dynamic):
        program = _chain_program()
        want, rounds, _walks = reference_instantiated_classes(
            program, include_dynamic
        )
        assert rounds >= 6
        assert _instantiated_classes(program, include_dynamic) == want
        assert ("Dyn" in want) == include_dynamic

    @pytest.mark.parametrize("include_dynamic", [False, True])
    def test_random_programs_match_the_rounds(self, include_dynamic):
        multi_round = 0
        for seed in SEEDS:
            program = _random_program(seed)
            want, rounds, _walks = reference_instantiated_classes(
                program, include_dynamic
            )
            multi_round += rounds >= 4
            got = _instantiated_classes(program, include_dynamic)
            assert got == want, seed
        assert multi_round >= len(SEEDS) // 4

    @pytest.mark.parametrize("include_dynamic", [False, True])
    def test_graphs_equal_under_the_reference(
        self, include_dynamic, monkeypatch
    ):
        programs = [_chain_program()] + [_random_program(s) for s in SEEDS]
        built = [
            _graph_value(build_callgraph(
                p, policy=Policy.ZERO_CFA, include_dynamic=include_dynamic
            ))
            for p in programs
        ]
        monkeypatch.setattr(
            callgraph_builder,
            "_instantiated_classes",
            lambda p, d: reference_instantiated_classes(p, d)[0],
        )
        for program, got in zip(programs, built):
            want = _graph_value(build_callgraph(
                program, policy=Policy.ZERO_CFA,
                include_dynamic=include_dynamic,
            ))
            assert got == want


def test_each_reachable_body_is_walked_once_on_sunflow(monkeypatch):
    program = build_benchmark("sunflow").program
    graph = build_callgraph(program, include_dynamic=False)
    reachable = {MethodRef.parse(node) for node in graph.nodes}
    walks = Counter()
    method = program.method

    def spy(ref):
        walks[ref] += 1
        return method(ref)

    monkeypatch.setattr(program, "method", spy)
    _instantiated_classes(program, include_dynamic=False)
    assert len(reachable) == 1965
    assert walks == Counter(reachable)


@pytest.mark.parametrize("policy", [Policy.CHA, Policy.ZERO_CFA])
def test_resolution_faults_are_not_hidden(policy, monkeypatch):
    program = parse_program(
        """
        program Main.main
        class Shape
        class Circle extends Shape
        class Square extends Shape
        class Main
        def Main.main
          new Circle
          new Square
          vcall Shape.draw
        end
        def Shape.draw
          work 1
        end
        def Square.draw
          work 1
        end
        """
    )
    resolve = program.resolve

    def faulty(klass, method):
        if klass == "Square":
            raise ProgramError("corrupt class table")
        return resolve(klass, method)

    # Validation resolves Shape.draw on Shape first and never asks Square.
    monkeypatch.setattr(program, "resolve", faulty)
    with pytest.raises(ProgramError, match="corrupt class table"):
        build_callgraph(program, policy=policy)
