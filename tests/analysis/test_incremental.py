"""Call-graph deltas: GraphDelta, apply/diff, scoped re-analysis, SIDs."""

import random

import pytest

from repro.analysis.incremental import (
    GraphDelta,
    apply_delta,
    delta_for_loaded_classes,
    diff_graphs,
)
from repro.core.sid import compute_sids, update_sids
from repro.errors import GraphError, ProgramError
from repro.graph.callgraph import CallEdge, CallGraph
from repro.runtime.interpreter import Interpreter
from repro.workloads.paperprograms import figure6_program
from repro.workloads.synthetic import random_callgraph


def small_graph():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("main", "b", "s2")
    g.add_edge("a", "c", "s3")
    return g


class TestGraphDelta:
    def test_empty_and_additive_flags(self):
        assert GraphDelta().is_empty
        add = GraphDelta(added_nodes={"x": {}})
        assert not add.is_empty and add.is_additive
        rem = GraphDelta(removed_edges=(CallEdge("a", "c", "s3"),))
        assert not rem.is_empty and not rem.is_additive

    def test_touched_nodes_cover_both_endpoints(self):
        delta = GraphDelta(
            added_nodes={"x": {}},
            removed_nodes=("z",),
            added_edges=(CallEdge("a", "x", "s9"),),
            removed_edges=(CallEdge("main", "b", "s2"),),
        )
        assert delta.touched_nodes() == {"x", "z", "a", "main", "b"}

    def test_compose_equals_sequential_application(self):
        g = small_graph()
        first = GraphDelta(
            added_nodes={"x": {}}, added_edges=(CallEdge("c", "x", "s4"),)
        )
        second = GraphDelta(
            removed_nodes=("x",),
            added_edges=(CallEdge("b", "c", "s5"),),
        )
        sequential = apply_delta(apply_delta(g, first), second)
        composed = apply_delta(g, first.compose(second))
        assert sorted(composed.nodes) == sorted(sequential.nodes)
        assert sorted(map(str, composed.edges)) == sorted(
            map(str, sequential.edges)
        )

    def test_summary_mentions_counts(self):
        delta = GraphDelta(added_nodes={"x": {}})
        assert "+1n" in delta.summary()


class TestApplyDelta:
    def test_returns_updated_copy_by_default(self):
        g = small_graph()
        out = apply_delta(
            g, GraphDelta(added_edges=(CallEdge("c", "b", "s9"),))
        )
        assert out is not g
        assert not g.has_edge(CallEdge("c", "b", "s9"))
        assert out.has_edge(CallEdge("c", "b", "s9"))

    def test_in_place_mutates_the_input(self):
        g = small_graph()
        out = apply_delta(
            g,
            GraphDelta(added_edges=(CallEdge("c", "b", "s9"),)),
            in_place=True,
        )
        assert out is g
        assert g.has_edge(CallEdge("c", "b", "s9"))

    def test_entry_in_edge_is_refused(self):
        g = small_graph()
        delta = GraphDelta(added_edges=(CallEdge("a", "main", "s9"),))
        with pytest.raises(GraphError):
            apply_delta(g, delta)

    def test_missing_removed_edge_is_refused(self):
        g = small_graph()
        with pytest.raises(GraphError):
            apply_delta(
                g, GraphDelta(removed_edges=(CallEdge("a", "b", "nope"),))
            )

    def test_duplicate_added_edge_is_refused(self):
        g = small_graph()
        with pytest.raises(GraphError):
            apply_delta(
                g, GraphDelta(added_edges=(CallEdge("main", "a", "s1"),))
            )


class TestDiffGraphsOracle:
    def test_diff_then_apply_roundtrips_random_graphs(self):
        for seed in range(40):
            old = random_callgraph(seed=seed, layers=4, width=3,
                                   extra_edges=5, back_edges=seed % 2)
            new = old.copy()
            rng = random.Random(1000 + seed)
            for e in rng.sample(new.edges, k=min(2, len(new.edges))):
                new.remove_edge(e)
            for i in range(3):
                new.add_edge(rng.choice(new.nodes), f"plug{i}")
            redone = apply_delta(old, diff_graphs(old, new))
            assert sorted(redone.nodes) == sorted(new.nodes)
            assert sorted(map(str, redone.edges)) == sorted(
                map(str, new.edges)
            )

    def test_identical_graphs_diff_to_empty(self):
        g = small_graph()
        assert diff_graphs(g, g.copy()).is_empty


class TestDeltaForLoadedClasses:
    def test_figure6_plugin_delta(self):
        program = figure6_program()
        from repro.analysis.callgraph_builder import build_callgraph

        graph = build_callgraph(program)
        delta = delta_for_loaded_classes(program, graph, ["XImpl"])
        assert "XImpl.m" in delta.added_nodes
        callees = {(e.caller, e.callee) for e in delta.added_edges}
        assert ("Main.b", "XImpl.m") in callees
        assert ("XImpl.m", "DImpl.m") in callees
        assert ("XImpl.m", "Util.e") in callees
        assert delta.is_additive

    def test_unknown_and_static_classes_are_ignored(self):
        program = figure6_program()
        from repro.analysis.callgraph_builder import build_callgraph

        graph = build_callgraph(program)
        assert delta_for_loaded_classes(program, graph, ["Main"]).is_empty
        assert delta_for_loaded_classes(program, graph, ["Nope"]).is_empty

    def test_interpreter_loaded_classes_are_accepted_wholesale(self):
        program = figure6_program()
        from repro.analysis.callgraph_builder import build_callgraph

        for seed in range(20):
            interp = Interpreter(program, seed=seed)
            interp.run(operations=8)
            if "XImpl" in interp.loaded_classes:
                graph = build_callgraph(program)
                delta = delta_for_loaded_classes(
                    program, graph, interp.loaded_classes
                )
                assert "XImpl.m" in delta.added_nodes
                return
        pytest.fail("no seed loads the plugin")

    def test_resolution_faults_are_not_hidden(self, monkeypatch):
        # A fault resolving the loaded class's method must surface, not
        # turn into a hot-swap delta without the Main.b -> XImpl.m edge.
        program = figure6_program()
        from repro.analysis.callgraph_builder import build_callgraph

        graph = build_callgraph(program)
        resolve = program.resolve

        def faulty(klass, method):
            if klass == "XImpl":
                raise ProgramError("corrupt class table")
            return resolve(klass, method)

        monkeypatch.setattr(program, "resolve", faulty)
        with pytest.raises(ProgramError, match="corrupt class table"):
            delta_for_loaded_classes(program, graph, ["XImpl"])


class TestUpdateSids:
    def test_additive_update_matches_batch_partition(self):
        """update_sids must induce the same partition as compute_sids on
        the new graph, with stable numbering for surviving classes."""
        for seed in range(60):
            rng = random.Random(seed)
            graph = random_callgraph(seed=seed, layers=4, width=3,
                                     extra_edges=4, virtual_sites=2)
            old = compute_sids(graph)
            g2 = graph.copy()
            adds = []
            for i in range(rng.randrange(1, 4)):
                caller = rng.choice(g2.nodes)
                if rng.random() < 0.5:
                    adds.append(g2.add_edge(caller, f"plug{i}"))
                else:
                    callee = rng.choice(
                        [n for n in g2.nodes if n != g2.entry]
                    )
                    adds.append(g2.add_edge(caller, callee))
            delta = GraphDelta(
                added_nodes={
                    e.callee: {} for e in adds
                    if e.callee.startswith("plug")
                },
                added_edges=tuple(adds),
            )
            updated = update_sids(old, g2, delta)
            batch = compute_sids(g2)
            # Same partition: nodes share an updated SID iff they share
            # a batch SID.
            by_updated, by_batch = {}, {}
            for node in g2.nodes:
                by_updated.setdefault(updated.sid_of_node[node],
                                      set()).add(node)
                by_batch.setdefault(batch.sid_of_node[node], set()).add(node)
            assert sorted(map(sorted, by_updated.values())) == sorted(
                map(sorted, by_batch.values())
            ), seed
            assert updated.num_sets == batch.num_sets
            # Stability: a class untouched by the delta keeps its SID.
            touched = delta.touched_nodes()
            touched_sids = {
                old.sid_of_node[n] for n in touched if n in old.sid_of_node
            }
            for node, sid in old.sid_of_node.items():
                if sid not in touched_sids:
                    assert updated.sid_of_node[node] == sid, (seed, node)

    def test_merge_takes_smallest_old_sid(self):
        g = CallGraph("main")
        g.add_edge("main", "a", "s1")
        g.add_edge("main", "b", "s2")
        old = compute_sids(g)
        g2 = g.copy()
        # Turn s1 into a virtual site dispatching to both a and b.
        edge = g2.add_edge("main", "b", "s1")
        delta = GraphDelta(added_edges=(edge,))
        updated = update_sids(old, g2, delta)
        merged = min(old.sid_of_node["a"], old.sid_of_node["b"])
        assert updated.sid_of_node["a"] == merged
        assert updated.sid_of_node["b"] == merged
        assert updated.sid_of_site[edge.site] == merged

    def test_fresh_sids_for_new_only_classes(self):
        g = small_graph()
        old = compute_sids(g)
        g2 = g.copy()
        edge = g2.add_edge("c", "plugin", "s9")
        delta = GraphDelta(
            added_nodes={"plugin": {}}, added_edges=(edge,)
        )
        updated = update_sids(old, g2, delta)
        assert updated.sid_of_node["plugin"] >= old.num_sets
        for node, sid in old.sid_of_node.items():
            assert updated.sid_of_node[node] == sid

    def test_non_additive_falls_back_to_batch(self):
        g = small_graph()
        old = compute_sids(g)
        g2 = g.copy()
        victim = next(e for e in g2.edges if e.callee == "c")
        g2.remove_edge(victim)
        delta = GraphDelta(removed_edges=(victim,))
        updated = update_sids(old, g2, delta)
        batch = compute_sids(g2)
        assert updated.sid_of_node == batch.sid_of_node

    def test_two_deltas_fresh_sid_does_not_collide(self):
        """Regression (found by ``repro.check``): after a merge leaves
        the surviving SID numbers sparse ({0, 1, 3}, num_sets == 3), a
        second delta's fresh numbering started at num_sets and handed a
        brand-new class the still-live SID 3."""
        g = CallGraph("main")
        g.add_edge("main", "A", "l0")
        g.add_edge("main", "B", "l1")
        g.add_edge("main", "C", "l2")
        sids = compute_sids(g)

        g2 = g.copy()
        merge = (g2.add_edge("main", "A", "v"), g2.add_edge("main", "B", "v"))
        sids = update_sids(sids, g2, GraphDelta(added_edges=merge))
        assert sids.num_sets == 3  # {main}, {A, B}, {C}

        g3 = g2.copy()
        edge = g3.add_edge("main", "D", "l3")
        sids = update_sids(
            sids, g3, GraphDelta(added_nodes={"D": {}}, added_edges=(edge,))
        )
        assert sids.sid_of_node["D"] != sids.sid_of_node["C"]
        batch = compute_sids(g3)
        by_updated, by_batch = {}, {}
        for node in g3.nodes:
            by_updated.setdefault(sids.sid_of_node[node], set()).add(node)
            by_batch.setdefault(batch.sid_of_node[node], set()).add(node)
        assert sorted(map(sorted, by_updated.values())) == sorted(
            map(sorted, by_batch.values())
        )
        assert sids.num_sets == batch.num_sets


class TestTouchedNodesWithGraph:
    def test_removed_node_touches_its_neighbors(self):
        """Regression (found by ``repro.check``): removing a node
        implicitly removes its incident edges, so the neighbors'
        territories are dirty too — but the delta alone cannot name
        them, which under-approximated the re-encoding dirty region and
        left stale site tables behind."""
        g = CallGraph("main")
        g.add_edge("main", "A", "a0")
        g.add_edge("A", "B", "b0")
        g.add_edge("B", "C", "c0")
        delta = GraphDelta(removed_nodes=("B",))
        assert delta.touched_nodes() == {"B"}
        assert delta.touched_nodes(g) == {"A", "B", "C"}

    def test_explicit_edges_unaffected_by_graph_argument(self):
        g = CallGraph("main")
        edge = g.add_edge("main", "A", "a0")
        delta = GraphDelta(removed_edges=(edge,))
        assert delta.touched_nodes(g) == {"main", "A"}
