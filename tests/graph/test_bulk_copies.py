"""Bulk graph copies against the add-based builds they replaced.

``reference_subgraph`` and ``reference_without_edges`` re-add every kept
node and edge through ``add_node``/``add_edge``, as the library did
before it filtered its tables instead; they stay here only as oracles.
Both builds must agree in every order: nodes with their attributes,
edges, the edge set, in- and out-lists, and the site map, where a site
whose first edge is dropped sits where its first kept edge puts it.
"""

import random

import pytest

from repro.graph.callgraph import CallGraph
from repro.workloads.synthetic import random_callgraph


def reference_subgraph(graph, keep, entry=None):
    keep_set = set(keep)
    new_entry = entry if entry is not None else graph.entry
    keep_set.add(new_entry)
    sub = CallGraph(entry=new_entry)
    for name in graph.nodes:
        if name in keep_set:
            sub.add_node(name, **graph.node_attrs(name))
    for edge in graph.edges:
        if edge.caller in keep_set and edge.callee in keep_set:
            sub.add_edge(edge.caller, edge.callee, edge.label)
    return sub


def reference_without_edges(graph, drop):
    drop_set = set(drop)
    out = CallGraph(entry=graph.entry)
    for name in graph.nodes:
        out.add_node(name, **graph.node_attrs(name))
    for edge in graph.edges:
        if edge not in drop_set:
            out.add_edge(edge.caller, edge.callee, edge.label)
    return out


def tables(graph):
    """Every table of the graph, in its order."""
    return (
        graph.entry,
        list(graph._nodes.items()),
        list(graph._edges),
        graph._edge_set,
        list(graph._in.items()),
        list(graph._out.items()),
        list(graph._site_edges.items()),
    )


def assert_same(got, want, source):
    assert tables(got) == tables(want)
    # A derived graph shares no mutable table with its source.
    for name in got.nodes:
        if name in source:
            assert got.node_attrs(name) is not source.node_attrs(name)
            assert got._in[name] is not source._in[name]
            assert got._out[name] is not source._out[name]
    for site, edges in got._site_edges.items():
        assert edges is not source._site_edges.get(site)
    assert got._edge_set is not source._edge_set


def _graph(seed):
    """A random graph with attributes, virtual sites and recursion.
    Some sites gain a target after other sites' edges, so dropping a
    site's first edge can move it past them; every third graph has
    lost some edges (and so, perhaps, the first edge of a site that
    keeps others) through ``remove_edge``."""
    rng = random.Random(seed)
    graph = random_callgraph(
        seed,
        layers=5,
        width=5,
        extra_edges=10,
        virtual_sites=5,
        max_dispatch=4,
        back_edges=seed % 3,
    )
    for name in graph.nodes:
        graph.add_node(name, library=rng.random() < 0.3, rank=rng.randrange(9))
    for site in rng.sample(graph.call_sites, 4):
        taken = {e.callee for e in graph.site_targets(site)}
        free = [n for n in graph.nodes if n not in taken and n != graph.entry]
        graph.add_edge(site.caller, rng.choice(free), site.label)
    if seed % 3 == 0:
        for edge in rng.sample(graph.edges, min(3, graph.num_edges)):
            graph.remove_edge(edge)
    return graph


SEEDS = range(150)


def test_copy_equals_the_add_based_build():
    for seed in SEEDS:
        graph = _graph(seed)
        assert_same(graph.copy(), reference_without_edges(graph, ()), graph)


def test_without_edges_equals_the_add_based_build():
    moved = 0
    for seed in SEEDS:
        graph = _graph(seed)
        rng = random.Random(seed)
        edges = graph.edges
        for share in (0.0, 0.05, 0.3, 1.0):
            drop = [e for e in edges if rng.random() < share]
            got = graph.without_edges(drop)
            want = reference_without_edges(graph, drop)
            assert_same(got, want, graph)
            moved += list(want._site_edges) != [
                site for site in graph._site_edges if site in want._site_edges
            ]
    # Some drops move a site past others.
    assert moved >= 20


@pytest.mark.parametrize("new_entry", [False, True])
def test_subgraph_equals_the_add_based_build(new_entry):
    moved = 0
    for seed in SEEDS:
        graph = _graph(seed)
        rng = random.Random(seed)
        for share in (0.0, 0.5, 0.9, 1.0):
            keep = [n for n in graph.nodes if rng.random() < share]
            entry = None
            if new_entry:
                entry = rng.choice(graph.nodes + ["fresh"])
            got = graph.subgraph(keep, entry=entry)
            want = reference_subgraph(graph, keep, entry=entry)
            assert_same(got, want, graph)
            moved += list(want._site_edges) != [
                site for site in graph._site_edges if site in want._site_edges
            ]
    # Some projections move a site past others.
    assert moved >= 20


def test_a_derived_graph_stays_independent():
    graph = _graph(3)
    for derived in (
        graph.copy(),
        graph.without_edges(graph.edges[:2]),
        graph.subgraph(graph.nodes[:-1]),
    ):
        before = tables(graph)
        caller = derived.nodes[-1]
        derived.add_edge(caller, "extra")
        derived.add_node(graph.entry, touched=True)
        for edge in derived.edges[:1]:
            derived.remove_edge(edge)
        assert tables(graph) == before
