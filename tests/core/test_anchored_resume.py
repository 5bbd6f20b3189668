"""Algorithm 2's resumed restarts against restarts from scratch.

``reference_encode_anchored`` is the restart loop the resumable pass
replaced, kept here only as an oracle: after each overflow it grows the
anchor set and re-runs the whole pass from the first node in
topological order. The library resumes at the earliest new anchor's
position instead. Nothing before that position can change, so both
must agree table for table: anchors in order, addition values, ICC,
CAV bounds (with their key order), territories and restart counts, and
on graphs no anchor set can encode, the same error.
"""

import zlib

import pytest

from repro.core import anchored
from repro.core.anchored import (
    AnchoredEncoding,
    _grow_anchors,
    _Overflow,
    encode_anchored,
)
from repro.core.territories import identify_territories
from repro.core.widths import W8, Width
from repro.errors import EncodingOverflowError
from repro.graph.callgraph import CallGraph
from repro.graph.scc import remove_recursion
from repro.graph.topo import topological_order
from repro.workloads.synthetic import random_callgraph


def _reference_pass(acyclic, removed, width, anchors, restarts, edge_priority):
    """One full pass of Algorithm 2's main loop for a fixed anchor set."""
    territories = identify_territories(acyclic, anchors)
    anchor_set = set(anchors)
    cav = {}
    for node, reaching in territories.nanchors.items():
        for anchor in reaching:
            cav[(node, anchor)] = 0
    icc = {}
    av = {}
    processed = set()

    def calculate_increment(site):
        edges = acyclic.site_targets(site)
        a = 0
        for edge in edges:
            for anchor in territories.edge_anchors(edge):
                candidate = cav.get((edge.callee, anchor), 0)
                if candidate > a:
                    a = candidate
        for edge in edges:
            for anchor in territories.edge_anchors(edge):
                value = icc[(edge.caller, anchor)] + a
                if not width.fits(value):
                    raise _Overflow(edge)
                cav[(edge.callee, anchor)] = value
        return a

    for node in topological_order(acyclic):
        incoming = acyclic.in_edges(node)
        if edge_priority is not None:
            incoming = sorted(incoming, key=edge_priority, reverse=True)
        for edge in incoming:
            site = edge.site
            if site in processed:
                continue
            processed.add(site)
            if not territories.edge_anchors(edge):
                av[site] = 0
                continue
            av[site] = calculate_increment(site)
        if node in anchor_set:
            icc[(node, node)] = 1
        else:
            for anchor in territories.node_anchors(node):
                icc[(node, anchor)] = cav[(node, anchor)]

    return AnchoredEncoding(
        graph=acyclic,
        back_edges=removed,
        width=width,
        anchors=list(anchors),
        territories=territories,
        icc=icc,
        bound=dict(cav),
        av=av,
        restarts=restarts,
    )


def reference_encode_anchored(
    graph, *, width, initial_anchors=(), edge_priority=None
):
    """Algorithm 2 restarting from scratch after every overflow."""
    acyclic, removed = remove_recursion(graph)
    anchors = [acyclic.entry]
    for extra in initial_anchors:
        if extra not in anchors:
            anchors.append(extra)
    max_restarts = len(acyclic.nodes) + 1
    restarts = 0
    while True:
        try:
            return _reference_pass(
                acyclic, removed, width, anchors, restarts, edge_priority
            )
        except _Overflow as overflow:
            restarts += 1
            if restarts > max_restarts:
                raise EncodingOverflowError(
                    f"gave up after {restarts - 1} restarts (width {width})"
                )
            _grow_anchors(acyclic, anchors, overflow.edge, width)


def _priority(edge):
    return zlib.crc32(str(edge).encode()) % 5


def _outcome(encode, graph, **options):
    """Every table of the encoding, or the overflow error's text."""
    try:
        enc = encode(graph, **options)
    except EncodingOverflowError as exc:
        return ("overflow", str(exc))
    return (
        enc.anchors,
        enc.restarts,
        list(enc.av.items()),
        list(enc.icc.items()),
        list(enc.bound.items()),
        enc.territories.nanchors,
        enc.territories.eanchors,
        enc.back_edges,
    )


def _graph(seed):
    return random_callgraph(
        seed,
        layers=6,
        width=5,
        extra_edges=12,
        virtual_sites=4,
        max_dispatch=3,
        back_edges=seed % 3,
    )


SEEDS = range(120)


@pytest.mark.parametrize("bits", [3, 4, 5])
@pytest.mark.parametrize("prioritized", [False, True])
@pytest.mark.parametrize("seeded", [False, True])
def test_resumed_restarts_equal_restarts_from_scratch(bits, prioritized, seeded):
    restarted = overflowed = 0
    for seed in SEEDS:
        graph = _graph(seed)
        options = {"width": Width(bits)}
        if prioritized:
            options["edge_priority"] = _priority
        if seeded:
            nodes = [n for n in graph.nodes if n != graph.entry]
            options["initial_anchors"] = nodes[seed % len(nodes)::4]
        want = _outcome(reference_encode_anchored, graph, **options)
        got = _outcome(encode_anchored, graph, **options)
        assert got == want, seed
        if want[0] == "overflow":
            overflowed += 1
        elif want[1]:
            restarted += 1
    # The corpus must exercise the resume, not only first passes, and
    # at the narrowest width also graphs no anchor set can encode.
    assert restarted >= len(SEEDS) // 5
    assert overflowed or bits > 3


def test_unencodable_graph_raises_the_same_error():
    graph = CallGraph(entry="main")
    for i in range(8):
        graph.add_edge("main", "sink", f"s{i}")
    with pytest.raises(EncodingOverflowError) as want:
        reference_encode_anchored(graph, width=Width(2))
    with pytest.raises(EncodingOverflowError) as got:
        encode_anchored(graph, width=Width(2))
    assert str(got.value) == str(want.value)


def _blowup_graph(layers, lanes=2):
    graph = CallGraph(entry="main")
    previous = "main"
    for layer in range(layers):
        junction = f"j{layer}"
        for lane in range(lanes):
            mid = f"m{layer}_{lane}"
            graph.add_edge(previous, mid, f"s{layer}_{lane}")
            graph.add_edge(mid, junction, f"t{layer}_{lane}")
        previous = junction
    return graph


def test_a_restart_resumes_at_the_new_anchor(monkeypatch):
    """After each overflow, the next pass reads first the in-edges of
    the anchor just added, not those of the entry. Only the passes'
    reads count: growing the territories between passes reads the
    in-edges of the new anchors' bounded DFSs too."""
    graph = _blowup_graph(16)
    order = topological_order(graph)
    reads = []
    in_edges = CallGraph.in_edges
    encode_pass = anchored._encode_pass
    in_pass = []

    def spy_pass(*args):
        in_pass.append(True)
        try:
            return encode_pass(*args)
        finally:
            in_pass.pop()

    def spy_in_edges(self, name):
        if in_pass:
            reads.append(name)
        return in_edges(self, name)

    def spy_grow(acyclic, anchors, edge, width):
        known = len(anchors)
        _grow_anchors(acyclic, anchors, edge, width)
        reads.append(("grown", tuple(anchors[known:])))

    monkeypatch.setattr(CallGraph, "in_edges", spy_in_edges)
    monkeypatch.setattr(anchored, "_encode_pass", spy_pass)
    monkeypatch.setattr(anchored, "_grow_anchors", spy_grow)
    encoding = encode_anchored(graph, width=W8)

    growths = [i for i, read in enumerate(reads) if isinstance(read, tuple)]
    assert len(growths) == encoding.restarts >= 2
    for index in growths:
        grown = reads[index][1]
        first = min(grown, key=order.index)
        assert reads[index + 1] == first
        assert order.index(first) > 0
    # The first pass reads every node once; each resume reads only the
    # tail from its anchor on.
    passes = len(growths) + 1
    assert len(reads) - len(growths) < passes * len(order)
