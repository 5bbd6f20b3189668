"""The bisect walk of ``AnchoredEncoding.decode_piece``.

``reference_decode_piece`` is the in-edge scan the per-(node, anchor)
tables replaced, kept here as the oracle: at every node it tests each
incoming edge for territory membership and takes the largest addition
value not above the residual, the first edge in insertion order winning
ties. The walk must agree with it on every node, every anchor whose
territory covers the node and every residual from -1 to one past the
node's bound, in the path it returns and in the error it raises.
"""

import sys
import threading

import pytest

from repro.analysis.incremental import GraphDelta
from repro.bench.servebench import _walk_snapshot, build_workload
from repro.core.anchored import encode_anchored
from repro.core.decoder import ContextDecoder
from repro.core.widths import UNBOUNDED, Width
from repro.errors import DecodingError
from repro.graph.callgraph import CallGraph
from repro.runtime.plan import build_plan_from_graph
from repro.service.engine import DecodeEngine
from repro.workloads.paperfigures import (
    figure1_graph,
    figure4_graph,
    figure5_anchors,
    figure5_graph,
    figure6_static_graph,
    figure7_full_graph,
)
from repro.workloads.synthetic import random_callgraph


def reference_decode_piece(encoding, node, value, anchor, stop=None):
    """The in-edge scan ``decode_piece`` used before its tables."""
    start = stop if stop is not None else anchor
    path = []
    current = node
    residual = value
    while current != start:
        best = None
        best_av = -1
        for edge in encoding.graph.in_edges(current):
            if anchor not in encoding.territories.edge_anchors(edge):
                continue
            av = encoding.av[edge.site]
            if best_av < av <= residual:
                best = edge
                best_av = av
        if best is None:
            raise DecodingError(
                f"no incoming edge of {current!r} in territory of "
                f"{anchor!r} matches residual {residual}"
            )
        path.append(best)
        residual -= best_av
        current = best.caller
    if residual != 0:
        raise DecodingError(
            f"piece decoding reached {start!r} with residual {residual}"
        )
    path.reverse()
    return path


class ScanDecoder(ContextDecoder):
    """A :class:`ContextDecoder` whose pieces come from the scan, so it
    never touches the encoding's tables."""

    def _decode_piece(self, node, value, start):
        anchor = self._governing_anchor(start)
        return reference_decode_piece(
            self.encoding, node, value, anchor, stop=start
        )


def outcome(decode, *args):
    try:
        return "path", decode(*args)
    except DecodingError as exc:
        return "error", str(exc)


def assert_walk_matches_scan(encoding):
    """Sweep every (node, anchor, stop, residual); return the count."""
    checked = 0
    anchors = set(encoding.anchors)
    for node in encoding.graph.nodes:
        for anchor in encoding.territories.node_anchors(node):
            top = max(
                encoding.bound.get((node, anchor), 0),
                encoding.icc.get((node, anchor), 0),
            )
            # The anchor itself, and each non-anchor caller in its
            # territory: pieces that start at a recursion target or a
            # UCP detector stop there.
            stops = [None] + sorted({
                edge.caller
                for edge in encoding.graph.in_edges(node)
                if anchor in encoding.territories.edge_anchors(edge)
                and edge.caller not in anchors
            })
            for stop in stops:
                for value in range(-1, top + 2):
                    args = (node, value, anchor, stop)
                    assert outcome(encoding.decode_piece, *args) == \
                        outcome(reference_decode_piece, encoding, *args), args
                    checked += 1
    return checked


FIGURES = {
    "figure1": lambda: encode_anchored(figure1_graph()),
    "figure4": lambda: encode_anchored(figure4_graph()),
    "figure5": lambda: encode_anchored(
        figure5_graph(), initial_anchors=figure5_anchors()
    ),
    "figure6": lambda: encode_anchored(figure6_static_graph()),
    "figure7": lambda: encode_anchored(figure7_full_graph()),
}

WIDTHS = {
    "W8": Width(8),
    "W16": Width(16),
    "W64": Width(64),
    "UNBOUNDED": UNBOUNDED,
}

#: Seeded random graphs: layered DAGs with virtual sites, and one with
#: back edges (recursion removed before encoding).
RANDOM = [
    dict(seed=3, layers=10, width=4, extra_edges=60, virtual_sites=6),
    dict(seed=11, layers=12, width=3, extra_edges=50, virtual_sites=6,
         max_dispatch=4),
    dict(seed=29, layers=9, width=4, extra_edges=45, virtual_sites=4,
         back_edges=2),
]


class TestWalkAgainstScan:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_paper_figures(self, name):
        encoding = FIGURES[name]()
        assert assert_walk_matches_scan(encoding) > 0

    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("shape", range(len(RANDOM)))
    def test_random_graphs(self, shape, width):
        encoding = encode_anchored(
            random_callgraph(**RANDOM[shape]), width=WIDTHS[width]
        )
        assert assert_walk_matches_scan(encoding) > 0

    def test_narrow_widths_force_many_anchors(self):
        # The sweep above must see pieces under more than one anchor.
        for params in RANDOM:
            graph = random_callgraph(**params)
            narrow = encode_anchored(graph, width=Width(8))
            wide = encode_anchored(graph, width=UNBOUNDED)
            assert len(narrow.anchors) > len(wide.anchors) == 1

    def test_ties_keep_the_first_edge(self):
        # A sound encoding gives no two in-territory edges of a node the
        # same value (their sub-ranges are disjoint), but a corrupted one
        # can, as the verifier's collision tests show. On a tie the
        # first edge in insertion order wins, as in the scan.
        g = CallGraph("main")
        g.add_edge("main", "a", "s1")
        g.add_edge("main", "b", "s1")
        g.add_edge("a", "c", "s2")
        g.add_edge("b", "c", "s3")
        encoding = encode_anchored(g)
        encoding.av[encoding.graph.in_edges("c")[1].site] = \
            encoding.av[encoding.graph.in_edges("c")[0].site]
        assert assert_walk_matches_scan(encoding) > 0
        assert encoding.decode_piece("c", 0, "main")[-1].caller == "a"

    def test_tables_are_built_on_first_use(self):
        encoding = encode_anchored(figure4_graph())
        # A -> ... -> G along each node's last incoming edge.
        path, node = [], "G"
        while node != "A":
            path.insert(0, encoding.graph.in_edges(node)[-1])
            node = path[0].caller
        stack, value = encoding.encode_context(tuple(path))
        assert stack == () and encoding._in_tables == {}
        assert encoding.decode_piece("G", value, "A") == path
        assert set(encoding._in_tables) == {
            (edge.callee, "A") for edge in path
        }
        # Built once, then reused.
        tables = dict(encoding._in_tables)
        assert encoding.decode_piece("G", value, "A") == path
        for key, table in tables.items():
            assert encoding._in_tables[key] is table


def _sample_graph():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("main", "b", "s2")
    g.add_edge("a", "c", "s3")
    g.add_edge("b", "c", "s4")
    g.add_edge("c", "d", "s5")
    g.add_edge("c", "e", "s6")
    g.add_edge("d", "g", "s7")
    g.add_edge("e", "g", "s8")
    return g


class TestTablesAcrossEpochs:
    def test_each_epoch_decodes_with_its_own_tables(self):
        g = _sample_graph()
        plan = build_plan_from_graph(g)
        engine = DecodeEngine(plan, piece_cache=0, context_cache=0)
        old_path = [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
        node0, snap0 = _walk_snapshot(plan, old_path)
        # Epoch 0 fills its tables before the swap.
        assert engine.decode_path(node0, snap0, epoch=0)[0] == \
            ("main", "a", "c", "e")

        g2 = g.copy()
        victim = next(
            e for e in g.edges if e.caller == "a" and e.callee == "c"
        )
        added = g2.add_edge("e", "x", "load_x")
        update = plan.apply_delta(GraphDelta(
            added_nodes={"x": {}},
            added_edges=(added,),
            removed_edges=(victim,),
        ))
        assert engine.install_update(update) == 1
        new_path = [("main", "s2", "b"), ("b", "s4", "c"),
                    ("c", "s6", "e"), ("e", "load_x", "x")]
        node1, snap1 = _walk_snapshot(update.plan, new_path)

        old_tables = dict(plan.encoding._in_tables)
        for _ in range(2):
            assert engine.decode_path(node0, snap0, epoch=0)[0] == \
                ("main", "a", "c", "e")
            assert engine.decode_path(node1, snap1, epoch=1)[0] == \
                ("main", "b", "c", "e", "x")
        # The swap built a new encoding with tables of its own; decoding
        # under epoch 1 added nothing to epoch 0's.
        old, new = plan.encoding, update.plan.encoding
        assert old is not new
        assert old._in_tables is not new._in_tables
        assert old._in_tables == old_tables
        assert new._in_tables
        # The removed edge a->c still decodes under epoch 0 only.
        assert victim in old._in_tables[("c", "main")][1]
        assert victim not in new._in_tables[("c", "main")][1]
        # Each epoch's answers match the scan over its own encoding.
        for enc, (node, (stack, cid)) in ((old, (node0, snap0)),
                                          (new, (node1, snap1))):
            expected = ScanDecoder(enc).decode(node, stack, cid).nodes()
            assert ContextDecoder(enc).decode(node, stack, cid).nodes() \
                == expected


class TestTablesAcrossThreads:
    def test_eight_threads_share_one_fresh_encoding(self):
        # A 24-deep two-lane chain at 8 bits: many anchors, so every
        # context is a stack of pieces and the threads race to fill the
        # same (node, anchor) tables.
        _, plan, observations, _ = build_workload(
            depth=24, lanes=2, contexts=240, seed=5, width=Width(8)
        )
        encoding = plan.encoding
        assert len(encoding.anchors) > 2
        assert encoding._in_tables == {}
        scan = ScanDecoder(encoding)
        expected = [
            (node, scan.decode(node, stack, cid).nodes())
            for node, (stack, cid) in observations
        ]
        assert encoding._in_tables == {}

        threads = 8
        shares = [observations[i::threads] for i in range(threads)]
        answers = [None] * threads
        errors = []
        barrier = threading.Barrier(threads, timeout=60)

        def decode_share(index):
            try:
                decoder = ContextDecoder(encoding)
                barrier.wait()
                answers[index] = [
                    (node, decoder.decode(node, stack, cid).nodes())
                    for node, (stack, cid) in shares[index]
                ]
            except Exception as exc:  # reported after the join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=decode_share, args=(i,))
                for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors, errors
        for index in range(threads):
            assert answers[index] == expected[index::threads]

        # Whatever was built twice was built right: every published
        # table equals the one a single thread builds on a twin plan.
        _, twin, twin_obs, _ = build_workload(
            depth=24, lanes=2, contexts=240, seed=5, width=Width(8)
        )
        solo = ContextDecoder(twin.encoding)
        for node, (stack, cid) in twin_obs:
            solo.decode(node, stack, cid)
        assert encoding._in_tables == twin.encoding._in_tables
