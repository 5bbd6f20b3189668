"""Grown territories against territories recomputed from scratch.

Algorithm 2 no longer recomputes every anchor's territory after an
overflow: :class:`~repro.core.territories.TerritoryGrowth` updates the
membership for the new anchors only. Before every pass, the territories
the pass reads must hold exactly the members
:func:`identify_territories` computes for the same anchors, node lists
in anchor order included; the encoding's final territories must equal
a recompute with dict and list order. Checked on the resume corpus of
``test_anchored_resume.py`` and on every SPECjvm program at the width
sweep's widths; the corpus also grows several anchors at once (the
already-anchored fallback).
"""

import zlib

import pytest

from repro import obs
from repro.analysis.callgraph_builder import build_callgraph
from repro.core import anchored
from repro.core.anchored import encode_anchored
from repro.core.territories import identify_territories
from repro.core.widths import Width
from repro.errors import EncodingOverflowError
from repro.workloads.specjvm import benchmark_names, build_benchmark
from repro.workloads.synthetic import random_callgraph


class Checked:
    """Runs ``encode_anchored`` with every pass's territories held to a
    recompute, counting passes and multi-anchor growths."""

    def __init__(self, monkeypatch):
        self.passes = 0
        self.multi_growths = 0
        encode_pass = anchored._encode_pass
        grow_anchors = anchored._grow_anchors

        def checked_pass(acyclic, order, territories, *rest):
            self.passes += 1
            assert_membership(acyclic, territories)
            return encode_pass(acyclic, order, territories, *rest)

        def counted_grow(acyclic, anchors, edge, width):
            known = len(anchors)
            grow_anchors(acyclic, anchors, edge, width)
            self.multi_growths += len(anchors) - known > 1

        monkeypatch.setattr(anchored, "_encode_pass", checked_pass)
        monkeypatch.setattr(anchored, "_grow_anchors", counted_grow)

    def encode(self, graph, **options):
        try:
            encoding = encode_anchored(graph, **options)
        except EncodingOverflowError:
            return None
        fresh = identify_territories(encoding.graph, encoding.anchors)
        got = encoding.territories
        assert got.anchors == encoding.anchors == fresh.anchors
        assert list(got.nanchors.items()) == list(fresh.nanchors.items())
        assert list(got.eanchors.items()) == list(fresh.eanchors.items())
        assert list(encoding.bound) == [
            (node, anchor)
            for node, reaching in fresh.nanchors.items()
            for anchor in reaching
        ]
        return encoding


def assert_membership(acyclic, territories):
    fresh = identify_territories(acyclic, territories.anchors)
    assert territories.anchor_set == set(fresh.anchors)
    # Dict equality ignores key order; list equality does not.
    assert territories.nanchors == fresh.nanchors
    for edge in acyclic.edges:
        got = territories.out_anchors.get(edge.caller, [])
        assert got == fresh.eanchors.get(edge, [])


def _corpus_graph(seed):
    return random_callgraph(
        seed,
        layers=6,
        width=5,
        extra_edges=12,
        virtual_sites=4,
        max_dispatch=3,
        back_edges=seed % 3,
    )


def _priority(edge):
    return zlib.crc32(str(edge).encode()) % 5


@pytest.mark.parametrize("bits", [3, 4, 5])
def test_resume_corpus(bits, monkeypatch):
    checked = Checked(monkeypatch)
    restarted = 0
    for seed in range(120):
        graph = _corpus_graph(seed)
        nodes = [n for n in graph.nodes if n != graph.entry]
        for options in (
            {},
            {"edge_priority": _priority},
            {"initial_anchors": nodes[seed % len(nodes)::4]},
        ):
            encoding = checked.encode(graph, width=Width(bits), **options)
            restarted += encoding is not None and encoding.restarts > 0
    assert restarted >= 60
    assert checked.passes > 360
    assert checked.multi_growths > 0


def test_specjvm_width_sweep(monkeypatch):
    checked = Checked(monkeypatch)
    restarts = 0
    for name in benchmark_names():
        graph = build_callgraph(build_benchmark(name).program)
        for bits in (16, 24, 32, 48, 64):
            encoding = checked.encode(graph, width=Width(bits))
            assert encoding is not None, (name, bits)
            restarts += encoding.restarts
    assert checked.passes == restarts + 5 * len(benchmark_names())
    assert restarts > 500


def test_growth_visits_stay_near_the_final_pairs():
    """Territory work on sunflow's encoding-all plan: a grown restart
    visits only its new anchors' bounded DFSs."""
    graph = build_callgraph(build_benchmark("sunflow").program)
    visits = obs.counter("encode.territory_visits")
    before = visits.value
    encoding = encode_anchored(graph, width=Width(64))
    spent = visits.value - before
    pairs = len(encoding.bound)
    assert encoding.restarts >= 10
    assert spent <= 4 * pairs, (spent, pairs)
