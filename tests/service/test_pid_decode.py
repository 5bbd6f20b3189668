"""Decoding sample keys straight to context-trie pids.

``DecodeEngine.decode_batch`` walks a key up to the first cached prefix
state and interns the frames it passed. Every answer must equal the
flattened :class:`~repro.core.decoder.ContextDecoder` decode of the key
(the reference), whatever the cache already holds, and a bad key must
raise what the reference raises.
"""

import os
import random
import re
import sys
import threading
import time

import pytest

from repro.analysis.incremental import GraphDelta
from repro.core.decoder import ContextDecoder
from repro.core.stackmodel import EntryKind, StackEntry
from repro.errors import DecodingError, EpochError
from repro.graph.callgraph import CallGraph, CallSite
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.collector import ContextCollector
from repro.runtime.plan import build_plan, build_plan_from_graph
from repro.service.engine import DecodeEngine
from repro.workloads.specjvm import build_benchmark

#: (program, application_only, operations): the perfbench workloads'
#: programs and plans, at a few operations each.
RUNS = {
    "compress": (True, 10),
    "sunflow": (False, 6),
    "xml.transform": (True, 6),
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    """(plan, distinct keys) of one seeded run."""
    application_only, operations = RUNS[request.param]
    bench = build_benchmark(request.param)
    plan = build_plan(bench.program, application_only=application_only)
    seen = []
    collector = ContextCollector(
        interest=plan.instrumented_nodes, collect_events=False,
        sink=lambda node, snapshot, probe=None: seen.append((node, snapshot)),
    )
    probe = DeltaPathProbe(plan, cpt=True)
    bench.make_interpreter(probe=probe, seed=3, collector=collector).run(
        operations=operations
    )
    keys = list(dict.fromkeys(
        (0, node, stack, current) for node, (stack, current) in seen
    ))
    return plan, keys


def reference(plan, key):
    """The flattened reference decode: (path, has_gaps, leaf)."""
    _epoch, node, stack, current = key
    decoded = ContextDecoder(plan.encoding).decode(node, stack, current)
    path = tuple(decoded.nodes())
    return path, decoded.has_gaps, path[-1]


def reference_error(plan, key):
    """What the reference raises for ``key``, as the engine reports it."""
    _epoch, node, stack, current = key
    try:
        ContextDecoder(plan.encoding).decode(node, stack, current)
    except KeyError as exc:
        return DecodingError(
            f"snapshot at {node!r} does not decode under epoch "
            f"{key[0]}: node {exc} is unknown to that plan"
        )
    except DecodingError as exc:
        return exc
    return None


def answers(engine, keys):
    """decode_batch's answers as (path, has_gaps, leaf name)."""
    out = {}
    for key, decoded, exc in engine.decode_batch(keys):
        assert exc is None, (key, exc)
        pid, has_gaps, leaf = decoded
        out[key] = (engine.store.path(pid), has_gaps,
                    engine.store.name_of(leaf))
    return out


def pid_of(engine, key):
    [(_key, decoded, exc)] = engine.decode_batch([key])
    if exc is not None:
        raise exc
    return decoded[0]


class TestDifferential:
    """Every distinct key of seeded compress, sunflow and xml.transform
    runs decodes to the reference, for any cache size and key order."""

    @pytest.mark.parametrize("context_cache", [1 << 16, 0, 48])
    def test_every_key_matches_the_reference(self, run, context_cache):
        plan, keys = run
        expected = {key: reference(plan, key) for key in keys}
        engine = DecodeEngine(plan, context_cache=context_cache)
        order = keys[:]
        random.Random(context_cache).shuffle(order)
        for lo in range(0, len(order), 64):
            got = answers(engine, order[lo:lo + 64])
            for key, answer in got.items():
                assert answer == expected[key], key
        # A second pass answers from whatever the cache kept.
        assert answers(engine, keys) == expected

    def test_one_pid_per_path(self, run):
        plan, keys = run
        engine = DecodeEngine(plan)
        pids = {}
        for key, decoded, _exc in engine.decode_batch(keys):
            pids.setdefault(reference(plan, key)[0], set()).add(decoded[0])
        assert all(len(found) == 1 for found in pids.values())
        assert len(set().union(*pids.values())) == len(pids)

    def test_decode_path_shares_the_cache(self, run):
        plan, keys = run
        engine = DecodeEngine(plan)
        engine.decode_batch(keys)
        before = engine.cache_stats()["contexts"]
        for key in keys[:50]:
            path, has_gaps, epoch = engine.decode_path(
                key[1], (key[2], key[3]), epoch=0
            )
            assert (path, has_gaps) == reference(plan, key)[:2]
            assert epoch == 0
        after = engine.cache_stats()["contexts"]
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 50
        assert after["size"] == before["size"]

    def test_hits_and_misses_count_keys_not_states(self, run):
        plan, keys = run
        engine = DecodeEngine(plan)
        engine.decode_batch(keys)
        first = engine.cache_stats()["contexts"]
        # A key an earlier walk passed in the same batch is a hit.
        assert first["hits"] + first["misses"] == len(keys)
        assert first["size"] > first["misses"]  # the states passed, too
        engine.decode_batch(keys)
        second = engine.cache_stats()["contexts"]
        assert second["hits"] == first["hits"] + len(keys)
        assert second["misses"] == first["misses"]


# ----------------------------------------------------------------------
# One case per stack-entry rule
# ----------------------------------------------------------------------
def rule_graph():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("main", "b", "s2")
    g.add_edge("a", "c", "s3")
    g.add_edge("b", "c", "s4")
    g.add_edge("c", "d", "s5")
    g.add_edge("c", "e", "s6")
    g.add_edge("d", "c", "s7")  # recursion back edge
    g.add_edge("e", "g", "s8")
    g.add_edge("d", "g", "s9")
    return g


def walk(plan, path):
    """(node, stack, id) after calling along ``path`` from main."""
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution(plan.graph.entry)
    probe.enter_function(plan.graph.entry)
    node = plan.graph.entry
    for caller, label, callee in path:
        probe.before_call(caller, label, callee)
        probe.enter_function(callee)
        node = callee
    stack, current = probe.snapshot(node)
    return node, stack, current


PATH_ACE = [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]


class TestStackEntryRules:
    def check(self, plan, key):
        """Decode ``key`` on a cold engine and after its prefix states
        are cached; both must equal the reference."""
        cold = DecodeEngine(plan, context_cache=0)
        assert answers(cold, [key])[key] == reference(plan, key)
        return cold

    def test_anchor_keeps_the_pid_of_anchor_and_saved_id(self):
        plan = build_plan_from_graph(rule_graph(), initial_anchors=["c"])
        node, stack, current = walk(plan, PATH_ACE)
        anchor = stack[-1]
        assert (anchor.kind, anchor.node) == (EntryKind.ANCHOR, "c")
        key = (0, node, stack, current)
        self.check(plan, key)
        engine = DecodeEngine(plan)
        start = pid_of(engine, (0, "c", stack, 0))
        assert start == pid_of(engine, (0, "c", stack[:-1], anchor.saved_id))
        assert engine.store.path(start) == ("main", "a", "c")
        assert answers(engine, [key])[key] == reference(plan, key)

    def test_recursion_adds_its_callee_to_the_site_caller(self):
        plan = build_plan_from_graph(rule_graph())
        node, stack, current = walk(plan, [
            ("main", "s2", "b"), ("b", "s4", "c"), ("c", "s5", "d"),
            ("d", "s7", "c"), ("c", "s6", "e"),
        ])
        entry = stack[-1]
        assert entry.kind is EntryKind.RECURSION
        key = (0, node, stack, current)
        self.check(plan, key)
        engine = DecodeEngine(plan)
        outer = pid_of(engine, (0, entry.site.caller, stack[:-1],
                                entry.saved_id))
        start = pid_of(engine, (0, entry.node, stack, 0))
        assert engine.store.path(start) == \
            engine.store.path(outer) + (entry.node,)
        assert answers(engine, [key])[key] == \
            (("main", "b", "c", "d", "c", "e"), False, "e")

    def ucp(self, plan, resume, **fields):
        """A UCP entry at detector ``g`` whose outer piece ends at the
        end of ``resume`` (a path from main)."""
        node, stack, current = walk(plan, resume)
        return stack, StackEntry(
            kind=EntryKind.UCP, node="g", saved_id=current,
            site=CallSite("c", "s6"), resume_node=node, **fields,
        )

    def test_ucp_drops_the_expected_target_that_did_not_run(self):
        plan = build_plan_from_graph(rule_graph())
        below, entry = self.ucp(plan, PATH_ACE, resume_executed=False)
        key = (0, "g", below + (entry,), 0)
        self.check(plan, key)
        engine = DecodeEngine(plan)
        outer = pid_of(engine, (0, "e", below, entry.saved_id))
        assert engine.store.path(outer) == ("main", "a", "c", "e")
        assert answers(engine, [key])[key] == \
            (("main", "a", "c", "<?>", "g"), True, "g")
        # The gap leaves the states below it gap-free.
        assert engine.decode_batch([(0, "e", below, entry.saved_id)])[0][1][1] \
            is False

    def test_ucp_that_ran_keeps_its_resume_node(self):
        plan = build_plan_from_graph(rule_graph())
        below, entry = self.ucp(plan, PATH_ACE)
        key = (0, "g", below + (entry,), 0)
        self.check(plan, key)
        assert answers(DecodeEngine(plan), [key])[key] == \
            (("main", "a", "c", "e", "<?>", "g"), True, "g")

    def test_ucp_without_resume_node_continues_at_the_piece_below(self):
        plan = build_plan_from_graph(rule_graph(), initial_anchors=["c"])
        node, below, current = walk(plan, PATH_ACE[:2])
        assert node == "c" and below[-1].kind is EntryKind.ANCHOR
        entry = StackEntry(kind=EntryKind.UCP, node="g", saved_id=0,
                           resume_node=None)
        key = (0, "g", below + (entry,), 0)
        self.check(plan, key)
        engine = DecodeEngine(plan)
        assert answers(engine, [key])[key] == \
            (("main", "a", "c", "<?>", "g"), True, "g")
        # The outer state is the piece start below: ("c", below, 0).
        assert engine.cache_stats()["contexts"]["size"] >= 3
        assert answers(engine, [(0, "c", below, 0)])[(0, "c", below, 0)] \
            == (("main", "a", "c"), False, "c")
        # And with nothing below, the root piece is empty.
        root = (0, "g", (entry,), 0)
        self.check(plan, root)
        assert answers(engine, [root])[root] == (("main", "<?>", "g"), True, "g")


# ----------------------------------------------------------------------
# Bad keys
# ----------------------------------------------------------------------
class TestBadKeys:
    def bad_keys(self, plan):
        node, stack, current = walk(plan, PATH_ACE)
        _, anchored, _ = walk(plan, PATH_ACE[:2])
        ucp_none = StackEntry(kind=EntryKind.UCP, node="g", saved_id=5,
                              resume_node=None)
        return [
            (0, "nowhere", (), 0),                    # unknown node
            (0, node, stack, current + 10 ** 6),       # residual too big
            (0, "main", (), 3),                        # residual at start
            (0, "g", (ucp_none,), 0),                  # empty piece, value
            (0, "e", (StackEntry(kind=EntryKind.RECURSION, node="c",
                                 saved_id=0),), 0),    # no call site
            (0, "e", (StackEntry(kind=EntryKind.ANCHOR, node="nowhere",
                                 saved_id=0),), 0),    # start off-territory
            (0, "c", anchored, 7),                     # bad anchored piece
            (0, "c", (StackEntry(kind=EntryKind.ANCHOR, node="c",
                                 saved_id=10 ** 6),), 0),  # bad outer piece
        ]

    @pytest.mark.parametrize("context_cache", [1 << 16, 0])
    def test_same_error_as_the_reference(self, context_cache):
        plan = build_plan_from_graph(rule_graph(), initial_anchors=["c"])
        engine = DecodeEngine(plan, context_cache=context_cache)
        # Warm the cache with every good context first, so a bad key
        # cannot hide behind a cached prefix state.
        good = [(0,) + walk(plan, path) for path in (
            PATH_ACE, PATH_ACE[:2], PATH_ACE[:1],
            [("main", "s2", "b"), ("b", "s4", "c"), ("c", "s5", "d"),
             ("d", "s9", "g")],
        )]
        assert all(exc is None for _k, _d, exc in engine.decode_batch(good))
        keys = self.bad_keys(plan)
        for key, decoded, exc in engine.decode_batch(keys):
            expected = reference_error(plan, key)
            assert expected is not None, key
            assert decoded is None
            assert type(exc) is type(expected), (key, exc)
            assert str(exc) == str(expected), key
            with pytest.raises(DecodingError, match=re.escape(str(expected))):
                engine.decode_path(key[1], (key[2], key[3]), epoch=0)
        # Nothing bad was cached, and the good keys still answer.
        assert answers(engine, good) == {
            key: reference(plan, key) for key in good
        }

    def test_a_state_valid_only_under_an_empty_piece_is_not_cached(self):
        # A UCP entry without a resume node leaves the piece below it
        # empty, and the reference skips that piece's anchor check. The
        # piece start "zz" has no anchor territory, so the same state
        # decoded as a key of its own must still fail.
        plan = build_plan_from_graph(rule_graph())
        _node, below, saved = walk(plan, PATH_ACE[:2] + [("c", "s5", "d")])
        recursion = StackEntry(kind=EntryKind.RECURSION, node="zz",
                               saved_id=saved, site=CallSite("d", "s7"))
        gap = StackEntry(kind=EntryKind.UCP, node="g", saved_id=0,
                         resume_node=None)
        engine = DecodeEngine(plan)
        key = (0, "g", below + (recursion, gap), 0)
        assert answers(engine, [key])[key] == reference(plan, key) == (
            ("main", "a", "c", "d", "zz", "<?>", "g"), True, "g"
        )
        inner = (0, "zz", below + (recursion,), 0)
        [(_key, decoded, exc)] = engine.decode_batch([inner])
        assert decoded is None
        assert str(exc) == str(reference_error(plan, inner))

    def test_pruned_epoch_raises_epoch_error(self):
        g = rule_graph()
        plan = build_plan_from_graph(g)
        engine = DecodeEngine(plan, retain_epochs=1)
        key = (0,) + walk(plan, PATH_ACE)
        assert engine.decode_batch([key])[0][2] is None
        g2 = g.copy()
        update = plan.apply_delta(GraphDelta(
            added_nodes={"x": {}},
            added_edges=(g2.add_edge("e", "x", "load_x"),),
        ))
        engine.install_update(update)
        [(_key, decoded, exc)] = engine.decode_batch([key])
        assert decoded is None and isinstance(exc, EpochError)
        assert str(exc) == "epoch 0 is not retained (current epoch 1)"
        assert engine.cache_stats()["contexts"]["size"] == 0
        with pytest.raises(EpochError):
            engine.decode_path(key[1], (key[2], key[3]), epoch=0)
        # The renumbered epoch's old number stops decoding too.
        engine.advance_epoch_to(4)
        fresh = (1,) + walk(update.plan, PATH_ACE)
        assert isinstance(engine.decode_batch([fresh])[0][2], EpochError)

    def test_a_walk_that_races_a_prune_caches_nothing(self):
        g = rule_graph()
        plan = build_plan_from_graph(g)
        engine = DecodeEngine(plan, retain_epochs=1)
        g2 = g.copy()
        update = plan.apply_delta(GraphDelta(
            added_nodes={"x": {}},
            added_edges=(g2.add_edge("e", "x", "load_x"),),
        ))
        extend = engine.store.extend

        def extend_then_prune(pid, steps):
            out = extend(pid, steps)
            engine.install_update(update)  # prunes epoch 0 mid-walk
            return out

        engine.store.extend = extend_then_prune
        key = (0,) + walk(plan, PATH_ACE)
        [(_key, decoded, exc)] = engine.decode_batch([key])
        assert exc is None and decoded is not None
        assert engine.cache_stats()["contexts"]["size"] == 0


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrentDecode:
    def test_threads_agree_and_build_the_serial_trie(self, run):
        """More threads than cores decode the same keys into one fresh
        store per round (cached and uncached rounds alternating): every
        key gets one pid, its path is the serial run's, and the trie
        ends with the serial run's node count."""
        plan, keys = run
        serial = DecodeEngine(plan)
        expected = {
            key: serial.store.path(decoded[0])
            for key, decoded, _exc in serial.decode_batch(keys)
        }
        threads = len(os.sched_getaffinity(0)) + 3
        deadline = time.monotonic() + 2.0
        rounds = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            while rounds < 2 or time.monotonic() < deadline:
                engine = DecodeEngine(
                    plan, context_cache=0 if rounds % 2 else 1 << 16
                )
                start = threading.Barrier(threads)
                seen = [dict() for _ in range(threads)]
                errors = []

                def worker(index):
                    order = keys[:]
                    random.Random(rounds * threads + index).shuffle(order)
                    try:
                        start.wait(timeout=30)
                        for lo in range(0, len(order), 16):
                            for key, decoded, exc in engine.decode_batch(
                                order[lo:lo + 16]
                            ):
                                assert exc is None, exc
                                seen[index][key] = decoded[0]
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

                pool = [threading.Thread(target=worker, args=(i,))
                        for i in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in pool)
                assert not errors, errors[0]
                for found in seen[1:]:
                    assert found == seen[0]
                assert {
                    key: engine.store.path(pid) for key, pid in seen[0].items()
                } == expected
                assert engine.store.nodes == serial.store.nodes
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
