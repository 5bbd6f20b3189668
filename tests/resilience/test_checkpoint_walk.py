"""Checkpoints straight from the context trie, and back into it.

``ContextStore.encode_counted`` must yield exactly what the reference
encoder (``delta_encode_rows`` over ``tree.rows()``) yields, so the
files stay byte-identical; ``ShardedContextTree.restore_trie`` must
rebuild exactly what ``restore_rows`` builds from the decoded rows.
"""

import random
import sys
import threading
import time

import pytest

from repro import durable
from repro.durable import delta_encode_rows
from repro.resilience import checkpoint as checkpoint_module
from repro.resilience.checkpoint import (
    CheckpointState,
    CheckpointStore,
    EncodedCheckpoint,
    plan_fingerprint,
)
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, ServiceConfig
from repro.service.shards import ShardedContextTree
from repro.service.store import ContextStore
from repro.workloads.paperfigures import figure5_graph

#: Intern order is shuffled per tree, so string order and intern order
#: disagree ("Zeta" < "alpha" < "b", "x10" < "x2").
NAMES = ["main", "Zeta", "alpha", "B", "b", "_init", "x1", "x10", "x2", "é"]


def seeded_tree(seed, compression="zlib", zero_counts=True):
    """A many-block tree of seeded random contexts: the empty context,
    several epochs per context, gap rows, zero-count keys (unless
    ``zero_counts`` is False) and interned contexts never counted."""
    rng = random.Random(seed)
    store = ContextStore(
        compression=compression,
        block_size=rng.choice([2, 4, 16]),
        hot_blocks=1,
    )
    tree = ShardedContextTree(shards=rng.randint(1, 5), store=store)
    names = rng.sample(NAMES, len(NAMES))
    weights = [0, 1, 2, 5] if zero_counts else [1, 2, 5]
    for _ in range(rng.randint(20, 150)):
        path = tuple(rng.choice(names) for _ in range(rng.randint(0, 7)))
        tree.add(
            path,
            has_gaps=rng.random() < 0.3,
            weight=rng.choice(weights),
            epoch=rng.randint(0, 3),
        )
    for _ in range(rng.randint(1, 10)):
        store.intern(
            tuple(rng.choice(names) for _ in range(rng.randint(1, 6)))
        )
    return tree


def reference(tree):
    """``delta_encode_rows(tree.rows())`` in ``encode_counted``'s shape."""
    rows = tree.rows()
    names, nodes, pids = delta_encode_rows(rows)
    return names, nodes, [
        (pid, count, gaps, epoch)
        for pid, (_path, count, gaps, epoch) in zip(pids, rows)
    ]


def walk(tree):
    return tree.store.encode_counted(tree.count_rows())


def reference_of(store, counted):
    """The reference encoding of one ``count_rows`` snapshot: decode,
    sort by ``(path, epoch)`` (what ``tree.rows()`` does) and encode."""
    paths = store.paths([key[0] for key, _count, _gaps in counted])
    rows = sorted(
        (
            (path, count, gaps, key[1])
            for path, (key, count, gaps) in zip(paths, counted)
        ),
        key=lambda row: (row[0], row[3]),
    )
    names, nodes, pids = delta_encode_rows(rows)
    return names, nodes, [
        (pid, count, gaps, epoch)
        for pid, (_path, count, gaps, epoch) in zip(pids, rows)
    ]


class TestWalkEqualsReferenceEncoder:
    @pytest.mark.parametrize("seed", range(24))
    def test_sections_and_rows(self, seed):
        tree = seeded_tree(seed, "zlib" if seed % 2 else "none")
        assert tree.store.stats()["sealed_blocks"] > 2
        assert walk(tree) == reference(tree)

    @pytest.mark.parametrize("seed", range(24))
    def test_written_files_are_byte_identical(self, tmp_path, seed):
        tree = seeded_tree(seed, "none" if seed % 2 else "zlib")
        names, nodes, rows = walk(tree)
        by_walk = CheckpointStore(str(tmp_path / "walk"), rows_per_record=7)
        by_rows = CheckpointStore(str(tmp_path / "rows"), rows_per_record=7)
        walked = by_walk.write_encoded(EncodedCheckpoint(
            epoch=3, fingerprint="fp", names=names, nodes=nodes, rows=rows,
        ))
        encoded = by_rows.write(CheckpointState(
            epoch=3, fingerprint="fp", rows=tuple(tree.rows()),
        ))
        with open(walked, "rb") as a, open(encoded, "rb") as b:
            assert a.read() == b.read()
        assert by_walk.load_file(walked).rows == tuple(tree.rows())

    def test_empty_tree(self):
        tree = ShardedContextTree(shards=2)
        assert walk(tree) == ([], [], []) == reference(tree)
        tree.store.intern(("main", "never", "counted"))
        assert walk(tree) == ([], [], [])

    def test_empty_context_rows_come_first(self):
        tree = ShardedContextTree(shards=3, store=ContextStore(block_size=2))
        tree.add(("main", "b"), weight=2, epoch=1)
        tree.add((), weight=4, epoch=2)
        tree.add((), has_gaps=True, weight=1, epoch=0)
        tree.add(("main",), weight=3, epoch=0)
        names, nodes, rows = walk(tree)
        assert (names, nodes) == (["main", "b"], [-1, 0, 0, 1])
        assert rows == [
            (-1, 1, 1, 0), (-1, 4, 0, 2), (0, 3, 0, 0), (1, 2, 0, 1),
        ]
        assert (names, nodes, rows) == reference(tree)

    def test_children_follow_string_order_not_intern_order(self):
        tree = ShardedContextTree(shards=1, store=ContextStore(block_size=2))
        for leaf in ("alpha", "x2", "Zeta", "x10"):
            tree.add(("main", "mid", leaf))
        names, nodes, rows = walk(tree)
        assert names == ["main", "mid", "Zeta", "alpha", "x10", "x2"]
        # main and mid are interior and uncounted, yet still written.
        assert nodes[:4] == [-1, 0, 0, 1]
        assert [row[0] for row in rows] == [2, 3, 4, 5]
        assert (names, nodes, rows) == reference(tree)

    def test_zero_count_keys_are_kept(self):
        tree = ShardedContextTree(shards=2)
        tree.add(("main", "idle"), weight=0)
        tree.add(("main",), weight=2)
        assert walk(tree)[2] == [(0, 2, 0, 0), (1, 0, 0, 0)]
        assert walk(tree) == reference(tree)

    @pytest.mark.parametrize("compression", ["zlib", "none"])
    def test_pids_interned_after_count_rows_are_left_out(self, compression):
        tree = seeded_tree(5, compression)
        expected = reference(tree)
        counted = tree.count_rows()
        rng = random.Random(5)
        for _ in range(60):  # new nodes under counted ancestors too
            tree.add(tuple(rng.choice(NAMES) for _ in range(rng.randint(1, 8))))
        assert tree.store.encode_counted(counted) == expected

    def test_lock_is_held_per_block(self):
        class CountingLock:
            holds = 0

            def __enter__(self):
                CountingLock.holds += 1

            def __exit__(self, *exc):
                pass

        tree = seeded_tree(9)
        expected = reference(tree)
        store = tree.store
        blocks = -(-store.nodes // store.block_size)
        counted = tree.count_rows()
        store._lock = CountingLock()
        assert store.encode_counted(counted) == expected
        # one hold to size the trie, one per block, one for the names
        assert CountingLock.holds == blocks + 2


def test_walk_beside_live_interning():
    """The walk holds the store lock per block, so ingest interns and
    counts beside it (as beside the checkpoint daemon): each walk must
    still encode exactly the snapshot it was handed."""
    tree = ShardedContextTree(shards=4, store=ContextStore(block_size=8))
    stop = threading.Event()

    def ingest(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            tree.add(
                tuple(rng.choice(NAMES) for _ in range(rng.randint(0, 9))),
                epoch=rng.randint(0, 2),
            )

    threads = [
        threading.Thread(target=ingest, args=(seed,)) for seed in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    walks = 0
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline or walks < 3:
            counted = tree.count_rows()
            assert tree.store.encode_counted(counted) == reference_of(
                tree.store, counted
            )
            walks += 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert tree.store.nodes > 8 * 4  # the walks crossed sealed blocks


def restored_view(tree):
    """Everything a recovery must reproduce, read off ``tree``."""
    return {
        "rows": tree.rows(),
        "top": tree.top_contexts(15),
        "inclusive": tree.function_totals(),
        "leaf": tree.function_totals(leaf_only=True),
        "gaps": tree.gap_total(),
        "samples": tree.total_samples,
        "shards": tree.shard_stats().sizes,
        "contexts": tree.store.snapshot_ids(),
        "nodes": tree.store.nodes,
        "names": tree.store.stats()["names"],
    }


def by_rows(states, shards=3):
    tree = ShardedContextTree(shards=shards)
    restored = sum(tree.restore_rows(state.rows) for state in states)
    return tree, restored


def by_trie(states, shards=3):
    tree = ShardedContextTree(shards=shards)
    restored = 0
    for state in states:
        encoded = state.encode()
        restored += tree.restore_trie(
            encoded.names, encoded.nodes, encoded.rows
        )
    return tree, restored


class TestRestoreTrieEqualsRestoreRows:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_checkpoint(self, seed):
        state = CheckpointState(
            epoch=0, fingerprint="fp", rows=tuple(seeded_tree(seed).rows())
        )
        (want, n_want), (got, n_got) = by_rows([state]), by_trie([state])
        assert n_got == n_want
        assert restored_view(got) == restored_view(want)

    @pytest.mark.parametrize("seed", range(0, 20, 2))
    def test_checkpoints_sharing_prefixes_merge(self, seed):
        states = [
            CheckpointState(
                epoch=0, fingerprint="fp", rows=tuple(seeded_tree(s).rows())
            )
            for s in (seed, seed + 1)
        ]
        (want, n_want), (got, n_got) = by_rows(states), by_trie(states)
        assert n_got == n_want
        assert restored_view(got) == restored_view(want)

    def test_interior_nodes_are_not_retained(self):
        state = CheckpointState(
            epoch=0, fingerprint="fp",
            rows=((("main", "a", "b"), 2, 0, 0), (("main", "z"), 0, 0, 0)),
        )
        tree, restored = by_trie([state])
        assert restored == 2
        assert tree.store.snapshot_ids() == [tree.store.lookup(("main", "a", "b"))]
        assert tree.store.lookup(("main",)) is None
        assert tree.store.lookup(("main", "z")) is None


@pytest.fixture
def plan():
    return build_plan_from_graph(figure5_graph())


def service_with(plan, tree_seed, **config):
    service = ContextService(plan, ServiceConfig(shards=4, **config))
    source = seeded_tree(tree_seed, zero_counts=False)
    service.tree.restore_rows(source.rows())
    return service


class TestRecovery:
    def test_v2_recovery_builds_no_path(self, tmp_path, plan, monkeypatch):
        source = service_with(plan, 3)
        source.checkpoint(str(tmp_path))
        fresh = ContextService(plan, ServiceConfig(shards=3))

        def built_a_path(*args, **kwargs):
            raise AssertionError("recovery built a context path")

        for target, name in (
            (durable, "trie_paths"),
            (checkpoint_module, "trie_paths"),
            (EncodedCheckpoint, "decode"),
            (ContextStore, "paths"),
            (ContextStore, "intern"),
        ):
            monkeypatch.setattr(target, name, built_a_path)
        summary = fresh.recover(str(tmp_path))
        monkeypatch.undo()
        want = ShardedContextTree(shards=3)
        n_want = want.restore_rows(source.tree.rows())
        assert summary["samples"] == n_want
        assert summary["rows"] == len(source.tree.count_rows())
        assert restored_view(fresh.tree) == restored_view(want)

    def test_two_worker_fleet_recovery(self, tmp_path, plan):
        fingerprint = plan_fingerprint(plan)
        states = []
        for slot, seed in enumerate((4, 7)):
            state = CheckpointState(
                epoch=slot + 1,
                fingerprint=fingerprint,
                rows=tuple(seeded_tree(seed).rows()),
            )
            directory = tmp_path / f"worker-{slot}" / "checkpoints"
            CheckpointStore(str(directory)).write(state)
            states.append(state)
        fresh = ContextService(plan, ServiceConfig(shards=3))
        summary = fresh.recover(str(tmp_path))
        want, n_want = by_rows(states)
        assert summary["workers"] == 2
        assert summary["epoch"] == 2
        assert summary["samples"] == n_want
        assert fresh.accounting()["recovered"] == n_want
        assert restored_view(fresh.tree) == restored_view(want)

    def test_reconciling_recovery_never_decodes_the_tree(
        self, tmp_path, plan, monkeypatch
    ):
        seg, ckpt = str(tmp_path / "seg"), str(tmp_path / "ckpt")
        source = service_with(plan, 6, segment_dir=seg)
        source.flush_segments()
        source.checkpoint(ckpt)
        fresh = ContextService(plan, ServiceConfig(shards=4, segment_dir=seg))

        def decoded(*args, **kwargs):
            raise AssertionError("recovery decoded the whole tree")

        monkeypatch.setattr(fresh.tree, "rows", decoded)
        fresh.recover(ckpt)
        monkeypatch.undo()
        assert fresh._segments._baseline == {
            key: (count, gaps) for key, count, gaps in fresh.tree.count_rows()
        }
        assert fresh.flush_segments() is None  # nothing re-emitted
