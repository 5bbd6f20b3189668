"""ContextStore: trie interning, block compression, and corruption."""

import random
import threading
import zlib

import pytest

from repro.errors import ServiceError, StoreCorruptionError
from repro.service.shards import ShardedContextTree
from repro.service.store import _PATHS_CHUNK, ContextStore


PATHS = [
    ("main",),
    ("main", "parse"),
    ("main", "parse", "lex"),
    ("main", "render"),
    ("main", "render", "draw"),
    ("main", "render", "draw", "blit"),
    (),
]


def fill(store, paths=PATHS):
    return {path: store.intern(path) for path in paths}


class TestRoundTrip:
    @pytest.mark.parametrize("compression", ["zlib", "none"])
    def test_intern_then_path_restores_tuples(self, compression):
        store = ContextStore(compression=compression, block_size=4)
        pids = fill(store)
        for path, pid in pids.items():
            assert store.path(pid) == path

    def test_intern_is_idempotent(self):
        store = ContextStore()
        first = fill(store)
        second = fill(store)
        assert first == second
        assert len(store) == len(PATHS)

    def test_compression_choice_does_not_change_pids(self):
        z = ContextStore(compression="zlib", block_size=4)
        n = ContextStore(compression="none", block_size=4)
        assert fill(z) == fill(n)

    def test_prefixes_share_nodes(self):
        store = ContextStore()
        fill(store)
        # 6 distinct frames across all paths: main, parse, lex, render,
        # draw, blit — prefix sharing means exactly one node per frame.
        assert store.nodes == 6

    def test_lookup_only_sees_interned_contexts(self):
        store = ContextStore()
        pids = fill(store)
        assert store.lookup(("main", "parse")) == pids[("main", "parse")]
        assert store.lookup(("main", "missing")) is None
        assert store.lookup(("ghost",)) is None

    def test_empty_path_is_a_valid_context(self):
        store = ContextStore()
        pid = store.intern(())
        assert store.path(pid) == ()
        assert store.leaf_name_id(pid) is None

    def test_unknown_pid_raises(self):
        store = ContextStore()
        fill(store)
        with pytest.raises(ServiceError, match="unknown context id"):
            store.path(10_000)

    def test_leaf_name_id_matches_last_frame(self):
        store = ContextStore()
        pids = fill(store)
        pid = pids[("main", "render", "draw")]
        assert store.name_of(store.leaf_name_id(pid)) == "draw"


class TestBlocksAndCache:
    def test_sealed_blocks_read_back_through_lru(self):
        store = ContextStore(compression="zlib", block_size=2, hot_blocks=1)
        pids = fill(store)
        stats = store.stats()
        assert stats["sealed_blocks"] >= 2
        # Alternate between contexts living in different sealed blocks so
        # the single-slot LRU keeps evicting and re-decompressing.
        before = store.unseals
        for _ in range(3):
            for path, pid in pids.items():
                assert store.path(pid) == path
        assert store.unseals > before

    def test_zlib_blocks_are_smaller_than_raw(self):
        deep = [tuple(f"fn{i}" for i in range(d)) for d in range(1, 200)]
        z = ContextStore(compression="zlib", block_size=64)
        n = ContextStore(compression="none", block_size=64)
        fill(z, deep)
        fill(n, deep)
        assert z.stats()["block_bytes"] < n.stats()["block_bytes"]

    def test_constructor_validates_arguments(self):
        with pytest.raises(ServiceError, match="compression"):
            ContextStore(compression="lzma")
        with pytest.raises(ServiceError, match="block size"):
            ContextStore(block_size=1)
        with pytest.raises(ServiceError, match="hot block"):
            ContextStore(hot_blocks=0)


class TestCorruption:
    def build(self, compression):
        # hot_blocks=1 with several sealed blocks guarantees the read
        # path actually unpacks the planted payload instead of serving
        # the still-hot write-side view.
        store = ContextStore(
            compression=compression, block_size=2, hot_blocks=1
        )
        pids = fill(store)
        store._hot.clear()
        return store, pids

    def read_all(self, store, pids):
        for path, pid in pids.items():
            store.path(pid)

    def test_bit_flip_in_compressed_block_is_detected(self):
        store, pids = self.build("zlib")
        block = store._sealed[0]
        blob = bytearray(block.payload)
        blob[len(blob) // 2] ^= 0xFF
        block.payload = bytes(blob)
        with pytest.raises(StoreCorruptionError):
            self.read_all(store, pids)
        assert store.corruptions == 1

    def test_bit_flip_in_raw_block_fails_crc(self):
        store, pids = self.build("none")
        block = store._sealed[0]
        blob = bytearray(block.payload)
        blob[0] ^= 0xFF
        block.payload = bytes(blob)
        with pytest.raises(StoreCorruptionError, match="CRC"):
            self.read_all(store, pids)
        assert store.corruptions == 1

    def test_valid_zlib_with_wrong_content_fails_crc(self):
        store, pids = self.build("zlib")
        block = store._sealed[0]
        raw = bytearray(zlib.decompress(block.payload))
        raw[0] ^= 0xFF
        block.payload = zlib.compress(bytes(raw), 6)
        with pytest.raises(StoreCorruptionError, match="CRC"):
            self.read_all(store, pids)

    def test_untouched_blocks_still_serve_after_corruption(self):
        store, pids = self.build("zlib")
        # Corrupt the LAST sealed block. Parents always precede their
        # children, so any context whose pid lands in an earlier block
        # never walks into the corrupted one.
        last = len(store._sealed) - 1
        store._sealed[last].payload = b"garbage"
        cutoff = last * store.block_size
        for path, pid in pids.items():
            if pid < cutoff:
                assert store.path(pid) == path
            else:
                with pytest.raises(StoreCorruptionError):
                    store.path(pid)
                store._hot.clear()


class TestSnapshotOrder:
    def test_snapshot_ids_covers_every_interned_context(self):
        store = ContextStore()
        pids = fill(store)
        assert set(store.snapshot_ids()) == set(pids.values())

    def test_order_is_content_dependent_not_insertion_dependent(self):
        """Same contexts, different intern order -> same path sequence.

        This is what makes segment/checkpoint writes byte-deterministic:
        iteration follows the decoded paths, not the intern history.
        """
        forward, backward = ContextStore(), ContextStore()
        fill(forward, PATHS)
        fill(backward, list(reversed(PATHS)))
        assert (
            [forward.path(pid) for pid in forward.snapshot_ids()]
            == [backward.path(pid) for pid in backward.snapshot_ids()]
            == sorted(PATHS)
        )

    def test_iter_paths_pairs_pid_with_path(self):
        store = ContextStore()
        pids = fill(store)
        for pid, path in store.iter_paths():
            assert pids[path] == pid
        assert [p for _pid, p in store.iter_paths()] == sorted(PATHS)


def random_store(seed, count=300):
    """A many-block store (4 nodes per block, 1 hot) holding ``count``
    seeded random paths; returns it with ``{pid: path}``."""
    rng = random.Random(seed)
    names = [f"fn{i}" for i in range(10)]
    store = ContextStore(compression="zlib", block_size=4, hot_blocks=1)
    interned = {}
    for _ in range(count):
        path = tuple(rng.choice(names) for _ in range(rng.randint(0, 9)))
        interned[store.intern(path)] = path
    return store, interned


class _CountingLock:
    def __init__(self):
        self._lock = threading.Lock()
        self.holds = 0

    def __enter__(self):
        self._lock.acquire()
        self.holds += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


class TestPathsBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_paths_return_exactly_the_interned_tuples(self, seed):
        store, interned = random_store(seed)
        assert store.stats()["sealed_blocks"] > 20
        pids = list(interned)
        random.Random(seed).shuffle(pids)
        assert store.paths(pids) == [interned[pid] for pid in pids]
        for pid in pids[:20]:
            assert store.path(pid) == interned[pid]

    def test_each_block_unsealed_at_most_once_per_call(self):
        store, interned = random_store(7)
        store._hot.clear()
        before = store.unseals
        store.paths(list(interned))
        assert store.unseals - before <= store.stats()["sealed_blocks"]

    def test_empty_path_and_duplicate_pids(self):
        store = ContextStore(block_size=4, hot_blocks=1)
        pids = fill(store)
        assert pids[()] == -1
        order = [-1, pids[("main", "parse")], -1, pids[("main", "parse")]]
        assert store.paths(order) == [
            (), ("main", "parse"), (), ("main", "parse"),
        ]
        assert store.paths([]) == []

    @pytest.mark.parametrize("bad", [10_000, -2])
    def test_unknown_pid_raises(self, bad):
        store = ContextStore()
        pids = fill(store)
        with pytest.raises(ServiceError, match="unknown context id"):
            store.paths([pids[("main",)], bad])

    def test_lock_is_held_per_chunk(self):
        store, interned = random_store(3, count=3 * _PATHS_CHUNK)
        pids = list(interned) * 3
        store._lock = lock = _CountingLock()
        assert store.paths(pids) == [interned[pid] for pid in pids]
        assert lock.holds == -(-len(pids) // _PATHS_CHUNK)

    def test_corrupt_sealed_block_raises_through_paths_and_rows(self):
        store = ContextStore(compression="zlib", block_size=4, hot_blocks=1)
        tree = ShardedContextTree(shards=2, store=store)
        rng = random.Random(11)
        names = [f"fn{i}" for i in range(6)]
        for _ in range(200):
            tree.add(tuple(rng.choice(names)
                           for _ in range(rng.randint(1, 8))))
        pids = store.snapshot_ids()
        store._sealed[0].payload = b"garbage"
        store._hot.clear()
        with pytest.raises(StoreCorruptionError):
            store.paths(pids)
        store._hot.clear()
        with pytest.raises(StoreCorruptionError):
            tree.rows()
