"""SegmentWriter: delta flushing, determinism, restore after recovery."""

import os
import shutil
import sys
import threading

import pytest

from repro.errors import CheckpointError
from repro.query.engine import QueryEngine
from repro.query.writer import SegmentWriter
from repro.resilience.checkpoint import CheckpointPointer, CheckpointState
from repro.service.shards import ShardedContextTree


def make_writer(tmp_path, tree=None, start=100.0):
    tree = tree if tree is not None else ShardedContextTree(2)
    clock = [start]
    writer = SegmentWriter(
        tree, str(tmp_path), fingerprint="fp", clock=lambda: clock[0]
    )
    return tree, writer, clock


class TestDeltaFlush:
    def test_first_flush_writes_everything(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        path = writer.flush()
        assert path is not None and os.path.exists(path)
        seg = QueryEngine(str(tmp_path)).refresh().segments()[0]
        assert seg.t_lo == 100.0 and seg.t_hi == 110.0
        assert seg.rows == ((("a", "b"), 5, 0, 0),)

    def test_empty_delta_writes_nothing(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a",), epoch=0)
        writer.flush()
        assert writer.flush() is None
        assert writer.empty_flushes == 1
        assert writer.flushes == 1

    def test_second_flush_is_delta_only(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        writer.flush()
        tree.add(("a", "b"), epoch=0, weight=2)
        tree.add(("c",), epoch=0, weight=1)
        clock[0] = 120.0
        writer.flush()
        segs = QueryEngine(str(tmp_path)).refresh().segments()
        assert segs[1].rows == ((("a", "b"), 2, 0, 0), (("c",), 1, 0, 0))
        # windows chain with no gap: [100,110) then [110,120)
        assert segs[0].t_hi == segs[1].t_lo == 110.0
        # summed over both segments the store equals the tree
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [(7, ("a", "b")), (1, ("c",))]

    def test_failed_flush_keeps_baseline(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a",), epoch=0, weight=3)
        clock[0] = 110.0

        def crash(records):
            raise OSError("chaos")

        try:
            writer.flush(fault=crash)
        except OSError:
            pass
        assert writer.flushes == 0
        # the retry covers the same delta — nothing lost
        path = writer.flush()
        assert path is not None
        seg = QueryEngine(str(tmp_path)).refresh().segments()[0]
        assert seg.rows == ((("a",), 3, 0, 0),)

    def test_empty_flush_never_rewinds_the_window(self, tmp_path):
        # The wall clock steps back between flushes. The empty flush at
        # 105 must not pull the window start below 110, or the next
        # segment would overlap the previous one and a window query
        # would credit a sample that arrived after 110 to [104, 106).
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a",), epoch=0, weight=1)
        clock[0] = 110.0
        writer.flush()
        clock[0] = 105.0
        assert writer.flush() is None
        assert writer.stats()["window_start"] == 110.0
        tree.add(("b",), epoch=0, weight=1)
        clock[0] = 120.0
        writer.flush()
        engine = QueryEngine(str(tmp_path)).refresh()
        assert [(s.t_lo, s.t_hi) for s in engine.segments()] == [
            (100.0, 110.0), (110.0, 120.0),
        ]
        assert engine.top_contexts(5, window=(104.0, 106.0)) == [(1, ("a",))]

    def test_gap_counts_flow_through(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), True, 4, epoch=0)
        clock[0] = 110.0
        writer.flush()
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.ucp_stats() == {
            "samples": 4, "gap_samples": 4, "gap_free_samples": 0,
        }


class TestDecodesOnlyChangedContexts:
    """A flush reads integer counts and writes the changed contexts
    straight from the context trie: it decodes no path, and never the
    whole tree through rows()."""

    def spy_on_decode(self, tree):
        calls = []
        real_paths = tree.store.paths

        def paths(pids):
            pids = list(pids)
            calls.append(pids)
            return real_paths(pids)

        def rows():
            pytest.fail("flush() decoded the whole tree through rows()")

        tree.store.paths = paths
        tree.rows = rows
        return calls

    def test_flush_decodes_exactly_the_touched_pids(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        paths = [("m", f"f{i % 13}", f"c{i}") for i in range(300)]
        for path in paths:
            tree.add(path, epoch=0, weight=2)
        clock[0] = 110.0
        writer.flush()
        touched = paths[7::50]
        for path in touched:
            tree.add(path, epoch=0, weight=1)
        calls = self.spy_on_decode(tree)
        clock[0] = 120.0
        writer.flush()
        assert calls == [], "a flush decoded a path"
        seg = QueryEngine(str(tmp_path)).refresh().segments()[-1]
        assert seg.rows == tuple(sorted((p, 1, 0, 0) for p in touched))

    def test_unchanged_tree_decodes_nothing(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        for i in range(50):
            tree.add(("m", f"c{i}"), epoch=0, weight=1)
        writer.flush()
        calls = self.spy_on_decode(tree)
        assert writer.flush() is None
        assert calls == []


class TestFlushReadsOnlyWrittenShards:
    """A flush reads the counts of the shards written since the last
    written flush: one that finds nothing new reads no count at all."""

    def spy_on_rows(self, tree):
        read = []
        real = tree.count_rows_since

        def count_rows_since(versions):
            now, rows = real(versions)
            read.append(len(rows))
            return now, rows

        tree.count_rows_since = count_rows_since
        return read

    def test_empty_flush_reads_no_counts(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path, ShardedContextTree(8))
        for i in range(200):
            tree.add(("m", f"c{i}"), epoch=i % 2, weight=1 + i % 3)
        writer.flush()
        read = self.spy_on_rows(tree)
        assert writer.flush() is None
        assert writer.flush() is None
        assert read == [0, 0]

    def test_flush_reads_only_the_written_shards(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path, ShardedContextTree(8))
        for i in range(200):
            tree.add(("m", f"c{i}"), epoch=0, weight=1)
        writer.flush()
        tree.add(("m", "c7"), epoch=0, weight=4)
        pid = tree.store.lookup(("m", "c7"))
        in_shard = sum(
            1 for key, _count, _gaps in tree.count_rows()
            if key[0] % 8 == pid % 8
        )
        read = self.spy_on_rows(tree)
        clock[0] = 110.0
        writer.flush()
        assert read == [in_shard] and in_shard < 200
        seg = QueryEngine(str(tmp_path)).refresh().segments()[-1]
        assert seg.rows == ((("m", "c7"), 4, 0, 0),)

    def test_a_write_landing_right_after_the_read_is_not_skipped(
        self, tmp_path
    ):
        # The versions a flush records must be the ones its counts were
        # read at: an add that lands the moment the flush lets go of
        # the shard lock goes out with the next flush.
        tree, writer, clock = make_writer(tmp_path, ShardedContextTree(1))
        tree.add(("a",), epoch=0, weight=1)
        shard = tree._shards[0]
        real = shard.lock
        pending = [lambda: tree.add(("b",), epoch=0, weight=2)]

        class WriteOnRelease:
            def __enter__(self):
                real.acquire()

            def __exit__(self, *exc_info):
                real.release()
                if pending:
                    pending.pop()()

        shard.lock = WriteOnRelease()
        clock[0] = 110.0
        writer.flush()
        shard.lock = real
        clock[0] = 120.0
        assert writer.flush() is not None
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [(2, ("b",)), (1, ("a",))]

    def test_concurrent_adds_are_never_skipped(self, tmp_path):
        # Ingest threads keep adding while flushes run: a flush that
        # recorded a shard version newer than the counts it read would
        # skip those adds forever. Everything added must reach a
        # segment by the last flush.
        tree, writer, clock = make_writer(tmp_path, ShardedContextTree(3))
        paths = [("m", f"f{i % 5}", f"c{i}") for i in range(40)]

        def ingest(seed):
            for i in range(3000):
                tree.add(paths[(seed * 7 + i) % 40], epoch=0, weight=1)

        threads = [
            threading.Thread(target=ingest, args=(seed,)) for seed in range(4)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                clock[0] += 1.0
                writer.flush()
        finally:
            sys.setswitchinterval(old)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        clock[0] += 1.0
        writer.flush()
        engine = QueryEngine(str(tmp_path)).refresh()
        assert sum(engine.function_totals(leaf_only=True).values()) == 12000
        assert engine.top_contexts(40) == tree.top_contexts(40)


class TestDeterminism:
    def test_byte_identical_across_append_orders(self, tmp_path):
        paths = [("m", f"f{i}", f"c{i}") for i in range(40)]
        blobs = []
        for direction in (1, -1):
            sub = tmp_path / f"d{direction}"
            tree, writer, clock = make_writer(sub)
            for p in paths[::direction]:
                tree.add(p, epoch=0, weight=2)
            clock[0] = 110.0
            flushed = writer.flush()
            blobs.append(open(flushed, "rb").read())
        assert blobs[0] == blobs[1]


def recovered_writer(tmp_path, beyond=()):
    """A restarted process: a fresh tree rebuilt from the directory by a
    fresh writer, with full checkpoints ``beyond`` found beside it."""
    recovered = ShardedContextTree(2)
    clock2 = [200.0]
    writer2 = SegmentWriter(
        recovered, str(tmp_path), fingerprint="fp", clock=lambda: clock2[0]
    )
    writer2.store.refresh()
    writer2.restore(beyond=[state.encode() for state in beyond])
    return recovered, writer2, clock2


def full_checkpoint(*rows):
    return CheckpointState(epoch=0, fingerprint="fp", rows=rows)


class TestRebase:
    def test_rebase_prevents_double_count(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        writer.flush()

        # "crash + recover": a fresh tree rebuilt from the segments,
        # and a fresh writer whose baseline is that tree.
        recovered, writer2, clock2 = recovered_writer(tmp_path)
        assert recovered.rows() == tree.rows()
        assert writer2.flush() is None  # recovered counts are not new
        recovered.add(("a", "b"), epoch=0, weight=1)
        clock2[0] = 210.0
        writer2.flush()
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [(6, ("a", "b"))]

    def test_stats(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a",), epoch=0)
        writer.flush()
        stats = writer.stats()
        assert stats["flushes"] == 1
        assert stats["segments"] == 1
        assert stats["baseline_rows"] == 1


class TestCrashWindows:
    """The worker-crash windows inside flush(): durable-but-raised
    appends are salvaged, and a full checkpoint found beside the store
    neither re-emits what the store holds nor drops what it missed."""

    def test_durable_but_raised_append_is_salvaged(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        real_append = writer.store.append

        def dying_append(encoded, fault=None):
            real_append(encoded, fault=fault)
            raise OSError("died after the segment landed")

        writer.store.append = dying_append
        try:
            path = writer.flush()
        finally:
            writer.store.append = real_append
        # The flush is salvaged, not retried: the landed path comes
        # back, the baseline advances, and no duplicate is ever written.
        assert path is not None and os.path.exists(path)
        assert writer.salvaged_flushes == 1
        assert writer.flushes == 1
        assert writer.flush() is None
        engine = QueryEngine(str(tmp_path)).refresh()
        assert len(engine.segments()) == 1
        assert engine.top_contexts(5) == [(5, ("a", "b"))]

    def test_reconciled_baseline_clamps_when_store_is_ahead(self, tmp_path):
        # Segments outlived the checkpoint: the store holds 5, the full
        # checkpoint only 3.  The store wins: nothing is re-emitted, and
        # the 2-sample deficit produces no negative row.
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        writer.flush()

        recovered, writer2, clock2 = recovered_writer(
            tmp_path, [full_checkpoint((("a", "b"), 3, 0, 0))]
        )
        assert recovered.rows() == [(("a", "b"), 5, 0, 0)]
        assert writer2.flush() is None
        # Only the genuinely new sample goes out.
        recovered.add(("a", "b"), epoch=0, weight=1)
        clock2[0] = 210.0
        assert writer2.flush() is not None
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [(6, ("a", "b"))]

    def test_reconcile_emits_checkpointed_counts_segments_missed(
        self, tmp_path
    ):
        # Checkpoint outlived the segments: it holds 5 but only 3 ever
        # reached a segment.  The next flush must emit the missing 2 —
        # recovery may not drop them.
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=3)
        clock[0] = 110.0
        writer.flush()

        recovered, writer2, clock2 = recovered_writer(
            tmp_path, [full_checkpoint((("a", "b"), 5, 2, 0))]
        )
        assert recovered.rows() == [(("a", "b"), 5, 2, 0)]
        clock2[0] = 210.0
        assert writer2.flush() is not None
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [(5, ("a", "b"))]
        assert engine.ucp_stats()["gap_samples"] == 2


class TestRebaseGenerationGuard:
    """A pointer into the store must not be honoured by a store that
    reaches less far: a compaction it records that the store lost."""

    def _compact(self, tmp_path):
        from repro.query.compact import Compactor
        from repro.query.manifest import SegmentStore
        store = SegmentStore(str(tmp_path))
        return Compactor(store).compact(now=1000.0, force=True)

    def _two_segments(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=3)
        writer.flush()
        clock[0] = 110.0
        tree.add(("a", "c"), epoch=0, weight=2)
        writer.flush()
        return tree

    def _pointer(self, tmp_path):
        from repro.query.manifest import SegmentStore
        return CheckpointPointer(
            epoch=0, fingerprint="fp", **SegmentStore(str(tmp_path)).position()
        )

    def test_stale_generation_is_rejected(self, tmp_path):
        store_dir = tmp_path / "seg"
        self._two_segments(store_dir)
        shutil.copytree(store_dir, tmp_path / "before")
        assert self._compact(store_dir)["to_generation"] == 1
        pointer = self._pointer(store_dir)
        assert pointer.generation == 1

        # The store, put back as it was before the compaction, holds the
        # same samples at an older generation and seq.
        shutil.rmtree(store_dir)
        shutil.copytree(tmp_path / "before", store_dir)
        recovered, writer2, clock2 = recovered_writer(store_dir)
        with pytest.raises(CheckpointError, match="generation 1"):
            pointer.check_covered("ckpt", writer2.store)

    def test_current_generation_is_accepted(self, tmp_path):
        tree = self._two_segments(tmp_path)
        report = self._compact(tmp_path)
        pointer = self._pointer(tmp_path)
        assert pointer.generation == report["to_generation"]
        recovered, writer2, clock2 = recovered_writer(tmp_path)
        pointer.check_covered("ckpt", writer2.store)
        assert recovered.rows() == tree.rows()
        assert writer2.flush() is None  # nothing new to emit
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [
            (3, ("a", "b")), (2, ("a", "c")),
        ]
