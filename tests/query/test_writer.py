"""SegmentWriter: delta flushing, determinism, rebase after recovery."""

import os

import pytest

from repro.query.engine import QueryEngine
from repro.query.writer import SegmentWriter
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
    """A flush reads integer counts and decodes only the contexts whose
    counts moved; it never decodes the whole tree through rows()."""

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
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(
            tree.store.lookup(path) for path in touched
        )
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


class TestRebase:
    def test_rebase_prevents_double_count(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        writer.flush()

        # "crash + recover": a fresh tree restored from a checkpoint of
        # the same rows, and a fresh writer rebased onto it.
        recovered = ShardedContextTree(2)
        recovered.restore_rows(tree.rows())
        clock2 = [200.0]
        writer2 = SegmentWriter(
            recovered, str(tmp_path), fingerprint="fp",
            clock=lambda: clock2[0],
        )
        writer2.rebase(recovered.rows())
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
    appends are salvaged, and a reconciled baseline clamps instead of
    re-emitting or going negative."""

    def test_durable_but_raised_append_is_salvaged(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        real_append = writer.store.append

        def dying_append(state, fault=None):
            real_append(state, fault=fault)
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
        # Segments outlived the checkpoint: the store holds 5, the
        # recovered tree only 3.  Nothing may be re-emitted, and the
        # 2-sample deficit must not produce a negative row.
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=5)
        clock[0] = 110.0
        writer.flush()

        recovered = ShardedContextTree(2)
        recovered.add(("a", "b"), epoch=0, weight=3)
        clock2 = [200.0]
        writer2 = SegmentWriter(
            recovered, str(tmp_path), fingerprint="fp",
            clock=lambda: clock2[0],
        )
        writer2.rebase(recovered.rows(), reconcile_store=True)
        assert writer2.flush() is None  # clamped: store already ahead
        # The tree catches back up past the durable count: only the
        # genuinely new sample goes out.
        recovered.add(("a", "b"), epoch=0, weight=3)
        clock2[0] = 210.0
        assert writer2.flush() is not None
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [(6, ("a", "b"))]

    def test_reconcile_emits_checkpointed_counts_segments_missed(
        self, tmp_path
    ):
        # Checkpoint outlived the segments: the tree recovered 5 but
        # only 3 ever reached a segment.  The next flush must emit the
        # missing 2 — recovery may not drop them.
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=3)
        clock[0] = 110.0
        writer.flush()

        recovered = ShardedContextTree(2)
        recovered.add(("a", "b"), epoch=0, weight=5)
        clock2 = [200.0]
        writer2 = SegmentWriter(
            recovered, str(tmp_path), fingerprint="fp",
            clock=lambda: clock2[0],
        )
        writer2.rebase(recovered.rows(), reconcile_store=True)
        clock2[0] = 210.0
        assert writer2.flush() is not None
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [(5, ("a", "b"))]

    def test_plain_rebase_falls_back_to_rows(self, tmp_path):
        # reconcile_store=True with an unreadable store falls back to
        # the passed rows instead of dying mid-recovery.
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a",), epoch=0, weight=2)
        writer._store_cumulative = lambda: None
        writer.rebase(tree.rows(), reconcile_store=True)
        assert writer.flush() is None  # rows adopted as the baseline


class TestRebaseGenerationGuard:
    """Satellite regression: rows captured before a compaction must
    not be adopted as a baseline after one."""

    def _compact(self, tmp_path):
        from repro.query.compact import Compactor
        from repro.query.manifest import SegmentStore
        store = SegmentStore(str(tmp_path))
        return Compactor(store).compact(now=1000.0, force=True)

    def test_stale_generation_is_rejected(self, tmp_path):
        import pytest

        from repro.errors import QueryError

        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=3)
        writer.flush()
        clock[0] = 110.0
        tree.add(("a", "c"), epoch=0, weight=2)
        writer.flush()
        captured = tree.rows()  # snapshotted at generation 0

        assert self._compact(tmp_path)["to_generation"] == 1
        with pytest.raises(QueryError, match="compacted to generation"):
            writer.rebase(captured, expected_generation=0)

    def test_current_generation_is_accepted(self, tmp_path):
        tree, writer, clock = make_writer(tmp_path)
        tree.add(("a", "b"), epoch=0, weight=3)
        writer.flush()
        clock[0] = 110.0
        tree.add(("a", "c"), epoch=0, weight=2)
        writer.flush()

        report = self._compact(tmp_path)
        # rows re-captured against the compacted store are fine
        writer.rebase(
            tree.rows(),
            reconcile_store=True,
            expected_generation=report["to_generation"],
        )
        clock[0] = 120.0
        assert writer.flush() is None  # nothing new to emit
        engine = QueryEngine(str(tmp_path)).refresh()
        assert engine.top_contexts(5) == [
            (3, ("a", "b")), (2, ("a", "c")),
        ]
