"""Compaction: equivalence, journal corruption matrix, crash sweep,
retention conservation, pin-deferred deletion."""

import os

import pytest

from repro.durable import record_line
from repro.errors import ChaosError, QueryError
from repro.query.compact import (
    JOURNAL_NAME,
    JOURNAL_VERSION,
    CompactionPolicy,
    Compactor,
    RetentionPolicy,
    journal_quarantine,
    load_journal,
    load_retired,
    retired_name,
    write_journal,
    write_retired,
)
from repro.query.engine import QueryEngine
from repro.query.locks import DirectoryLock, LockHeldError, SnapshotPin
from repro.query.manifest import SegmentStore, load_manifest_info
from repro.query.segment import SegmentState, segment_name


def fill(directory, n=4, rows_per=4):
    """A store with ``n`` delta segments over windows [10i, 10i+10)."""
    store = SegmentStore(str(directory))
    for i in range(n):
        rows = tuple(
            (("main", f"f{j % 3}", f"ctx{(i + j) % 5}"), i + j + 1,
             j % 2, i % 2)
            for j in range(rows_per)
        )
        store.append(SegmentState(
            t_lo=10.0 * i, t_hi=10.0 * i + 10.0,
            fingerprint=f"fp{i}", rows=rows,
        ))
    return store


def answers(store, span=40.0):
    """Every answer shape the merge must preserve byte-for-byte."""
    engine = QueryEngine(store).refresh()
    windows = [None] + [
        (10.0 * i, 10.0 * i + 10.0) for i in range(int(span / 10))
    ] + [(5.0, span - 5.0)]
    return {
        "topk": [engine.top_contexts(20, window=w) for w in windows],
        "epoch": [engine.top_contexts(20, epoch=e) for e in (0, 1)],
        "totals": engine.function_totals(),
        "leaves": engine.function_totals(leaf_only=True),
        "span": engine.span(),
    }


def total_samples(store):
    live = sum(
        sum(r[1] for r in seg.rows) for seg in store.refresh()
    )
    retired = sum(c for c, _ in store.retired_totals().values())
    return live + retired


def crash_after(limit):
    def hook(records):
        if records > limit:
            raise ChaosError(f"chaos: crash after {records} record(s)")
    return hook


class TestMergeEquivalence:
    def test_merge_preserves_every_answer_shape(self, tmp_path):
        store = fill(tmp_path, n=4)
        before = answers(store)
        report = Compactor(store).compact(now=100.0, force=True)
        assert report is not None
        assert report["from_generation"] == 0
        assert report["to_generation"] == 1
        assert report["spans"] == 4
        assert report["dropped_rows"] == 0
        assert len(store.refresh()) == 1
        assert store.generation == 1
        assert answers(store) == before

    def test_inputs_leave_counted_tombstones(self, tmp_path):
        store = fill(tmp_path, n=3)
        report = Compactor(store).compact(now=100.0, force=True)
        store.refresh()
        assert {t["seq"] for t in store.tombstones} == set(
            report["inputs"]
        )
        assert all(t["reason"] == "compacted" for t in store.tombstones)
        # the superseded files are actually gone (nothing pinned them)
        for seq in report["inputs"]:
            assert not os.path.exists(tmp_path / segment_name(seq))

    def test_not_due_below_min_inputs(self, tmp_path):
        store = fill(tmp_path, n=2)
        compactor = Compactor(store, CompactionPolicy(min_inputs=4))
        assert compactor.compact(now=100.0) is None
        assert compactor.skipped_not_due == 1
        assert store.generation == 0

    def test_force_overrides_due_policy(self, tmp_path):
        store = fill(tmp_path, n=2)
        compactor = Compactor(store, CompactionPolicy(min_inputs=4))
        assert compactor.compact(now=100.0, force=True) is not None
        assert len(store.refresh()) == 1

    def test_single_compacted_segment_is_a_noop(self, tmp_path):
        store = fill(tmp_path, n=4)
        compactor = Compactor(store)
        assert compactor.compact(now=100.0, force=True) is not None
        assert compactor.compact(now=100.0, force=True) is None
        assert store.generation == 1

    def test_appends_after_compaction_keep_fresh_seqs(self, tmp_path):
        store = fill(tmp_path, n=4)
        Compactor(store).compact(now=100.0, force=True)
        store.append(SegmentState(
            t_lo=40.0, t_hi=50.0, fingerprint="fp9",
            rows=((("main", "f0", "late"), 3, 0, 0),),
        ))
        live = store.refresh()
        assert len(live) == 2
        # never re-adopts a tombstoned sequence number
        dead = {t["seq"] for t in store.tombstones}
        assert not dead & {seg.seq for seg in live}

    def test_lock_contention_raises_lock_held(self, tmp_path):
        store = fill(tmp_path, n=4)
        compactor = Compactor(store)
        with DirectoryLock(str(tmp_path)):
            with pytest.raises(LockHeldError):
                compactor.compact(now=100.0, force=True)
        assert compactor.failures == 0  # contention is not a failure


class TestJournalMatrix:
    """Satellite: corruption matrix for the intent journal."""

    INTENT = {
        "from_generation": 0,
        "to_generation": 1,
        "inputs": [[1, 4, 10], [2, 4, 14]],
        "output_seq": 3,
        "retired": None,
        "drop_spans": 0,
        "drop_rows": 0,
        "drop_samples": 0,
    }

    def test_round_trip(self, tmp_path):
        write_journal(str(tmp_path), dict(self.INTENT))
        journal = load_journal(str(tmp_path))
        assert journal is not None
        assert journal["to_generation"] == 1
        assert journal["inputs"] == self.INTENT["inputs"]

    def journal_path(self, tmp_path):
        return os.path.join(str(tmp_path), JOURNAL_NAME)

    def test_torn_header_rejected(self, tmp_path):
        write_journal(str(tmp_path), dict(self.INTENT))
        path = self.journal_path(tmp_path)
        lines = open(path).readlines()
        open(path, "w").write(lines[0][: len(lines[0]) // 2] + "\n"
                              + lines[1])
        assert load_journal(str(tmp_path)) is None

    def test_truncated_to_one_line_rejected(self, tmp_path):
        write_journal(str(tmp_path), dict(self.INTENT))
        path = self.journal_path(tmp_path)
        header = open(path).readlines()[0]
        open(path, "w").write(header)
        assert load_journal(str(tmp_path)) is None

    def test_unknown_version_rejected(self, tmp_path):
        header = {"kind": "compact-intent",
                  "version": JOURNAL_VERSION + 1}
        header.update(self.INTENT)
        footer = record_line({"kind": "footer", "records": 2})
        open(self.journal_path(tmp_path), "w").write(
            record_line(header) + footer
        )
        assert load_journal(str(tmp_path)) is None

    @pytest.mark.parametrize("mutate", [
        {"to_generation": 3},                  # gap: to != from + 1
        {"from_generation": -1},               # negative generation
        {"from_generation": "0"},              # non-int generation
        {"inputs": [[1, 4]]},                  # malformed input triple
        {"inputs": [[1, 4, -1]]},              # negative sample count
        {"inputs": "nope"},                    # inputs not a list
        {"output_seq": "3"},                   # non-int output
        {"drop_rows": -1},                     # negative drop counter
        {"drop_samples": None},                # missing drop counter
    ])
    def test_malformed_fields_rejected(self, tmp_path, mutate):
        intent = dict(self.INTENT)
        intent.update(mutate)
        write_journal(str(tmp_path), intent)
        assert load_journal(str(tmp_path)) is None

    def test_quarantine_uncommitted_output(self, tmp_path):
        """Intent newer than the manifest: readers must skip the
        uncommitted output and keep serving the inputs."""
        store = fill(tmp_path, n=2)
        write_journal(str(tmp_path), dict(self.INTENT))
        info = load_manifest_info(str(tmp_path))
        assert journal_quarantine(
            str(tmp_path), info["generation"]
        ) == {3}

    def test_quarantine_stale_generation_is_empty(self, tmp_path):
        """Satellite matrix row: a journal at/behind the manifest
        generation is a committed swap's leftover — nothing to skip."""
        write_journal(str(tmp_path), dict(self.INTENT))
        assert journal_quarantine(str(tmp_path), 1) == set()
        assert journal_quarantine(str(tmp_path), 5) == set()

    def test_quarantine_without_manifest_prefers_inputs(self, tmp_path):
        """Fallback scan + no durable output: serve the inputs."""
        write_journal(str(tmp_path), dict(self.INTENT))
        assert journal_quarantine(str(tmp_path), None) == {3}

    def test_recover_unlinks_garbled_journal(self, tmp_path):
        store = fill(tmp_path, n=2)
        write_journal(str(tmp_path), dict(self.INTENT))
        path = self.journal_path(tmp_path)
        open(path, "a").write("garbage\n")
        compactor = Compactor(store)
        assert compactor.recover(now=100.0) == "rolled-back"
        assert not os.path.exists(path)
        assert compactor.rolled_back == 1

    def test_recover_without_journal_is_a_noop(self, tmp_path):
        store = fill(tmp_path, n=2)
        assert Compactor(store).recover(now=100.0) is None

    def test_recover_refuses_to_mutate_after_lock_usurped(self, tmp_path):
        """A recover whose directory lock was broken mid-flight must
        abandon the journal untouched instead of committing (or
        rolling back) over the usurper's in-flight swap."""
        store = fill(tmp_path, n=2)
        write_journal(str(tmp_path), dict(self.INTENT))
        lock = DirectoryLock(str(tmp_path)).acquire()
        os.unlink(lock.path)  # a contender broke the lease
        assert not lock.still_valid()
        with pytest.raises(LockHeldError):
            Compactor(store)._recover_locked(100.0, lock)
        assert os.path.exists(tmp_path / JOURNAL_NAME)
        lock.release()


class TestCrashMatrix:
    """Kill the swap after every durable record; recovery must land on
    exactly the old or the new generation."""

    def test_every_crash_point_is_all_or_nothing(self, tmp_path):
        store = fill(tmp_path, n=4)
        before = answers(store)
        total = total_samples(store)
        completed = False
        for point in range(64):
            crashed = False
            try:
                Compactor(store).compact(
                    now=100.0, fault=crash_after(point), force=True
                )
            except ChaosError:
                crashed = True
            recovering = Compactor(store)
            recovering.recover(now=100.0)
            store.refresh()
            # no retention => both generations answer identically
            assert answers(store) == before, f"point {point}"
            assert total_samples(store) == total, f"point {point}"
            assert not os.path.exists(tmp_path / JOURNAL_NAME)
            if not crashed:
                completed = True
                break
        assert completed, "crash sweep never completed a swap"
        assert len(store.refresh()) == 1

    def test_crash_before_output_rolls_back(self, tmp_path):
        store = fill(tmp_path, n=4)
        # record 1 = retired write skipped (no drops); journal header
        # lands, then the segment write dies on its first record.
        with pytest.raises(ChaosError):
            Compactor(store).compact(
                now=100.0, fault=crash_after(2), force=True
            )
        assert os.path.exists(tmp_path / JOURNAL_NAME)
        compactor = Compactor(store)
        assert compactor.recover(now=100.0) == "rolled-back"
        assert store.generation == 0
        assert len(store.refresh()) == 4

    def test_crash_after_commit_is_just_an_unfinished_sweep(
        self, tmp_path
    ):
        # Probe a clean identical swap for its total record count; the
        # last fault call is the post-commit point, so crashing there
        # kills the process after the manifest rename.
        probe_store = fill(tmp_path / "probe", n=4)
        last = {"n": 0}
        Compactor(probe_store).compact(
            now=100.0, force=True,
            fault=lambda n: last.__setitem__("n", max(last["n"], n)),
        )
        assert last["n"] > 3

        store = fill(tmp_path / "real", n=4)
        before = answers(store)
        with pytest.raises(ChaosError):
            Compactor(store).compact(
                now=100.0, fault=crash_after(last["n"] - 1), force=True
            )
        compactor = Compactor(store)
        assert compactor.recover(now=100.0) == "committed"
        store.refresh()
        assert store.generation == 1
        assert answers(store) == before
        assert not os.path.exists(tmp_path / "real" / JOURNAL_NAME)


class TestRetention:
    def test_policy_validation(self):
        with pytest.raises(QueryError):
            RetentionPolicy(max_segments=0)
        with pytest.raises(QueryError):
            RetentionPolicy(max_bytes=0)
        with pytest.raises(QueryError):
            RetentionPolicy(max_age_s=0.0)
        with pytest.raises(QueryError):
            RetentionPolicy(keep_spans=-1)
        with pytest.raises(QueryError):
            CompactionPolicy(min_inputs=1)

    def test_age_drop_conserves_samples(self, tmp_path):
        store = fill(tmp_path, n=4)
        total = total_samples(store)
        windowed_before = answers(store)["topk"][-2]  # window [30, 40)
        policy = CompactionPolicy(
            min_inputs=2,
            retention=RetentionPolicy(max_age_s=15.0),
        )
        # now=50: spans ending at <= 35 are dropped => first 3 of 4
        report = Compactor(store, policy).compact(now=50.0, force=True)
        assert report["dropped_spans"] == 3
        assert report["dropped_rows"] > 0
        store.refresh()
        assert store.retired_name == retired_name(1)
        assert total_samples(store) == total
        engine = QueryEngine(store).refresh()
        assert engine.top_contexts(20, window=(30.0, 40.0)) == \
            windowed_before

    def test_keep_spans_floor_survives_total_expiry(self, tmp_path):
        store = fill(tmp_path, n=3)
        policy = CompactionPolicy(
            min_inputs=2,
            retention=RetentionPolicy(max_age_s=1.0),  # everything old
        )
        Compactor(store, policy).compact(now=1000.0, force=True)
        live = store.refresh()
        assert len(live) == 1
        assert sum(len(s.rows) for s in live) > 0

    def test_max_segments_makes_compaction_due(self, tmp_path):
        store = fill(tmp_path, n=3)
        policy = CompactionPolicy(
            min_inputs=8,
            retention=RetentionPolicy(max_segments=2),
        )
        # not forced: the file-count cap alone makes it due
        assert Compactor(store, policy).compact(now=100.0) is not None
        assert len(store.refresh()) == 1

    def test_retired_files_are_pruned_to_two(self, tmp_path):
        store = fill(tmp_path, n=4)
        policy = CompactionPolicy(
            min_inputs=2, retention=RetentionPolicy(max_age_s=15.0)
        )
        Compactor(store, policy).compact(now=50.0, force=True)
        for i in range(4, 7):
            store.append(SegmentState(
                t_lo=10.0 * i, t_hi=10.0 * i + 10.0,
                fingerprint=f"fp{i}",
                rows=((("main", "f0", f"ctx{i}"), i, 0, 0),),
            ))
            Compactor(store, policy).compact(
                now=10.0 * i + 25.0, force=True
            )
        left = sorted(
            name for name in os.listdir(tmp_path)
            if name.startswith("retired-")
        )
        assert len(left) <= 2
        store.refresh()
        assert store.retired_name in left

    def test_no_drop_swaps_preserve_carried_retired_file(self, tmp_path):
        """Regression: the retired name is carried forward *unchanged*
        through no-drop swaps, so pruning by generation arithmetic
        (keep >= current-1) deleted the very file the live manifest
        still referenced — retired_totals() silently went empty and a
        recovered writer would re-emit retention-deleted history."""
        store = fill(tmp_path, n=4)
        total = total_samples(store)
        policy = CompactionPolicy(
            min_inputs=2, retention=RetentionPolicy(max_age_s=15.0)
        )
        report = Compactor(store, policy).compact(now=50.0, force=True)
        assert report["dropped_rows"] > 0  # retired-00000001 written
        store.refresh()
        totals = store.retired_totals()
        assert totals
        # two no-drop swaps carry retired-00000001 forward to gen 3
        for i, now in ((4, 51.0), (5, 52.0)):
            store.append(SegmentState(
                t_lo=10.0 * i, t_hi=10.0 * i + 10.0,
                fingerprint=f"fp{i}",
                rows=((("main", "f0", f"ctx{i}"), i, 0, 0),),
            ))
            report = Compactor(store).compact(now=now, force=True)
            assert report["dropped_rows"] == 0
        store.refresh()
        assert store.generation == 3
        assert store.retired_name == retired_name(1)
        assert os.path.exists(tmp_path / retired_name(1))
        assert store.retired_totals() == totals
        assert total_samples(store) == total + 4 + 5  # + the appends

    def test_rollback_preserves_carried_forward_retired(self, tmp_path):
        """Regression: a crashed no-drop swap's journal names the
        previous generation's retired sidecar (carried forward, not
        created by the swap); rolling the journal back must leave it
        alone — only artifacts of the dead swap may be deleted."""
        store = fill(tmp_path, n=4)
        policy = CompactionPolicy(
            min_inputs=2, retention=RetentionPolicy(max_age_s=15.0)
        )
        Compactor(store, policy).compact(now=50.0, force=True)
        store.refresh()
        totals = store.retired_totals()
        assert totals
        store.append(SegmentState(
            t_lo=40.0, t_hi=50.0, fingerprint="fp9",
            rows=((("main", "f0", "late"), 3, 0, 0),),
        ))
        # the journal commits (records 1-2), then the output dies
        with pytest.raises(ChaosError):
            Compactor(store).compact(
                now=51.0, force=True, fault=crash_after(2)
            )
        assert os.path.exists(tmp_path / JOURNAL_NAME)
        compactor = Compactor(store)
        assert compactor.recover(now=51.0) == "rolled-back"
        store.refresh()
        assert store.generation == 1
        assert store.retired_name == retired_name(1)
        assert os.path.exists(tmp_path / retired_name(1))
        assert store.retired_totals() == totals


class TestRetiredSidecar:
    TOTALS = {
        (("main", "f0", "ctx0"), 0): (7, 1),
        (("main", "f1"), 1): (3, 0),
    }

    def test_round_trip(self, tmp_path):
        path = write_retired(str(tmp_path), 2, dict(self.TOTALS))
        assert os.path.basename(path) == retired_name(2)
        assert load_retired(path) == self.TOTALS

    def test_torn_file_rejected(self, tmp_path):
        path = write_retired(str(tmp_path), 2, dict(self.TOTALS))
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-4])
        assert load_retired(path) is None

    def test_crash_during_write_leaves_no_file(self, tmp_path):
        with pytest.raises(ChaosError):
            write_retired(
                str(tmp_path), 2, dict(self.TOTALS),
                fault=crash_after(1),
            )
        assert not os.path.exists(tmp_path / retired_name(2))


class TestCrossProcessAppend:
    def test_append_adopts_foreign_generation_swap(self, tmp_path):
        """Regression: an appender whose cached manifest predates a
        swap committed by another process (the ``--compact`` CLI run
        against a live service's directory) must adopt that swap
        before rewriting the manifest — not publish its stale
        generation, resurrect tombstoned inputs and revert the swap."""
        appender = fill(tmp_path, n=4)
        other = SegmentStore(str(tmp_path))  # a second process
        report = Compactor(other).compact(now=100.0, force=True)
        assert report["to_generation"] == 1
        appender.append(SegmentState(
            t_lo=40.0, t_hi=50.0, fingerprint="fp9",
            rows=((("main", "f0", "late"), 3, 0, 0),),
        ))
        info = load_manifest_info(str(tmp_path))
        assert info is not None
        assert info["generation"] == 1
        assert appender.generation == 1
        entry_seqs = {e["seq"] for e in info["entries"]}
        tombstoned = {t["seq"] for t in info["tombstones"]}
        assert tombstoned == set(report["inputs"])
        assert not entry_seqs & tombstoned
        assert report["output_seq"] in entry_seqs
        # both the merged output and the new append are served
        live = SegmentStore(str(tmp_path)).refresh()
        assert {seg.seq for seg in live} == entry_seqs


class TestPinnedReaders:
    def test_live_pin_defers_input_deletion(self, tmp_path):
        store = fill(tmp_path, n=4)
        pin = SnapshotPin(str(tmp_path)).acquire()
        pin.renew(generation=store.generation)
        report = Compactor(store).compact(now=100.0, force=True)
        assert report["deleted"] == 0
        assert report["deferred"] == len(report["inputs"])
        for seq in report["inputs"]:
            assert os.path.exists(tmp_path / segment_name(seq))
        pin.release()

    def test_deferred_deletes_retried_after_release(self, tmp_path):
        store = fill(tmp_path, n=4)
        pin = SnapshotPin(str(tmp_path)).acquire()
        pin.renew(generation=store.generation)
        report = Compactor(store).compact(now=100.0, force=True)
        pin.release()
        # the next mutator pass sweeps the tombstoned leftovers
        compactor = Compactor(store)
        compactor.compact(now=101.0)  # not due, but the sweep runs
        assert compactor.deleted_files == len(report["inputs"])
        for seq in report["inputs"]:
            assert not os.path.exists(tmp_path / segment_name(seq))

    def test_pin_at_current_generation_does_not_block(self, tmp_path):
        store = fill(tmp_path, n=4)
        pin = SnapshotPin(str(tmp_path)).acquire()
        # reader already refreshed onto the post-swap generation
        pin.renew(generation=store.generation + 1)
        report = Compactor(store).compact(now=100.0, force=True)
        assert report["deferred"] == 0
        assert report["deleted"] == len(report["inputs"])
        pin.release()
