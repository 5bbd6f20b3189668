"""Manifest + SegmentStore: cache-not-truth, forward compat, orphans."""

import json
import os
import zlib

from repro import obs
from repro.query.compact import CompactionPolicy, Compactor, write_journal
from repro.query.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SegmentStore,
    load_manifest,
    load_manifest_info,
    write_manifest,
)
from repro.query.segment import SegmentState, segment_name, write_segment


def state(t_lo=0.0, t_hi=10.0, n=3, epoch=0):
    rows = tuple(
        (("main", f"ctx{i}"), i + 1, 0, epoch) for i in range(n)
    )
    return SegmentState(t_lo=t_lo, t_hi=t_hi, fingerprint="fp", rows=rows)


def _line(payload):
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x} {body}\n"


class TestManifestFile:
    def test_round_trip(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        store.append(state(10, 20))
        entries = load_manifest(str(tmp_path))
        assert entries is not None
        assert [e["seq"] for e in entries] == [1, 2]
        assert entries[0]["t_lo"] == 0.0
        assert entries[1]["t_hi"] == 20.0

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_manifest(str(tmp_path)) is None

    def test_torn_manifest_is_none(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state())
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - 5])
        assert load_manifest(str(tmp_path)) is None

    def test_newer_version_falls_back(self, tmp_path):
        """The v(N+1) forward-compat stub: unknown manifest versions are
        not an error — readers degrade to the directory scan."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        lines = open(path).readlines()
        header = json.loads(lines[0].split(" ", 1)[1])
        header["version"] = MANIFEST_VERSION + 1
        lines[0] = _line(header)
        open(path, "w").writelines(lines)
        assert load_manifest(str(tmp_path)) is None
        fresh = SegmentStore(str(tmp_path))
        segs = fresh.refresh()
        assert [s.seq for s in segs] == [1]
        assert fresh.manifest_fallbacks == 1
        assert fresh.rejected == 0

    def test_write_manifest_is_atomic_replace(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state())
        write_manifest(str(tmp_path), store.segments())
        names = os.listdir(str(tmp_path))
        assert MANIFEST_NAME in names
        assert not any(n.startswith(".tmp-manifest") for n in names)


class TestSegmentStore:
    def test_append_assigns_increasing_seqs(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        p1 = store.append(state(0, 10))
        p2 = store.append(state(10, 20))
        assert os.path.basename(p1) == segment_name(1)
        assert os.path.basename(p2) == segment_name(2)

    def test_seq_never_reuses_invalid_files(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        # A corrupt file squats on seq 5; the next append must go to 6.
        with open(os.path.join(str(tmp_path), segment_name(5)), "wb") as fh:
            fh.write(b"junk")
        path = store.append(state(10, 20))
        assert os.path.basename(path) == segment_name(6)

    def test_orphan_segment_adopted_from_scan(self, tmp_path):
        """A crash between segment rename and manifest rewrite leaves an
        orphan; refresh() must serve it anyway."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        write_segment(str(tmp_path), 9, state(90, 100))  # not in manifest
        fresh = SegmentStore(str(tmp_path))
        assert [s.seq for s in fresh.refresh()] == [1, 9]

    def test_corrupt_segment_skipped_and_counted(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        with open(os.path.join(str(tmp_path), segment_name(2)), "wb") as fh:
            fh.write(b"\x00garbage")
        fresh = SegmentStore(str(tmp_path))
        assert [s.seq for s in fresh.refresh()] == [1]
        assert fresh.rejected == 1

    def test_stale_manifest_entry_not_served(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        store.append(state(10, 20))
        os.unlink(os.path.join(str(tmp_path), segment_name(2)))
        fresh = SegmentStore(str(tmp_path))
        assert [s.seq for s in fresh.refresh()] == [1]

    def test_stats(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(n=4))
        stats = store.stats()
        assert stats["segments"] == 1
        assert stats["rows"] == 4
        assert stats["samples"] == 1 + 2 + 3 + 4


class TestGenerationAndTombstones:
    def test_fresh_store_is_generation_zero(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        info = load_manifest_info(str(tmp_path))
        assert info["generation"] == 0
        assert info["tombstones"] == []
        assert info["retired"] is None

    def test_commit_generation_round_trips(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        store.append(state(10, 20))
        tombs = [
            {"seq": 1, "rows": 3, "samples": 6, "reason": "compacted",
             "generation": 1},
        ]
        survivors = store.commit_generation(1, [], {1}, tombs, None)
        assert [s.seq for s in survivors] == [2]
        info = load_manifest_info(str(tmp_path))
        assert info["generation"] == 1
        assert [t["seq"] for t in info["tombstones"]] == [1]
        assert store.generation == 1

        # a fresh store (another process) sees the same swap
        other = SegmentStore(str(tmp_path))
        assert [s.seq for s in other.refresh()] == [2]
        assert other.generation == 1

    def test_appends_preserve_generation_and_tombstones(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        store.append(state(10, 20))
        tombs = [{"seq": 1, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}]
        store.commit_generation(1, [], {1}, tombs, None)
        store.append(state(20, 30))
        info = load_manifest_info(str(tmp_path))
        assert info["generation"] == 1
        assert [t["seq"] for t in info["tombstones"]] == [1]

    def test_next_seq_skips_tombstoned_numbers(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        store.append(state(10, 20))
        tombs = [{"seq": s, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}
                 for s in (1, 2)]
        store.commit_generation(1, [], {1, 2}, tombs, None)
        assert store.next_seq() > 2

    def test_tombstoned_file_on_disk_is_not_readopted(self, tmp_path):
        """A deferred deletion (the file still exists) must stay
        invisible: the tombstone wins over the directory entry."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        store.append(state(10, 20))
        tombs = [{"seq": 1, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}]
        store.commit_generation(1, [], set(), tombs, None)
        assert os.path.exists(tmp_path / segment_name(1))
        other = SegmentStore(str(tmp_path))
        assert [s.seq for s in other.refresh()] == [2]

    def test_negative_generation_falls_back(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        lines = open(path).readlines()
        header = json.loads(lines[0].split(" ", 1)[1])
        header["generation"] = -1
        lines[0] = _line(header)
        open(path, "w").writelines(lines)
        assert load_manifest_info(str(tmp_path)) is None

    def test_tombstone_count_mismatch_falls_back(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        lines = open(path).readlines()
        header = json.loads(lines[0].split(" ", 1)[1])
        header["tombstones"] = 3
        lines[0] = _line(header)
        open(path, "w").writelines(lines)
        assert load_manifest_info(str(tmp_path)) is None


def parses():
    return obs.counter("query.segment_parses").value


def reuses():
    return obs.counter("query.segment_reuses").value


class TestValidationMemo:
    """Validation is memoized by the digest of the bytes validated.

    Every case drives one ``SegmentStore`` instance across refreshes,
    the way a long-lived query engine does.
    """

    def test_refresh_reuses_what_append_validated(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        before = parses()
        for i in range(3):
            store.append(state(10 * i, 10 * i + 10))
        assert parses() == before + 3  # one read-back per append
        hits = reuses()
        assert [s.seq for s in store.refresh()] == [1, 2, 3]
        assert parses() == before + 3
        assert reuses() == hits + 3
        assert sorted(store._validated) == [1, 2, 3]

    def test_same_length_rewrite_with_restored_mtime_is_rejected(
        self, tmp_path
    ):
        """Size and mtime are unchanged, only the bytes differ: a cache
        keyed on file metadata would keep serving the old segment."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        path = store.append(state(10, 20))
        assert [s.seq for s in store.refresh()] == [1, 2]
        meta = os.stat(path)
        data = bytearray(open(path, "rb").read())
        # Change the first CRC digit of the footer line: same length,
        # and the line no longer checks.
        footer = data.rstrip(b"\n").rfind(b"\n") + 1
        data[footer] = ord("1") if data[footer] != ord("1") else ord("2")
        with open(path, "r+b") as fh:
            fh.write(data)
        os.utime(path, ns=(meta.st_atime_ns, meta.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (
            meta.st_size, meta.st_mtime_ns
        )
        rejected, before = store.rejected, parses()
        assert [s.seq for s in store.refresh()] == [1]
        assert store.rejected == rejected + 1
        assert parses() == before + 1  # only the changed file re-parsed
        assert sorted(store._validated) == [1]

    def test_byte_identical_replacement_is_not_reparsed(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        path = store.append(state(0, 10))
        served = store.refresh()[0]
        data = open(path, "rb").read()
        os.unlink(path)
        with open(path, "wb") as fh:  # a new file holding the same bytes
            fh.write(data)
        before, hits = parses(), reuses()
        again = store.refresh()
        assert [s.seq for s in again] == [1]
        assert again[0] is served
        assert parses() == before
        assert reuses() == hits + 1

    def test_memoized_seq_tombstoned_elsewhere_is_not_served(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10))
        store.append(state(10, 20))
        assert [s.seq for s in store.refresh()] == [1, 2]
        # Another process tombstones seq 1; its file stays on disk.
        tombs = [{"seq": 1, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}]
        SegmentStore(str(tmp_path)).commit_generation(
            1, [], set(), tombs, None
        )
        assert os.path.exists(tmp_path / segment_name(1))
        assert [s.seq for s in store.refresh()] == [2]
        assert sorted(store._validated) == [2]

    def test_memoized_seq_quarantined_by_journal_is_not_served(
        self, tmp_path
    ):
        store = SegmentStore(str(tmp_path))
        for i in range(3):
            store.append(state(10 * i, 10 * i + 10))
        assert [s.seq for s in store.refresh()] == [1, 2, 3]
        # A pending swap names seq 3 as its uncommitted output.
        write_journal(str(tmp_path), {
            "from_generation": 0,
            "to_generation": 1,
            "inputs": [[1, 3, 6], [2, 3, 6]],
            "output_seq": 3,
            "retired": None,
            "drop_spans": 0,
            "drop_rows": 0,
            "drop_samples": 0,
        })
        quarantined = store.quarantined
        assert [s.seq for s in store.refresh()] == [1, 2]
        assert store.quarantined == quarantined + 1
        assert sorted(store._validated) == [1, 2]

    def test_memo_holds_only_served_seqs_after_a_swap(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for i in range(4):
            store.append(state(10 * i, 10 * i + 10))
        store.refresh()
        before = parses()
        report = Compactor(store, CompactionPolicy(min_inputs=2)).compact(
            force=True
        )
        assert report is not None
        # The inputs came from the memo; only the output was validated.
        assert parses() == before + 1
        served = [s.seq for s in store.segments()]
        assert served == [report["output_seq"]]
        assert sorted(store._validated) == served
        assert [s.seq for s in store.refresh()] == served
        assert sorted(store._validated) == served
        assert parses() == before + 1
