"""Manifest + SegmentStore: cache-not-truth, forward compat, orphans."""

import gc
import hashlib
import json
import os
import sys
import threading
import zlib

import pytest

from repro import obs
from repro.errors import QueryError
from repro.query import compact as compact_module
from repro.query import manifest as manifest_module
from repro.query.compact import (
    CompactionPolicy,
    Compactor,
    RetentionPolicy,
    load_retired_rows,
    write_journal,
)
from repro.query.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SegmentStore,
    load_manifest,
    load_manifest_info,
    write_manifest,
)
from repro.query.segment import (
    SegmentState,
    parse_segment,
    segment_name,
    write_segment,
)


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
        store.append(state(0, 10).encode())
        store.append(state(10, 20).encode())
        entries = load_manifest(str(tmp_path))
        assert entries is not None
        assert [e["seq"] for e in entries] == [1, 2]
        assert entries[0]["t_lo"] == 0.0
        assert entries[1]["t_hi"] == 20.0

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_manifest(str(tmp_path)) is None

    def test_torn_manifest_is_none(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state().encode())
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - 5])
        assert load_manifest(str(tmp_path)) is None

    def test_newer_version_falls_back(self, tmp_path):
        """The v(N+1) forward-compat stub: unknown manifest versions are
        not an error — readers degrade to the directory scan."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
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
        store.append(state().encode())
        write_manifest(str(tmp_path), store.segments())
        names = os.listdir(str(tmp_path))
        assert MANIFEST_NAME in names
        assert not any(n.startswith(".tmp-manifest") for n in names)


class TestSegmentStore:
    def test_append_assigns_increasing_seqs(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        p1 = store.append(state(0, 10).encode())
        p2 = store.append(state(10, 20).encode())
        assert os.path.basename(p1) == segment_name(1)
        assert os.path.basename(p2) == segment_name(2)

    def test_seq_never_reuses_invalid_files(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        # A corrupt file squats on seq 5; the next append must go to 6.
        with open(os.path.join(str(tmp_path), segment_name(5)), "wb") as fh:
            fh.write(b"junk")
        path = store.append(state(10, 20).encode())
        assert os.path.basename(path) == segment_name(6)

    def test_orphan_segment_adopted_from_scan(self, tmp_path):
        """A crash between segment rename and manifest rewrite leaves an
        orphan; refresh() must serve it anyway."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        write_segment(str(tmp_path), 9, state(90, 100).encode())  # not in manifest
        fresh = SegmentStore(str(tmp_path))
        assert [s.seq for s in fresh.refresh()] == [1, 9]

    def test_corrupt_segment_skipped_and_counted(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        with open(os.path.join(str(tmp_path), segment_name(2)), "wb") as fh:
            fh.write(b"\x00garbage")
        fresh = SegmentStore(str(tmp_path))
        assert [s.seq for s in fresh.refresh()] == [1]
        assert fresh.rejected == 1

    def test_stale_manifest_entry_not_served(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        store.append(state(10, 20).encode())
        os.unlink(os.path.join(str(tmp_path), segment_name(2)))
        fresh = SegmentStore(str(tmp_path))
        assert [s.seq for s in fresh.refresh()] == [1]

    def test_stats(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(n=4).encode())
        stats = store.stats()
        assert stats["segments"] == 1
        assert stats["rows"] == 4
        assert stats["samples"] == 1 + 2 + 3 + 4


class TestGenerationAndTombstones:
    def test_fresh_store_is_generation_zero(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        info = load_manifest_info(str(tmp_path))
        assert info["generation"] == 0
        assert info["tombstones"] == []
        assert info["retired"] is None

    def test_commit_generation_round_trips(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        store.append(state(10, 20).encode())
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
        store.append(state(0, 10).encode())
        store.append(state(10, 20).encode())
        tombs = [{"seq": 1, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}]
        store.commit_generation(1, [], {1}, tombs, None)
        store.append(state(20, 30).encode())
        info = load_manifest_info(str(tmp_path))
        assert info["generation"] == 1
        assert [t["seq"] for t in info["tombstones"]] == [1]

    def test_next_seq_skips_tombstoned_numbers(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        store.append(state(10, 20).encode())
        tombs = [{"seq": s, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}
                 for s in (1, 2)]
        store.commit_generation(1, [], {1, 2}, tombs, None)
        assert store.next_seq() > 2

    def test_tombstoned_file_on_disk_is_not_readopted(self, tmp_path):
        """A deferred deletion (the file still exists) must stay
        invisible: the tombstone wins over the directory entry."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        store.append(state(10, 20).encode())
        tombs = [{"seq": 1, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}]
        store.commit_generation(1, [], set(), tombs, None)
        assert os.path.exists(tmp_path / segment_name(1))
        other = SegmentStore(str(tmp_path))
        assert [s.seq for s in other.refresh()] == [2]

    def test_negative_generation_falls_back(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        path = os.path.join(str(tmp_path), MANIFEST_NAME)
        lines = open(path).readlines()
        header = json.loads(lines[0].split(" ", 1)[1])
        header["generation"] = -1
        lines[0] = _line(header)
        open(path, "w").writelines(lines)
        assert load_manifest_info(str(tmp_path)) is None

    def test_tombstone_count_mismatch_falls_back(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
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


def adopted():
    return obs.counter("query.segment_adopted").value


def indexed(directory):
    """The seqs of ``directory``'s segments in the process's validation
    index once every unreachable segment is collected."""
    gc.collect()
    prefix = os.path.join(str(directory), "")
    return sorted(
        seg.seq for path, seg in list(manifest_module._validated.items())
        if path.startswith(prefix)
    )


class TestValidationMemo:
    """Validation is memoized by the digest of the bytes validated.

    Every case drives one ``SegmentStore`` instance across refreshes,
    the way a long-lived query engine does. The memo is one index per
    process; it holds a segment only while something serves it.
    """

    def test_refresh_reuses_what_append_validated(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        before = adopted()
        for i in range(3):
            store.append(state(10 * i, 10 * i + 10).encode())
        assert adopted() == before + 3  # one read-back per append
        hits = reuses()
        assert [s.seq for s in store.refresh()] == [1, 2, 3]
        assert adopted() == before + 3
        assert reuses() == hits + 3
        assert indexed(tmp_path) == [1, 2, 3]

    def test_same_length_rewrite_with_restored_mtime_is_rejected(
        self, tmp_path
    ):
        """Size and mtime are unchanged, only the bytes differ: a cache
        keyed on file metadata would keep serving the old segment."""
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        path = store.append(state(10, 20).encode())
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
        assert indexed(tmp_path) == [1]

    def test_byte_identical_replacement_is_not_reparsed(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        path = store.append(state(0, 10).encode())
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
        store.append(state(0, 10).encode())
        store.append(state(10, 20).encode())
        assert [s.seq for s in store.refresh()] == [1, 2]
        # Another process tombstones seq 1; its file stays on disk.
        tombs = [{"seq": 1, "rows": 3, "samples": 6,
                  "reason": "compacted", "generation": 1}]
        SegmentStore(str(tmp_path)).commit_generation(
            1, [], set(), tombs, None
        )
        assert os.path.exists(tmp_path / segment_name(1))
        assert [s.seq for s in store.refresh()] == [2]
        assert indexed(tmp_path) == [2]

    def test_memoized_seq_quarantined_by_journal_is_not_served(
        self, tmp_path
    ):
        store = SegmentStore(str(tmp_path))
        for i in range(3):
            store.append(state(10 * i, 10 * i + 10).encode())
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
        assert indexed(tmp_path) == [1, 2]

    def test_memo_holds_only_served_seqs_after_a_swap(self, tmp_path):
        store = SegmentStore(str(tmp_path))
        for i in range(4):
            store.append(state(10 * i, 10 * i + 10).encode())
        store.refresh()
        before = adopted()
        report = Compactor(store, CompactionPolicy(min_inputs=2)).compact(
            force=True
        )
        assert report is not None
        # The inputs came from the memo; only the output was validated.
        assert adopted() == before + 1
        served = [s.seq for s in store.segments()]
        assert served == [report["output_seq"]]
        assert indexed(tmp_path) == served
        assert [s.seq for s in store.refresh()] == served
        assert indexed(tmp_path) == served
        assert adopted() == before + 1


def rewrite_after_rename(monkeypatch, module, name, change):
    """Wrap ``module.name`` (a durable writer) so that ``change(path)``
    runs on the file once it is renamed into place, before the writer's
    caller reads it back."""
    real = getattr(module, name)

    def writer(*args, **kwargs):
        path = real(*args, **kwargs)
        change(path)
        return path

    monkeypatch.setattr(module, name, writer)


def flip_a_byte(path):
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(data)


class TestReadBack:
    """A write reads its file back: the bytes it wrote are adopted, any
    other bytes are parsed, and fail as they always did."""

    def test_a_byte_flipped_after_the_rename_is_parsed_and_refused(
        self, tmp_path, monkeypatch
    ):
        store = SegmentStore(str(tmp_path))
        store.append(state(0, 10).encode())
        rewrite_after_rename(
            monkeypatch, manifest_module, "write_segment", flip_a_byte
        )
        before, adoptions = parses(), adopted()
        with pytest.raises(QueryError, match="failed validation"):
            store.append(state(10, 20).encode())
        assert parses() == before + 1
        assert adopted() == adoptions
        assert [s.seq for s in store.segments()] == [1]

    def test_other_valid_bytes_after_the_rename_are_what_is_served(
        self, tmp_path, monkeypatch
    ):
        """Bytes that differ from the write but validate are parsed and
        served as the file holds them, not as the write meant them."""
        os.makedirs(tmp_path / "other")
        other = write_segment(
            str(tmp_path / "other"), 1, state(10, 20, n=5).encode()
        )
        data = open(other, "rb").read()

        def replace(path):
            with open(path, "wb") as fh:
                fh.write(data)

        store = SegmentStore(str(tmp_path / "store"))
        rewrite_after_rename(
            monkeypatch, manifest_module, "write_segment", replace
        )
        before, adoptions = parses(), adopted()
        path = store.append(state(10, 20, n=2).encode())
        assert parses() == before + 1
        assert adopted() == adoptions
        (seg,) = store.segments()
        assert seg.path == path
        assert len(seg.pids) == 5
        assert seg.digest == parse_segment(path, 1, data).digest

    def test_a_sidecar_flipped_after_the_rename_is_refused_as_before(
        self, tmp_path, monkeypatch
    ):
        """The swap commits, and the sidecar is rejected when the store
        loads it, as when no read-back looked at it."""
        store = SegmentStore(str(tmp_path))
        for i in range(4):
            store.append(state(10 * i, 10 * i + 10).encode())
        rewrite_after_rename(
            monkeypatch, compact_module, "write_retired_encoded", flip_a_byte
        )
        rejected = obs.counter("query.retired_rejected").value
        report = Compactor(store, CompactionPolicy(
            retention=RetentionPolicy(max_bytes=1)
        )).compact(now=100.0, force=True)
        assert report["dropped_rows"]
        assert store.retired_name is not None
        assert store.retired_rows() is None
        assert obs.counter("query.retired_rejected").value == rejected + 1

    def test_a_swap_installs_the_sidecar_it_wrote(self, tmp_path, monkeypatch):
        """Neither the swap that wrote a sidecar nor a later swap that
        carries it forward leaves the store a sidecar to load."""
        store = SegmentStore(str(tmp_path))
        for i in range(4):
            store.append(state(10 * i, 10 * i + 10).encode())
        report = Compactor(store, CompactionPolicy(
            retention=RetentionPolicy(max_bytes=1)
        )).compact(now=100.0, force=True)
        assert report["dropped_rows"]

        def loaded(*_args):
            pytest.fail("the sidecar the swap wrote was loaded again")

        monkeypatch.setattr(compact_module, "load_retired_rows", loaded)
        retired = store.retired_rows()
        assert retired is not None
        store.append(state(40, 50).encode())
        report = Compactor(store).compact(now=100.0, force=True)
        assert not report["dropped_rows"]
        assert store.retired_rows() is retired
        assert store.position()["samples"] == sum(
            seg.samples for seg in store.segments()
        ) + retired.samples
        monkeypatch.undo()
        path = os.path.join(str(tmp_path), store.retired_name)
        assert repr(retired) == repr(load_retired_rows(path))


class TestOneValidationPerProcess:
    def test_a_process_parses_no_segment_it_wrote(self, tmp_path):
        """Appends, byte-capped swaps and a second store refreshing every
        round: nothing is parsed, and the second store serves the
        writer's objects."""
        directory = str(tmp_path)
        writer = SegmentStore(directory)
        reader = SegmentStore(directory)
        compactor = Compactor(writer, CompactionPolicy(
            retention=RetentionPolicy(max_bytes=400, keep_spans=2)
        ))
        before, adoptions = parses(), adopted()
        appends = swaps = sidecars = 0
        for r in range(12):
            writer.append(state(10 * r, 10 * r + 10, n=1 + r % 4).encode())
            appends += 1
            if r % 3 == 2:
                report = compactor.compact(now=10.0 * r + 10, force=True)
                swaps += 1
                sidecars += bool(report["dropped_rows"])
            reader.refresh()
            assert [id(s) for s in reader.segments()] == [
                id(s) for s in writer.segments()
            ]
        assert sidecars >= 2
        assert parses() == before
        assert adopted() == adoptions + appends + swaps
        served = [s.seq for s in reader.segments()]
        assert indexed(directory) == served
        # Once no store holds a segment, the index forgets it, and the
        # next store parses each served file once.
        del writer, reader, compactor
        assert indexed(directory) == []
        fresh = SegmentStore(directory)
        assert [s.seq for s in fresh.refresh()] == served
        assert parses() == before + len(served)
        fresh.refresh()
        assert parses() == before + len(served)

    def test_stores_on_many_threads_serve_only_what_is_on_disk(self, tmp_path):
        """Four reader threads, each with its own store, refresh while
        this thread appends and compacts, with a short switch interval:
        every segment a refresh serves holds the digest of its file's
        bytes, whichever thread validated it."""
        directory = str(tmp_path)
        writer = SegmentStore(directory)
        for i in range(4):
            writer.append(state(10 * i, 10 * i + 10).encode())
        stop = threading.Event()
        problems = []
        refreshes = [0] * 4

        def read(slot):
            store = SegmentStore(directory)
            try:
                while not stop.is_set():
                    for seg in store.refresh():
                        try:
                            data = open(seg.path, "rb").read()
                        except FileNotFoundError:
                            continue  # compacted away since the listing
                        if hashlib.sha256(data).digest() != seg.digest:
                            problems.append(seg.path)
                    refreshes[slot] += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                problems.append(repr(exc))

        threads = [
            threading.Thread(target=read, args=(slot,), daemon=True)
            for slot in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            compactor = Compactor(writer, CompactionPolicy(min_inputs=2))
            for r in range(4, 24):
                writer.append(state(10 * r, 10 * r + 10, n=1 + r % 3).encode())
                if r % 5 == 0:
                    compactor.compact(now=10.0 * r + 10, force=True)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not problems, problems[:5]
        assert min(refreshes) > 0
