"""Durable checkpoints: atomicity, validation, newest-valid recovery."""

import json
import os
import zlib

import pytest

from repro import obs
from repro.errors import CheckpointError, ResilienceError
from repro.resilience.checkpoint import (
    CheckpointState,
    CheckpointStore,
    plan_fingerprint,
)
from repro.runtime.plan import build_plan_from_graph
from repro.workloads.paperfigures import figure5_graph


def small_state(epoch=0, fingerprint="fp", n=5):
    rows = tuple(
        (("main", f"f{i}"), i + 1, 1 if i % 2 else 0) for i in range(n)
    )
    return CheckpointState(epoch=epoch, fingerprint=fingerprint, rows=rows)


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        state = small_state(epoch=3)
        path = store.write(state)
        assert os.path.basename(path).startswith("ckpt-")
        loaded = store.load_file(path)
        assert loaded == state
        assert loaded.total_samples == state.total_samples

    def test_load_newest_prefers_later_sequence(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write(small_state(epoch=1))
        newest = store.write(small_state(epoch=2))
        found = store.load_newest()
        assert found is not None
        path, state = found
        assert path == newest
        assert state.epoch == 2

    def test_retention_prunes_oldest(self, tmp_path):
        store = CheckpointStore(str(tmp_path), retain=2)
        for epoch in range(5):
            store.write(small_state(epoch=epoch))
        remaining = store.checkpoints()
        assert len(remaining) == 2
        _, state = store.load_newest()
        assert state.epoch == 4

    def test_multi_record_rows(self, tmp_path):
        store = CheckpointStore(str(tmp_path), rows_per_record=3)
        state = small_state(n=10)
        path = store.write(state)
        assert store.load_file(path) == state

    def test_empty_tree_checkpoints_fine(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        state = CheckpointState(epoch=0, fingerprint="fp", rows=())
        path = store.write(state)
        assert store.load_file(path) == state


class TestCorruption:
    def test_crashed_write_leaves_no_checkpoint(self, tmp_path):
        store = CheckpointStore(str(tmp_path))

        def crash(records):
            if records >= 1:
                raise OSError("disk gone")

        with pytest.raises(OSError):
            store.write(small_state(), fault=crash)
        assert store.checkpoints() == []
        assert store.load_newest() is None

    def test_torn_file_is_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        good = store.write(small_state(epoch=1))
        with open(good, "rb") as fh:
            data = fh.read()
        torn = os.path.join(str(tmp_path), "ckpt-00000099.dpck")
        with open(torn, "wb") as fh:
            fh.write(data[: len(data) // 2])
        path, state = store.load_newest()
        assert path == good
        assert state.epoch == 1

    def test_bitflip_is_rejected_by_crc(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        good = store.write(small_state(epoch=1))
        with open(good, "rb") as fh:
            data = bytearray(fh.read())
        # Flip a byte inside the JSON payload of the first row record.
        data[len(data) // 2] ^= 0x20
        flipped = os.path.join(str(tmp_path), "ckpt-00000099.dpck")
        with open(flipped, "wb") as fh:
            fh.write(bytes(data))
        path, _state = store.load_newest()
        assert path == good

    def test_garbage_bytes_are_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        good = store.write(small_state(epoch=1))
        for name, blob in (
            ("ckpt-00000098.dpck", b"\x00\xff\xfe not utf8 at all"),
            ("ckpt-00000099.dpck", b"00000000 {}\n"),
        ):
            with open(os.path.join(str(tmp_path), name), "wb") as fh:
                fh.write(blob)
        path, _state = store.load_newest()
        assert path == good

    def test_truncated_to_header_only_is_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        good = store.write(small_state(epoch=1))
        with open(good, "r") as fh:
            first_line = fh.readline()
        headerless = os.path.join(str(tmp_path), "ckpt-00000099.dpck")
        with open(headerless, "w") as fh:
            fh.write(first_line)  # valid CRC, but no rows and no footer
        path, _state = store.load_newest()
        assert path == good

    def test_all_invalid_means_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with open(os.path.join(str(tmp_path), "ckpt-00000001.dpck"),
                  "wb") as fh:
            fh.write(b"junk")
        assert store.load_newest() is None


def _line(payload):
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x} {body}\n"


def _rewrite_record(path, kind, mutate):
    """Edit the first record of ``kind`` in place, re-stamping its CRC."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    out, done = [], False
    for line in lines:
        payload = json.loads(line[9:])
        if not done and payload.get("kind") == kind:
            mutate(payload)
            line = _line(payload)
            done = True
        out.append(line)
    assert done, f"no {kind!r} record in {path}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(out)


class TestFormatVersions:
    """The v2 writer vs. hand-written v1 files and planted v2 damage."""

    V1_ROWS = [
        [["main", "parse"], 3, 0],
        [["main", "parse", "lex"], 2, 1],
        [["main", "render"], 5, 0],
    ]

    def write_v1(self, tmp_path, epoch=4):
        path = os.path.join(str(tmp_path), "ckpt-00000001.dpck")
        records = [
            {"kind": "header", "version": 1, "epoch": epoch,
             "fingerprint": "fp-v1", "rows": len(self.V1_ROWS)},
            {"kind": "rows", "rows": self.V1_ROWS},
            {"kind": "footer", "records": 3, "rows": len(self.V1_ROWS),
             "samples": sum(r[1] for r in self.V1_ROWS)},
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_line(r) for r in records)
        return path

    def test_v1_file_still_loads(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = self.write_v1(tmp_path, epoch=4)
        state = store.load_file(path)
        assert state is not None
        assert state.epoch == 4
        assert state.fingerprint == "fp-v1"
        # v1 rows carry no per-row epoch; they are stamped with the
        # checkpoint's own epoch on normalization.
        assert state.rows == tuple(
            (tuple(p), c, g, 4) for p, c, g in self.V1_ROWS
        )

    def test_v1_recovers_through_load_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        self.write_v1(tmp_path)
        found = store.load_newest()
        assert found is not None
        assert found[1].total_samples == 10

    def test_v1_state_round_trips_through_v2_writer(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        old = store.load_file(self.write_v1(tmp_path))
        rewritten = store.write(old)
        assert store.load_file(rewritten) == old

    def test_current_writer_emits_v2_with_delta_sections(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.write(small_state())
        with open(path, "r", encoding="utf-8") as fh:
            payloads = [json.loads(line[9:]) for line in fh]
        assert payloads[0]["version"] == 2
        kinds = [p["kind"] for p in payloads]
        assert kinds[:3] == ["header", "names", "nodes"]
        assert kinds[-1] == "footer"
        # v2 rows are compact [pid, count, gaps, epoch] — no path lists.
        for p in payloads:
            if p["kind"] == "rows":
                assert all(isinstance(r[0], int) for r in p["rows"])

    @pytest.mark.parametrize("path", [["main", ["x"]], ["main", 3]])
    def test_v1_path_of_non_strings_is_rejected(self, tmp_path, path):
        # A list cannot be interned at all: the loader used to raise
        # TypeError, so load_newest() never reached an older file.
        store = CheckpointStore(str(tmp_path))
        good = store.write(small_state(epoch=1))
        planted = os.path.join(str(tmp_path), "ckpt-00000099.dpck")
        records = [
            {"kind": "header", "version": 1, "epoch": 0,
             "fingerprint": "fp", "rows": 1},
            {"kind": "rows", "rows": [[path, 1, 0]]},
            {"kind": "footer", "records": 3, "rows": 1, "samples": 1},
        ]
        with open(planted, "w", encoding="utf-8") as fh:
            fh.writelines(_line(r) for r in records)
        assert store.load_file(planted) is None
        assert store.load_newest()[0] == good

    def test_future_version_is_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.write(small_state())
        _rewrite_record(path, "header", lambda p: p.update(version=99))
        assert store.load_file(path) is None

    def test_corrupt_names_section_is_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.write(small_state())

        def flip(payload):
            payload["crc"] ^= 1  # inner CRC no longer matches the data

        _rewrite_record(path, "names", flip)
        assert store.load_file(path) is None

    def test_dangling_pid_is_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.write(small_state())

        def dangle(payload):
            payload["rows"][0][0] = 99_999

        _rewrite_record(path, "rows", dangle)
        assert store.load_file(path) is None


class TestRowsNoTreeCouldHold:
    """Ingest lands weights >= 1 and every shard keeps gap counts at or
    below counts, so a row with a negative count or gap weight, or more
    gaps than observations, can only be corruption."""

    @pytest.mark.parametrize(
        "row",
        [
            (("main",), -1, 0, 0),
            (("main",), 2, -1, 0),
            (("main",), 2, 5, 0),
            (("main",), 2, 3),  # legacy 3-tuple
        ],
    )
    def test_state_rejects_the_row(self, row):
        with pytest.raises(CheckpointError, match="gap weight"):
            CheckpointState(epoch=0, fingerprint="fp", rows=(row,))

    def test_zero_counts_and_all_gap_rows_are_fine(self):
        state = CheckpointState(
            epoch=0,
            fingerprint="fp",
            rows=((("main",), 0, 0, 0), (("main", "x"), 4, 4, 0)),
        )
        assert state.total_samples == 4

    def plant(self, tmp_path):
        """A valid checkpoint, then a newer one whose rows are those of
        the three-row reproduction, every checksum and total consistent:
        ``("main","a")`` count 2 gaps 5, ``("main","b")`` count -3,
        ``("main",)`` count 4 gaps 1, footer samples 3."""
        store = CheckpointStore(str(tmp_path))
        good = store.write(small_state(epoch=1))
        planted = store.write(CheckpointState(
            epoch=2,
            fingerprint="fp",
            rows=(
                (("main", "a"), 5, 2, 0),
                (("main", "b"), 3, 0, 0),
                (("main",), 4, 1, 0),
            ),
        ))

        def bad_rows(payload):
            assert payload["rows"] == [[1, 5, 2, 0], [2, 3, 0, 0], [0, 4, 1, 0]]
            payload["rows"] = [[1, 2, 5, 0], [2, -3, 0, 0], [0, 4, 1, 0]]

        _rewrite_record(planted, "rows", bad_rows)
        _rewrite_record(planted, "footer", lambda p: p.update(samples=3))
        return store, good, planted

    def test_load_file_rejects_the_planted_rows(self, tmp_path):
        store, _good, planted = self.plant(tmp_path)
        assert store.load_file(planted) is None
        assert store.load_encoded(planted) is None

    def test_load_newest_falls_back_and_counts_the_rejection(self, tmp_path):
        store, good, _planted = self.plant(tmp_path)
        before = obs.counter("resilience.checkpoint_rejected").value
        path, state = store.load_newest()
        assert path == good
        assert state.epoch == 1
        assert obs.counter("resilience.checkpoint_rejected").value == before + 1

    def test_v1_rows_get_the_same_check(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt-00000001.dpck")
        records = [
            {"kind": "header", "version": 1, "epoch": 0,
             "fingerprint": "fp", "rows": 2},
            {"kind": "rows", "rows": [[["main"], 4, 1], [["main", "a"], 1, 2]]},
            {"kind": "footer", "records": 3, "rows": 2, "samples": 5},
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_line(r) for r in records)
        assert CheckpointStore(str(tmp_path)).load_file(path) is None


class TestFingerprint:
    def test_same_plan_same_fingerprint(self):
        plan_a = build_plan_from_graph(figure5_graph())
        plan_b = build_plan_from_graph(figure5_graph())
        assert plan_fingerprint(plan_a) == plan_fingerprint(plan_b)

    def test_different_graph_different_fingerprint(self):
        graph = figure5_graph()
        plan_a = build_plan_from_graph(graph)
        g2 = graph.copy()
        g2.add_edge("G", "newleaf", "x1")
        plan_b = build_plan_from_graph(g2)
        assert plan_fingerprint(plan_a) != plan_fingerprint(plan_b)


def test_validation():
    with pytest.raises(ResilienceError):
        CheckpointStore("/tmp/x", retain=0)
    with pytest.raises(CheckpointError):
        CheckpointState(epoch=-1, fingerprint="fp", rows=())
