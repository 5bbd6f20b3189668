"""Segment files: round trip, total validation, corruption rejection."""

import json
import os
import zlib

import pytest

from repro.durable import delta_encode_rows, pack_section
from repro.errors import QueryError
from repro.query.segment import (
    FORMAT_VERSION,
    SegmentState,
    load_segment,
    segment_name,
    sequence_of,
    write_segment,
)


def small_state(t_lo=0.0, t_hi=10.0, fingerprint="fp", n=5):
    rows = tuple(
        (("main", f"f{i % 3}", f"ctx{i}"), i + 1, 1 if i % 2 else 0, i % 2)
        for i in range(n)
    )
    return SegmentState(t_lo=t_lo, t_hi=t_hi, fingerprint=fingerprint,
                        rows=rows)


def _line(payload):
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x} {body}\n"


class TestNaming:
    def test_segment_name_round_trips(self):
        assert segment_name(7) == "seg-00000007.dpqs"
        assert sequence_of(segment_name(7)) == 7

    def test_sequence_of_rejects_foreign_names(self):
        assert sequence_of("ckpt-00000001.dpck") is None
        assert sequence_of("seg-xx.dpqs") is None
        assert sequence_of(".tmp-seg-00000001-99") is None


class TestState:
    def test_window_must_not_invert(self):
        with pytest.raises(QueryError):
            SegmentState(t_lo=10.0, t_hi=0.0, fingerprint="", rows=())

    def test_negative_counts_rejected(self):
        with pytest.raises(QueryError):
            SegmentState(t_lo=0, t_hi=1, fingerprint="",
                         rows=((("a",), -1, 0, 0),))

    def test_totals(self):
        state = small_state(n=4)
        assert state.total_samples == 1 + 2 + 3 + 4
        assert state.epochs == (0, 1)


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        state = small_state()
        path = write_segment(str(tmp_path), 1, state)
        assert os.path.basename(path) == segment_name(1)
        seg = load_segment(path)
        assert seg is not None
        assert seg.state == state
        assert seg.seq == 1
        assert seg.samples == state.total_samples

    def test_many_rows_cross_record_boundary(self, tmp_path):
        rows = tuple(
            (("main", f"ctx{i}"), 1, 0, 0) for i in range(1300)
        )
        state = SegmentState(t_lo=0, t_hi=1, fingerprint="", rows=rows)
        path = write_segment(str(tmp_path), 2, state)
        seg = load_segment(path)
        assert seg is not None and len(seg.rows) == 1300

    def test_empty_segment_is_valid(self, tmp_path):
        state = SegmentState(t_lo=5, t_hi=5, fingerprint="", rows=())
        seg = load_segment(write_segment(str(tmp_path), 1, state))
        assert seg is not None and seg.rows == ()

    def test_index_serves_membership(self, tmp_path):
        state = small_state()
        seg = load_segment(write_segment(str(tmp_path), 1, state))
        assert "main" in seg.functions()
        rows = seg.rows_through("f0")
        assert rows, "f0 appears in the state"
        for idx in rows:
            assert "f0" in seg.rows[idx][0]
        assert seg.rows_through("nope") == ()

    def test_overlaps_half_open(self, tmp_path):
        seg = load_segment(
            write_segment(str(tmp_path), 1, small_state(t_lo=10, t_hi=20))
        )
        assert seg.overlaps(0, 11)
        assert seg.overlaps(19, 30)
        assert not seg.overlaps(0, 10)   # hi edge exclusive
        assert not seg.overlaps(20, 30)  # lo edge of next window
        # zero-width segment sits inside any window containing it
        point = load_segment(
            write_segment(str(tmp_path), 2, small_state(t_lo=5, t_hi=5))
        )
        assert point.overlaps(0, 10)
        assert point.overlaps(5, 6)
        assert not point.overlaps(0, 5)


class TestCorruption:
    def test_crashed_write_leaves_no_segment(self, tmp_path):
        def crash(records):
            if records >= 2:
                raise OSError("disk gone")

        with pytest.raises(OSError):
            write_segment(str(tmp_path), 1, small_state(), fault=crash)
        assert not any(
            name.startswith("seg-") for name in os.listdir(str(tmp_path))
        )

    def test_torn_file_rejected(self, tmp_path):
        path = write_segment(str(tmp_path), 1, small_state())
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert load_segment(path) is None

    def test_bitflip_rejected_by_crc(self, tmp_path):
        path = write_segment(str(tmp_path), 1, small_state())
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] ^= 0x20
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert load_segment(path) is None

    def test_wrong_version_rejected(self, tmp_path):
        path = write_segment(str(tmp_path), 1, small_state())
        lines = open(path).readlines()
        header = json.loads(lines[0].split(" ", 1)[1])
        header["version"] = FORMAT_VERSION + 1
        lines[0] = _line(header)
        open(path, "w").writelines(lines)
        assert load_segment(path) is None

    def test_missing_section_rejected(self, tmp_path):
        path = write_segment(str(tmp_path), 1, small_state())
        lines = open(path).readlines()
        kept = [
            ln for ln in lines
            if '"kind":"index"' not in ln.split(" ", 1)[1]
        ]
        assert len(kept) == len(lines) - 1
        open(path, "w").writelines(kept)
        assert load_segment(path) is None

    def test_tampered_index_rejected(self, tmp_path):
        # A validly-checksummed index that disagrees with the rows must
        # still be rejected: the load path rebuilds and compares.
        path = write_segment(str(tmp_path), 1, small_state())
        lines = open(path).readlines()
        for i, ln in enumerate(lines):
            payload = json.loads(ln.split(" ", 1)[1])
            if payload.get("kind") == "index":
                fake = {"kind": "index"}
                fake.update(pack_section([[0, [0]]]))
                lines[i] = _line(fake)
                break
        open(path, "w").writelines(lines)
        assert load_segment(path) is None

    def test_footer_total_mismatch_rejected(self, tmp_path):
        path = write_segment(str(tmp_path), 1, small_state())
        lines = open(path).readlines()
        footer = json.loads(lines[-1].split(" ", 1)[1])
        footer["samples"] += 1
        lines[-1] = _line(footer)
        open(path, "w").writelines(lines)
        assert load_segment(path) is None


def multi_span_state():
    return SegmentState(
        t_lo=0.0, t_hi=20.0, fingerprint="fp",
        rows=(
            (("a", "b"), 5, 1, 0),
            (("a", "c"), 3, 0, 0),
            (("a", "b"), 7, 0, 1),
        ),
        spans=((0.0, 10.0), (10.0, 20.0)),
        row_spans=(0, 0, 1),
    )


class TestMultiSpanState:
    def test_defaults_are_single_span(self):
        state = small_state()
        assert state.spans == ((0.0, 10.0),)
        assert state.row_spans == (0,) * len(state.rows)
        assert not state.multi_span

    def test_multi_span_round_trip(self, tmp_path):
        path = write_segment(str(tmp_path), 1, multi_span_state())
        seg = load_segment(path)
        assert seg is not None
        assert seg.state.multi_span
        assert seg.spans == ((0.0, 10.0), (10.0, 20.0))
        assert seg.state.row_spans == (0, 0, 1)

    def test_spans_must_cover_envelope(self):
        with pytest.raises(QueryError):
            SegmentState(
                t_lo=0.0, t_hi=20.0, fingerprint="fp",
                rows=((("a",), 1, 0, 0),),
                spans=((0.0, 10.0),),  # stops short of t_hi
                row_spans=(0,),
            )

    def test_row_span_assignment_must_match_rows(self):
        with pytest.raises(QueryError):
            SegmentState(
                t_lo=0.0, t_hi=10.0, fingerprint="fp",
                rows=((("a",), 1, 0, 0), (("b",), 2, 0, 0)),
                spans=((0.0, 10.0),),
                row_spans=(0,),  # one assignment for two rows
            )

    def test_dangling_span_id_rejected(self):
        with pytest.raises(QueryError):
            SegmentState(
                t_lo=0.0, t_hi=10.0, fingerprint="fp",
                rows=((("a",), 1, 0, 0),),
                spans=((0.0, 10.0),),
                row_spans=(1,),
            )

    def test_inverted_span_rejected(self):
        with pytest.raises(QueryError):
            SegmentState(
                t_lo=0.0, t_hi=10.0, fingerprint="fp",
                rows=((("a",), 1, 0, 0),),
                spans=((10.0, 0.0),),
                row_spans=(0,),
            )


class TestV2Corruption:
    def _rewrite_header(self, path, **mutate):
        lines = open(path).readlines()
        header = json.loads(lines[0].split(" ", 1)[1])
        header.update(mutate)
        lines[0] = _line(header)
        open(path, "w").writelines(lines)

    def test_span_count_mismatch_rejected(self, tmp_path):
        path = write_segment(str(tmp_path), 1, multi_span_state())
        self._rewrite_header(path, spans=3)
        assert load_segment(path) is None

    def test_garbled_spans_section_rejected(self, tmp_path):
        path = write_segment(str(tmp_path), 1, multi_span_state())
        lines = open(path).readlines()
        for i, line in enumerate(lines):
            payload = json.loads(line.split(" ", 1)[1])
            if payload.get("kind") == "spans":
                lines[i] = line[:-10] + "tampered!\n"
        open(path, "w").writelines(lines)
        assert load_segment(path) is None

    def test_dangling_row_span_id_rejected(self, tmp_path):
        path = write_segment(str(tmp_path), 1, multi_span_state())
        lines = open(path).readlines()
        for i, line in enumerate(lines):
            payload = json.loads(line.split(" ", 1)[1])
            if payload.get("kind") == "rows":
                payload["rows"][0][4] = 9  # points past the span list
                lines[i] = _line(payload)
        open(path, "w").writelines(lines)
        assert load_segment(path) is None


class TestV1BackCompat:
    def _write_v1(self, tmp_path, rows):
        """A version-1 file: 4-column rows, no spans section."""
        from repro.query.segment import _build_postings

        names, nodes_flat, pids = delta_encode_rows(list(rows))
        index = _build_postings(nodes_flat, pids)
        lines = [_line({
            "kind": "header", "version": 1, "t_lo": 0.0, "t_hi": 10.0,
            "fingerprint": "old", "rows": len(rows),
        })]
        for kind, section in (
            ("names", names), ("nodes", nodes_flat), ("index", index),
        ):
            payload = {"kind": kind}
            payload.update(pack_section(section))
            lines.append(_line(payload))
        lines.append(_line({
            "kind": "rows",
            "rows": [[pids[i], r[1], r[2], r[3]]
                     for i, r in enumerate(rows)],
        }))
        lines.append(_line({
            "kind": "footer", "records": len(lines) + 1,
            "rows": len(rows), "samples": sum(r[1] for r in rows),
        }))
        path = os.path.join(str(tmp_path), segment_name(1))
        open(path, "w").writelines(lines)
        return path

    def test_v1_file_still_loads_as_single_span(self, tmp_path):
        rows = [(("a", "b"), 5, 1, 0), (("a",), 2, 0, 1)]
        seg = load_segment(self._write_v1(tmp_path, rows))
        assert seg is not None
        assert seg.spans == ((0.0, 10.0),)
        assert not seg.state.multi_span
        assert seg.rows == tuple(rows)

    def test_v1_file_with_spans_section_rejected(self, tmp_path):
        path = self._write_v1(tmp_path, [(("a",), 1, 0, 0)])
        lines = open(path).readlines()
        payload = {"kind": "spans"}
        payload.update(pack_section([[0.0, 10.0]]))
        footer = json.loads(lines[-1].split(" ", 1)[1])
        footer["records"] += 1
        lines[-1:] = [_line(payload), _line(footer)]
        open(path, "w").writelines(lines)
        assert load_segment(path) is None
