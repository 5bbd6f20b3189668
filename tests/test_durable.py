"""The durable line-record module: the framing rules and the atomic
writer, each tested once for every format built on them.

The path-table check is tested through every loader that uses it, in
``tests/query/test_path_tables.py``."""

import itertools
import os
import signal
import time
import zlib

import pytest

from repro.durable import (
    parse_record_line,
    read_records,
    record_line,
    sweep_temp_files,
    write_records,
)

VERSIONS = (1, 2)
HEADER = {"kind": "demo", "version": 2}
BODY = [{"kind": "rows", "rows": [[1, 2]]}, {"kind": "rows", "rows": []}]


def framed(*payloads):
    return "".join(record_line(p) for p in payloads).encode("utf-8")


def footer(records, **fields):
    return {"kind": "footer", "records": records, **fields}


def read(data):
    return read_records(data, "demo", VERSIONS)


class TestFraming:
    def test_valid_file_reads_back(self):
        data = framed(HEADER, *BODY, footer(4, rows=1))
        assert read(data) == (HEADER, BODY, footer(4, rows=1))

    def test_header_and_footer_alone(self):
        assert read(framed(HEADER, footer(2))) == (HEADER, [], footer(2))

    @pytest.mark.parametrize("data", [
        b"",                                                  # empty file
        framed(HEADER),                                       # header only
        framed({"kind": "other", "version": 2}, footer(2)),   # not a demo
        framed(footer(1)),                                    # footer first
    ], ids=["empty", "header-only", "other-kind", "footer-only"])
    def test_no_demo_header_is_rejected(self, data):
        assert read(data) is None

    @pytest.mark.parametrize("version", [3, 0, "2", None, 2.0, [2]])
    def test_unreadable_version_is_rejected(self, version):
        header = dict(HEADER, version=version)
        if version is None:
            del header["version"]
        assert read(framed(header, footer(2))) is None

    def test_record_after_the_footer_is_rejected(self):
        assert read(framed(HEADER, footer(3), BODY[0])) is None
        assert read(framed(HEADER, footer(2), footer(3))) is None

    def test_missing_footer_is_rejected(self):
        assert read(framed(HEADER, *BODY)) is None

    @pytest.mark.parametrize("records", [3, 5, None, "4"])
    def test_footer_count_must_equal_the_lines(self, records):
        assert read(framed(HEADER, *BODY, footer(records))) is None

    def test_non_utf8_bytes_are_rejected(self):
        data = framed(HEADER, footer(2))
        assert read(b"\xff" + data) is None
        assert read(data[:-1] + b"\x80\n") is None

    def test_universal_newlines(self):
        data = framed(HEADER, footer(2))
        assert read(data.replace(b"\n", b"\r\n")) == (HEADER, [], footer(2))


class TestRecordLine:
    def test_round_trip(self):
        line = record_line({"kind": "x", "n": [1, 2]})
        assert parse_record_line(line) == {"kind": "x", "n": [1, 2]}

    @staticmethod
    def line_whose_crc(prefix_test):
        for n in itertools.count():
            line = record_line({"kind": "x", "n": n})
            if prefix_test(line[:8]):
                return line

    def test_crc_prefix_is_compared_exactly(self):
        # The writer emits eight lower-case hex digits; an upper-cased
        # or blank-padded prefix of the same number is not its output.
        lettered = self.line_whose_crc(lambda crc: crc.upper() != crc)
        assert parse_record_line(lettered) is not None
        assert parse_record_line(lettered[:8].upper() + lettered[8:]) is None
        padded = self.line_whose_crc(lambda crc: crc[0] == "0")
        assert parse_record_line(padded) is not None
        assert parse_record_line(" " + padded[1:]) is None

    @pytest.mark.parametrize("line", [
        "", "\n", "0000000 {}\n", "00000000{}\n", "00000000 {}",
    ])
    def test_torn_or_short_lines_are_rejected(self, line):
        assert parse_record_line(line) is None

    def test_a_non_object_payload_is_rejected(self):
        body = "[1]"
        crc = f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}"
        assert parse_record_line(f"{crc} {body}\n") is None


class TestWriteRecords:
    def test_footer_is_stamped_with_the_line_count(self, tmp_path):
        path = write_records(
            str(tmp_path / "f.demo"), [HEADER, *BODY], {"rows": 1}
        )
        with open(path, "rb") as fh:
            assert read(fh.read()) == (HEADER, BODY, footer(4, rows=1))
        assert os.listdir(str(tmp_path)) == ["f.demo"]

    def test_fault_runs_after_every_record_the_footer_included(self, tmp_path):
        calls = []
        write_records(
            str(tmp_path / "f.demo"), [HEADER, *BODY], fault=calls.append
        )
        assert calls == [1, 2, 3, 4]

    @pytest.mark.parametrize("crash_at", [1, 2, 3])
    def test_a_crash_keeps_the_previous_file(self, tmp_path, crash_at):
        path = str(tmp_path / "f.demo")
        write_records(path, [HEADER])
        with open(path, "rb") as fh:
            before = fh.read()

        def crash(records):
            if records == crash_at:
                raise OSError("crash")

        with pytest.raises(OSError):
            write_records(path, [HEADER, BODY[0]], fault=crash)
        with open(path, "rb") as fh:
            assert fh.read() == before
        abandoned = [n for n in os.listdir(str(tmp_path)) if n != "f.demo"]
        assert len(abandoned) == 1 and abandoned[0].startswith(".tmp-f.demo-")


FINAL_NAMES = {
    "segment": "seg-00000001.dpqs",
    "checkpoint": "ckpt-00000001.dpck",
}


def _reap(child, timeout=30.0):
    """Wait for ``child``; kill it and fail the test past ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pid, status = os.waitpid(child, os.WNOHANG)
        if pid:
            return status
        time.sleep(0.01)
    os.kill(child, signal.SIGKILL)
    os.waitpid(child, 0)
    pytest.fail("the forked writer did not die in time")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("store_kind", ["segment", "checkpoint"])
def test_opening_a_store_sweeps_a_dead_writers_temp_file(
    tmp_path, store_kind
):
    from repro.query.manifest import SegmentStore
    from repro.resilience.checkpoint import CheckpointStore

    directory = str(tmp_path)
    final = os.path.join(directory, FINAL_NAMES[store_kind])

    def die(records):
        if records >= 2:
            os._exit(0)

    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        # The child writes as the stores do and dies after its second
        # record, the way a killed process leaves its temp file; it
        # takes no lock another thread of this process could hold.
        try:
            write_records(final, [HEADER, *BODY], fault=die)
        finally:
            os._exit(1)
    status = _reap(child)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    dead = f".tmp-{os.path.basename(final)}-{child}"
    assert os.listdir(directory) == [dead]
    # Temp files of live writers stay: this process's and its parent's.
    for pid in (os.getpid(), os.getppid()):
        open(os.path.join(directory, f".tmp-other-{pid}"), "w").close()
    before = len(os.listdir(directory))
    (SegmentStore if store_kind == "segment" else CheckpointStore)(directory)
    after = os.listdir(directory)
    assert len(after) == before - 1
    assert dead not in after
    assert sweep_temp_files(directory) == 0
