"""Golden query-store files: the ``dpqs``, ``dpqm``, ``dpqj`` and ``dpqr``
bytes are pinned.

Each file under ``golden/`` is checked three ways: its SHA-256, that
today's writer makes exactly those bytes from the inputs below (files
of an older version — ``v1.dpqs``, ``v2.dpqs`` and the version-1
manifest — were written by older writers and are only loaded), and the
exact values the loader returns.

* ``v3.dpqs`` — a compacted segment: two spans, the empty context
  (pid -1), a gap row, a row whose gaps exceed its count (the segment
  writer's per-component zero clamp emits those), two epochs.
* ``v2.dpqs`` — the same segment as the version-2 writer wrote it, with
  its inverted index.
* ``v1.dpqs`` — the 4-column, spans-less version-1 form.
* ``v2.dpqm`` — a manifest with two live segments, two tombstones and
  a retired-totals name; ``v1.dpqm`` — the version-1 form.
* ``v1.dpqj`` — a compaction intent with an output, a retired name and
  drop counts.
* ``v1.dpqr`` — retired totals with the empty context and two epochs.

Every file stays under about 1 KB so that the corruption fuzz can sweep
each one exhaustively.
"""

import hashlib
import os
import shutil

from repro.query.compact import (
    load_journal,
    load_retired,
    write_journal,
    write_retired,
)
from repro.query.manifest import (
    MANIFEST_NAME,
    load_manifest_info,
    write_manifest,
)
from repro.query.segment import (
    SegmentState,
    load_segment,
    parse_segment,
    write_segment,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SHA256 = {
    "v3.dpqs": "ff8227d9114e5aac8b0bee6b0cc91f4c0dc184b868cb0be2b9a2c5bb1e503714",
    "v2.dpqs": "f38d67806c9a7bd09ccf1698ba6864282866156a6640914da7ef14da0c74bda0",
    "v1.dpqs": "8529202afd1479a28d1a8cbf8beb3419bd5cc365fe9f07ba9acb6f3d0e8fe904",
    "v2.dpqm": "38d8cfe542acfeb7da6a742d681e9f832b9147f9eae5fc2339bc40c0c582761a",
    "v1.dpqm": "bc5e46cef15f7d1a2d3b463523b90983a53d0eb39131e208289c9b441ebbe4d9",
    "v1.dpqj": "a7e2a98f4caddcbf47d49a52e970936e6ceaba04d76c4f1ac6c08435b4b377d1",
    "v1.dpqr": "07d0d32b1503455de0076235327a4985aac0201c19b5572993ce8b494a3dfd0e",
}

#: ``v3.dpqs`` and ``v2.dpqs``: the merged output of two delta segments.
SEGMENT = SegmentState(
    t_lo=100.0,
    t_hi=130.5,
    fingerprint="fp-golden",
    rows=(
        ((), 2, 0, 0),
        (("main", "parse"), 3, 1, 0),
        (("main", "parse", "lex"), 1, 3, 1),
        (("main", "render"), 4, 0, 1),
        (("main", "parse"), 5, 0, 1),
        (("main", "Zeta"), 2, 2, 0),
    ),
    spans=((100.0, 112.25), (112.25, 130.5)),
    row_spans=(0, 0, 0, 1, 1, 1),
)

#: What ``v1.dpqs`` loads as: one implicit span over the header window.
V1_SEGMENT = SegmentState(
    t_lo=0.0,
    t_hi=10.0,
    fingerprint="old",
    rows=((("a", "b"), 5, 1, 0), (("a",), 2, 0, 1)),
)

#: The two live segments ``v2.dpqm`` lists, as ``(seq, state)``.
MANIFEST_SEGMENTS = (
    (5, SegmentState(
        t_lo=0.0, t_hi=10.0, fingerprint="fp-a",
        rows=((("main",), 3, 0, 0), (("main", "f"), 4, 1, 1)),
    )),
    (6, SegmentState(
        t_lo=10.0, t_hi=20.5, fingerprint="fp-b",
        rows=((("main", "g"), 2, 0, 1),),
    )),
)
TOMBSTONES = [
    {"seq": 1, "rows": 3, "samples": 6, "reason": "compacted",
     "generation": 2},
    {"seq": 2, "rows": 1, "samples": 2, "reason": "compacted",
     "generation": 3},
]
RETIRED_NAME = "retired-00000002.dpqr"

#: What ``load_manifest_info`` returns for ``v2.dpqm``.
V2_MANIFEST = {
    "version": 2,
    "generation": 3,
    "entries": [
        {"kind": "segment", "seq": 5, "t_lo": 0.0, "t_hi": 10.0,
         "rows": 2, "samples": 7, "fingerprint": "fp-a"},
        {"kind": "segment", "seq": 6, "t_lo": 10.0, "t_hi": 20.5,
         "rows": 1, "samples": 2, "fingerprint": "fp-b"},
    ],
    "tombstones": [dict(tomb, kind="tombstone") for tomb in TOMBSTONES],
    "retired": RETIRED_NAME,
}

#: What ``load_manifest_info`` returns for ``v1.dpqm``.
V1_MANIFEST = {
    "version": 1,
    "generation": 0,
    "entries": [
        {"kind": "segment", "seq": 1, "t_lo": 0.0, "t_hi": 10.0,
         "rows": 2, "samples": 7, "fingerprint": "old"},
    ],
    "tombstones": [],
    "retired": None,
}

INTENT = {
    "from_generation": 2,
    "to_generation": 3,
    "inputs": [[4, 2, 7], [5, 3, 9]],
    "output_seq": 6,
    "retired": "retired-00000003.dpqr",
    "drop_spans": 1,
    "drop_rows": 2,
    "drop_samples": 5,
}

#: ``v1.dpqr``: retired totals of generation 3.
RETIRED = {
    ((), 0): (2, 0),
    (("main", "parse"), 0): (3, 1),
    (("main", "parse"), 1): (4, 0),
    (("main", "render", "draw"), 1): (1, 2),
}


def golden(name):
    return os.path.join(GOLDEN, name)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def sha256_of(path):
    return hashlib.sha256(read(path)).hexdigest()


def test_every_golden_file_keeps_its_digest():
    for name, digest in SHA256.items():
        assert sha256_of(golden(name)) == digest, name
        assert os.path.getsize(golden(name)) <= 1100, name


# -- segments -----------------------------------------------------------
def test_writer_reproduces_the_v3_segment(tmp_path):
    written = write_segment(str(tmp_path), 1, SEGMENT.encode())
    assert read(written) == read(golden("v3.dpqs"))


def _check_golden_segment(seg):
    assert seg is not None
    assert seg.seq == 1
    assert seg.state == SEGMENT
    assert seg.spans == ((100.0, 112.25), (112.25, 130.5))
    assert seg.state.row_spans == (0, 0, 0, 1, 1, 1)
    assert seg.span_rows == ((0, 1, 2), (3, 4, 5))
    assert seg.samples == 17
    assert seg.state.epochs == (0, 1)
    assert seg.functions() == ["main", "parse", "lex", "render", "Zeta"]
    assert seg.rows_through("parse") == (1, 2, 4)
    assert seg.rows_through("main") == (1, 2, 3, 4, 5)
    assert seg.rows_through("lex") == (2,)
    assert seg.rows_through("nope") == ()


def test_v3_segment_loads_the_expected_values():
    seg = load_segment(golden("v3.dpqs"), seq=1)
    _check_golden_segment(seg)
    assert seg.names == ["main", "parse", "lex", "render", "Zeta"]
    assert seg.nodes == [-1, 0, 0, 1, 1, 2, 0, 3, 0, 4]
    assert seg.pids == [-1, 1, 2, 3, 1, 4]


def test_v2_segment_loads_the_expected_values():
    # Load-only since version 3; its index is still rebuilt and
    # compared, and it answers exactly as the v3 file does.
    seg = load_segment(golden("v2.dpqs"), seq=1)
    _check_golden_segment(seg)
    v3 = load_segment(golden("v3.dpqs"), seq=1)
    assert (seg.names, seg.nodes, seg.pids) == (v3.names, v3.nodes, v3.pids)


def test_v1_segment_loads_the_expected_values():
    data = read(golden("v1.dpqs"))
    seg = parse_segment(golden("v1.dpqs"), 1, data)
    assert seg is not None
    assert seg.state == V1_SEGMENT
    assert seg.spans == ((0.0, 10.0),)
    assert seg.functions() == ["a", "b"]
    assert seg.rows_through("b") == (0,)


# -- manifests ----------------------------------------------------------
def test_writer_reproduces_the_v2_manifest(tmp_path):
    segments = [
        load_segment(write_segment(str(tmp_path), seq, state.encode()))
        for seq, state in MANIFEST_SEGMENTS
    ]
    written = write_manifest(
        str(tmp_path), segments, generation=3, tombstones=TOMBSTONES,
        retired=RETIRED_NAME,
    )
    assert read(written) == read(golden("v2.dpqm"))


def _manifest_info(tmp_path, name):
    shutil.copy(golden(name), os.path.join(str(tmp_path), MANIFEST_NAME))
    return load_manifest_info(str(tmp_path))


def test_v2_manifest_loads_the_expected_values(tmp_path):
    assert _manifest_info(tmp_path, "v2.dpqm") == V2_MANIFEST


def test_v1_manifest_loads_the_expected_values(tmp_path):
    assert _manifest_info(tmp_path, "v1.dpqm") == V1_MANIFEST


# -- the compaction journal ---------------------------------------------
def test_writer_reproduces_the_journal(tmp_path):
    written = write_journal(str(tmp_path), dict(INTENT))
    assert read(written) == read(golden("v1.dpqj"))


def test_journal_loads_the_expected_values(tmp_path):
    shutil.copy(golden("v1.dpqj"), os.path.join(str(tmp_path), "compact.dpqj"))
    assert load_journal(str(tmp_path)) == dict(
        INTENT, kind="compact-intent", version=1
    )


# -- retired totals -----------------------------------------------------
def test_writer_reproduces_the_retired_totals(tmp_path):
    written = write_retired(str(tmp_path), 3, dict(RETIRED))
    assert read(written) == read(golden("v1.dpqr"))


def test_retired_totals_load_the_expected_values():
    assert load_retired(golden("v1.dpqr")) == RETIRED
