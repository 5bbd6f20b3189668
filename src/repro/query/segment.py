"""The ``seg-NNNNNNNN.dpqs`` segment file: one immutable window of counts.

A segment is the durable form of one flush of the aggregation tree —
the *delta* of ``(path, count, gap_count, epoch)`` rows accumulated
over a wall-clock window ``[t_lo, t_hi)``. Segments are append-only:
once written they are never modified, so any query answer computed
over a set of segments is reproducible forever (the property the
chaos harness asserts across crash/recovery).

File format (version 3): the line records, footer and atomic replace
of :mod:`repro.durable` (``docs/RESILIENCE.md``, "Durable files").
Record kinds, in file order:

* ``header`` — format version, the window (``t_lo``/``t_hi``), the
  SHA-256 plan fingerprint the counts were decoded under, and the row
  and span counts;
* ``names`` and ``nodes`` — the context paths as one prefix trie
  (packed sections; a path is the id of its trie node, mirroring the
  in-memory :class:`~repro.service.store.ContextStore`);
* ``spans`` — the list of ``[t_lo, t_hi]`` sub-windows the rows are
  attributed to. A freshly flushed delta segment has exactly one span
  (its own window); a *compacted* segment carries one span per merged
  input so that windowed queries keep answering byte-identically: each
  row belongs to the span of the delta it came from, never to the
  merged envelope;
* ``rows`` — batches of compact ``[pid, count, gap_count, epoch,
  span]`` rows;
* ``footer`` — the record/row/sample totals actually written.

An :class:`EncodedSegment` is a segment as its file holds it, and
:func:`write_segment` frames one as-is: the writer hands it sections
walked straight off its context trie
(:meth:`~repro.service.store.ContextStore.encode_counted`), and
:meth:`SegmentState.encode` encodes path rows for tests, the CLI demo
and query-bench. :func:`parse_segment` validates a file's bytes and
:func:`adopt_segment` the values a write serialized, both through one
function holding every check.

Version-1 and version-2 files still load. They carry an ``index``
record between ``nodes`` and ``spans`` (``[[name_id, [row, ...]],
...]``, each function's rows), which the loader rebuilds from the rows
and compares; version 1 has no ``spans`` and 4-column rows (one
implicit span over the whole window). Version 3 stores no index: which
rows pass through a function is answered from one pass over the trie
(:meth:`Segment.rows_through`), for every version alike.

Beyond the framing, a file is valid only if every section unpacks and
passes its inner CRC, the trie passes :func:`~repro.durable.
valid_trie`, the spans and the header and footer totals agree with the
rows, and (versions 1 and 2) the index matches the rows. A torn write
(crash mid-file), bit rot, or a tampered index disqualifies the file —
readers skip it (counted in ``query.segments_rejected``) rather than
serving garbage.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.durable import (
    delta_encode_rows,
    pack_section,
    read_records,
    row_records,
    split_body,
    trie_paths,
    valid_trie,
    write_records,
)
from repro.errors import QueryError

__all__ = [
    "FORMAT_VERSION",
    "EncodedSegment",
    "Segment",
    "SegmentState",
    "adopt_segment",
    "load_segment",
    "parse_segment",
    "segment_name",
    "sequence_of",
    "span_overlaps",
    "write_segment",
]

FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)
_PREFIX = "seg-"
_SUFFIX = ".dpqs"


def segment_name(seq: int) -> str:
    """The canonical file name of segment ``seq``."""
    return f"{_PREFIX}{seq:08d}{_SUFFIX}"


def sequence_of(name: str) -> Optional[int]:
    """The sequence number behind a segment file name, or None."""
    if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
        return None
    try:
        return int(name[len(_PREFIX):-len(_SUFFIX)])
    except ValueError:
        return None


def _single_span(t_lo: float, t_hi: float) -> Tuple[Tuple[float, float], ...]:
    return ((float(t_lo), float(t_hi)),)


def _layout_error(
    t_lo: float,
    t_hi: float,
    spans: Sequence[Tuple[float, float]],
    counts: Sequence[int],
    gaps: Sequence[int],
    row_spans: Sequence[int],
) -> Optional[str]:
    """What no writer makes, or None: an inverted window or span, a span
    outside the window, spans that do not cover it, a negative count, a
    row citing an unknown span. :class:`SegmentState` raises it and
    :func:`parse_segment` rejects the file for it."""
    if t_hi < t_lo:
        return f"segment window is inverted: t_lo={t_lo} > t_hi={t_hi}"
    if counts and (min(counts) < 0 or min(gaps) < 0):
        row = next(
            i for i, pair in enumerate(zip(counts, gaps)) if min(pair) < 0
        )
        return f"segment row {row} has negative counts"
    for lo, hi in spans:
        if hi < lo:
            return f"segment span is inverted: [{lo}, {hi})"
        if lo < t_lo or hi > t_hi:
            return (
                f"segment span [{lo}, {hi}) escapes the envelope "
                f"[{t_lo}, {t_hi})"
            )
    if min(lo for lo, _ in spans) != t_lo or max(hi for _, hi in spans) != t_hi:
        return "segment spans do not cover the window envelope"
    if row_spans and not 0 <= min(row_spans) <= max(row_spans) < len(spans):
        span_id = next(s for s in row_spans if not 0 <= s < len(spans))
        return f"segment row cites unknown span {span_id}"
    return None


@dataclass(frozen=True)
class SegmentState:
    """The logical content of one segment, paths spelled out.

    ``rows`` normalize on construction to the canonical 4-tuple
    ``(path, count, gap_count, epoch)``; counts are the *delta* over
    the segment's window, not cumulative totals.

    ``spans`` are the sub-windows the rows are attributed to and
    ``row_spans[i]`` is the index into ``spans`` for ``rows[i]``. Both
    default to the trivial single-span form (every row in the
    ``[t_lo, t_hi)`` envelope) so delta flushes and format-v1 files
    need not mention them; the compactor sets one span per merged
    input segment so windowed answers stay byte-identical.
    """

    #: Wall-clock window covered, half-open ``[t_lo, t_hi)``.
    t_lo: float
    t_hi: float
    #: SHA-256 fingerprint of the newest plan the rows decoded under.
    fingerprint: str
    rows: Tuple[Tuple[Tuple[str, ...], int, int, int], ...]
    spans: Tuple[Tuple[float, float], ...] = ()
    row_spans: Tuple[int, ...] = ()

    def __post_init__(self):
        rows = tuple(
            (tuple(row[0]), int(row[1]), int(row[2]), int(row[3]))
            for row in self.rows
        )
        spans = tuple(
            (float(lo), float(hi)) for lo, hi in self.spans
        ) or _single_span(self.t_lo, self.t_hi)
        row_spans = tuple(int(s) for s in self.row_spans) or (0,) * len(rows)
        if len(row_spans) != len(rows):
            raise QueryError(
                f"segment has {len(rows)} rows but "
                f"{len(row_spans)} span assignments"
            )
        error = _layout_error(
            self.t_lo, self.t_hi, spans,
            [row[1] for row in rows], [row[2] for row in rows], row_spans,
        )
        if error is not None:
            raise QueryError(error)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "row_spans", row_spans)

    @property
    def total_samples(self) -> int:
        return sum(row[1] for row in self.rows)

    @property
    def epochs(self) -> Tuple[int, ...]:
        return tuple(sorted({row[3] for row in self.rows}))

    @property
    def multi_span(self) -> bool:
        return len(self.spans) > 1

    def encode(self) -> "EncodedSegment":
        """The file's sections for these rows, in row order
        (:func:`~repro.durable.delta_encode_rows`)."""
        names, nodes, pids = delta_encode_rows(self.rows)
        return EncodedSegment(
            t_lo=self.t_lo,
            t_hi=self.t_hi,
            fingerprint=self.fingerprint,
            names=names,
            nodes=nodes,
            rows=[
                (pid, row[1], row[2], row[3])
                for pid, row in zip(pids, self.rows)
            ],
            spans=self.spans,
            row_spans=self.row_spans,
        )


@dataclass(frozen=True)
class EncodedSegment:
    """A segment as its file holds it: paths left as a trie.

    The twin of :class:`~repro.resilience.checkpoint.EncodedCheckpoint`.
    ``nodes`` is the flat ``[parent, name_id, ...]`` trie over
    ``names``, every parent -1 or an earlier node, and ``rows`` are
    ``(node, count, gap_count, epoch)`` in file order (node -1 is the
    empty context). ``spans`` and ``row_spans`` default to one span
    over the window, as in :class:`SegmentState`. :func:`write_segment`
    frames it as-is, so a writer holding its contexts as a trie never
    builds a path. Nothing here is checked: the read-back of the
    written file is (:func:`adopt_segment` when the file holds the
    bytes written).
    """

    t_lo: float
    t_hi: float
    fingerprint: str
    names: List[str]
    nodes: List[int]
    rows: List[Tuple[int, int, int, int]]
    spans: Tuple[Tuple[float, float], ...] = ()
    row_spans: Tuple[int, ...] = ()

    def __post_init__(self):
        if not self.spans:
            object.__setattr__(
                self, "spans", _single_span(self.t_lo, self.t_hi)
            )
        if not self.row_spans:
            object.__setattr__(self, "row_spans", (0,) * len(self.rows))

    @property
    def total_samples(self) -> int:
        return sum(row[1] for row in self.rows)


def span_overlaps(s_lo: float, s_hi: float, t_lo: float, t_hi: float) -> bool:
    """Half-open intersection of span ``[s_lo, s_hi)`` with a window.

    A zero-width span (flush with no time elapsed) still counts as
    inside any window containing its instant — the same rule
    :meth:`Segment.overlaps` applies to whole segments, so compacting
    N segments into N spans cannot change any windowed answer.
    """
    if s_lo == s_hi:
        return t_lo <= s_lo < t_hi
    return s_lo < t_hi and s_hi > t_lo


def _build_postings(
    nodes_flat: List[int], pids: List[int]
) -> List[List[object]]:
    """``[[name_id, [row, ...]], ...]`` — function → rows containing it:
    the index a version-1 or version-2 file must carry exactly."""
    postings: Dict[int, List[int]] = {}
    for row_idx, pid in enumerate(pids):
        seen: set = set()
        node = pid
        while node != -1:
            name_id = nodes_flat[2 * node + 1]
            if name_id not in seen:
                seen.add(name_id)
                postings.setdefault(name_id, []).append(row_idx)
            node = nodes_flat[2 * node]
    return [[name_id, postings[name_id]] for name_id in sorted(postings)]


class Segment:
    """One loaded, validated segment, held as its file holds it.

    A segment keeps its trie (``names``, the flat ``nodes``) and its
    rows as integer columns: each row's trie node (``pids``), ``counts``,
    ``gaps`` and ``epochs`` (one per row; ``state.epochs`` lists the
    distinct ones), with the row indices bucketed by span
    (``span_rows``), so a windowed read visits only the rows of the
    spans it overlaps. No path is spelled out at load: :attr:`rows` and
    :attr:`state` build the ``(path, count, gaps, epoch)`` form each
    time they are read, and the segment does not keep it.
    """

    __slots__ = (
        "path", "seq", "t_lo", "t_hi", "fingerprint", "spans", "names",
        "nodes", "pids", "counts", "gaps", "epochs", "span_rows",
        "samples", "digest", "_name_ids", "__weakref__",
    )

    def __init__(
        self,
        path: str,
        seq: int,
        t_lo: float,
        t_hi: float,
        fingerprint: str,
        spans: Tuple[Tuple[float, float], ...],
        names: List[str],
        nodes: List[int],
        pids: List[int],
        counts: List[int],
        gaps: List[int],
        epochs: List[int],
        row_spans: Sequence[int],
        digest: Optional[bytes] = None,
    ):
        self.path = path
        self.seq = seq
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.fingerprint = fingerprint
        self.spans = spans
        self.names = names
        self.nodes = nodes
        self.pids = pids
        self.counts = counts
        self.gaps = gaps
        self.epochs = epochs
        #: Samples the rows hold (their counts' sum).
        self.samples = sum(counts)
        #: SHA-256 of the file bytes the segment was validated as.
        self.digest = digest
        self._name_ids = {name: i for i, name in enumerate(names)}
        if len(spans) > 1:
            buckets: List[List[int]] = [[] for _ in spans]
            for row, span_id in enumerate(row_spans):
                buckets[span_id].append(row)
            self.span_rows: Tuple[Sequence[int], ...] = tuple(
                tuple(bucket) for bucket in buckets
            )
        else:
            self.span_rows = (range(len(pids)),)

    # -- window ---------------------------------------------------------
    def overlaps(self, t_lo: float, t_hi: float) -> bool:
        """Half-open window intersection: ``[t_lo, t_hi)`` vs this one.

        A zero-width segment (flush with no time elapsed) still counts
        as inside any window containing its instant.
        """
        return span_overlaps(self.t_lo, self.t_hi, t_lo, t_hi)

    @property
    def row_spans(self) -> Tuple[int, ...]:
        """The span index of each row, in row order."""
        if len(self.span_rows) == 1:
            return (0,) * len(self.pids)
        out = [0] * len(self.pids)
        for span_id, bucket in enumerate(self.span_rows):
            for row in bucket:
                out[row] = span_id
        return tuple(out)

    # -- content --------------------------------------------------------
    @property
    def rows(self) -> Tuple[Tuple[Tuple[str, ...], int, int, int], ...]:
        """``(path, count, gaps, epoch)`` per row, in file order, the
        paths spelled out from the trie on every read."""
        paths = trie_paths(self.names, self.nodes)
        paths.append(())  # node -1, the empty context
        return tuple(zip(
            map(paths.__getitem__, self.pids),
            self.counts, self.gaps, self.epochs,
        ))

    @property
    def state(self) -> SegmentState:
        """The segment's :class:`SegmentState`, built on every read."""
        return SegmentState(
            t_lo=self.t_lo,
            t_hi=self.t_hi,
            fingerprint=self.fingerprint,
            rows=self.rows,
            spans=self.spans,
            row_spans=self.row_spans,
        )

    def functions(self) -> List[str]:
        """Every function on some row's context, in name-id order."""
        nodes = self.nodes
        used = bytearray(len(nodes) // 2 + 1)  # the last slot is node -1
        for pid in self.pids:
            used[pid] = 1
        for node in range(len(nodes) // 2 - 1, -1, -1):
            if used[node]:
                used[nodes[2 * node]] = 1
        name_ids = set(compress(nodes[1::2], used))
        return [self.names[name_id] for name_id in sorted(name_ids)]

    def nodes_through(self, function: str) -> Optional[bytearray]:
        """``marks[node]`` is 1 when ``node``'s context contains
        ``function``; ``marks[-1]``, the empty context, is 0. None when
        no node is named ``function``.

        One pass over the trie from the first node named ``function``:
        a node contains it when its name is ``function`` or its parent
        contains it, and parents precede children.
        """
        name_id = self._name_ids.get(function)
        if name_id is None:
            return None
        nodes = self.nodes
        names = nodes[1::2]
        try:
            node = names.index(name_id)
        except ValueError:
            return None
        marks = bytearray(len(names) + 1)  # the last slot is node -1
        for parent, name in zip(nodes[2 * node::2], names[node:]):
            if name == name_id or marks[parent]:
                marks[node] = 1
            node += 1
        return marks

    def rows_through(self, function: str) -> Tuple[int, ...]:
        """Row indices whose context contains ``function``, ascending."""
        marks = self.nodes_through(function)
        if marks is None:
            return ()
        return tuple(compress(range(len(self.pids)), map(
            marks.__getitem__, self.pids
        )))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(seq={self.seq}, window=[{self.t_lo:.3f}, "
            f"{self.t_hi:.3f}), rows={len(self.pids)})"
        )


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------
def _file_values(
    encoded: EncodedSegment,
) -> Tuple[dict, Dict[str, object], List[tuple], dict]:
    """What the file of ``encoded`` holds before framing: its header,
    its packed sections by kind, its rows and its footer's fields.
    :func:`write_segment` frames exactly these, and
    :func:`adopt_segment` checks exactly these."""
    rows = encoded.rows
    header = {
        "kind": "header",
        "version": FORMAT_VERSION,
        "t_lo": encoded.t_lo,
        "t_hi": encoded.t_hi,
        "fingerprint": encoded.fingerprint,
        "rows": len(rows),
        "spans": len(encoded.spans),
    }
    sections = {
        "names": encoded.names,
        "nodes": encoded.nodes,
        "spans": [list(s) for s in encoded.spans],
    }
    footer = {"rows": len(rows), "samples": encoded.total_samples}
    return header, sections, [
        (*row, span) for row, span in zip(rows, encoded.row_spans)
    ], footer


def write_segment(
    directory: str,
    seq: int,
    encoded: EncodedSegment,
    fault: Optional[Callable[[int], None]] = None,
    digest=None,
) -> str:
    """Durably write ``encoded`` as segment ``seq``; returns the path.

    ``fault`` (chaos) is called with the running record count after
    each record; raising from it abandons the temp file un-renamed, so
    readers only ever see previous, complete segments. ``digest`` (a
    :mod:`hashlib` object) is fed the bytes written
    (:func:`~repro.durable.write_records`).
    """
    start = time.perf_counter()
    header, sections, rows, footer = _file_values(encoded)
    records = [
        header,
        *({"kind": kind, **pack_section(value)}
          for kind, value in sections.items()),
        *row_records(rows),
    ]
    try:
        final = write_records(
            os.path.join(directory, segment_name(seq)), records, footer,
            fault=fault, digest=digest,
        )
    except BaseException:
        obs.counter("query.segment_write_failures").inc()
        raise
    obs.counter("query.segments_written").inc()
    obs.histogram("query.segment_write_us").observe_us(
        (time.perf_counter() - start) * 1e6
    )
    return final


# ----------------------------------------------------------------------
# Read path
# ----------------------------------------------------------------------
def load_segment(path: str, seq: Optional[int] = None) -> Optional[Segment]:
    """Read and validate one segment file; None when invalid.

    Validation is total: the framing, header shape, section CRCs, the
    path table, the spans, footer totals and (versions 1 and 2)
    index-vs-rows equivalence must all hold — anything less and the
    file is treated as absent.
    """
    if seq is None:
        seq = sequence_of(os.path.basename(path))
        if seq is None:
            return None
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    return parse_segment(path, seq, data)


def parse_segment(path: str, seq: int, data: bytes) -> Optional[Segment]:
    """Validate ``data``, the bytes of segment file ``path``; None when
    invalid (see :func:`load_segment`).

    The bytes are decoded exactly as reading the file in text mode
    would (:func:`~repro.durable.read_records`), so a caller that reads
    the file once can hash and validate the very same bytes. Every
    check runs on the trie and the integer row columns; no path is
    spelled out.
    """
    read = read_records(data, "header", _READABLE_VERSIONS)
    if read is None:
        return None
    header, body, footer = read
    version = header["version"]
    kinds = ("names", "nodes")
    if version < 3:
        kinds += ("index",)
    if version >= 2:
        kinds += ("spans",)
    split = split_body(body, kinds)
    if split is None:
        return None  # an unknown record: spans in v1, an index in v3
    sections, raw_rows = split
    return _checked(
        path, seq, header, sections, raw_rows, footer,
        hashlib.sha256(data).digest(),
    )


def adopt_segment(
    path: str, seq: int, encoded: EncodedSegment, digest: bytes
) -> Optional[Segment]:
    """The segment :func:`write_segment` wrote at ``path`` from
    ``encoded``, checked as the values it serialized; None when they
    fail a check :func:`parse_segment` runs.

    Only for a file whose bytes hash to ``digest``, the digest of the
    bytes written for ``encoded``: those bytes decode to these values
    (JSON turns tuples into lists, which no check tells apart), so the
    answer is :func:`parse_segment`'s without decoding a line.
    """
    return _checked(path, seq, *_file_values(encoded), digest)


def _checked(
    path: str,
    seq: int,
    header: dict,
    sections: Dict[str, object],
    raw_rows: Sequence,
    footer: dict,
    digest: bytes,
) -> Optional[Segment]:
    """The :class:`Segment` of a segment file's values, or None when
    they fail a check: the window, rows of 5 columns (4 in version 1)
    with int columns, the trie (:func:`~repro.durable.valid_trie`), the
    spans' shape and the header's span count, the header and footer
    row totals, (versions 1 and 2) the index, :func:`_layout_error` and
    the footer's sample total. The one copy of the checks, for
    :func:`parse_segment` and :func:`adopt_segment` alike."""
    version = header["version"]
    t_lo, t_hi = header.get("t_lo"), header.get("t_hi")
    if not isinstance(t_lo, (int, float)) or not isinstance(t_hi, (int, float)):
        return None
    t_lo, t_hi = float(t_lo), float(t_hi)
    width = 5 if version >= 2 else 4
    try:
        # Rows are read as columns, and zip would cut a long row short.
        if any(map(width.__ne__, map(len, raw_rows))):
            return None
        columns = list(zip(*raw_rows)) or [()] * width
        pids = list(columns[0])
        counts, gaps, epochs = (
            list(map(int, column)) for column in columns[1:4]
        )
        row_spans = (
            list(map(int, columns[4])) if version >= 2 else [0] * len(pids)
        )
    except (TypeError, ValueError):
        return None
    names, nodes_flat = sections.get("names"), sections.get("nodes")
    if not valid_trie(names, nodes_flat, pids):
        return None
    if version >= 2:
        spans = sections.get("spans")
        if not isinstance(spans, list) or not all(
            isinstance(s, list)
            and len(s) == 2
            and all(isinstance(v, (int, float)) for v in s)
            for s in spans
        ):
            return None
        span_windows = tuple((float(lo), float(hi)) for lo, hi in spans)
        if header.get("spans") != len(span_windows):
            return None
    else:
        span_windows = ()
    if footer.get("rows") != len(pids) or header.get("rows") != len(pids):
        return None
    # An older file's index must be exactly what the rows imply —
    # rebuilt here from the same decoded form, then compared. A
    # segment whose postings disagree with its rows is corrupt, not
    # "best effort".
    if version < 3 and sections.get("index") != _build_postings(
        nodes_flat, pids
    ):
        return None
    spans = span_windows or _single_span(t_lo, t_hi)
    if _layout_error(t_lo, t_hi, spans, counts, gaps, row_spans) is not None:
        return None
    seg = Segment(
        path, seq, t_lo, t_hi, str(header.get("fingerprint", "")), spans,
        names, nodes_flat, pids, counts, gaps, epochs, row_spans, digest,
    )
    if footer.get("samples") != seg.samples:
        return None
    return seg
