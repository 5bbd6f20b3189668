"""The ``seg-NNNNNNNN.dpqs`` segment file: one immutable window of counts.

A segment is the durable form of one flush of the aggregation tree —
the *delta* of ``(path, count, gap_count, epoch)`` rows accumulated
over a wall-clock window ``[t_lo, t_hi)``. Segments are append-only:
once written they are never modified, so any query answer computed
over a set of segments is reproducible forever (the property the
chaos harness asserts across crash/recovery).

File format — line-oriented checksummed records, one per line, exactly
the PR 5 checkpoint discipline (the helpers are imported from
:mod:`repro.resilience.checkpoint` so the formats cannot drift):

    ``<crc32 of payload, 8 hex chars> <payload JSON>``

Record kinds, in file order:

* ``header`` — format version, the window (``t_lo``/``t_hi``), the
  SHA-256 plan fingerprint the counts were decoded under, and the row
  count;
* ``names`` — distinct function names (zlib+base64 packed section with
  an inner CRC32);
* ``nodes`` — the prefix-trie topology as a flat
  ``[parent, name_id, ...]`` list (a path is the id of its trie leaf,
  mirroring the in-memory :class:`~repro.service.store.ContextStore`);
* ``index`` — the inverted index: ``[[name_id, [row, ...]], ...]``
  sorted posting lists mapping each function to the rows whose context
  contains it. The index is *verified on load* by rebuilding it from
  the rows — a segment whose postings lie is invalid, full stop;
* ``spans`` (format v2) — the list of ``[t_lo, t_hi]`` sub-windows the
  rows are attributed to. A freshly flushed delta segment has exactly
  one span (its own window); a *compacted* segment carries one span
  per merged input so that windowed queries keep answering
  byte-identically: each row belongs to the span of the delta it came
  from, never to the merged envelope;
* ``rows`` — batches of compact ``[pid, count, gap_count, epoch,
  span]`` rows (format v1 files carry 4-column rows and load as a
  single implicit span covering the whole window);
* ``footer`` — the record/row/sample totals actually written.

A file is valid only if every line's checksum matches, the header
parses, every section unpacks and passes its inner CRC, every pid
resolves, the index matches the rows, and the footer agrees with the
observed totals. A torn write (crash mid-file), bit rot, or a tampered
index disqualifies the file — readers skip it (counted in
``query.segments_rejected``) rather than serving garbage.

Durability on write: serialize to ``.tmp-seg-*`` in the same
directory, fsync, ``os.replace`` onto the final name, fsync the
directory. The ``fault`` hook (chaos) abandons the temp file
un-renamed, modelling a crash mid-flush.
"""

from __future__ import annotations

import io
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import QueryError
from repro.resilience.checkpoint import (
    delta_decode_path,
    delta_encode_rows,
    fsync_dir,
    pack_section,
    parse_record_line,
    record_line,
    unpack_section,
)

__all__ = [
    "FORMAT_VERSION",
    "Segment",
    "SegmentState",
    "load_segment",
    "parse_segment",
    "segment_name",
    "sequence_of",
    "span_overlaps",
    "write_segment",
]

FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_PREFIX = "seg-"
_SUFFIX = ".dpqs"
_TMP_PREFIX = ".tmp-seg-"
_ROWS_PER_RECORD = 512


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


@dataclass(frozen=True)
class SegmentState:
    """The logical content of one segment (what gets written/read).

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
        if self.t_hi < self.t_lo:
            raise QueryError(
                f"segment window is inverted: t_lo={self.t_lo} > "
                f"t_hi={self.t_hi}"
            )
        normalized = []
        for row in self.rows:
            path, count, gaps, epoch = (
                tuple(row[0]), int(row[1]), int(row[2]), int(row[3])
            )
            if count < 0 or gaps < 0:
                raise QueryError(f"segment row has negative counts: {row!r}")
            normalized.append((path, count, gaps, epoch))
        object.__setattr__(self, "rows", tuple(normalized))
        spans = tuple(
            (float(lo), float(hi)) for lo, hi in self.spans
        ) or ((float(self.t_lo), float(self.t_hi)),)
        row_spans = tuple(int(s) for s in self.row_spans)
        if not row_spans:
            row_spans = (0,) * len(normalized)
        if len(row_spans) != len(normalized):
            raise QueryError(
                f"segment has {len(normalized)} rows but "
                f"{len(row_spans)} span assignments"
            )
        for lo, hi in spans:
            if hi < lo:
                raise QueryError(f"segment span is inverted: [{lo}, {hi})")
            if lo < self.t_lo or hi > self.t_hi:
                raise QueryError(
                    f"segment span [{lo}, {hi}) escapes the envelope "
                    f"[{self.t_lo}, {self.t_hi})"
                )
        if spans:
            if min(lo for lo, _ in spans) != self.t_lo or max(
                hi for _, hi in spans
            ) != self.t_hi:
                raise QueryError(
                    "segment spans do not cover the window envelope"
                )
        for span_id in row_spans:
            if not 0 <= span_id < len(spans):
                raise QueryError(f"segment row cites unknown span {span_id}")
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
    """``[[name_id, [row, ...]], ...]`` — function → rows containing it.

    Built from the delta-encoded form (walking the trie from each leaf)
    so the index and the rows derive from the same bytes.
    """
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
    """One loaded, validated segment plus its inverted index."""

    __slots__ = ("path", "seq", "state", "_postings", "_name_ids", "_names")

    def __init__(
        self,
        path: str,
        seq: int,
        state: SegmentState,
        names: List[str],
        postings: Dict[int, Tuple[int, ...]],
    ):
        self.path = path
        self.seq = seq
        self.state = state
        self._names = names
        self._name_ids = {name: i for i, name in enumerate(names)}
        self._postings = postings

    # -- window ---------------------------------------------------------
    @property
    def t_lo(self) -> float:
        return self.state.t_lo

    @property
    def t_hi(self) -> float:
        return self.state.t_hi

    def overlaps(self, t_lo: float, t_hi: float) -> bool:
        """Half-open window intersection: ``[t_lo, t_hi)`` vs this one.

        A zero-width segment (flush with no time elapsed) still counts
        as inside any window containing its instant.
        """
        return span_overlaps(self.t_lo, self.t_hi, t_lo, t_hi)

    @property
    def spans(self) -> Tuple[Tuple[float, float], ...]:
        return self.state.spans

    # -- content --------------------------------------------------------
    @property
    def rows(self) -> Tuple[Tuple[Tuple[str, ...], int, int, int], ...]:
        return self.state.rows

    @property
    def samples(self) -> int:
        return self.state.total_samples

    @property
    def fingerprint(self) -> str:
        return self.state.fingerprint

    def functions(self) -> List[str]:
        """Every function appearing in this segment (indexed order)."""
        return [self._names[name_id] for name_id in sorted(self._postings)]

    def rows_through(self, function: str) -> Tuple[int, ...]:
        """Row indices whose context contains ``function`` (via index)."""
        name_id = self._name_ids.get(function)
        if name_id is None:
            return ()
        return self._postings.get(name_id, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(seq={self.seq}, window=[{self.t_lo:.3f}, "
            f"{self.t_hi:.3f}), rows={len(self.rows)})"
        )


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------
def write_segment(
    directory: str,
    seq: int,
    state: SegmentState,
    fault: Optional[Callable[[int], None]] = None,
) -> str:
    """Durably write ``state`` as segment ``seq``; returns the path.

    ``fault`` (chaos) is called with the running record count after
    each record; raising from it abandons the temp file un-renamed, so
    readers only ever see previous, complete segments.
    """
    start = time.perf_counter()
    final = os.path.join(directory, segment_name(seq))
    tmp = os.path.join(directory, f"{_TMP_PREFIX}{seq:08d}-{os.getpid()}")
    records = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(record_line({
                "kind": "header",
                "version": FORMAT_VERSION,
                "t_lo": state.t_lo,
                "t_hi": state.t_hi,
                "fingerprint": state.fingerprint,
                "rows": len(state.rows),
                "spans": len(state.spans),
            }))
            records += 1
            if fault is not None:
                fault(records)
            rows = list(state.rows)
            names, nodes_flat, pids = delta_encode_rows(rows)
            index = _build_postings(nodes_flat, pids)
            spans = [[lo, hi] for lo, hi in state.spans]
            for kind, section in (
                ("names", names),
                ("nodes", nodes_flat),
                ("index", index),
                ("spans", spans),
            ):
                payload = {"kind": kind}
                payload.update(pack_section(section))
                fh.write(record_line(payload))
                records += 1
                if fault is not None:
                    fault(records)
            for lo in range(0, len(rows), _ROWS_PER_RECORD):
                chunk = rows[lo:lo + _ROWS_PER_RECORD]
                fh.write(record_line({
                    "kind": "rows",
                    "rows": [
                        [
                            pids[lo + i],
                            row[1],
                            row[2],
                            row[3],
                            state.row_spans[lo + i],
                        ]
                        for i, row in enumerate(chunk)
                    ],
                }))
                records += 1
                if fault is not None:
                    fault(records)
            fh.write(record_line({
                "kind": "footer",
                "records": records + 1,
                "rows": len(rows),
                "samples": state.total_samples,
            }))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        obs.counter("query.segment_write_failures").inc()
        raise
    fsync_dir(directory)
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

    Validation is total: line checksums, header shape, section CRCs,
    pid resolution, index-vs-rows equivalence, and footer totals must
    all hold — anything less and the file is treated as absent.
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
    would (UTF-8, universal newlines), so a caller that reads the file
    once can hash and validate the very same bytes.
    """
    try:
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    except UnicodeDecodeError:
        return None
    if not lines:
        return None
    header = parse_record_line(lines[0])
    if header is None or header.get("kind") != "header":
        return None
    version = header.get("version")
    if version not in _READABLE_VERSIONS:
        return None
    t_lo, t_hi = header.get("t_lo"), header.get("t_hi")
    if not isinstance(t_lo, (int, float)) or not isinstance(t_hi, (int, float)):
        return None
    if t_hi < t_lo:
        return None
    names: Optional[list] = None
    nodes_flat: Optional[list] = None
    index: Optional[list] = None
    spans: Optional[list] = None
    compact_rows: List[Tuple[object, int, int, int, int]] = []
    footer = None
    for line in lines[1:]:
        payload = parse_record_line(line)
        if payload is None:
            return None
        if footer is not None:
            return None  # records after the footer: corrupt
        kind = payload.get("kind")
        if kind == "rows":
            try:
                for row in payload["rows"]:
                    if version >= 2:
                        pid, count, gaps, epoch, span = row
                    else:
                        pid, count, gaps, epoch = row
                        span = 0
                    compact_rows.append(
                        (pid, int(count), int(gaps), int(epoch), int(span))
                    )
            except (KeyError, TypeError, ValueError):
                return None
        elif kind == "spans":
            if version < 2:
                return None  # a v1 file has no spans section
            spans = unpack_section(payload)
            if not isinstance(spans, list) or not all(
                isinstance(s, list)
                and len(s) == 2
                and all(isinstance(v, (int, float)) for v in s)
                for s in spans
            ):
                return None
        elif kind == "names":
            names = unpack_section(payload)
            if not isinstance(names, list) or not all(
                isinstance(n, str) for n in names
            ):
                return None
        elif kind == "nodes":
            nodes_flat = unpack_section(payload)
            if (
                not isinstance(nodes_flat, list)
                or len(nodes_flat) % 2
                or not all(isinstance(v, int) for v in nodes_flat)
            ):
                return None
        elif kind == "index":
            index = unpack_section(payload)
            if not isinstance(index, list):
                return None
        elif kind == "footer":
            footer = payload
        else:
            return None
    if footer is None or names is None or nodes_flat is None or index is None:
        return None  # torn write: a section or the footer never landed
    if version >= 2:
        if spans is None:
            return None  # torn write: the spans section never landed
        span_windows = [(float(lo), float(hi)) for lo, hi in spans]
        if header.get("spans") != len(span_windows):
            return None
    else:
        span_windows = [(float(t_lo), float(t_hi))]
    rows: List[tuple] = []
    pids: List[int] = []
    row_spans: List[int] = []
    for pid, count, gaps, epoch, span in compact_rows:
        decoded = delta_decode_path(pid, nodes_flat, names)
        if decoded is None:
            return None  # dangling pid: corrupt sections
        if count < 0 or gaps < 0:
            return None
        if not 0 <= span < len(span_windows):
            return None  # dangling span id: corrupt sections
        rows.append((decoded, count, gaps, epoch))
        pids.append(pid)
        row_spans.append(span)
    if (
        footer.get("records") != len(lines)
        or footer.get("rows") != len(rows)
        or header.get("rows") != len(rows)
    ):
        return None
    # The index must be exactly what the rows imply — rebuilt here from
    # the same decoded form, then compared. A segment whose postings
    # disagree with its rows is corrupt, not "best effort".
    expected = _build_postings(nodes_flat, pids)
    if index != expected:
        return None
    postings: Dict[int, Tuple[int, ...]] = {
        entry[0]: tuple(entry[1]) for entry in expected
    }
    try:
        state = SegmentState(
            t_lo=float(t_lo),
            t_hi=float(t_hi),
            fingerprint=str(header.get("fingerprint", "")),
            rows=tuple(rows),
            spans=tuple(span_windows),
            row_spans=tuple(row_spans),
        )
    except QueryError:
        return None  # inverted/escaping spans: corrupt sections
    if footer.get("samples") != state.total_samples:
        return None
    return Segment(path, seq, state, list(names), postings)
