"""The ``seg-NNNNNNNN.dpqs`` segment file: one immutable window of counts.

A segment is the durable form of one flush of the aggregation tree —
the *delta* of ``(path, count, gap_count, epoch)`` rows accumulated
over a wall-clock window ``[t_lo, t_hi)``. Segments are append-only:
once written they are never modified, so any query answer computed
over a set of segments is reproducible forever (the property the
chaos harness asserts across crash/recovery).

File format: the line records, footer and atomic replace of
:mod:`repro.durable` (``docs/RESILIENCE.md``, "Durable files"). Record
kinds, in file order:

* ``header`` — format version, the window (``t_lo``/``t_hi``), the
  SHA-256 plan fingerprint the counts were decoded under, and the row
  count;
* ``names`` and ``nodes`` — the context paths as one prefix trie
  (packed sections; a path is the id of its trie leaf, mirroring the
  in-memory :class:`~repro.service.store.ContextStore`);
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

Beyond the framing, a file is valid only if every section unpacks and
passes its inner CRC, the trie passes :func:`~repro.durable.
valid_trie`, the index matches the rows, and the footer agrees with the
observed totals. A torn write (crash mid-file), bit rot, or a tampered
index disqualifies the file — readers skip it (counted in
``query.segments_rejected``) rather than serving garbage.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
    rows = state.rows
    names, nodes_flat, pids = delta_encode_rows(rows)
    records = [
        {
            "kind": "header",
            "version": FORMAT_VERSION,
            "t_lo": state.t_lo,
            "t_hi": state.t_hi,
            "fingerprint": state.fingerprint,
            "rows": len(rows),
            "spans": len(state.spans),
        },
        {"kind": "names", **pack_section(names)},
        {"kind": "nodes", **pack_section(nodes_flat)},
        {"kind": "index", **pack_section(_build_postings(nodes_flat, pids))},
        {"kind": "spans", **pack_section([[lo, hi] for lo, hi in state.spans])},
        *row_records([
            [pid, row[1], row[2], row[3], span]
            for pid, row, span in zip(pids, rows, state.row_spans)
        ]),
    ]
    footer = {"rows": len(rows), "samples": state.total_samples}
    try:
        final = write_records(
            os.path.join(directory, segment_name(seq)), records, footer,
            fault=fault,
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
    path table, index-vs-rows equivalence, and footer totals must all
    hold — anything less and the file is treated as absent.
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
    the file once can hash and validate the very same bytes.
    """
    read = read_records(data, "header", _READABLE_VERSIONS)
    if read is None:
        return None
    header, body, footer = read
    version = header["version"]
    t_lo, t_hi = header.get("t_lo"), header.get("t_hi")
    if not isinstance(t_lo, (int, float)) or not isinstance(t_hi, (int, float)):
        return None
    kinds = ("names", "nodes", "index")
    split = split_body(body, kinds + ("spans",) if version >= 2 else kinds)
    if split is None:
        return None  # an unknown record, or spans in a v1 file
    sections, raw_rows = split
    rows: List[Tuple[object, int, int, int, int]] = []
    try:
        for row in raw_rows:
            if version >= 2:
                pid, count, gaps, epoch, span = row
            else:
                pid, count, gaps, epoch = row
                span = 0
            rows.append((pid, int(count), int(gaps), int(epoch), int(span)))
    except (TypeError, ValueError):
        return None
    names, nodes_flat = sections.get("names"), sections.get("nodes")
    pids = [row[0] for row in rows]
    if not valid_trie(names, nodes_flat, pids):
        return None
    index = sections.get("index")
    if version >= 2:
        spans = sections.get("spans")
        if not isinstance(spans, list) or not all(
            isinstance(s, list)
            and len(s) == 2
            and all(isinstance(v, (int, float)) for v in s)
            for s in spans
        ):
            return None
        span_windows = [(float(lo), float(hi)) for lo, hi in spans]
        if header.get("spans") != len(span_windows):
            return None
    else:
        span_windows = [(float(t_lo), float(t_hi))]
    if footer.get("rows") != len(rows) or header.get("rows") != len(rows):
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
    paths = trie_paths(names, nodes_flat)
    try:
        state = SegmentState(
            t_lo=float(t_lo),
            t_hi=float(t_hi),
            fingerprint=str(header.get("fingerprint", "")),
            rows=tuple(
                (paths[pid] if pid >= 0 else (), count, gaps, epoch)
                for pid, count, gaps, epoch, _span in rows
            ),
            spans=tuple(span_windows),
            row_spans=tuple(row[4] for row in rows),
        )
    except QueryError:
        # An inverted window or span, a negative count, a dangling
        # span id: the state refuses what no writer made.
        return None
    if footer.get("samples") != state.total_samples:
        return None
    return Segment(path, seq, state, list(names), postings)
