"""Generation-based segment compaction and retention for one directory.

The append-only store grows one delta segment per checkpoint tick,
forever. This module folds that history back down without ever
changing an answer:

* **Compaction** merges live segments into cumulative segments. A
  merged file keeps *one span per input span* (see
  :mod:`repro.query.segment`), so every windowed query — including the
  half-window and diff shapes the chaos oracle pins — sums exactly the
  same rows before and after: byte-identical answers, fewer files,
  names/trie deduplicated across spans.
* **Retention** ages history out under explicit caps
  (``max_segments`` / ``max_bytes`` / ``max_age_s``). Deletions are
  counted, never silent: every removed file leaves a manifest
  tombstone, and every removed *row* is added to the cumulative
  retired-totals sidecar (``retired-GGGGGGGG.dpqr``) so a recovered
  writer reconciling against the store does not re-emit history that
  was deliberately dropped. Which spans retire is decided once per
  call over all live spans, oldest first, whatever the layout.

What a call rewrites depends on how it was asked:

* **Full swap** — ``force=True`` (the CLI's ``--compact``), and every
  call under a policy with no byte or age cap: all live segments merge
  into one, less the retired spans.
* **Tiered swaps** — a call that is not forced, under a byte or age
  cap, rewrites only what changed. It plans runs of time-adjacent
  segments, each becoming one output, and leaves every other file as
  it is (:meth:`Compactor._tiers`):

  1. the *trim run*, the segments holding a retired span: rewritten
     with the spans they keep, or deleted with no rewrite when they
     keep none;
  2. the *young run*, the newest writer deltas (one span each, not
     written by a swap: the manifest marks every swap's output), merged
     once ``min_inputs`` of them have accumulated;
  3. while more than ``max_segments`` files would remain, the adjacent
     pair with the fewest rows, merged.

  Each run is its own generation swap, the trim run's first; the
  journal's ``inputs`` name only that run's segments.

Every mutation is one **generation swap** executed under the exclusive
:class:`~repro.query.locks.DirectoryLock`, each file written by the one
atomic writer of :mod:`repro.durable` (``docs/RESILIENCE.md``,
"Durable files"), in this order:

1. write the new retired-totals file (if retention dropped rows);
2. write the CRC'd **intent journal** (``compact.dpqj``) durably —
   the declaration "generation G+1 = these inputs → this output";
3. write the merged output segment (temp/fsync/rename);
4. commit: rewrite the manifest with ``generation = G+1``, the output
   plus every live segment the swap did not take (untouched ones and
   those appended mid-swap), and tombstones for the inputs — the
   manifest rename *is* the commit point;
5. delete the input files (skipping any a live reader pin still
   protects — deferred deletions stay tombstoned and are retried),
   then remove the journal.

A SIGKILL at **any byte** of that sequence leaves either the old
generation or the new one, never a blend: before the commit rename the
old manifest still rules and readers quarantine the journal's
uncommitted output; after it the inputs are tombstoned. The next
mutator (or :meth:`Compactor.recover`) rolls the journal forward when
its output validates completely, backward otherwise. A call that
commits several swaps keeps the sidecar the manifest named when the
call began until the next call, as a single swap keeps its previous
one: a reader refreshed before the call may still resolve that name.

A swap spells no path. Planning reads each live segment's integer
columns (``pids``, ``counts``, ``span_rows``); a span is its segment and
row indices. The merged segment is built in one pass over the retained
spans' rows, each input trie node mapped to an output node the first
time a row reaches it (:class:`~repro.durable.TrieMerge`), which is the
numbering :func:`~repro.durable.delta_encode_rows` gives the spelled
rows. The retired sidecar maps the previous sidecar's trie and the
dropped spans' tries into one scratch
:class:`~repro.service.store.ContextStore`, sums counts by ``(pid,
epoch)`` and takes its sections from
:meth:`~repro.service.store.ContextStore.encode_counted`. Both files
are byte for byte what the path-keyed encoders
(:meth:`~repro.query.segment.SegmentState.encode`,
:func:`write_retired`) make of the spelled rows; those stay as the
references the tests hold the compactor to. Nothing mapped outlives
the swap.

Both files are read back after their rename and hashed. Bytes equal to
those just written are checked as the values that were serialized
(:func:`~repro.query.segment.adopt_segment`, :func:`adopt_retired_rows`:
the parsers' checks, one copy of each), so the commit hands the store a
segment and a sidecar nobody decodes again; other bytes are parsed.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.durable import (
    TrieMerge,
    delta_encode_rows,
    fsync_dir,
    load_records,
    pack_section,
    read_records,
    row_records,
    split_body,
    trie_paths,
    valid_trie,
    write_records,
)
from repro.errors import QueryError
from repro.query.locks import (
    DEFAULT_LEASE_S,
    DirectoryLock,
    LockHeldError,
    live_pins,
)
from repro.query.manifest import SegmentStore, load_manifest_info
from repro.query.segment import (
    EncodedSegment,
    Segment,
    load_segment,
    segment_name,
)
from repro.service.store import ContextStore

__all__ = [
    "CompactionPolicy",
    "Compactor",
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "RETIRED_VERSION",
    "RetentionPolicy",
    "RetiredRows",
    "adopt_retired_rows",
    "journal_quarantine",
    "load_journal",
    "load_retired",
    "load_retired_rows",
    "retired_name",
    "write_journal",
    "write_retired",
    "write_retired_encoded",
]

JOURNAL_NAME = "compact.dpqj"
JOURNAL_VERSION = 1
RETIRED_VERSION = 1
_RETIRED_PREFIX = "retired-"
_RETIRED_SUFFIX = ".dpqr"
#: Manifest tombstones kept after their file is confirmed deleted.
_TOMBSTONE_KEEP = 64

_Key = Tuple[Tuple[str, ...], int]  # (path, epoch)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetentionPolicy:
    """Caps on what the directory may keep. ``None`` = unbounded.

    * ``max_segments`` — cap on live segment *files*; exceeding it
      makes a compaction due (merging satisfies any cap >= 1).
    * ``max_bytes`` — cap on live on-disk bytes; the oldest spans are
      dropped (their rows retired) until the estimate fits.
    * ``max_age_s`` — spans whose whole window is older than
      ``now - max_age_s`` are dropped.
    * ``keep_spans`` — the newest N spans survive every cap, so a
      retention sweep can never empty the store entirely.
    """

    max_segments: Optional[int] = None
    max_bytes: Optional[int] = None
    max_age_s: Optional[float] = None
    keep_spans: int = 1

    def __post_init__(self):
        if self.max_segments is not None and self.max_segments < 1:
            raise QueryError("retention max_segments must be >= 1")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise QueryError("retention max_bytes must be >= 1")
        if self.max_age_s is not None and self.max_age_s <= 0:
            raise QueryError("retention max_age_s must be positive")
        if self.keep_spans < 0:
            raise QueryError("retention keep_spans must be >= 0")

    @property
    def bounded(self) -> bool:
        return (
            self.max_segments is not None
            or self.max_bytes is not None
            or self.max_age_s is not None
        )


@dataclass(frozen=True)
class CompactionPolicy:
    """When to merge and what to retain."""

    #: Merge as soon as this many live segments have accumulated.
    min_inputs: int = 4
    retention: RetentionPolicy = field(default_factory=RetentionPolicy)
    #: Lease on the directory lock (and the staleness horizon at which
    #: contenders may break it).
    lease_s: float = DEFAULT_LEASE_S

    def __post_init__(self):
        if self.min_inputs < 2:
            raise QueryError("compaction min_inputs must be >= 2")


# ----------------------------------------------------------------------
# Intent journal
# ----------------------------------------------------------------------
def write_journal(
    directory: str,
    intent: dict,
    fault: Optional[Callable[[int], None]] = None,
) -> str:
    """Durably declare a generation swap before performing it.

    The atomic replace means a crash mid-write leaves *no* journal
    (clean roll-back: the swap never started), never a torn one.
    """
    header = {"kind": "compact-intent", "version": JOURNAL_VERSION}
    header.update(intent)
    return write_records(
        os.path.join(directory, JOURNAL_NAME), [header], fault=fault
    )


def load_journal(directory: str) -> Optional[dict]:
    """The pending swap intent, or None when absent or untrustworthy.

    Validation is total, mirroring segments: any torn line, bad CRC,
    malformed header/footer, alien kind, extra record, or unknown
    version rejects the file (counted in ``query.journal_rejected`` by
    callers that then discard it).
    """
    read = load_records(
        os.path.join(directory, JOURNAL_NAME),
        "compact-intent",
        (JOURNAL_VERSION,),
    )
    if read is None:
        return None
    header, body, _footer = read
    if body:
        return None  # a journal is its header and footer alone
    from_gen = header.get("from_generation")
    to_gen = header.get("to_generation")
    if not isinstance(from_gen, int) or not isinstance(to_gen, int):
        return None
    if from_gen < 0 or to_gen != from_gen + 1:
        return None
    inputs = header.get("inputs")
    if not isinstance(inputs, list):
        return None
    for entry in inputs:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(v, int) and v >= 0 for v in entry)
        ):
            return None
    output_seq = header.get("output_seq")
    if output_seq is not None and not isinstance(output_seq, int):
        return None
    retired = header.get("retired")
    if retired is not None and not isinstance(retired, str):
        return None
    for key in ("drop_spans", "drop_rows", "drop_samples"):
        value = header.get(key)
        if not isinstance(value, int) or value < 0:
            return None
    return header


def journal_pending(directory: str) -> bool:
    return os.path.exists(os.path.join(directory, JOURNAL_NAME))


def journal_quarantine(
    directory: str, generation: Optional[int]
) -> Set[int]:
    """Which segment seqs a reader must skip to see *one* generation.

    ``generation`` is the manifest generation the reader loaded, or
    None when the manifest could not be trusted (fallback scan).

    * Intent newer than the manifest → the output is uncommitted:
      skip it, serve the inputs (the old generation still rules).
    * Intent at or behind the manifest → the swap committed; the
      inputs are tombstoned by the manifest itself, nothing to do.
    * No manifest at all → serve exactly one side: the output when it
      validates *and* the swap dropped nothing (the two sides answer
      identically), otherwise the inputs.
    """
    journal = load_journal(directory)
    if journal is None:
        return set()
    output_seq = journal.get("output_seq")
    if generation is not None:
        if journal["to_generation"] > generation and output_seq is not None:
            return {int(output_seq)}
        return set()
    input_seqs = {int(entry[0]) for entry in journal["inputs"]}
    if output_seq is not None and journal.get("drop_rows", 0) == 0:
        seg = load_segment(
            os.path.join(directory, segment_name(output_seq)), output_seq
        )
        if seg is not None:
            return input_seqs
    return {int(output_seq)} if output_seq is not None else set()


# ----------------------------------------------------------------------
# Retired totals sidecar
# ----------------------------------------------------------------------
def retired_name(generation: int) -> str:
    return f"{_RETIRED_PREFIX}{generation:08d}{_RETIRED_SUFFIX}"


def retired_generation_of(name: str) -> Optional[int]:
    if not (
        name.startswith(_RETIRED_PREFIX) and name.endswith(_RETIRED_SUFFIX)
    ):
        return None
    try:
        return int(name[len(_RETIRED_PREFIX):-len(_RETIRED_SUFFIX)])
    except ValueError:
        return None


def write_retired(
    directory: str,
    generation: int,
    totals: Dict[_Key, Tuple[int, int]],
    fault: Optional[Callable[[int], None]] = None,
) -> str:
    """Durably write the cumulative retired ``{(path, epoch): (count,
    gaps)}`` totals for ``generation``: the path-keyed front end of
    :func:`write_retired_encoded`.

    Rows are sorted as ``(path, count, gaps, epoch)`` tuples and
    encoded with :func:`~repro.durable.delta_encode_rows`. The
    compactor writes the same bytes from its tries; this form is the
    reference the golden files and tests hold it to.
    """
    rows = sorted(
        (path, count, gaps, epoch)
        for (path, epoch), (count, gaps) in totals.items()
    )
    names, nodes_flat, pids = delta_encode_rows(rows)
    return write_retired_encoded(
        directory, generation, names, nodes_flat,
        [(pid, row[1], row[2], row[3]) for pid, row in zip(pids, rows)],
        fault=fault,
    )


def _retired_file(
    generation: int,
    names: List[str],
    nodes: List[int],
    rows: List[Tuple[int, int, int, int]],
) -> Tuple[dict, Dict[str, object], List[Tuple[int, int, int, int]], dict]:
    """What the sidecar of ``generation`` holds before framing: its
    header, its packed sections by kind, its rows (JSON writes a tuple
    as a list) and its footer's fields. :func:`write_retired_encoded`
    frames exactly these, and :func:`adopt_retired_rows` checks exactly
    these."""
    header = {
        "kind": "retired",
        "version": RETIRED_VERSION,
        "generation": int(generation),
        "rows": len(rows),
    }
    footer = {"rows": len(rows), "samples": sum(row[1] for row in rows)}
    return header, {"names": names, "nodes": nodes}, rows, footer


def write_retired_encoded(
    directory: str,
    generation: int,
    names: List[str],
    nodes: List[int],
    rows: List[Tuple[int, int, int, int]],
    fault: Optional[Callable[[int], None]] = None,
    digest=None,
) -> str:
    """Durably write the retired sidecar of ``generation`` as its file
    holds it: the ``names`` and flat ``nodes`` trie and ``(node, count,
    gaps, epoch)`` rows, framed as-is. ``digest`` (a :mod:`hashlib`
    object) is fed the bytes written.

    Same trie encoding as segment rows so the formats cannot drift.
    Queries do not serve it; recovery does: a service whose checkpoint
    points into this directory rebuilds its tree from the live segments
    plus this sidecar (:func:`load_retired_rows`), so history retention
    deleted stays counted and is never written again.
    """
    header, sections, raw_rows, footer = _retired_file(
        generation, names, nodes, rows
    )
    records = [
        header,
        *({"kind": kind, **pack_section(value)}
          for kind, value in sections.items()),
        *row_records(raw_rows),
    ]
    return write_records(
        os.path.join(directory, retired_name(generation)), records, footer,
        fault=fault, digest=digest,
    )


@dataclass(frozen=True)
class RetiredRows:
    """A retired-totals sidecar as its file holds it: the ``names`` and
    flat ``nodes`` trie and ``(node, count, gaps, epoch)`` rows, ready
    for :meth:`~repro.service.shards.ShardedContextTree.restore_trie`.
    ``samples`` is the rows' count sum. No path is spelled at load:
    :attr:`paths` and :meth:`totals` spell them on every read."""

    names: List[str]
    nodes: List[int]
    rows: List[Tuple[int, int, int, int]]
    samples: int

    @property
    def paths(self) -> List[Tuple[str, ...]]:
        """The path of every trie node, built on every read."""
        return trie_paths(self.names, self.nodes)

    def totals(self) -> Dict[_Key, Tuple[int, int]]:
        """``{(path, epoch): (count, gaps)}``, one entry per row."""
        paths = self.paths
        return {
            (paths[pid] if pid >= 0 else (), epoch): (count, gaps)
            for pid, count, gaps, epoch in self.rows
        }


def load_retired_rows(path: str) -> Optional[RetiredRows]:
    """Parse and fully validate a retired-totals file, its rows left on
    the file's trie; None when bad."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    return _parse_retired_rows(data)


def _parse_retired_rows(data: bytes) -> Optional[RetiredRows]:
    """:func:`load_retired_rows` of a sidecar file's bytes."""
    read = read_records(data, "retired", (RETIRED_VERSION,))
    if read is None:
        return None
    header, body, footer = read
    split = split_body(body, ("names", "nodes"))
    if split is None:
        return None
    sections, raw_rows = split
    return _checked_retired(header, sections, raw_rows, footer)


def adopt_retired_rows(
    generation: int,
    names: List[str],
    nodes: List[int],
    rows: List[Tuple[int, int, int, int]],
) -> Optional[RetiredRows]:
    """The sidecar :func:`write_retired_encoded` wrote from these
    sections, checked as the values it serialized; None when they fail
    a check :func:`load_retired_rows` runs. Only for a file whose bytes
    are the ones written for them (as
    :func:`~repro.query.segment.adopt_segment`)."""
    return _checked_retired(*_retired_file(generation, names, nodes, rows))


def _checked_retired(
    header: dict,
    sections: Dict[str, object],
    raw_rows: Sequence,
    footer: dict,
) -> Optional[RetiredRows]:
    """The :class:`RetiredRows` of a sidecar's values, or None when they
    fail a check: 4-column int rows, the trie
    (:func:`~repro.durable.valid_trie`), no negative count, the header
    and footer totals, and one row per ``(path, epoch)``. The one copy
    of the checks, for parsing and adopting alike."""
    try:
        rows = [
            (pid, int(count), int(gaps), int(epoch))
            for pid, count, gaps, epoch in raw_rows
        ]
    except (TypeError, ValueError):
        return None
    names, nodes_flat = sections.get("names"), sections.get("nodes")
    if not valid_trie(names, nodes_flat, [row[0] for row in rows]):
        return None
    if any(count < 0 or gaps < 0 for _pid, count, gaps, _epoch in rows):
        return None
    retired = RetiredRows(
        names, nodes_flat, rows, sum(row[1] for row in rows)
    )
    if (
        footer.get("rows") != len(rows)
        or header.get("rows") != len(rows)
        or footer.get("samples") != retired.samples
    ):
        return None
    if not _one_row_per_path_epoch(names, nodes_flat, rows):
        return None
    return retired


def _one_row_per_path_epoch(
    names: List[str], nodes: List[int], rows: Sequence[tuple]
) -> bool:
    """Whether no two ``(node, count, gaps, epoch)`` rows of the
    :func:`~repro.durable.valid_trie` table ``(names, nodes)`` spell one
    ``(path, epoch)``.

    When no ``(parent, name)`` pair repeats, distinct nodes spell
    distinct paths (two nodes spelling one path would need equal pairs
    at some depth), so distinct ``(node, epoch)`` keys decide; every
    sidecar the compactor writes is such a trie. Otherwise nodes
    spelling one path are mapped to one merged node first
    (:class:`~repro.durable.TrieMerge`).
    """
    if len(set(zip(nodes[0::2], nodes[1::2]))) == len(nodes) // 2:
        keys = {(row[0], row[3]) for row in rows}
    else:
        node_of = TrieMerge().source(names, nodes)
        keys = {(node_of(row[0]), row[3]) for row in rows}
    return len(keys) == len(rows)


def load_retired(path: str) -> Optional[Dict[_Key, Tuple[int, int]]]:
    """Parse and fully validate a retired-totals file; None when bad."""
    retired = load_retired_rows(path)
    return None if retired is None else retired.totals()


# ----------------------------------------------------------------------
# The compactor
# ----------------------------------------------------------------------
@dataclass
class _Span:
    """One span of a live segment: its window and its rows' indices
    into the segment's integer columns."""

    t_lo: float
    t_hi: float
    seg: Segment
    rows: Sequence[int]

    @property
    def samples(self) -> int:
        counts = self.seg.counts
        return sum(counts[row] for row in self.rows)

    def encoded_rows(self) -> List[Tuple[int, int, int, int]]:
        """``(node, count, gaps, epoch)`` per row, on the segment's trie."""
        seg = self.seg
        return [
            (seg.pids[row], seg.counts[row], seg.gaps[row], seg.epochs[row])
            for row in self.rows
        ]


def _span_order(span: _Span) -> Tuple[float, float, int]:
    """Oldest first: the order retention drops spans in and a merged
    segment lists them in."""
    return (span.t_lo, span.t_hi, span.seg.seq)


@dataclass(eq=False)
class _Run:
    """Live segments one swap takes: ``retained`` becomes its output
    (none when empty) and ``dropped`` is retired. A run the planner
    leaves as it is (``rewrite`` false) is one untouched segment."""

    inputs: List[Segment]
    retained: List[_Span]
    dropped: List[_Span] = field(default_factory=list)
    rewrite: bool = True

    @property
    def rows(self) -> int:
        return sum(len(span.rows) for span in self.retained)

    def __add__(self, other: "_Run") -> "_Run":
        return _Run(
            self.inputs + other.inputs,
            sorted(self.retained + other.retained, key=_span_order),
            self.dropped + other.dropped,
        )


class _Steps:
    """One monotonically increasing record count across every durable
    step of a call, so a crash-matrix test can sweep "kill after record
    N" through *all* of its swaps. ``fault`` is called with it."""

    def __init__(self, fault: Optional[Callable[[int], None]]):
        self.fault = fault
        self.n = 0

    def hook(self) -> Optional[Callable[[int], None]]:
        """A :func:`~repro.durable.write_records` fault hook counting on
        from here, or None without a fault."""
        if self.fault is None:
            return None
        start = self.n

        def _hook(n: int) -> None:
            self.n = max(self.n, start + n)
            self.fault(start + n)

        return _hook

    def point(self) -> None:
        """One step that writes no record (either side of a commit)."""
        self.n += 1
        if self.fault is not None:
            self.fault(self.n)


def _merged_segment(retained: List[_Span], fingerprint: str) -> EncodedSegment:
    """The compacted segment of ``retained``: one span per input span,
    rows in span-major order, every input trie mapped into one output
    trie as its rows reach it (:class:`~repro.durable.TrieMerge`)."""
    merge = TrieMerge()
    mappers: Dict[int, Callable[[int], int]] = {}
    rows: List[Tuple[int, int, int, int]] = []
    row_spans: List[int] = []
    for span_id, span in enumerate(retained):
        seg = span.seg
        mapped = mappers.get(seg.seq)
        if mapped is None:
            mapped = mappers[seg.seq] = merge.source(seg.names, seg.nodes)
        pids, counts, gaps, epochs = seg.pids, seg.counts, seg.gaps, seg.epochs
        rows.extend(
            (mapped(pids[row]), counts[row], gaps[row], epochs[row])
            for row in span.rows
        )
        row_spans.extend([span_id] * len(span.rows))
    return EncodedSegment(
        t_lo=min(span.t_lo for span in retained),
        t_hi=max(span.t_hi for span in retained),
        fingerprint=fingerprint,
        names=merge.names,
        nodes=merge.nodes,
        rows=rows,
        spans=tuple((span.t_lo, span.t_hi) for span in retained),
        row_spans=tuple(row_spans),
    )


class Compactor:
    """Executes generation swaps over one :class:`SegmentStore`.

    One instance per store; safe to call from the checkpoint daemon
    thread while the ingest thread keeps appending (the commit runs
    under the store's own lock, so mid-swap appends survive into the
    new manifest).
    """

    def __init__(
        self,
        store: SegmentStore,
        policy: Optional[CompactionPolicy] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.store = store
        self.policy = policy or CompactionPolicy()
        self._clock = clock
        self.compactions = 0
        self.failures = 0
        self.rolled_back = 0
        self.recovered_forward = 0
        self.skipped_not_due = 0
        self.deferred_deletes = 0
        self.deleted_files = 0
        self.dropped_spans = 0
        self.dropped_rows = 0
        self.dropped_samples = 0
        #: Bytes of every output segment written, summed over calls.
        self.bytes_written = 0
        #: Live segments the last call that ran left as they were.
        self.untouched = 0

    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self.store.directory

    def stats(self) -> dict:
        return {
            "generation": self.store.generation,
            "compactions": self.compactions,
            "failures": self.failures,
            "rolled_back": self.rolled_back,
            "recovered_forward": self.recovered_forward,
            "skipped_not_due": self.skipped_not_due,
            "deferred_deletes": self.deferred_deletes,
            "deleted_files": self.deleted_files,
            "dropped_spans": self.dropped_spans,
            "dropped_rows": self.dropped_rows,
            "dropped_samples": self.dropped_samples,
            "bytes_written": self.bytes_written,
            "untouched": self.untouched,
        }

    # ------------------------------------------------------------------
    def recover(self, now: Optional[float] = None) -> Optional[str]:
        """Resolve a pending intent journal; returns the action taken.

        Takes the directory lock itself — this is what a freshly
        restarted process calls before its first swap.
        """
        if not journal_pending(self.directory):
            return None
        now = self._clock() if now is None else now
        lock = DirectoryLock(
            self.directory, lease_s=self.policy.lease_s, clock=self._clock
        )
        lock.acquire()
        try:
            return self._recover_locked(now, lock)
        finally:
            lock.release()

    def _require_lock(self, lock: DirectoryLock) -> None:
        """Refuse to mutate after the lock was broken by a contender."""
        if not lock.still_valid():
            raise LockHeldError(
                f"directory lock on {self.directory!r} was broken "
                "(lease expired?); abandoning recovery before mutating"
            )

    def _recover_locked(self, now: float, lock: DirectoryLock) -> Optional[str]:
        journal = load_journal(self.directory)
        journal_path = os.path.join(self.directory, JOURNAL_NAME)
        if journal is None:
            if os.path.exists(journal_path):
                # Present but untrustworthy: the swap never committed
                # (a committed journal was valid by construction), so
                # discarding it *is* the roll-back.
                self._require_lock(lock)
                os.unlink(journal_path)
                fsync_dir(self.directory)
                obs.counter("query.journal_rejected").inc()
                self.rolled_back += 1
                return "rolled-back"
            return None
        info = load_manifest_info(self.directory)
        current = info["generation"] if info is not None else 0
        if journal["to_generation"] <= current:
            # Crash after the commit rename: the swap is law, only the
            # input deletions may be unfinished — the sweep retries
            # them from the tombstones.
            self._require_lock(lock)
            os.unlink(journal_path)
            fsync_dir(self.directory)
            self.store.refresh()
            self._sweep_deletions(now)
            return "committed"
        output_seq = journal.get("output_seq")
        output: List[Segment] = []
        if output_seq is not None:
            seg = self.store.load(output_seq)
            output = [seg] if seg is not None else []
        output_ok = output_seq is None or bool(output)
        retired = journal.get("retired")
        # A retired name whose generation is the journal's target was
        # *created* by the dead swap; anything older is the previous
        # sidecar carried forward unchanged — still referenced by the
        # live manifest, so it neither gates the roll-forward nor may
        # a roll-back delete it.
        retired_is_new = (
            retired is not None
            and retired_generation_of(retired) == journal["to_generation"]
        )
        if output_ok and retired_is_new:
            output_ok = (
                load_retired_rows(os.path.join(self.directory, retired))
                is not None
            )
        if not output_ok:
            # The output never fully landed: roll back. The old
            # generation was never superseded, so only artifacts of
            # the dead swap are removed.
            self._require_lock(lock)
            for name in (
                segment_name(output_seq) if output_seq is not None else None,
                retired if retired_is_new else None,
            ):
                if name is None:
                    continue
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
            os.unlink(journal_path)
            fsync_dir(self.directory)
            obs.counter("query.compactions_rolled_back").inc()
            self.rolled_back += 1
            self.store.refresh()
            return "rolled-back"
        # Everything durable: roll forward by performing the commit the
        # dead process was about to.
        tombstones = self._merge_tombstones(
            info["tombstones"] if info is not None else [],
            journal["inputs"],
            journal["to_generation"],
        )
        self._require_lock(lock)
        self._commit(
            journal["to_generation"], output,
            {int(e[0]) for e in journal["inputs"]}, tombstones, retired,
        )
        os.unlink(journal_path)
        fsync_dir(self.directory)
        self._sweep_deletions(now)
        obs.counter("query.compactions_recovered").inc()
        self.recovered_forward += 1
        return "rolled-forward"

    # ------------------------------------------------------------------
    def compact(
        self,
        now: Optional[float] = None,
        fault: Optional[Callable[[int], None]] = None,
        force: bool = False,
    ) -> Optional[dict]:
        """Run the swaps that are due; returns a report dict or None.

        ``fault`` (chaos) is called with a monotonically increasing
        record count across every durable step of the call — raising
        from it models a SIGKILL at that byte. ``force`` overrides the
        due-ness policy and makes the call one full swap (the CLI's
        ``--compact``); see the module docs for what a call that is
        not forced rewrites.

        The report sums the call's ``swaps``: ``from_generation`` and
        ``to_generation`` bound them, ``inputs`` and ``outputs`` list
        every segment taken and written (``output_seq`` is the last
        output), ``bytes_written`` is the outputs' file bytes, and
        ``untouched`` counts the live segments left as they were.

        Raises :class:`~repro.query.locks.LockHeldError` when another
        live mutator holds the directory lock.
        """
        now = self._clock() if now is None else now
        start = time.perf_counter()
        lock = DirectoryLock(
            self.directory, lease_s=self.policy.lease_s, clock=self._clock
        )
        lock.acquire()
        try:
            self._recover_locked(now, lock)
            self._sweep_deletions(now)
            live = self.store.refresh()
            runs = self._plan(live, now, force)
            if not runs:
                self.skipped_not_due += 1
                return None
            report = self._run(runs, live, lock, fault, now)
        except LockHeldError:
            raise
        except BaseException:
            self.failures += 1
            obs.counter("query.compaction_failures").inc()
            raise
        finally:
            lock.release()
        report["duration_us"] = (time.perf_counter() - start) * 1e6
        obs.counter("query.compactions").inc(report["swaps"])
        obs.histogram("query.compaction_us").observe_us(
            report["duration_us"]
        )
        return report

    # ------------------------------------------------------------------
    def _plan(
        self, live: List[Segment], now: float, force: bool
    ) -> List[_Run]:
        """The swaps this call runs, in order; empty when none is due."""
        if not live:
            return []
        retention = self.policy.retention
        spans = [
            _Span(t_lo=lo, t_hi=hi, seg=seg, rows=bucket)
            for seg in live
            for (lo, hi), bucket in zip(seg.spans, seg.span_rows)
        ]
        spans.sort(key=_span_order)
        total_bytes = 0
        for seg in live:
            try:
                total_bytes += os.path.getsize(seg.path)
            except OSError:
                pass
        total_rows = sum(len(s.rows) for s in spans)

        # -- retention: decide which (oldest-first) spans to drop ------
        keep_floor = max(0, retention.keep_spans)
        droppable = max(0, len(spans) - keep_floor)
        drop_n = 0
        if retention.max_age_s is not None:
            cutoff = now - retention.max_age_s
            while drop_n < droppable and spans[drop_n].t_hi <= cutoff:
                drop_n += 1
        if retention.max_bytes is not None and total_rows:
            per_row = max(1.0, total_bytes / max(1, total_rows))
            target_rows = retention.max_bytes / per_row
            kept_rows = total_rows - sum(
                len(spans[i].rows) for i in range(drop_n)
            )
            while drop_n < droppable and kept_rows > target_rows:
                kept_rows -= len(spans[drop_n].rows)
                drop_n += 1
        dropped, retained = spans[:drop_n], spans[drop_n:]

        if not force and (
            retention.max_bytes is not None or retention.max_age_s is not None
        ):
            return self._tiers(live, spans, drop_n)
        over_files = (
            retention.max_segments is not None
            and len(live) > retention.max_segments
        )
        over_bytes = (
            retention.max_bytes is not None
            and total_bytes > retention.max_bytes
        )
        merge_worthy = len(live) >= self.policy.min_inputs
        due = (
            force or dropped or merge_worthy or over_files or over_bytes
        )
        if not due:
            return []
        if not dropped and len(live) <= 1:
            return []  # a single already-compacted segment: no-op
        return [_Run(list(live), retained, dropped)]

    def _tiers(
        self, live: List[Segment], spans: List[_Span], drop_n: int
    ) -> List[_Run]:
        """The tiered swaps over ``live``, whose oldest ``drop_n`` of
        ``spans`` (in :func:`_span_order`) retire: the trim run, the
        young run and the file-cap merges of the module docs, each
        segment in at most one. The trim run goes first; every segment
        no run takes stays as it is."""
        order = sorted(live, key=lambda seg: (seg.t_lo, seg.t_hi, seg.seq))
        trimmed = {span.seg.seq for span in spans[:drop_n]}
        young: Set[int] = set()
        for seg in reversed(order):
            if (
                seg.seq in trimmed
                or seg.seq in self.store.compacted
                or len(seg.spans) != 1
            ):
                break
            young.add(seg.seq)
        if len(young) < self.policy.min_inputs:
            young = set()
        kept: Dict[int, List[_Span]] = {seg.seq: [] for seg in live}
        for span in spans[drop_n:]:
            kept[span.seg.seq].append(span)

        trim = _Run([], [], spans[:drop_n]) if trimmed else None
        deltas = _Run([], []) if young else None
        runs = [run for run in (trim, deltas) if run is not None]
        for seg in order:
            if seg.seq in trimmed:
                run = trim
            elif seg.seq in young:
                run = deltas
            else:
                run = _Run([], [], rewrite=False)
                runs.append(run)
            run.inputs.append(seg)
            run.retained.extend(kept[seg.seq])
        if trim is not None:
            trim.retained.sort(key=_span_order)
        # The files left afterwards, oldest first.
        files = sorted(
            (run for run in runs if run.retained),
            key=lambda run: min(map(_span_order, run.retained)),
        )
        cap = self.policy.retention.max_segments
        while cap is not None and len(files) > cap:
            i = min(
                range(len(files) - 1),
                key=lambda i: (files[i].rows + files[i + 1].rows, i),
            )
            pair = files[i] + files[i + 1]
            if trim is not None and trim in files[i:i + 2]:
                trim = pair
            files[i:i + 2] = [pair]
        first = [trim] if trim is not None else []
        return first + [
            run for run in files if run.rewrite and run is not trim
        ]

    def _run(
        self,
        runs: List[_Run],
        live: List[Segment],
        lock: DirectoryLock,
        fault: Optional[Callable[[int], None]],
        now: float,
    ) -> dict:
        """Execute ``runs`` as one generation swap each and sum their
        reports (see :meth:`compact`)."""
        steps = _Steps(fault)
        # Readers refreshed before the call may resolve the sidecar the
        # manifest named then, whichever swap of the call retires it.
        keep = {self.store.retired_name} - {None}
        reports = [
            self._execute(run, lock, steps, now, keep) for run in runs
        ]
        taken = {seg.seq for run in runs for seg in run.inputs}
        self.untouched = sum(1 for seg in live if seg.seq not in taken)
        outputs = [
            r["output_seq"] for r in reports if r["output_seq"] is not None
        ]
        report = {
            "from_generation": reports[0]["from_generation"],
            "to_generation": reports[-1]["to_generation"],
            "swaps": len(reports),
            "inputs": sorted(taken),
            "outputs": outputs,
            "output_seq": outputs[-1] if outputs else None,
            "untouched": self.untouched,
        }
        for key in (
            "spans", "rows", "dropped_spans", "dropped_rows",
            "dropped_samples", "deleted", "deferred", "bytes_written",
        ):
            report[key] = sum(r[key] for r in reports)
        return report

    def _execute(
        self,
        run: _Run,
        lock: DirectoryLock,
        steps: _Steps,
        now: float,
        keep: Set[str],
    ) -> dict:
        """One generation swap: ``run.inputs`` become the segment of
        ``run.retained`` (none when empty), ``run.dropped`` is retired.
        ``keep`` names retired sidecars to spare beside this swap's
        previous and new one."""
        inputs, retained, dropped = run.inputs, run.retained, run.dropped
        from_gen = self.store.generation
        to_gen = from_gen + 1
        output_seq = self.store.next_seq() if retained else None
        stepped, point = steps.hook, steps.point

        # 1. retired totals (cumulative: prior retirements + new drops)
        prev_retired: Optional[str] = self.store.retired_name
        retired: Optional[str] = prev_retired
        retired_rows: Optional[RetiredRows] = None
        drop_rows = sum(len(s.rows) for s in dropped)
        drop_samples = sum(s.samples for s in dropped)
        if dropped and drop_rows:
            retired = retired_name(to_gen)
            retired_rows = self._write_retired(
                to_gen, self._retired_sections(dropped), stepped()
            )

        # 2. the intent journal: the swap is now declared
        intent = {
            "from_generation": from_gen,
            "to_generation": to_gen,
            "inputs": [
                [seg.seq, len(seg.pids), seg.samples] for seg in inputs
            ],
            "output_seq": output_seq,
            "retired": retired,
            "drop_spans": len(dropped),
            "drop_rows": drop_rows,
            "drop_samples": drop_samples,
        }
        write_journal(self.directory, intent, fault=stepped())

        # 3. the merged output segment (one span per retained input)
        output: List[Segment] = []
        written = 0
        if retained:
            newest = max(inputs, key=lambda s: s.seq)
            output = [self.store.write(
                output_seq, _merged_segment(retained, newest.fingerprint),
                fault=stepped(),
            )]
            written = os.path.getsize(output[0].path)

        # 4. commit — the manifest rename is the point of no return
        point()
        if not lock.still_valid():
            raise LockHeldError(
                f"directory lock on {self.directory!r} was broken "
                "mid-swap (lease expired?); aborting before commit"
            )
        input_seqs = {seg.seq for seg in inputs}
        tombstones = self._merge_tombstones(
            self.store.tombstones, intent["inputs"], to_gen
        )
        self._commit(
            to_gen, output, input_seqs, tombstones, retired, retired_rows
        )
        point()

        # 5. delete the superseded inputs (pin-aware), drop the journal
        deleted, deferred = self._sweep_deletions(now)
        try:
            os.unlink(os.path.join(self.directory, JOURNAL_NAME))
        except OSError:  # pragma: no cover - unlink raced recovery
            pass
        self._prune_retired(
            keep | {name for name in (prev_retired, retired) if name}
        )
        fsync_dir(self.directory)

        self.compactions += 1
        self.dropped_spans += len(dropped)
        self.dropped_rows += drop_rows
        self.dropped_samples += drop_samples
        self.bytes_written += written
        if drop_rows:
            obs.counter("query.retention_dropped_rows").inc(drop_rows)
        if written:
            obs.counter("query.compaction_bytes_written").inc(written)
        return {
            "from_generation": from_gen,
            "to_generation": to_gen,
            "inputs": sorted(input_seqs),
            "output_seq": output_seq,
            "spans": len(retained),
            "rows": sum(len(s.rows) for s in retained),
            "dropped_spans": len(dropped),
            "dropped_rows": drop_rows,
            "dropped_samples": drop_samples,
            "deleted": deleted,
            "deferred": deferred,
            "bytes_written": written,
        }

    def _write_retired(
        self,
        generation: int,
        sections: Tuple[List[str], List[int], List[Tuple[int, int, int, int]]],
        fault: Optional[Callable[[int], None]],
    ) -> Optional[RetiredRows]:
        """Write the sidecar of ``generation`` and read it back: bytes
        equal to those written are adopted from ``sections``, any other
        bytes are parsed. None when they fail validation; the commit
        then leaves the store to load the sidecar, and reject it, as a
        reader would."""
        written = hashlib.sha256()
        path = write_retired_encoded(
            self.directory, generation, *sections, fault=fault,
            digest=written,
        )
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        if hashlib.sha256(data).digest() == written.digest():
            adopted = adopt_retired_rows(generation, *sections)
            if adopted is not None:
                return adopted
        return _parse_retired_rows(data)

    def _retired_sections(
        self, dropped: List[_Span]
    ) -> Tuple[List[str], List[int], List[Tuple[int, int, int, int]]]:
        """The next retired sidecar's ``(names, nodes, rows)``: the
        previous sidecar's rows plus the dropped spans', summed by
        ``(path, epoch)`` in a scratch store and walked out of it by
        :meth:`~repro.service.store.ContextStore.encode_counted`.

        Its rows come in ``(path, epoch)`` order as preorder node ids;
        sorted as integer tuples they are in the ``(path, count, gaps,
        epoch)`` order :func:`write_retired` sorts spelled rows into
        (a path retired under two epochs is ordered by count first).
        """
        previous = self.store.retired_rows()
        sources = [] if previous is None else [
            (previous.names, previous.nodes, previous.rows)
        ]
        sources += [
            (span.seg.names, span.seg.nodes, span.encoded_rows())
            for span in dropped
        ]
        scratch = ContextStore(compression="none")
        totals: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for names, nodes, rows in sources:
            ids, _name_ids = scratch.intern_trie(
                names, nodes, [row[0] for row in rows]
            )
            for node, count, gaps, epoch in rows:
                key = (ids[node] if node >= 0 else -1, epoch)
                have = totals.get(key, (0, 0))
                totals[key] = (have[0] + count, have[1] + gaps)
        names, nodes, rows = scratch.encode_counted([
            (key, count, gaps) for key, (count, gaps) in totals.items()
        ])
        rows.sort()
        return names, nodes, rows

    # ------------------------------------------------------------------
    def _commit(
        self,
        generation: int,
        output: List[Segment],
        input_seqs: Set[int],
        tombstones: List[dict],
        retired: Optional[str],
        retired_rows: Optional[RetiredRows] = None,
    ) -> None:
        self.store.commit_generation(
            generation, output, input_seqs, tombstones, retired,
            retired_rows,
        )

    def _merge_tombstones(
        self, existing: List[dict], inputs: List[list], generation: int
    ) -> List[dict]:
        """Old tombstones + one per merged input, pruned of ancient
        entries whose files are confirmed gone."""
        merged: List[dict] = []
        for tomb in existing:
            merged.append(dict(tomb))
        seen = {int(t["seq"]) for t in merged}
        for seq, rows, samples in inputs:
            if int(seq) in seen:
                continue
            merged.append({
                "seq": int(seq),
                "rows": int(rows),
                "samples": int(samples),
                "reason": "compacted",
                "generation": int(generation),
            })
        merged.sort(key=lambda t: int(t["seq"]))
        # Prune: only tombstones whose file is actually gone may age
        # out of the manifest; a lingering (deferred) file keeps its
        # tombstone forever so it can never be re-adopted.
        if len(merged) > _TOMBSTONE_KEEP:
            pruned: List[dict] = []
            excess = len(merged) - _TOMBSTONE_KEEP
            for tomb in merged:
                path = os.path.join(
                    self.directory, segment_name(int(tomb["seq"]))
                )
                if excess > 0 and not os.path.exists(path):
                    excess -= 1
                    continue
                pruned.append(tomb)
            merged = pruned
        return merged

    def _sweep_deletions(self, now: float) -> Tuple[int, int]:
        """Unlink tombstoned files no live reader pin still protects.

        Returns ``(deleted, deferred)`` counts; both are also pushed
        to the obs counters so deferred deletions are never silent.
        """
        tombstones = list(self.store.tombstones)
        current = self.store.generation
        if not tombstones:
            return (0, 0)
        pins = live_pins(self.directory, now=now)
        blocking = any(
            meta["generation"] < 0 or meta["generation"] < current
            for meta in pins
        )
        deleted = deferred = 0
        dirty = False
        for tomb in tombstones:
            path = os.path.join(
                self.directory, segment_name(int(tomb["seq"]))
            )
            if not os.path.exists(path):
                continue
            if blocking:
                deferred += 1
                continue
            try:
                os.unlink(path)
            except OSError:
                deferred += 1
                continue
            deleted += 1
            dirty = True
        if dirty:
            fsync_dir(self.directory)
        if deleted:
            self.deleted_files += deleted
            obs.counter("query.segments_deleted").inc(deleted)
        if deferred:
            self.deferred_deletes += deferred
            obs.counter("query.deletes_deferred").inc(deferred)
        return (deleted, deferred)

    def _prune_retired(self, keep: Set[str]) -> None:
        """Drop retired-totals files no manifest references.

        ``keep`` names what must survive: the file the just-committed
        manifest references plus the one the superseded manifest did
        (a reader refreshed just before the swap may still resolve
        that name). The referenced name is carried forward *unchanged*
        through no-drop swaps, so it can be generations older than the
        current one — pruning must go by the names themselves, never
        by generation arithmetic. Everything else, including
        uncommitted leftovers of rolled-back swaps, is deleted.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:  # pragma: no cover - directory vanished
            return
        for name in names:
            if retired_generation_of(name) is None or name in keep:
                continue
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                pass
