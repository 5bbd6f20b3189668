"""``manifest.dpqm`` + :class:`SegmentStore`: the segment directory.

The manifest is a small checksummed file mapping time windows to
segment files — the thing recovery *replays* to know what the query
store contained before a crash. It is a **cache of the truth, never
the truth itself**: every entry is verified against the segment file
on disk before it is served, orphan segments (written in the gap
between a segment rename and the manifest rewrite — exactly where a
crash can land) are adopted from a directory scan, and stale entries
whose file is gone or invalid are dropped. A missing, torn, or
**newer-versioned** manifest (forward compatibility: a future writer
may know things this reader does not) degrades to a full scan,
counted in ``query.manifest_fallbacks`` — never to wrong answers.

Manifest format: the line records, footer and atomic replace of
:mod:`repro.durable` (``docs/RESILIENCE.md``, "Durable files")::

    header    {"kind": "manifest", "version": 2, "segments": N,
               "generation": G, "tombstones": M, "retired": name|null}
    segment   {"kind": "segment", "seq", "t_lo", "t_hi", "rows",
               "samples", "fingerprint"}   (one per live segment)
    tombstone {"kind": "tombstone", "seq", "rows", "samples",
               "reason", "generation"}     (one per counted deletion)
    footer    {"kind": "footer", "records": N+M+2}

Version 2 adds the **generation** — a monotonically
increasing counter bumped by every compaction/retention swap — plus
**tombstones**: counted records of segments the compactor merged away
or retention deleted. A tombstoned seq whose file still exists (its
deletion was deferred for a pinned reader, or the deleting process
died first) is *not* re-adopted by the scan; nothing is ever deleted
silently. Version-1 manifests load as generation 0 with no
tombstones.

:class:`SegmentStore` is the single writer/reader of one directory:
``append`` assigns the next sequence number, writes the segment
durably, then rewrites the manifest (temp/fsync/rename/dir-fsync);
``refresh`` replays manifest + scan into the validated, seq-ordered
segment list the :class:`~repro.query.engine.QueryEngine` queries,
quarantining any segment a pending compaction intent journal names as
its uncommitted output (see :mod:`repro.query.compact`).

Validation is memoized by content digest, once per process: every
refresh reads and hashes each listed file in full, and a file whose
bytes hash to those of a segment some store of this process already
validated at that path serves that same :class:`Segment`
(``query.segment_reuses``; the index holds a segment only while
something serves it). A store's own writes, its appends and the
compactor's outputs, are read back and hashed too: bytes equal to
those just serialized are checked as the values that were serialized
(:func:`~repro.query.segment.adopt_segment`, ``query.segment_adopted``),
without decoding them. Any other bytes are validated in full
(``query.segment_parses``). Validation is a pure function of the
bytes, and the adopted values are what those bytes decode to, so this
is exactly equivalent to re-validating everything.
"""

from __future__ import annotations

import hashlib
import os
import threading
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.durable import load_records, sweep_temp_files, write_records
from repro.errors import QueryError
from repro.query.segment import (
    EncodedSegment,
    Segment,
    adopt_segment,
    parse_segment,
    segment_name,
    sequence_of,
    write_segment,
)

__all__ = [
    "MANIFEST_VERSION",
    "CompositeSegmentStore",
    "SegmentStore",
    "load_manifest",
    "load_manifest_info",
    "write_manifest",
]

MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.dpqm"

#: Every validated segment something in this process still holds, by
#: the path its store joined: one index for all stores, so a second
#: store on a directory serves the first one's objects.
_validated: "weakref.WeakValueDictionary[str, Segment]" = (
    weakref.WeakValueDictionary()
)


def _load(
    seq: int,
    path: str,
    written: Optional[Tuple[EncodedSegment, bytes]] = None,
) -> Optional[Segment]:
    """Segment ``seq`` validated from the bytes at ``path`` now, or None
    when the file is missing or invalid.

    The whole file is read and hashed. ``written`` is ``(encoded, the
    digest of the bytes written for it)`` when the file is this
    process's own write: bytes with that digest are adopted
    (:func:`~repro.query.segment.adopt_segment`). Otherwise bytes that
    hash to the indexed segment of ``path`` and ``seq`` reuse it, and
    any other bytes are parsed in full.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    digest = hashlib.sha256(data).digest()
    if written is not None and written[1] == digest:
        seg = adopt_segment(path, seq, written[0], digest)
        if seg is not None:
            obs.counter("query.segment_adopted").inc()
            _validated[path] = seg
            return seg
    seg = _validated.get(path)
    if seg is not None and seg.seq == seq and seg.digest == digest:
        obs.counter("query.segment_reuses").inc()
        return seg
    obs.counter("query.segment_parses").inc()
    seg = parse_segment(path, seq, data)
    if seg is not None:
        _validated[path] = seg
    return seg


def write_manifest(
    directory: str,
    segments: List[Segment],
    generation: int = 0,
    tombstones: Sequence[dict] = (),
    retired: Optional[str] = None,
    fault: Optional[Callable[[int], None]] = None,
) -> str:
    """Atomically (re)write the manifest describing ``segments``.

    The rename of the temp file onto ``manifest.dpqm`` is the *commit
    point* of a generation swap: a crash anywhere before it leaves the
    previous manifest (old generation) intact, a crash anywhere after
    it leaves the new one — never a blend. ``fault`` is
    :func:`~repro.durable.write_records`' crash hook.
    """
    tombs = list(tombstones)
    records = [{
        "kind": "manifest",
        "version": MANIFEST_VERSION,
        "segments": len(segments),
        "generation": int(generation),
        "tombstones": len(tombs),
        "retired": retired,
    }]
    records += [
        {
            "kind": "segment",
            "seq": seg.seq,
            "t_lo": seg.t_lo,
            "t_hi": seg.t_hi,
            "rows": len(seg.pids),
            "samples": seg.samples,
            "fingerprint": seg.fingerprint,
        }
        for seg in segments
    ]
    records += [{"kind": "tombstone", **tomb} for tomb in tombs]
    return write_records(
        os.path.join(directory, MANIFEST_NAME), records, fault=fault
    )


def load_manifest_info(directory: str) -> Optional[dict]:
    """The full parsed manifest, or None when it cannot be trusted.

    None means "fall back to a directory scan": file missing, any line
    torn or checksum-failed, header/footer malformed, or — the forward
    compatibility stub — a version newer than this reader understands:
    the segments themselves are still individually validated, so
    scanning the directory serves correct (if uncached) answers.
    Returns ``{"version", "generation", "entries", "tombstones",
    "retired"}``; version-1 files yield generation 0, no tombstones.
    """
    read = load_records(
        os.path.join(directory, MANIFEST_NAME),
        "manifest",
        range(1, MANIFEST_VERSION + 1),
    )
    if read is None:
        return None
    header, body, _footer = read
    version = header["version"]
    generation = header.get("generation", 0) if version >= 2 else 0
    if not isinstance(generation, int) or generation < 0:
        return None
    retired = header.get("retired") if version >= 2 else None
    if retired is not None and not isinstance(retired, str):
        return None
    entries: List[dict] = []
    tombstones: List[dict] = []
    for payload in body:
        kind = payload.get("kind")
        if not isinstance(payload.get("seq"), int):
            return None
        if kind == "segment":
            entries.append(payload)
        elif kind == "tombstone" and version >= 2:
            tombstones.append(payload)  # a v1 manifest has none
        else:
            return None
    if header.get("segments") != len(entries):
        return None
    if version >= 2 and header.get("tombstones") != len(tombstones):
        return None
    return {
        "version": version,
        "generation": generation,
        "entries": entries,
        "tombstones": tombstones,
        "retired": retired,
    }


def load_manifest(directory: str) -> Optional[List[dict]]:
    """The manifest's segment entries, or None when it cannot be trusted."""
    info = load_manifest_info(directory)
    return None if info is None else list(info["entries"])


class SegmentStore:
    """All segments of one directory: durable append + validated reads."""

    def __init__(self, directory: str):
        self.directory = directory
        self._lock = threading.Lock()
        self._segments: Optional[List[Segment]] = None
        self.rejected = 0
        self.manifest_fallbacks = 0
        self.generation = 0
        self.tombstones: List[dict] = []
        self.retired_name: Optional[str] = None
        self.tombstone_skips = 0
        self.quarantined = 0
        #: (sidecar name, its rows) as last loaded or written.
        self._retired_cache: Optional[Tuple[Optional[str], object]] = None
        os.makedirs(directory, exist_ok=True)
        sweep_temp_files(directory)

    # ------------------------------------------------------------------
    def _listing(self) -> List[tuple]:
        out = []
        for name in os.listdir(self.directory):
            seq = sequence_of(name)
            if seq is not None:
                out.append((seq, os.path.join(self.directory, name)))
        return sorted(out)

    def next_seq(self) -> int:
        """The next unused sequence number (counts invalid, tombstoned
        and quarantined files too, so a rejected segment's number is
        never reused for different bytes)."""
        with self._lock:
            return self._next_seq_locked()

    def _next_seq_locked(self) -> int:
        listing = self._listing()
        highest = listing[-1][0] if listing else 0
        for tomb in self.tombstones:
            highest = max(highest, int(tomb.get("seq", 0)))
        return highest + 1

    # ------------------------------------------------------------------
    def load(self, seq: int) -> Optional[Segment]:
        """Segment ``seq`` of this directory validated from the bytes on
        disk now, or None when the file is missing or invalid."""
        return _load(seq, os.path.join(self.directory, segment_name(seq)))

    def write(
        self,
        seq: int,
        encoded: EncodedSegment,
        fault: Optional[Callable[[int], None]] = None,
    ) -> Segment:
        """Durably write ``encoded`` as segment ``seq`` and read it back.

        The read-back hashes the renamed file: the bytes just written
        are adopted from ``encoded``, any other bytes are parsed, and
        :class:`QueryError` is raised when they fail validation. Touches
        no store state, so it takes no store lock: :meth:`append` holds
        it, the compactor holds the directory lock.
        """
        written = hashlib.sha256()
        path = write_segment(
            self.directory, seq, encoded, fault=fault, digest=written
        )
        seg = _load(seq, path, (encoded, written.digest()))
        if seg is None:
            raise QueryError(
                f"freshly written segment {path!r} failed validation"
            )
        return seg

    def _serve_locked(self, segments: List[Segment]) -> None:
        """Make ``segments`` the served list."""
        self._segments = segments
        obs.gauge("query.segments").set(len(segments))
        obs.gauge("query.segment_rows").set(
            sum(len(s.pids) for s in segments)
        )

    # ------------------------------------------------------------------
    def refresh(self) -> List[Segment]:
        """Replay the manifest (verified against disk) into segments.

        Every served segment is validated from the bytes on disk
        regardless of what the manifest claims; the manifest only tells
        us what *should* be there, so drift (stale entries, orphan
        segments, corrupt files) is observable in the counters rather
        than silent. Each listed file is read in full; bytes identical
        to those of a segment some store of this process validated at
        that path are served as that segment (the process-wide memo).

        Consistency under a concurrent generation swap: files named by
        tombstones (deletions, possibly deferred) and by a pending
        compaction intent journal (an uncommitted output) are skipped,
        and the whole replay is retried when the manifest generation
        moved while we were reading — the result is always *one*
        generation's view, never a blend.
        """
        with self._lock:
            return self._refresh_locked()

    def _refresh_locked(self, attempts: int = 3) -> List[Segment]:
        from repro.query.compact import journal_quarantine

        last: List[Segment] = []
        for _ in range(max(1, attempts)):
            info = load_manifest_info(self.directory)
            if info is None:
                self.manifest_fallbacks += 1
                obs.counter("query.manifest_fallbacks").inc()
                generation: Optional[int] = None
            else:
                generation = info["generation"]
                self.generation = generation
                self.tombstones = list(info["tombstones"])
                self.retired_name = info["retired"]
            skip = journal_quarantine(self.directory, generation)
            dead = {int(t["seq"]) for t in self.tombstones}
            listing = self._listing()
            segments: List[Segment] = []
            for seq, path in listing:
                if seq in dead:
                    # A deferred (or crashed-mid-delete) deletion: the
                    # manifest already counted this file out.
                    self.tombstone_skips += 1
                    obs.counter("query.tombstone_skips").inc()
                    continue
                if seq in skip:
                    self.quarantined += 1
                    obs.counter("query.segments_quarantined").inc()
                    continue
                seg = _load(seq, path)
                if seg is None:
                    self.rejected += 1
                    obs.counter("query.segments_rejected").inc()
                    continue
                segments.append(seg)
            after = load_manifest_info(self.directory)
            if info is not None and after is not None and (
                after["generation"] != info["generation"]
            ):
                # A compactor committed a swap while we were loading;
                # what we assembled may blend generations. Replay.
                obs.counter("query.refresh_retries").inc()
                last = segments
                continue
            self._serve_locked(segments)
            return list(segments)
        self._serve_locked(last)  # pragma: no cover - pathological churn
        return list(last)

    def segments(self) -> List[Segment]:
        """The validated segments (cached; ``refresh()`` to reload)."""
        with self._lock:
            cached = self._segments
        if cached is None:
            return self.refresh()
        return list(cached)

    # ------------------------------------------------------------------
    def retired_rows(self):
        """The retired sidecar this directory's manifest names, as a
        :class:`~repro.query.compact.RetiredRows` on the file's trie,
        or None when nothing was retired (or the sidecar fails its
        checks, counted in ``query.retired_rejected``). Cached per
        sidecar name: each generation writes its own, once. A store
        not yet refreshed refreshes first, to learn the sidecar's name
        from the manifest."""
        with self._lock:
            if self._segments is None:
                self._refresh_locked()
            name = self.retired_name
        return self._retired(name)

    def _retired(self, name: Optional[str]):
        with self._lock:
            cached = self._retired_cache
        if cached is not None and cached[0] == name:
            return cached[1]
        from repro.query.compact import load_retired_rows

        retired = None
        if name is not None:
            retired = load_retired_rows(os.path.join(self.directory, name))
            if retired is None:
                obs.counter("query.retired_rejected").inc()
        with self._lock:
            self._retired_cache = (name, retired)
        return retired

    def retired_totals(self) -> Dict[tuple, Tuple[int, int]]:
        """Cumulative ``{(path, epoch): (count, gaps)}`` retention
        deleted from this directory: what the live rows must be added
        to for every sample ever flushed here. Empty when nothing was
        retired."""
        retired = self.retired_rows()
        return {} if retired is None else retired.totals()

    def position(self) -> Dict[str, int]:
        """How far this directory reaches, as a checkpoint records it:
        the manifest ``generation``, the highest segment ``seq`` served
        or tombstoned, and the ``samples`` held live plus retired.

        Read from one generation's view as last served (a
        :meth:`refresh`, or this process's own appends and swaps), so
        the cost does not grow with history. A swap another process
        committed since can only make the answer lower than the
        directory's, never higher.
        """
        with self._lock:
            if self._segments is None:
                self._refresh_locked()
            segments = list(self._segments)
            seqs = [seg.seq for seg in segments]
            seqs += [int(tomb["seq"]) for tomb in self.tombstones]
            generation, name = self.generation, self.retired_name
        retired = self._retired(name)
        return {
            "generation": generation,
            "seq": max(seqs, default=0),
            "samples": sum(seg.samples for seg in segments)
            + (retired.samples if retired is not None else 0),
        }

    # ------------------------------------------------------------------
    def append(
        self,
        encoded: EncodedSegment,
        fault: Optional[Callable[[int], None]] = None,
    ) -> str:
        """Durably write ``encoded`` as the next segment; returns its path.

        Order matters for crash safety: the segment file lands first
        (rename + dir fsync), the manifest rewrite second — a crash
        between the two leaves an orphan segment that ``refresh()``
        adopts from the scan. The rewrite carries the current
        generation, tombstones and retired-totals reference forward
        unchanged: appending never performs (or un-does) a swap.

        A generation swap committed by *another process* (e.g. the
        ``query --compact`` CLI run against a live service's
        directory) since our last refresh is detected by re-reading
        the on-disk manifest before the rewrite, and adopted — the
        rewrite then carries the swap's generation, tombstones and
        retired reference instead of resurrecting its merged-away
        inputs. The detect-then-rewrite window cannot be fully closed
        without holding the :class:`~repro.query.locks.DirectoryLock`
        across every append, so appender and compactor should share a
        process where possible; the cross-process CLI path is a
        narrow-window best effort.
        """
        with self._lock:
            if self._segments is None:
                # First touch: learn the directory's generation and
                # tombstones before rewriting the manifest over them.
                self._refresh_locked()
            seg = self.write(self._next_seq_locked(), encoded, fault=fault)
            if self._segments is None:  # pragma: no cover - refreshed above
                self._segments = []
            info = load_manifest_info(self.directory)
            if info is not None and info["generation"] != self.generation:
                # Another process swapped generations under us. Replay
                # the directory (the segment just written is adopted
                # from the scan like any orphan) so the rewrite below
                # publishes *their* generation, tombstones and retired
                # reference plus our new segment — not our stale view.
                obs.counter("query.append_swap_adoptions").inc()
                self._refresh_locked()
            else:
                self._segments.append(seg)
            write_manifest(
                self.directory,
                self._segments,
                generation=self.generation,
                tombstones=self.tombstones,
                retired=self.retired_name,
                fault=fault,
            )
            obs.gauge("query.segments").set(len(self._segments))
            obs.gauge("query.segment_rows").set(
                sum(len(s.pids) for s in self._segments)
            )
            return seg.path

    # ------------------------------------------------------------------
    def commit_generation(
        self,
        generation: int,
        add_segments: List[Segment],
        drop_seqs,
        tombstones: Sequence[dict],
        retired: Optional[str],
        retired_rows=None,
    ) -> List[Segment]:
        """Publish a generation swap (the compactor's commit point).

        Runs under the store lock so an ingest thread's concurrent
        ``append`` cannot interleave with the manifest rewrite: any
        segment appended mid-swap survives into the new manifest, and
        any append after this call carries the new generation and
        tombstones forward. The manifest rename inside is the swap's
        atomic commit. ``retired_rows``, the swap's validated read-back
        of the sidecar ``retired``, becomes the retired cache; without
        it, rows cached for that same sidecar (carried forward
        unchanged) stay, and the cache is otherwise cleared.
        """
        with self._lock:
            drop = {int(s) for s in drop_seqs}
            dead = {int(t["seq"]) for t in tombstones}
            survivors: List[Segment] = list(add_segments)
            have = {seg.seq for seg in survivors}
            cached = self._segments
            if cached is None:
                cached = []
                for seq, path in self._listing():
                    if seq in drop or seq in dead or seq in have:
                        continue
                    seg = _load(seq, path)
                    if seg is not None:
                        cached.append(seg)
            for seg in cached:
                if seg.seq in drop or seg.seq in dead or seg.seq in have:
                    continue
                survivors.append(seg)
                have.add(seg.seq)
            survivors.sort(key=lambda s: s.seq)
            write_manifest(
                self.directory,
                survivors,
                generation=int(generation),
                tombstones=tombstones,
                retired=retired,
            )
            self.generation = int(generation)
            self.tombstones = list(tombstones)
            self.retired_name = retired
            self._serve_locked(survivors)
            if retired_rows is None and self._retired_cache is not None:
                name, rows = self._retired_cache
                if name == retired:
                    retired_rows = rows  # the sidecar, carried forward
            self._retired_cache = (
                None if retired_rows is None else (retired, retired_rows)
            )
            return list(survivors)

    def stats(self) -> dict:
        with self._lock:
            segments = self._segments or []
            return {
                "directory": self.directory,
                "segments": len(segments),
                "rows": sum(len(s.pids) for s in segments),
                "samples": sum(s.samples for s in segments),
                "rejected": self.rejected,
                "manifest_fallbacks": self.manifest_fallbacks,
                "generation": self.generation,
                "tombstones": len(self.tombstones),
                "tombstone_skips": self.tombstone_skips,
                "quarantined": self.quarantined,
                "retired": self.retired_name,
            }


class CompositeSegmentStore:
    """A read-only union of several :class:`SegmentStore` directories.

    The multi-process topology writes one store per decode worker (plus
    the parent's); queries must see them as one segment set.  Segment
    deltas are order-independent sums, so the union is served as a
    plain concatenation — re-sorted by ``(t_lo, seq, directory)`` so
    listings are deterministic across refreshes.  ``append`` is
    deliberately absent: each store keeps its single writer.
    """

    def __init__(self, stores: List[SegmentStore]):
        if not stores:
            raise QueryError("CompositeSegmentStore needs at least one store")
        self.stores = list(stores)
        self.directory = [store.directory for store in self.stores]

    def refresh(self) -> List[Segment]:
        segments: List[Segment] = []
        for store in self.stores:
            segments.extend(store.refresh())
        return self._ordered(segments)

    def segments(self) -> List[Segment]:
        segments: List[Segment] = []
        for store in self.stores:
            segments.extend(store.segments())
        return self._ordered(segments)

    @staticmethod
    def _ordered(segments: List[Segment]) -> List[Segment]:
        return sorted(
            segments, key=lambda s: (s.t_lo, s.seq, os.path.dirname(s.path))
        )

    def stats(self) -> dict:
        parts = [store.stats() for store in self.stores]
        return {
            "directory": self.directory,
            "stores": parts,
            "segments": sum(p["segments"] for p in parts),
            "rows": sum(p["rows"] for p in parts),
            "samples": sum(p["samples"] for p in parts),
            "rejected": sum(p["rejected"] for p in parts),
            "manifest_fallbacks": sum(
                p["manifest_fallbacks"] for p in parts
            ),
        }
