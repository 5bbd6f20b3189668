"""``repro.query`` — a durable context-analytics store.

The paper makes calling contexts cheap enough to *collect at scale and
analyze later*; this package is the "later". Retained context counts
are promoted out of process memory into an **append-only segment
store**: each flush of the aggregation tree writes one immutable
``seg-NNNNNNNN.dpqs`` file covering a wall-clock window through
:mod:`repro.durable` (per-record CRC32 lines, write-temp → fsync →
rename → directory-fsync). A segment keeps its contexts as a prefix
trie written straight from the live context store's trie, so a flush
decodes no path. A ``manifest.dpqm`` caches the time-window → segment
map; a missing, torn, or newer-versioned manifest degrades to a full
directory scan, never to wrong answers.

On top of the segments, :class:`~repro.query.engine.QueryEngine`
answers the questions a fleet of developers actually asks of a context
store bigger than any one process (per the Android-scale call-path
literature):

* time-windowed **top-K** hottest contexts;
* **window-vs-window diff** — "what contexts appeared after the hot
  swap?";
* per-function **rollups** (inclusive and leaf-only);
* **paths through** one function, from one pass over each segment's
  trie;
* **flame-graph export** in the folded-stack format (round-trippable);
* **UCP forensics** joining dead-letter triage records to the
  :class:`~repro.analysis.incremental.GraphDelta` epoch that explains
  them.

Because segments are immutable files, every query answer is
reproducible after a crash: the chaos harness asserts byte-identical
pre-crash / post-recover answers (see ``python -m repro chaos``).

Unbounded runs stay bounded: :class:`~repro.query.compact.Compactor`
merges accumulated delta segments into one cumulative multi-span
segment (byte-identical answers, fewer files) and enforces a
:class:`~repro.query.compact.RetentionPolicy`
(max_segments/max_bytes/max_age caps, counted tombstoned deletions)
— every swap journaled so a SIGKILL at any byte leaves either the old
generation or the new one, never a mix. Cross-process readers pin the
generation they serve via the advisory locks in
:mod:`repro.query.locks` (``fcntl`` leases with stale-lock breaking)
and keep answering while the compactor swaps generations under them.

Wiring::

    cfg = ServiceConfig(workers=2, segment_dir="segments/")
    service = ContextService(plan, cfg).start()
    ...ingest...
    service.flush_segments()      # or let CheckpointDaemon do it
    q = service.query()
    q.top_contexts(10, window=(t0, t1))
    q.diff((t0, t1), (t1, t2))
    open("profile.folded", "w").write(q.flamegraph())

Everything reports under the ``query.*`` metric namespace via
:mod:`repro.obs`. See ``docs/QUERY.md`` for the file formats and a
query cookbook.
"""

from __future__ import annotations

from repro.query.compact import (
    CompactionPolicy,
    Compactor,
    RetentionPolicy,
)
from repro.query.engine import QueryEngine, WindowDiff, ucp_forensics
from repro.query.flamegraph import from_folded, to_folded
from repro.query.locks import DirectoryLock, LockHeldError, SnapshotPin
from repro.query.manifest import SegmentStore, load_manifest, write_manifest
from repro.query.segment import (
    EncodedSegment,
    Segment,
    SegmentState,
    load_segment,
    segment_name,
    write_segment,
)
from repro.query.writer import SegmentWriter

__all__ = [
    "CompactionPolicy",
    "Compactor",
    "DirectoryLock",
    "EncodedSegment",
    "LockHeldError",
    "QueryEngine",
    "RetentionPolicy",
    "Segment",
    "SegmentState",
    "SegmentStore",
    "SegmentWriter",
    "SnapshotPin",
    "WindowDiff",
    "from_folded",
    "load_manifest",
    "load_segment",
    "segment_name",
    "to_folded",
    "ucp_forensics",
    "write_manifest",
    "write_segment",
]
