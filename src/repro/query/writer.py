""":class:`SegmentWriter` — turns aggregation-tree snapshots into segments.

The sharded tree holds *cumulative* counts; segments hold *deltas*, so
that summing every overlapping segment over a time window reconstructs
exactly what happened in that window. The writer keeps the baseline
(the cumulative counts as of the last successful flush) and each
``flush()`` emits only what changed since, stamped with the half-open
wall-clock window ``[last_flush, now)``. A flush that would write an
empty segment writes nothing.

The baseline is keyed like the tree, by integer ``(pid, epoch)``, and
remembers the shard versions it reflects
(:meth:`~repro.service.shards.ShardedContextTree.count_rows_since`):
a flush passes over the counts of the shards written since the last
written flush, so one that finds nothing new costs one lock round trip
per shard. It decodes no path: the changed keys' integer deltas go to
:meth:`~repro.service.store.ContextStore.encode_counted`, which returns
the segment's sections as an :class:`~repro.query.segment.EncodedSegment`
holds them.

The directory is the log of everything flushed: its live segments plus
the retired sidecar retention left hold every flushed count.
:meth:`restore` rebuilds a recovered tree from exactly that, each
segment's trie mapped in through
:meth:`~repro.service.shards.ShardedContextTree.restore_trie`, and
:meth:`rebase` makes the tree the baseline, so a recovered writer
re-emits nothing.

Crash discipline mirrors the checkpoint daemon: a failed flush leaves
baseline and window untouched, so the next attempt re-covers the same
delta — segments never lose samples, at worst a window widens.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.query.manifest import SegmentStore
from repro.query.segment import EncodedSegment

__all__ = ["SegmentWriter", "restore_tree"]

_PidKey = Tuple[int, int]  # (pid, epoch)
_Counts = Tuple[int, int]  # (count, gaps)


def restore_tree(tree, store: SegmentStore) -> int:
    """Add everything ``store`` holds to ``tree``: the rows of each
    segment it serves and of its retired sidecar, each through its own
    trie. Returns the samples restored."""
    restored = 0
    for seg in store.segments():
        restored += tree.restore_trie(seg.names, seg.nodes, list(zip(
            seg.pids, seg.counts, seg.gaps, seg.epochs
        )))
    retired = store.retired_rows()
    if retired is not None:
        restored += tree.restore_trie(
            retired.names, retired.nodes, retired.rows
        )
    return restored


class SegmentWriter:
    """Flushes count deltas from ``tree`` into ``directory`` segments."""

    def __init__(
        self,
        tree,
        directory: str,
        *,
        fingerprint: str = "",
        clock: Callable[[], float] = time.time,
    ):
        self.tree = tree
        self.store = SegmentStore(directory)
        self.fingerprint = fingerprint
        self._clock = clock
        self._lock = threading.Lock()
        #: (pid, epoch) -> (count, gaps) the segments durably hold.
        self._baseline: Dict[_PidKey, _Counts] = {}
        #: The tree's shard versions the baseline reflects (None: none).
        self._versions: Optional[List[int]] = None
        self._window_start = clock()
        self.flushes = 0
        self.empty_flushes = 0
        self.salvaged_flushes = 0

    def set_fingerprint(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint

    # ------------------------------------------------------------------
    def flush(self, fault: Optional[Callable[[int], None]] = None) -> Optional[str]:
        """Write one segment of deltas since the last flush.

        Returns the new segment's path, or None when nothing changed.
        On an exception the baseline/window are left as they were, so
        retrying covers the same samples — with one exception: when the
        failed ``append`` turns out to have landed its segment durably
        (the rename happened, then loading or the manifest rewrite
        blew up — a crash window a dying worker process hits), the
        flush is *salvaged*: the baseline advances, the landed path is
        returned, and ``query.flush_salvaged`` counts it.  Without the
        salvage a retry would re-emit the same delta on top of the
        durable segment and every sample in it would be counted twice.

        The window start never moves backward, so a wall clock that
        steps back cannot make a segment overlap the one before it.
        """
        with self._lock:
            versions, moved = self._delta()
            counted = [
                (key, count - base[0], gaps - base[1])
                for key, count, gaps, base in moved
                if count > base[0] or gaps > base[1]
            ]
            now = max(self._clock(), self._window_start)
            if not counted:
                self.empty_flushes += 1
                self._window_start = now
                return None
            names, nodes, rows = self.tree.store.encode_counted(counted)
            encoded = EncodedSegment(
                t_lo=self._window_start,
                t_hi=now,
                fingerprint=self.fingerprint,
                names=names,
                nodes=nodes,
                rows=rows,
            )
            with obs.span("query.flush", rows=len(rows)):
                try:
                    path = self.store.append(encoded, fault=fault)
                except Exception:
                    path = self._salvage(encoded)
                    if path is None:
                        raise
                    self.salvaged_flushes += 1
                    obs.counter("query.flush_salvaged").inc()
            for key, count, gaps, _base in moved:
                self._baseline[key] = (count, gaps)
            self._versions = versions
            self._window_start = now
            self.flushes += 1
            return path

    def _delta(self) -> Tuple[List[int], List[tuple]]:
        """The tree's shard versions and the keys new to the baseline
        or past it, each ``((pid, epoch), count, gaps, baseline)``.

        Only the shards written since the last written flush are read
        (the tree only grows, and the baseline never runs ahead of it),
        so a flush after one that wrote costs one lock round trip per
        shard until something is added.
        """
        versions, rows = self.tree.count_rows_since(self._versions)
        baseline = self._baseline
        moved: List[tuple] = []
        for key, count, gaps in rows:
            base = baseline.get(key)
            if base is None or count > base[0] or gaps > base[1]:
                moved.append((key, count, gaps, base or (0, 0)))
        return versions, moved

    def _salvage(self, encoded: EncodedSegment) -> Optional[str]:
        """After a failed append: did the segment land durably anyway?

        Scans the refreshed store (which adopts orphan segments the
        manifest never recorded) for a segment holding exactly the
        attempted trie, rows, window and fingerprint, compared as the
        file holds them, so no path is built. Returns its path, or None
        when the write genuinely never made it.
        """
        rows = [tuple(row) for row in encoded.rows]
        try:
            self.store.refresh()
            for seg in self.store.segments():
                if (
                    seg.fingerprint == encoded.fingerprint
                    and abs(seg.t_lo - encoded.t_lo) < 1e-9
                    and abs(seg.t_hi - encoded.t_hi) < 1e-9
                    and seg.names == encoded.names
                    and seg.nodes == encoded.nodes
                    and seg.row_spans == tuple(encoded.row_spans)
                    and list(zip(seg.pids, seg.counts, seg.gaps, seg.epochs))
                    == rows
                ):
                    return seg.path
        except Exception:  # noqa: BLE001 - salvage is best-effort
            return None
        return None

    def rebase(self) -> None:
        """Make the tree's counts the baseline: everything the tree
        holds is durable, so no flush emits it again."""
        with self._lock:
            self._versions, rows = self.tree.count_rows_since(None)
            self._baseline = {key: (count, gaps) for key, count, gaps in rows}
            self._window_start = self._clock()

    def restore(self, beyond: Iterable = ()) -> int:
        """Add this directory's segments as last served to the tree
        (:func:`restore_tree`: live plus retired), then make the whole
        tree the baseline; returns the samples restored. Recovery calls
        it on a tree holding nothing this directory does not.

        ``beyond`` are full checkpoints (``names``, ``nodes`` and
        ``(node, count, gaps, epoch)`` rows) found beside the store. A
        checkpoint can run ahead of the flushes, so each key's count
        past the tree's lands in the tree outside the baseline, and the
        next flush writes it; where the store holds as much, it wins.
        """
        restored = restore_tree(self.tree, self.store)
        self.rebase()
        for checkpoint in beyond:
            rows = [row for row in checkpoint.rows if row[1]]
            ids, _names = self.tree.store.intern_trie(
                checkpoint.names, checkpoint.nodes, [row[0] for row in rows]
            )
            excess = []
            for node, count, gaps, epoch in rows:
                key = (ids[node] if node >= 0 else node, epoch)
                have_count, have_gaps = self._baseline.get(key, (0, 0))
                if count > have_count:
                    more = count - have_count
                    more_gaps = min(more, max(0, gaps - have_gaps))
                    excess.append((node, more, more_gaps, epoch))
            restored += self.tree.restore_trie(
                checkpoint.names, checkpoint.nodes, excess
            )
        return restored

    def stats(self) -> dict:
        with self._lock:
            out = {
                "flushes": self.flushes,
                "empty_flushes": self.empty_flushes,
                "salvaged_flushes": self.salvaged_flushes,
                "baseline_rows": len(self._baseline),
                "window_start": self._window_start,
            }
        out.update(self.store.stats())
        return out
