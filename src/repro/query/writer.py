""":class:`SegmentWriter` — turns aggregation-tree snapshots into segments.

The sharded tree holds *cumulative* counts; segments hold *deltas*, so
that summing every overlapping segment over a time window reconstructs
exactly what happened in that window. The writer keeps the baseline
(the cumulative counts as of the last successful flush) and each
``flush()`` emits only what changed since, stamped with the half-open
wall-clock window ``[last_flush, now)``. A flush that would write an
empty segment writes nothing.

The baseline is keyed like the tree, by integer ``(pid, epoch)``, so a
flush is one integer pass over the shard counts
(:meth:`~repro.service.shards.ShardedContextTree.count_rows`) plus work
proportional to the delta, and decodes no path: the changed keys'
integer deltas go to :meth:`~repro.service.store.ContextStore.
encode_counted`, the trie walk checkpoints use, which returns the
segment's sections as an :class:`~repro.query.segment.EncodedSegment`
holds them. Contexts that did not change since the last flush cost a
dict lookup each.

Crash discipline mirrors the checkpoint daemon: a failed flush leaves
baseline and window untouched, so the next attempt re-covers the same
delta — segments never lose samples, at worst a window widens. After
recovery the service calls :meth:`rebase` with the recovered rows so
samples already persisted in pre-crash segments are not re-emitted.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.errors import QueryError
from repro.query.manifest import SegmentStore
from repro.query.segment import EncodedSegment

__all__ = ["SegmentWriter"]

_Key = Tuple[Tuple[str, ...], int]  # (path, epoch)
_PidKey = Tuple[int, int]  # (pid, epoch)
_Counts = Tuple[int, int]  # (count, gaps)


def _cumulative(rows: Iterable[tuple]) -> Dict[_Key, Tuple[int, int]]:
    out: Dict[_Key, Tuple[int, int]] = {}
    for path, count, gaps, epoch in rows:
        key = (tuple(path), epoch)
        prev = out.get(key)
        if prev is None:
            out[key] = (count, gaps)
        else:  # same (path, epoch) from multiple shards
            out[key] = (prev[0] + count, prev[1] + gaps)
    return out


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
        #: (path, epoch) -> (count, gaps) from a :meth:`rebase` whose
        #: path the tree's store had not interned; an entry moves into
        #: ``_baseline`` with the first written flush that counts it.
        self._remainder: Dict[_Key, _Counts] = {}
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

        Deltas clamp at zero per component: a reconciled baseline (see
        :meth:`rebase`) can sit *ahead* of a recovered tree for keys
        whose flushed counts outlived the checkpoint; those keys emit
        nothing until the tree catches back up, instead of writing a
        negative row.

        The window start never moves backward, so a wall clock that
        steps back cannot make a segment overlap the one before it.
        """
        with self._lock:
            counted, advance = self._delta()
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
            for key, counts, remainder_key in advance:
                self._baseline[key] = counts
                if remainder_key is not None:
                    del self._remainder[remainder_key]
            self._window_start = now
            self.flushes += 1
            return path

    def _delta(self) -> Tuple[List[tuple], List[tuple]]:
        """This flush's ``((pid, epoch), count, gaps)`` deltas and the
        ``(key, counts, remainder_key)`` baseline updates to apply once
        they are written.

        One integer pass over the tree's counts finds the keys past
        their baseline, or new to it. A key missing from the integer
        baseline takes its baseline from the rebase remainder when its
        path is there; those keys' paths are the only ones decoded, and
        only while the remainder holds anything. The baseline moves
        forward, never backward, per component: where it ran ahead of
        the tree (durable segments outliving a checkpoint), adopting
        the smaller tree value would let a later flush re-emit counts
        the store already holds.
        """
        baseline, remainder = self._baseline, self._remainder
        moved: List[tuple] = []  # (key, count, gaps, baseline or None)
        for key, count, gaps in self.tree.count_rows():
            base = baseline.get(key)
            if base is None or count > base[0] or gaps > base[1]:
                moved.append((key, count, gaps, base))
        counted: List[tuple] = []
        advance: List[tuple] = []
        if not moved:
            return counted, advance
        unbased: Dict[_PidKey, _Key] = {}
        if remainder:
            keys = [entry[0] for entry in moved if entry[3] is None]
            paths = self.tree.store.paths(key[0] for key in keys)
            unbased = {
                key: (path, key[1]) for key, path in zip(keys, paths)
                if (path, key[1]) in remainder
            }
        for key, count, gaps, base in moved:
            remainder_key = None
            if base is None:
                remainder_key = unbased.get(key)
                base = remainder.get(remainder_key, (0, 0))
            base_count, base_gaps = base
            if count > base_count or gaps > base_gaps:
                counted.append((
                    key,
                    max(0, count - base_count),
                    max(0, gaps - base_gaps),
                ))
            advance.append((
                key,
                (max(base_count, count), max(base_gaps, gaps)),
                remainder_key,
            ))
        return counted, advance

    def _salvage(self, encoded: EncodedSegment) -> Optional[str]:
        """After a failed append: did the segment land durably anyway?

        Scans the refreshed store (which adopts orphan segments the
        manifest never recorded) for a segment holding exactly the
        attempted trie, rows, window and fingerprint, compared as the
        file holds them, so no path is built. Returns its path, or None
        when the write genuinely never made it.
        """
        pids = [row[0] for row in encoded.rows]
        counts = [row[1:] for row in encoded.rows]
        try:
            self.store.refresh()
            for seg in self.store.segments():
                if (
                    seg.fingerprint == encoded.fingerprint
                    and abs(seg.t_lo - encoded.t_lo) < 1e-9
                    and abs(seg.t_hi - encoded.t_hi) < 1e-9
                    and seg.names == encoded.names
                    and seg.nodes == encoded.nodes
                    and seg.pids == pids
                    and seg.state.row_spans == tuple(encoded.row_spans)
                    and [row[1:] for row in seg.rows] == counts
                ):
                    return seg.path
        except Exception:  # noqa: BLE001 - salvage is best-effort
            return None
        return None

    def rebase(
        self,
        rows: Iterable[tuple],
        *,
        reconcile_store: bool = False,
        expected_generation: Optional[int] = None,
    ) -> None:
        """Reset the baseline after recovery.

        Plain ``rebase(rows)`` adopts the recovered tree contents as
        the baseline: counts restored from a checkpoint are not *new*
        and must not be emitted again.

        ``reconcile_store=True`` goes further and rebuilds the baseline
        from the **durable segments themselves** — the correct baseline
        after a process crash, where checkpoint cadence and segment
        cadence disagree in either direction.  Per key: counts the
        store holds beyond the checkpoint are never re-emitted (no
        double count), and counts the checkpoint restored that never
        reached a segment are emitted by the next flush (not dropped).
        ``rows`` is only the fallback when the store cannot be read.
        The reconciliation includes the directory's **retired totals**
        (rows retention deliberately deleted), so aged-out history is
        not mistaken for un-flushed samples and re-emitted.

        ``expected_generation`` guards recovery flows that captured
        ``rows`` against a specific manifest generation: if the store
        has since been compacted past it, the captured rows describe a
        world that no longer exists and the rebase is rejected with
        :class:`QueryError` — reconcile against the live store instead
        of silently adopting a pre-compaction baseline.

        Rows are matched to the tree's integer keys with
        ``tree.store.lookup``, which never interns: a recovery must not
        grow the context store. A path the store has not interned yet
        (the segments hold a context the recovered tree has not seen)
        waits in a small path-keyed remainder, consulted only when that
        path first shows up among a flush's changed contexts.
        """
        with self._lock:
            if expected_generation is not None:
                self.store.refresh()
                current = self.store.generation
                if int(expected_generation) < current:
                    raise QueryError(
                        f"rebase rejected: rows were captured at "
                        f"generation {expected_generation} but the store "
                        f"was compacted to generation {current}; "
                        f"reconcile against the store instead"
                    )
            cumulative = self._store_cumulative() if reconcile_store else None
            if cumulative is None:
                cumulative = _cumulative(rows)
            lookup = self.tree.store.lookup
            self._baseline, self._remainder = {}, {}
            for (path, epoch), counts in cumulative.items():
                pid = lookup(path)
                if pid is None:
                    self._remainder[(path, epoch)] = counts
                else:
                    self._baseline[(pid, epoch)] = counts
            self._window_start = self._clock()

    def _store_cumulative(self) -> Optional[Dict[_Key, Tuple[int, int]]]:
        """Sum every durable segment's delta rows — plus the retired
        totals retention deleted from the directory — or None on
        failure. Without the retired component a recovered writer
        whose tree outlived a retention sweep would see "the store
        holds less than the tree" and re-emit history that was
        deliberately aged out."""
        try:
            self.store.refresh()
            out: Dict[_Key, Tuple[int, int]] = {}
            for seg in self.store.segments():
                for path, count, gaps, epoch in seg.rows:
                    key = (tuple(path), epoch)
                    prev = out.get(key, (0, 0))
                    out[key] = (prev[0] + count, prev[1] + gaps)
            for key, (count, gaps) in self.store.retired_totals().items():
                prev = out.get(key, (0, 0))
                out[key] = (prev[0] + count, prev[1] + gaps)
            return out
        except Exception:  # noqa: BLE001 - recovery must not die here
            return None

    def stats(self) -> dict:
        with self._lock:
            out = {
                "flushes": self.flushes,
                "empty_flushes": self.empty_flushes,
                "salvaged_flushes": self.salvaged_flushes,
                "baseline_rows": len(self._baseline) + len(self._remainder),
                "window_start": self._window_start,
            }
        out.update(self.store.stats())
        return out
