"""Sharded calling-context-tree aggregation, merged on read.

Workers aggregate decoded contexts into N independent shards — each a
histogram plus flat rollup counters behind its own lock — so concurrent
batches contend only when they hash to the same shard. Reads (top-K,
rollups, rendering) merge the shards into a fresh
:class:`~repro.postprocess.ContextTreeReport`; the write path never
blocks on a reader building a report.

Two things changed with the batch-first redesign:

* **Contexts are integers.** Retained paths live once, delta-encoded
  and block-compressed, in a shared
  :class:`~repro.service.store.ContextStore`; shards count integer pids
  instead of tuples of strings. Sharding is by pid, so all observations
  of one context land in one shard and merging stays pure addition.
* **Counts carry their epoch.** Every count is keyed ``(pid, epoch)``,
  so queries can answer "under which plan generation was this traffic
  observed" (``epoch=`` filters) without a second bookkeeping pass.

The batched write path (:meth:`add_counts`) applies a whole decoded
batch in one locked pass per shard — the per-group cost after
dedup-then-decode is a dict update, not a lock round trip. Its entries
carry pids the decode engine already interned, so it walks no path.

Every write also marks its ``(pid, epoch)`` key *touched* in its shard
(one ``set.add`` under the lock the write holds anyway). The segment
writer takes the touched keys' rows (:meth:`take_rows`) instead of
reading every count, so a flush costs what was written since the last
one, not what the tree has counted over its life. Until the first take
every key counts as touched and nothing is tracked, so a tree no
writer takes from (a service without a segment store) keeps no set.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ServiceError
from repro.postprocess import ContextTreeReport, top_k
from repro.service.store import ContextStore

__all__ = ["ShardStats", "ShardedContextTree"]

Path = Tuple[str, ...]
#: One decoded, counted group: (pid, has_gaps, weight, epoch, leaf name
#: id or None).
CountEntry = Tuple[int, bool, int, int, Optional[int]]


class _Shard:
    """One lock-guarded slice of the aggregate state."""

    __slots__ = (
        "lock", "counts", "leaf_totals", "gap_counts", "gap_samples",
        "samples", "touched",
    )

    def __init__(self):
        self.lock = threading.Lock()
        #: (pid, epoch) -> observation count (the histogram top-K reads).
        self.counts: Dict[Tuple[int, int], int] = {}
        #: (leaf name id, epoch) -> observation count.
        self.leaf_totals: Dict[Tuple[Optional[int], int], int] = {}
        #: (pid, epoch) -> gap-crossing observation count (checkpointed
        #: so a recovery reproduces UCP accounting, not just totals).
        self.gap_counts: Dict[Tuple[int, int], int] = {}
        self.gap_samples = 0
        self.samples = 0
        #: The (pid, epoch) keys written since the segment writer last
        #: took them (:meth:`ShardedContextTree.take_rows`); None
        #: before the first take, when every key counts as touched.
        self.touched: Optional[Set[Tuple[int, int]]] = None


class ShardStats:
    """Read-side summary of shard balance."""

    def __init__(self, sizes: List[int]):
        self.sizes = sizes

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def imbalance(self) -> float:
        """max/mean shard load (1.0 = perfectly even)."""
        if not self.sizes or not self.total:
            return 1.0
        mean = self.total / len(self.sizes)
        return max(self.sizes) / mean if mean else 1.0


class ShardedContextTree:
    """N calling-context-tree shards over one compressed context store."""

    def __init__(self, shards: int = 8, store: Optional[ContextStore] = None):
        if shards < 1:
            raise ValueError("need at least one shard")
        self._shards = [_Shard() for _ in range(shards)]
        self.store = store if store is not None else ContextStore()

    def _shard_of(self, pid: int) -> _Shard:
        return self._shards[pid % len(self._shards)]

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def add(
        self,
        path: Path,
        has_gaps: bool = False,
        weight: int = 1,
        *,
        epoch: int = 0,
        samples: Optional[int] = None,
    ) -> None:
        """Aggregate one decoded context path, ``weight`` times.

        ``samples`` is the number of observations behind ``weight``
        (defaults to ``weight``) — the figure ``total_samples`` and
        shard-balance stats track.
        """
        pid = self.store.intern(tuple(path))
        self.add_counts(
            [(pid, has_gaps, weight, epoch, self.store.leaf_name_id(pid))],
            samples=samples,
        )

    def add_counts(
        self,
        entries: Iterable[CountEntry],
        *,
        samples: Optional[int] = None,
    ) -> None:
        """Apply decoded (pid, has_gaps, weight, epoch, leaf) groups.

        Each pid is a node of the shared store (as
        :meth:`~repro.service.engine.DecodeEngine.decode_batch` returns
        it, with its leaf name id) and becomes a retained context; the
        counts land with one lock acquisition per touched shard.
        ``samples`` overrides the per-entry observation count (summed
        weight by default) — the batch path passes the true sample
        total so weighted submissions stay accounted.
        """
        by_shard: Dict[int, List[CountEntry]] = {}
        n_shards = len(self._shards)
        for entry in entries:
            by_shard.setdefault(entry[0] % n_shards, []).append(entry)
        self.store.retain(
            entry[0] for rows in by_shard.values() for entry in rows
        )
        for shard_index, rows in by_shard.items():
            shard = self._shards[shard_index]
            with shard.lock:
                touched = shard.touched
                for pid, has_gaps, weight, epoch, leaf in rows:
                    key = (pid, epoch)
                    if touched is not None:
                        touched.add(key)
                    shard.counts[key] = shard.counts.get(key, 0) + weight
                    leaf_key = (leaf, epoch)
                    shard.leaf_totals[leaf_key] = (
                        shard.leaf_totals.get(leaf_key, 0) + weight
                    )
                    if has_gaps:
                        shard.gap_counts[key] = (
                            shard.gap_counts.get(key, 0) + weight
                        )
                        shard.gap_samples += weight
                    if samples is None:
                        shard.samples += weight
        if samples is not None and by_shard:
            # One declared observation total for the whole batch; land
            # it on the first touched shard so sums stay exact.
            shard = self._shards[next(iter(by_shard))]
            with shard.lock:
                shard.samples += samples

    # ------------------------------------------------------------------
    # Read path (merge on read)
    # ------------------------------------------------------------------
    def _merged_counts(
        self, epoch: Optional[int] = None
    ) -> Dict[int, int]:
        """pid -> count, merged across shards (and epochs unless given)."""
        merged: Dict[int, int] = {}
        for shard in self._shards:
            with shard.lock:
                for (pid, row_epoch), count in shard.counts.items():
                    if epoch is not None and row_epoch != epoch:
                        continue
                    merged[pid] = merged.get(pid, 0) + count
        return merged

    def top_contexts(
        self,
        k: int = 10,
        *,
        epoch: Optional[int] = None,
        decoded: bool = True,
    ) -> List[Tuple[int, object]]:
        """The ``k`` hottest contexts as (count, path), heaviest first.

        ``epoch`` restricts to observations stamped with that plan
        epoch. ``decoded=False`` returns integer context ids (pids)
        instead of decoded paths — cheap handles for diffing or joining
        without touching the compressed store; resolve them later with
        ``tree.store.path(pid)``. Ties break on the path (the pid when
        not decoded), ascending.

        Pids are ranked by count first; only those whose count reaches
        the k-th largest are decoded, so a top-10 over a large tree
        decodes about ten paths, not every retained one. Raises
        :class:`ServiceError` when ``k`` is negative.
        """
        if k < 0:
            raise ServiceError(f"top_contexts needs k >= 0, got {k}")
        return top_k(
            self._merged_counts(epoch),
            k,
            self.store.paths if decoded else None,
        )

    def function_totals(
        self,
        leaf_only: bool = False,
        *,
        epoch: Optional[int] = None,
        decoded: bool = True,
    ) -> Dict[object, int]:
        """Per-function rollups.

        ``leaf_only=True`` counts samples whose context *ends* at the
        function (exclusive/self counts); otherwise every function
        appearing anywhere in a context is credited once per observation
        (inclusive counts, the flame-graph number), in one pass over the
        store's trie (:meth:`ContextStore.function_totals`, the pass the
        durable query engine makes too). ``epoch`` filters as in
        :meth:`top_contexts`; ``decoded=False`` keys the result by
        interned name id (resolve with ``tree.store.name_of``).
        """
        if leaf_only:
            totals: Dict[object, int] = {}
            for shard in self._shards:
                with shard.lock:
                    for (leaf, row_epoch), count in shard.leaf_totals.items():
                        if epoch is not None and row_epoch != epoch:
                            continue
                        if leaf is None:
                            continue  # the empty context has no leaf
                        totals[leaf] = totals.get(leaf, 0) + count
        else:
            totals = self.store.function_totals(self._merged_counts(epoch))
        if not decoded:
            return totals
        name_of = self.store.name_of
        return {name_of(name_id): count for name_id, count in totals.items()}

    def merged_report(self) -> ContextTreeReport:
        """One tree containing every shard's contexts (a fresh copy)."""
        report = ContextTreeReport()
        merged = self._merged_counts()
        for path, count in zip(self.store.paths(merged), merged.values()):
            report.add_path(path, count)
        return report

    @property
    def total_samples(self) -> int:
        return sum(s.samples for s in self._shards)

    def weight_total(self, *, epoch: Optional[int] = None) -> int:
        """Aggregated weight (all epochs, or one epoch's slice)."""
        if epoch is None:
            return sum(self._merged_counts().values())
        total = 0
        for shard in self._shards:
            with shard.lock:
                for (_pid, row_epoch), count in shard.counts.items():
                    if row_epoch == epoch:
                        total += count
        return total

    def gap_total(self, *, epoch: Optional[int] = None) -> int:
        """Gap-crossing observations (optionally one epoch's)."""
        if epoch is None:
            return sum(s.gap_samples for s in self._shards)
        total = 0
        for shard in self._shards:
            with shard.lock:
                for (_pid, row_epoch), count in shard.gap_counts.items():
                    if row_epoch == epoch:
                        total += count
        return total

    @property
    def gap_samples(self) -> int:
        """Samples whose decode crossed a dynamic-loading gap (UCP)."""
        return self.gap_total()

    @property
    def unique_contexts(self) -> int:
        seen = set()
        for shard in self._shards:
            with shard.lock:
                seen.update(pid for pid, _epoch in shard.counts)
        return len(seen)

    def shard_stats(self) -> ShardStats:
        return ShardStats([s.samples for s in self._shards])

    def count_of(self, path: Path, *, epoch: Optional[int] = None) -> int:
        """The aggregated count of one exact context path."""
        pid = self.store.lookup(tuple(path))
        if pid is None:
            return 0
        shard = self._shard_of(pid)
        total = 0
        with shard.lock:
            for (row_pid, row_epoch), count in shard.counts.items():
                if row_pid != pid:
                    continue
                if epoch is not None and row_epoch != epoch:
                    continue
                total += count
        return total

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.counts.clear()
                shard.leaf_totals.clear()
                shard.gap_counts.clear()
                shard.gap_samples = 0
                shard.samples = 0
                if shard.touched is not None:
                    shard.touched.clear()

    # ------------------------------------------------------------------
    # Checkpoint surface
    # ------------------------------------------------------------------
    def count_rows(self) -> List[Tuple[Tuple[int, int], int, int]]:
        """A consistent-per-shard snapshot of
        ``((pid, epoch), count, gap_count)`` for every counted key.

        Each shard lock is taken once and nothing is decoded, so the
        cost is one pass over the integer counts. Order is unspecified;
        :meth:`rows` is the decoded, sorted form. Nothing is taken:
        the keys written since the last :meth:`take_rows` stay touched.
        """
        rows: List[Tuple[Tuple[int, int], int, int]] = []
        for shard in self._shards:
            with shard.lock:
                gap_counts = shard.gap_counts
                rows.extend(
                    (key, count, gap_counts.get(key, 0))
                    for key, count in shard.counts.items()
                )
        return rows

    def take_rows(
        self, *, every: bool = False
    ) -> List[Tuple[Tuple[int, int], int, int]]:
        """The :meth:`count_rows` of the keys written since the last
        take (of every key at the first take, or when ``every``), and
        no longer touched.

        Each shard's rows are read and its touched set emptied under
        one hold of its lock, so a write landing after the read touches
        its key again and the next take returns it. The cost follows
        the keys written, not the keys held. The segment writer is the
        one caller: a second taker would see only what the first left.
        """
        rows: List[Tuple[Tuple[int, int], int, int]] = []
        for shard in self._shards:
            with shard.lock:
                counts, gap_counts = shard.counts, shard.gap_counts
                keys = shard.touched
                if every or keys is None:
                    keys = counts
                rows.extend(
                    (key, counts[key], gap_counts.get(key, 0)) for key in keys
                )
                shard.touched = set()
        return rows

    def retouch(self, keys: Iterable[Tuple[int, int]]) -> None:
        """Mark ``keys`` written again, so the next :meth:`take_rows`
        returns them: a flush that took them and failed hands them
        back. Keys the tree no longer counts (cleared since) are
        dropped."""
        n_shards = len(self._shards)
        by_shard: Dict[int, List[Tuple[int, int]]] = {}
        for key in keys:
            by_shard.setdefault(key[0] % n_shards, []).append(key)
        for shard_index, shard_keys in by_shard.items():
            shard = self._shards[shard_index]
            with shard.lock:
                counts = shard.counts
                shard.touched.update(
                    key for key in shard_keys if key in counts
                )

    def rows(self) -> List[Tuple[Path, int, int, int]]:
        """A consistent-per-shard snapshot of
        ``(path, count, gap_count, epoch)`` — everything
        :meth:`restore_rows` needs to rebuild counts, leaf rollups, gap
        accounting, and the per-epoch breakdown.

        Rows come back in a **stable** order — sorted by (path, epoch),
        never by trie-append or dict-insertion order — so two trees
        holding the same aggregate state snapshot to identical row
        lists regardless of how ingest interleaved. Query segments
        written from these rows are therefore byte-deterministic, and
        so are checkpoints, which
        :meth:`~repro.service.store.ContextStore.encode_counted` writes
        in exactly this order without decoding them.
        """
        counted = self.count_rows()
        paths = self.store.paths(key[0] for key, _count, _gaps in counted)
        out = [
            (path, count, gaps, key[1])
            for path, (key, count, gaps) in zip(paths, counted)
        ]
        out.sort(key=lambda row: (row[0], row[3]))
        return out

    def restore_rows(self, rows, *, default_epoch: int = 0) -> int:
        """Merge checkpoint rows back in; returns samples restored.

        Accepts both the current 4-tuple ``(path, count, gaps, epoch)``
        rows and the pre-batch 3-tuple ``(path, count, gaps)`` form
        (old checkpoints), which restores under ``default_epoch``.
        Rows land through the normal sharding function, so a restore
        into a tree with a different shard count still balances.
        """
        restored = 0
        for row in rows:
            path = tuple(row[0])
            count, gaps = int(row[1]), int(row[2])
            epoch = int(row[3]) if len(row) > 3 else default_epoch
            plain = count - gaps
            if plain > 0:
                self.add(path, has_gaps=False, weight=plain, epoch=epoch)
                restored += plain
            if gaps > 0:
                self.add(path, has_gaps=True, weight=gaps, epoch=epoch)
                restored += gaps
        return restored

    def restore_trie(
        self,
        names: List[str],
        nodes: List[int],
        rows: Iterable[Tuple[int, int, int, int]],
    ) -> int:
        """Merge encoded rows back in; returns samples restored.

        Each ``(node, count, gaps, epoch)`` row adds ``count`` to its
        key's count, leaf total and samples and ``gaps`` to its gap
        count and gap samples, so restoring a sequence of delta rows
        (a segment store's) sums them per key, and a checkpoint row
        (``0 <= gaps <= count``) lands as :meth:`restore_rows` lands
        its decoded row. A row that restores nothing leaves no trace.
        The contexts that land are interned straight from the
        ``(names, nodes)`` trie (:meth:`ContextStore.intern_trie`), so
        no path is built.
        """
        landed = [row for row in rows if row[1] or row[2]]
        ids, name_ids = self.store.intern_trie(
            names, nodes, [row[0] for row in landed]
        )
        n_shards = len(self._shards)
        by_shard: Dict[int, List[tuple]] = {}
        for node, count, gaps, epoch in landed:
            if node >= 0:
                pid, leaf = ids[node], name_ids[nodes[2 * node + 1]]
            else:
                pid, leaf = node, None
            by_shard.setdefault(pid % n_shards, []).append(
                ((pid, epoch), leaf, count, gaps)
            )
        for shard_index, entries in by_shard.items():
            shard = self._shards[shard_index]
            with shard.lock:
                touched = shard.touched
                for key, leaf, count, gaps in entries:
                    if touched is not None:
                        touched.add(key)
                    shard.counts[key] = shard.counts.get(key, 0) + count
                    leaf_key = (leaf, key[1])
                    shard.leaf_totals[leaf_key] = (
                        shard.leaf_totals.get(leaf_key, 0) + count
                    )
                    if gaps:
                        shard.gap_counts[key] = (
                            shard.gap_counts.get(key, 0) + gaps
                        )
                        shard.gap_samples += gaps
                    shard.samples += count
        return sum(row[1] for row in landed)

    def render(self, min_total: int = 1, max_depth: Optional[int] = None) -> str:
        return self.merged_report().render(
            min_total=min_total, max_depth=max_depth
        )
