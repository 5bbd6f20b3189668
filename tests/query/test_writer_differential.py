"""The integer-keyed segment writer against the path-keyed one it replaced.

The reference below is the writer's earlier flush, kept verbatim in
spirit: every flush decodes every retained context through
``tree.rows()``, diffs the whole snapshot against a ``(path, epoch)``
baseline and copies that baseline forward, and ``rebase`` adopts
path-keyed rows as they come. The writer now diffs integer
``(pid, epoch)`` counts and decodes only the contexts that moved. Both
share one tree and one fixed clock over seeded interleavings of ingest,
flushes, crashes, salvage, rebases, recoveries and retention; their
segment files must stay byte-identical and their counters equal.
"""

import os
import random

import pytest

from repro.query.compact import CompactionPolicy, Compactor, RetentionPolicy
from repro.query.manifest import SegmentStore
from repro.query.segment import SegmentState
from repro.query.writer import SegmentWriter
from repro.service.shards import ShardedContextTree

FUNCTIONS = ("main", "parse", "lex", "emit", "opt", "gc", "io")
STATS = ("flushes", "empty_flushes", "salvaged_flushes", "baseline_rows")


# ----------------------------------------------------------------------
# Reference: the path-keyed writer
# ----------------------------------------------------------------------
def path_cumulative(rows):
    out = {}
    for path, count, gaps, epoch in rows:
        key = (tuple(path), epoch)
        prev = out.get(key, (0, 0))
        out[key] = (prev[0] + count, prev[1] + gaps)
    return out


class ReferenceWriter(SegmentWriter):
    """Decode everything, diff everything, copy the baseline forward.

    ``_baseline`` holds ``(path, epoch)`` keys here; ``_salvage`` and
    ``_store_cumulative`` are shared with the writer under test.
    """

    def flush(self, fault=None):
        with self._lock:
            cumulative = path_cumulative(self.tree.rows())
            rows = []
            for key, (count, gaps) in cumulative.items():
                base_count, base_gaps = self._baseline.get(key, (0, 0))
                d_count = max(0, count - base_count)
                d_gaps = max(0, gaps - base_gaps)
                if d_count or d_gaps:
                    rows.append((key[0], d_count, d_gaps, key[1]))
            now = self._clock()
            if not rows:
                self.empty_flushes += 1
                self._window_start = now
                return None
            rows.sort(key=lambda r: (r[0], r[3]))
            state = SegmentState(
                t_lo=self._window_start,
                t_hi=max(now, self._window_start),
                fingerprint=self.fingerprint,
                rows=tuple(rows),
            )
            try:
                path = self.store.append(state, fault=fault)
            except Exception:
                path = self._salvage(state)
                if path is None:
                    raise
                self.salvaged_flushes += 1
            merged = dict(self._baseline)
            for key, (count, gaps) in cumulative.items():
                base_count, base_gaps = merged.get(key, (0, 0))
                merged[key] = (max(base_count, count), max(base_gaps, gaps))
            self._baseline = merged
            self._window_start = state.t_hi
            self.flushes += 1
            return path

    def rebase(self, rows, *, reconcile_store=False, expected_generation=None):
        with self._lock:
            baseline = self._store_cumulative() if reconcile_store else None
            self._baseline = (
                baseline if baseline is not None else path_cumulative(rows)
            )
            self._window_start = self._clock()


# ----------------------------------------------------------------------
# Harness: one tree, twin directories, lockstep operations
# ----------------------------------------------------------------------
def make_pool(rng, n=48):
    pool = {()}
    while len(pool) < n:
        depth = rng.randint(1, 5)
        pool.add(tuple(rng.choice(FUNCTIONS) for _ in range(depth)))
    return sorted(pool)


def durable_files(directory):
    files = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith((".dpqs", ".dpqr")):
            with open(os.path.join(directory, name), "rb") as fh:
                files[name] = fh.read()
    return files


class Twin:
    """A writer under test and a reference writer fed identically."""

    def __init__(self, root, tree):
        self.clock = [100.0]
        self.dirs = (os.path.join(root, "new"), os.path.join(root, "ref"))
        self.attach(tree)

    def attach(self, tree):
        """Fresh writers over the same directories: a process restart."""
        self.writers = tuple(
            cls(tree, directory, fingerprint="fp",
                clock=lambda: self.clock[0])
            for cls, directory in zip(
                (SegmentWriter, ReferenceWriter), self.dirs
            )
        )

    def tick(self, seconds=10.0):
        self.clock[0] += seconds

    def both(self, op):
        outcomes = []
        for writer in self.writers:
            try:
                result = op(writer)
            except Exception as exc:  # noqa: BLE001 - compared below
                outcomes.append(("raised", type(exc).__name__, str(exc)))
            else:
                if isinstance(result, str):
                    result = os.path.basename(result)
                outcomes.append(("ok", result))
        assert outcomes[0] == outcomes[1]
        self.check()
        return outcomes[0]

    def check(self):
        new, ref = (durable_files(d) for d in self.dirs)
        assert sorted(new) == sorted(ref)
        for name in new:
            assert new[name] == ref[name], name
        stats = [
            {key: writer.stats()[key] for key in STATS}
            for writer in self.writers
        ]
        assert stats[0] == stats[1]

    # -- operations -----------------------------------------------------
    def flush(self):
        self.tick()
        return self.both(lambda w: w.flush())

    def crash_then_retry(self, after):
        def crash(records):
            if records >= after:
                raise OSError("injected flush crash")

        self.tick()
        outcome = self.both(lambda w: w.flush(fault=crash))
        self.tick()
        self.both(lambda w: w.flush())
        return outcome

    def salvaged_flush(self):
        def land_then_raise(writer):
            real = writer.store.append

            def dying(state, fault=None):
                real(state, fault=fault)
                raise OSError("died after the segment landed")

            writer.store.append = dying
            try:
                return writer.flush()
            finally:
                writer.store.append = real

        self.tick()
        return self.both(land_then_raise)

    def rebase(self, rows, **kwargs):
        return self.both(lambda w: w.rebase(list(rows), **kwargs))

    def compact(self, retention=None):
        policy = CompactionPolicy(
            retention=retention or RetentionPolicy()
        )
        reports = [
            Compactor(
                SegmentStore(directory), policy, clock=lambda: self.clock[0]
            ).compact(now=self.clock[0], force=True)
            for directory in self.dirs
        ]
        self.check()
        return reports


def ingest(tree, rng, pool, n):
    for _ in range(n):
        weight = 0 if rng.random() < 0.05 else rng.randint(1, 5)
        tree.add(
            rng.choice(pool),
            has_gaps=rng.random() < 0.3,
            weight=weight,
            epoch=rng.choice((0, 1)),
        )


def perturbed(rows, rng, extra=()):
    """Rows a plain ``rebase`` adopts that differ from the tree: counts
    and gap counts nudged both ways (so later flushes see count-only,
    gap-only and clamped moves), rows dropped, and rows for paths the
    tree has not interned."""
    out = []
    for path, count, gaps, epoch in rows:
        if rng.random() < 0.15:
            continue
        out.append((
            path,
            max(0, count + rng.randint(-2, 1)),
            max(0, gaps + rng.randint(-2, 1)),
            epoch,
        ))
    for path in extra:
        out.append((path, rng.randint(1, 4), rng.randint(0, 2), rng.choice((0, 1))))
    return out


# ----------------------------------------------------------------------
# Interleavings
# ----------------------------------------------------------------------
OPS = ("ingest", "flush", "empty", "crash", "salvage", "rebase", "zero")


@pytest.mark.parametrize("seed", range(10))
def test_seeded_interleavings(tmp_path, seed):
    rng = random.Random(seed)
    pool = make_pool(rng)
    interned, held_back = pool[: len(pool) * 3 // 4], pool[len(pool) * 3 // 4 :]
    tree = ShardedContextTree(rng.choice((1, 2, 4)))
    twin = Twin(str(tmp_path), tree)
    # Every kind at least once, the rest at random, in seeded order.
    ops = list(OPS) + rng.choices(OPS, k=30)
    rng.shuffle(ops)
    for op in ops:
        if op == "ingest":
            ingest(tree, rng, interned, rng.randint(1, 25))
        elif op == "flush":
            twin.flush()
        elif op == "empty":
            twin.flush()
            assert twin.flush()[1] is None
        elif op == "crash":
            ingest(tree, rng, interned, 3)
            assert twin.crash_then_retry(rng.randint(1, 3))[0] == "raised"
        elif op == "salvage":
            ingest(tree, rng, interned, 3)
            twin.salvaged_flush()
        elif op == "rebase":
            twin.rebase(perturbed(tree.rows(), rng, rng.sample(held_back, 3)))
        elif op == "zero":
            tree.add(rng.choice(pool), weight=0, epoch=rng.choice((0, 1)))
            if rng.random() < 0.5:
                ingest(tree, rng, interned, 2)
    # Held-back paths arrive last, so every remainder entry is consulted.
    ingest(tree, rng, pool, 60)
    twin.flush()
    twin.flush()
    assert twin.writers[0].salvaged_flushes >= 1
    assert twin.writers[0].empty_flushes >= 1


def restored(rows, rng, drop_paths):
    """A recovered tree: a checkpoint older or newer than the segments
    per key, missing ``drop_paths`` entirely."""
    tree = ShardedContextTree(2)
    for path, count, gaps, epoch in rows:
        if path in drop_paths:
            continue
        count = max(0, count + rng.choice((-3, -1, 0, 0, 2)))
        tree.restore_rows([(path, count, min(gaps, count), epoch)])
    return tree


@pytest.mark.parametrize("seed", range(6))
def test_reconcile_store_ahead_behind_and_uninterned(tmp_path, seed):
    rng = random.Random(1000 + seed)
    pool = make_pool(rng)
    tree = ShardedContextTree(2)
    twin = Twin(str(tmp_path), tree)
    for _ in range(4):
        ingest(tree, rng, pool, 30)
        twin.flush()
    ingest(tree, rng, pool, 10)  # never flushed: the tree runs ahead
    rows = tree.rows()
    drop = set(rng.sample(sorted({row[0] for row in rows}), 4))
    recovered = restored(rows, rng, drop)
    twin.attach(recovered)
    contexts = len(recovered.store)
    twin.rebase(recovered.rows(), reconcile_store=True)
    assert len(recovered.store) == contexts, "rebase interned a path"
    waiting = len(twin.writers[0]._remainder)
    assert waiting, "no durable path was missing from the recovered tree"
    for _ in range(5):
        ingest(recovered, rng, pool, 20)
        twin.flush()
        twin.flush()
    assert len(twin.writers[0]._remainder) < waiting


@pytest.mark.parametrize("seed", range(4))
def test_retired_totals_after_retention(tmp_path, seed):
    rng = random.Random(2000 + seed)
    pool = make_pool(rng)
    tree = ShardedContextTree(2)
    twin = Twin(str(tmp_path), tree)
    for _ in range(6):
        ingest(tree, rng, pool, 25)
        twin.flush()
    reports = twin.compact(RetentionPolicy(max_age_s=25.0))
    assert reports[0]["dropped_spans"] >= 1
    retired = []
    for directory in twin.dirs:
        store = SegmentStore(directory)
        store.refresh()
        retired.append(store.retired_totals())
    assert retired[0] and retired[0] == retired[1]
    # Recover from a checkpoint of the full tree: the retired rows must
    # not come back out, and only post-recovery traffic is written.
    recovered = restored(tree.rows(), random.Random(seed), set())
    twin.attach(recovered)
    twin.rebase(recovered.rows(), reconcile_store=True)
    for _ in range(3):
        ingest(recovered, rng, pool, 15)
        twin.flush()
    twin.compact()
    ingest(recovered, rng, pool, 15)
    twin.flush()
