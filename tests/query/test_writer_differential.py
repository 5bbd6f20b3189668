"""The integer-keyed segment writer against the path-keyed one it replaced.

The reference below is the writer's earlier flush, kept verbatim in
spirit: every flush decodes every retained context through
``tree.rows()``, diffs the whole snapshot against a ``(path, epoch)``
baseline and copies that baseline forward, sorts the delta by
``(path, epoch)`` and encodes it with ``delta_encode_rows``
(:meth:`SegmentState.encode`). Its recovery sums the directory's
segment and retired rows by path, and adds, per path, what a full
checkpoint found beside them holds beyond that. The writer now diffs
integer ``(pid, epoch)`` counts of the shards written since its last
flush, writes the moved keys straight from the context trie
(``ContextStore.encode_counted``), and rebuilds a recovered tree
through each segment's trie, decoding no path. Both share one tree and
one fixed clock over seeded interleavings of ingest, flushes, crashes,
salvage, restarts and retention; the restored tree must equal the
reference's sums, their segment files must stay byte-identical and
their counters equal.
"""

import os
import random

import pytest

from repro.query.compact import CompactionPolicy, Compactor, RetentionPolicy
from repro.query.manifest import SegmentStore
from repro.query.segment import SegmentState
from repro.query.writer import SegmentWriter
from repro.resilience.checkpoint import CheckpointState
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

    ``_baseline`` holds ``(path, epoch)`` keys here; ``_salvage`` is
    shared with the writer under test.
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
            encoded = state.encode()
            try:
                path = self.store.append(encoded, fault=fault)
            except Exception:
                path = self._salvage(encoded)
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

    def recover(self, checkpoints):
        """The recovered tree's ``(path, epoch)`` counts: the store's
        live and retired rows summed, and per key what ``checkpoints``
        (path rows) hold beyond that. The store's sums become the
        baseline."""
        self.store.refresh()
        held = path_cumulative(
            row for seg in self.store.segments() for row in seg.rows
        )
        for key, (count, gaps) in self.store.retired_totals().items():
            prev = held.get(key, (0, 0))
            held[key] = (prev[0] + count, prev[1] + gaps)
        want = dict(held)
        for rows in checkpoints:
            for key, (count, gaps) in path_cumulative(rows).items():
                have_count, have_gaps = want.get(key, (0, 0))
                if count > have_count:
                    more = count - have_count
                    want[key] = (
                        count, have_gaps + min(more, max(0, gaps - have_gaps))
                    )
        with self._lock:
            self._baseline = held
            self._window_start = self._clock()
        return want


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
        self.retired_writers = []
        self.writers = ()
        self.attach(tree)

    def total(self, stat):
        """``stat`` of the writer under test, summed over restarts."""
        return sum(
            getattr(writers[0], stat)
            for writers in self.retired_writers + [self.writers]
        )

    def attach(self, tree):
        """Fresh writers over the same directories: a process restart."""
        if self.writers:
            self.retired_writers.append(self.writers)
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

            def dying(encoded, fault=None):
                real(encoded, fault=fault)
                raise OSError("died after the segment landed")

            writer.store.append = dying
            try:
                return writer.flush()
            finally:
                writer.store.append = real

        self.tick()
        return self.both(land_then_raise)

    def restart(self, shards, checkpoints=()):
        """A process restart: fresh writers over the same directories, a
        fresh tree the writer under test rebuilds from its directory
        (with full ``checkpoints`` of path rows beside it), equal to the
        reference's sums. Returns the tree."""
        tree = ShardedContextTree(shards)
        self.attach(tree)
        new, ref = self.writers
        want = ref.recover(checkpoints)
        new.store.refresh()
        contexts = len(tree.store)
        new.restore(beyond=[
            CheckpointState(epoch=0, fingerprint="fp", rows=tuple(rows)).encode()
            for rows in checkpoints
        ])
        assert len(tree.store) >= contexts
        got = path_cumulative(tree.rows())
        assert got == {key: v for key, v in want.items() if v != (0, 0)}
        self.check()
        return tree

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
    """A full checkpoint found beside the store that differs from it:
    counts and gap counts nudged both ways (a checkpoint older or newer
    than the segments per key), rows dropped, and rows for paths no
    segment holds (one row per key, as a checkpoint holds them)."""
    out = []
    extra = [path for path in extra if path not in {row[0] for row in rows}]
    for path, count, gaps, epoch in rows:
        if rng.random() < 0.15:
            continue
        count = max(0, count + rng.randint(-2, 1))
        gaps = min(count, max(0, gaps + rng.randint(-2, 1)))
        out.append((path, count, gaps, epoch))
    for path in extra:
        count = rng.randint(1, 4)
        out.append((path, count, rng.randint(0, min(2, count)), rng.choice((0, 1))))
    return out


# ----------------------------------------------------------------------
# Interleavings
# ----------------------------------------------------------------------
OPS = ("ingest", "flush", "empty", "crash", "salvage", "restart", "zero")


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
        elif op == "restart":
            checkpoint = perturbed(tree.rows(), rng, rng.sample(held_back, 3))
            tree = twin.restart(rng.choice((1, 2, 4)), [checkpoint])
        elif op == "zero":
            tree.add(rng.choice(pool), weight=0, epoch=rng.choice((0, 1)))
            if rng.random() < 0.5:
                ingest(tree, rng, interned, 2)
    # Held-back paths arrive last, on top of what a checkpoint added.
    ingest(tree, rng, pool, 60)
    twin.flush()
    twin.flush()
    assert twin.total("salvaged_flushes") >= 1
    assert twin.total("empty_flushes") >= 1


def older_or_newer(rows, rng, drop_paths):
    """A full checkpoint older or newer than the segments per key,
    missing ``drop_paths`` entirely."""
    out = []
    for path, count, gaps, epoch in rows:
        if path in drop_paths:
            continue
        count = max(0, count + rng.choice((-3, -1, 0, 0, 2)))
        out.append((path, count, min(gaps, count), epoch))
    return out


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
    checkpoint = older_or_newer(rows, rng, drop)
    flushed = path_cumulative(
        row for seg in SegmentStore(twin.dirs[0]).refresh() for row in seg.rows
    )
    ahead = [r for r in checkpoint if r[1] > flushed.get((r[0], r[3]), (0,))[0]]
    behind = [r for r in checkpoint if r[1] < flushed.get((r[0], r[3]), (0,))[0]]
    assert ahead and behind, "the checkpoint is not both ahead and behind"
    tree = twin.restart(2, [checkpoint])
    # What ran ahead of the segments goes out with the next flush,
    # and nothing the store holds comes out again.
    assert twin.flush()[1] is not None
    assert twin.flush()[1] is None
    for _ in range(5):
        ingest(tree, rng, pool, 20)
        twin.flush()
        twin.flush()


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
    # Recover beside a checkpoint of the full tree: the retired rows
    # come back into the tree, not out into a segment, and only
    # post-recovery traffic is written.
    before = path_cumulative(row for row in tree.rows() if row[1])
    tree = twin.restart(2, [tree.rows()])
    assert path_cumulative(tree.rows()) == before
    assert twin.flush()[1] is None
    for _ in range(3):
        ingest(tree, rng, pool, 15)
        twin.flush()
    twin.compact()
    ingest(tree, rng, pool, 15)
    twin.flush()


@pytest.mark.parametrize("seed", range(6))
def test_flush_sections_equal_delta_encode_rows(tmp_path, seed):
    """Every flush hands the store the names, nodes and rows that
    ``delta_encode_rows`` makes of the same delta sorted by (path,
    epoch): with the empty context, gap rows and two epochs among
    them."""
    rng = random.Random(3000 + seed)
    pool = make_pool(rng)
    tree = ShardedContextTree(rng.choice((1, 2, 4)))
    twin = Twin(str(tmp_path), tree)
    sent = ([], [])
    for log, writer in zip(sent, twin.writers):
        real = writer.store.append

        def recording(encoded, fault=None, _real=real, _log=log):
            _log.append(encoded)
            return _real(encoded, fault=fault)

        writer.store.append = recording
    for round_ in range(5):
        ingest(tree, rng, pool, 25)
        tree.add((), has_gaps=True, weight=2, epoch=round_ % 2)
        twin.flush()
    assert len(sent[0]) == len(sent[1]) == 5
    delta_rows = []
    for new, ref in zip(*sent):
        assert (new.names, new.nodes, list(new.rows)) == (
            ref.names, ref.nodes, ref.rows
        )
        delta_rows.extend(new.rows)
    assert any(pid == -1 for pid, _c, _g, _e in delta_rows)
    assert any(gaps > 0 for _p, _c, gaps, _e in delta_rows)
    assert {epoch for _p, _c, _g, epoch in delta_rows} == {0, 1}
