"""The ingestion pipeline (queue + workers) and sharded aggregation."""

import random
import threading
import time

import pytest

from repro.errors import IngestOverflowError, ServiceError
from repro.service.ingest import (
    POLICIES,
    BoundedQueue,
    Sample,
    WorkerKilled,
    WorkerPool,
)
from repro.service.shards import ShardedContextTree


def mk(i, epoch=0, weight=1):
    return Sample(node=f"n{i}", stack=(), current_id=i, epoch=epoch,
                  weight=weight)


class TestBoundedQueue:
    def test_fifo_and_batching(self):
        q = BoundedQueue(capacity=8)
        for i in range(5):
            assert q.put(mk(i))
        assert len(q) == 5
        batch = q.get_batch(3)
        assert [s.current_id for s in batch] == [0, 1, 2]
        assert [s.current_id for s in q.get_batch(10)] == [3, 4]

    def test_validation(self):
        with pytest.raises(ServiceError):
            BoundedQueue(capacity=0)
        with pytest.raises(ServiceError):
            BoundedQueue(policy="yolo")
        assert set(POLICIES) == {"block", "drop-newest", "drop-oldest", "error"}

    def test_drop_newest(self):
        q = BoundedQueue(capacity=2, policy="drop-newest")
        assert q.put(mk(0)) and q.put(mk(1))
        assert not q.put(mk(2))
        assert q.dropped == 1
        assert [s.current_id for s in q.get_batch(10)] == [0, 1]

    def test_drop_oldest(self):
        q = BoundedQueue(capacity=2, policy="drop-oldest")
        q.put(mk(0))
        q.put(mk(1))
        assert q.put(mk(2))  # queued, but sample 0 was evicted
        assert q.dropped == 1
        assert [s.current_id for s in q.get_batch(10)] == [1, 2]

    def test_error_policy(self):
        q = BoundedQueue(capacity=1, policy="error")
        q.put(mk(0))
        with pytest.raises(IngestOverflowError):
            q.put(mk(1))
        assert q.dropped == 1

    def test_block_timeout_drops(self):
        q = BoundedQueue(capacity=1, policy="block")
        q.put(mk(0))
        assert not q.put(mk(1), timeout=0.01)
        assert q.dropped == 1

    def test_block_unblocks_when_drained(self):
        q = BoundedQueue(capacity=1, policy="block")
        q.put(mk(0))
        done = []

        def producer():
            done.append(q.put(mk(1), timeout=5))

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        assert q.get_batch(1)[0].current_id == 0
        t.join(timeout=5)
        assert done == [True]
        assert q.get_batch(1)[0].current_id == 1

    def test_close_rejects_puts_but_allows_draining(self):
        q = BoundedQueue(capacity=4)
        q.put(mk(0))
        q.close()
        assert q.closed
        with pytest.raises(ServiceError):
            q.put(mk(1))
        assert [s.current_id for s in q.get_batch(10)] == [0]
        assert q.get_batch(10) == []  # closed and empty: immediate []

    def test_get_batch_timeout_on_empty(self):
        q = BoundedQueue(capacity=4)
        start = time.monotonic()
        assert q.get_batch(1, timeout=0.01) == []
        assert time.monotonic() - start < 1.0

    def test_close_while_producers_blocked(self):
        """Closing the queue must wake blocked producers and account
        their in-flight samples as declared drops, not lose them."""
        q = BoundedQueue(capacity=1, policy="block")
        q.put(mk(0))
        results = []
        lock = threading.Lock()

        def producer(i):
            got = q.put(mk(i), timeout=5, on_closed="drop")
            with lock:
                results.append(got)

        threads = [
            threading.Thread(target=producer, args=(i,)) for i in (1, 2, 3)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)  # all three are parked on the full queue
        q.close()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        assert results == [False, False, False]
        assert q.dropped == 3
        # The pre-close sample is still drainable.
        assert [s.current_id for s in q.get_batch(10)] == [0]

    def test_close_while_blocked_raise_policy(self):
        q = BoundedQueue(capacity=1, policy="block")
        q.put(mk(0))
        outcome = []

        def producer():
            try:
                q.put(mk(1), timeout=5)  # default on_closed="raise"
            except ServiceError as exc:
                outcome.append(exc)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(timeout=5)
        assert len(outcome) == 1
        # Raising still counts the sample: accounting never leaks.
        assert q.dropped == 1

    def test_put_on_closed_counts_drop(self):
        q = BoundedQueue(capacity=4)
        q.close()
        assert q.put(mk(0), on_closed="drop") is False
        assert q.dropped == 1
        with pytest.raises(ServiceError):
            q.put(mk(1), on_closed="nope")


class TestWorkerPool:
    def test_drains_everything_then_exits(self):
        q = BoundedQueue(capacity=64)
        seen = []
        lock = threading.Lock()

        def handler(batch):
            with lock:
                seen.extend(s.current_id for s in batch)

        pool = WorkerPool(q, handler, workers=3, batch_size=7,
                          poll_interval=0.01)
        pool.start()
        pool.start()  # idempotent
        for i in range(200):
            q.put(mk(i))
        q.close()
        pool.join(timeout=10)
        assert pool.alive() == 0
        assert sorted(seen) == list(range(200))

    def test_handler_errors_do_not_kill_workers(self):
        q = BoundedQueue(capacity=64)
        errors, ok = [], []
        lock = threading.Lock()

        def handler(batch):
            for s in batch:
                if s.current_id == 3:
                    raise RuntimeError("bad sample")
            with lock:
                ok.extend(s.current_id for s in batch)

        pool = WorkerPool(q, handler, workers=1, batch_size=1,
                          on_error=errors.append, poll_interval=0.01)
        pool.start()
        for i in range(6):
            q.put(mk(i))
        q.close()
        pool.join(timeout=10)
        assert len(errors) == 1
        assert isinstance(errors[0], RuntimeError)
        assert sorted(ok) == [0, 1, 2, 4, 5]

    def test_handler_raising_does_not_reduce_alive(self):
        """A poisoned batch is routed to on_error; the worker thread
        survives and keeps draining — alive() must not drop."""
        q = BoundedQueue(capacity=64)
        errors = []
        pool = WorkerPool(
            q,
            lambda batch: (_ for _ in ()).throw(RuntimeError("poison")),
            workers=2,
            batch_size=1,
            on_error=errors.append,
            poll_interval=0.01,
        )
        pool.start()
        for i in range(10):
            q.put(mk(i))
        deadline = time.monotonic() + 5
        while len(errors) < 10 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.alive() == 2
        assert pool.deaths == 0
        assert len(errors) == 10
        assert all(not s.dead for s in pool.worker_states())
        q.close()
        pool.join(timeout=5)

    def test_worker_killed_is_a_visible_death(self):
        q = BoundedQueue(capacity=64)
        kill_once = {"armed": True}

        def fault(slot):
            if slot == 0 and kill_once["armed"]:
                kill_once["armed"] = False
                raise WorkerKilled("chaos")

        pool = WorkerPool(q, lambda batch: None, workers=2, batch_size=4,
                          poll_interval=0.01, fault=fault)
        pool.start()
        deadline = time.monotonic() + 5
        while pool.alive() == 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert pool.alive() == 1
        assert pool.deaths == 1
        states = pool.worker_states()
        assert states[0].dead and not states[0].exited
        assert states[1].alive

        # Restart the dead slot; the revived worker drains again.
        assert pool.restart_worker(0)
        assert pool.alive() == 2
        assert not pool.restart_worker(1)  # still running: refused
        with pytest.raises(ServiceError):
            pool.restart_worker(9)
        q.close()
        pool.join(timeout=5)
        # Normal exits are not restartable.
        assert all(s.exited for s in pool.worker_states())
        assert not pool.restart_worker(0)

    def test_restart_before_start_is_refused(self):
        pool = WorkerPool(BoundedQueue(), lambda b: None, workers=1)
        assert not pool.restart_worker(0)

    def test_heartbeats_advance(self):
        q = BoundedQueue(capacity=8)
        pool = WorkerPool(q, lambda batch: None, workers=1,
                          poll_interval=0.005)
        pool.start()
        first = pool.worker_states()[0].heartbeat
        time.sleep(0.05)
        assert pool.worker_states()[0].heartbeat > first
        q.close()
        pool.join(timeout=5)

    def test_validation(self):
        q = BoundedQueue()
        with pytest.raises(ServiceError):
            WorkerPool(q, lambda b: None, workers=0)
        with pytest.raises(ServiceError):
            WorkerPool(q, lambda b: None, batch_size=0)


class TestShardedContextTree:
    def test_counts_and_top_contexts(self):
        tree = ShardedContextTree(shards=4)
        tree.add(("main", "a"), weight=3)
        tree.add(("main", "b"), weight=1)
        tree.add(("main", "a", "c"), weight=2)
        assert tree.total_samples == 6
        assert tree.unique_contexts == 3
        assert tree.count_of(("main", "a")) == 3
        assert tree.count_of(("nope",)) == 0
        top = tree.top_contexts(2)
        assert top == [(3, ("main", "a")), (2, ("main", "a", "c"))]

    def test_function_totals_inclusive_vs_leaf(self):
        tree = ShardedContextTree(shards=2)
        tree.add(("main", "a", "b"), weight=2)
        tree.add(("main", "b"), weight=1)
        leaf = tree.function_totals(leaf_only=True)
        assert leaf == {"b": 3}
        inclusive = tree.function_totals()
        assert inclusive == {"main": 3, "a": 2, "b": 3}

    def test_gap_accounting(self):
        tree = ShardedContextTree()
        tree.add(("main", "?"), has_gaps=True, weight=2)
        tree.add(("main",))
        assert tree.gap_samples == 2
        assert tree.total_samples == 3

    def test_merged_report_and_render(self):
        tree = ShardedContextTree(shards=3)
        tree.add(("main", "a"), weight=5)
        tree.add(("main", "a", "b"), weight=2)
        report = tree.merged_report()
        assert report.hottest_paths(1)[0][0] == 5
        out = tree.render()
        assert "main" in out and "a" in out

    def test_clear_and_stats(self):
        tree = ShardedContextTree(shards=2)
        for i in range(20):
            tree.add(("main", f"f{i}"))
        stats = tree.shard_stats()
        assert stats.total == 20
        assert stats.imbalance >= 1.0
        tree.clear()
        assert tree.total_samples == 0
        assert tree.unique_contexts == 0
        assert tree.shard_stats().imbalance == 1.0

    def test_concurrent_adds_lose_nothing(self):
        tree = ShardedContextTree(shards=4)
        paths = [("main", f"f{i % 10}") for i in range(1000)]

        def writer(chunk):
            for p in chunk:
                tree.add(p)

        threads = [
            threading.Thread(target=writer, args=(paths[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tree.total_samples == 1000
        assert sum(c for c, _ in tree.top_contexts(10)) == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedContextTree(shards=0)

    def test_take_rows_returns_what_was_written_since_the_last_take(self):
        tree = ShardedContextTree(shards=4)
        for i in range(12):
            tree.add(("main", f"f{i}"), weight=2, epoch=i % 2)
        # Nothing is tracked before the first take, which returns every
        # key: a tree no writer takes from keeps no set.
        assert all(shard.touched is None for shard in tree._shards)
        assert sorted(tree.take_rows()) == sorted(tree.count_rows())
        assert tree.take_rows() == []
        tree.add(("main", "f3"), True, 1, epoch=1)
        tree.add(("main", "new"), epoch=0)
        tree.count_rows()
        tree.rows()
        taken = {key: (count, gaps) for key, count, gaps in tree.take_rows()}
        pid = tree.store.lookup(("main", "f3"))
        assert taken == {
            (pid, 1): (3, 1),
            (tree.store.lookup(("main", "new")), 0): (1, 0),
        }
        tree.retouch([(pid, 1)])
        assert tree.take_rows() == [((pid, 1), 3, 1)]
        assert len(tree.take_rows(every=True)) == 13


def reference_top(tree, k, epoch=None, decoded=True):
    """The earlier ranking: decode every pid, sort all, slice."""
    merged = tree._merged_counts(epoch)
    if decoded:
        ranked = sorted(
            zip(merged.values(), [tree.store.path(pid) for pid in merged]),
            key=lambda item: (-item[0], item[1]),
        )
    else:
        ranked = sorted(
            ((count, pid) for pid, count in merged.items()),
            key=lambda item: (-item[0], item[1]),
        )
    return ranked[:k]


def random_tree(seed):
    """Few distinct weights (ties at the k-th count are common), some
    zero-weight entries, two epochs."""
    rng = random.Random(seed)
    tree = ShardedContextTree(shards=3)
    names = ("main", "a", "b", "c", "d", "e")
    entries = [
        (
            tuple(rng.choice(names) for _ in range(rng.randint(1, 4))),
            rng.random() < 0.2,
            rng.choice((0, 1, 1, 2, 3)),
            rng.choice((0, 1)),
        )
        for _ in range(rng.randint(30, 120))
    ]
    for path, has_gaps, weight, epoch in entries:
        tree.add(path, has_gaps, weight, epoch=epoch)
    return tree


class TestTopContextsRanking:
    """Counts are ranked before any path is decoded or compared."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_sort(self, seed):
        tree = random_tree(seed)
        full = reference_top(tree, 10 ** 6)
        assert any(count == 0 for count, _ in full)  # zero weights kept
        for epoch in (None, 0, 1, 9):
            for decoded in (True, False):
                for k in (0, 1, 10, len(full) + 5):
                    assert tree.top_contexts(
                        k, epoch=epoch, decoded=decoded
                    ) == reference_top(tree, k, epoch, decoded), (
                        epoch, decoded, k,
                    )

    def test_ties_at_the_cut_break_on_path(self):
        tree = ShardedContextTree(shards=2)
        for name in ("d", "b", "c", "a"):
            tree.add(("main", name), weight=2)
        tree.add(("main", "z"), weight=5)
        assert tree.top_contexts(3) == [
            (5, ("main", "z")), (2, ("main", "a")), (2, ("main", "b")),
        ]

    def test_decodes_only_candidates(self, monkeypatch):
        tree = ShardedContextTree(shards=4)
        for i in range(2000):
            tree.add(("main", f"f{i % 40}", f"ctx{i}"), weight=i + 1)
        passed = []
        decode = tree.store.paths

        def spy(pids):
            pids = list(pids)
            passed.append(len(pids))
            return decode(pids)

        monkeypatch.setattr(tree.store, "paths", spy)
        top = tree.top_contexts(10)
        assert passed == [10]
        assert [count for count, _ in top] == list(range(2000, 1990, -1))
        assert top[0][1] == ("main", "f39", "ctx1999")

    def test_negative_k_raises(self):
        tree = ShardedContextTree()
        tree.add(("main", "a"), weight=3)
        for decoded in (True, False):
            with pytest.raises(ServiceError, match="k >= 0"):
                tree.top_contexts(-3, decoded=decoded)
