"""Multi-process decode scale-out: lanes, workers, merge, crash paths.

End-to-end tests drive a real :class:`ContextService` with
``worker_processes >= 1`` — actual forked processes, actual shared
memory — because the bugs this layer exists to prevent (double-counted
merges, lost crash samples, stale merged views) only happen across a
process boundary.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import IngestOverflowError, ServiceError
from repro.graph.callgraph import CallGraph
from repro.resilience import ResilienceConfig
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, SampleBatch, ServiceConfig
from repro.service.batch import node_lane
from repro.service.workers import (
    WEDGED_SUBMIT_S,
    ProcessWorkerPool,
    worker_paths,
)


def sample_graph():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("main", "b", "s2")
    g.add_edge("a", "c", "s3")
    g.add_edge("b", "c", "s4")
    g.add_edge("c", "d", "s5")
    g.add_edge("c", "e", "s6")
    return g


def walk_snapshot(plan, path):
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution(plan.graph.entry)
    probe.enter_function(plan.graph.entry)
    node = plan.graph.entry
    for caller, label, callee in path:
        probe.before_call(caller, label, callee)
        probe.enter_function(callee)
        node = callee
    return node, probe.snapshot(node)


PATH_ACE = [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
PATH_BCD = [("main", "s2", "b"), ("b", "s4", "c"), ("c", "s5", "d")]

CONSERVED = (
    "aggregated", "dead_lettered", "epoch_mismatches", "dropped",
    "fallback_dropped", "fallback_pending",
)


def accounted(acct):
    return sum(acct[bucket] for bucket in CONSERVED)


@pytest.fixture(scope="module")
def plan():
    return build_plan_from_graph(sample_graph())


@pytest.fixture(scope="module")
def snapshots(plan):
    return {
        "ace": walk_snapshot(plan, PATH_ACE),
        "bcd": walk_snapshot(plan, PATH_BCD),
    }


def mkbatch(snapshots, n, epoch=0):
    batch = SampleBatch()
    for i in range(n):
        node, snap = snapshots["ace"] if i % 2 == 0 else snapshots["bcd"]
        batch.append(node, snap, epoch=epoch)
    return batch


class TestMultiprocessIngest:
    def test_ingest_flush_and_merged_views(self, plan, snapshots, tmp_path):
        config = ServiceConfig(
            worker_processes=2, shards=4, segment_dir=str(tmp_path / "seg")
        )
        service = ContextService(plan, config).start()
        try:
            batch = SampleBatch()
            for _ in range(3):
                service_node, snap = snapshots["ace"]
                batch.append(service_node, snap, epoch=0)
            node, snap = snapshots["bcd"]
            batch.append(node, snap, epoch=0, weight=2)
            assert service.submit_batch(batch) == 4
            service.flush(timeout=30)

            acct = service.accounting()
            assert acct["submitted"] == 4
            assert acct["aggregated"] == 4
            assert acct["crash_lost"] == 0
            assert accounted(acct) == 4

            # Merged tree views span both workers' disjoint shards.
            assert service.top_contexts(5) == [
                (3, ("main", "a", "c", "e")),
                (2, ("main", "b", "c", "d")),
            ]
            totals = service.function_totals()
            assert totals["main"] == 5
            assert service.ucp_stats()["samples"] == 5
        finally:
            assert service.stop()
        # Post-stop views still answer (from sealed state).
        assert service.accounting()["aggregated"] == 4
        assert service.top_contexts(1) == [(3, ("main", "a", "c", "e"))]

    def test_single_sample_shim_routes_through_lanes(self, plan, snapshots):
        service = ContextService(
            plan, ServiceConfig(worker_processes=2, shards=2)
        ).start()
        try:
            node, snap = snapshots["ace"]
            one = SampleBatch().append(
                node, snap, epoch=service.engine.epoch_of(plan)
            )
            assert service.submit_batch(one) == 1
            service.flush(timeout=30)
            assert service.accounting()["aggregated"] == 1
        finally:
            service.stop()

    def test_merged_registry_snapshot(self, plan, snapshots):
        service = ContextService(
            plan, ServiceConfig(worker_processes=2, shards=2)
        ).start()
        try:
            service.submit_batch(mkbatch(snapshots, 20))
            service.flush(timeout=30)
            merged = service.merged_registry_snapshot()
            service_child = merged["children"]["service"]
            assert service_child["counters"]["aggregated"] == 20
            # Per-worker labels: every sample shows up under exactly one
            # worker slot.
            workers = merged["children"]["workers"]["counters"]
            agg = [workers[f"w{s}.aggregated"] for s in (0, 1)]
            assert sum(agg) == 20
            assert all(a >= 0 for a in agg)
            assert workers["w0.restarts"] == 0
        finally:
            service.stop()

    def test_segment_query_unions_worker_stores(self, plan, snapshots,
                                                tmp_path):
        config = ServiceConfig(
            worker_processes=2, shards=4, segment_dir=str(tmp_path / "seg")
        )
        service = ContextService(plan, config).start()
        try:
            service.submit_batch(mkbatch(snapshots, 30))
            service.flush(timeout=30)
            service.flush_segments()
            engine = service.query()
            assert engine.top_contexts(5) == service.top_contexts(5)
            assert engine.ucp_stats()["samples"] == 30
        finally:
            service.stop()

    def test_hot_swap_rejected(self, plan):
        service = ContextService(
            plan, ServiceConfig(worker_processes=1, shards=2)
        ).start()
        try:
            with pytest.raises(ServiceError, match="worker_processes"):
                service.install_plan(plan)
        finally:
            service.stop()

    def test_http_port_exposed(self, plan):
        service = ContextService(
            plan,
            ServiceConfig(worker_processes=1, shards=2, http_port=0),
        ).start()
        try:
            assert service.http_port and service.http_port > 0
            assert service.stats()["http_port"] == service.http_port
        finally:
            service.stop()
        assert service.http_port is None


class TestCrashRecovery:
    def wait_alive(self, pool, want, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and pool.alive() < want:
            time.sleep(0.02)
        return pool.alive()

    def test_kill_one_worker_conserves_and_restarts(self, plan, snapshots,
                                                    tmp_path):
        resilience = ResilienceConfig(
            supervise=True,
            heartbeat_interval=0.02,
            heartbeat_timeout=5.0,
            max_restarts=4,
        )
        config = ServiceConfig(
            worker_processes=2, shards=4, segment_dir=str(tmp_path / "seg")
        )
        service = ContextService(plan, config, resilience=resilience).start()
        try:
            total = 0
            for round_no in range(6):
                service.submit_batch(mkbatch(snapshots, 50))
                total += 50
                if round_no == 2:
                    assert service._procs.kill_worker(0) is not None
                time.sleep(0.05)
            assert self.wait_alive(service._procs, 2) == 2

            service.submit_batch(mkbatch(snapshots, 50))
            total += 50
            service.flush(timeout=30)

            acct = service.accounting()
            assert acct["submitted"] == total
            assert accounted(acct) == total
            stats = service.resilience_stats()
            assert stats["supervisor"]["restarts"] >= 1
            assert stats["workers"]["workers"][0]["restarts"] >= 1

            # The durable story still adds up after the crash.
            service.flush_segments()
            engine = service.query()
            durable = sum(engine.function_totals(leaf_only=True).values())
            assert durable + acct["crash_lost"] + acct["dead_lettered"] \
                <= total
        finally:
            assert service.stop()
        acct = service.accounting()
        assert acct["submitted"] == accounted(acct)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_submit_survives_a_lane_wedged_by_a_dead_holder(
        self, plan, snapshots
    ):
        # A worker dies holding its lane's lock (here: a forked child
        # takes the lock and SIGKILLs itself, then the worker is
        # killed). A submit to that lane must not wait on the lock
        # while holding the slot's guard, which the restart needs to
        # rebuild the lane: it returns, on the rebuilt lane, in bounded
        # time, and every sample stays accounted.
        service = ContextService(
            plan, ServiceConfig(worker_processes=2, shards=4)
        ).start()
        pool = service._procs
        try:
            service.submit_batch(mkbatch(snapshots, 20))
            service.flush(timeout=30)
            slot = node_lane("e", 2)
            lock = pool._lanes[slot]._lock
            holder = os.fork()
            if holder == 0:  # pragma: no cover - runs in the child
                try:
                    lock.acquire()
                    os.kill(os.getpid(), signal.SIGKILL)
                finally:
                    os._exit(1)
            _pid, status = os.waitpid(holder, 0)
            assert os.WIFSIGNALED(status)
            assert pool.kill_worker(slot) is not None
            # The supervisor's part, once the submit below holds the
            # guard and waits on the wedged lock.
            restart = threading.Timer(0.3, pool.restart_worker, (slot,))
            restart.start()
            started = time.monotonic()
            accepted = service.submit_batch(mkbatch(snapshots, 40))
            assert time.monotonic() - started < WEDGED_SUBMIT_S
            restart.join(timeout=30)
            assert not restart.is_alive()
            assert accepted == 40
            assert pool.stats()["workers"][slot]["restarts"] == 1
            service.flush(timeout=30)
            acct = service.accounting()
            assert acct["submitted"] == accounted(acct) == 60
            assert acct["aggregated"] == 60
        finally:
            assert service.stop()
        acct = service.accounting()
        assert acct["submitted"] == accounted(acct) == 60

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_live_worker_on_a_wedged_lane_is_restarted(self, plan, snapshots):
        # Another process takes a live worker's lane lock and dies in
        # it. The worker must not wait on that lock for good: it exits,
        # the supervisor's pid check restarts it on a rebuilt lane, and
        # a flush returns with every sample accounted.
        resilience = ResilienceConfig(
            supervise=True,
            heartbeat_interval=0.02,
            heartbeat_timeout=5.0,
            max_restarts=4,
        )
        service = ContextService(
            plan, ServiceConfig(worker_processes=2, shards=4),
            resilience=resilience,
        ).start()
        pool = service._procs
        try:
            service.submit_batch(mkbatch(snapshots, 20))
            service.flush(timeout=30)
            slot = node_lane("e", 2)
            worker = pool._slots[slot]["proc"].pid
            lock = pool._lanes[slot]._lock
            holder = os.fork()
            if holder == 0:  # pragma: no cover - runs in the child
                try:
                    lock.acquire()
                    os.kill(os.getpid(), signal.SIGKILL)
                finally:
                    os._exit(1)
            _pid, status = os.waitpid(holder, 0)
            assert os.WIFSIGNALED(status)
            deadline = time.monotonic() + 15.0
            while (
                pool.stats()["workers"][slot]["restarts"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert pool.stats()["workers"][slot]["restarts"] == 1
            assert self.wait_alive(pool, 2) == 2
            assert pool._slots[slot]["proc"].pid != worker
            assert service.submit_batch(mkbatch(snapshots, 40)) == 40
            service.flush(timeout=10)
            acct = service.accounting()
            assert acct["submitted"] == accounted(acct) == 60
            assert acct["aggregated"] == 60
        finally:
            assert service.stop()
        acct = service.accounting()
        assert acct["submitted"] == accounted(acct) == 60

    def test_restart_worker_recovers_own_checkpoint(self, plan, snapshots,
                                                    tmp_path):
        pool = ProcessWorkerPool(
            plan,
            ServiceConfig(
                worker_processes=2, shards=4,
                worker_dir=str(tmp_path / "pool"),
            ),
        ).start()
        try:
            batch = mkbatch(snapshots, 40)
            assert pool.submit(batch, timeout=5.0) == 40
            assert pool.sync(timeout=15.0)
            before = sorted(tuple(r[0]) for r in pool.merged_rows())

            pool.kill_worker(0)
            assert pool.restart_worker(0)
            assert self.wait_alive(pool, 2) == 2
            assert pool.sync(timeout=15.0)

            # The successor generation recovered the dead worker's
            # checkpointed shards: same rows, no double counts.
            after = pool.merged_rows()
            assert sorted(tuple(r[0]) for r in after) == before
            counts = {tuple(r[0]): r[1] for r in after}
            assert sum(counts.values()) == 40
            acct = pool.accounting()
            assert acct["aggregated"] + acct["crash_lost"] == 40
        finally:
            pool.stop()
            pool.destroy()

    def test_recover_reassembles_the_fleet(self, plan, snapshots, tmp_path):
        worker_dir = str(tmp_path / "pool")
        seg = str(tmp_path / "seg")
        config = ServiceConfig(
            worker_processes=2, shards=4,
            worker_dir=worker_dir, segment_dir=seg,
        )
        service = ContextService(plan, config).start()
        service.submit_batch(mkbatch(snapshots, 24))
        # flush() syncs the fleet: every worker checkpoints its own
        # shards and flushes its own segments before acknowledging.
        service.flush(timeout=30)
        top = service.top_contexts(5)
        assert service.stop()

        # A fresh single-process service reassembles the fleet's tree
        # from the per-worker checkpoint stores under the pool root.
        revived = ContextService(
            plan, ServiceConfig(shards=4, segment_dir=seg)
        )
        summary = revived.recover(worker_dir)
        assert summary["workers"] == 2
        assert summary["samples"] == 24
        assert revived.top_contexts(5) == top
        # Recovered counts already captured in durable segments are not
        # re-emitted by the next flush.
        revived.start()
        revived.flush_segments()
        engine = revived.query()
        assert engine.ucp_stats()["samples"] == 24
        revived.stop()

    def test_degraded_mode_sheds_dead_lanes_to_fallback(self, plan,
                                                        snapshots):
        resilience = ResilienceConfig(
            supervise=True,
            heartbeat_interval=0.02,
            heartbeat_timeout=5.0,
            max_restarts=0,  # first death exhausts the budget
        )
        service = ContextService(
            plan,
            ServiceConfig(worker_processes=2, shards=2),
            resilience=resilience,
        ).start()
        try:
            service.submit_batch(mkbatch(snapshots, 10))
            service.flush(timeout=30)
            service._procs.kill_worker(0)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not service.degraded:
                time.sleep(0.02)
            assert service.degraded
            # Submissions after the kill still land in a bucket.
            service.submit_batch(mkbatch(snapshots, 10))
            time.sleep(0.3)
            acct = service.accounting()
            assert acct["submitted"] == 20
        finally:
            service.stop()
        acct = service.accounting()
        assert acct["submitted"] == accounted(acct)


class TestPoolPlumbing:
    def test_worker_paths_layout(self, tmp_path):
        paths = worker_paths(str(tmp_path), 3)
        assert paths["base"].endswith("worker-3")
        for key in ("heartbeat", "status", "checkpoints"):
            assert paths[key].startswith(paths["base"])

    def test_worker_states_shape(self, plan):
        pool = ProcessWorkerPool(
            plan, ServiceConfig(worker_processes=2, shards=2)
        ).start()
        try:
            states = pool.worker_states()
            assert [s.slot for s in states] == [0, 1]
            assert all(s.alive for s in states)
            assert not any(s.dead for s in states)
        finally:
            pool.stop()
            pool.destroy()

    def test_stats_survive_destroy(self, plan):
        pool = ProcessWorkerPool(
            plan, ServiceConfig(worker_processes=1, shards=2)
        ).start()
        pool.stop()
        pool.destroy()
        stats = pool.stats()
        assert stats["alive"] == 0
        assert stats["workers"][0]["lane"]["closed"] is True
        assert pool.accounting()["dropped"] == 0

    def test_stop_skips_a_lane_wedged_by_a_killed_worker(self, plan):
        pool = ProcessWorkerPool(
            plan, ServiceConfig(worker_processes=1, shards=2)
        ).start()
        # Hold the lane lock for good, as a worker SIGKILLed inside its
        # critical section leaves it, then kill the worker.
        assert pool._lanes[0]._lock.acquire(timeout=5.0)
        pool.kill_worker(0)
        stopper = threading.Thread(
            target=pool.stop, kwargs={"timeout": 5.0}, daemon=True
        )
        stopper.start()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive(), "stop() blocked on a wedged lane"
        pool.destroy()

    def test_error_backpressure_lands_every_lane_before_raising(
        self, plan, snapshots
    ):
        """A full lane under ``backpressure="error"`` counts its own part
        dropped; the later lanes' parts are still pushed, so every
        sample is queued or dropped before the overflow is raised."""
        pool = ProcessWorkerPool(plan, ServiceConfig(
            worker_processes=2, shards=2, lane_slots=1, backpressure="error",
        ))  # never started: nothing drains the lanes
        try:
            node_e, snap_e = snapshots["ace"]  # routes to lane 0
            node_c, snap_c = walk_snapshot(plan, PATH_ACE[:2])  # lane 1
            fill = SampleBatch().append(node_e, snap_e, epoch=0)
            assert pool.submit(fill) == 1  # lane 0's only slot
            batch = SampleBatch()
            for _ in range(3):
                batch.append(node_e, snap_e, epoch=0)
                batch.append(node_c, snap_c, epoch=0)
            with pytest.raises(IngestOverflowError):
                pool.submit(batch)
            lanes = pool._lanes
            assert (lanes[0].queued_samples, lanes[0].dropped) == (1, 3)
            assert (lanes[1].queued_samples, lanes[1].dropped) == (3, 0)
            assert sum(
                lane.queued_samples + lane.dropped for lane in lanes
            ) == len(fill) + len(batch)
        finally:
            pool.stop(drain=False)
            pool.destroy()

    def test_a_counted_part_splits_by_rows_and_keeps_the_law(
        self, plan, snapshots
    ):
        """A counted part too large for one slot is halved by rows: the
        records' sample counts sum to the part's, each row keeps its
        count, and the lane queues every sample. A lone row too large
        for any slot counts all of its samples dropped."""
        pool = ProcessWorkerPool(plan, ServiceConfig(
            worker_processes=1, shards=2, lane_slots=64,
            lane_slot_bytes=1024,
        ))  # never started: nothing drains the lane
        try:
            lane = pool._lanes[0]
            capacity = lane.capacity_bytes
            part = SampleBatch()
            for i in range(40):
                node, (stack, _id) = snapshots["ace" if i % 2 else "bcd"]
                part.append(node, (stack, i), epoch=0, count=1 + i % 5)
            assert len(part) == 120 and len(part.to_bytes()) > capacity
            records = pool._records(part, capacity)
            assert len(records) > 1
            assert sum(samples for _payload, samples in records) == len(part)
            loaded = [SampleBatch.from_bytes(p) for p, _n in records]
            assert all(len(p) <= capacity for p, _n in records)
            assert [len(b) for b in loaded] == [n for _p, n in records]
            assert sum(b.rows for b in loaded) == part.rows
            assert [s for b in loaded for s in b] == list(part)

            assert pool.submit(part) == len(part)
            assert (lane.queued_samples, lane.dropped) == (len(part), 0)
            assert lane.pushed_records == len(records)

            node, (stack, current_id) = snapshots["ace"]
            deep = tuple(stack) * 60
            huge = SampleBatch().append(node, (deep, current_id), epoch=0,
                                        count=4)
            assert pool._records(huge, capacity) == [(None, 4)]
            assert pool.submit(huge) == 0
            assert (lane.queued_samples, lane.dropped) == (len(part), 4)
            assert lane.queued_samples + lane.dropped == len(part) + len(huge)
        finally:
            pool.stop(drain=False)
            pool.destroy()

    def test_rejects_zero_processes(self, plan):
        with pytest.raises(ServiceError):
            ProcessWorkerPool(plan, ServiceConfig(worker_processes=0))
