"""End-to-end ContextService: ingest -> decode -> aggregate -> query."""

from types import SimpleNamespace

import pytest

from repro.analysis.incremental import GraphDelta
from repro.api import Encoder
from repro.errors import ServiceError
from repro.graph.callgraph import CallGraph
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.collector import ContextCollector
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, SampleBatch, ServiceConfig


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


def entry_stack(plan):
    """The stack a fresh probe snapshots at the entry function."""
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution(plan.graph.entry)
    probe.enter_function(plan.graph.entry)
    return probe.snapshot(plan.graph.entry)[0]


def one(node, snap, epoch=0, weight=1):
    """A one-sample batch (the plan-0 epoch unless told otherwise)."""
    return SampleBatch().append(node, snap, epoch=epoch, weight=weight)


PATH_ACE = [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
PATH_BCD = [("main", "s2", "b"), ("b", "s4", "c"), ("c", "s5", "d")]


@pytest.fixture
def plan():
    return build_plan_from_graph(sample_graph())


class TestLifecycle:
    def test_submit_before_start(self, plan):
        service = ContextService(plan)
        node, snap = walk_snapshot(plan, PATH_ACE)
        with pytest.raises(ServiceError):
            service.submit_batch(one(node, snap))

    def test_stop_is_final(self, plan):
        service = ContextService(plan).start()
        service.stop()
        service.stop()  # idempotent
        with pytest.raises(ServiceError):
            service.start()

    def test_context_manager(self, plan):
        node, snap = walk_snapshot(plan, PATH_ACE)
        with ContextService(plan) as service:
            assert service.submit_batch(one(node, snap))
            service.flush()
            assert service.top_contexts(1) == [(1, ("main", "a", "c", "e"))]

    def test_negative_top_k_raises(self, plan):
        node, snap = walk_snapshot(plan, PATH_ACE)
        with ContextService(plan) as service:
            assert service.submit_batch(one(node, snap))
            service.flush()
            # a negative k must not drop the last |k| entries
            with pytest.raises(ServiceError, match="k >= 0"):
                service.top_contexts(-3)

    def test_config_xor_kwargs(self, plan):
        with pytest.raises(ServiceError):
            ContextService(plan, ServiceConfig(), shards=2)


class TestEndToEnd:
    def test_ingest_aggregate_query(self, plan):
        ace = walk_snapshot(plan, PATH_ACE)
        bcd = walk_snapshot(plan, PATH_BCD)
        with ContextService(plan, shards=4, workers=2) as service:
            for _ in range(3):
                assert service.submit_batch(one(*ace))
            assert service.submit_batch(one(*bcd, weight=2))
            service.flush()

            assert service.top_contexts(5) == [
                (3, ("main", "a", "c", "e")),
                (2, ("main", "b", "c", "d")),
            ]
            totals = service.function_totals()
            assert totals["main"] == 5 and totals["c"] == 5
            assert totals["e"] == 3 and totals["d"] == 2
            leaf = service.function_totals(leaf_only=True)
            assert leaf == {"e": 3, "d": 2}
            assert service.ucp_stats() == {
                "samples": 5, "gap_samples": 0, "gap_free_samples": 5,
            }
            assert service.report().hottest_paths(1)[0][0] == 3
            assert "main" in service.render_report()

    def test_submit_many_and_metrics(self, plan):
        obs = [walk_snapshot(plan, PATH_ACE)] * 4
        with ContextService(plan) as service:
            assert service.submit_batch(
                SampleBatch.from_observations(obs, epoch=0)
            ) == 4
            service.flush()
            m = service.service_metrics()
            assert m["submitted"] == 4
            assert m["aggregated"] == 4
            assert m["dropped"] == 0
            assert m["decode_errors"] == 0
            assert m["epoch_mismatches"] == 0
            assert m["unique_contexts"] == 1
            assert m["epochs_retained"] == [0]
            assert m["shards"]["count"] == 8
            # Three repeats after the first are either collapsed by the
            # in-batch dedup (same drained batch) or hit the context
            # cache (later batch) — never decoded from scratch.
            saved = m["batch.dedup_saved"] + m["caches"]["contexts"]["hits"]
            assert saved == 3

    def test_decode_error_is_counted_not_fatal(self, plan):
        node, snap = walk_snapshot(plan, PATH_ACE)
        with ContextService(plan) as service:
            assert service.submit_batch(one("not-a-node", snap))
            assert service.submit_batch(one(node, snap))
            service.flush()
            m = service.service_metrics()
            assert m["decode_errors"] == 1
            assert m["aggregated"] == 1
            assert any("not-a-node" in e for e in m["recent_errors"])
            assert service.top_contexts(1) == [(1, ("main", "a", "c", "e"))]


class TestCollectorSink:
    def test_collector_streams_into_service(self, plan):
        with ContextService(plan) as service:
            collector = ContextCollector(sink=service.batch_sink())
            probe = DeltaPathProbe(plan, cpt=True)
            probe.begin_execution("main")
            probe.enter_function("main")
            collector.on_entry("main", 1, probe)
            for caller, label, callee in PATH_ACE:
                probe.before_call(caller, label, callee)
                probe.enter_function(callee)
                collector.on_entry(callee, 1, probe)
            collector.close()
            service.flush()
            assert service.tree.total_samples == 4  # main, a, c, e entries
            assert service.tree.count_of(("main", "a", "c", "e")) == 1
            assert collector.stats().total_contexts == 4

    def test_sink_without_probe_uses_current_epoch(self, plan):
        with ContextService(plan) as service:
            node, snap = walk_snapshot(plan, PATH_ACE)
            sink = service.batch_sink()
            sink(node, snap)  # probe omitted
            sink.flush()
            service.flush()
            assert service.tree.total_samples == 1


class TestSinkEpochStamps:
    def test_each_stamp_is_the_epoch_of_its_moment(self, plan):
        """The sink resolves a plan's epoch once, and again after every
        hot swap and recovery renumbering."""
        service = ContextService(plan)
        engine = service.engine
        submitted = []
        service.submit_batch = lambda batch, timeout=None: (
            submitted.append(batch) or len(batch)
        )
        sink = service.batch_sink(batch_max=1000)
        node, snap = walk_snapshot(plan, PATH_ACE)
        old = SimpleNamespace(plan=plan)
        expected = []

        def observe(probe):
            sink(node, snap, probe)
            expected.append(
                engine.epoch if probe is None else engine.epoch_of(probe.plan)
            )

        for _ in range(3):
            observe(old)
            observe(None)
        g2 = sample_graph()
        update = plan.apply_delta(GraphDelta(
            added_nodes={"x": {}},
            added_edges=(g2.add_edge("e", "x", "load_x"),),
        ))
        service.install_update(update)  # hot swap: epoch 1
        new = SimpleNamespace(plan=update.plan)
        for probe in (old, new, None, new):
            observe(probe)
        engine.advance_epoch_to(7)  # what recover() does: 1 -> 7
        for probe in (new, None, old, new):
            observe(probe)
        service.install_plan(build_plan_from_graph(sample_graph()))  # 8
        for probe in (new, None, old):
            observe(probe)
        sink.flush()
        stamped = [sample.epoch for batch in submitted for sample in batch]
        assert stamped == expected
        assert stamped[-7:] == [7, 7, 0, 7, 7, 8, 0]


class TestSinkFailures:
    """A failed submit loses nothing silently: every observation the
    collector made is submitted, counted as a sink failure, or still
    buffered."""

    def drive(self, plan, policy, observations=250, stop_after=150):
        service = ContextService(plan).start()
        sink = service.batch_sink(batch_max=100)
        collector = ContextCollector(sink=sink, sink_errors=policy)
        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution("main")
        probe.enter_function("main")
        for n in range(observations):
            collector.on_entry("main", 1, probe)
            if n + 1 == stop_after:
                service.stop()
        return service, sink, collector

    @pytest.mark.parametrize("policy", ["drop", "retain"])
    def test_every_observation_is_accounted(self, plan, policy):
        service, sink, collector = self.drive(plan, policy)
        submitted = service.service_metrics()["submitted"]
        assert submitted == 100
        assert collector.sink_failures == 100  # the whole failed batch
        assert sink.buffered() == 50
        assert collector.total == (
            submitted + collector.sink_failures + sink.buffered()
        )
        collector.close()  # the tail fails the same way
        assert sink.buffered() == 0
        assert collector.total == submitted + collector.sink_failures
        retained = list(collector.sink_retained)
        if policy == "retain":
            assert len(retained) == 150
            node, (stack, current_id) = retained[0]
            assert node == "main" and stack == entry_stack(plan)
        else:
            assert retained == []

    def test_raise_policy_carries_the_unsubmitted_batch(self, plan):
        service = ContextService(plan).start()
        sink = service.batch_sink(batch_max=3)
        node, snap = walk_snapshot(plan, PATH_ACE)
        sink(node, snap)
        sink(node, snap)
        service.stop()
        with pytest.raises(ServiceError) as raised:
            sink(node, snap)
        assert raised.value.unsubmitted == [(node, snap)] * 3
        assert sink.buffered() == 0
        sink(node, snap)
        with pytest.raises(ServiceError) as raised:
            sink.flush()
        assert raised.value.unsubmitted == [(node, snap)]


class TestSinkHandOffs:
    """A default sink hands the queue half its capacity per batch."""

    @staticmethod
    def recording(service):
        """Stub ``submit_batch`` to record each batch's size."""
        sizes = []
        service.submit_batch = lambda batch, timeout=None: (
            sizes.append(len(batch)) or len(batch)
        )
        return sizes

    @staticmethod
    def feed(sink, plan, n):
        snaps = [walk_snapshot(plan, PATH_ACE), walk_snapshot(plan, PATH_BCD)]
        for i in range(n):
            sink(*snaps[i % 2])

    @pytest.mark.parametrize("config,batch_max,n,size", [
        ({}, None, 5000, 2048),
        ({}, None, 4096, 2048),
        ({"queue_capacity": 64}, None, 150, 32),
        ({"queue_capacity": 7}, None, 20, 3),
        ({"queue_capacity": 1}, None, 5, 1),
        # The worker drain budget does not size the sink's batches...
        ({"queue_capacity": 64, "batch_size": 4, "batch_max": 8}, None,
         64, 32),
        # ...but an explicit batch_sink(batch_max=...) does.
        ({}, 100, 250, 100),
    ], ids=["default", "default-exact", "half-of-64", "half-of-7",
            "one-sample-queue", "not-the-drain-budget", "explicit"])
    def test_sink_hands_off_every_size_samples(
        self, plan, config, batch_max, n, size
    ):
        service = ContextService(plan, ServiceConfig(**config))
        sizes = self.recording(service)
        sink = service.batch_sink(batch_max=batch_max)
        self.feed(sink, plan, n)
        assert sizes == [size] * (n // size)
        assert sink.buffered() == n % size
        sink.flush()  # ceil(n / size) hand-offs, the tail included
        assert sizes == [size] * (n // size) + [n % size] * (n % size > 0)

    @pytest.mark.parametrize("policy", ["drop-newest", "drop-oldest", "error"])
    def test_refused_hand_offs_keep_the_law(self, plan, policy):
        """A stalled worker fills a 64-sample queue, so later 32-sample
        batches are refused whole; the service stops mid-run, so the
        rest fail at the sink. Every observation is submitted, counted
        as a sink failure, or still buffered, and the law is exact."""
        import threading

        service = ContextService(plan, ServiceConfig(
            workers=1, shards=2, queue_capacity=64, backpressure=policy,
        )).start()
        release = threading.Event()
        handle = service._handle_items

        def stalled(items):
            release.wait(10)
            handle(items)

        service._pool._handler = stalled
        sink = service.batch_sink()
        collector = ContextCollector(sink=sink, sink_errors="drop")
        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution("main")
        probe.enter_function("main")
        try:
            for n in range(400):
                collector.on_entry("main", 1, probe)
                if n + 1 == 300:
                    release.set()
                    assert service.stop()
        finally:
            release.set()
            service.stop()
        metrics = service.service_metrics()
        acct = service.accounting()
        assert acct["submitted"] == 32 * metrics["batch.submitted"] > 0
        assert acct["dropped"] > 0
        assert collector.sink_failures == 96  # three batches after stop
        assert sink.buffered() == 16
        assert collector.total == (
            acct["submitted"] + collector.sink_failures + sink.buffered()
        )
        collector.close()  # the tail fails the same way
        assert collector.total == acct["submitted"] + collector.sink_failures
        assert acct["submitted"] == (
            acct["aggregated"] + acct["dead_lettered"]
            + acct["epoch_mismatches"] + acct["dropped"]
            + acct["fallback_dropped"] + acct["fallback_pending"]
        )
        assert acct["aggregated"] == service.tree.total_samples

    def test_default_sink_feeds_worker_processes(self, plan):
        service = ContextService(plan, ServiceConfig(
            worker_processes=2, shards=2, queue_capacity=256,
        )).start()
        try:
            collector = ContextCollector(sink=service.batch_sink())
            probe = DeltaPathProbe(plan, cpt=True)
            probe.begin_execution("main")
            probe.enter_function("main")
            collector.on_entry("main", 1, probe)
            for _ in range(300):
                for caller, label, callee in PATH_ACE:
                    probe.before_call(caller, label, callee)
                    probe.enter_function(callee)
                    collector.on_entry(callee, 1, probe)
                for caller, label, callee in reversed(PATH_ACE):
                    collector.on_exit(callee)
                    probe.exit_function(callee)
                    probe.after_call(caller, label, callee)
            collector.close()
            service.flush(timeout=60)
            acct = service.accounting()
            assert acct["submitted"] == collector.total == 901
            assert acct["aggregated"] == collector.total
            assert service.service_metrics()["batch.submitted"] == 8
        finally:
            service.stop()


class TestCollectorTruthModes:
    def drive(self, plan, collector):
        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution("main")
        probe.enter_function("main")
        collector.on_entry("main", 1, probe)
        for caller, label, callee in PATH_ACE:
            probe.before_call(caller, label, callee)
            probe.enter_function(callee)
            collector.on_entry(callee, 1, probe)

    def test_default_retains_no_truth(self, plan):
        collector = ContextCollector()
        self.drive(plan, collector)
        assert collector.stats().unique_truth is None
        assert not collector.truth_unique

    def test_track_truth_counts_without_retaining(self, plan):
        collector = ContextCollector(track_truth=True)
        self.drive(plan, collector)
        assert collector.stats().unique_truth == 4
        assert collector.stats().collisions == 0
        assert not collector.truth_unique  # digests only

    def test_retain_truth_keeps_tuples(self, plan):
        collector = ContextCollector(retain_truth=True)
        assert collector.track_truth  # implied
        self.drive(plan, collector)
        assert collector.stats().unique_truth == 4
        assert ("e", ("main", "a", "c", "e")) in collector.truth_unique


class TestEncoderFacade:
    def test_encoder_service(self, plan):
        enc = Encoder()
        service = enc.service(plan, workers=1, shards=2)
        assert isinstance(service, ContextService)
        assert service.config.workers == 1
        node, snap = walk_snapshot(plan, PATH_BCD)
        with service:
            service.submit_batch(one(node, snap))
            service.flush()
            assert service.top_contexts(1) == [(1, ("main", "b", "c", "d"))]

    def test_top_level_reexports(self):
        import repro

        assert repro.ContextService is ContextService
        assert repro.ServiceConfig is ServiceConfig


class TestBatchFirstAPI:
    def test_submit_batch_end_to_end(self, plan):
        from repro.service import SampleBatch

        ace = walk_snapshot(plan, PATH_ACE)
        bcd = walk_snapshot(plan, PATH_BCD)
        batch = SampleBatch.from_observations([ace, ace, ace], epoch=0)
        batch.append(*bcd, epoch=0, weight=2)
        with ContextService(plan, shards=4, workers=2) as service:
            assert service.submit_batch(batch) == 4
            service.flush()
            assert service.top_contexts(5) == [
                (3, ("main", "a", "c", "e")),
                (2, ("main", "b", "c", "d")),
            ]
            m = service.service_metrics()
            assert m["submitted"] == 4
            assert m["aggregated"] == 4
            # Dedup-then-decode: the three identical ACE samples form
            # one group, so two decodes were saved inside the batch.
            assert m["batch.dedup_saved"] >= 2

    def test_batch_sink_streams_through_collector(self, plan):
        with ContextService(plan) as service:
            sink = service.batch_sink(batch_max=2)
            collector = ContextCollector(sink=sink)
            probe = DeltaPathProbe(plan, cpt=True)
            probe.begin_execution("main")
            probe.enter_function("main")
            collector.on_entry("main", 1, probe)
            for caller, label, callee in PATH_ACE:
                probe.before_call(caller, label, callee)
                probe.enter_function(callee)
                collector.on_entry(callee, 1, probe)
            collector.close()  # submits the buffered tail
            service.flush()
            assert service.tree.total_samples == 4
            assert service.tree.count_of(("main", "a", "c", "e")) == 1

    def test_store_compression_knob_reaches_the_store(self, plan):
        with ContextService(
            plan, ServiceConfig(store_compression="none")
        ) as service:
            assert service.tree.store.compression == "none"
        with pytest.raises(ServiceError):
            ContextService(plan, ServiceConfig(store_compression="lz4"))


class TestDroppedCounterIsExported:
    """Every queue drop reaches the exported ``service.dropped``."""

    def assert_exported(self, service):
        from repro import obs

        dropped = service.accounting()["dropped"]
        assert dropped > 0
        assert obs.get_registry().flatten()["service.dropped"] == dropped
        assert service.stats()["registry"]["service.dropped"] == dropped
        assert service.service_metrics()["dropped"] == dropped

    @pytest.mark.parametrize(
        "policy", ["drop-newest", "drop-oldest", "block", "error"]
    )
    def test_policy_drops(self, plan, policy):
        import threading

        from repro.errors import IngestOverflowError

        node, snap = walk_snapshot(plan, PATH_ACE)
        service = ContextService(plan, ServiceConfig(
            workers=1, shards=2, queue_capacity=8, batch_size=4,
            backpressure=policy,
        )).start()
        release = threading.Event()
        handle = service._handle_items

        def stalled(items):
            release.wait(10)
            handle(items)

        service._pool._handler = stalled
        try:
            for _ in range(6):
                batch = SampleBatch.from_observations([(node, snap)] * 4,
                                                      epoch=0)
                try:
                    service.submit_batch(batch, timeout=0.01)
                except IngestOverflowError:
                    pass
            release.set()
            service.flush()
            self.assert_exported(service)
        finally:
            release.set()
            service.stop()

    def test_closed_queue_drop(self, plan):
        node, snap = walk_snapshot(plan, PATH_ACE)
        service = ContextService(plan, ServiceConfig(workers=1, shards=2))
        service.start()
        try:
            service._queue.close()  # a producer racing stop()
            assert service.submit_batch(one(node, snap)) == 0
            service.flush()
            self.assert_exported(service)
        finally:
            service.stop()
