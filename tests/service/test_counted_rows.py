"""Counted rows on every failure path: a row of count n is n samples.

``batch_sink`` folds a run of equal observations into one row of a
``count`` column. The conservation law counts samples, so wherever a
row leaves the success path it must turn back into its samples: a
dead-lettered row raises ``dead_lettered`` by its count, an open
breaker and a shed queue retain each sample raw, and a refused
hand-off's ``unsubmitted`` carries one pair per sample.
"""

import pytest

from repro.errors import ServiceError
from repro.graph.callgraph import CallGraph
from repro.resilience import ResilienceConfig
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.collector import ContextCollector
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, SampleBatch, ServiceConfig

SETTLED = (
    "aggregated", "dead_lettered", "epoch_mismatches", "dropped",
    "fallback_dropped", "fallback_pending",
)


def sample_graph():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("a", "c", "s3")
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


@pytest.fixture
def plan():
    return build_plan_from_graph(sample_graph())


@pytest.fixture
def ace(plan):
    return walk_snapshot(
        plan, [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
    )


@pytest.fixture
def ac(plan):
    return walk_snapshot(plan, [("main", "s1", "a"), ("a", "s3", "c")])


def settled(acct):
    return sum(acct[term] for term in SETTLED)


def test_a_dead_lettered_row_counts_each_sample(plan, ace):
    node, snap = ace
    service = ContextService(plan, ServiceConfig(workers=1, shards=2)).start()
    try:
        batch = (
            SampleBatch()
            .append("not-a-node", snap, epoch=0, count=5)
            .append(node, snap, epoch=0, count=3)
        )
        assert service.submit_batch(batch) == 8
        service.flush()
    finally:
        service.stop()
    acct = service.accounting()
    assert acct["dead_lettered"] == 5
    assert acct["aggregated"] == 3
    assert acct["submitted"] == settled(acct) == 8
    letters = service.dead_letters()
    assert len(letters) == 5
    assert {letter.node for letter in letters} == {"not-a-node"}
    assert service.tree.count_of(("main", "a", "c", "e")) == 3
    metrics = service.service_metrics()
    assert (metrics["batch.samples"], metrics["batch.rows"]) == (8, 2)


def test_an_open_breaker_retains_each_sample(plan, ace, ac):
    service = ContextService(
        plan, ServiceConfig(workers=1, shards=2),
        resilience=ResilienceConfig(
            breaker_min_volume=1, breaker_cooldown=60.0, supervise=False,
        ),
    )
    service._breaker.record_failure()
    assert service._breaker.state == "open"
    batch = (
        SampleBatch()
        .append(*ace, epoch=0, count=4)
        .append(*ac, epoch=0, weight=2)
        .append(*ace, epoch=0, count=2)
    )
    service._handle_items([batch])
    assert service.accounting()["fallback_pending"] == 7
    retained = service._fallback.drain()
    assert [s.node for s in retained] == ["e"] * 6 + ["c"]
    assert [s.weight for s in retained] == [1] * 6 + [2]
    assert retained == sorted(batch, key=lambda s: s.node != "e")


def test_shedding_the_queue_retains_each_sample(plan, ace):
    service = ContextService(plan, ServiceConfig(workers=1, shards=2))
    counted = SampleBatch().append(*ace, epoch=0, count=6)
    assert service._queue.put(counted)
    service._shed_queue_to_fallback()
    assert service.metrics.snapshot()["fallback_retained"] == 6
    assert service._fallback.drain() == list(counted)
    assert len(list(counted)) == 6


def test_a_refused_hand_off_carries_each_sample(plan, ace, ac):
    service = ContextService(plan).start()
    sink = service.batch_sink(batch_max=10)
    for pair in [ace] * 3 + [ac] * 2 + [ace]:
        sink(*pair)
    assert sink.buffered() == 6
    service.stop()
    with pytest.raises(ServiceError) as raised:
        sink.flush()
    assert raised.value.unsubmitted == [ace] * 3 + [ac] * 2 + [ace]
    assert sink.buffered() == 0


@pytest.mark.parametrize("policy", ["drop", "retain"])
def test_sink_failures_count_each_folded_sample(plan, policy):
    service = ContextService(plan).start()
    sink = service.batch_sink(batch_max=8)
    collector = ContextCollector(sink=sink, sink_errors=policy)
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution("main")
    probe.enter_function("main")
    for _ in range(8):  # one row of count 8, handed off whole
        collector.on_entry("main", 1, probe)
    assert service.service_metrics()["batch.rows"] == 1
    service.stop()
    for _ in range(11):  # a refused row of 8, then 3 buffered
        collector.on_entry("main", 1, probe)
    assert collector.sink_failures == 8
    assert sink.buffered() == 3
    collector.close()
    assert collector.sink_failures == 11
    assert collector.total == 8 + collector.sink_failures
    retained = list(collector.sink_retained)
    if policy == "retain":
        assert len(retained) == 11
        assert all(node == "main" for node, _snap in retained)
    else:
        assert retained == []


@pytest.mark.parametrize("processes", [0, 2], ids=["threads", "processes"])
@pytest.mark.parametrize(
    "policy", ["block", "drop-newest", "drop-oldest", "error"]
)
def test_counted_sink_keeps_the_law(plan, processes, policy):
    """Runs of 1–4 equal observations through a small queue (or
    one-slot lanes): every observation is submitted or counted as a
    sink failure, and every submitted sample lands in one bucket."""
    service = ContextService(plan, ServiceConfig(
        workers=1, shards=2, worker_processes=processes, queue_capacity=16,
        lane_slots=1, backpressure=policy,
    )).start()
    try:
        sink = service.batch_sink()
        collector = ContextCollector(sink=sink, sink_errors="drop")
        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution("main")
        probe.enter_function("main")
        path = [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
        for visit in range(160):
            for caller, label, callee in path:
                probe.before_call(caller, label, callee)
                probe.enter_function(callee)
                for _ in range(1 + visit % 4):
                    collector.on_entry(callee, 1, probe)
                    collector.on_exit(callee)
            for caller, label, callee in reversed(path):
                probe.exit_function(callee)
                probe.after_call(caller, label, callee)
        collector.close()
        service.flush(timeout=60)
        acct = service.accounting()
        metrics = service.service_metrics()
        assert collector.total == 3 * 40 * (1 + 2 + 3 + 4)
        assert acct["submitted"] + collector.sink_failures == collector.total
        assert settled(acct) == acct["submitted"]
        assert metrics["batch.rows"] < metrics["batch.samples"]
    finally:
        service.stop(timeout=60)
    acct = service.accounting()
    assert settled(acct) == acct["submitted"]
