"""Golden sample batches: the DPSB bytes and the sink's packing are pinned.

``golden/v1.dpsb`` is :func:`golden_batch` serialized by the version-1
writer: ANCHOR, RECURSION (with its call site) and UCP entries (with the
expected SID and the resume fields), a stack shared by several samples,
the empty stack, two epochs, a thread tag and one weight above 1. It
must still load, each row as count 1.

``golden/v2.dpsb`` is :func:`golden_rows` serialized: the same seven
samples with the two equal consecutive ``Tree.walk`` observations
folded into one row of count 2, as the sink folds them. Any change to
the packer or the wire form that moves a byte fails here.

The sink test runs a seeded collector on an encoding-all plan with
anchors (multi-piece stacks) and checks that every batch
``ContextService.batch_sink`` submits is byte-identical to appending
each run of equal consecutive observations once, with its count.
"""

import hashlib
import os

from repro.analysis.callgraph_builder import build_callgraph
from repro.core.stackmodel import EntryKind, StackEntry
from repro.graph.callgraph import CallSite
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.collector import ContextCollector
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, SampleBatch, ServiceConfig
from repro.workloads.specjvm import build_benchmark

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
V1_SHA256 = "0c384d7bb618c8e7ad27e4d980ad57c4a5d02cad7df3bdac24e99525513d8b1d"
V2_SHA256 = "561ea3e4baaa60d0c1de1620e4ea0918e4e4696f901d15a220d9ffa5954c3201"

ANCHOR = StackEntry(kind=EntryKind.ANCHOR, node="Main.main", saved_id=0)
RECURSION = StackEntry(
    kind=EntryKind.RECURSION,
    node="Tree.walk",
    saved_id=41,
    site=CallSite("Tree.walk", "c2"),
)
UCP = StackEntry(
    kind=EntryKind.UCP,
    node="Lib.sort",
    saved_id=7,
    site=CallSite("App.run", 3),
    expected_sid=12,
    resume_node="App.run",
    resume_executed=False,
)
INNER_ANCHOR = StackEntry(kind=EntryKind.ANCHOR, node="Lib.hub", saved_id=9)


def golden_batch():
    batch = SampleBatch()
    batch.append("Main.main", ((ANCHOR,), 0), epoch=0)
    batch.append("Tree.walk", ((ANCHOR, RECURSION), 5), epoch=0)
    batch.append("Tree.walk", ((ANCHOR, RECURSION), 5), epoch=0)
    batch.append("Lib.cmp", ((ANCHOR, UCP), 3), epoch=0, thread=2)
    batch.append("Lib.leaf", ((ANCHOR, UCP, INNER_ANCHOR), 11), epoch=1, weight=3)
    batch.append("Tree.walk", ((ANCHOR, RECURSION), 6), epoch=1)
    batch.append("Main.main", ((), 0), epoch=1)
    return batch


def golden_rows():
    """The samples of :func:`golden_batch` as the sink packs them: one
    row per run of equal consecutive observations."""
    batch = SampleBatch()
    batch.append("Main.main", ((ANCHOR,), 0), epoch=0)
    batch.append("Tree.walk", ((ANCHOR, RECURSION), 5), epoch=0, count=2)
    batch.append("Lib.cmp", ((ANCHOR, UCP), 3), epoch=0, thread=2)
    batch.append("Lib.leaf", ((ANCHOR, UCP, INNER_ANCHOR), 11), epoch=1, weight=3)
    batch.append("Tree.walk", ((ANCHOR, RECURSION), 6), epoch=1)
    batch.append("Main.main", ((), 0), epoch=1)
    return batch


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_packer_reproduces_the_v2_golden_bytes():
    path = os.path.join(GOLDEN, "v2.dpsb")
    assert sha256_of(path) == V2_SHA256
    with open(path, "rb") as fh:
        data = fh.read()
    assert golden_rows().to_bytes() == data
    loaded = SampleBatch.from_bytes(data)
    assert loaded == golden_rows()
    assert (len(loaded), loaded.rows, loaded.total_weight) == (7, 6, 9)
    assert loaded.groups() == golden_batch().groups()
    assert list(loaded) == list(golden_batch())


def test_v1_golden_bytes_are_unchanged():
    """The version-1 file stays as the version-1 writer left it."""
    assert sha256_of(os.path.join(GOLDEN, "v1.dpsb")) == V1_SHA256


def test_v1_golden_loads_the_expected_batch():
    with open(os.path.join(GOLDEN, "v1.dpsb"), "rb") as fh:
        loaded = SampleBatch.from_bytes(fh.read())
    assert loaded == golden_batch()
    assert len(loaded) == 7
    assert loaded.total_weight == 9
    assert loaded.groups()[(1, 3, 3, 11)] == (1, 3)
    assert loaded.stack_of((0, 2, 2, 3)) == (ANCHOR, UCP)


def _collector_run(batch_max):
    """Seeded sunflow run (encoding-all plan, anchors) through a sink;
    returns (observations with their epochs, submitted batches)."""
    benchmark = build_benchmark("sunflow")
    plan = build_plan_from_graph(
        build_callgraph(benchmark.program, include_dynamic=False),
        application_only=False,
    )
    service = ContextService(plan, ServiceConfig())
    submitted = []
    service.submit_batch = submitted.append
    inner = service.batch_sink(batch_max=batch_max)
    observed = []

    def sink(node, snapshot, probe=None):
        observed.append((node, snapshot, service.engine.epoch_of(probe.plan)))
        inner(node, snapshot, probe)

    sink.flush = inner.flush
    collector = ContextCollector(
        interest=plan.instrumented_nodes, collect_events=False, sink=sink
    )
    benchmark.make_interpreter(
        probe=DeltaPathProbe(plan, cpt=True), seed=301, collector=collector
    ).run(operations=2)
    collector.close()
    return observed, submitted


def test_sink_batches_match_per_sample_append():
    batch_max = 64
    observed, submitted = _collector_run(batch_max)
    assert len(observed) > 3 * batch_max
    assert len(submitted) == -(-len(observed) // batch_max)
    assert any(len(stack) > 1 for _node, (stack, _id), _epoch in observed)
    folded = 0
    for index, got in enumerate(submitted):
        runs = []  # [node, snapshot, epoch, count] per run of equals
        for node, snapshot, epoch in observed[
            index * batch_max:(index + 1) * batch_max
        ]:
            last = runs[-1] if runs else None
            if (
                last is not None
                and snapshot[0] is last[1][0]
                and snapshot[1] == last[1][1]
                and node == last[0]
                and epoch == last[2]
            ):
                last[3] += 1
            else:
                runs.append([node, snapshot, epoch, 1])
        want = SampleBatch()
        for node, snapshot, epoch, count in runs:
            want.append(node, snapshot, epoch=epoch, count=count)
        assert got.to_bytes() == want.to_bytes()
        assert len(got) == len(want) == sum(run[3] for run in runs)
        folded += len(got) - got.rows
    assert folded > 0
