"""Checkpoints of a service with a segment store: a pointer into it.

The segments are the log of every flushed count, so ``checkpoint()``
flushes and writes a small pointer (format v3), and ``recover()``
rebuilds the tree from the live segments plus the retired sidecar.
These tests hold recovery to "recovered == live + retired" after a
SIGKILL at every fault point of a checkpoint and of a plain flush,
refuse a store that lost segments the pointer covers, and pin the rule
for a full (v2) checkpoint found beside a store.
"""

import os
import shutil
import signal
import time

import pytest

from repro import obs
from repro.errors import CheckpointError
from repro.obs.registry import MetricsRegistry
from repro.query.manifest import SegmentStore
from repro.resilience import ResilienceConfig
from repro.resilience.checkpoint import (
    CheckpointPointer,
    CheckpointState,
    CheckpointStore,
)
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, ServiceConfig
from repro.workloads.paperfigures import figure5_graph

#: (path, has_gaps, weight, epoch), flushed and checkpointed first.
ROUND1 = [
    (("A",), False, 3, 0),
    (("A", "B", "D"), False, 2, 0),
    (("A", "B", "D"), True, 1, 0),
    (("A", "C", "D", "E"), False, 4, 1),
    ((), False, 2, 0),
]
#: Added after the first checkpoint: more of old contexts, new ones.
ROUND2 = [
    (("A",), False, 1, 0),
    (("A", "B", "D"), True, 2, 0),
    (("A", "C", "G"), False, 6, 0),
    (("A", "Zeta", "G"), True, 2, 1),
]


@pytest.fixture(scope="module")
def plan():
    return build_plan_from_graph(figure5_graph())


def make_service(plan, root, **config):
    return ContextService(
        plan,
        ServiceConfig(shards=4, segment_dir=os.path.join(root, "seg"), **config),
        resilience=ResilienceConfig(
            checkpoint_dir=os.path.join(root, "ckpt"), checkpoint_on_stop=False
        ),
    )


def add(service, rows):
    for path, has_gaps, weight, epoch in rows:
        service.tree.add(path, has_gaps=has_gaps, weight=weight, epoch=epoch)


def cumulative(rows):
    out = {}
    for path, count, gaps, epoch in rows:
        prev = out.get((tuple(path), epoch), (0, 0))
        out[(tuple(path), epoch)] = (prev[0] + count, prev[1] + gaps)
    return {key: value for key, value in out.items() if value != (0, 0)}


def live_plus_retired(root):
    store = SegmentStore(os.path.join(root, "seg"))
    store.refresh()
    held = cumulative(row for seg in store.segments() for row in seg.rows)
    for key, (count, gaps) in store.retired_totals().items():
        prev = held.get(key, (0, 0))
        held[key] = (prev[0] + count, prev[1] + gaps)
    return held


def recovered(plan, root):
    """A fresh service recovered from ``root``, checked: it holds
    exactly live + retired, its first flush writes nothing, and its
    durable and in-memory answers agree."""
    fresh = make_service(plan, root)
    summary = fresh.recover(os.path.join(root, "ckpt"))
    assert cumulative(fresh.tree.rows()) == live_plus_retired(root)
    assert summary["samples"] == fresh.tree.total_samples
    assert fresh.flush_segments() is None
    durable = fresh.query()
    assert durable.top_contexts(10) == fresh.top_contexts(10)
    assert durable.function_totals() == fresh.function_totals()
    return fresh


def checkpointed_base(plan, root):
    service = make_service(plan, root)
    add(service, ROUND1)
    service.checkpoint()
    return service


class _Crash:
    """Stands in for a chaos injector: hands ``checkpoint()`` and
    ``flush_segments()`` one fault hook."""

    def __init__(self, hook):
        self.hook = hook

    def checkpoint_fault(self):
        return self.hook


def _reap(child, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pid, status = os.waitpid(child, os.WNOHANG)
        if pid:
            return status
        time.sleep(0.005)
    os.kill(child, signal.SIGKILL)
    os.waitpid(child, 0)
    pytest.fail("the forked child did not finish in time")


def killed_at(plan, base, work, point, step):
    """Recover a copy of ``base`` into ``work``, add ROUND2, then run
    ``step`` in a forked child that SIGKILLs itself at fault point
    ``point`` (1-based, counted across every durable write of the
    step). Returns True when the step finished before that point."""
    shutil.copytree(base, work)
    service = make_service(plan, work)
    service.recover(os.path.join(work, "ckpt"))
    add(service, ROUND2)
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        try:
            obs.set_registry(MetricsRegistry("repro"))
            calls = [0]

            def hook(records):
                calls[0] += 1
                if calls[0] == point:
                    os.kill(os.getpid(), signal.SIGKILL)

            service._chaos = _Crash(hook)
            step(service)
            os._exit(0)
        finally:
            os._exit(1)
    status = _reap(child)
    if os.WIFSIGNALED(status):
        assert os.WTERMSIG(status) == signal.SIGKILL
        return False
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    return True


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("step", ["checkpoint", "flush"])
def test_sigkill_at_every_fault_point_recovers(tmp_path, plan, step):
    base = str(tmp_path / "base")
    checkpointed_base(plan, base)
    run = {
        "checkpoint": lambda service: service.checkpoint(),
        "flush": lambda service: service.flush_segments(),
    }[step]
    seen = set()
    for point in range(1, 64):
        work = str(tmp_path / f"kill-{point}")
        finished = killed_at(plan, base, work, point, run)
        fresh = recovered(plan, work)
        seen.add(fresh.tree.total_samples)
        if finished:
            break
    else:
        pytest.fail("the step never finished")
    # Kills before the segment's rename recover round 1 only; later
    # ones (the manifest, then the pointer) recover both rounds.
    assert point > 3
    total1 = sum(row[2] for row in ROUND1)
    assert seen == {total1, total1 + sum(row[2] for row in ROUND2)}


def test_pointer_is_small_and_walks_no_trie(tmp_path, plan, monkeypatch):
    root = str(tmp_path)
    service = checkpointed_base(plan, root)
    add(service, ROUND2)
    service.flush_segments()

    def walked(*args, **kwargs):
        raise AssertionError("a pointer checkpoint walked the trie")

    monkeypatch.setattr(service.tree.store, "encode_counted", walked)
    path = service.checkpoint()
    monkeypatch.undo()
    assert os.path.getsize(path) < 1024
    loaded = CheckpointStore(os.path.join(root, "ckpt")).load_file(path)
    assert loaded == CheckpointPointer(
        epoch=0,
        fingerprint=loaded.fingerprint,
        generation=0,
        seq=2,
        samples=service.tree.total_samples,
    )
    recovered(plan, root)


@pytest.mark.parametrize("which", ["oldest", "newest"])
def test_deleting_a_covered_segment_refuses_recovery(tmp_path, plan, which):
    root = str(tmp_path)
    service = checkpointed_base(plan, root)
    add(service, ROUND2)
    service.checkpoint()
    store = SegmentStore(os.path.join(root, "seg"))
    segments = store.refresh()
    assert len(segments) == 2
    os.remove(segments[0 if which == "oldest" else -1].path)
    fresh = make_service(plan, root)
    with pytest.raises(CheckpointError, match="segments it relies on"):
        fresh.recover(os.path.join(root, "ckpt"))


def test_recovers_live_plus_retired_after_retention(tmp_path, plan):
    root = str(tmp_path)
    service = make_service(plan, root, retention_max_bytes=1)
    for rows in (ROUND1, ROUND2, ROUND1):
        add(service, rows)
        service.flush_segments()
        time.sleep(0.002)
    assert service.compact_segments(force=True)["dropped_spans"] >= 1
    service.checkpoint()
    store = SegmentStore(os.path.join(root, "seg"))
    store.refresh()
    assert store.retired_totals()
    fresh = make_service(plan, root)
    fresh.recover(os.path.join(root, "ckpt"))
    assert cumulative(fresh.tree.rows()) == live_plus_retired(root)
    assert cumulative(fresh.tree.rows()) == cumulative(service.tree.rows())
    assert fresh.flush_segments() is None


def test_daemon_points_past_its_flush_and_compaction(tmp_path, plan):
    root = str(tmp_path)
    service = make_service(
        plan, root, compact_every=1, retention_max_segments=1
    )
    add(service, ROUND1)
    service.flush_segments()
    time.sleep(0.002)
    add(service, ROUND2)
    from repro.resilience.checkpoint import CheckpointDaemon

    daemon = CheckpointDaemon(service, interval=60.0)
    daemon._tick()
    assert (daemon.segments_written, daemon.compactions, daemon.written) == (
        1, 1, 1,
    )
    store = CheckpointStore(os.path.join(root, "ckpt"))
    _path, pointer = store.load_newest()
    assert pointer.generation == 1
    assert pointer.samples == service.tree.total_samples
    recovered(plan, root)


def test_full_checkpoint_beside_a_store_loses_and_doubles_nothing(
    tmp_path, plan
):
    # A v2 checkpoint from before pointers, beside a store that ran
    # ahead of it on some keys and behind it on others.
    root = str(tmp_path)
    service = make_service(plan, root)
    add(service, ROUND1)
    service.flush_segments()
    rows = [
        (("A",), 1, 0, 0),                # behind the store's 3
        (("A", "B", "D"), 5, 3, 0),       # ahead of the store's (3, 1)
        (("A", "C", "D", "E"), 4, 0, 1),  # level with it
        (("A", "C", "G"), 6, 0, 0),       # a context no segment holds
    ]
    CheckpointStore(os.path.join(root, "ckpt")).write(CheckpointState(
        epoch=0,
        fingerprint=service._fingerprint_of(0),
        rows=tuple(rows),
    ))
    fresh = make_service(plan, root)
    summary = fresh.recover(os.path.join(root, "ckpt"))
    want = cumulative(service.tree.rows())
    want[(("A", "B", "D"), 0)] = (5, 3)
    want[(("A", "C", "G"), 0)] = (6, 0)
    assert cumulative(fresh.tree.rows()) == want
    assert summary["samples"] == sum(count for count, _gaps in want.values())
    # The next flush writes exactly the excess, and nothing after it.
    path = fresh.flush_segments()
    assert path is not None
    written = SegmentStore(os.path.join(root, "seg"))
    excess = [seg for seg in written.refresh() if seg.path == path][0]
    assert cumulative(excess.rows) == {
        (("A", "B", "D"), 0): (2, 2),
        (("A", "C", "G"), 0): (6, 0),
    }
    assert fresh.flush_segments() is None
    assert live_plus_retired(root) == want
    durable = fresh.query()
    assert durable.top_contexts(10) == fresh.top_contexts(10)
    assert durable.function_totals() == fresh.function_totals()
