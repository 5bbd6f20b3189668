"""ContextService + repro.query: flush, query parity, forensics join."""

import random
import time

import pytest

from repro.check.oracle import (
    _collect_observations,
    canonical_query_answers,
    query_equivalence_failures,
)
from repro.errors import QueryError
from repro.resilience import ResilienceConfig
from repro.resilience.checkpoint import plan_fingerprint
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, SampleBatch, ServiceConfig
from repro.workloads.paperfigures import figure5_graph


@pytest.fixture
def plan():
    return build_plan_from_graph(figure5_graph())


@pytest.fixture
def observations(plan):
    return _collect_observations(plan, random.Random(5), 24)


def one(node, snap, epoch=0):
    """A one-sample batch (the plan-0 epoch unless told otherwise)."""
    return SampleBatch().append(node, snap, epoch=epoch)


def ingest_all(service, plan, observations):
    epoch = service.engine.epoch_of(plan)
    for node, snap in observations:
        service.submit_batch(one(node, snap, epoch))


def segment_config(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("shards", 2)
    return ServiceConfig(segment_dir=str(tmp_path / "segments"), **kwargs)


class TestFacade:
    def test_query_requires_segment_dir(self, plan):
        service = ContextService(plan)
        with pytest.raises(QueryError):
            service.query()
        with pytest.raises(QueryError):
            service.flush_segments()

    def test_durable_answers_match_memory(self, plan, observations,
                                          tmp_path):
        service = ContextService(plan, segment_config(tmp_path))
        service.start()
        ingest_all(service, plan, observations)
        service.flush()
        assert service.flush_segments() is not None
        assert service.flush_segments() is None  # nothing new
        engine = service.query()
        assert engine.top_contexts(10) == service.top_contexts(10)
        assert engine.function_totals() == service.function_totals()
        assert engine.ucp_stats() == service.ucp_stats()
        service.stop()

    def test_service_metrics_report_segments(self, plan, tmp_path):
        service = ContextService(plan, segment_config(tmp_path))
        assert service.service_metrics()["segments"]["segments"] == 0
        plain = ContextService(plan)
        assert plain.service_metrics()["segments"] is None


class TestDaemonFlushing:
    def test_daemon_flushes_segments_on_interval(self, plan, observations,
                                                 tmp_path):
        service = ContextService(
            plan,
            segment_config(tmp_path),
            resilience=ResilienceConfig(
                supervise=False,
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_interval=0.02,
                checkpoint_on_stop=False,
            ),
        )
        service.start()
        ingest_all(service, plan, observations)
        service.flush()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if (
                service._daemon.segments_written
                and service._daemon.written
            ):
                break
            time.sleep(0.01)
        service.stop()
        assert service._daemon.segments_written >= 1
        assert service._daemon.written >= 1
        assert service.query().top_contexts(10) == service.top_contexts(10)


class TestCrashRecoveryEquivalence:
    def test_query_answers_survive_crash(self, plan, observations,
                                         tmp_path):
        resilience = ResilienceConfig(
            supervise=False,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_on_stop=False,
        )
        service = ContextService(
            plan, segment_config(tmp_path), resilience=resilience
        )
        service.start()
        mid = len(observations) // 2
        ingest_all(service, plan, observations[:mid])
        service.flush()
        service.flush_segments()
        ingest_all(service, plan, observations[mid:])
        service.flush()
        service.flush_segments()
        service.checkpoint()
        pre = canonical_query_answers(service.query())
        service.stop()  # the crash: no flush, no checkpoint

        fresh = ContextService(
            plan, segment_config(tmp_path), resilience=resilience
        )
        fresh.recover(str(tmp_path / "ckpt"))
        post = canonical_query_answers(fresh.query())
        assert query_equivalence_failures(pre, post) == []
        assert pre == post

    def test_rebase_prevents_double_count_after_recovery(
        self, plan, observations, tmp_path
    ):
        resilience = ResilienceConfig(
            supervise=False,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_on_stop=False,
        )
        service = ContextService(
            plan, segment_config(tmp_path), resilience=resilience
        )
        service.start()
        ingest_all(service, plan, observations)
        service.flush()
        service.flush_segments()
        service.checkpoint()
        expected = service.query().top_contexts(10)
        service.stop()

        fresh = ContextService(
            plan, segment_config(tmp_path), resilience=resilience
        )
        fresh.recover(str(tmp_path / "ckpt"))
        # recovered counts must not flush again as a fresh delta
        assert fresh.flush_segments() is None
        assert fresh.query().top_contexts(10) == expected


class TestForensics:
    def test_dead_letters_carry_epoch_fingerprint(self, plan, tmp_path):
        service = ContextService(plan, segment_config(tmp_path))
        service.start()
        service.submit_batch(one("not-a-node", ((), 0)))
        service.flush()
        service.stop()
        (letter,) = service.dead_letters()
        assert letter.epoch == 0
        assert letter.fingerprint == plan_fingerprint(plan)

    def test_epoch_history_records_installs(self, plan):
        service = ContextService(plan)
        history = service.epoch_history()
        assert history[0]["fingerprint"] == plan_fingerprint(plan)
        assert history[0]["delta"] is None
        new_epoch = service.install_plan(plan)
        history = service.epoch_history()
        assert set(history) == {0, new_epoch}
        assert history[new_epoch]["delta"] is None

    def test_forensics_joins_letters_to_history(self, plan, tmp_path):
        service = ContextService(plan, segment_config(tmp_path))
        service.start()
        service.submit_batch(one("not-a-node", ((), 0)))
        service.flush()
        service.install_plan(plan)  # supersede epoch 0
        service.stop()
        (group,) = service.forensics()
        assert group["epoch"] == 0
        assert group["letters"] == 1
        assert group["fingerprint_match"]
        assert group["superseded"]
        assert group["errors"] == {"DecodingError": 1}

    def test_forensics_without_segment_dir(self, plan):
        service = ContextService(plan)
        service.start()
        service.submit_batch(one("not-a-node", ((), 0)))
        service.flush()
        service.stop()
        (group,) = service.forensics()
        assert group["segments"] == []


class TestServiceCompaction:
    def chunked(self, observations, parts=4):
        size = max(1, len(observations) // parts)
        for lo in range(0, len(observations), size):
            yield observations[lo:lo + size]

    def build_segments(self, service, plan, observations, parts=4):
        for chunk in self.chunked(observations, parts):
            ingest_all(service, plan, chunk)
            service.flush()
            service.flush_segments()
            time.sleep(0.002)  # distinct segment windows

    def test_compact_segments_merges_without_moving_answers(
        self, plan, observations, tmp_path
    ):
        service = ContextService(plan, segment_config(tmp_path))
        service.start()
        self.build_segments(service, plan, observations)
        service.stop()
        before = canonical_query_answers(service.query())
        report = service.compact_segments(force=True)
        assert report is not None
        assert report["to_generation"] == 1
        after = canonical_query_answers(service.query())
        assert query_equivalence_failures(before, after) == []

    def test_compact_segments_without_dir_raises(self, plan):
        service = ContextService(plan)
        with pytest.raises(QueryError):
            service.compact_segments()

    def test_metrics_carry_compaction_stats(
        self, plan, observations, tmp_path
    ):
        service = ContextService(plan, segment_config(tmp_path))
        service.start()
        self.build_segments(service, plan, observations)
        service.stop()
        service.compact_segments(force=True)
        stats = service.service_metrics()["compaction"]
        assert stats["compactions"] == 1
        assert stats["generation"] == 1

    def test_metrics_without_dir_have_no_compaction(self, plan):
        service = ContextService(plan)
        assert service.service_metrics()["compaction"] is None

    def test_maybe_compact_honours_cadence(
        self, plan, observations, tmp_path
    ):
        service = ContextService(
            plan, segment_config(tmp_path, compact_every=2)
        )
        service.start()
        self.build_segments(service, plan, observations)
        service.stop()
        # two flushes per maybe_compact call => fires on the second
        assert service.maybe_compact_segments() is None
        report = service.maybe_compact_segments()
        assert report is not None and report["to_generation"] == 1

    def test_maybe_compact_disabled_by_default(
        self, plan, observations, tmp_path
    ):
        service = ContextService(plan, segment_config(tmp_path))
        service.start()
        self.build_segments(service, plan, observations)
        service.stop()
        for _ in range(8):
            assert service.maybe_compact_segments() is None

    def test_recover_resolves_pending_journal(
        self, plan, observations, tmp_path
    ):
        from repro.errors import ChaosError
        from repro.query.compact import Compactor, journal_pending
        from repro.query.manifest import SegmentStore

        service = ContextService(plan, segment_config(tmp_path))
        service.start()
        self.build_segments(service, plan, observations)
        ckpt = str(tmp_path / "ckpt")
        service.checkpoint(ckpt)
        service.stop()
        before = canonical_query_answers(service.query())

        # a compactor dies mid-swap, leaving its intent journal behind
        directory = str(tmp_path / "segments")
        store = SegmentStore(directory)

        def crash(records):
            if records > 2:
                raise ChaosError("chaos: die mid-swap")

        with pytest.raises(ChaosError):
            Compactor(store).compact(fault=crash, force=True)
        assert journal_pending(directory)

        fresh = ContextService(plan, segment_config(tmp_path))
        fresh.recover(ckpt)
        assert not journal_pending(directory)
        after = canonical_query_answers(fresh.query())
        assert query_equivalence_failures(before, after) == []

    def test_retention_caps_flow_from_config(self, plan, tmp_path):
        service = ContextService(
            plan,
            segment_config(tmp_path, retention_max_segments=3),
        )
        policy = service._compactor.policy
        assert policy.retention.max_segments == 3
