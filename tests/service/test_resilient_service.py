"""ContextService with the resilience stack: truthful deadlines,
quarantine, breaker shedding/replay, checkpoints, degraded mode."""

import random
import threading
import time

import pytest

from repro.check.oracle import _collect_observations
from repro.errors import CheckpointError, ServiceError
from repro.resilience import ResilienceConfig
from repro.resilience.chaos import ChaosConfig, ChaosInjector
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


class TestTruthfulDeadlines:
    def test_flush_timeout_raises_and_counts(self, plan):
        service = ContextService(
            plan, ServiceConfig(workers=1, shards=2, batch_size=4)
        )
        service.start()
        release = threading.Event()
        service._pool._handler = lambda batch: release.wait(30)
        service.submit_batch(one("A", ((), 0)))
        with pytest.raises(ServiceError):
            service.flush(timeout=0.2)
        assert service.metrics.flush_timeout == 1
        release.set()
        service.stop()

    def test_stop_reports_stalled_worker(self, plan):
        service = ContextService(
            plan, ServiceConfig(workers=1, shards=2, batch_size=4)
        )
        service.start()
        release = threading.Event()
        service._pool._handler = lambda batch: release.wait(30)
        service.submit_batch(one("A", ((), 0)))
        time.sleep(0.05)  # let the worker take the batch and stall
        assert service.stop(timeout=0.2) is False
        assert service.metrics.flush_timeout >= 1
        # Idempotent: the memoized verdict does not flip to True.
        assert service.stop() is False
        release.set()

    def test_clean_stop_reports_true(self, plan, observations):
        service = ContextService(plan, ServiceConfig(workers=2, shards=2))
        service.start()
        ingest_all(service, plan, observations)
        assert service.stop(timeout=10) is True
        assert service.stop() is True
        assert service.metrics.aggregated == len(observations)


class TestQuarantine:
    def test_deterministic_decode_failure_dead_letters(self, plan):
        service = ContextService(plan, ServiceConfig(workers=1, shards=2))
        service.start()
        service.submit_batch(one("not-a-node", ((), 0)))
        service.flush()
        service.stop()
        letters = service.dead_letters()
        assert len(letters) == 1
        assert letters[0].node == "not-a-node"
        assert letters[0].error_type == "DecodingError"
        assert letters[0].attempts == 1  # deterministic: never retried
        acc = service.accounting()
        assert acc["dead_lettered"] == 1
        assert acc["submitted"] == acc["dead_lettered"]

    def test_transient_failure_is_retried_then_aggregated(self, plan):
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2),
            resilience=ResilienceConfig(
                retry_attempts=3, retry_backoff=0.0001,
                retry_backoff_max=0.001, breaker=False,
            ),
        )
        real = service.engine.decode_batch
        calls = {"n": 0}

        def flaky(keys):
            calls["n"] += 1
            if calls["n"] <= 2:
                return [(key, None, RuntimeError("transient blip"))
                        for key in keys]
            return real(keys)

        service.engine.decode_batch = flaky
        service.start()
        service.submit_batch(one("A", ((), 0)))
        service.flush()
        service.stop()
        assert service.metrics.aggregated == 1
        assert service.metrics.retries == 2
        assert service.dead_letters() == []

    def test_transient_failure_exhausts_attempts_then_dead_letters(self, plan):
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2),
            resilience=ResilienceConfig(
                retry_attempts=2, retry_backoff=0.0001,
                retry_backoff_max=0.001, breaker=False,
            ),
        )
        def always_fail(keys):
            return [(key, None, RuntimeError("hard down")) for key in keys]

        service.engine.decode_batch = always_fail
        service.start()
        service.submit_batch(one("A", ((), 0)))
        service.flush()
        service.stop()
        letters = service.dead_letters()
        assert len(letters) == 1
        assert letters[0].attempts == 2
        assert letters[0].error_type == "RuntimeError"

    def test_exhausted_retries_keep_the_plan_fingerprint(
        self, plan, observations
    ):
        from repro.resilience.checkpoint import plan_fingerprint

        injector = ChaosInjector(
            ChaosConfig(seed=1, worker_kill_rate=0.0, slow_consumer_rate=0.0,
                        decode_fault_rate=1.0, checkpoint_crash_rate=0.0)
        )
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2),
            resilience=ResilienceConfig(
                retry_attempts=2, retry_backoff=0.0001,
                retry_backoff_max=0.001, breaker=False,
            ),
            chaos=injector,
        )
        service.start()
        for _ in range(4):
            service.submit_batch(
                SampleBatch.from_observations(observations, epoch=0)
            )
        service.flush()
        service.stop()
        letters = service.dead_letters()
        assert len(letters) == 4 * len(observations)
        assert {letter.attempts for letter in letters} == {2}
        assert {letter.fingerprint for letter in letters} == {
            plan_fingerprint(plan)
        }
        groups = service.forensics()
        assert len(groups) == 1
        assert groups[0]["fingerprint_match"]


class TestBreakerFallback:
    def test_storm_trips_breaker_and_replay_recovers(self, plan, observations):
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2, batch_size=4),
            resilience=ResilienceConfig(
                retry_attempts=1,
                breaker_window=8,
                breaker_min_volume=2,
                breaker_error_rate=0.5,
                breaker_cooldown=0.05,
                breaker_half_open_probes=1,
            ),
        )
        real = service.engine.decode_batch
        storming = {"on": True}

        def stormy(keys):
            if storming["on"]:
                return [(key, None, RuntimeError("decode storm"))
                        for key in keys]
            return real(keys)

        service.engine.decode_batch = stormy
        service.start()
        ingest_all(service, plan, observations)
        deadline = time.monotonic() + 5
        while (
            service._breaker.snapshot()["opens"] == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        stats = service.resilience_stats()
        assert stats["breaker"]["opens"] >= 1
        # End the storm; after the cooldown flush replays the fallback
        # through the normal path and everything lands.
        storming["on"] = False
        time.sleep(0.06)
        service.flush(timeout=10)
        service.stop(timeout=10)
        acc = service.accounting()
        assert acc["fallback_pending"] == 0
        assert (
            acc["submitted"]
            == acc["aggregated"] + acc["dead_lettered"] + acc["dropped"]
        )
        assert acc["aggregated"] > 0


class TestCheckpointRecover:
    def test_round_trip(self, tmp_path, plan, observations):
        resilience = ResilienceConfig(checkpoint_dir=str(tmp_path))
        service = ContextService(
            plan, ServiceConfig(workers=2, shards=4), resilience=resilience
        )
        service.start()
        ingest_all(service, plan, observations)
        service.flush()
        path = service.checkpoint()
        pre_totals = service.function_totals()
        pre_top = service.top_contexts(10)
        epoch = service.epoch
        assert service.stop() is True  # also writes the on-stop snapshot
        assert service.resilience_stats()["checkpoints_written"] >= 2

        fresh = ContextService(
            build_plan_from_graph(figure5_graph()),
            ServiceConfig(workers=1, shards=2),
            resilience=resilience,
        )
        summary = fresh.recover(str(tmp_path))
        assert summary["samples"] == len(observations)
        assert summary["epoch"] == epoch
        assert fresh.function_totals() == pre_totals
        assert fresh.top_contexts(10) == pre_top
        assert fresh.accounting()["recovered"] == len(observations)
        assert path  # the manual snapshot exists alongside the on-stop one

    def test_recover_refuses_wrong_plan(self, tmp_path, plan, observations):
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2),
            resilience=ResilienceConfig(
                checkpoint_dir=str(tmp_path), checkpoint_on_stop=False
            ),
        )
        service.start()
        ingest_all(service, plan, observations)
        service.flush()
        service.checkpoint()
        service.stop()

        g2 = figure5_graph().copy()
        g2.add_edge("G", "other", "x9")
        other_plan = build_plan_from_graph(g2)
        fresh = ContextService(other_plan, ServiceConfig(workers=1, shards=2))
        with pytest.raises(CheckpointError):
            fresh.recover(str(tmp_path))
        # Forensics override still works.
        summary = fresh.recover(str(tmp_path), allow_mismatch=True)
        assert summary["samples"] == len(observations)

    def test_recover_needs_fresh_service(self, tmp_path, plan, observations):
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2),
            resilience=ResilienceConfig(
                checkpoint_dir=str(tmp_path), checkpoint_on_stop=False
            ),
        )
        service.start()
        ingest_all(service, plan, observations)
        service.flush()
        service.checkpoint()
        with pytest.raises(CheckpointError):
            service.recover(str(tmp_path))  # started: refused
        service.stop()

    def test_checkpoint_without_directory_raises(self, plan):
        service = ContextService(plan, ServiceConfig(workers=1, shards=2))
        with pytest.raises(CheckpointError):
            service.checkpoint()

    def test_recover_empty_directory_raises(self, tmp_path, plan):
        service = ContextService(plan, ServiceConfig(workers=1, shards=2))
        with pytest.raises(CheckpointError):
            service.recover(str(tmp_path))


class TestDegradedMode:
    def test_budget_exhaustion_degrades_but_loses_nothing(
        self, plan, observations
    ):
        injector = ChaosInjector(
            ChaosConfig(seed=3, worker_kill_rate=1.0, slow_consumer_rate=0.0,
                        decode_fault_rate=0.0, checkpoint_crash_rate=0.0)
        )
        service = ContextService(
            plan,
            ServiceConfig(workers=2, shards=2, queue_capacity=64,
                          batch_size=4),
            resilience=ResilienceConfig(
                heartbeat_interval=0.002, max_restarts=0
            ),
            chaos=injector,
        )
        service.start()
        deadline = time.monotonic() + 5
        while not service.degraded and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.degraded
        assert service.resilience_stats()["supervisor"]["state"] == "degraded"
        # Submissions keep working: raw retention, then inline replay.
        ingest_all(service, plan, observations)
        service.flush(timeout=10)
        assert service.stop(timeout=10) is True
        acc = service.accounting()
        assert acc["aggregated"] == len(observations)
        assert acc["fallback_pending"] == 0


class TestServiceMetricsShape:
    def test_armed_decode_latency_is_observed_once_per_batch(
        self, plan, observations
    ):
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2),
            resilience=ResilienceConfig(),
        )
        service.start()
        service.submit_batch(
            SampleBatch.from_observations(observations, epoch=0)
        )
        service.flush()
        service.stop()
        out = service.service_metrics()
        assert out["batch.groups"] > out["batches"]
        assert out["decode_latency"]["count"] == out["batches"]

    def test_resilience_section_present(self, plan):
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2),
            resilience=ResilienceConfig(),
        )
        service.start()
        service.submit_batch(one("A", ((), 0)))
        service.flush()
        service.stop()
        out = service.service_metrics()
        res = out["resilience"]
        assert res["degraded"] is False
        assert res["supervisor"]["state"] in ("running", "stopped")
        assert res["breaker"]["state"] == "closed"
        assert res["dead_letter"]["pending"] == 0
        assert res["fallback"]["pending"] == 0

    def test_plain_service_has_null_resilience_parts(self, plan):
        service = ContextService(plan, ServiceConfig(workers=1, shards=2))
        res = service.resilience_stats()
        assert res["supervisor"] is None
        assert res["breaker"] is None

    def test_submit_after_stop_raises_without_leaking_counts(self, plan):
        service = ContextService(plan, ServiceConfig(workers=1, shards=2))
        service.start()
        service.stop()
        with pytest.raises(ServiceError):
            service.submit_batch(one("A", ((), 0)))
        assert service.metrics.submitted == 0
