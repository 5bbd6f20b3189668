"""The chaos harness: injectors, oracles, and seeded end-to-end runs."""

import pytest

from repro.errors import ChaosError, ResilienceError
from repro.resilience.chaos import (
    MAX_ARMED_STREAK,
    ChaosConfig,
    ChaosInjector,
    conservation_failures,
    kill_during_flush_failures,
    recovery_failures,
    run_chaos,
)
from repro.service.ingest import WorkerKilled


class TestChaosInjector:
    def test_worker_kill_fires_at_configured_rate(self):
        injector = ChaosInjector(
            ChaosConfig(seed=1, worker_kill_rate=1.0, slow_consumer_rate=0.0)
        )
        with pytest.raises(WorkerKilled):
            injector.worker_fault(0)
        assert injector.tallies()["worker_kills"] == 1

    def test_decode_fault_raises_chaos_error(self):
        injector = ChaosInjector(ChaosConfig(seed=1, decode_fault_rate=1.0))
        with pytest.raises(ChaosError):
            injector.decode_fault()
        assert injector.tallies()["decode_faults"] == 1

    def test_zero_rates_never_fire(self):
        injector = ChaosInjector(
            ChaosConfig(
                seed=1,
                worker_kill_rate=0.0,
                slow_consumer_rate=0.0,
                decode_fault_rate=0.0,
                checkpoint_crash_rate=0.0,
            )
        )
        for _ in range(200):
            injector.worker_fault(0)
            injector.decode_fault()
        assert injector.checkpoint_fault() is None
        assert all(v == 0 for v in injector.tallies().values())

    def test_checkpoint_fault_crashes_mid_write(self):
        injector = ChaosInjector(
            ChaosConfig(seed=1, checkpoint_crash_rate=1.0,
                        checkpoint_crash_after_records=0)
        )
        fault = injector.checkpoint_fault()
        assert fault is not None
        with pytest.raises(ChaosError):
            fault(1)
        assert injector.tallies()["checkpoint_crashes"] == 1

    def test_rate_validation(self):
        with pytest.raises(ResilienceError):
            ChaosConfig(worker_kill_rate=1.5)
        with pytest.raises(ResilienceError):
            ChaosConfig(decode_fault_rate=-0.1)


class TestOracleHelpers:
    def test_recovery_failures_flags_phantoms(self):
        pre = {("main", "a"): 5}
        ckpt = {("main", "a"): 5}
        assert recovery_failures(dict(ckpt), ckpt, pre) == []
        # A context recovery invented out of nothing.
        phantom = {("main", "a"): 5, ("main", "ghost"): 1}
        assert recovery_failures(phantom, ckpt, pre)
        # Inflated counts relative to pre-crash truth.
        inflated = {("main", "a"): 9}
        assert recovery_failures(inflated, inflated, pre)
        # Recovered disagrees with what was checkpointed.
        assert recovery_failures({}, ckpt, pre)

    def test_conservation_failures_on_clean_service(self):
        from repro.runtime.plan import build_plan_from_graph
        from repro.service import ContextService, SampleBatch, ServiceConfig
        from repro.workloads.paperfigures import figure5_graph

        plan = build_plan_from_graph(figure5_graph())
        service = ContextService(plan, ServiceConfig(workers=1, shards=2))
        service.start()
        service.submit_batch(SampleBatch().append("A", ((), 0), epoch=0))
        service.flush()
        service.stop()
        assert conservation_failures(service) == []


class TestRunChaos:
    def test_seeded_run_holds_invariants(self):
        report = run_chaos(iterations=4, seed=21)
        assert report.ok
        assert report.iterations == 4
        assert report.failures == []
        assert report.recoveries == 4
        payload = report.to_json()
        assert payload["ok"] is True
        assert "injected" in payload

    def test_heavy_fault_rates_still_hold(self):
        report = run_chaos(
            iterations=6,
            seed=33,
            worker_kill_rate=0.3,
            decode_fault_rate=0.25,
            checkpoint_crash_rate=0.8,
            observations=20,
        )
        assert report.ok, report.failures
        assert sum(report.injected.values()) > 0

    def test_run_chaos_includes_kill_during_flush_checks(self):
        report = run_chaos(iterations=1, seed=21, observations=16)
        assert report.ok, report.failures
        # One flood iteration + at least one kill-during-flush byte
        # comparison ride in the same report.
        assert report.query_checks >= 2


class TestKillDuringFlush:
    """A worker killed after the segment fsync but before any
    bookkeeping: the durable segment is neither dropped nor
    double-counted across recovery (byte-equivalence oracle)."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_invariants_hold(self, seed):
        assert kill_during_flush_failures(seed, observations=24) == []


class TestCompactionFault:
    def test_fires_at_full_rate(self):
        injector = ChaosInjector(
            ChaosConfig(seed=1, compaction_crash_rate=1.0,
                        compaction_crash_after_records=0)
        )
        fault = injector.compaction_fault()
        assert fault is not None
        with pytest.raises(ChaosError):
            fault(1)
        assert injector.tallies()["compaction_crashes"] == 1

    def test_zero_rate_never_arms(self):
        injector = ChaosInjector(
            ChaosConfig(seed=1, compaction_crash_rate=0.0)
        )
        assert all(
            injector.compaction_fault() is None for _ in range(50)
        )

    def test_crash_point_is_seed_deterministic(self):
        def arm(seed):
            injector = ChaosInjector(
                ChaosConfig(seed=seed, compaction_crash_rate=1.0,
                            compaction_crash_after_records=16)
            )
            fault = injector.compaction_fault()
            for n in range(1, 64):
                try:
                    fault(n)
                except ChaosError:
                    return n
            return None

        assert arm(7) == arm(7)

    def test_rate_validation(self):
        with pytest.raises(ResilienceError):
            ChaosConfig(compaction_crash_rate=1.5)


class TestArmedStreakCap:
    """At rate 1.0 every write would crash forever; the cap makes the
    retry loops in ``run_chaos`` (12 attempts) progress by construction."""

    def injector(self):
        return ChaosInjector(
            ChaosConfig(seed=38, checkpoint_crash_rate=1.0,
                        compaction_crash_rate=1.0)
        )

    @pytest.mark.parametrize("kind", ["checkpoint", "compaction"])
    def test_full_rate_arms_at_most_the_cap_in_a_row(self, kind):
        assert MAX_ARMED_STREAK < 12
        arm = getattr(self.injector(), f"{kind}_fault")
        armed = [arm() is not None for _ in range(3 * (MAX_ARMED_STREAK + 1))]
        assert armed == ([True] * MAX_ARMED_STREAK + [False]) * 3

    def test_streaks_are_counted_per_kind(self):
        injector = self.injector()
        for _ in range(MAX_ARMED_STREAK):
            assert injector.checkpoint_fault() is not None
            assert injector.compaction_fault() is not None
        assert injector.checkpoint_fault() is None
        assert injector.compaction_fault() is None
        assert injector.checkpoint_fault() is not None


class TestKillDuringCompaction:
    """The crash sweep: a SIGKILL after every durable record of a
    retention-armed swap leaves pre- or post-swap answers, never a
    blend, and never loses a sample."""

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_invariants_hold(self, seed):
        from repro.resilience.chaos import kill_during_compaction_failures
        assert kill_during_compaction_failures(
            seed, observations=24
        ) == []

    def test_run_chaos_counts_compaction_crashes(self):
        report = run_chaos(
            iterations=3, seed=11, observations=16,
            compaction_crash_rate=0.9,
        )
        assert report.ok, report.failures
        assert report.injected.get("compaction_crashes", 0) > 0
