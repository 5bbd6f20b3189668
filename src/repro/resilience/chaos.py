"""Chaos injection: seeded faults against the resilient service.

:class:`ChaosInjector` is the fault source the service wires into its
hot paths when constructed with ``chaos=ChaosConfig(...)``:

* ``worker_fault(slot)`` — hooked before each worker drain iteration;
  kills the worker (:class:`~repro.service.ingest.WorkerKilled`) or
  stalls it (slow consumer).
* ``decode_fault()`` — hooked before each sample decode; raises a
  retryable :class:`~repro.errors.ChaosError`, exercising the retry
  ladder and, under storms, the circuit breaker.
* ``checkpoint_fault()`` — per checkpoint write, maybe returns a hook
  that crashes the write after N records, leaving a torn temp file the
  recovery path must ignore.
* ``compaction_fault()`` — per segment-compaction swap, maybe returns
  a hook that crashes the generation swap after N durable records,
  leaving a half-done swap the intent journal must roll forward or
  back.

Neither write hook arms more than :data:`MAX_ARMED_STREAK` times in a
row: the call after such a streak always returns None, so a caller
that retries a crashed write a dozen times is guaranteed progress
whatever the rates, the seed, or the threads drawing from the RNG.

:func:`run_chaos` is the harness behind ``python -m repro chaos``: for
each seeded iteration it builds a fuzz case, floods a fully-resilient
service under all fault injectors at once, then asserts the two laws
this PR exists to defend:

* **conservation** — every submitted sample is aggregated,
  dead-lettered, policy-dropped, or retained in the raw fallback;
* **recovery equivalence** — a fresh service recovered from the newest
  valid checkpoint reports exactly the checkpointed contexts, which are
  a subset of the pre-crash report (no phantom contexts, no
  resurrections).

Determinism: everything derives from the iteration seed, so a failing
iteration replays exactly with ``--seed``.
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import (
    ChaosError,
    CheckpointError,
    EncodingOverflowError,
    ReproError,
    ResilienceError,
)
from repro.service.ingest import WorkerKilled

__all__ = [
    "MAX_ARMED_STREAK",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosReport",
    "kill_during_compaction_failures",
    "kill_during_flush_failures",
    "run_chaos",
]

#: Most crash hooks one write kind (checkpoint, compaction) arms in a
#: row; below the 12 attempts :func:`run_chaos` gives each write.
MAX_ARMED_STREAK = 8


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates for one chaos run (all probabilities per opportunity)."""

    seed: int = 0
    #: P(kill) per worker drain iteration.
    worker_kill_rate: float = 0.02
    #: P(stall) per worker drain iteration.
    slow_consumer_rate: float = 0.02
    slow_consumer_s: float = 0.005
    #: P(raise ChaosError) per sample decode attempt.
    decode_fault_rate: float = 0.05
    #: P(crash) per checkpoint write.
    checkpoint_crash_rate: float = 0.3
    #: Crash lands after 0..N records of the write.
    checkpoint_crash_after_records: int = 2
    #: P(crash) per compaction attempt.
    compaction_crash_rate: float = 0.0
    #: Compaction crash lands after 0..N records of the swap.
    compaction_crash_after_records: int = 4

    def __post_init__(self):
        for name in (
            "worker_kill_rate",
            "slow_consumer_rate",
            "decode_fault_rate",
            "checkpoint_crash_rate",
            "compaction_crash_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ResilienceError(f"{name} must be in [0, 1], got {rate}")


class ChaosInjector:
    """Seeded, thread-safe fault source for one service instance."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self._lock = threading.Lock()
        self.worker_kills = 0
        self.slow_consumers = 0
        self.decode_faults = 0
        self.checkpoint_crashes = 0
        self.compaction_crashes = 0
        self._streaks = {"checkpoint": 0, "compaction": 0}

    def _arm(self, kind: str, rate: float, max_after: int) -> Optional[int]:
        """The record count a new ``kind`` crash hook fires after, or
        None for no hook (caller holds the lock)."""
        if self._streaks[kind] >= MAX_ARMED_STREAK or self._rng.random() >= rate:
            self._streaks[kind] = 0
            return None
        self._streaks[kind] += 1
        return self._rng.randint(0, max_after)

    # -- WorkerPool `fault` hook ----------------------------------------
    def worker_fault(self, slot: int) -> None:
        with self._lock:
            roll = self._rng.random()
            kill = roll < self.config.worker_kill_rate
            slow = (
                not kill
                and roll
                < self.config.worker_kill_rate + self.config.slow_consumer_rate
            )
            if kill:
                self.worker_kills += 1
            elif slow:
                self.slow_consumers += 1
        if kill:
            obs.counter("resilience.chaos_worker_kills").inc()
            raise WorkerKilled(f"chaos: killed worker slot {slot}")
        if slow:
            obs.counter("resilience.chaos_slow_consumers").inc()
            time.sleep(self.config.slow_consumer_s)

    # -- per-group decode hook ------------------------------------------
    def decode_fault(self) -> None:
        with self._lock:
            hit = self._rng.random() < self.config.decode_fault_rate
            if hit:
                self.decode_faults += 1
        if hit:
            obs.counter("resilience.chaos_decode_faults").inc()
            raise ChaosError("chaos: injected transient decode failure")

    # -- per-checkpoint-write hook --------------------------------------
    def checkpoint_fault(self) -> Optional[Callable[[int], None]]:
        """Maybe a crash hook for one checkpoint write (else None)."""
        with self._lock:
            crash_after = self._arm(
                "checkpoint",
                self.config.checkpoint_crash_rate,
                self.config.checkpoint_crash_after_records,
            )
        if crash_after is None:
            return None

        def crash(records: int) -> None:
            if records > crash_after:
                with self._lock:
                    self.checkpoint_crashes += 1
                obs.counter("resilience.chaos_checkpoint_crashes").inc()
                raise ChaosError(
                    f"chaos: checkpoint crash after {records} record(s)"
                )

        return crash

    # -- per-compaction-swap hook ---------------------------------------
    def compaction_fault(self) -> Optional[Callable[[int], None]]:
        """Maybe a crash hook for one compaction swap (else None).

        The hook fires per durable record the compactor writes (retired
        sidecar lines, journal records, merged-segment lines, the
        manifest commit), so a hit simulates a SIGKILL at an arbitrary
        byte of the generation swap.
        """
        with self._lock:
            crash_after = self._arm(
                "compaction",
                self.config.compaction_crash_rate,
                self.config.compaction_crash_after_records,
            )
        if crash_after is None:
            return None

        def crash(records: int) -> None:
            if records > crash_after:
                with self._lock:
                    self.compaction_crashes += 1
                obs.counter("resilience.chaos_compaction_crashes").inc()
                raise ChaosError(
                    f"chaos: compaction crash after {records} record(s)"
                )

        return crash

    def tallies(self) -> Dict[str, int]:
        with self._lock:
            return {
                "worker_kills": self.worker_kills,
                "slow_consumers": self.slow_consumers,
                "decode_faults": self.decode_faults,
                "checkpoint_crashes": self.checkpoint_crashes,
                "compaction_crashes": self.compaction_crashes,
            }


# ----------------------------------------------------------------------
# The chaos harness
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Aggregate of one :func:`run_chaos` invocation."""

    iterations: int = 0
    skipped: int = 0
    failures: List[str] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)
    restarts: int = 0
    recoveries: int = 0
    #: Iterations whose durable query answers were byte-compared across
    #: the crash (pre-crash vs post-recover).
    query_checks: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "all invariants held" if self.ok else (
            f"{len(self.failures)} FAILURE(S)"
        )
        lines = [
            f"chaos: {self.iterations} iteration(s) "
            f"({self.skipped} skipped), {verdict}",
            f"  injected: {self.injected}",
            f"  worker restarts: {self.restarts}, "
            f"recoveries: {self.recoveries}, "
            f"query checks: {self.query_checks}, "
            f"elapsed: {self.elapsed_s:.2f}s",
        ]
        for failure in self.failures[:8]:
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "skipped": self.skipped,
            "ok": self.ok,
            "failures": list(self.failures),
            "injected": dict(self.injected),
            "restarts": self.restarts,
            "recoveries": self.recoveries,
            "query_checks": self.query_checks,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def conservation_failures(service) -> List[str]:
    """The PR-5 conservation law over one service's accounting.

    ``submitted == aggregated + dead_lettered + epoch_mismatches +
    dropped + fallback_dropped + fallback_pending`` — every sample the
    producer handed over is either in the tree, quarantined with its
    error, dropped by a *declared* policy, or safely retained raw.
    """
    snap = service.accounting()
    accounted = (
        snap["aggregated"]
        + snap["dead_lettered"]
        + snap["epoch_mismatches"]
        + snap["dropped"]
        + snap["fallback_dropped"]
        + snap["fallback_pending"]
    )
    failures: List[str] = []
    if snap["submitted"] != accounted:
        failures.append(
            f"conservation leak: submitted={snap['submitted']} != "
            f"accounted={accounted} ({snap!r})"
        )
    tree_total = service.tree.total_samples
    expected_tree = snap["aggregated"] + snap["recovered"]
    if tree_total != expected_tree:
        failures.append(
            f"tree total {tree_total} != aggregated+recovered "
            f"{expected_tree} ({snap!r})"
        )
    return failures


def recovery_failures(
    recovered_counts: Dict[Tuple[str, ...], int],
    checkpoint_counts: Dict[Tuple[str, ...], int],
    pre_crash_counts: Dict[Tuple[str, ...], int],
) -> List[str]:
    """Recovery equivalence: recovered == checkpointed ⊆ pre-crash."""
    failures: List[str] = []
    if recovered_counts != checkpoint_counts:
        missing = set(checkpoint_counts) - set(recovered_counts)
        extra = set(recovered_counts) - set(checkpoint_counts)
        failures.append(
            f"recovered report != checkpointed state "
            f"(missing={sorted(missing)[:3]}, extra={sorted(extra)[:3]})"
        )
    for path, count in recovered_counts.items():
        pre = pre_crash_counts.get(path)
        if pre is None:
            failures.append(f"phantom context after recovery: {path!r}")
            break
        if count > pre:
            failures.append(
                f"context {path!r} inflated by recovery: {count} > "
                f"pre-crash {pre}"
            )
            break
    return failures


def _tree_counts(service) -> Dict[Tuple[str, ...], int]:
    # Rows are (path, count, gaps, epoch); one path may appear once per
    # epoch, so counts are summed per path.
    counts: Dict[Tuple[str, ...], int] = {}
    for row in service.tree.rows():
        path, count = row[0], row[1]
        counts[path] = counts.get(path, 0) + count
    return counts


def kill_during_flush_failures(
    seed: int = 0, observations: int = 32
) -> List[str]:
    """Chaos oracle: a worker SIGKILLed *inside* ``flush_segments()``,
    in the window after the segment file is durably renamed but before
    the writer's in-memory bookkeeping runs.

    The fsync'd segment must be neither dropped (its samples are on
    disk; recovery must serve them) nor double-counted (the recovered
    writer's reconciled baseline must know the store already holds
    them, even though the dead process's checkpoint predates the
    segment).  Asserted with the byte-equivalence query oracle: the
    durable answers readable the instant after the kill are exactly the
    answers after recovery, and stay exact after the recovered service
    flushes again.

    Returns a list of failure strings (empty = the invariants held).
    """
    from repro.check.fuzz import generate_case
    from repro.check.oracle import (
        _collect_observations,
        canonical_query_answers,
        query_equivalence_failures,
    )
    from repro.query.engine import QueryEngine
    from repro.resilience import ResilienceConfig
    from repro.runtime.plan import build_plan_from_graph
    from repro.service.service import ContextService, ServiceConfig

    case = generate_case(seed)
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return []  # this seed's graph does not fit; nothing to test
    rng = random.Random(seed ^ 0xF1D5)
    obs_list = _collect_observations(plan, rng, observations)
    if len(obs_list) < 2:
        return []
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-killflush-") as tmp:
        segment_dir = os.path.join(tmp, "segments")
        resilience = ResilienceConfig(
            checkpoint_dir=os.path.join(tmp, "checkpoints"),
            checkpoint_on_stop=False,
        )
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2, segment_dir=segment_dir),
            resilience=resilience,
        ).start()
        from repro.service.batch import SampleBatch

        midpoint = len(obs_list) // 2
        service.submit_batch(
            SampleBatch.from_observations(
                obs_list[:midpoint], epoch=service.epoch
            )
        )
        service.flush(timeout=30.0)
        service.flush_segments()
        service.checkpoint()  # durable tree state: first half only
        service.submit_batch(
            SampleBatch.from_observations(
                obs_list[midpoint:], epoch=service.epoch
            )
        )
        service.flush(timeout=30.0)

        # The kill: append lands the segment durably, then the process
        # "dies" — the raise stands in for the SIGKILL, and disabling
        # salvage models that no post-append code ever ran.
        writer = service._segments
        real_append = writer.store.append

        def dying_append(encoded, fault=None):
            real_append(encoded, fault=fault)
            raise ChaosError("chaos: worker killed after segment fsync")

        writer.store.append = dying_append
        writer._salvage = lambda encoded: None
        try:
            service.flush_segments()
            failures.append(
                "kill-during-flush was not injected (flush succeeded)"
            )
        except (ChaosError, ReproError):
            pass
        finally:
            writer.store.append = real_append
        # What a reader could durably see the instant after the kill.
        pre_answers = canonical_query_answers(
            QueryEngine(segment_dir).refresh()
        )
        service.stop(timeout=30.0)  # the dead process's teardown

        # Recovery into a fresh process.
        fresh = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2, segment_dir=segment_dir),
            resilience=resilience,
        )
        try:
            fresh.recover(resilience.checkpoint_dir)
        except CheckpointError as exc:
            fresh.start()
            fresh.stop(timeout=10.0)
            return [f"recover() found no valid checkpoint: {exc}"]
        post_answers = canonical_query_answers(fresh.query())
        failures.extend(
            f"fsync'd segment dropped across recovery: {f}"
            for f in query_equivalence_failures(pre_answers, post_answers)
        )
        # The reconciled baseline must treat the orphan segment's counts
        # as already-emitted: another flush may not re-emit them.
        fresh.start()
        fresh.flush_segments()
        fresh.stop(timeout=10.0)
        flushed_answers = canonical_query_answers(
            QueryEngine(segment_dir).refresh()
        )
        failures.extend(
            f"fsync'd segment double-counted by post-recovery flush: {f}"
            for f in query_equivalence_failures(pre_answers, flushed_answers)
        )
    return failures


def kill_during_compaction_failures(
    seed: int = 0, observations: int = 32
) -> List[str]:
    """Chaos oracle: SIGKILL at *every byte* of a generation swap.

    Builds a store of several delta segments, then sweeps the crash
    point across every durable record the compactor writes (retired
    sidecar lines, intent-journal records, merged-segment lines, the
    manifest commit), with an age-based retention cap armed so the swap
    also deletes history. After each crash a fresh compactor — the
    restarted process — recovers, and two invariants are asserted at
    every point:

    * **all-or-nothing**: the durable answers are byte-identical either
      to the pre-swap store (the journal rolled the swap back) or to a
      clean uninterrupted swap's result (it rolled forward) — never a
      mix of generations;
    * **retained-row conservation**: live samples plus the retired
      sidecar's deleted totals equal every sample ever flushed, so
      retention deletes are counted, never silent.

    Returns a list of failure strings (empty = the invariants held).
    """
    import shutil

    from repro.check.fuzz import generate_case
    from repro.check.oracle import (
        _collect_observations,
        canonical_query_answers,
        query_equivalence_failures,
    )
    from repro.query.compact import (
        CompactionPolicy,
        Compactor,
        RetentionPolicy,
    )
    from repro.query.engine import QueryEngine
    from repro.query.manifest import SegmentStore
    from repro.runtime.plan import build_plan_from_graph
    from repro.service.batch import SampleBatch
    from repro.service.service import ContextService, ServiceConfig

    case = generate_case(seed)
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return []  # this seed's graph does not fit; nothing to test
    rng = random.Random(seed ^ 0xC09A)
    obs_list = _collect_observations(plan, rng, observations)
    if len(obs_list) < 4:
        return []
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-killcompact-") as tmp:
        segment_dir = os.path.join(tmp, "segments")
        service = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2, segment_dir=segment_dir),
        ).start()
        # Four delta segments with distinct windows, so the swap has
        # real spans to merge and retention has an oldest span to drop.
        quarter = max(1, len(obs_list) // 4)
        for lo in range(0, len(obs_list), quarter):
            service.submit_batch(
                SampleBatch.from_observations(
                    obs_list[lo : lo + quarter], epoch=service.epoch
                )
            )
            service.flush(timeout=30.0)
            time.sleep(0.002)  # keep the four windows disjoint
            service.flush_segments()
        service.stop(timeout=30.0)

        def store_totals(store: SegmentStore) -> Tuple[int, int]:
            store.refresh()
            live = sum(seg.samples for seg in store.segments())
            retired = sum(
                count for count, _gaps in store.retired_totals().values()
            )
            return live, retired

        base = SegmentStore(segment_dir)
        live0, retired0 = store_totals(base)
        total_samples = live0 + retired0
        segs = sorted(base.segments(), key=lambda s: s.t_lo)
        if len(segs) < 2:
            return []  # degenerate seed: nothing to compact
        now = max(s.t_hi for s in segs) + 1.0
        # Age the oldest span out: cutoff lands just past the oldest
        # segment's t_hi, so the swap both merges and deletes.
        retention = RetentionPolicy(max_age_s=now - segs[0].t_hi - 1e-6)
        policy = CompactionPolicy(min_inputs=2, retention=retention)

        # A clean uninterrupted swap on a copy of the directory: the
        # roll-forward target every crashed swap must converge to.
        clean_dir = os.path.join(tmp, "clean")
        shutil.copytree(segment_dir, clean_dir)
        Compactor(SegmentStore(clean_dir), policy).compact(
            now=now, force=True
        )
        post_answers = canonical_query_answers(QueryEngine(clean_dir).refresh())
        pre_answers = canonical_query_answers(
            QueryEngine(segment_dir).refresh()
        )

        def crash_after(k: int) -> Callable[[int], None]:
            def hook(records: int) -> None:
                if records > k:
                    raise ChaosError(
                        f"chaos: compaction crash after {records} record(s)"
                    )

            return hook

        for point in range(256):  # far past any real record count
            compactor = Compactor(SegmentStore(segment_dir), policy)
            try:
                compactor.compact(now=now, fault=crash_after(point), force=True)
                crashed = False
            except ChaosError:
                crashed = True
            # The restarted process: a fresh compactor resolves any
            # half-done swap before anything reads the directory.
            recovered = Compactor(SegmentStore(segment_dir), policy)
            recovered.recover(now=now)
            live, retired = store_totals(recovered.store)
            if live + retired != total_samples:
                failures.append(
                    f"crash point {point}: retention leak — live {live} + "
                    f"retired {retired} != flushed {total_samples}"
                )
                break
            answers = canonical_query_answers(
                QueryEngine(segment_dir).refresh()
            )
            if query_equivalence_failures(
                pre_answers, answers
            ) and query_equivalence_failures(post_answers, answers):
                failures.append(
                    f"crash point {point}: recovered answers match neither "
                    f"the old generation nor the new one"
                )
                break
            if not crashed:
                break
        else:
            failures.append("compaction crash sweep never completed a swap")
        if not failures:
            final = canonical_query_answers(QueryEngine(segment_dir).refresh())
            failures.extend(
                f"completed swap diverged from the clean swap: {f}"
                for f in query_equivalence_failures(post_answers, final)
            )
    return failures


def run_chaos(
    iterations: int = 25,
    seed: int = 0,
    *,
    worker_kill_rate: float = 0.02,
    slow_consumer_rate: float = 0.02,
    decode_fault_rate: float = 0.05,
    checkpoint_crash_rate: float = 0.3,
    compaction_crash_rate: float = 0.25,
    observations: int = 40,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run ``iterations`` seeded chaos scenarios; see the module docs."""
    # Imported lazily: repro.check imports the service layer, and the
    # service layer imports this package — the laziness breaks the cycle.
    from repro.check.fuzz import generate_case
    from repro.check.oracle import _collect_observations
    from repro.resilience import ResilienceConfig
    from repro.service.service import ContextService, ServiceConfig
    from repro.runtime.plan import build_plan_from_graph

    report = ChaosReport()
    start = time.perf_counter()
    with obs.span("resilience.chaos_run", iterations=iterations, seed=seed):
        for i in range(iterations):
            case_seed = seed + i
            case = generate_case(case_seed)
            try:
                plan = build_plan_from_graph(case.graph, width=case.width)
            except EncodingOverflowError:
                report.skipped += 1
                continue
            report.iterations += 1
            rng = random.Random(case_seed ^ 0xC4A05)
            obs_list = _collect_observations(plan, rng, observations)
            chaos_cfg = ChaosConfig(
                seed=case_seed,
                worker_kill_rate=worker_kill_rate,
                slow_consumer_rate=slow_consumer_rate,
                decode_fault_rate=decode_fault_rate,
                checkpoint_crash_rate=checkpoint_crash_rate,
                compaction_crash_rate=compaction_crash_rate,
            )
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                resilience = ResilienceConfig(
                    heartbeat_interval=0.002,
                    max_restarts=64,
                    restart_backoff=0.001,
                    restart_backoff_max=0.01,
                    retry_backoff=0.0002,
                    retry_backoff_max=0.002,
                    breaker_cooldown=0.01,
                    breaker_min_volume=8,
                    checkpoint_dir=tmp,
                    checkpoint_on_stop=False,
                    seed=case_seed,
                )
                failures = _chaos_iteration(
                    ContextService,
                    ServiceConfig,
                    plan,
                    obs_list,
                    resilience,
                    chaos_cfg,
                    report,
                )
            if failures:
                report.failures.extend(
                    f"iteration {i} (seed={case_seed}, "
                    f"{case.label}): {f}"
                    for f in failures
                )
                if log:
                    log(f"FAIL iteration {i} seed={case_seed}: {failures[0]}")
            elif log and i % 10 == 0:
                log(f"iteration {i} ok ({case.label}, seed={case_seed})")
        # Targeted scenario: the crash window inside flush_segments().
        for i in range(min(2, max(1, iterations // 8))):
            case_seed = seed + 7919 * (i + 1)
            kill_failures = kill_during_flush_failures(
                case_seed, observations=observations
            )
            report.query_checks += 1
            if kill_failures:
                report.failures.extend(
                    f"kill-during-flush (seed={case_seed}): {f}"
                    for f in kill_failures
                )
                if log:
                    log(
                        f"FAIL kill-during-flush seed={case_seed}: "
                        f"{kill_failures[0]}"
                    )
        # Targeted scenario: SIGKILL at every byte of a generation swap.
        for i in range(min(2, max(1, iterations // 8))):
            case_seed = seed + 6959 * (i + 1)
            compact_failures = kill_during_compaction_failures(
                case_seed, observations=observations
            )
            report.query_checks += 1
            if compact_failures:
                report.failures.extend(
                    f"kill-during-compaction (seed={case_seed}): {f}"
                    for f in compact_failures
                )
                if log:
                    log(
                        f"FAIL kill-during-compaction seed={case_seed}: "
                        f"{compact_failures[0]}"
                    )
    report.elapsed_s = time.perf_counter() - start
    return report


def _chaos_iteration(
    ContextService,
    ServiceConfig,
    plan,
    obs_list,
    resilience,
    chaos_cfg: ChaosConfig,
    report: ChaosReport,
) -> List[str]:
    """One flood → flush → checkpoint → crash → recover cycle."""
    from repro.check.oracle import (
        canonical_query_answers,
        query_equivalence_failures,
    )
    from repro.service.batch import SampleBatch

    failures: List[str] = []
    injector = ChaosInjector(chaos_cfg)
    segment_dir = os.path.join(resilience.checkpoint_dir, "segments")
    service = ContextService(
        plan,
        ServiceConfig(
            workers=2,
            shards=4,
            queue_capacity=64,
            batch_size=8,
            backpressure="drop-newest",
            segment_dir=segment_dir,
        ),
        resilience=resilience,
        chaos=injector,
    )
    service.start()
    checkpoint_counts: Optional[Dict[Tuple[str, ...], int]] = None
    pre_answers: Optional[bytes] = None

    def flush_segments_retried() -> None:
        # Same discipline as checkpoints below: injected write crashes
        # are retried (MAX_ARMED_STREAK < 12 guarantees an attempt
        # without a crash hook), a refusal is a failure. The writer's
        # baseline only advances on success, so a retried flush
        # re-covers the exact same delta.
        for _ in range(12):
            try:
                service.flush_segments()
                return
            except ChaosError:
                continue
        failures.append("segment flush crashed 12 times in a row")

    try:
        midpoint = len(obs_list) // 2
        epoch = service.engine.epoch_of(plan)
        for start, end in ((0, midpoint), (midpoint, len(obs_list))):
            if start:
                # Mid-flood drain + flush: the store ends the iteration
                # with multiple segments, so windowed queries cross real
                # segment boundaries and the compaction below has an
                # actual multi-segment swap to crash into.
                try:
                    service.flush(timeout=30.0)
                except ReproError as exc:
                    failures.append(f"mid-flood flush failed: {exc}")
                flush_segments_retried()
            for lo in range(start, end, 8):
                service.submit_batch(SampleBatch.from_observations(
                    obs_list[lo:min(lo + 8, end)], epoch=epoch
                ))
        try:
            service.flush(timeout=30.0)
        except ReproError as exc:
            failures.append(f"flush failed under chaos: {exc}")
        flush_segments_retried()

        # Mid-life compaction: swap the delta segments for one
        # cumulative generation while the store is live. Injected
        # crashes tear the swap at a seeded record; the next attempt's
        # recover() rolls the half-done generation forward or back.
        # Retention is off in iterations, so whatever happens — clean
        # swap, torn swap, rolled-back swap — the durable answers must
        # not move by a byte.
        pre_compact = canonical_query_answers(service.query())
        compacted = False
        for _ in range(12):
            try:
                service.compact_segments(force=True)
                compacted = True
                break
            except ChaosError:
                continue
        if not compacted:
            failures.append("compaction crashed 12 times in a row")
        post_compact = canonical_query_answers(service.query())
        failures.extend(
            f"compaction moved durable answers: {f}"
            for f in query_equivalence_failures(pre_compact, post_compact)
        )
        report.query_checks += 1

        # Durable snapshot — retried past injected write crashes, like a
        # checkpoint daemon would keep trying. At least one attempt runs
        # without a crash hook: the injector never arms more than
        # MAX_ARMED_STREAK hooks of one kind in a row.
        for _ in range(12):
            try:
                service.checkpoint()
                checkpoint_counts = _tree_counts(service)
                break
            except ChaosError:
                continue
            except CheckpointError as exc:
                failures.append(f"checkpoint refused: {exc}")
                break

        failures.extend(conservation_failures(service))
        pre_crash_counts = _tree_counts(service)
        # Pre-crash durable answers. stop() below deliberately does NOT
        # flush segments (it is the simulated crash); whatever the tree
        # aggregated after the last explicit flush is allowed to die
        # with the process — the *flushed* answers must survive it
        # byte-for-byte.
        pre_answers = canonical_query_answers(service.query())
    finally:
        # The "crash": no final checkpoint (checkpoint_on_stop=False),
        # just tear the process-model down.
        stopped_clean = service.stop(timeout=30.0)
    if not stopped_clean:
        failures.append("stop(drain=True) reported an un-drained shutdown")
    failures.extend(conservation_failures(service))
    snap = service.resilience_stats()
    report.restarts += snap["supervisor"]["restarts"] if snap.get(
        "supervisor"
    ) else 0
    for key, value in injector.tallies().items():
        report.injected[key] = report.injected.get(key, 0) + value

    if checkpoint_counts is None:
        return failures  # no durable snapshot: nothing to recover

    # Recovery into a fresh service (the restarted process).
    fresh = ContextService(
        plan,
        ServiceConfig(
            workers=1,
            shards=2,
            queue_capacity=16,
            batch_size=4,
            segment_dir=segment_dir,
        ),
        resilience=resilience,
    )
    try:
        try:
            fresh.recover(resilience.checkpoint_dir)
            report.recoveries += 1
        except CheckpointError as exc:
            failures.append(f"recover() found no valid checkpoint: {exc}")
            return failures
        failures.extend(
            recovery_failures(
                _tree_counts(fresh), checkpoint_counts, pre_crash_counts
            )
        )
        if pre_answers is not None:
            post_answers = canonical_query_answers(fresh.query())
            failures.extend(
                query_equivalence_failures(pre_answers, post_answers)
            )
            report.query_checks += 1
    finally:
        fresh.start()
        fresh.stop(timeout=10.0)
    return failures
