"""Runtime invariant probes and service fault injection.

:class:`CheckedProbe` wraps a :class:`~repro.runtime.agent.DeltaPathProbe`
and re-asserts the paper's runtime invariants after every probe
operation:

* the current encoding ID is non-negative and fits the plan's width;
* at every instrumented function entry the ID stays inside the
  encoding space — ``0 <= ID < ICC[n]`` relative to the governing
  anchor (paper Figure 2's disjoint-sub-range invariant);
* the anchor stack is well-formed: ANCHOR entries name real anchors,
  RECURSION entries carry their call site, saved IDs are non-negative
  and fit the width;
* every snapshot hands out the interned stack: the tuple equals the
  live stack, it is the probe's table entry for ``stack_key``, and the
  key's ``(depth, UCPs)`` stats match the stack.

The wrapper forwards ``stack_key``, ``stack_table`` and ``stack_stats``,
so a :class:`~repro.runtime.collector.ContextCollector` records a
checked probe through the same integer path as the bare one.

Violations are collected (and optionally raised) as
:class:`InvariantViolation` — an invariant breach is a bug in the
encoder or the agent, never in the workload.

:func:`service_fault_scenario` is the service-path fault injection the
harness drives: a tiny bounded ingestion queue that overflows while a
hot swap lands mid-stream, checking that the accounting conservation law
``submitted == aggregated + dead_lettered + epoch_mismatches + dropped +
fallback_dropped + fallback_pending`` survives and that no sample
decodes under the wrong epoch. :func:`resilient_fault_scenario` re-runs
ingestion under injected chaos (worker kills, decode storms) with the
full supervision stack armed, and :func:`checkpoint_recovery_scenario`
crashes checkpoint writes, plants torn/corrupt files, and asserts that
recovery replays exactly the newest valid snapshot with no phantom
contexts.
"""

from __future__ import annotations

import random
import tempfile
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.stackmodel import EntryKind
from repro.errors import ReproError
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import DeltaPathPlan, PlanUpdate
from repro.runtime.probes import Probe

__all__ = [
    "InvariantViolation",
    "CheckedProbe",
    "service_fault_scenario",
    "batch_equivalence_scenario",
    "resilient_fault_scenario",
    "multiprocess_conservation_scenario",
    "checkpoint_recovery_scenario",
]


class InvariantViolation(ReproError):
    """A runtime encoding invariant did not hold."""


class CheckedProbe(Probe):
    """Delegating probe wrapper that asserts encoding invariants.

    ``strict=True`` raises on the first violation; otherwise violations
    accumulate in :attr:`violations` for the caller to inspect.
    """

    name = "checked"

    def __init__(self, inner: DeltaPathProbe, strict: bool = False):
        self.inner = inner
        self.strict = strict
        self.violations: List[str] = []
        self.checks = 0

    # ------------------------------------------------------------------
    # Delegated hooks, each followed by an invariant sweep
    # ------------------------------------------------------------------
    def begin_execution(self, entry: str) -> None:
        self.inner.begin_execution(entry)
        self._sweep(f"begin_execution({entry})")

    def before_call(self, caller: str, label: Hashable, callee: str) -> None:
        self.inner.before_call(caller, label, callee)
        self._sweep(f"before_call({caller}@{label}->{callee})")

    def enter_function(self, node: str) -> None:
        self._check_entry_bound(node)
        self.inner.enter_function(node)
        self._sweep(f"enter_function({node})")

    def exit_function(self, node: str) -> None:
        self.inner.exit_function(node)
        self._sweep(f"exit_function({node})")

    def after_call(self, caller: str, label: Hashable, callee: str) -> None:
        self.inner.after_call(caller, label, callee)
        self._sweep(f"after_call({caller}@{label})")

    def snapshot(self, node: str):
        snap = self.inner.snapshot(node)
        self._check_interned(node, snap[0])
        return snap

    def end_execution(self) -> None:
        self.inner.end_execution()
        self._sweep("end_execution")

    def hot_swap(self, update: PlanUpdate, at_node: str) -> None:
        self.inner.hot_swap(update, at_node)
        self._sweep(f"hot_swap(@{at_node})")

    @property
    def plan(self) -> DeltaPathPlan:
        return self.inner.plan

    @property
    def stack_key(self) -> int:
        return self.inner.stack_key

    @property
    def stack_table(self):
        return self.inner.stack_table

    @property
    def stack_stats(self):
        return self.inner.stack_stats

    # ------------------------------------------------------------------
    # The invariants
    # ------------------------------------------------------------------
    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    def _sweep(self, where: str) -> None:
        self.checks += 1
        probe = self.inner
        encoding = probe.plan.encoding
        if probe._id < 0:
            self._violate(f"{where}: negative encoding ID {probe._id}")
        if not encoding.width.fits(probe._id):
            self._violate(
                f"{where}: ID {probe._id} exceeds width {encoding.width}"
            )
        for depth, entry in enumerate(probe._stack):
            if entry.saved_id < 0:
                self._violate(
                    f"{where}: stack[{depth}] saved_id {entry.saved_id} < 0"
                )
            if not encoding.width.fits(entry.saved_id):
                self._violate(
                    f"{where}: stack[{depth}] saved_id {entry.saved_id} "
                    f"exceeds width {encoding.width}"
                )
            if entry.kind is EntryKind.ANCHOR and not encoding.is_anchor(
                entry.node
            ):
                self._violate(
                    f"{where}: stack[{depth}] ANCHOR entry for non-anchor "
                    f"{entry.node!r}"
                )
            if entry.kind is EntryKind.RECURSION and entry.site is None:
                self._violate(
                    f"{where}: stack[{depth}] RECURSION entry without a "
                    f"call site"
                )

    def _check_interned(self, node: str, stack) -> None:
        """The snapshot's stack is the interned live stack."""
        probe = self.inner
        live = tuple(probe._stack)
        key = probe.stack_key
        if stack != live:
            self._violate(
                f"snapshot({node}): interned stack {stack!r} differs from "
                f"the live stack {live!r}"
            )
        if probe.stack_table[key] is not stack:
            self._violate(
                f"snapshot({node}): stack is not the table entry of key {key}"
            )
        ucps = sum(1 for entry in live if entry.kind is EntryKind.UCP)
        if probe.stack_stats[key] != (len(live), ucps):
            self._violate(
                f"snapshot({node}): stats {probe.stack_stats[key]} of key "
                f"{key} differ from (depth, UCPs) = {(len(live), ucps)}"
            )

    def _check_entry_bound(self, node: str) -> None:
        """``0 <= ID < ICC[n]`` at the moment ``node`` is entered.

        Checked *before* the inner probe runs its entry hook, so the ID
        still describes the piece ending at this entry. Only meaningful
        when the entry will not detect a UCP (a gap legitimately leaves
        the ID outside the piece's range — that is what the reset is
        for) and when the piece's governing anchor actually bounds the
        node (the key exists in the CAV table).
        """
        probe = self.inner
        plan = probe.plan
        info = plan.node_info.get(node)
        if info is None or not probe.cpt:
            return
        sid, _is_anchor = info
        if probe._expected_sid != sid:
            return  # UCP detection imminent: the reset handles it
        anchor = self._governing_anchor()
        if anchor is None:
            return
        encoding = plan.encoding
        limit = encoding.bound.get((node, anchor))
        if limit is not None and limit > 0 and not (
            0 <= probe._id < limit
        ):
            self._violate(
                f"enter_function({node}): ID {probe._id} outside "
                f"[0, ICC={limit}) relative to anchor {anchor!r}"
            )

    def _governing_anchor(self) -> Optional[str]:
        """Anchor whose territory bounds the current piece (decoder rule)."""
        probe = self.inner
        encoding = probe.plan.encoding
        if not probe._stack:
            return encoding.graph.entry
        start = probe._stack[-1].node
        if encoding.is_anchor(start):
            return start
        reaching = encoding.territories.node_anchors(start)
        return reaching[0] if reaching else None


# ----------------------------------------------------------------------
# Service fault injection
# ----------------------------------------------------------------------
def service_fault_scenario(
    plan: DeltaPathPlan,
    observations: Sequence[Tuple[str, tuple]],
    updates: Sequence[PlanUpdate] = (),
    post_swap: Sequence[Tuple[str, tuple]] = (),
    seed: int = 0,
    queue_capacity: int = 8,
    backpressure: str = "drop-newest",
) -> List[str]:
    """Overflow a tiny ingestion queue while hot swaps land mid-stream.

    ``observations`` are ``(node, snapshot)`` pairs captured under
    ``plan``; ``post_swap`` pairs were captured under the *last* plan of
    ``updates``. The queue is deliberately undersized and the
    backpressure policy lossy, so drops are expected — what must hold
    regardless is the accounting conservation law and epoch-correct
    decoding (zero decode errors: every submitted snapshot is valid
    under the epoch it was stamped with).

    Returns a list of failure descriptions (empty when all held).
    """
    from repro.service.batch import SampleBatch
    from repro.service.service import ContextService, ServiceConfig

    rng = random.Random(seed)
    failures: List[str] = []
    service = ContextService(
        plan,
        ServiceConfig(
            workers=1,
            shards=2,
            queue_capacity=queue_capacity,
            batch_size=4,
            backpressure=backpressure,
        ),
    )
    service.start()
    # Seeded batches of 1-4 samples, so the undersized queue overflows.
    state = {"batch": SampleBatch(), "size": rng.randint(1, 4)}

    def push(node: str, snap: tuple, stamp: DeltaPathPlan) -> None:
        batch = state["batch"]
        batch.append(node, snap, epoch=service.engine.epoch_of(stamp))
        if len(batch) >= state["size"]:
            service.submit_batch(batch)
            state["batch"] = SampleBatch()
            state["size"] = rng.randint(1, 4)

    try:
        pending = list(updates)
        swap_every = max(1, len(observations) // (len(pending) + 1))
        final_plan = updates[-1].plan if updates else plan
        for index, (node, snap) in enumerate(observations):
            # Observations were captured under the original plan and must
            # stay stamped with it — the service decodes each sample under
            # the epoch it carries, even after later swaps land.
            push(node, snap, plan)
            if pending and index % swap_every == swap_every - 1:
                if rng.random() < 0.5:
                    # Mid-epoch decode pressure: drain before the swap
                    # half the time, leave the queue full otherwise.
                    service.flush()
                service.install_update(pending.pop(0))
        while pending:
            service.install_update(pending.pop(0))
        for node, snap in post_swap:
            push(node, snap, final_plan)
        if len(state["batch"]):
            service.submit_batch(state["batch"])
        service.flush()
    finally:
        service.stop()

    metrics = service.service_metrics()
    accounting = service.accounting()
    submitted = metrics["submitted"]
    accounted = (
        accounting["aggregated"]
        + accounting["dead_lettered"]
        + accounting["epoch_mismatches"]
        + accounting["dropped"]
        + accounting["fallback_dropped"]
        + accounting["fallback_pending"]
    )
    if submitted != accounted:
        failures.append(
            f"service accounting leak: submitted={submitted} != "
            f"aggregated+dead_lettered+mismatches+dropped+fallback="
            f"{accounted} ({accounting!r})"
        )
    if metrics["decode_errors"]:
        failures.append(
            f"service decoded {metrics['decode_errors']} valid sample(s) "
            f"with errors: {metrics.get('recent_errors')}"
        )
    if metrics["epoch_mismatches"]:
        failures.append(
            f"service served {metrics['epoch_mismatches']} mixed-epoch "
            f"decode(s)"
        )
    if service.tree.total_samples != metrics["aggregated"]:
        failures.append(
            f"aggregated count {metrics['aggregated']} disagrees with "
            f"tree total {service.tree.total_samples}"
        )
    known_nodes = set(plan.graph.nodes)
    for update in updates:
        known_nodes.update(update.plan.graph.nodes)
    unknown = set(service.function_totals()) - known_nodes
    if unknown:
        failures.append(
            f"decoded functions outside every installed plan: "
            f"{sorted(unknown)[:5]}"
        )
    return failures


def batch_equivalence_scenario(
    plan: DeltaPathPlan,
    observations: Sequence[Tuple[str, tuple]],
    updates: Sequence[PlanUpdate] = (),
    post_swap: Sequence[Tuple[str, tuple]] = (),
    seed: int = 0,
    *,
    paths: Sequence[Sequence[str]],
) -> List[str]:
    """Ground-truth oracle: the batch path must count what was walked.

    ``paths`` holds the random walk's own node path (its shadow stack,
    root first) for each observation, then for each ``post_swap`` one.
    The stream goes through ``submit_batch`` on a lossless service with
    hot swaps landing *mid-batch*, so one batch carries samples stamped
    under two epochs. ``top_contexts``, inclusive and leaf-only
    ``function_totals`` and ``ucp_stats`` must equal a plain count of
    ``paths``, and every sample must be aggregated. Returns a list of
    failure descriptions (empty when all held).
    """
    from collections import Counter

    from repro.service.batch import SampleBatch
    from repro.service.service import ContextService, ServiceConfig

    rng = random.Random(seed)
    failures: List[str] = []
    expected = len(observations) + len(post_swap)
    if len(paths) != expected:
        return [f"{len(paths)} ground-truth paths for {expected} samples"]
    truth = Counter(tuple(path) for path in paths)

    service = ContextService(
        plan,
        ServiceConfig(
            workers=1,
            shards=2,
            queue_capacity=4096,
            batch_size=16,
            backpressure="block",
        ),
    )
    service.start()
    try:
        pending = list(updates)
        swap_every = max(1, len(observations) // (len(updates) + 1))
        final_plan = updates[-1].plan if updates else plan
        chunk = rng.randint(3, 9)
        # Swaps land while a batch is mid-fill, so epochs mix in-batch.
        buf = SampleBatch()
        for index, (node, snap) in enumerate(observations):
            buf.append(node, snap, epoch=service.engine.epoch_of(plan))
            if pending and index % swap_every == swap_every - 1:
                service.install_update(pending.pop(0))
            if len(buf) >= chunk:
                service.submit_batch(buf)
                buf = SampleBatch()
        while pending:
            service.install_update(pending.pop(0))
        for node, snap in post_swap:
            buf.append(
                node, snap, epoch=service.engine.epoch_of(final_plan)
            )
        if len(buf):
            service.submit_batch(buf)
        service.flush()

        acct = service.accounting()
        lost = any(acct[bucket] for bucket in (
            "dead_lettered", "epoch_mismatches", "dropped",
            "fallback_dropped", "fallback_pending",
        ))
        if lost or not acct["submitted"] == acct["aggregated"] == expected:
            failures.append(
                f"lossless config did not aggregate all {expected} walked "
                f"samples: {acct!r}"
            )
        inclusive: Counter = Counter()
        leaf: Counter = Counter()
        for path, count in truth.items():
            for name in set(path):
                inclusive[name] += count
            leaf[path[-1]] += count
        want_top = sorted(
            ((count, path) for path, count in truth.items()),
            key=lambda item: (-item[0], item[1]),
        )
        want_ucp = {
            "samples": expected, "gap_samples": 0,
            "gap_free_samples": expected,
        }
        for name, got, want in (
            ("top_contexts", service.top_contexts(expected + 1), want_top),
            ("function_totals", service.function_totals(), dict(inclusive)),
            ("leaf-only function_totals",
             service.function_totals(leaf_only=True), dict(leaf)),
            ("ucp_stats", service.ucp_stats(), want_ucp),
        ):
            if got != want:
                failures.append(
                    f"{name} diverged from the walk: got {got!r:.300}, "
                    f"want {want!r:.300}"
                )
    finally:
        service.stop()
    return failures


def resilient_fault_scenario(
    plan: DeltaPathPlan,
    observations: Sequence[Tuple[str, tuple]],
    seed: int = 0,
) -> List[str]:
    """Ingest under injected chaos with the full resilience stack armed.

    Workers are killed mid-drain, decodes fail transiently at a rate
    high enough to exercise retries (and occasionally the breaker), and
    the supervisor restarts what dies. What must hold at quiescence is
    the conservation law — every submitted sample aggregated,
    dead-lettered, policy-dropped, or retained raw — plus a truthful
    ``stop()``. Returns failure descriptions (empty when all held).
    """
    from repro.resilience import ResilienceConfig
    from repro.resilience.chaos import ChaosConfig, ChaosInjector
    from repro.resilience.chaos import conservation_failures
    from repro.service.batch import SampleBatch
    from repro.service.service import ContextService, ServiceConfig

    failures: List[str] = []
    injector = ChaosInjector(
        ChaosConfig(
            seed=seed,
            worker_kill_rate=0.1,
            slow_consumer_rate=0.05,
            slow_consumer_s=0.001,
            decode_fault_rate=0.1,
            checkpoint_crash_rate=0.0,
        )
    )
    resilience = ResilienceConfig(
        heartbeat_interval=0.002,
        max_restarts=64,
        restart_backoff=0.001,
        restart_backoff_max=0.01,
        retry_backoff=0.0002,
        retry_backoff_max=0.002,
        breaker_min_volume=8,
        breaker_cooldown=0.01,
        seed=seed,
    )
    service = ContextService(
        plan,
        ServiceConfig(
            workers=2,
            shards=4,
            queue_capacity=64,
            batch_size=8,
            backpressure="drop-newest",
        ),
        resilience=resilience,
        chaos=injector,
    )
    service.start()
    try:
        epoch = service.engine.epoch_of(plan)
        for lo in range(0, len(observations), 8):
            service.submit_batch(SampleBatch.from_observations(
                observations[lo:lo + 8], epoch=epoch
            ))
        try:
            service.flush(timeout=30.0)
        except ReproError as exc:
            failures.append(f"flush under chaos failed: {exc}")
    finally:
        if not service.stop(timeout=30.0):
            failures.append(
                "stop() reported unaccounted samples after chaos ingestion"
            )
    failures.extend(conservation_failures(service))
    return failures


def multiprocess_conservation_scenario(
    plan: DeltaPathPlan,
    observations: Sequence[Tuple[str, tuple]],
    seed: int = 0,
    workers: int = 2,
    kills: int = 1,
) -> List[str]:
    """SIGKILL real decode worker processes mid-stream and demand
    conservation.

    The decode fleet runs as ``workers`` separate processes fed over
    shared-memory lanes; a seeded schedule kills ``kills`` of them with
    SIGKILL between batches while the supervisor is armed. At
    quiescence the conservation law must hold exactly — samples lost
    inside a dead worker are charged to ``crash_lost`` (rolled into
    ``dead_lettered``), never silently vanished — and ``stop()`` must
    stay truthful. Returns failure descriptions (empty when all held).
    """
    import time

    from repro.resilience import ResilienceConfig
    from repro.service.batch import SampleBatch
    from repro.service.service import ContextService, ServiceConfig

    rng = random.Random(seed ^ 0x9C0C)
    failures: List[str] = []
    resilience = ResilienceConfig(
        supervise=True,
        heartbeat_interval=0.02,
        heartbeat_timeout=5.0,
        max_restarts=workers * 2,
        restart_backoff=0.001,
        restart_backoff_max=0.01,
        seed=seed,
    )
    service = ContextService(
        plan,
        ServiceConfig(worker_processes=workers, shards=workers * 2),
        resilience=resilience,
    )
    service.start()
    submitted = 0
    kills_landed = 0
    live_stats: dict = {}
    try:
        rounds = 5
        kill_rounds = set(
            rng.sample(range(1, rounds), min(kills, rounds - 1))
        )
        for round_no in range(rounds):
            batch = SampleBatch.from_observations(
                observations, epoch=service.epoch
            )
            service.submit_batch(batch)
            submitted += len(batch)
            if round_no in kill_rounds:
                if service._procs.kill_worker(
                    rng.randrange(workers)
                ) is not None:
                    kills_landed += 1
            time.sleep(0.02)
        deadline = time.monotonic() + 15.0
        while (
            time.monotonic() < deadline
            and service._procs.alive() < workers
        ):
            time.sleep(0.02)
        if service._procs.alive() < workers:
            failures.append(
                f"supervisor restored only {service._procs.alive()} of "
                f"{workers} workers after {kills_landed} kill(s)"
            )
        try:
            service.flush(timeout=30.0)
        except ReproError as exc:
            failures.append(f"flush after worker kill failed: {exc}")
        live_stats = service.resilience_stats()
    finally:
        if not service.stop(timeout=30.0):
            failures.append(
                "stop() reported unaccounted samples after worker kills"
            )
    acct = service.accounting()
    accounted = (
        acct["aggregated"]
        + acct["dead_lettered"]
        + acct["epoch_mismatches"]
        + acct["dropped"]
        + acct["fallback_dropped"]
        + acct["fallback_pending"]
    )
    if acct["submitted"] != submitted:
        failures.append(
            f"multiproc service lost track of submissions: counted "
            f"{acct['submitted']}, stream carried {submitted}"
        )
    if acct["submitted"] != accounted:
        failures.append(
            f"multiproc accounting leak: submitted={acct['submitted']} != "
            f"aggregated+dead_lettered+mismatches+dropped+fallback="
            f"{accounted} ({acct!r})"
        )
    if kills_landed:
        worker_restarts = sum(
            w.get("restarts", 0)
            for w in live_stats.get("workers", {}).get("workers", [])
        )
        if worker_restarts < kills_landed:
            failures.append(
                f"{kills_landed} worker(s) killed but only "
                f"{worker_restarts} restart(s) recorded"
            )
    return failures


def checkpoint_recovery_scenario(
    plan: DeltaPathPlan,
    observations: Sequence[Tuple[str, tuple]],
    seed: int = 0,
) -> List[str]:
    """Crash checkpoint writes, plant corrupt files, and recover.

    The scenario: ingest, checkpoint, then simulate the worst on-disk
    aftermath of a kill-9 — a write crashed mid-record (abandoned temp,
    never renamed), a *newer-named* checkpoint torn in half, and a
    garbage file. Recovery must replay exactly the newest *valid*
    snapshot: recovered counts equal the checkpointed counts and are a
    subset of the pre-crash tree (no phantom contexts, no inflation).
    """
    import os

    from repro.errors import ChaosError, CheckpointError
    from repro.resilience import ResilienceConfig
    from repro.resilience.chaos import _tree_counts, recovery_failures
    from repro.resilience.checkpoint import CheckpointState, CheckpointStore
    from repro.service.batch import SampleBatch
    from repro.service.service import ContextService, ServiceConfig

    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-check-") as tmp:
        resilience = ResilienceConfig(
            checkpoint_dir=tmp, checkpoint_on_stop=False, seed=seed
        )
        service = ContextService(
            plan,
            ServiceConfig(workers=2, shards=4, queue_capacity=256,
                          batch_size=16),
            resilience=resilience,
        )
        service.start()
        try:
            epoch = service.engine.epoch_of(plan)
            for lo in range(0, len(observations), 16):
                service.submit_batch(SampleBatch.from_observations(
                    observations[lo:lo + 16], epoch=epoch
                ))
            service.flush(timeout=30.0)
        finally:
            service.stop(timeout=30.0)

        good_path = service.checkpoint()
        checkpoint_counts = _tree_counts(service)
        pre_crash_counts = dict(checkpoint_counts)

        # A write that crashes mid-record must leave no checkpoint file
        # behind — only an abandoned temp that recovery ignores.
        store = CheckpointStore(tmp)

        def crash_after_two(records: int) -> None:
            if records >= 2:
                raise ChaosError("injected checkpoint-write crash")

        state = CheckpointState(
            epoch=service.epoch,
            fingerprint="doesnt-matter-never-lands",
            rows=tuple(service.tree.rows()),
        )
        try:
            store.write(state, fault=crash_after_two)
            failures.append("crashed checkpoint write reported success")
        except ChaosError:
            pass

        # A torn newer checkpoint (kill-9 mid-rename-window aftermath)
        # and a garbage file, both named to sort *newer* than the good
        # snapshot: recovery must reject both and fall back.
        with open(good_path, "rb") as fh:
            good_bytes = fh.read()
        torn = os.path.join(tmp, "ckpt-99999998.dpck")
        with open(torn, "wb") as fh:
            fh.write(good_bytes[: max(1, len(good_bytes) * 2 // 3)])
        garbage = os.path.join(tmp, "ckpt-99999999.dpck")
        with open(garbage, "wb") as fh:
            fh.write(b"\x00\xffthis was never a checkpoint\n")

        fresh = ContextService(
            plan,
            ServiceConfig(workers=1, shards=2, queue_capacity=16,
                          batch_size=4),
            resilience=resilience,
        )
        try:
            summary = fresh.recover(tmp)
        except CheckpointError as exc:
            failures.append(f"recovery found no valid checkpoint: {exc}")
            return failures
        if os.path.basename(summary["path"]) != os.path.basename(good_path):
            failures.append(
                f"recovery picked {summary['path']!r}, expected the "
                f"newest valid checkpoint {good_path!r}"
            )
        failures.extend(
            recovery_failures(
                _tree_counts(fresh), checkpoint_counts, pre_crash_counts
            )
        )
    return failures
