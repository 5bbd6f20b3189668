"""Multi-process decode scale-out: worker processes over shm batch lanes.

:class:`ProcessWorkerPool` runs N decode workers as real OS processes.
Each worker owns a disjoint set of contexts — ownership is by sampled
function name, routed with the stable :func:`~repro.service.batch.node_lane`
hash, so a given function's samples always decode on the same worker —
and is fed by its own :class:`~repro.service.shm.ShmLane` carrying DPSB
v1 records (``SampleBatch.to_bytes``).  Inside, each worker builds a
private single-process :class:`~repro.service.service.ContextService`
(tree, decode engine, dead-letter queue, optional per-worker segment
writer) and drives it synchronously, one record at a time, so its
status file is always exact about what has been accounted.

Parent/worker contract
----------------------
* **Status**: after every record the worker atomically rewrites a small
  JSON status file (generation, consumed samples, accounting buckets);
  every ``heavy_every`` records — and on sync, and at exit — it adds
  the heavy fields (tree rows, full registry snapshot).
* **Heartbeat**: the worker touches a heartbeat file each loop; the
  parent translates mtime *changes* into its own monotonic clock, so
  :class:`~repro.resilience.supervisor.Supervisor` sees thread-style
  heartbeats and needs no new logic for process stall detection.
* **Sync**: the parent bumps a generation counter in the lane header;
  the worker acknowledges in its status once it has drained the lane,
  checkpointed its shards (with a segment directory: flushed its
  segments and written a pointer into them), and written a heavy
  status.  ``flush()``/``checkpoint()``/query calls ride this.
* **Death**: the supervisor detects real process death (pid liveness)
  and calls :meth:`restart_worker` under its existing budgeted-holdoff
  discipline.  The parent *seals* the dead generation — its last
  status' accounting buckets keep counting, and any samples the lane
  recorded as consumed beyond what the status accounted are charged to
  ``crash_lost`` (merged into ``dead_lettered``, so the conservation
  law survives a SIGKILL).  The replacement process recovers its own
  newest checkpoint — with a segment directory, its tree is rebuilt
  from its own segments, which are its writer's baseline — so restarts
  neither double-count nor drop flushed samples.

A worker killed *inside* the lane's lock (a microseconds-wide memcpy
window) wedges the lane.  The supervisor still restarts the worker; the
restart path detects the wedged lock, rebuilds the lane, and charges the
stranded queued samples to ``crash_lost``.  Neither side waits on a
wedged lock for long (:class:`~repro.service.shm.LaneWedgedError`): a
live worker whose lane another process wedged exits, so the same pid
check restarts it; a submit releases the slot's guard so the restart
can run, and retries on the rebuilt lane until its deadline, past which
its part is counted dropped.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import IngestOverflowError, ServiceError
from repro.service.batch import SampleBatch
from repro.service.ingest import WorkerState
from repro.service.shm import LaneWedgedError

__all__ = ["ProcessWorkerPool", "WorkerSpec", "worker_paths"]

#: How long a submit with no timeout keeps retrying a wedged lane
#: before it counts its part dropped.
WEDGED_SUBMIT_S = 10.0

#: Accounting buckets merged across processes (the conservation law's
#: right-hand side, minus parent-owned ``submitted``/``dropped``).
MERGE_BUCKETS = (
    "aggregated",
    "dead_lettered",
    "epoch_mismatches",
    "fallback_dropped",
    "fallback_pending",
    "decode_errors",
    "recovered",
)


def worker_paths(root: str, slot: int) -> Dict[str, str]:
    """The per-slot file layout under the pool's root directory."""
    base = os.path.join(root, f"worker-{slot}")
    return {
        "base": base,
        "heartbeat": os.path.join(base, "heartbeat"),
        "status": os.path.join(base, "status.json"),
        "checkpoints": os.path.join(base, "checkpoints"),
    }


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, in picklable primitives."""

    slot: int
    generation: int
    lane_name: str
    parent_pid: int
    heartbeat_path: str
    status_path: str
    checkpoint_dir: str
    segment_dir: Optional[str]
    recover_own: bool
    shards: int
    piece_cache: int
    context_cache: int
    retain_epochs: Optional[int]
    store_compression: str
    flush_every: int = 8
    checkpoint_every: int = 16
    heavy_every: int = 8


def _atomic_write_json(path: str, payload: dict) -> None:
    """Temp + rename: readers see the old or the new status, never a
    torn one.  No fsync — status is advisory, atomicity is the contract."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_entry(spec: WorkerSpec, plan, lock) -> None:
    """Child-process main: pop DPSB records, decode, account, report."""
    # Fresh metric namespace: under fork the child inherits the parent's
    # registry *values*, which would double-count every pre-fork event
    # once snapshots are merged at scrape time.
    from repro import obs
    from repro.obs.registry import MetricsRegistry
    from repro.service.service import ContextService, ServiceConfig
    from repro.service.shm import ShmLane
    from repro.resilience.checkpoint import CheckpointStore

    obs.set_registry(MetricsRegistry("repro"))
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    lane = ShmLane.attach(spec.lane_name, lock)
    config = ServiceConfig(
        shards=spec.shards,
        workers=1,
        piece_cache=spec.piece_cache,
        context_cache=spec.context_cache,
        retain_epochs=spec.retain_epochs,
        store_compression=spec.store_compression,
        segment_dir=spec.segment_dir,
    )
    service = ContextService(plan, config)
    ckpt = CheckpointStore(spec.checkpoint_dir, retain=3)
    if spec.recover_own:
        try:
            service.recover(ckpt)
        except Exception:  # noqa: BLE001 - no checkpoint yet: start empty
            pass

    consumed = 0
    records = 0
    checkpoints = 0
    last_sync = 0
    status_seq = 0

    def light_status(extra: Optional[dict] = None) -> None:
        nonlocal status_seq
        status_seq += 1
        payload = {
            "slot": spec.slot,
            "generation": spec.generation,
            "pid": os.getpid(),
            "seq": status_seq,
            "sync": last_sync,
            "consumed": consumed,
            "accounting": service.accounting(),
            "ts": time.time(),
        }
        if extra:
            payload.update(extra)
        _atomic_write_json(spec.status_path, payload)

    def heavy_status() -> None:
        light_status({
            "rows": [
                [list(path), count, gaps, epoch]
                for path, count, gaps, epoch in service.tree.rows()
            ],
            "registry": obs.get_registry().snapshot(),
            "checkpoints": checkpoints,
            "segments": (
                service._segments.stats() if service._segments else None
            ),
        })

    def persist_shards() -> None:
        # With a segment directory: flush, then a pointer into it.
        nonlocal checkpoints
        try:
            service._checkpoint_into(ckpt)
            checkpoints += 1
        except Exception:  # noqa: BLE001 - counted; next cadence retries
            pass

    def heartbeat() -> None:
        try:
            os.utime(spec.heartbeat_path)
        except OSError:
            try:
                with open(spec.heartbeat_path, "a", encoding="utf-8"):
                    pass
            except OSError:  # pragma: no cover - torn-down root
                pass

    heartbeat()
    light_status()
    try:
        while True:
            try:
                got = lane.pop(timeout=0.05)
            except LaneWedgedError:
                # A process died holding the lane's lock. Exit, so the
                # supervisor's pid check restarts this slot and the
                # restart rebuilds the lane.
                raise SystemExit(1) from None
            heartbeat()
            if got is None:
                if lane.closed and not len(lane):
                    break
                if os.getppid() != spec.parent_pid:
                    break  # orphaned: the parent is gone
                sync = lane.sync_req
                if sync > last_sync and not len(lane):
                    persist_shards()
                    last_sync = sync
                    heavy_status()
                continue
            payload, samples = got
            records += 1
            consumed += samples
            service.metrics.count("submitted", samples)
            before = _accounted(service)
            try:
                batch = SampleBatch.from_bytes(payload)
                service._handle_items([batch])
            except Exception as exc:  # noqa: BLE001 - account the loss
                service.metrics.record_error(repr(exc))
                shortfall = samples - (_accounted(service) - before)
                if shortfall > 0:
                    service.metrics.count("dead_lettered", shortfall)
            if spec.checkpoint_every and records % spec.checkpoint_every == 0:
                persist_shards()
            elif (
                spec.flush_every
                and service._segments is not None
                and records % spec.flush_every == 0
            ):
                try:
                    service.flush_segments()
                except Exception:  # noqa: BLE001 - next cadence retries
                    pass
            if spec.heavy_every and records % spec.heavy_every == 0:
                heavy_status()
            else:
                light_status()
    finally:
        persist_shards()
        last_sync = lane.sync_req
        heavy_status()
        lane.detach()


def _accounted(service) -> int:
    """Samples the service has routed to a conservation bucket."""
    snap = service.metrics.snapshot()
    return (
        snap["aggregated"]
        + snap["dead_lettered"]
        + snap["epoch_mismatches"]
        + snap["fallback_retained"]
        + snap["fallback_dropped"]
    )


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
class _LaneDepth:
    """Duck-types the ``_queue`` surface the Supervisor consults."""

    def __init__(self, pool: "ProcessWorkerPool"):
        self._pool = pool

    def __len__(self) -> int:
        if self._pool._destroyed:
            return 0
        return sum(len(lane) for lane in self._pool._lanes)

    @property
    def dropped(self) -> int:
        return self._pool.lane_dropped()


class ProcessWorkerPool:
    """N decode worker processes behind shared-memory batch lanes.

    Duck-types the :class:`~repro.service.ingest.WorkerPool` surface the
    :class:`~repro.resilience.supervisor.Supervisor` drives —
    ``worker_states()``, ``restart_worker(slot)``, ``_queue`` — so
    process supervision reuses the thread supervisor unchanged.
    """

    def __init__(self, plan, config, root: Optional[str] = None):
        if config.worker_processes < 1:
            raise ServiceError("ProcessWorkerPool needs worker_processes >= 1")
        self._plan = plan
        self._config = config
        self.nworkers = config.worker_processes
        self._own_root = root is None and config.worker_dir is None
        self._root = (
            root
            or config.worker_dir
            or tempfile.mkdtemp(prefix="repro-workers-")
        )
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        from repro.service.shm import ShmLane

        self._lane_cls = ShmLane
        self._lanes: List = []
        self._guards = [threading.RLock() for _ in range(self.nworkers)]
        self._slots: List[dict] = []
        for slot in range(self.nworkers):
            paths = worker_paths(self._root, slot)
            os.makedirs(paths["base"], exist_ok=True)
            os.makedirs(paths["checkpoints"], exist_ok=True)
            self._lanes.append(
                ShmLane(
                    config.lane_slots, config.lane_slot_bytes,
                    lock=self._ctx.Lock(),
                )
            )
            self._slots.append({
                "paths": paths,
                "proc": None,
                "generation": -1,
                "sealed_gen": -1,
                "sealed": {bucket: 0 for bucket in MERGE_BUCKETS},
                "sealed_registries": [],
                "sealed_rows": [],
                "accounted_consumed": 0,
                "crash_lost": 0,
                "restarts": 0,
                "parent_drained": 0,
                "lane_base": {"consumed": 0, "dropped": 0},
                "hb_mtime_ns": -1,
                "hb_time": time.monotonic(),
                # Latest heavy fields seen for the current generation —
                # light statuses overwrite the file without them, so the
                # parent keeps the last heavy view per generation.
                "cached_rows": None,
                "cached_rows_gen": -1,
                "cached_registry": None,
                "cached_registry_gen": -1,
            })
        self._queue = _LaneDepth(self)
        self._started = False
        self._closed = False
        self._destroyed = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ProcessWorkerPool":
        if self._started:
            return self
        self._started = True
        for slot in range(self.nworkers):
            self._spawn(slot, recover_own=False)
        return self

    def _spawn(self, slot: int, recover_own: bool) -> None:
        st = self._slots[slot]
        st["generation"] += 1
        paths = st["paths"]
        segment_dir = None
        if self._config.segment_dir:
            segment_dir = os.path.join(
                self._config.segment_dir, f"worker-{slot}"
            )
        spec = WorkerSpec(
            slot=slot,
            generation=st["generation"],
            lane_name=self._lanes[slot].name,
            parent_pid=os.getpid(),
            heartbeat_path=paths["heartbeat"],
            status_path=paths["status"],
            checkpoint_dir=paths["checkpoints"],
            segment_dir=segment_dir,
            recover_own=recover_own,
            shards=self._config.shards,
            piece_cache=self._config.piece_cache,
            context_cache=self._config.context_cache,
            retain_epochs=self._config.retain_epochs,
            store_compression=self._config.store_compression,
        )
        with open(paths["heartbeat"], "a", encoding="utf-8"):
            pass
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(spec, self._plan, self._lanes[slot]._lock),
            daemon=True,
            name=f"repro-decode-{slot}",
        )
        proc.start()
        st["proc"] = proc
        st["hb_mtime_ns"] = -1
        st["hb_time"] = time.monotonic()

    # -- ingest ---------------------------------------------------------
    def submit(
        self, batch: SampleBatch, timeout: Optional[float] = None
    ) -> int:
        """Route a batch across the lanes; returns accepted samples.

        Every sample lands in exactly one bucket: pushed (accepted) or
        counted dropped by its lane — whole-batch-per-lane accounting,
        same conservation shape as ``BoundedQueue.put``. Under
        ``backpressure="error"`` a full lane counts its part dropped and
        the other parts are still pushed; the first overflow is raised
        once every part has landed.

        A wedged lane (its consumer died holding the lock) is retried,
        with the slot's guard released between attempts so the
        supervisor can rebuild it, until ``timeout`` (or
        :data:`WEDGED_SUBMIT_S`) runs out; then what is left of the part
        counts dropped.
        """
        if self._closed:
            return 0
        deadline = time.monotonic() + (
            WEDGED_SUBMIT_S if timeout is None else timeout
        )
        accepted = 0
        overflows: List[IngestOverflowError] = []
        capacity = self._lanes[0].capacity_bytes
        for slot, part in enumerate(batch.split_by_node(self.nworkers)):
            if not len(part):
                continue
            records = self._records(part, capacity)
            while records:
                with self._guards[slot]:
                    lane = self._lanes[slot]
                    try:
                        while records:
                            payload, samples = records[0]
                            accepted += self._push(
                                lane, payload, samples, timeout, overflows
                            )
                            records.pop(0)
                    except LaneWedgedError:
                        if time.monotonic() >= deadline:
                            self._slots[slot]["lane_base"]["dropped"] += sum(
                                samples for _payload, samples in records
                            )
                            records = []
                if records:
                    time.sleep(0.01)
        if overflows:
            raise overflows[0]
        return accepted

    def _records(self, part: SampleBatch, capacity: int) -> List[tuple]:
        """``part`` as ``(payload, samples)`` DPSB records that each fit
        a lane slot, halving it as needed; a lone sample too large for
        any slot is ``(None, 1)``."""
        payload = part.to_bytes()
        if len(payload) <= capacity or len(part) <= 1:
            return [(payload if len(payload) <= capacity else None, len(part))]
        rows = list(part)
        half = len(rows) // 2
        return self._records(
            SampleBatch.from_samples(rows[:half]), capacity
        ) + self._records(SampleBatch.from_samples(rows[half:]), capacity)

    def _push(self, lane, payload, samples: int, timeout, overflows) -> int:
        if payload is None:
            lane.count_dropped(samples)
            return 0
        try:
            pushed = lane.push(
                payload, samples,
                policy=self._config.backpressure, timeout=timeout,
                on_closed="drop",
            )
        except IngestOverflowError as exc:
            # The lane counted the part dropped before raising.
            overflows.append(exc)
            return 0
        return samples if pushed else 0

    # -- supervisor surface --------------------------------------------
    def worker_states(self) -> List[WorkerState]:
        now = time.monotonic()
        states = []
        for slot, st in enumerate(self._slots):
            proc = st["proc"]
            alive = proc is not None and proc.is_alive()
            exited = proc is not None and proc.exitcode == 0
            try:
                mtime = os.stat(st["paths"]["heartbeat"]).st_mtime_ns
            except OSError:
                mtime = st["hb_mtime_ns"]
            if mtime != st["hb_mtime_ns"]:
                st["hb_mtime_ns"] = mtime
                st["hb_time"] = now
            states.append(
                WorkerState(
                    slot=slot, alive=alive, exited=exited,
                    heartbeat=st["hb_time"],
                )
            )
        return states

    def restart_worker(self, slot: int) -> bool:
        """Seal the dead generation, heal the lane, spawn a successor.

        Returns True when a replacement was spawned (the Supervisor
        charges its restart budget on a truthy return).  A live process
        is terminated first — restart means replace, whether the slot
        died or merely wedged.
        """
        if self._closed:
            return False
        with self._guards[slot]:
            st = self._slots[slot]
            proc = st["proc"]
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.kill()
                    proc.join(timeout=5.0)
            self._seal(slot)
            lane = self._lanes[slot]
            if not self._lane_usable(lane):
                self._rebuild_lane(slot)
            st["restarts"] += 1
            self._spawn(slot, recover_own=True)
            return True

    def kill_worker(self, slot: int) -> Optional[int]:
        """SIGKILL one worker (chaos harness); returns the dead pid."""
        proc = self._slots[slot]["proc"]
        if proc is None or not proc.is_alive() or proc.pid is None:
            return None
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10.0)
        return proc.pid

    def _lane_usable(self, lane) -> bool:
        got = lane._lock.acquire(timeout=0.25)
        if got:
            lane._lock.release()
        return got

    def _rebuild_lane(self, slot: int) -> None:
        """Replace a lane wedged by a worker killed inside its lock."""
        st = self._slots[slot]
        old = self._lanes[slot]
        stranded = old.queued_samples  # dead consumer: reads are stable
        st["crash_lost"] += stranded
        st["accounted_consumed"] += stranded
        st["lane_base"]["consumed"] += old.consumed_samples + stranded
        st["lane_base"]["dropped"] += old.dropped
        self._lanes[slot] = self._lane_cls(
            self._config.lane_slots, self._config.lane_slot_bytes,
            lock=self._ctx.Lock(),
        )
        if self._closed:
            self._lanes[slot].close()
        old.destroy()

    def _seal(self, slot: int) -> None:
        """Fold a dead generation's final accounting into the slot.

        Idempotent per generation.  Charges lane-consumed samples the
        status never accounted to ``crash_lost`` — the SIGKILL window
        between popping a record and accounting it.
        """
        st = self._slots[slot]
        gen = st["generation"]
        if st["sealed_gen"] >= gen:
            return
        st["sealed_gen"] = gen
        status = _read_json(st["paths"]["status"]) or {}
        if status.get("generation") == gen:
            for bucket in MERGE_BUCKETS:
                st["sealed"][bucket] += status.get("accounting", {}).get(
                    bucket, 0
                )
            st["accounted_consumed"] += status.get("consumed", 0)
            registry = status.get("registry") or (
                st["cached_registry"]
                if st["cached_registry_gen"] == gen else None
            )
            if registry:
                st["sealed_registries"].append(registry)
            rows = status.get("rows")
            if rows is None and st["cached_rows_gen"] == gen:
                rows = st["cached_rows"]
            if rows is not None:
                # Rows are cumulative per generation (a successor
                # recovers its predecessor's checkpoint), so the latest
                # sealed generation's rows replace, not extend.
                st["sealed_rows"] = rows
        lane_consumed = (
            st["lane_base"]["consumed"]
            + self._lanes[slot].consumed_samples
            - st["parent_drained"]
        )
        lost = lane_consumed - st["accounted_consumed"]
        if lost > 0:
            st["crash_lost"] += lost
            st["accounted_consumed"] += lost

    # -- sync / flush ---------------------------------------------------
    def sync(self, timeout: float = 10.0) -> bool:
        """Drain every lane and get a fresh heavy status from each
        live worker (each checkpoints + flushes segments on the way).

        Dead-and-not-yet-restarted workers are sealed and skipped —
        their loss is already accounted, waiting on them would be
        waiting on a corpse.  A lane rebuilt meanwhile, or wedged when
        asked, is asked again.  Returns False on timeout.
        """
        goals: List[tuple] = [(None, 0)] * self.nworkers
        deadline = time.monotonic() + timeout
        while True:
            pending = False
            for slot, st in enumerate(self._slots):
                proc = st["proc"]
                if proc is None or not proc.is_alive():
                    self._seal(slot)
                    continue
                lane = self._lanes[slot]
                if goals[slot][0] is not lane:
                    goals[slot] = (lane, self._request_sync(lane))
                goal = goals[slot][1]
                if goal is None:
                    goals[slot] = (None, 0)  # wedged when asked: ask again
                if goal is None or len(lane):
                    pending = True
                    continue
                status = _read_json(st["paths"]["status"]) or {}
                if (
                    status.get("generation") != st["generation"]
                    or status.get("sync", 0) < goal
                ):
                    pending = True
            if not pending:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.003)

    @staticmethod
    def _request_sync(lane) -> Optional[int]:
        try:
            return lane.request_sync()
        except LaneWedgedError:
            return None

    def flush(self, timeout: float = 30.0) -> bool:
        return self.sync(timeout=timeout)

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        for lane in self._lanes:
            # A worker SIGKILLed inside its lane's lock leaves that lock
            # held for good, and nothing consumes the lane any more:
            # skip it rather than block shutdown on it
            # (:meth:`drain_leftovers` rebuilds a wedged lane).
            try:
                lane.close()
            except LaneWedgedError:
                pass

    def join(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        for st in self._slots:
            proc = st["proc"]
            if proc is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            proc.join(timeout=remaining)

    def alive(self) -> int:
        return sum(
            1 for st in self._slots
            if st["proc"] is not None and st["proc"].is_alive()
        )

    def stop(
        self, drain: bool = True, timeout: float = 30.0
    ) -> List[SampleBatch]:
        """Close lanes, stop workers, seal accounting.

        Returns the leftover records (as batches) of lanes whose worker
        died before draining them — the caller re-ingests or retains
        them so they end in a conservation bucket, not in limbo.
        """
        self.close()
        if drain:
            self.join(timeout=timeout)
        for st in self._slots:
            proc = st["proc"]
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.kill()
                    proc.join(timeout=5.0)
        return self.drain_leftovers(only_dead=False)

    def drain_leftovers(self, only_dead: bool = True) -> List[SampleBatch]:
        """Pop what dead workers left in their lanes, as batches.

        Seals each drained slot first, so the drained samples are
        charged to the parent (``parent_drained``) and never to
        ``crash_lost``.  With ``only_dead`` (degraded mode), lanes whose
        worker is still alive are left alone.
        """
        leftovers: List[SampleBatch] = []
        for slot, st in enumerate(self._slots):
            proc = st["proc"]
            if only_dead and proc is not None and proc.is_alive():
                continue
            with self._guards[slot]:
                self._seal(slot)
                lane = self._lanes[slot]
                if not len(lane):
                    continue
                if not self._lane_usable(lane):
                    self._rebuild_lane(slot)
                    continue
                while True:
                    got = lane.pop(timeout=0)
                    if got is None:
                        break
                    payload, samples = got
                    st["parent_drained"] += samples
                    try:
                        leftovers.append(SampleBatch.from_bytes(payload))
                    except Exception:  # pragma: no cover - torn record
                        st["crash_lost"] += samples
        return leftovers

    def destroy(self) -> None:
        """Release the shared-memory blocks (after :meth:`stop`).

        Final lane counters are cached first so post-mortem
        ``accounting()``/``stats()`` stay answerable from memory.
        """
        if self._destroyed:
            return
        for st, lane in zip(self._slots, self._lanes):
            st["final_lane_stats"] = lane.stats()
            st["final_lane_dropped"] = (
                st["lane_base"]["dropped"] + lane.dropped
            )
        self._destroyed = True
        for lane in self._lanes:
            lane.destroy()
        if self._own_root:
            import shutil

            shutil.rmtree(self._root, ignore_errors=True)

    # -- merged views ---------------------------------------------------
    def _live_status(self, slot: int) -> dict:
        st = self._slots[slot]
        proc = st["proc"]
        if proc is None or st["sealed_gen"] >= st["generation"]:
            return {}
        status = _read_json(st["paths"]["status"]) or {}
        gen = st["generation"]
        if status.get("generation") != gen:
            return {}
        if "rows" in status:
            st["cached_rows"] = status["rows"]
            st["cached_rows_gen"] = gen
        if "registry" in status:
            st["cached_registry"] = status["registry"]
            st["cached_registry_gen"] = gen
        return status

    def lane_dropped(self) -> int:
        if self._destroyed:
            return sum(st["final_lane_dropped"] for st in self._slots)
        return sum(
            st["lane_base"]["dropped"] + lane.dropped
            for st, lane in zip(self._slots, self._lanes)
        )

    def accounting(self) -> Dict[str, int]:
        """Worker-side conservation buckets, summed across sealed and
        live generations, plus lane drops and crash losses."""
        out = {bucket: 0 for bucket in MERGE_BUCKETS}
        crash_lost = 0
        for slot, st in enumerate(self._slots):
            for bucket in MERGE_BUCKETS:
                out[bucket] += st["sealed"][bucket]
            crash_lost += st["crash_lost"]
            live = self._live_status(slot).get("accounting", {})
            for bucket in MERGE_BUCKETS:
                out[bucket] += live.get(bucket, 0)
        out["crash_lost"] = crash_lost
        out["dead_lettered"] += crash_lost
        out["dropped"] = self.lane_dropped()
        return out

    def merged_rows(self) -> List[list]:
        """Per-slot tree rows: the live generation's latest heavy view,
        or — once a slot is sealed with no successor — its final rows.

        Rows within one slot are cumulative per generation, so exactly
        one generation's rows are used per slot (latest wins); a caller
        merging slots together gets each worker's shards exactly once.
        """
        rows: List[list] = []
        for slot, st in enumerate(self._slots):
            self._live_status(slot)  # refresh the heavy-field cache
            if (
                st["sealed_gen"] < st["generation"]
                and st["cached_rows_gen"] == st["generation"]
            ):
                rows.extend(st["cached_rows"] or [])
            else:
                rows.extend(st["sealed_rows"] or [])
        return rows

    def registry_snapshots(self) -> List[dict]:
        """Sealed generations' final registry snapshots + live ones."""
        snaps: List[dict] = []
        for slot, st in enumerate(self._slots):
            snaps.extend(st["sealed_registries"])
            self._live_status(slot)
            if (
                st["sealed_gen"] < st["generation"]
                and st["cached_registry_gen"] == st["generation"]
                and st["cached_registry"]
            ):
                snaps.append(st["cached_registry"])
        return snaps

    def worker_labels(self) -> dict:
        """A child-registry-shaped snapshot keyed per worker slot."""
        counters: Dict[str, int] = {}
        for slot, st in enumerate(self._slots):
            live = self._live_status(slot)
            acct = live.get("accounting", {})
            counters[f"w{slot}.aggregated"] = (
                st["sealed"]["aggregated"] + acct.get("aggregated", 0)
            )
            counters[f"w{slot}.dead_lettered"] = (
                st["sealed"]["dead_lettered"]
                + acct.get("dead_lettered", 0)
                + st["crash_lost"]
            )
            counters[f"w{slot}.consumed"] = (
                st["accounted_consumed"] + live.get("consumed", 0)
            )
            counters[f"w{slot}.restarts"] = st["restarts"]
            counters[f"w{slot}.crash_lost"] = st["crash_lost"]
        return {
            "counters": counters, "gauges": {},
            "histograms": {}, "labeled": {},
        }

    def stats(self) -> Dict[str, object]:
        workers = []
        for slot, st in enumerate(self._slots):
            proc = st["proc"]
            live = self._live_status(slot)
            workers.append({
                "slot": slot,
                "pid": proc.pid if proc is not None else None,
                "alive": proc is not None and proc.is_alive(),
                "generation": st["generation"],
                "restarts": st["restarts"],
                "crash_lost": st["crash_lost"],
                "consumed": (
                    st["accounted_consumed"] + live.get("consumed", 0)
                ),
                "lane": (
                    st.get("final_lane_stats")
                    if self._destroyed
                    else self._lanes[slot].stats()
                ),
            })
        return {
            "processes": self.nworkers,
            "alive": self.alive(),
            "root": self._root,
            "workers": workers,
        }

    @property
    def root(self) -> str:
        return self._root

    def segment_dirs(self) -> List[str]:
        """Per-worker segment directories (when segments are enabled)."""
        if not self._config.segment_dir:
            return []
        return [
            os.path.join(self._config.segment_dir, f"worker-{slot}")
            for slot in range(self.nworkers)
        ]