"""``resilience-bench``: what the self-healing layer costs when healthy.

Two studies:

1. **Steady-state overhead.** The same hot-context ingestion workload as
   ``serve-bench`` (lane-chain graph, Zipf-shaped popularity), submitted
   in :class:`~repro.service.SampleBatch` chunks of the service's
   256-sample drain size, runs through a plain
   :class:`~repro.service.ContextService` and through one with the full
   resilience stack armed — supervisor heartbeats, circuit breaker on
   every decoded group, retry bookkeeping — but *no faults injected*.
   The acceptance bar is <= 5% throughput overhead: paying
   for crash-safety must not cost the paper's "decode off the hot path"
   economics.
2. **Recovery time vs CCT size.** Durable checkpoints of synthetic
   context trees at increasing row counts, then ``recover()`` into a
   fresh service — measuring write time, file size, and replay time, so
   the restart-latency budget of a real deployment can be read off a
   table instead of guessed.

``python -m repro resilience-bench [--smoke] [--json out.json]``.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bench.reporting import (
    Column,
    render_table,
    sci,
    write_bench_json,
)
from repro.bench.servebench import _stream, _submit_in_batches, build_workload
from repro.resilience import ResilienceConfig
from repro.resilience.checkpoint import (
    CheckpointState,
    CheckpointStore,
    plan_fingerprint,
)
from repro.service import ContextService, ServiceConfig

__all__ = [
    "overhead_study",
    "recovery_study",
    "resilience_bench",
    "render_resilience_bench",
    "run",
    "write_bench_json",
]

DEFAULT_SAMPLES = 40_000
SMOKE_SAMPLES = 6_000
DEFAULT_SIZES = (1_000, 5_000, 20_000)
SMOKE_SIZES = (500, 2_000)
#: The acceptance bar: resilient steady-state may cost at most this.
OVERHEAD_TARGET_PCT = 5.0
_REPEATS = 3


# ----------------------------------------------------------------------
# Study 1: steady-state ingestion overhead
# ----------------------------------------------------------------------
def _ingest_once(plan, stream, resilience) -> Dict[str, object]:
    service = ContextService(
        plan,
        ServiceConfig(
            workers=2,
            shards=8,
            queue_capacity=4096,
            batch_size=256,
            backpressure="block",
        ),
        resilience=resilience,
    )
    service.start()
    epoch = service.engine.epoch_of(plan)
    start = time.perf_counter()
    _submit_in_batches(service, stream, service.config.batch_size, epoch)
    service.flush(timeout=120)
    elapsed = time.perf_counter() - start
    metrics = service.service_metrics()
    service.stop()
    return {
        "samples": len(stream),
        "elapsed_ms": elapsed * 1000.0,
        "per_s": len(stream) / elapsed if elapsed else float("inf"),
        "aggregated": metrics["aggregated"],
        "dead_lettered": metrics["dead_lettered"],
        "dropped": metrics["dropped"],
    }


def overhead_study(
    samples: int = DEFAULT_SAMPLES,
    seed: int = 1,
    repeats: int = _REPEATS,
) -> Dict[str, object]:
    """Plain vs fully-armed service on a fault-free hot stream.

    Each configuration runs ``repeats`` times with the two configs
    interleaved (plain, resilient, plain, ...) so slow machine drift
    hits both equally; the best run per config counts (throughput
    studies measure the machine's capability, not its scheduling
    noise). No faults are injected, so every sample must aggregate in
    both configurations.
    """
    _graph, plan, observations, weights = build_workload(
        depth=24, contexts=200, seed=seed
    )
    stream = _stream(observations, weights, samples, seed)
    resilient_cfg = ResilienceConfig(seed=seed)

    runs: Dict[str, List[Dict[str, object]]] = {"plain": [], "resilient": []}
    for _ in range(repeats):
        for name, resilience in (("plain", None), ("resilient", resilient_cfg)):
            runs[name].append(_ingest_once(plan, stream, resilience))
    best = {
        name: max(results, key=lambda r: r["per_s"])
        for name, results in runs.items()
    }
    plain_per_s = best["plain"]["per_s"]
    resilient_per_s = best["resilient"]["per_s"]
    overhead_pct = (
        (plain_per_s - resilient_per_s) / plain_per_s * 100.0
        if plain_per_s
        else 0.0
    )
    return {
        "plain": best["plain"],
        "resilient": best["resilient"],
        "overhead_pct": round(overhead_pct, 2),
        "target_pct": OVERHEAD_TARGET_PCT,
        "within_target": overhead_pct <= OVERHEAD_TARGET_PCT,
        "repeats": repeats,
    }


# ----------------------------------------------------------------------
# Study 2: recovery time vs CCT size
# ----------------------------------------------------------------------
def _synthetic_rows(size: int) -> Tuple[Tuple[Tuple[str, ...], int, int], ...]:
    """``size`` distinct contexts shaped like a deep profile tree."""
    rows = []
    for i in range(size):
        path = ("main", f"f{i % 64}", f"g{i % 512}", f"ctx{i}")
        rows.append((path, 3 + i % 5, 1 if i % 7 == 0 else 0))
    return tuple(rows)


def recovery_study(
    sizes: Tuple[int, ...] = DEFAULT_SIZES, seed: int = 1
) -> List[Dict[str, object]]:
    """Checkpoint-write and recover latency across context-tree sizes."""
    _graph, plan, _observations, _weights = build_workload(
        depth=12, contexts=8, seed=seed
    )
    results: List[Dict[str, object]] = []
    for size in sizes:
        rows = _synthetic_rows(size)
        state = CheckpointState(
            epoch=0, fingerprint=plan_fingerprint(plan), rows=rows
        )
        with tempfile.TemporaryDirectory(prefix="repro-rbench-") as tmp:
            store = CheckpointStore(tmp)
            t0 = time.perf_counter()
            path = store.write(state)
            write_ms = (time.perf_counter() - t0) * 1000.0
            file_kb = os.path.getsize(path) / 1024.0

            service = ContextService(
                plan, ServiceConfig(workers=1, shards=8, queue_capacity=16)
            )
            t1 = time.perf_counter()
            summary = service.recover(tmp)
            recover_ms = (time.perf_counter() - t1) * 1000.0
        results.append(
            {
                "contexts": size,
                "samples": summary["samples"],
                "write_ms": round(write_ms, 3),
                "file_kb": round(file_kb, 1),
                "recover_ms": round(recover_ms, 3),
                "contexts_per_s": (
                    size / (recover_ms / 1000.0) if recover_ms else float("inf")
                ),
            }
        )
    return results


# ----------------------------------------------------------------------
# The full benchmark
# ----------------------------------------------------------------------
def resilience_bench(
    smoke: bool = False,
    *,
    samples: Optional[int] = None,
    sizes: Optional[Tuple[int, ...]] = None,
    seed: int = 1,
) -> Dict[str, object]:
    """Run both studies; returns the JSON-ready result dict."""
    if samples is None:
        samples = SMOKE_SAMPLES if smoke else DEFAULT_SAMPLES
    if sizes is None:
        sizes = SMOKE_SIZES if smoke else DEFAULT_SIZES
    return {
        "benchmark": "resilience-bench",
        "smoke": smoke,
        "workload": {"samples": samples, "sizes": list(sizes), "seed": seed},
        "overhead": overhead_study(samples=samples, seed=seed),
        "recovery": recovery_study(sizes=tuple(sizes), seed=seed),
    }


# ----------------------------------------------------------------------
# Matrix entry point
# ----------------------------------------------------------------------
def run(config: Mapping[str, object]) -> Dict[str, object]:
    """One ``bench-matrix`` cell: steady-state resilience overhead and
    recovery throughput under ``config`` (honours ``quick`` and
    ``seed``; the studies fix their own service shape so plain-vs-armed
    stays an apples-to-apples pair).

    Gated metric: the steady-state overhead percentage — the "paying
    for crash-safety must stay under 5%" bar, now watched per commit.
    """
    quick = bool(config.get("quick", True))
    seed = int(config.get("seed", 1))
    samples = SMOKE_SAMPLES if quick else DEFAULT_SAMPLES
    sizes = SMOKE_SIZES if quick else DEFAULT_SIZES
    overhead = overhead_study(samples=samples, seed=seed)
    recovery = recovery_study(sizes=sizes, seed=seed)
    largest = recovery[-1]
    metrics = {
        "overhead_pct": overhead["overhead_pct"],
        "within_target": overhead["within_target"],
        "plain_per_s": overhead["plain"]["per_s"],
        "resilient_per_s": overhead["resilient"]["per_s"],
        "recover_contexts_per_s": largest["contexts_per_s"],
        "recover_ms": largest["recover_ms"],
    }
    return {
        "target": "resilience",
        "metrics": metrics,
        "gated": {
            "resilience_overhead_pct": overhead["overhead_pct"],
            "recover_contexts_per_s": largest["contexts_per_s"],
        },
    }


_OVERHEAD_COLUMNS: List[Column] = [
    ("config", "config", str),
    ("samples", "samples", sci),
    ("elapsed_ms", "elapsed ms", sci),
    ("per_s", "samples/s", sci),
    ("aggregated", "aggregated", sci),
    ("dead_lettered", "dead-lettered", sci),
]

_RECOVERY_COLUMNS: List[Column] = [
    ("contexts", "contexts", sci),
    ("samples", "samples", sci),
    ("write_ms", "write ms", sci),
    ("file_kb", "file KB", sci),
    ("recover_ms", "recover ms", sci),
    ("contexts_per_s", "contexts/s", sci),
]


def render_resilience_bench(result: Dict[str, object]) -> str:
    """Human-readable report of one :func:`resilience_bench` run."""
    overhead = result["overhead"]
    rows = [
        dict(config=name, **overhead[name]) for name in ("plain", "resilient")
    ]
    verdict = "within" if overhead["within_target"] else "OVER"
    lines = [
        render_table(
            rows,
            _OVERHEAD_COLUMNS,
            title=(
                "resilience-bench steady-state ingest (overhead "
                f"{overhead['overhead_pct']}%, {verdict} the "
                f"{overhead['target_pct']}% target)"
            ),
        ),
        "",
        render_table(
            result["recovery"],
            _RECOVERY_COLUMNS,
            title="checkpoint write / recover latency vs CCT size",
        ),
    ]
    return "\n".join(lines)


