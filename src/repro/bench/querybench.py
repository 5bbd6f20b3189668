"""query-bench: segment write + windowed query throughput.

Builds a synthetic segment store (prefix-sharing contexts spread over
many segments, the shape a long-running service produces) and measures
the two costs that gate the ``repro.query`` layer:

* **segment write** — rows/s through the full durability discipline
  (CRC lines, packed sections, fsync/rename, validated read-back);
* **query latency** — windowed top-K over random windows, plus the
  rollup / diff / paths-through family, all answered from re-loaded
  (validated) segments, and a flame-graph export round-trip;
* **retention plateau** — an unbounded-run study: the same flush
  stream into an uncapped store vs one compacted under retention caps,
  asserting the capped store's segment count and bytes plateau while
  ``live + retired == flushed`` holds.

``python -m repro query-bench`` renders the tables;
``--json BENCH_query.json`` records the artifact CI gates on. The full
run covers the acceptance shape: 20k contexts across 16 segments. The
matrix entry point honours the ``compact`` knob: the ``compact-on``
config merges the store into one multi-span generation before the
query study, gating the same latency metrics over compacted segments.
"""

from __future__ import annotations

import os
import random
import statistics
import tempfile
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bench.reporting import (
    Column,
    render_table,
    sci,
    write_bench_json,
)
from repro.query.engine import QueryEngine
from repro.query.flamegraph import from_folded
from repro.query.manifest import SegmentStore
from repro.query.segment import SegmentState, span_overlaps

__all__ = ["query_bench", "render_query_bench", "run", "write_bench_json"]

DEFAULT_CONTEXTS = 20_000
DEFAULT_SEGMENTS = 16
SMOKE_CONTEXTS = 2_000
SMOKE_SEGMENTS = 4
_TOPK_TRIALS = 50
_K = 10
#: Timed ``paths_through`` calls; the study reports their median.
_THROUGH_REPEATS = 15


def _synthetic_contexts(
    n: int, seed: int
) -> List[Tuple[Tuple[str, ...], int, int, int]]:
    """``n`` distinct contexts with realistic prefix sharing.

    Paths fan out from a small set of entry prefixes into per-context
    leaves, so the trie delta-encoding sees the sharing it was built
    for.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        trunk = (f"svc{i % 8}", f"handler{i % 64}", f"op{i % 512}")
        depth = rng.randint(0, 3)
        middle = tuple(f"util{rng.randint(0, 99)}" for _ in range(depth))
        path = trunk + middle + (f"ctx{i}",)
        rows.append((path, 1 + rng.randint(0, 9), 1 if i % 13 == 0 else 0, 0))
    return rows


def _build_store(
    directory: str, contexts: int, segments: int, seed: int
) -> Dict[str, object]:
    """Write the synthetic store; returns the write-side measurements."""
    rows = _synthetic_contexts(contexts, seed)
    per_segment = max(1, len(rows) // segments)
    store = SegmentStore(directory)
    write_ms: List[float] = []
    written_rows = 0
    for i in range(segments):
        lo = i * per_segment
        hi = len(rows) if i == segments - 1 else (i + 1) * per_segment
        chunk = sorted(rows[lo:hi], key=lambda r: (r[0], r[3]))
        state = SegmentState(
            t_lo=float(i),
            t_hi=float(i + 1),
            fingerprint=f"bench-{seed:04x}",
            rows=tuple(chunk),
        )
        t0 = time.perf_counter()
        store.append(state.encode())
        write_ms.append((time.perf_counter() - t0) * 1000.0)
        written_rows += len(chunk)
    total_ms = sum(write_ms)
    size_kb = sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    ) / 1024.0
    return {
        "segments": segments,
        "rows": written_rows,
        "write_ms_total": round(total_ms, 3),
        "write_ms_mean": round(total_ms / segments, 3),
        "rows_per_s": (
            written_rows / (total_ms / 1000.0) if total_ms else float("inf")
        ),
        "store_kb": round(size_kb, 1),
    }


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[idx]


def _reference_counts(
    spelled: List[tuple], window: Optional[Tuple[float, float]] = None
) -> Dict[Tuple[str, ...], int]:
    """The window's counts summed by path straight from the segments'
    spelled-out rows, as :class:`QueryEngine` must answer them: a
    segment counts when its window overlaps, and each of its rows when
    the row's own span does."""
    out: Dict[Tuple[str, ...], int] = {}
    for seg, state in spelled:
        if window is not None and not seg.overlaps(*window):
            continue
        for (path, count, _gaps, _epoch), span in zip(
            state.rows, state.row_spans
        ):
            if count and (
                window is None or span_overlaps(*state.spans[span], *window)
            ):
                out[path] = out.get(path, 0) + count
    return out


def _query_study(
    directory: str, contexts: int, segments: int, seed: int
) -> Dict[str, object]:
    rng = random.Random(seed ^ 0x9E3779B9)
    engine = QueryEngine(directory)
    t0 = time.perf_counter()
    engine.refresh()
    load_ms = (time.perf_counter() - t0) * 1000.0
    # The reference the answers are checked against, spelled out from
    # the rows once and outside every timed interval.
    spelled = [(seg, seg.state) for seg in engine.segments()]

    topk_ms: List[float] = []
    topk_exact = True
    for _ in range(_TOPK_TRIALS):
        lo = rng.uniform(0, segments - 1)
        hi = lo + rng.uniform(0.5, segments / 2.0)
        t0 = time.perf_counter()
        ranked = engine.top_contexts(_K, window=(lo, hi))
        topk_ms.append((time.perf_counter() - t0) * 1000.0)
        # Untimed reference: a full sort of the same window's counts,
        # dropped before the next timed trial.
        topk_exact = topk_exact and ranked == sorted(
            ((count, path)
             for path, count in _reference_counts(spelled, (lo, hi)).items()),
            key=lambda item: (-item[0], item[1]),
        )[:_K]

    t0 = time.perf_counter()
    rollup = engine.function_totals()
    rollup_ms = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    diff = engine.diff((0.0, segments / 2.0), (segments / 2.0, float(segments)))
    diff_ms = (time.perf_counter() - t0) * 1000.0

    hot = max(rollup, key=lambda name: rollup[name])
    through_runs: List[float] = []
    for _ in range(_THROUGH_REPEATS):
        t0 = time.perf_counter()
        through = engine.paths_through(hot)
        through_runs.append((time.perf_counter() - t0) * 1000.0)

    t0 = time.perf_counter()
    folded = engine.flamegraph()
    flame_ms = (time.perf_counter() - t0) * 1000.0
    parsed = from_folded(folded)
    round_trip_ok = (
        topk_exact
        and len(parsed) == contexts
        and sum(parsed.values()) == engine.ucp_stats()["samples"]
        and parsed == _reference_counts(spelled)
    )

    return {
        "load_ms": round(load_ms, 3),
        "topk_trials": _TOPK_TRIALS,
        "topk_ms_mean": round(statistics.mean(topk_ms), 3),
        "topk_ms_p95": round(_percentile(topk_ms, 0.95), 3),
        "topk_per_s": (
            1000.0 / statistics.mean(topk_ms)
            if statistics.mean(topk_ms)
            else float("inf")
        ),
        "rollup_ms": round(rollup_ms, 3),
        "rollup_functions": len(rollup),
        "diff_ms": round(diff_ms, 3),
        "diff_appeared": len(diff.appeared),
        "through_ms": round(statistics.median(through_runs), 3),
        "through_repeats": _THROUGH_REPEATS,
        "through_function": hot,
        "through_paths": len(through),
        "flame_ms": round(flame_ms, 3),
        "flame_lines": len(parsed),
        "round_trip_ok": round_trip_ok,
    }


def _compact_store(directory: str, segments: int) -> Dict[str, object]:
    """Merge the freshly-built store into one generation; timings."""
    from repro.query.compact import Compactor

    store = SegmentStore(directory)
    before = len(store.refresh())
    t0 = time.perf_counter()
    Compactor(store).compact(now=float(segments) + 1.0, force=True)
    merge_ms = (time.perf_counter() - t0) * 1000.0
    after = len(store.refresh())
    return {
        "segments_before": before,
        "segments_after": after,
        "merge_ms": round(merge_ms, 3),
    }


def _retention_study(smoke: bool, seed: int) -> Dict[str, object]:
    """Unbounded-run study: does a retention-capped store plateau?

    The identical flush stream goes into two stores: one never
    compacted (the unbounded baseline) and one swept by the compactor
    under segment/age caps after every flush. Tracks the segment-count
    and byte trajectories, and checks the conservation law
    ``live + retired == flushed`` on the capped store — retention may
    delete history, never lose track of it. ``swap_write_amp`` is the
    capped store's write amplification: the segment bytes its swaps
    wrote over the segment bytes appended.
    """
    from repro.query.compact import (
        CompactionPolicy,
        Compactor,
        RetentionPolicy,
    )

    flushes = 24 if smoke else 64
    rows_per_flush = 60 if smoke else 150
    caps = RetentionPolicy(max_segments=6, max_age_s=16.0)
    rng = random.Random(seed ^ 0x5E7A)
    streams: List[Tuple[SegmentState, int]] = []
    for i in range(flushes):
        rows: Dict[Tuple[str, ...], Tuple[int, int, int]] = {}
        for j in range(rows_per_flush):
            path = (
                f"svc{j % 4}", f"op{j % 32}", f"ctx{rng.randint(0, 400)}"
            )
            count, gaps, epoch = rows.get(path, (0, 0, 0))
            rows[path] = (count + 1 + rng.randint(0, 5), gaps, epoch)
        state = SegmentState(
            t_lo=float(i),
            t_hi=float(i + 1),
            fingerprint=f"retain-{seed:04x}",
            rows=tuple(
                (path, count, gaps, epoch)
                for path, (count, gaps, epoch) in sorted(rows.items())
            ),
        )
        streams.append((state, sum(c for c, _g, _e in rows.values())))
    total_flushed = sum(samples for _state, samples in streams)

    def series(directory: str, compact: bool) -> Dict[str, object]:
        store = SegmentStore(directory)
        compactor = Compactor(
            store, CompactionPolicy(min_inputs=4, retention=caps)
        )
        seg_series: List[int] = []
        kb_series: List[float] = []
        appended = 0
        for i, (state, _samples) in enumerate(streams):
            appended += os.path.getsize(store.append(state.encode()))
            if compact:
                compactor.compact(now=float(i + 1))
            seg_series.append(len(store.refresh()))
            kb_series.append(
                sum(
                    os.path.getsize(os.path.join(directory, name))
                    for name in os.listdir(directory)
                    if name.endswith(".dpqs")
                )
                / 1024.0
            )
        live = sum(seg.samples for seg in store.segments())
        retired = sum(
            count for count, _gaps in store.retired_totals().values()
        )
        return {
            "final_segments": seg_series[-1],
            "max_segments": max(seg_series),
            "tail_max_segments": max(seg_series[len(seg_series) // 2 :]),
            "final_kb": round(kb_series[-1], 1),
            "max_kb": round(max(kb_series), 1),
            "live_samples": live,
            "retired_samples": retired,
            "compactions": compactor.compactions,
            "appended_kb": round(appended / 1024.0, 1),
            "swap_written_kb": round(compactor.bytes_written / 1024.0, 1),
            "swap_write_amp": round(
                compactor.bytes_written / max(1, appended), 3
            ),
        }

    with tempfile.TemporaryDirectory(prefix="repro-qretain-") as tmp:
        uncapped_dir = os.path.join(tmp, "uncapped")
        capped_dir = os.path.join(tmp, "capped")
        uncapped = series(uncapped_dir, compact=False)
        capped = series(capped_dir, compact=True)
    conservation_ok = (
        capped["live_samples"] + capped["retired_samples"] == total_flushed
    )
    plateau_ok = (
        capped["tail_max_segments"] <= caps.max_segments
        and capped["final_kb"] < uncapped["final_kb"]
    )
    return {
        "flushes": flushes,
        "rows_per_flush": rows_per_flush,
        "total_flushed": total_flushed,
        "caps": {
            "max_segments": caps.max_segments,
            "max_age_s": caps.max_age_s,
        },
        "uncapped": uncapped,
        "capped": capped,
        "conservation_ok": conservation_ok,
        "plateau_ok": plateau_ok,
    }


def query_bench(
    smoke: bool = False,
    *,
    contexts: Optional[int] = None,
    segments: Optional[int] = None,
    seed: int = 1,
    compact: bool = False,
    with_retention: bool = True,
) -> Dict[str, object]:
    """Run the studies; returns the JSON-ready result dict.

    ``compact=True`` merges the store into one multi-span generation
    between the write and query studies (the ``compact-on`` matrix
    cell). ``with_retention=False`` skips the unbounded-run plateau
    study (matrix cells skip it to keep cell timings clean).
    """
    if contexts is None:
        contexts = SMOKE_CONTEXTS if smoke else DEFAULT_CONTEXTS
    if segments is None:
        segments = SMOKE_SEGMENTS if smoke else DEFAULT_SEGMENTS
    with tempfile.TemporaryDirectory(prefix="repro-qbench-") as tmp:
        write = _build_store(tmp, contexts, segments, seed)
        compaction = _compact_store(tmp, segments) if compact else None
        query = _query_study(tmp, contexts, segments, seed)
    result = {
        "benchmark": "query-bench",
        "smoke": smoke,
        "workload": {
            "contexts": contexts,
            "segments": segments,
            "seed": seed,
            "compact": compact,
        },
        "write": write,
        "query": query,
    }
    if compaction is not None:
        result["compaction"] = compaction
    if with_retention:
        result["retention"] = _retention_study(smoke, seed)
    return result


# ----------------------------------------------------------------------
# Matrix entry point
# ----------------------------------------------------------------------
def run(config: Mapping[str, object]) -> Dict[str, object]:
    """One ``bench-matrix`` cell: segment write + windowed query latency
    under ``config`` (honours ``quick`` and ``seed``; the store shape is
    fixed so latency numbers stay comparable across configurations).

    Gated metrics: windowed top-K p95 latency (the interactive-query
    budget) and segment write throughput (the flush-path budget). The
    ``compact`` knob swaps the store to one multi-span generation
    before the query study, so the ``compact-on`` cell gates the same
    latencies over compacted segments.
    """
    quick = bool(config.get("quick", True))
    seed = int(config.get("seed", 1))
    compact = bool(config.get("compact", False))
    result = query_bench(
        smoke=quick, seed=seed, compact=compact, with_retention=False
    )
    write, query = result["write"], result["query"]
    metrics = {
        "topk_ms_mean": query["topk_ms_mean"],
        "topk_ms_p95": query["topk_ms_p95"],
        "rollup_ms": query["rollup_ms"],
        "flame_ms": query["flame_ms"],
        "round_trip_ok": query["round_trip_ok"],
        "write_rows_per_s": write["rows_per_s"],
        "load_ms": query["load_ms"],
    }
    if compact:
        metrics["compact_merge_ms"] = result["compaction"]["merge_ms"]
        metrics["compact_segments_after"] = (
            result["compaction"]["segments_after"]
        )
    return {
        "target": "query",
        "metrics": metrics,
        "gated": {
            "topk_ms_p95": query["topk_ms_p95"],
            "write_rows_per_s": write["rows_per_s"],
        },
    }


_WRITE_COLUMNS: List[Column] = [
    ("segments", "segments", sci),
    ("rows", "rows", sci),
    ("write_ms_mean", "write ms/seg", sci),
    ("rows_per_s", "rows/s", sci),
    ("store_kb", "store KB", sci),
]

_QUERY_COLUMNS: List[Column] = [
    ("load_ms", "load ms", sci),
    ("topk_ms_mean", "topk ms", sci),
    ("topk_ms_p95", "topk p95", sci),
    ("rollup_ms", "rollup ms", sci),
    ("diff_ms", "diff ms", sci),
    ("through_ms", "through ms", sci),
    ("flame_ms", "flame ms", sci),
]


_RETENTION_COLUMNS: List[Column] = [
    ("store", "store", str),
    ("final_segments", "final segs", sci),
    ("tail_max_segments", "tail max segs", sci),
    ("final_kb", "final KB", sci),
    ("max_kb", "max KB", sci),
    ("retired_samples", "retired", sci),
    ("compactions", "swaps", sci),
]


def render_query_bench(result: Dict[str, object]) -> str:
    """Human-readable report of one :func:`query_bench` run."""
    workload = result["workload"]
    query = result["query"]
    verdict = (
        "top-K equals a full sort, flame graph round-trips"
        if query["round_trip_ok"]
        else "FAILS the top-K or flame-graph round-trip check"
    )
    lines = [
        render_table(
            [result["write"]],
            _WRITE_COLUMNS,
            title=(
                f"query-bench segment writes ({workload['contexts']} "
                f"contexts over {workload['segments']} segments)"
            ),
        ),
        "",
        render_table(
            [query],
            _QUERY_COLUMNS,
            title=(
                f"windowed query latency ({query['topk_trials']} random "
                f"top-{_K} windows, paths_through median of "
                f"{query['through_repeats']} calls, "
                f"{query['flame_lines']} folded flame lines; {verdict})"
            ),
        ),
    ]
    compaction = result.get("compaction")
    if compaction:
        lines.append(
            f"\ncompacted {compaction['segments_before']} -> "
            f"{compaction['segments_after']} segment(s) in "
            f"{compaction['merge_ms']} ms before the query study"
        )
    retention = result.get("retention")
    if retention:
        rows = [
            {"store": name, **retention[name]}
            for name in ("uncapped", "capped")
        ]
        conserve = "holds" if retention["conservation_ok"] else "VIOLATED"
        plateau = "plateaus" if retention["plateau_ok"] else "DOES NOT plateau"
        lines.extend([
            "",
            render_table(
                rows,
                _RETENTION_COLUMNS,
                title=(
                    f"unbounded-run retention study ({retention['flushes']} "
                    f"flushes, caps: {retention['caps']['max_segments']} "
                    f"segments / {retention['caps']['max_age_s']}s): capped "
                    f"store {plateau}, live+retired==flushed {conserve}"
                ),
            ),
        ])
    return "\n".join(lines)


