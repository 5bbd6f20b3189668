"""``bench-matrix``: named configurations x bench targets, with a
regression gate.

The single-shot BENCH_*.json artifacts answer "how fast is it today";
nothing in them stops a PR from quietly losing the cached-decode speedup
or breaching the ≤5% overhead bars. This harness crosses **named
configurations** (cached/uncached decode, sharded N, resilience on/off,
compressed vs tuple store, worker processes, compaction) with **bench
targets** (the ``run(config) -> dict`` entry points of servebench /
obsbench / resiliencebench / querybench), runs the cells — optionally in
parallel — and merges everything into one ``BENCH_matrix.json``:

* ``cells`` — per ``config/target``: the full metric dict, the
  ``gated`` subset, and the ``cores`` the run could use;
* ``gated`` — every gated metric flattened to ``config/target/metric``,
  the exact keys the regression gate diffs;
* ``history`` — the previous runs' stamped gated snapshots (bounded),
  carried forward from the baseline file on every rewrite.

The gate compares the current ``gated`` map against a committed
baseline ``BENCH_matrix.json`` and fails (non-zero exit from the CLI)
on any regression beyond the tolerance: throughput/speedup metrics may
not drop by more than ``tolerance``, latency/overhead metrics may not
grow by more than ``tolerance`` (with a small absolute floor so noise
on near-zero percentages cannot fail a build). Directions live in
:data:`GATED_METRICS`; unknown metrics default to higher-is-better.

``python -m repro bench-matrix --configs all --quick
--json BENCH_matrix.json`` runs everything and gates against the
committed file; ``--jobs N`` runs cells in parallel (faster, noisier —
keep 1 when the numbers themselves matter).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.reporting import (
    Column,
    bench_stamp,
    render_table,
    sci,
    write_bench_json,
)
from repro.errors import ReproError

__all__ = [
    "CONFIGS",
    "GATED_METRICS",
    "TARGETS",
    "GatedMetric",
    "MatrixConfig",
    "diff_against_baseline",
    "load_baseline",
    "render_matrix",
    "run_matrix",
]

#: Keep at most this many history entries in BENCH_matrix.json.
HISTORY_LIMIT = 20
#: Default regression tolerance (fraction): >10% is a gate breach.
DEFAULT_TOLERANCE = 0.10


class MatrixError(ReproError):
    """A malformed matrix artifact or an unknown config/target."""


@dataclass(frozen=True)
class MatrixConfig:
    """One named configuration: the knob settings a cell runs under."""

    name: str
    description: str
    cached: bool = True
    shards: int = 8
    workers: int = 2
    resilience: bool = False
    compression: str = "zlib"
    #: Decode worker processes (0 = the in-process thread pool).
    worker_processes: int = 0
    #: Compact the segment store into one generation before querying.
    compact: bool = False

    def knobs(self, *, quick: bool, seed: int) -> Dict[str, object]:
        """The plain mapping handed to every target's ``run()``."""
        return {
            "name": self.name,
            "cached": self.cached,
            "shards": self.shards,
            "workers": self.workers,
            "resilience": self.resilience,
            "compression": self.compression,
            "worker_processes": self.worker_processes,
            "compact": self.compact,
            "quick": quick,
            "seed": seed,
        }


#: The named configurations, in display order. ``default`` is the
#: production shape; every other config flips exactly one axis so a
#: regression's cell coordinates name the knob that exposed it.
CONFIGS: Tuple[MatrixConfig, ...] = (
    MatrixConfig("default", "production shape: cached, sharded 8, batch"),
    MatrixConfig("uncached", "decode caches disabled", cached=False),
    MatrixConfig("sharded-1", "single aggregation shard", shards=1),
    MatrixConfig(
        "resilient", "full resilience stack armed", resilience=True
    ),
    MatrixConfig(
        "store-none", "uncompressed context store", compression="none"
    ),
    MatrixConfig(
        "multiproc-2",
        "two decode worker processes over shared-memory lanes",
        worker_processes=2,
    ),
    MatrixConfig(
        "compact-on",
        "segment store swapped to one compacted generation",
        compact=True,
    ),
)


def _target(module: str) -> Callable[[Mapping], Dict[str, object]]:
    def call(config: Mapping) -> Dict[str, object]:
        import importlib

        return importlib.import_module(module).run(config)

    return call


#: target name -> callable(config) -> {"target", "metrics", "gated"}.
TARGETS: Dict[str, Callable[[Mapping], Dict[str, object]]] = {
    "serve": _target("repro.bench.servebench"),
    "obs": _target("repro.bench.obsbench"),
    "resilience": _target("repro.bench.resiliencebench"),
    "query": _target("repro.bench.querybench"),
}


@dataclass(frozen=True)
class GatedMetric:
    """Direction + noise floor for one gated metric name."""

    #: True: bigger is better (throughput, speedup) — gate on drops.
    #: False: smaller is better (latency, overhead) — gate on growth.
    higher_better: bool
    #: Absolute change below which a relative breach is ignored —
    #: overhead percentages hover near zero, where relative comparison
    #: is all noise.
    abs_floor: float = 0.0


#: Gate semantics per metric name (the last path segment of a gated
#: key). Metrics absent here gate as higher-is-better with no floor.
GATED_METRICS: Dict[str, GatedMetric] = {
    "ingest_per_s": GatedMetric(higher_better=True),
    # Cached and uncached decode gate on their own rates: their ratio
    # shrinks whenever the uncached decoder gets faster.
    "decode_per_s": GatedMetric(higher_better=True),
    "decode_uncached_per_s": GatedMetric(higher_better=True),
    "store_bytes_per_context": GatedMetric(higher_better=False),
    # Overhead percentages are ratios of two hot-loop timings: on a
    # busy machine they wander by ±10pp around zero, where relative
    # comparison is meaningless. The floors are sized to catch the
    # failure that matters — expensive code landing on a hot path
    # costs tens of points — while ignoring scheduler noise.
    "probe_overhead_pct": GatedMetric(higher_better=False, abs_floor=15.0),
    "profiler_overhead_pct": GatedMetric(
        higher_better=False, abs_floor=15.0
    ),
    "resilience_overhead_pct": GatedMetric(
        higher_better=False, abs_floor=10.0
    ),
    "recover_contexts_per_s": GatedMetric(higher_better=True),
    # Quick-size top-K answers land in ~2ms; contention on a shared
    # runner has been observed to push a p95 past 5ms. Losing the
    # inverted index costs 10ms+, so a 5ms floor keeps the signal and
    # drops the spikes.
    "topk_ms_p95": GatedMetric(higher_better=False, abs_floor=5.0),
    "write_rows_per_s": GatedMetric(higher_better=True),
}


def _configs_by_name() -> Dict[str, MatrixConfig]:
    return {config.name: config for config in CONFIGS}


def resolve_configs(names: Optional[Sequence[str]]) -> List[MatrixConfig]:
    """``None``/``["all"]`` -> every config; else the named subset."""
    table = _configs_by_name()
    if not names or list(names) == ["all"]:
        return list(CONFIGS)
    missing = [name for name in names if name not in table]
    if missing:
        raise MatrixError(
            f"unknown config(s) {', '.join(missing)}; "
            f"known: {', '.join(table)}"
        )
    return [table[name] for name in names]


def resolve_targets(names: Optional[Sequence[str]]) -> List[str]:
    if not names or list(names) == ["all"]:
        return list(TARGETS)
    missing = [name for name in names if name not in TARGETS]
    if missing:
        raise MatrixError(
            f"unknown target(s) {', '.join(missing)}; "
            f"known: {', '.join(TARGETS)}"
        )
    return list(names)


# ----------------------------------------------------------------------
# Running the matrix
# ----------------------------------------------------------------------
def _run_cell(
    config: MatrixConfig, target: str, *, quick: bool, seed: int
) -> Dict[str, object]:
    started = time.perf_counter()
    result = TARGETS[target](config.knobs(quick=quick, seed=seed))
    elapsed = time.perf_counter() - started
    return {
        "config": config.name,
        "target": target,
        "elapsed_s": round(elapsed, 3),
        "cores": len(os.sched_getaffinity(0)),
        "metrics": result["metrics"],
        "gated": result["gated"],
    }


def run_matrix(
    configs: Optional[Sequence[str]] = None,
    targets: Optional[Sequence[str]] = None,
    *,
    quick: bool = True,
    seed: int = 1,
    jobs: int = 1,
    log: Callable[[str], None] = lambda line: None,
) -> Dict[str, object]:
    """Run every (config, target) cell; return the merged result dict.

    ``jobs > 1`` runs cells in a thread pool — wall-clock drops, but
    concurrent cells contend for the GIL, so absolute throughput
    numbers blur. Gate-quality runs (the committed baseline, CI) should
    keep ``jobs=1``.
    """
    chosen_configs = resolve_configs(configs)
    chosen_targets = resolve_targets(targets)
    cell_keys = [
        (config, target)
        for config in chosen_configs
        for target in chosen_targets
    ]

    cells: Dict[str, Dict[str, object]] = {}

    def finish(config: MatrixConfig, target: str, cell) -> None:
        cells[f"{config.name}/{target}"] = cell
        log(
            f"[{len(cells)}/{len(cell_keys)}] {config.name}/{target} "
            f"done in {cell['elapsed_s']}s"
        )

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(
                    _run_cell, config, target, quick=quick, seed=seed
                ): (config, target)
                for config, target in cell_keys
            }
            for future, (config, target) in futures.items():
                finish(config, target, future.result())
    else:
        for config, target in cell_keys:
            finish(config, target, _run_cell(
                config, target, quick=quick, seed=seed
            ))

    gated = {
        f"{key}/{metric}": value
        for key, cell in cells.items()
        for metric, value in cell["gated"].items()
    }
    return {
        "benchmark": "bench-matrix",
        "quick": quick,
        "seed": seed,
        "jobs": jobs,
        "configs": {
            config.name: {
                "description": config.description,
                **{
                    knob: value
                    for knob, value in config.knobs(
                        quick=quick, seed=seed
                    ).items()
                    if knob not in ("name", "quick", "seed")
                },
            }
            for config in chosen_configs
        },
        "targets": chosen_targets,
        "cells": cells,
        "gated": gated,
        "history": [],
    }


# ----------------------------------------------------------------------
# Baseline diffing / the regression gate
# ----------------------------------------------------------------------
@dataclass
class GateReport:
    """The gate's verdict: regressions fail the build, the rest inform."""

    tolerance: float
    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = []
        for line in self.regressions:
            lines.append(f"REGRESSION {line}")
        for line in self.improvements:
            lines.append(f"improved   {line}")
        for line in self.missing:
            lines.append(f"missing    {line} (in baseline, not this run)")
        for line in self.added:
            lines.append(f"new        {line} (no baseline yet)")
        verdict = (
            "gate ok"
            if self.ok
            else f"gate FAILED: {len(self.regressions)} regression(s)"
        )
        lines.append(
            f"{verdict} (tolerance {self.tolerance * 100:.0f}%, "
            f"{len(self.improvements)} improved, {len(self.added)} new)"
        )
        return "\n".join(lines)


def load_baseline(path: str) -> Dict[str, object]:
    """Load and validate a committed BENCH_matrix.json."""
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MatrixError(f"cannot load baseline {path}: {exc}") from exc
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("gated"), dict
    ):
        raise MatrixError(
            f"baseline {path} is not a bench-matrix artifact "
            "(no 'gated' map)"
        )
    return baseline


def diff_against_baseline(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateReport:
    """Gate ``current`` gated metrics against ``baseline`` ones.

    Keys are ``config/target/metric``; only keys present in both sides
    are gated (a baseline from a wider run does not fail a narrower
    one). The metric's direction comes from :data:`GATED_METRICS`.
    """
    report = GateReport(tolerance=tolerance)
    for key in sorted(set(current) | set(baseline)):
        if key not in current:
            report.missing.append(key)
            continue
        if key not in baseline:
            report.added.append(f"{key} = {sci(current[key])}")
            continue
        now, then = float(current[key]), float(baseline[key])
        spec = GATED_METRICS.get(
            key.rsplit("/", 1)[-1], GatedMetric(higher_better=True)
        )
        line = f"{key}: {sci(then)} -> {sci(now)}"
        if spec.higher_better:
            if now < then * (1.0 - tolerance):
                report.regressions.append(
                    f"{line} (dropped >{tolerance * 100:.0f}%)"
                )
            elif now > then * (1.0 + tolerance):
                report.improvements.append(line)
        else:
            breach = now > then * (1.0 + tolerance)
            if breach and abs(now - then) > spec.abs_floor:
                report.regressions.append(
                    f"{line} (grew >{tolerance * 100:.0f}%)"
                )
            elif now < then * (1.0 - tolerance):
                report.improvements.append(line)
    return report


def merge_history(
    result: Dict[str, object], baseline: Optional[Mapping[str, object]]
) -> Dict[str, object]:
    """Carry the baseline's history forward and append its own entry.

    The baseline's gated snapshot (with its stamp) becomes the newest
    history entry, so the rewritten artifact remembers every prior
    accepted run up to :data:`HISTORY_LIMIT`.
    """
    history: List[Dict[str, object]] = []
    if baseline:
        history.extend(baseline.get("history") or [])
        entry = {
            "schema_version": baseline.get("schema_version"),
            "commit": baseline.get("commit", "unknown"),
            "timestamp": baseline.get("timestamp", "unknown"),
            "quick": baseline.get("quick"),
            "gated": baseline.get("gated", {}),
        }
        history.append(entry)
    result["history"] = history[-HISTORY_LIMIT:]
    return result


def write_matrix_json(
    result: Dict[str, object],
    path: str,
    baseline: Optional[Mapping[str, object]] = None,
) -> None:
    """Stamp, merge history from ``baseline``, and write the artifact."""
    stamped = dict(bench_stamp())
    stamped.update(merge_history(dict(result), baseline))
    write_bench_json(stamped, path)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_CELL_COLUMNS: List[Column] = [
    ("cell", "config/target", str),
    ("elapsed_s", "s", sci),
    ("gated", "gated metrics", str),
]


def render_matrix(result: Dict[str, object]) -> str:
    """Human-readable report of one :func:`run_matrix` result."""
    rows = [
        {
            "cell": key,
            "elapsed_s": cell["elapsed_s"],
            "gated": ", ".join(
                f"{metric}={sci(value)}"
                for metric, value in sorted(cell["gated"].items())
            ),
        }
        for key, cell in sorted(result["cells"].items())
    ]
    mode = "quick" if result["quick"] else "full"
    title = (
        f"bench-matrix ({mode}): {len(result['configs'])} configs x "
        f"{len(result['targets'])} targets, "
        f"{len(result['gated'])} gated metrics, "
        f"{len(result.get('history', []))} history entries"
    )
    return render_table(rows, _CELL_COLUMNS, title=title)
