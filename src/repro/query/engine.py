""":class:`QueryEngine` — windowed analytics over the segment store.

Every query reduces to the same primitive: sum the delta rows of the
segments whose half-open window overlaps the query window (optionally
filtered to one plan epoch) into one plain integer per path, then shape
the result. Because segments are immutable and the sum is
order-independent, any answer is a pure function of the segment set —
the property the chaos harness turns into a byte-equivalence oracle
across crash/recovery. Top-K ranks those integers first and compares
paths only for the contexts that can make the cut.

Query shapes mirror the in-memory service API (``top_contexts``,
``function_totals``, ``ucp_stats``) plus the ones only a durable store
can answer: window-vs-window :meth:`diff`, index-served
:meth:`paths_through`, folded-stack :meth:`flamegraph` export, and
:func:`ucp_forensics` — the join from dead-letter triage records to
the :class:`~repro.analysis.incremental.GraphDelta` epoch whose hot
swap explains them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import QueryError
from repro.postprocess import top_k
from repro.query.flamegraph import to_folded
from repro.query.manifest import SegmentStore
from repro.query.segment import span_overlaps

__all__ = ["QueryEngine", "WindowDiff", "ucp_forensics"]

Path = Tuple[str, ...]
Window = Tuple[float, float]


def _check_window(window: Optional[Window]) -> Optional[Window]:
    if window is None:
        return None
    lo, hi = float(window[0]), float(window[1])
    if math.isnan(lo) or math.isnan(hi):
        raise QueryError(f"query window has a NaN bound: [{lo}, {hi})")
    if hi < lo:
        raise QueryError(f"query window is inverted: [{lo}, {hi})")
    return (lo, hi)


def _live_spans(seg, window: Optional[Window]) -> Optional[List[bool]]:
    """Which spans of a compacted segment the window overlaps.

    None when every row counts: no window, a single-span segment (the
    caller already kept only overlapping segments), or a window that
    covers every span. Otherwise ``live[row_spans[i]]`` decides row
    ``i``, so a merged segment answers exactly like the deltas it
    replaced.
    """
    if window is None or not seg.state.multi_span:
        return None
    live = [span_overlaps(lo, hi, *window) for lo, hi in seg.spans]
    return None if all(live) else live


def _window_rows(seg, window: Optional[Window], epoch: Optional[int]):
    """The rows of ``seg`` that count toward ``window`` and ``epoch``."""
    rows = seg.rows
    live = _live_spans(seg, window)
    if live is not None:
        rows = [
            row for row, span in zip(rows, seg.state.row_spans) if live[span]
        ]
    if epoch is not None:
        rows = [row for row in rows if row[3] == epoch]
    return rows


@dataclass(frozen=True)
class WindowDiff:
    """What changed between two time windows, context by context."""

    window_a: Window
    window_b: Window
    #: Contexts with samples in B but none in A: {path: count_in_b}.
    appeared: Dict[Path, int] = field(default_factory=dict)
    #: Contexts with samples in A but none in B: {path: count_in_a}.
    disappeared: Dict[Path, int] = field(default_factory=dict)
    #: Contexts in both with different counts: {path: (a, b)}.
    changed: Dict[Path, Tuple[int, int]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not (self.appeared or self.disappeared or self.changed)

    def to_json(self) -> dict:
        def fold(mapping):
            return {";".join(path): value for path, value in mapping.items()}

        return {
            "window_a": list(self.window_a),
            "window_b": list(self.window_b),
            "appeared": fold(self.appeared),
            "disappeared": fold(self.disappeared),
            "changed": {
                key: list(value)
                for key, value in fold(self.changed).items()
            },
        }


class QueryEngine:
    """Read-side API over one segment directory (or a store).

    ``source`` may be a directory path, a :class:`SegmentStore`, or any
    store-shaped object (``refresh()``/``segments()``) — notably a
    :class:`~repro.query.manifest.CompositeSegmentStore` unioning the
    per-worker stores of a multi-process service.

    ``pin_lease_s`` opts a cross-process reader into **snapshot
    pinning**: every :meth:`refresh` plants/renews an advisory
    :class:`~repro.query.locks.SnapshotPin` recording the manifest
    generation being served, so a compactor in another process defers
    deleting that generation's files until this engine refreshes past
    it (or the lease lapses). Loaded segments are immaterial to
    deletion anyway — they are fully materialized in memory — the pin
    protects the listing→load window of the *next* refresh. Call
    :meth:`close` (or use the engine as a context manager) to release
    the pin.
    """

    def __init__(self, source, pin_lease_s: Optional[float] = None):
        if isinstance(source, str):
            self.store = SegmentStore(source)
        elif callable(getattr(source, "segments", None)) and callable(
            getattr(source, "refresh", None)
        ):
            self.store = source
        else:
            raise QueryError(
                f"QueryEngine source must be a directory path or a "
                f"segment store, not {type(source).__name__}"
            )
        self._pin = None
        if pin_lease_s is not None:
            directory = getattr(self.store, "directory", None)
            if not isinstance(directory, str):
                raise QueryError(
                    "snapshot pinning needs a single-directory store"
                )
            from repro.query.locks import SnapshotPin

            self._pin = SnapshotPin(directory, lease_s=pin_lease_s)

    def refresh(self) -> "QueryEngine":
        # Pin *before* listing: a brand-new pin (generation -1) blocks
        # every deletion, so no file can vanish between the manifest
        # read and the segment loads; after the refresh the pin renews
        # onto the generation actually served.
        if self._pin is not None and not self._pin.held:
            self._pin.acquire()
        self.store.refresh()
        if self._pin is not None:
            self._pin.renew(getattr(self.store, "generation", 0))
        return self

    @property
    def pinned_generation(self) -> Optional[int]:
        """The generation this reader's pin protects, or None."""
        if self._pin is None or not self._pin.held:
            return None
        return self._pin.generation

    def close(self) -> None:
        """Release the snapshot pin (if any)."""
        if self._pin is not None:
            self._pin.release()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def segments(self, window: Optional[Window] = None) -> List:
        segs = self.store.segments()
        window = _check_window(window)
        if window is None:
            return segs
        return [s for s in segs if s.overlaps(*window)]

    # ------------------------------------------------------------------
    def span(self) -> Optional[Window]:
        """The wall-clock range the store covers, or None when empty."""
        segs = self.store.segments()
        if not segs:
            return None
        return (min(s.t_lo for s in segs), max(s.t_hi for s in segs))

    def _counts(
        self,
        window: Optional[Window] = None,
        epoch: Optional[int] = None,
    ) -> Dict[Path, int]:
        """Sum delta rows over every overlapping segment: {path: count},
        zero counts dropped.

        One plain integer per path and no per-row container, so a
        query over many rows allocates nothing the garbage collector
        tracks. Rows of a compacted (multi-span) segment count only
        when *their own span* overlaps the window.
        """
        window = _check_window(window)
        out: Dict[Path, int] = {}
        get = out.get
        for seg in self.segments(window):
            for path, count, _gaps, _epoch in _window_rows(seg, window, epoch):
                if count:
                    out[path] = get(path, 0) + count
        return out

    # ------------------------------------------------------------------
    def top_contexts(
        self,
        k: int = 10,
        *,
        window: Optional[Window] = None,
        epoch: Optional[int] = None,
    ) -> List[Tuple[int, Path]]:
        """The ``k`` hottest contexts in the window, heaviest first.

        Same shape and tie-break as ``ContextService.top_contexts``
        (count descending, then path ascending — both call
        :func:`repro.postprocess.top_k`) so in-memory and durable
        answers are directly comparable. Paths are compared only for
        contexts whose count reaches the k-th largest. Raises
        :class:`QueryError` when ``k`` is negative.
        """
        if k < 0:
            raise QueryError(f"top_contexts needs k >= 0, got {k}")
        start = time.perf_counter()
        ranked = top_k(self._counts(window, epoch), k)
        obs.histogram("query.topk_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return ranked

    def function_totals(
        self,
        leaf_only: bool = False,
        *,
        window: Optional[Window] = None,
        epoch: Optional[int] = None,
    ) -> Dict[str, int]:
        """Per-function rollups over the window.

        ``leaf_only=True`` gives exclusive/self counts (context ends at
        the function); otherwise inclusive counts (function appears
        anywhere, credited once per observation).
        """
        start = time.perf_counter()
        totals: Dict[str, int] = {}
        for path, count in self._counts(window, epoch).items():
            if not path:
                continue
            if leaf_only:
                totals[path[-1]] = totals.get(path[-1], 0) + count
            else:
                for name in set(path):
                    totals[name] = totals.get(name, 0) + count
        obs.histogram("query.rollup_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return totals

    def paths_through(
        self,
        function: str,
        *,
        window: Optional[Window] = None,
        epoch: Optional[int] = None,
    ) -> Dict[Path, int]:
        """Every context containing ``function``, with its window count.

        Served by the per-segment inverted index: only the posting-list
        rows are touched, not every row of every segment.
        """
        start = time.perf_counter()
        window = _check_window(window)
        out: Dict[Path, int] = {}
        for seg in self.segments(window):
            rows = seg.rows
            row_spans = seg.state.row_spans
            live = _live_spans(seg, window)
            for row_idx in seg.rows_through(function):
                path, count, _gaps, row_epoch = rows[row_idx]
                if not count or (epoch is not None and row_epoch != epoch):
                    continue
                if live is not None and not live[row_spans[row_idx]]:
                    continue
                out[path] = out.get(path, 0) + count
        obs.histogram("query.through_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return out

    def diff(
        self,
        window_a: Window,
        window_b: Window,
        *,
        epoch: Optional[int] = None,
    ) -> WindowDiff:
        """Window-vs-window comparison: what appeared/disappeared/moved.

        The canonical "what did the hot swap change?" query: diff the
        windows on either side of a plan install.
        """
        start = time.perf_counter()
        window_a = _check_window(window_a)
        window_b = _check_window(window_b)
        a = self._counts(window_a, epoch)
        b = self._counts(window_b, epoch)
        appeared = {p: c for p, c in b.items() if p not in a}
        disappeared = {p: c for p, c in a.items() if p not in b}
        changed = {
            p: (a[p], b[p]) for p in a.keys() & b.keys() if a[p] != b[p]
        }
        obs.histogram("query.diff_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return WindowDiff(window_a, window_b, appeared, disappeared, changed)

    def flamegraph(
        self,
        *,
        window: Optional[Window] = None,
        epoch: Optional[int] = None,
    ) -> str:
        """The window's contexts in folded-stack flame-graph format."""
        start = time.perf_counter()
        counts = self._counts(window, epoch)
        counts.pop((), None)  # the empty context has no frame to fold
        folded = to_folded(counts)
        obs.histogram("query.flame_us").observe_us(
            (time.perf_counter() - start) * 1e6
        )
        return folded

    def ucp_stats(
        self,
        *,
        window: Optional[Window] = None,
        epoch: Optional[int] = None,
    ) -> Dict[str, int]:
        """Gap-crossing (UCP) totals over the window — same shape as
        ``ContextService.ucp_stats``."""
        window = _check_window(window)
        samples = 0
        gaps = 0
        for seg in self.segments(window):
            for _path, count, row_gaps, _epoch in _window_rows(
                seg, window, epoch
            ):
                samples += count
                gaps += row_gaps
        return {
            "samples": samples,
            "gap_samples": gaps,
            "gap_free_samples": samples - gaps,
        }

    def forensics(
        self,
        dead_letters,
        epoch_history: Optional[Dict[int, dict]] = None,
    ) -> List[dict]:
        """:func:`ucp_forensics` over this store's segments."""
        return ucp_forensics(
            dead_letters,
            epoch_history=epoch_history,
            segments=self.store.segments(),
        )

    def stats(self) -> dict:
        out = self.store.stats()
        span = self.span()
        out["span"] = list(span) if span else None
        return out


# ----------------------------------------------------------------------
def ucp_forensics(
    dead_letters,
    epoch_history: Optional[Dict[int, dict]] = None,
    segments=None,
) -> List[dict]:
    """Join dead-letter triage records to the plan change that explains
    them.

    Dead letters carry the epoch + plan fingerprint they failed under
    (stamped at quarantine time). Grouping by that pair and attaching
    the epoch's recorded :class:`GraphDelta` summary — plus whether a
    newer epoch superseded it, and which segments captured traffic
    decoded under the same fingerprint — turns a quarantine queue from
    "N failures" into "N failures, all from the epoch that removed
    ``libfoo``, superseded 40s later".

    ``dead_letters`` is an iterable of :class:`DeadLetter` (or any
    object with ``.epoch``/``.fingerprint``/``.error``/``.attempts``);
    ``epoch_history`` maps epoch → ``{"fingerprint", "delta",
    "installed_at"}`` as kept by ``ContextService.epoch_history()``.
    """
    history = epoch_history or {}
    groups: Dict[Tuple[int, str], dict] = {}
    for letter in dead_letters:
        epoch = getattr(letter, "epoch", -1)
        fingerprint = getattr(letter, "fingerprint", "") or ""
        key = (epoch, fingerprint)
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "epoch": epoch,
                "fingerprint": fingerprint,
                "letters": 0,
                "attempts": 0,
                "errors": {},
            }
        group["letters"] += 1
        group["attempts"] += getattr(letter, "attempts", 0)
        error = getattr(letter, "error_type", "") or ""
        if not error:
            raw = getattr(letter, "error", "") or ""
            error = raw.split(":", 1)[0] or "unknown"
        group["errors"][error] = group["errors"].get(error, 0) + 1
    newest_epoch = max(history) if history else None
    for (epoch, fingerprint), group in groups.items():
        record = history.get(epoch)
        if record is not None:
            group["delta"] = record.get("delta")
            group["installed_at"] = record.get("installed_at")
            recorded_fp = record.get("fingerprint", "")
            group["fingerprint_match"] = (
                bool(fingerprint) and fingerprint == recorded_fp
            )
        else:
            group["delta"] = None
            group["installed_at"] = None
            group["fingerprint_match"] = False
        group["superseded"] = (
            newest_epoch is not None and epoch < newest_epoch
        )
        if segments:
            group["segments"] = [
                seg.seq for seg in segments
                if fingerprint and seg.fingerprint == fingerprint
            ]
        else:
            group["segments"] = []
    return sorted(
        groups.values(), key=lambda g: (g["epoch"], g["fingerprint"])
    )
