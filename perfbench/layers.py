"""Per-layer accounting around the public entry points the journey calls.

The benchmark never edits the system: in a traced run it replaces a
handful of *instance attributes* (``service.engine.decode_batch``,
``service.tree.add_counts``, ``service.store.intern``,
``service.submit_batch``) with wrappers, and times its own calls into
``Interpreter.run``, ``flush_segments``, ``compact_segments`` and the
``QueryEngine``. Each wrapped call measures

* busy time — ``time.thread_time`` of the calling thread, so a thread
  waiting on a queue, a lock, the GIL or a child process is not busy;
* wall time — ``time.perf_counter``; wait = wall - busy;

and subtracts what wrapped calls nested inside it (on the same thread)
already claimed, so every layer reports *self* time and the layers add
up instead of double counting. Coarse calls are also recorded as spans
on a :class:`repro.obs.Tracer`, which exports the Chrome trace.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

_thread_time = time.thread_time
_perf = time.perf_counter


class LayerStat:
    """Accumulated self time of one wrapped entry point."""

    __slots__ = ("calls", "busy", "wall", "items", "walls")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.wall = 0.0
        #: Work items the calls carried (keys decoded, samples pushed...).
        self.items = 0
        #: Inclusive wall time of each call, for exact percentiles.
        self.walls: List[float] = []

    @property
    def wait(self) -> float:
        return max(0.0, self.wall - self.busy)


class LayerClock:
    """Self busy/wall time per layer, optionally with tracer spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stats: Dict[str, LayerStat] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()

    def stat(self, name: str) -> LayerStat:
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = LayerStat()
            return stat

    def call(self, name: str, fn: Callable, *args, items: int = 0, span: bool = True, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one call of layer ``name``."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        children = [0.0, 0.0]
        stack.append(children)
        tracer = self.tracer if span else None
        sp = tracer.span(name) if tracer is not None else None
        if sp is not None:
            sp.__enter__()
        w0 = _perf()
        c0 = _thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            busy = _thread_time() - c0
            wall = _perf() - w0
            if sp is not None:
                sp.set("cpu_us", round(busy * 1e6, 1))
                sp.__exit__(None, None, None)
            stack.pop()
            if stack:
                stack[-1][0] += busy
                stack[-1][1] += wall
            stat = self.stat(name)
            with self._lock:
                stat.calls += 1
                stat.items += items
                stat.busy += busy - children[0]
                stat.wall += wall - children[1]
                stat.walls.append(wall)

    def wrap(self, name: str, fn: Callable, *, span: bool = True,
             count_items: Optional[Callable] = None) -> Callable:
        """``fn`` as a layer-timed callable (for instance-attribute patching)."""

        def wrapped(*args, **kwargs):
            items = count_items(*args) if count_items is not None else 0
            return self.call(name, fn, *args, items=items, span=span, **kwargs)

        return wrapped

    def busy_total(self) -> float:
        with self._lock:
            return sum(s.busy for s in self.stats.values())


def instrument_service(clock: LayerClock, service) -> None:
    """Wrap the service's public per-layer entry points in place."""
    service.submit_batch = clock.wrap(
        "service.ingest", service.submit_batch,
        count_items=lambda batch, *rest: len(batch),
    )
    service.engine.decode_batch = clock.wrap(
        "service.engine", service.engine.decode_batch,
        count_items=lambda keys, *rest: len(keys),
    )
    service.tree.add_counts = clock.wrap("service.shards", service.tree.add_counts)
    # One call per decoded context: too fine for a span each.
    service.store.intern = clock.wrap("service.store", service.store.intern, span=False)
