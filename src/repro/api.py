"""The unified public API: one documented entry point for everything.

Each layer of the reproduction has its own entry point —
``encode_pcce``, ``encode_deltapath``, ``encode_anchored``,
``build_plan_from_graph``, ``build_plan`` — and every one of them takes
its options as keywords only (``encode_anchored(graph, width=W32)``; a
positional option raises :class:`TypeError`). This module is the facade
that sits in front of all of them, for both the batch path and the
incremental (dynamic class loading) path:

* :func:`encode` — run any of the three encoding algorithms with one
  uniform keyword signature; every result satisfies the
  :class:`Encoding` protocol.
* :class:`PlanConfig` — every knob of the static pipeline in one
  (frozen, reusable) place.
* :class:`Encoder` — a configured pipeline: build plans, spawn probes,
  and repair plans incrementally when classes load at runtime.
* :class:`ContextService` / :class:`ServiceConfig` — the collection
  backend (:mod:`repro.service`): sharded, cached decode + ingestion of
  probe snapshots, with top-K/rollup/UCP queries. :meth:`Encoder.service`
  builds one bound to a plan.

Quickstart::

    from repro.api import Encoder, PlanConfig

    enc = Encoder(PlanConfig(width=W32, application_only=True))
    plan = enc.plan(program)           # 0-CFA + Algorithm 2 + SIDs
    probe = enc.probe(plan)            # runtime agent
    service = enc.service(plan).start()     # decode/aggregate backend
    ...                                # run instrumented code
    update = enc.apply_delta(plan, delta)   # incremental repair
    probe.hot_swap(update, at_node)         # live state survives
    service.install_update(update)          # new decode epoch, no loss

The incremental lifecycle (detect UCP -> build delta -> apply ->
hot-swap) and the service (ingest -> aggregate -> query) are documented
end to end in docs/API.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

try:  # Protocol needs Python >= 3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.analysis.callgraph_builder import Policy
from repro.analysis.incremental import (
    GraphDelta,
    apply_delta,
    delta_for_loaded_classes,
    diff_graphs,
)
from repro.core.anchored import AnchoredEncoding, encode_anchored
from repro.core.deltapath import DeltaPathEncoding, encode_deltapath
from repro.core.pcce import PCCEEncoding, encode_pcce
from repro.core.reencode import ReencodeResult, reencode
from repro.core.widths import UNBOUNDED, W64, Width
from repro.graph.callgraph import CallEdge, CallGraph, CallSite
from repro.lang.model import Program
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import (
    DeltaPathPlan,
    PlanUpdate,
    build_plan,
    build_plan_from_graph,
)
from repro.service import ContextService, SampleBatch, ServiceConfig

__all__ = [
    "ALGORITHMS",
    "ContextService",
    "Encoder",
    "SampleBatch",
    "Encoding",
    "GraphDelta",
    "PlanConfig",
    "PlanUpdate",
    "ReencodeResult",
    "ServiceConfig",
    "apply_delta",
    "delta_for_loaded_classes",
    "diff_graphs",
    "encode",
    "reencode",
]


@runtime_checkable
class Encoding(Protocol):
    """What every encoding result can do, regardless of algorithm.

    :class:`~repro.core.pcce.PCCEEncoding`,
    :class:`~repro.core.deltapath.DeltaPathEncoding` and
    :class:`~repro.core.anchored.AnchoredEncoding` all satisfy this
    protocol (checked by tests), so callers of :func:`encode` can switch
    algorithms without touching downstream code.
    """

    def site_increment(self, site: CallSite) -> int:
        """The addition value instrumented at ``site``."""
        ...

    @property
    def max_id(self) -> int:
        """Largest encoding ID any context produces (0 when empty)."""
        ...

    def decode(
        self, node: str, value: int, stop: Optional[str] = None
    ) -> List[CallEdge]:
        """Recover the context of ``node`` encoded as ``value``."""
        ...


#: Algorithm names accepted by :func:`encode`.
ALGORITHMS = ("pcce", "deltapath", "anchored")


def encode(
    graph: CallGraph,
    algorithm: str = "deltapath",
    *,
    width: Width = UNBOUNDED,
    edge_priority: Optional[Callable[[CallEdge], float]] = None,
    strict_reachability: bool = False,
    initial_anchors: Iterable[str] = (),
    max_restarts: Optional[int] = None,
) -> Union[PCCEEncoding, DeltaPathEncoding, AnchoredEncoding]:
    """Encode ``graph`` with the named algorithm, uniform options.

    ``algorithm`` is ``"pcce"`` (the per-edge baseline, Section 2),
    ``"deltapath"`` (Algorithm 1: per-site addition values) or
    ``"anchored"`` (Algorithm 2: width-bounded with anchors). All three
    share ``width``, ``edge_priority`` and ``strict_reachability`` and
    raise the same :class:`~repro.errors.EncodingError` subclasses
    (overflow -> ``EncodingOverflowError``, unreachable callers under
    ``strict_reachability`` -> ``UnreachableCallerError``).

    ``initial_anchors`` and ``max_restarts`` steer Algorithm 2's anchor
    placement and are rejected for the other algorithms (they have no
    anchors to place).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{', '.join(ALGORITHMS)}"
        )
    initial_anchors = tuple(initial_anchors)
    if algorithm != "anchored" and (initial_anchors or max_restarts):
        raise TypeError(
            f"initial_anchors/max_restarts only apply to the 'anchored' "
            f"algorithm, not {algorithm!r}"
        )
    if algorithm == "pcce":
        return encode_pcce(
            graph,
            width=width,
            edge_priority=edge_priority,
            strict_reachability=strict_reachability,
        )
    if algorithm == "deltapath":
        return encode_deltapath(
            graph,
            width=width,
            edge_priority=edge_priority,
            strict_reachability=strict_reachability,
        )
    return encode_anchored(
        graph,
        width=width,
        edge_priority=edge_priority,
        strict_reachability=strict_reachability,
        initial_anchors=initial_anchors,
        max_restarts=max_restarts,
    )


@dataclass(frozen=True)
class PlanConfig:
    """Every knob of the static pipeline, in one place.

    Consolidates the keyword arguments previously scattered across
    :func:`~repro.runtime.plan.build_plan`,
    :func:`~repro.runtime.plan.build_plan_from_graph` and the
    ``encode_*`` functions. Frozen so a config can be shared between an
    :class:`Encoder`, tests, and benchmark harnesses without defensive
    copying.
    """

    #: Call-graph construction policy (programs only).
    policy: Policy = Policy.ZERO_CFA
    #: Integer width the encoding must fit (Algorithm 2 adds anchors).
    width: Width = W64
    #: Selective encoding: exclude ``library`` nodes (Section 4.2).
    application_only: bool = False
    #: Hot edges first: they receive the zero addition values.
    edge_priority: Optional[Callable[[CallEdge], float]] = None
    #: Drop zero-AV sites from the tables (Section 8; breaks CPT).
    elide_zero_av_sites: bool = False
    #: Seed anchors for Algorithm 2 (it may still add more).
    initial_anchors: Tuple[str, ...] = ()
    #: Whether probes built from this config run call path tracking.
    cpt: bool = True


class Encoder:
    """A configured encoding pipeline: batch builds plus live repair.

    Construct with a :class:`PlanConfig` (or config keywords directly)::

        enc = Encoder(width=W32, application_only=True)

    then use one object for the whole lifecycle: :meth:`plan` /
    :meth:`plan_from_graph` for the batch path, :meth:`probe` for the
    runtime agent, :meth:`encode` for bare encodings, and
    :meth:`apply_delta` for incremental repair after dynamic loading.
    """

    def __init__(self, config: Optional[PlanConfig] = None, **kwargs):
        if config is not None and kwargs:
            raise TypeError(
                "pass either a PlanConfig or config keywords, not both"
            )
        self.config = config if config is not None else PlanConfig(**kwargs)

    # -- batch path ----------------------------------------------------
    def encode(
        self, graph: CallGraph, algorithm: str = "anchored"
    ) -> Union[PCCEEncoding, DeltaPathEncoding, AnchoredEncoding]:
        """Encode a call graph with this config's width and priorities."""
        return encode(
            graph,
            algorithm,
            width=self.config.width,
            edge_priority=self.config.edge_priority,
            initial_anchors=(
                self.config.initial_anchors if algorithm == "anchored" else ()
            ),
        )

    def plan(self, program: Program) -> DeltaPathPlan:
        """Full pipeline: program -> call graph -> instrumentation plan."""
        return build_plan(
            program,
            policy=self.config.policy,
            width=self.config.width,
            application_only=self.config.application_only,
            edge_priority=self.config.edge_priority,
            elide_zero_av_sites=self.config.elide_zero_av_sites,
            initial_anchors=self.config.initial_anchors,
        )

    def plan_from_graph(self, graph: CallGraph) -> DeltaPathPlan:
        """Plan from an already-built call graph."""
        return build_plan_from_graph(
            graph,
            width=self.config.width,
            application_only=self.config.application_only,
            edge_priority=self.config.edge_priority,
            elide_zero_av_sites=self.config.elide_zero_av_sites,
            initial_anchors=self.config.initial_anchors,
        )

    def probe(self, plan: DeltaPathPlan) -> DeltaPathProbe:
        """The runtime agent for a plan, honoring the config's ``cpt``."""
        return DeltaPathProbe(plan, cpt=self.config.cpt)

    def service(
        self,
        plan: DeltaPathPlan,
        config: Optional[ServiceConfig] = None,
        **kwargs,
    ) -> ContextService:
        """The collection backend for a plan (not yet started).

        Pass a :class:`ServiceConfig` or its keywords (``shards``,
        ``workers``, ``queue_capacity``, ``backpressure``, cache sizes).
        Call :meth:`ContextService.start` (or use it as a context
        manager) before submitting; wire collection with
        ``ContextCollector(sink=service.batch_sink())`` and call
        ``collector.close()`` after the run to submit the buffered
        tail.
        """
        return ContextService(plan, config, **kwargs)

    # -- incremental path ----------------------------------------------
    def delta_for_loaded_classes(
        self, program: Program, plan: DeltaPathPlan, loaded: Iterable[str]
    ) -> GraphDelta:
        """Scoped re-analysis: the delta newly loaded classes induce."""
        return delta_for_loaded_classes(
            program, plan.graph, loaded, policy=self.config.policy
        )

    def apply_delta(
        self, plan: DeltaPathPlan, delta: GraphDelta
    ) -> PlanUpdate:
        """Repair ``plan`` incrementally; see
        :meth:`~repro.runtime.plan.DeltaPathPlan.apply_delta`."""
        return plan.apply_delta(delta)

    def repair(
        self,
        probe: DeltaPathProbe,
        delta: GraphDelta,
        at_node: str,
    ) -> PlanUpdate:
        """One-call repair: apply the delta and hot-swap the live probe.

        The UCP-triggered path: detect a hazardous UCP at ``at_node``,
        build the delta (e.g. :meth:`delta_for_loaded_classes`), then
        call this — the probe keeps running under the repaired plan with
        its live context intact. Raises
        :class:`~repro.errors.PlanSwapError` (probe untouched) when the
        live state cannot be remapped; the caller may retry later.
        """
        update = probe.plan.apply_delta(delta)
        probe.hot_swap(update, at_node)
        return update
