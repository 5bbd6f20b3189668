"""The DeltaPath runtime agent (probe).

Executes the paper's instrumentation at the boundaries the interpreter
reports:

* **call site** (instrumented): ``ID += AV``; with call path tracking
  (CPT), also store the expected SID. A dispatch onto a back-edge target
  instead pushes a RECURSION entry and resets the ID.
* **function entry** (instrumented): with CPT, compare the expected SID
  against the function's own — mismatch pushes a UCP entry and resets;
  then, if the function is an anchor, push an ANCHOR entry and reset.
* **function exit**: pop whatever this frame's entry pushed, restoring
  the saved ID.
* **after call**: undo the site's effect (``ID -= AV`` or pop the
  RECURSION entry).

Uninstrumented functions (dynamically loaded classes, excluded library
components) hit dictionary misses at the top of each hook and fall
straight through — no encoding work, mirroring the paper's agent, which
never rewrites those classes.

Two implementation notes relative to the paper's Section 4.1:

* The expected-SID register is written at instrumented sites and *saved
  and restored around each instrumented call* (the paper: the expected
  SID "along with the call site and the current encoding ID value is
  saved"), so after a call returns, the register again describes the
  caller's last outstanding expectation. Between instrumented sites the
  register goes stale on purpose; a stale value coincidentally matching
  an entered function's SID is a (rare) missed detection inherent to the
  mechanism being reproduced.
* Where the paper saves ``(expected SID, call site, ID)`` at every
  instrumented site and pushes that saved triple on detection, we keep an
  *owner stack*: the node whose piece-relative encoding value the current
  ID represents (pushed at instrumented calls, popped on return). A UCP
  entry records the owner at detection time, which makes decoding resume
  at the correct frame even when instrumented calls completed between the
  last site and the detection — a corner where the saved-triple scheme
  would resume at an already-popped sibling frame. Same per-call cost
  (one push/pop), strictly better decoding; see DESIGN.md.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.core.stackmodel import EntryKind, StackEntry
from repro.errors import PlanSwapError, RuntimeEncodingError
from repro.graph.callgraph import CallSite
from repro.runtime.plan import DeltaPathPlan, PlanUpdate
from repro.runtime.probes import Probe

__all__ = ["DeltaPathProbe"]

# Frame flags: which pops a function's exit owes.
_F_NONE = 0
_F_UCP = 1
_F_ANCHOR = 2

# Call-record sentinel for recursion sites.
_REC = "rec"


class DeltaPathProbe(Probe):
    """Runtime encoding state driven by a :class:`DeltaPathPlan`."""

    def __init__(self, plan: DeltaPathPlan, cpt: bool = True):
        if cpt and plan.zero_elided:
            raise RuntimeEncodingError(
                "call path tracking needs every instrumented site to "
                "write its expected SID; rebuild the plan without "
                "elide_zero_av_sites (or run with cpt=False)"
            )
        self.cpt = cpt
        self.name = "deltapath+cpt" if cpt else "deltapath"
        self._bind_plan(plan)
        # Mutable encoding state.
        self._id = 0
        self._stack: List[StackEntry] = []
        self._expected_sid = plan.entry_sid
        self._expected_key: Optional[Tuple[str, Hashable]] = None
        # Owner stack (CPT only): (node, executed) whose piece-relative
        # value the current ID represents.
        self._owner: List[Tuple[str, bool]] = [(self._entry_node, True)]
        self._call_records: List[object] = []
        # Frame records: (flags, replaced owner-top or None).
        self._frames: List[Tuple[int, Optional[Tuple[str, bool]]]] = []
        # Interned encoding stacks. Every push and pop marks the stack
        # stale; the next snapshot interns it, so a snapshot hands out
        # the one shared tuple of each distinct stack and its small
        # integer key (key 0 is the empty stack).
        self._stale = False
        self._stack_keys: Dict[Tuple[StackEntry, ...], int] = {(): 0}
        #: Key -> the interned stack tuple.
        self.stack_table: List[Tuple[StackEntry, ...]] = [()]
        #: Key -> ``(depth, UCP entries)`` of that stack (Table 2's
        #: per-context stack depth and hazardous-UCP count).
        self.stack_stats: List[Tuple[int, int]] = [(0, 0)]
        #: Key of the stack the last :meth:`snapshot` returned.
        self.stack_key = 0
        self._interned: Tuple[StackEntry, ...] = ()
        # Statistics.
        self.ucp_detections = 0
        self.max_stack_depth = 0
        self.max_id_seen = 0
        self.hot_swaps = 0
        # Observability (repro.obs): with the default sample rate 0 the
        # snapshot hot path pays one integer increment and one test; a
        # rate N times every Nth snapshot into probe.snapshot_us.
        self._obs_rate = obs.probe_sample_rate()
        self._obs_n = 0
        self._obs_hist = (
            obs.histogram("probe.snapshot_us") if self._obs_rate else None
        )
        self._obs_tracer = obs.get_tracer() if self._obs_rate else None

    def _bind_plan(self, plan: DeltaPathPlan) -> None:
        """(Re)build the hot-path lookup tables from ``plan``.

        One combined record per instrumented site: (addition value or
        None, expected SID, first static target, recursive targets or
        None).
        """
        self.plan = plan
        self._site_info = {}
        for key, av in plan.site_av.items():
            self._site_info[key] = (
                av,
                plan.site_sid[key],
                plan.site_target[key],
                plan.site_recursion.get(key),
            )
        for key, rec in plan.site_recursion.items():
            if key not in self._site_info:
                self._site_info[key] = (
                    None,
                    plan.site_sid[key],
                    plan.site_target[key],
                    rec,
                )
        self._node_info = plan.node_info
        self._anchor_nodes = frozenset(
            node for node, (_sid, is_anchor) in plan.node_info.items()
            if is_anchor
        )
        self._entry_node = plan.graph.entry

    # ------------------------------------------------------------------
    # Probe hooks
    # ------------------------------------------------------------------
    def begin_execution(self, entry: str) -> None:
        self._id = 0
        self._stack.clear()
        self._stale = True
        self._call_records.clear()
        self._frames.clear()
        self._expected_sid = self.plan.entry_sid
        self._expected_key = None
        self._owner = [(self._entry_node, True)]

    def before_call(self, caller: str, label: Hashable, callee: str) -> None:
        key = (caller, label)
        info = self._site_info.get(key)
        if info is None:
            self._call_records.append(None)
            return
        av, sid, target, rec_targets = info
        if self.cpt and self._owner[-1][0] != caller:
            # The caller's frame predates its own instrumentation: it was
            # live inside a gap when a hot swap made its sites known (an
            # instrumented caller's entry always makes it the owner).
            # Its piece-relative position is unrepresentable, so treat
            # the call as uninstrumented — the callee's entry then runs
            # the SID check and re-establishes the gap representation.
            self._call_records.append(None)
            return
        if rec_targets is not None and callee in rec_targets:
            self._stack.append(
                StackEntry(
                    kind=EntryKind.RECURSION,
                    node=callee,
                    saved_id=self._id,
                    site=CallSite(caller, label),
                )
            )
            self._stale = True
            self._id = 0
            depth = len(self._stack)
            if depth > self.max_stack_depth:
                self.max_stack_depth = depth
            if self.cpt:
                self._call_records.append(
                    (_REC, self._expected_sid, self._expected_key)
                )
                self._expected_sid = sid
                self._expected_key = key
                self._owner.append((callee, False))
            else:
                self._call_records.append((_REC, 0, None))
            return
        if av is None:
            # A pure back-edge site dispatched to a non-recursive target
            # never happens (all its edges are back edges), but stay safe.
            self._call_records.append(None)
            return
        self._id += av
        if self.cpt:
            self._call_records.append(
                (av, self._expected_sid, self._expected_key)
            )
            self._expected_sid = sid
            self._expected_key = key
            # The owner must be a *static* target of the site (a dynamic
            # dispatch may land outside the encoded graph); all targets
            # share the addition value, so the first is arithmetically
            # exact. The callee's own entry corrects the name if it is
            # instrumented.
            self._owner.append((target, False))
        else:
            self._call_records.append((av, 0, None))

    def enter_function(self, node: str) -> None:
        if not self.cpt:
            # Without call path tracking only anchor entries/exits carry
            # any instrumentation (the paper's wo/CPT configuration).
            if node in self._anchor_nodes:
                self._stack.append(
                    StackEntry(
                        kind=EntryKind.ANCHOR, node=node, saved_id=self._id
                    )
                )
                self._stale = True
                self._id = 0
                depth = len(self._stack)
                if depth > self.max_stack_depth:
                    self.max_stack_depth = depth
            return
        info = self._node_info.get(node)
        if info is None:
            self._frames.append((_F_NONE, None))
            return
        sid, is_anchor = info
        flags = _F_NONE
        replaced: Optional[Tuple[str, bool]] = None
        if self.cpt:
            if self._expected_sid != sid:
                resume_node, resume_executed = self._owner[-1]
                self._stack.append(
                    StackEntry(
                        kind=EntryKind.UCP,
                        node=node,
                        saved_id=self._id,
                        site=(
                            CallSite(*self._expected_key)
                            if self._expected_key is not None
                            else None
                        ),
                        expected_sid=self._expected_sid,
                        resume_node=resume_node,
                        resume_executed=resume_executed,
                    )
                )
                self._stale = True
                self._id = 0
                self._owner.append((node, True))
                self.ucp_detections += 1
                flags |= _F_UCP
        if is_anchor:
            self._stack.append(
                StackEntry(kind=EntryKind.ANCHOR, node=node, saved_id=self._id)
            )
            self._stale = True
            self._id = 0
            if self.cpt:
                self._owner.append((node, True))
            flags |= _F_ANCHOR
        if self.cpt and flags == _F_NONE:
            # Plain instrumented entry: the current ID's value now belongs
            # to this (executing) function.
            replaced = self._owner[-1]
            self._owner[-1] = (node, True)
        elif flags:
            depth = len(self._stack)
            if depth > self.max_stack_depth:
                self.max_stack_depth = depth
        self._frames.append((flags, replaced))

    def exit_function(self, node: str) -> None:
        if not self.cpt:
            if node in self._anchor_nodes:
                self._id = self._pop(EntryKind.ANCHOR, node).saved_id
            return
        if not self._frames:
            raise RuntimeEncodingError(f"unbalanced exit from {node!r}")
        flags, replaced = self._frames.pop()
        if flags & _F_ANCHOR:
            self._id = self._pop(EntryKind.ANCHOR, node).saved_id
            if self.cpt:
                self._owner.pop()
        if flags & _F_UCP:
            self._id = self._pop(EntryKind.UCP, node).saved_id
            if self.cpt:
                self._owner.pop()
        if replaced is not None:
            self._owner[-1] = replaced

    def after_call(self, caller: str, label: Hashable, callee: str) -> None:
        if not self._call_records:
            raise RuntimeEncodingError(
                f"unbalanced after_call at {caller}@{label}"
            )
        record = self._call_records.pop()
        if record is None:
            return
        kind_or_av, saved_sid, saved_key = record
        if kind_or_av is _REC:
            entry = self._stack.pop()
            if entry.kind is not EntryKind.RECURSION:
                raise RuntimeEncodingError(
                    f"expected RECURSION on stack top, found {entry.kind}"
                )
            self._stale = True
            self._id = entry.saved_id
        else:
            self._id -= kind_or_av
        if self.cpt:
            self._expected_sid = saved_sid
            self._expected_key = saved_key
            self._owner.pop()

    # ------------------------------------------------------------------
    # Plan repair
    # ------------------------------------------------------------------
    def hot_swap(self, update: PlanUpdate, at_node: str) -> None:
        """Swap in a repaired plan without losing the live context.

        ``update`` comes from :meth:`DeltaPathPlan.apply_delta` on the
        plan this probe is running; ``at_node`` is the node of the
        current innermost instrumented frame — any safe point where
        :meth:`snapshot` would be valid, such as the function entry that
        just detected a hazardous UCP. The whole encoding state (stack,
        current ID, per-call records, expected-SID register) is rewritten
        into the new encoding, so the in-flight context keeps decoding —
        a UCP caused by dynamic loading becomes a *repair*, not a restart.

        Raises :class:`~repro.errors.PlanSwapError`, leaving the probe
        untouched, when the live state cannot be expressed under the new
        encoding (see :meth:`PlanUpdate.remap_snapshot`); the caller may
        retry at a later safe point or fall back to ``begin_execution``.
        """
        t_start = time.perf_counter()
        registry = obs.get_registry()
        try:
            with obs.span("probe.hot_swap", node=at_node):
                self._hot_swap(update, at_node)
        except PlanSwapError:
            registry.counter("probe.hot_swap_failures").inc()
            raise
        registry.counter("probe.hot_swaps").inc()
        registry.histogram("probe.hot_swap_us").observe(
            time.perf_counter() - t_start
        )

    def _hot_swap(self, update: PlanUpdate, at_node: str) -> None:
        if update.old_plan is not self.plan:
            raise PlanSwapError(
                "plan update was derived from a different plan than the "
                "one this probe is running"
            )
        if self.cpt and update.plan.zero_elided:
            raise RuntimeEncodingError(
                "call path tracking needs every instrumented site to "
                "write its expected SID; the repaired plan elides "
                "zero-AV sites"
            )
        remapped = update.remap_snapshot(at_node, tuple(self._stack), self._id)
        # Rewrite the per-call bookkeeping: each non-None record pairs
        # with one context event, in push (root-first) order.
        record_events = [
            event for event in remapped.events
            if event[0] == "rec" or event[3]
        ]
        new_records: List[object] = []
        index = 0
        for record in self._call_records:
            if record is None:
                new_records.append(None)
                continue
            if index >= len(record_events):
                raise PlanSwapError(
                    "more in-flight call records than decoded context "
                    "calls; probe state is inconsistent"
                )
            event = record_events[index]
            index += 1
            kind_or_av, _saved_sid, saved_key = record
            if (kind_or_av is _REC) != (event[0] == "rec"):
                raise PlanSwapError(
                    "in-flight call records disagree with the decoded "
                    "context about recursion"
                )
            new_value = _REC if kind_or_av is _REC else event[2]
            new_records.append(
                (new_value, self._remap_sid(update.plan, saved_key), saved_key)
            )
        if index != len(record_events):
            raise PlanSwapError(
                "decoded context contains calls with no in-flight record; "
                "probe state is inconsistent"
            )
        new_expected = self._remap_sid(update.plan, self._expected_key)
        # All checks passed: commit atomically.
        self._bind_plan(update.plan)
        self._stack = list(remapped.stack)
        self.max_stack_depth = max(self.max_stack_depth, len(self._stack))
        self._stale = True
        self._id = remapped.current_id
        self._call_records = new_records
        if self.cpt:
            self._expected_sid = new_expected
        self.hot_swaps += 1

    def _remap_sid(self, plan: DeltaPathPlan, key) -> int:
        if not self.cpt:
            return 0
        if key is None:
            return plan.entry_sid
        try:
            return plan.site_sid[key]
        except KeyError:
            raise PlanSwapError(
                f"site {key} has no expected SID under the new plan"
            ) from None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def snapshot(self, node: str) -> Tuple[Tuple[StackEntry, ...], int]:
        """The current encoding: ``(stack, ID)`` — hashable, decodable.

        The stack is interned: equal stacks are the *same* tuple object
        for the life of the probe, and :attr:`stack_key` names it. Only
        the first snapshot after a push or pop pays for interning.
        """
        if self._id > self.max_id_seen:
            self.max_id_seen = self._id
        self._obs_n = n = self._obs_n + 1
        rate = self._obs_rate
        if rate and not n % rate:
            t0 = time.perf_counter()
            if self._stale:
                self._intern()
            out = (self._interned, self._id)
            self._obs_hist.observe(time.perf_counter() - t0)
            tracer = self._obs_tracer
            if tracer.enabled:
                tracer.instant(
                    "probe.snapshot", node=node, stack_depth=len(out[0])
                )
            return out
        if self._stale:
            self._intern()
        return self._interned, self._id

    def end_execution(self) -> None:
        """Flush the sampled-observation tallies into the registry."""
        if self._obs_rate and self._obs_n:
            obs.counter("probe.snapshots").inc(self._obs_n)
            self._obs_n = 0

    def _intern(self) -> None:
        """Point :attr:`stack_key` at the live stack, interning it if new.

        ``stack_stats`` counts the paper's way: the entry function is
        always an anchor, so the stack's bottom element records the
        entry node ("ideally, the stack only contains one element") and
        ``len(stack)`` is the paper's depth.
        """
        stack = tuple(self._stack)
        key = self._stack_keys.get(stack)
        if key is None:
            key = len(self.stack_table)
            self._stack_keys[stack] = key
            self.stack_table.append(stack)
            self.stack_stats.append((
                len(stack),
                sum(1 for e in stack if e.kind is EntryKind.UCP),
            ))
        self.stack_key = key
        self._interned = self.stack_table[key]
        self._stale = False

    # ------------------------------------------------------------------
    def _pop(self, kind: EntryKind, node: str) -> StackEntry:
        if not self._stack:
            raise RuntimeEncodingError(
                f"encoding stack empty popping {kind.name} at {node!r}"
            )
        entry = self._stack.pop()
        self._stale = True
        if entry.kind is not kind:
            raise RuntimeEncodingError(
                f"expected {kind.name} on stack top at {node!r}, found "
                f"{entry.kind.name}"
            )
        return entry
