"""The decode engine: epoch-aware decoding straight to context-trie pids.

The paper's economics are "encode on the hot path, decode later" — so a
collection backend decodes the *same* hot contexts over and over, and
the contexts it decodes share long prefixes. The engine decodes a
sample key ``(epoch, node, stack, id)`` to a **pid**, the id of the
context's node in the shared :class:`~repro.service.store.ContextStore`
prefix trie, and never builds the path on the ingest path:

* **Prefix states.** DeltaPath decodes bottom-up, one in-edge at a
  time, and the state after one step — the caller and the residual,
  under the same stack — is itself a sample key: the one the caller's
  own sample carries. Its context is the current one minus the last
  frame. At a piece start the walk hands off to the stack entry below
  (ANCHOR keeps the pid of ``(anchor, saved ID)``; RECURSION adds its
  callee to ``(site caller, saved ID)``; UCP drops the expected target
  when it did not run, then adds ``<?>`` and the detector), the rules
  :meth:`~repro.core.decoder.DecodedContext.nodes` flattens by.
* **One cache of states.** The context cache maps each key to
  ``(pid, has_gaps, leaf name id)``. A miss walks up from its key,
  looking each state it passes up in the cache, stops at the first one
  cached (or at the root), interns the passed frames downward from
  that state's pid with one child-index lookup each, and caches every
  state it passed. A hot key costs one dictionary hit; a new leaf under
  a known caller costs one edge step. Lookups take no lock; inserts,
  evictions (oldest first) and the hit/miss counters do.
* **Paths for output only.** :meth:`DecodeEngine.decode_path` is the
  same decode plus the pid's path, built once and kept on the cache
  entry; :meth:`DecodeEngine.decode` keeps the segment-structured form
  behind a piece cache of its own.
* **Epochs.** Installing a repaired plan (a PR-1 :class:`PlanUpdate`
  from ``hot_swap``) bumps the epoch. Samples are always decoded under
  the plan of the epoch they were captured in — never a newer or older
  one — so a swap can never produce a mixed-epoch decode; the old
  epoch's cache entries stop matching by construction.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.decoder import ContextDecoder, DecodedContext
from repro.core.stackmodel import EntryKind, StackEntry
from repro.errors import DecodingError, EpochError, ServiceError
from repro.postprocess import GAP
from repro.runtime.plan import DeltaPathPlan, PlanUpdate
from repro.service.cache import LRUCache
from repro.service.store import ContextStore

__all__ = ["DecodeEngine", "DecodedSample", "DecodedKey"]

#: A decoded sample: the flattened context path plus provenance.
DecodedSample = Tuple[Tuple[str, ...], bool, int]  # (path, has_gaps, epoch)
#: A decoded sample key: (pid, has_gaps, leaf name id or None).
DecodedKey = Tuple[int, bool, Optional[int]]

_ANCHOR, _RECURSION, _UCP = EntryKind.ANCHOR, EntryKind.RECURSION, EntryKind.UCP
#: The trie root: the pid a walk that meets no cached state starts from.
_ROOT = -1


class _InterningDecoder(ContextDecoder):
    """A :class:`ContextDecoder` whose piece decoding is memoized.

    ``decode`` mutates the edge lists ``_decode_piece`` returns (it
    prepends the recursive back edge), so interned pieces are stored as
    tuples and handed out as fresh lists.
    """

    def __init__(self, encoding, epoch: int, pieces: LRUCache):
        super().__init__(encoding)
        self._epoch = epoch
        self._pieces = pieces

    def _decode_piece(self, node, value, start):
        key = (self._epoch, start, node, value)
        interned = self._pieces.get(key)
        if interned is not None:
            return list(interned)
        edges = super()._decode_piece(node, value, start)
        self._pieces.put(key, tuple(edges))
        return edges


class DecodeEngine:
    """Decodes probe snapshots against versioned plans, with caching.

    Parameters
    ----------
    plan:
        The initial plan (epoch 0).
    piece_cache / context_cache:
        Capacities of the piece cache (:meth:`decode` only) and of the
        context cache of prefix states; ``0`` disables that cache (used
        by the benchmark's uncached baseline).
    retain_epochs:
        How many most-recent epochs stay decodable. ``None`` (default)
        retains all. A pruned epoch's samples raise
        :class:`~repro.errors.EpochError`.
    store:
        The context trie pids refer to (a fresh one by default); a
        service passes the store its shards count into.
    """

    def __init__(
        self,
        plan: DeltaPathPlan,
        *,
        piece_cache: int = 1 << 16,
        context_cache: int = 1 << 16,
        retain_epochs: Optional[int] = None,
        store: Optional[ContextStore] = None,
    ):
        if retain_epochs is not None and retain_epochs < 1:
            raise ServiceError("retain_epochs must be at least 1")
        self.store = store if store is not None else ContextStore()
        self._pieces = LRUCache(piece_cache)
        # Prefix state -> (pid, has_gaps, leaf); an entry decode_path
        # has read also carries its answer as a fourth item. Read
        # without a lock; written under _context_lock.
        self._contexts: Dict[tuple, tuple] = {}
        self._context_cap = max(context_cache, 0)
        self._context_lock = threading.Lock()
        self._hits = self._misses = 0
        self._evictions = self._epoch_drops = 0
        self._retain = retain_epochs
        self._lock = threading.Lock()
        self._epoch = 0
        self._plans: Dict[int, DeltaPathPlan] = {0: plan}
        self._epoch_by_plan: Dict[int, int] = {id(plan): 0}
        self._decoders: Dict[int, _InterningDecoder] = {}
        #: Bumped by every install and renumbering, so a caller that
        #: memoized ``epoch_of`` knows when to resolve it again.
        self.generation = 0

    # ------------------------------------------------------------------
    # Plan versioning
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current (most recently installed) plan epoch."""
        with self._lock:
            return self._epoch

    @property
    def plan(self) -> DeltaPathPlan:
        with self._lock:
            return self._plans[self._epoch]

    def plan_for(self, epoch: int) -> DeltaPathPlan:
        with self._lock:
            try:
                return self._plans[epoch]
            except KeyError:
                raise EpochError(
                    f"epoch {epoch} is not retained (current epoch "
                    f"{self._epoch}); its samples can no longer decode"
                ) from None

    def epoch_of(self, plan: DeltaPathPlan) -> int:
        """The epoch ``plan`` was installed as (identity-keyed)."""
        with self._lock:
            try:
                return self._epoch_by_plan[id(plan)]
            except KeyError:
                raise EpochError(
                    "plan was never installed into this engine"
                ) from None

    def install(self, plan: DeltaPathPlan) -> int:
        """Install ``plan`` as the next epoch; returns the new epoch."""
        with self._lock:
            self._epoch += 1
            self.generation += 1
            epoch = self._epoch
            self._plans[epoch] = plan
            self._epoch_by_plan[id(plan)] = epoch
            pruned = []
            if self._retain is not None:
                cutoff = epoch - self._retain
                pruned = [e for e in self._plans if e <= cutoff]
                for stale in pruned:
                    dead = self._plans.pop(stale)
                    self._epoch_by_plan.pop(id(dead), None)
                    self._decoders.pop(stale, None)
        for stale in pruned:
            self._drop_epoch(stale)
        return epoch

    def install_update(self, update: PlanUpdate) -> int:
        """Install the repaired plan of a hot-swap :class:`PlanUpdate`.

        The update must have been derived from the engine's *current*
        plan — installing a repair of an older epoch would fork history.
        """
        with self._lock:
            current = self._plans[self._epoch]
        if update.old_plan is not current:
            raise ServiceError(
                "plan update was derived from a plan that is not this "
                "engine's current epoch"
            )
        return self.install(update.plan)

    def advance_epoch_to(self, epoch: int) -> int:
        """Re-number the current plan as ``epoch`` (recovery only).

        A recovered checkpoint carries the epoch counter of the crashed
        process; the fresh service's plan — verified by fingerprint to
        be the *same* plan — must adopt that number so samples stamped
        before the crash and after the recovery agree. No-op when the
        engine is already at or past ``epoch``. Returns the epoch in
        effect afterwards.
        """
        with self._lock:
            if epoch <= self._epoch:
                return self._epoch
            old = self._epoch
            plan = self._plans.pop(old)
            self._decoders.pop(old, None)
            self._plans[epoch] = plan
            self._epoch_by_plan[id(plan)] = epoch
            self._epoch = epoch
            self.generation += 1
        self._drop_epoch(old)
        return epoch

    def _drop_epoch(self, epoch: int) -> None:
        """Forget every cached decode of an epoch that no longer decodes."""
        self._pieces.drop_epoch(epoch)
        with self._context_lock:
            stale = [key for key in self._contexts if key[0] == epoch]
            for key in stale:
                del self._contexts[key]
            self._epoch_drops += len(stale)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decoder(self, epoch: int) -> _InterningDecoder:
        with self._lock:
            decoder = self._decoders.get(epoch)
            if decoder is None:
                try:
                    plan = self._plans[epoch]
                except KeyError:
                    raise EpochError(
                        f"epoch {epoch} is not retained (current epoch "
                        f"{self._epoch})"
                    ) from None
                decoder = _InterningDecoder(plan.encoding, epoch, self._pieces)
                self._decoders[epoch] = decoder
            return decoder

    def decode(
        self,
        node: str,
        stack: Sequence[StackEntry] = (),
        current_id: int = 0,
        *,
        epoch: Optional[int] = None,
    ) -> DecodedContext:
        """Full segment-structured decode, piece cache only.

        ``epoch`` defaults to the current epoch; pass the sample's
        stamped epoch to decode historical state.
        """
        if epoch is None:
            epoch = self.epoch
        decoder = self._decoder(epoch)
        try:
            return decoder.decode(node, tuple(stack), current_id)
        except KeyError as exc:
            raise DecodingError(
                f"snapshot at {node!r} does not decode under epoch "
                f"{epoch}: node {exc} is unknown to that plan"
            ) from exc

    def decode_path(
        self,
        node: str,
        snapshot: Tuple[Sequence[StackEntry], int],
        *,
        epoch: Optional[int] = None,
    ) -> DecodedSample:
        """Flattened decode: ``(node path, has_gaps, epoch used)``.

        The same decode and cache as :meth:`decode_batch`, plus the
        pid's path, built on first use and kept on the cache entry.
        """
        if epoch is None:
            epoch = self.epoch
        stack, current_id = snapshot
        key = (epoch, node, tuple(stack), current_id)
        entry = self._contexts.get(key)
        with self._context_lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        path = None
        if entry is None:
            entry, steps, found = self._resolve(key)
            if found is None:
                # The walk started at the root: its steps spell the path.
                frames: List[str] = []
                for step in steps:
                    if step is None:
                        frames.pop()
                    else:
                        frames.append(step)
                path = tuple(frames)
        elif len(entry) > 3:
            return entry[3]
        if path is None:
            path = self.store.path(entry[0])
        decoded = (path, entry[1], epoch)
        with self._context_lock:
            if key in self._contexts:
                self._contexts[key] = entry + (decoded,)
        return decoded

    def decode_batch(
        self,
        keys: Sequence[Tuple[int, str, Tuple[StackEntry, ...], int]],
    ) -> List[Tuple[Tuple[int, str, Tuple[StackEntry, ...], int],
                    Optional[DecodedKey], Optional[Exception]]]:
        """Decode distinct ``(epoch, node, stack, current_id)`` keys.

        The dedup-then-decode core of the batch path: the caller groups
        a batch by key and each *distinct* key decodes once, to
        ``(pid, has_gaps, leaf name id)`` — its context's node in
        :attr:`store` (see the module docstring). Per-key failures are
        returned, not raised: the result is a list of
        ``(key, decoded_or_None, error_or_None)`` aligned with ``keys``,
        letting the service dead-letter one poisoned group while the
        rest of the batch aggregates. :class:`DecodingError` /
        :class:`EpochError` mark deterministic failures; any other
        exception is presumed transient and left to the caller's retry
        policy. The cache counts one hit or miss per key.
        """
        get = self._contexts.get
        out: List[
            Tuple[
                Tuple[int, str, Tuple[StackEntry, ...], int],
                Optional[DecodedKey],
                Optional[Exception],
            ]
        ] = []
        append = out.append
        hits = 0
        for key in keys:
            entry = get(key)
            if entry is not None:
                hits += 1
                append((key, entry if len(entry) == 3 else entry[:3], None))
                continue
            try:
                entry = self._resolve(key)[0]
            except Exception as exc:  # noqa: BLE001 - reported per key
                append((key, None, exc))
            else:
                append((key, entry, None))
        with self._context_lock:
            self._hits += hits
            self._misses += len(out) - hits
        return out

    def _resolve(
        self, key: tuple
    ) -> Tuple[DecodedKey, List[Optional[str]], Optional[tuple]]:
        """Decode one uncached key (see the module docstring).

        Walks from the key toward the root, collecting the trie steps
        that lead back down (innermost first) and the states passed,
        and stops at the first cached state. Returns the key's entry,
        the steps from that state down to the key (a name adds a frame,
        None drops one) and the state's entry (None: the root). Raises
        exactly what :class:`~repro.core.decoder.ContextDecoder` raises
        for the key.
        """
        epoch, node, stack, value = key
        decoder = self._decoder(epoch)
        encoding = decoder.encoding
        entry_node = decoder.graph.entry
        tables = encoding._in_tables
        get = self._contexts.get if self._context_cap else None
        steps: List[Optional[str]] = []
        # (state key, steps taken when reached); None: not cacheable.
        states: List[Tuple[Optional[tuple], int]] = [(key, 0)]
        gapped = 0  # states[:gapped] lie above a UCP entry
        found = None
        try:
            while True:
                top = stack[-1] if stack else None
                start = top.node if top is not None else entry_node
                if top is not None and top.kind is _RECURSION \
                        and top.site is None:
                    raise DecodingError("recursion entry lacks its call site")
                if node is None:
                    # A UCP entry whose outer piece ends at its start:
                    # the state is this piece's start, with ID 0.
                    if value != 0:
                        raise DecodingError(
                            f"empty piece at {start!r} has nonzero value "
                            f"{value}"
                        )
                    node = start
                    if get is not None:
                        try:
                            decoder._governing_anchor(start)
                        except DecodingError:
                            # Decodes only under the empty piece above.
                            states[-1] = (None, len(steps))
                else:
                    anchor = decoder._governing_anchor(start)
                    while node != start:
                        table = tables.get((node, anchor))
                        if table is None:
                            table = encoding._in_table(node, anchor)
                        values, edges = table
                        i = bisect_right(values, value)
                        if not i:
                            raise DecodingError(
                                f"no incoming edge of {node!r} in territory "
                                f"of {anchor!r} matches residual {value}"
                            )
                        steps.append(node)
                        value -= values[i - 1]
                        node = edges[i - 1].caller
                        if get is not None:
                            state = (epoch, node, stack, value)
                            found = get(state)
                            if found is not None:
                                break
                            states.append((state, len(steps)))
                    if found is not None:
                        break
                    if value != 0:
                        raise DecodingError(
                            f"piece decoding reached {start!r} with "
                            f"residual {value}"
                        )
                if top is None:
                    steps.append(entry_node)
                    break
                # Hand off to the stack entry below.
                stack = stack[:-1]
                value = top.saved_id
                kind = top.kind
                if kind is _ANCHOR:
                    node = start
                elif kind is _RECURSION:
                    steps.append(start)
                    node = top.site.caller
                elif kind is _UCP:
                    steps.append(start)
                    steps.append(GAP)
                    if not top.resume_executed:
                        steps.append(None)
                    gapped = len(states)
                    node = top.resume_node
                else:  # pragma: no cover - exhaustive over EntryKind
                    raise DecodingError(f"unknown stack entry kind {kind}")
                if get is not None:
                    below = node
                    if below is None:
                        below = stack[-1].node if stack else entry_node
                    state = (epoch, below, stack, value)
                    found = get(state)
                    if found is not None:
                        if node is None and value != 0:
                            raise DecodingError(
                                f"empty piece at {below!r} has nonzero "
                                f"value {value}"
                            )
                        break
                    states.append((state, len(steps)))
        except KeyError as exc:
            raise DecodingError(
                f"snapshot at {key[1]!r} does not decode under epoch "
                f"{epoch}: node {exc} is unknown to that plan"
            ) from exc
        if found is None:
            base, base_gaps, base_leaf = _ROOT, False, None
        else:
            base, base_gaps, base_leaf = found[0], found[1], found[2]
        total = len(steps)
        steps.reverse()
        pids, name_ids = self.store.extend(base, steps)
        # The state reached after ``taken`` steps is the node the
        # remaining ``total - taken`` steps lead to from the base, and
        # its leaf is the name of the last of them.
        entries = []
        for at, (state, taken) in enumerate(states):
            gaps = base_gaps or at < gapped
            if taken < total:
                done = total - taken - 1
                entries.append((state, (pids[done], gaps, name_ids[done])))
            else:
                entries.append((state, (base, gaps, base_leaf)))
        if get is not None:
            self._remember(epoch, entries)
        return entries[0][1], steps, found

    def _remember(self, epoch: int, entries: List[tuple]) -> None:
        """Cache the states one walk passed, oldest entries out first."""
        contexts = self._contexts
        cap = self._context_cap
        with self._context_lock:
            if epoch not in self._plans:
                return  # pruned while the walk ran
            for state, entry in entries:
                if state is None:
                    continue
                if len(contexts) >= cap:
                    evict = list(islice(contexts, max(cap >> 4, 1)))
                    for old in evict:
                        del contexts[old]
                    self._evictions += len(evict)
                contexts.setdefault(state, entry)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, dict]:
        with self._context_lock:
            contexts = {
                "size": len(self._contexts),
                "capacity": self._context_cap,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "epoch_drops": self._epoch_drops,
            }
        return {"pieces": self._pieces.stats().__dict__, "contexts": contexts}

    def retained_epochs(self) -> List[int]:
        with self._lock:
            return sorted(self._plans)
