"""The decode engine: epoch-aware, piece-interning context decoding.

The paper's economics are "encode on the hot path, decode later" — so a
collection backend decodes the *same* hot contexts over and over. The
engine makes repeated decodes O(1):

* **Piece interning.** A decoded context is a stack of pieces; each
  piece is fully determined by ``(epoch, start, node, residual)``.
  Pieces are decoded once, interned as immutable tuples, and shared by
  every context that contains them (all contexts below an anchor share
  that anchor's outer pieces).
* **Context memoization.** The flattened node path of a full snapshot is
  cached under ``(epoch, node, stack, id)``, so an exactly-repeated hot
  context costs one dictionary hit.
* **Epochs.** Installing a repaired plan (a PR-1 :class:`PlanUpdate`
  from ``hot_swap``) bumps the epoch. Samples are always decoded under
  the plan of the epoch they were captured in — never a newer or older
  one — so a swap can never produce a mixed-epoch decode; the old
  epoch's cache entries stop matching by construction.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.decoder import ContextDecoder, DecodedContext
from repro.core.stackmodel import StackEntry
from repro.errors import DecodingError, EpochError, ServiceError
from repro.runtime.plan import DeltaPathPlan, PlanUpdate
from repro.service.cache import LRUCache

__all__ = ["DecodeEngine", "DecodedSample"]

#: A decoded sample: the flattened context path plus provenance.
DecodedSample = Tuple[Tuple[str, ...], bool, int]  # (path, has_gaps, epoch)


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
        LRU capacities; ``0`` disables that cache layer (used by the
        benchmark's uncached baseline).
    retain_epochs:
        How many most-recent epochs stay decodable. ``None`` (default)
        retains all. A pruned epoch's samples raise
        :class:`~repro.errors.EpochError`.
    """

    def __init__(
        self,
        plan: DeltaPathPlan,
        *,
        piece_cache: int = 1 << 16,
        context_cache: int = 1 << 16,
        retain_epochs: Optional[int] = None,
    ):
        if retain_epochs is not None and retain_epochs < 1:
            raise ServiceError("retain_epochs must be at least 1")
        self._pieces = LRUCache(piece_cache)
        self._contexts = LRUCache(context_cache)
        self._retain = retain_epochs
        self._lock = threading.Lock()
        self._epoch = 0
        self._plans: Dict[int, DeltaPathPlan] = {0: plan}
        self._epoch_by_plan: Dict[int, int] = {id(plan): 0}
        self._decoders: Dict[int, _InterningDecoder] = {}

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
            self._pieces.drop_epoch(stale)
            self._contexts.drop_epoch(stale)
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
            plan = self._plans.pop(self._epoch)
            self._decoders.pop(self._epoch, None)
            self._plans[epoch] = plan
            self._epoch_by_plan[id(plan)] = epoch
            self._epoch = epoch
            return epoch

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

        This is the service's aggregation form — immutable, compact, and
        memoized whole so exactly-repeated hot contexts cost one lookup.
        """
        if epoch is None:
            epoch = self.epoch
        stack, current_id = snapshot
        stack = tuple(stack)
        key = (epoch, node, stack, current_id)
        cached = self._contexts.get(key)
        if cached is not None:
            return cached
        decoder = self._decoder(epoch)
        try:
            decoded = decoder.decode(node, stack, current_id)
        except KeyError as exc:
            raise DecodingError(
                f"snapshot at {node!r} does not decode under epoch "
                f"{epoch}: node {exc} is unknown to that plan"
            ) from exc
        result: DecodedSample = (
            tuple(decoded.nodes()),
            decoded.has_gaps,
            epoch,
        )
        self._contexts.put(key, result)
        return result

    def decode_batch(
        self,
        keys: Sequence[Tuple[int, str, Tuple[StackEntry, ...], int]],
    ) -> List[Tuple[Tuple[int, str, Tuple[StackEntry, ...], int],
                    Optional[DecodedSample], Optional[Exception]]]:
        """Decode distinct ``(epoch, node, stack, current_id)`` keys.

        The dedup-then-decode core of the batch path: the caller groups
        a batch by key and each *distinct* key decodes exactly once —
        through the same memoized path as :meth:`decode_path`, so a
        batch's first attempt and a group's retries can never disagree.
        Per-key failures are
        returned, not raised: the result is a list of
        ``(key, decoded_or_None, error_or_None)`` aligned with ``keys``,
        letting the service dead-letter one poisoned group while the
        rest of the batch aggregates. :class:`DecodingError` /
        :class:`EpochError` mark deterministic failures; any other
        exception is presumed transient and left to the caller's retry
        policy.
        """
        out: List[
            Tuple[
                Tuple[int, str, Tuple[StackEntry, ...], int],
                Optional[DecodedSample],
                Optional[Exception],
            ]
        ] = []
        for key in keys:
            epoch, node, stack, current_id = key
            try:
                decoded = self.decode_path(
                    node, (stack, current_id), epoch=epoch
                )
            except Exception as exc:  # noqa: BLE001 - reported per key
                out.append((key, None, exc))
            else:
                out.append((key, decoded, None))
        return out

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, dict]:
        return {
            "pieces": self._pieces.stats().__dict__,
            "contexts": self._contexts.stats().__dict__,
        }

    def retained_epochs(self) -> List[int]:
        with self._lock:
            return sorted(self._plans)
