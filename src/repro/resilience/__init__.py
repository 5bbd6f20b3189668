"""``repro.resilience`` — the self-healing layer around the service.

The paper's contract is that a context ID never lies; this package's
contract is that the *pipeline around the IDs* never lies either, even
while parts of it are failing. Four mechanisms, one config:

* :class:`~repro.resilience.supervisor.Supervisor` — heartbeat death
  detection and budgeted, backed-off worker restarts; declared degraded
  mode when the budget runs out.
* :class:`~repro.resilience.retry.RetryPolicy` +
  :class:`~repro.resilience.retry.DeadLetterQueue` — transient
  decode failures are retried per group, deterministic ones
  quarantined with full context; nothing vanishes.
* :class:`~repro.resilience.breaker.CircuitBreaker` — decode-error
  storms trip the breaker and traffic sheds to bounded raw-sample
  retention (:class:`~repro.resilience.retry.FallbackStore`), replayed
  when the breaker closes.
* :class:`~repro.resilience.checkpoint.CheckpointStore` — atomic,
  checksummed CCT snapshots with fingerprint-verified recovery.

:class:`ResilienceConfig` is the single frozen knob-bag
:class:`~repro.service.ContextService` accepts (``resilience=``);
:mod:`repro.resilience.chaos` drives all of it under injected faults.

Everything here reports under the ``resilience.*`` metric namespace via
:mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.checkpoint import (
    CheckpointDaemon,
    CheckpointState,
    CheckpointStore,
    plan_fingerprint,
)
from repro.resilience.retry import (
    DeadLetter,
    DeadLetterQueue,
    FallbackStore,
    RetryPolicy,
)
from repro.resilience.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "ResilienceConfig",
    "Supervisor",
    "SupervisorConfig",
    "CircuitBreaker",
    "RetryPolicy",
    "DeadLetter",
    "DeadLetterQueue",
    "FallbackStore",
    "CheckpointStore",
    "CheckpointState",
    "CheckpointDaemon",
    "plan_fingerprint",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Every resilience knob of the service in one frozen place.

    Passed to :class:`~repro.service.ContextService` as ``resilience=``.
    ``seed`` feeds every source of randomness (restart jitter, retry
    jitter), so a resilient run is as reproducible as a plain one.
    """

    # --- supervision ---------------------------------------------------
    supervise: bool = True
    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 2.0
    max_restarts: int = 8
    restart_backoff: float = 0.02
    restart_backoff_max: float = 1.0
    jitter: float = 0.5

    # --- per-sample retry / quarantine ---------------------------------
    retry_attempts: int = 3
    retry_backoff: float = 0.005
    retry_backoff_max: float = 0.25
    dead_letter_capacity: int = 1024

    # --- circuit breaker + raw fallback --------------------------------
    breaker: bool = True
    breaker_window: int = 64
    breaker_min_volume: int = 16
    breaker_error_rate: float = 0.5
    breaker_cooldown: float = 0.25
    breaker_half_open_probes: int = 2
    fallback_capacity: int = 4096

    # --- durable checkpoints -------------------------------------------
    #: Directory for ``ckpt-*.dpck`` snapshots; None disables them.
    checkpoint_dir: Optional[str] = None
    #: Background checkpoint period in seconds; 0 = manual only.
    checkpoint_interval: float = 0.0
    checkpoint_retain: int = 3
    #: Write a final checkpoint during a clean ``stop()``.
    checkpoint_on_stop: bool = True

    seed: int = 0

    # -- factory helpers (the service uses these) -----------------------
    def supervisor_config(self) -> SupervisorConfig:
        return SupervisorConfig(
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            max_restarts=self.max_restarts,
            backoff_base=self.restart_backoff,
            backoff_max=self.restart_backoff_max,
            jitter=self.jitter,
            seed=self.seed,
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.retry_attempts,
            backoff_base=self.retry_backoff,
            backoff_max=self.retry_backoff_max,
            jitter=self.jitter,
        )

    def make_breaker(self) -> Optional[CircuitBreaker]:
        if not self.breaker:
            return None
        return CircuitBreaker(
            window=self.breaker_window,
            min_volume=self.breaker_min_volume,
            error_rate=self.breaker_error_rate,
            cooldown=self.breaker_cooldown,
            half_open_probes=self.breaker_half_open_probes,
        )
