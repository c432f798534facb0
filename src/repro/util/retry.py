"""Deterministic capped-exponential retry/backoff.

The self-healing paths (worker supervisor restarts, snapshot restore
re-reads) all need the same shape of loop: try, back off a bounded
exponential amount, try again, give up after N attempts.  This module
provides it once, with the two properties those callers need:

* **deterministic** -- no jitter; delay ``i`` is exactly
  ``min(base_s * factor**i, cap_s)``, so tests and the chaos bench can
  predict schedules;
* **injectable time** -- ``sleep`` is a parameter, so unit tests and
  the supervisor (which must not stall a drain on real wall-clock
  sleeps during simulated-time runs) can substitute their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.simtime.clock import wall_sleep


@dataclass(frozen=True, slots=True)
class BackoffPolicy:
    """A capped exponential backoff schedule.

    Args:
        base_s: delay before the first retry.
        factor: multiplier per subsequent retry (>= 1).
        cap_s: upper bound on any single delay.
        max_attempts: total attempts including the first (>= 1).
    """

    base_s: float = 0.001
    factor: float = 2.0
    cap_s: float = 0.25
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.base_s < 0:
            raise ConfigError(f"base_s must be >= 0, got {self.base_s}")
        if self.factor < 1:
            raise ConfigError(f"factor must be >= 1, got {self.factor}")
        if self.cap_s < 0:
            raise ConfigError(f"cap_s must be >= 0, got {self.cap_s}")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def delay_s(self, retry: int) -> float:
        """Delay before retry number ``retry`` (0-based)."""
        if retry < 0:
            raise ConfigError(f"retry must be >= 0, got {retry}")
        return min(self.base_s * self.factor**retry, self.cap_s)


def retry_call(
    fn: Callable[[], object],
    *,
    policy: BackoffPolicy | None = None,
    retry_on: type[BaseException] | tuple[type[BaseException], ...] = Exception,
    sleep: Callable[[float], None] = wall_sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
):
    """Call ``fn`` under ``policy``, retrying on ``retry_on``.

    Args:
        fn: zero-arg callable; its return value is passed through.
        policy: backoff schedule (defaults to :class:`BackoffPolicy`).
        retry_on: exception type(s) that trigger a retry; anything
            else propagates immediately.
        sleep: delay function, injectable for tests.
        on_retry: called as ``on_retry(retry_index, error)`` before
            each backoff sleep.

    Raises:
        The last ``retry_on`` error, once attempts are exhausted.
    """
    policy = policy if policy is not None else BackoffPolicy()
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retry_on as error:  # noqa: PERF203 - the loop is the point
            last = error
            if attempt + 1 >= policy.max_attempts:
                break
            if on_retry is not None:
                on_retry(attempt, error)
            delay = policy.delay_s(attempt)
            if delay > 0:
                sleep(delay)
    assert last is not None
    raise last
