"""A circuit breaker around the warm solver farm.

Repeated pool breakage (rebuilds and timeouts surfaced as ``pool``
warnings in run health) trips the breaker; while it is open,
the daemon forces ``jobs=1`` so requests are served through the serial
in-process path — slower, but immune to whatever is killing workers —
and every response carries a health note saying so.  After a
deterministic cooldown (counted in requests, not wall-clock, so tests
and chaos campaigns are reproducible) the breaker half-opens: the next
request may use the pool again, and its outcome closes or re-opens the
circuit.
"""

from __future__ import annotations

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Deterministic failure-count breaker (closed → open → half-open)."""

    def __init__(
        self, failure_threshold: int = 3, cooldown_requests: int = 5
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_requests < 1:
            raise ValueError("cooldown_requests must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_requests = cooldown_requests
        self.consecutive_failures = 0
        self.trips = 0
        self._cooldown_left = 0

    @property
    def state(self) -> str:
        if self._cooldown_left > 1:
            return "open"
        if self._cooldown_left == 1:
            return "half-open"
        return "closed"

    def allows_pool(self) -> bool:
        """Whether the next request may use the process pool.

        Counts down the cooldown: while open, each denied request moves
        the breaker closer to half-open (where one probe request is let
        through to the pool).
        """
        if self._cooldown_left > 1:
            self._cooldown_left -= 1
            return False
        return True

    def record_failure(self) -> None:
        """A pool-degraded run (breakage warnings in its health)."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self.trips += 1
            self.consecutive_failures = 0
            self._cooldown_left = self.cooldown_requests + 1
            # +1: the countdown passes through "half-open" (== 1)
            # before closing.

    def record_success(self) -> None:
        """A clean pool run: close the circuit."""
        self.consecutive_failures = 0
        self._cooldown_left = 0
