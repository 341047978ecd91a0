"""Bounded-retry policy with deterministic simulated backoff.

Real systems retry transient I/O failures with wall-clock exponential
backoff. Here time is simulated — the whole repro's "execution time"
is deterministic cost units — so backoff is charged in the same
currency: each retry adds ``backoff_for(attempt)`` latency units to
the buffer manager's :class:`~repro.sqlengine.buffer.IoMetrics`. Two
runs with the same seed therefore retry, back off, and converge
identically, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DesignError


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-attempt a transient failure, and at what
    simulated cost.

    Attributes:
        max_attempts: total attempts (first try included); the
            operation fails permanently after this many.
        backoff_units: latency units charged before the first retry.
        backoff_multiplier: growth factor per further retry
            (exponential backoff, expressed in cost units).
        max_backoff_units: ceiling on the latency charged before any
            single retry — exponential growth is capped here, so a
            long retry sequence degrades to constant-rate retrying
            instead of charging unbounded simulated time.

    Raises:
        DesignError: on a non-positive attempt count, a negative
            backoff/ceiling, or a multiplier below 1.
    """

    max_attempts: int = 4
    backoff_units: float = 4.0
    backoff_multiplier: float = 2.0
    max_backoff_units: float = 64.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise DesignError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_units < 0:
            raise DesignError(
                f"backoff_units must be >= 0, got {self.backoff_units}")
        if self.backoff_multiplier < 1.0:
            raise DesignError(
                "backoff_multiplier must be >= 1 (backoff may not "
                f"shrink), got {self.backoff_multiplier}")
        if self.max_backoff_units < 0:
            raise DesignError(
                f"max_backoff_units must be >= 0, got "
                f"{self.max_backoff_units}")

    def backoff_for(self, attempt: int) -> float:
        """Latency units charged before retry number ``attempt``
        (1-based: the wait after the first failed attempt is
        ``backoff_for(1) == backoff_units``), capped at
        ``max_backoff_units``."""
        if attempt < 1:
            return 0.0
        raw = self.backoff_units * \
            self.backoff_multiplier ** (attempt - 1)
        return min(raw, self.max_backoff_units)


#: The policy used when none is configured explicitly.
DEFAULT_RETRY_POLICY = RetryPolicy()
