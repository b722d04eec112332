"""Effect-guided retry with exponential backoff.

A failed query may be replayed **only when the static analyses prove the
replay is indistinguishable from a first run**:

* the ⊢′ determinism system must accept the query (Theorems 4/7: every
  schedule of a ⊢′-accepted query produces the same answer up to the
  oid bijection ∼ — so the retry cannot "answer differently");
* if the query *writes* (``A``/``U`` atoms in its Figure 3 effect), the
  failed attempt must have been rolled back first (``atomic=True``),
  otherwise the partial extent growth of the failed attempt would be
  observed twice.

Queries that fail either test are **not** retried — the caller gets the
original failure after rollback, which is the honest outcome.

The backoff is standard exponential-with-jitter; ``sleep`` and ``rng``
are injectable so tests run instantly and deterministically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError, TransientFault


@dataclass(frozen=True)
class ReplayDecision:
    """Whether a failed query may be replayed, and the static reason."""

    safe: bool
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.safe


def replay_decision(db, query, *, rolled_back: bool = False) -> ReplayDecision:
    """Decide replay safety from the ⊢′ system and the inferred effect.

    ``db`` is a :class:`repro.db.Database`; ``query`` is source text or
    a parsed query.  ``rolled_back`` says the failed attempt's state
    changes were already undone (a transaction scope was restored).
    """
    # one ⊢′ derivation gives both the witnesses and Figure 3's effect
    _, effect, witnesses = db._determinism(query)
    if witnesses:
        return ReplayDecision(
            False,
            "⊢′ rejects the query ("
            + "; ".join(str(w) for w in witnesses)
            + ") — a replay could observe a different schedule",
        )
    if effect.writes() and not rolled_back:
        return ReplayDecision(
            False,
            f"query writes {sorted(effect.writes())} and the failed "
            "attempt was not rolled back — a replay would double-apply",
        )
    if effect.writes():
        return ReplayDecision(
            True,
            "⊢′ accepts and the failed attempt was rolled back "
            "(Theorem 7: any schedule of the replay agrees up to ∼)",
        )
    return ReplayDecision(
        True, "⊢′ accepts and the query is read-only (Theorem 4)"
    )


@dataclass
class RetryPolicy:
    """How many times to replay, and how long to wait between attempts.

    Delay for attempt *n* (1-based count of *failures so far*) is::

        min(max_delay, base_delay * 2**(n-1)) * (1 + jitter * U[0,1))

    ``retry_on`` lists the exception types considered transient; by
    default only injected/infrastructure :class:`TransientFault` — a
    type error or a ⊢-rejection is deterministic and will fail again.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 1.0
    jitter: float = 0.1
    retry_on: tuple[type[BaseException], ...] = (TransientFault,)
    sleep: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be >= 0")

    @staticmethod
    def seeded(seed: int, **kw) -> "RetryPolicy":
        """A policy whose jitter stream is reproducible from ``seed``."""
        return RetryPolicy(rng=random.Random(seed), **kw)

    def retryable(self, exc: BaseException) -> bool:
        """Is this failure worth replaying at all?"""
        return isinstance(exc, self.retry_on)

    def delay_for(self, failures: int) -> float:
        """Backoff after the ``failures``-th failure (1-based)."""
        if failures < 1:
            raise ValueError("failures is 1-based")
        base = min(self.max_delay, self.base_delay * 2 ** (failures - 1))
        return base * (1.0 + self.jitter * self.rng.random())

    def backoff(self, failures: int) -> float:
        """Sleep for :meth:`delay_for` and return the delay slept."""
        delay = self.delay_for(failures)
        if delay > 0:
            self.sleep(delay)
        return delay


class RetryExhausted(ReproError):
    """Every permitted attempt failed; carries the last failure.

    Deliberately **not** a :class:`TransientFault`: exhaustion is a
    *terminal* verdict on the whole replay loop.  If it were itself
    transient, a nested/outer :class:`RetryPolicy` would treat "my
    inner retries ran out" as one more retryable fault and multiply the
    attempt count (inner × outer) against a persistently failing
    backend.  ``site`` still carries the last failure's site so fault
    dashboards can aggregate by origin.
    """

    def __init__(self, attempts: int, last: BaseException):
        self.attempts = attempts
        self.last = last
        self.site = getattr(last, "site", "")
        super().__init__(
            f"query still failing after {attempts} attempt(s): {last}"
        )
