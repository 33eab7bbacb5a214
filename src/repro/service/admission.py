"""Overload controls for the analysis service: gates and deadlines.

A server that accepts every connection and waits forever on every
request does not survive its first traffic burst.  This module holds
the two mechanisms the service stack composes into an overload-safe
request path (the decision order is admission → deadline → degrade;
see docs/ARCHITECTURE.md "Overload & recovery"):

* :class:`AdmissionGate` — a bounded in-flight limiter per endpoint
  class (cheap reads vs NMF-bearing analyses).  Below the in-flight
  limit requests pass immediately; above it they wait in a bounded
  queue; past the queue's high watermark they are **shed** with an
  :class:`AdmissionShed` (HTTP 503 + ``Retry-After``) — the server
  never queues unboundedly.  Draining wakes every waiter with a fast
  shed instead of leaving them to hang the shutdown join.
* :class:`Deadline` — a monotonic request budget parsed from
  ``deadline_ms`` (or the server default).  Waits bound themselves by
  ``remaining()``; a request that cannot finish in time fails with
  :class:`DeadlineExceeded` (HTTP 504) instead of blocking its client.

Everything is stdlib + :mod:`repro.runtime`: thread-safe via the
sanitizer-aware lock factories and observable via ``service.shed.*``
counters.
"""

from __future__ import annotations

import math
import threading
import time

from repro.runtime.metrics import metrics
from repro.runtime.sanitize import make_condition

#: Endpoint-class names used by the server's gate table.
CHEAP = "cheap"
HEAVY = "heavy"


class DeadlineExceeded(Exception):
    """The request's deadline expired before a result was available."""


class AdmissionShed(Exception):
    """The request was refused at the admission gate (overload or drain).

    ``retry_after_s`` is the server's hint for the ``Retry-After``
    header; ``reason`` is ``"queue_full"`` or ``"draining"``.
    """

    def __init__(self, name: str, reason: str, retry_after_s: float) -> None:
        super().__init__(
            f"admission gate {name!r} shed request ({reason})"
        )
        self.name = name
        self.reason = reason
        self.retry_after_s = retry_after_s


class Deadline:
    """A monotonic expiry point; ``None`` budget means unbounded.

    Built once per request at the HTTP edge and threaded through the
    admission gate, broker queue, and result wait so every blocking
    point bounds itself by the *same* budget instead of stacking
    per-layer timeouts.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float | None) -> None:
        self.expires_at = expires_at

    @classmethod
    def after(cls, budget_s: float | None) -> "Deadline":
        if budget_s is None:
            return cls(None)
        if budget_s <= 0 or not math.isfinite(budget_s):
            raise ValueError(f"deadline budget must be > 0, got {budget_s}")
        if budget_s >= threading.TIMEOUT_MAX:
            return cls(None)  # longer than any lock wait can be bounded
        return cls(time.perf_counter() + budget_s)

    def remaining(self) -> float | None:
        """Seconds left (may be negative), or ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.perf_counter()

    def expired(self) -> bool:
        return (
            self.expires_at is not None
            and time.perf_counter() >= self.expires_at
        )

    def require(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded("request deadline exceeded")


#: The unbounded deadline (shared — Deadline instances are immutable).
NO_DEADLINE = Deadline(None)


class AdmissionGate:
    """Bounded in-flight gate with a bounded wait queue for one class.

    States per request: *admitted* (in-flight below ``max_inflight``),
    *queued* (waiting for a slot, at most ``max_queue`` waiters), or
    *shed* (queue at its high watermark, or the gate is draining).
    Queued requests leave early when their deadline expires — an
    expired-in-queue request never reaches the backend at all.
    """

    def __init__(
        self, name: str, *, max_inflight: int, max_queue: int,
        retry_after_s: float = 1.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.name = name
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s
        self._cond = make_condition("service.admission")
        self._inflight = 0
        self._waiting = 0
        self._draining = False

    def _shed(self, reason: str) -> AdmissionShed:
        # Shed counters are per gate name; both names are literal
        # endpoint classes so the metric namespace stays greppable.
        if self.name == HEAVY:
            metrics.inc("service.shed.heavy")
        else:
            metrics.inc("service.shed.cheap")
        return AdmissionShed(self.name, reason, self.retry_after_s)

    def admit(self, deadline: Deadline | None = None) -> None:
        """Claim an in-flight slot or raise (shed / deadline exceeded).

        Every successful ``admit`` must be paired with :meth:`release`
        (use ``try/finally`` at the call site).
        """
        deadline = deadline or NO_DEADLINE
        with self._cond:
            if self._draining:
                raise self._shed("draining")
            if self._inflight < self.max_inflight and self._waiting == 0:
                self._inflight += 1
                return
            if self._waiting >= self.max_queue:
                raise self._shed("queue_full")
            self._waiting += 1
            try:
                while True:
                    if self._draining:
                        raise self._shed("draining")
                    if self._inflight < self.max_inflight:
                        self._inflight += 1
                        return
                    remaining = deadline.remaining()
                    if remaining is not None and remaining <= 0:
                        metrics.inc("service.deadline.queue_expired")
                        raise DeadlineExceeded(
                            f"deadline expired waiting for a "
                            f"{self.name!r} slot"
                        )
                    # Wake periodically even without a deadline so a
                    # drain signal is never missed for long.
                    self._cond.wait(
                        timeout=0.5 if remaining is None else min(remaining, 0.5)
                    )
            finally:
                self._waiting -= 1

    def release(self) -> None:
        """Return an in-flight slot and wake one queued waiter."""
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def drain(self) -> None:
        """Shed every queued waiter and refuse all future admissions."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "inflight": self._inflight,
                "waiting": self._waiting,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "draining": self._draining,
            }
