"""Unit suite for the overload primitives (PR 10).

:mod:`repro.service.admission` is the part of the service stack that
must be *provably* right in isolation — the HTTP tests exercise it
end-to-end, but queue accounting and deadline arithmetic each have
edge cases a load test hits only by luck.  Covered here:

* ``Deadline`` — budget arithmetic, the unbounded sentinel, expiry;
* ``AdmissionGate`` — immediate admit, bounded queue with FIFO wakeup,
  watermark shed, deadline-bounded waits, drain semantics.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.runtime as runtime
from repro.runtime.metrics import metrics
from repro.service import (
    NO_DEADLINE,
    AdmissionGate,
    AdmissionShed,
    Deadline,
    DeadlineExceeded,
)


@pytest.fixture(autouse=True)
def _isolated_runtime():
    runtime.reset()
    yield
    runtime.reset()


# -- Deadline ----------------------------------------------------------------


class TestDeadline:
    def test_unbounded(self):
        assert NO_DEADLINE.remaining() is None
        assert not NO_DEADLINE.expired()
        NO_DEADLINE.require()  # never raises
        assert Deadline.after(None).remaining() is None

    def test_budget_counts_down(self):
        d = Deadline.after(30.0)
        r = d.remaining()
        assert 0 < r <= 30.0
        assert not d.expired()

    def test_expiry(self):
        d = Deadline.after(0.005)
        time.sleep(0.01)
        assert d.expired()
        assert d.remaining() <= 0
        with pytest.raises(DeadlineExceeded):
            d.require()

    def test_budget_past_the_longest_wait_is_unbounded(self):
        # A wait bounded by 1e308 s would raise OverflowError.
        assert Deadline.after(1e308).remaining() is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_budgets_rejected(self, bad):
        with pytest.raises(ValueError):
            Deadline.after(bad)


# -- AdmissionGate -----------------------------------------------------------


class TestAdmissionGate:
    def test_admit_below_limit_is_immediate(self):
        gate = AdmissionGate("cheap", max_inflight=2, max_queue=0)
        gate.admit()
        gate.admit()
        snap = gate.snapshot()
        assert snap["inflight"] == 2 and snap["waiting"] == 0
        gate.release()
        gate.release()
        assert gate.snapshot()["inflight"] == 0

    def test_queue_full_sheds_with_metric(self):
        gate = AdmissionGate("heavy", max_inflight=1, max_queue=0)
        gate.admit()
        with pytest.raises(AdmissionShed) as exc:
            gate.admit()
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after_s > 0
        assert metrics.get("service.shed.heavy") == 1
        gate.release()

    def test_queued_request_admitted_on_release(self):
        gate = AdmissionGate("heavy", max_inflight=1, max_queue=2)
        gate.admit()
        admitted = threading.Event()

        def waiter():
            gate.admit(Deadline.after(10.0))
            admitted.set()

        t = threading.Thread(target=waiter)
        t.start()
        # the waiter must actually be queued, not admitted
        deadline = time.perf_counter() + 5.0
        while gate.snapshot()["waiting"] == 0:
            assert time.perf_counter() < deadline, "waiter never queued"
            time.sleep(0.005)
        assert not admitted.is_set()
        gate.release()
        t.join(timeout=5.0)
        assert admitted.is_set()
        gate.release()

    def test_expired_in_queue_never_admitted(self):
        gate = AdmissionGate("heavy", max_inflight=1, max_queue=2)
        gate.admit()
        with pytest.raises(DeadlineExceeded):
            gate.admit(Deadline.after(0.02))
        assert metrics.get("service.deadline.queue_expired") == 1
        # the slot accounting is intact: release + re-admit works
        gate.release()
        gate.admit()
        gate.release()

    def test_drain_wakes_queued_waiters_with_shed(self):
        gate = AdmissionGate("heavy", max_inflight=1, max_queue=4)
        gate.admit()
        outcomes = []

        def waiter():
            try:
                gate.admit(Deadline.after(30.0))
                outcomes.append("admitted")
            except AdmissionShed as exc:
                outcomes.append(exc.reason)

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        for t in threads:
            t.start()
        deadline = time.perf_counter() + 5.0
        while gate.snapshot()["waiting"] < 3:
            assert time.perf_counter() < deadline, "waiters never queued"
            time.sleep(0.005)
        gate.drain()
        for t in threads:
            t.join(timeout=5.0)  # fast: nobody rides out their deadline
        assert outcomes == ["draining"] * 3
        # and all future admissions are refused too
        with pytest.raises(AdmissionShed) as exc:
            gate.admit()
        assert exc.value.reason == "draining"

    def test_no_overadmission_under_contention(self):
        gate = AdmissionGate("cheap", max_inflight=3, max_queue=64)
        peak = []
        lock = threading.Lock()
        live = [0]

        def one(_):
            gate.admit(Deadline.after(30.0))
            try:
                with lock:
                    live[0] += 1
                    peak.append(live[0])
                time.sleep(0.002)
            finally:
                with lock:
                    live[0] -= 1
                gate.release()

        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(one, range(40)))
        assert max(peak) <= 3
        snap = gate.snapshot()
        assert snap["inflight"] == 0 and snap["waiting"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate("x", max_inflight=0, max_queue=1)
        with pytest.raises(ValueError):
            AdmissionGate("x", max_inflight=1, max_queue=-1)
