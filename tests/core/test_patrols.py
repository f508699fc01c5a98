"""Recurring events: the mechanics daemon loops use on the heap.

Chaos-under-load arms its control event (scrub patrol, health tick,
breaker feed) through :meth:`EventCore.every`; these tests pin the
recurrence mechanics.  The control event itself is tested in
``tests/workloads/test_chaos_under_load.py``.
"""

import pytest

from repro.core.events import EventCore, EventCoreError


class TestRecurringEvents:
    def test_fires_every_period(self):
        core = EventCore()
        hits = []
        core.every(100.0, lambda: hits.append(core.now_ns))
        core.run_until(1_000.0)
        assert hits == [float(t) for t in range(100, 1_001, 100)]

    def test_first_ns_override(self):
        core = EventCore()
        hits = []
        core.every(100.0, lambda: hits.append(core.now_ns), first_ns=5.0)
        core.run_until(250.0)
        assert hits == [5.0, 105.0, 205.0]

    def test_cancel_stops_recurrence(self):
        core = EventCore()
        hits = []
        rec = core.every(10.0, lambda: hits.append(core.now_ns))
        core.run_until(35.0)
        rec.cancel()
        core.run_until(100.0)
        assert hits == [10.0, 20.0, 30.0]
        assert rec.fired == 3

    def test_handler_may_cancel_itself(self):
        core = EventCore()

        def fn():
            if rec.fired >= 2:
                rec.cancel()

        rec = core.every(10.0, fn)
        core.run_until(200.0)
        assert rec.fired == 2

    def test_rejects_nonpositive_period(self):
        core = EventCore()
        with pytest.raises(EventCoreError):
            core.every(0.0, lambda: None)

    def test_interleaves_with_one_shot_events_deterministically(self):
        core = EventCore()
        order = []
        core.every(10.0, lambda: order.append("patrol"))
        core.at(10.0, lambda: order.append("oneshot"))
        core.run_until(10.0)
        # recurrence armed first -> dispatches first on the tie
        assert order == ["patrol", "oneshot"]
