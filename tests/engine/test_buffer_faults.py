"""Fault-plane behaviour of the buffer manager: snapshot deltas,
floored metric deltas, state save/restore, and in-place retry of
transient page faults."""

import pytest

from repro.errors import (PermanentStorageError,
                          TransientStorageError)
from repro.faults import (SLOW, TRANSIENT, FaultInjector, FaultPlan,
                          FaultSpec, RetryPolicy)
from repro.sqlengine.buffer import BufferManager, IoMetrics


def _page(n):
    return (1, n)


class TestMetricsArithmetic:
    def test_sub_floors_every_field_at_zero(self):
        smaller = IoMetrics(10, 2, latency_units=1.0, retries=1,
                            rollbacks=1)
        bigger = IoMetrics(20, 5, latency_units=2.0, retries=2,
                           rollbacks=2)
        delta = smaller - bigger
        assert delta == IoMetrics()

    def test_sub_covers_fault_plane_fields(self):
        a = IoMetrics(5, 0, latency_units=8.0, retries=3,
                      rollbacks=1)
        b = IoMetrics(2, 0, latency_units=3.0, retries=1,
                      rollbacks=0)
        delta = a - b
        assert delta.latency_units == pytest.approx(5.0)
        assert delta.retries == 2
        assert delta.rollbacks == 1

    def test_io_equal_ignores_fault_plane(self):
        a = IoMetrics(5, 1, latency_units=9.0, retries=4)
        b = IoMetrics(5, 1)
        assert a.io_equal(b)
        assert not a.io_equal(IoMetrics(5, 2))
        assert not a.io_equal(IoMetrics(4, 1))


class TestMonotoneSnapshots:
    def test_snapshot_delta_counts_touches(self):
        buffer = BufferManager()
        for n in range(6):
            buffer.read_page(_page(n))
        first = buffer.snapshot()
        assert buffer.snapshot() == first
        for n in range(3):
            buffer.read_page(_page(n))
        buffer.write_page(_page(0))
        delta = buffer.snapshot() - first
        assert (delta.logical_reads, delta.physical_writes) == (3, 1)

    def test_mid_operation_delta_never_negative(self):
        buffer = BufferManager()
        state = buffer.save_state()
        buffer.read_page(_page(0))
        buffer.write_page(_page(0))
        before = buffer.snapshot()
        buffer.restore_state(state)  # a rollback mid-measurement
        buffer.read_page(_page(1))
        after = buffer.snapshot()
        delta = after - before
        assert delta.logical_reads == 0
        assert delta.physical_writes == 0


class TestSaveRestore:
    def test_restore_rewinds_metrics_and_object_ids(self):
        buffer = BufferManager()
        buffer.read_page(_page(0))
        state = buffer.save_state()
        id_before = buffer._next_object_id
        buffer.allocate_object_id()
        for n in range(1, 5):
            buffer.write_page(_page(n))
        buffer.restore_state(state)
        assert buffer._next_object_id == id_before
        assert buffer.metrics.io_equal(state.metrics)

    def test_restore_keeps_fault_plane_counters(self):
        buffer = BufferManager()
        state = buffer.save_state()
        buffer.metrics.retries += 3
        buffer.metrics.latency_units += 12.0
        buffer.restore_state(state)
        # Fault-plane bookkeeping is monotone history, never rewound.
        assert buffer.metrics.retries == 3
        assert buffer.metrics.latency_units == pytest.approx(12.0)
        assert buffer.metrics.logical_reads == 0


class TestFaultedTouch:
    def _buffer(self, plan, policy=None, seed=0):
        buffer = BufferManager()
        buffer.fault_injector = FaultInjector(plan, seed)
        if policy is not None:
            buffer.retry_policy = policy
        return buffer

    def test_transient_read_retried_in_place(self):
        plan = FaultPlan(
            specs=(FaultSpec("page_read", TRANSIENT, at_call=0,
                             max_faults=1),))
        buffer = self._buffer(plan)
        buffer.read_page(_page(0))
        assert buffer.metrics.retries == 1
        assert buffer.metrics.latency_units > 0
        assert buffer.metrics.logical_reads == 1

    def test_retry_backoff_is_exponential(self):
        plan = FaultPlan(
            specs=(FaultSpec("page_read", TRANSIENT, at_call=0,
                             duration=3, max_faults=1),))
        policy = RetryPolicy(max_attempts=4, backoff_units=2.0,
                             backoff_multiplier=2.0)
        buffer = self._buffer(plan, policy)
        buffer.read_page(_page(0))
        assert buffer.metrics.retries == 3
        # 2 + 4 + 8 simulated units of backoff.
        assert buffer.metrics.latency_units == pytest.approx(14.0)

    def test_retries_exhausted_reraises_transient(self):
        plan = FaultPlan(
            specs=(FaultSpec("page_read", TRANSIENT,
                             probability=1.0),))
        buffer = self._buffer(plan,
                              RetryPolicy(max_attempts=2))
        with pytest.raises(TransientStorageError):
            buffer.read_page(_page(0))
        # No logical read was counted for the failed touch.
        assert buffer.metrics.logical_reads == 0

    def test_permanent_fault_not_retried(self):
        plan = FaultPlan.single_shot("page_write", 0)
        buffer = self._buffer(plan)
        with pytest.raises(PermanentStorageError):
            buffer.write_page(_page(0))
        assert buffer.metrics.retries == 0
        assert buffer.metrics.physical_writes == 0

    def test_slow_fault_charges_latency_only(self):
        plan = FaultPlan(
            specs=(FaultSpec("page_read", SLOW, probability=1.0,
                             latency_units=4.0),))
        buffer = self._buffer(plan)
        buffer.read_page(_page(0))
        buffer.read_page(_page(0))
        assert buffer.metrics.latency_units == pytest.approx(8.0)
        assert buffer.metrics.retries == 0
        assert buffer.metrics.logical_reads == 2

    def test_no_injector_means_no_overhead_fields(self):
        buffer = BufferManager()
        buffer.read_page(_page(0))
        assert buffer.metrics.latency_units == 0.0
        assert buffer.metrics.retries == 0
        assert buffer.metrics.rollbacks == 0
