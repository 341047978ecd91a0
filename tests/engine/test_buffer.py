"""Unit tests for the buffer manager (page-touch metering)."""

from repro.sqlengine.buffer import BufferManager, IoMetrics


class TestMetrics:
    def test_read_counts_a_logical_read(self):
        buffer = BufferManager()
        buffer.read_page((1, 0))
        assert buffer.metrics.logical_reads == 1
        assert buffer.metrics.physical_writes == 0

    def test_repeated_read_counts_every_time(self):
        buffer = BufferManager()
        buffer.read_page((1, 0))
        buffer.read_page((1, 0))
        assert buffer.metrics.logical_reads == 2

    def test_metrics_arithmetic(self):
        a = IoMetrics(10, 2)
        b = IoMetrics(3, 1)
        assert (a - b).logical_reads == 7
        assert (a - b).physical_writes == 1

    def test_snapshot_is_a_copy(self):
        buffer = BufferManager()
        snap = buffer.snapshot()
        buffer.read_page((1, 0))
        assert snap.logical_reads == 0


class TestWritesAndIds:
    def test_write_counts(self):
        buffer = BufferManager()
        buffer.write_page((1, 0))
        assert buffer.metrics.physical_writes == 1
        assert buffer.metrics.logical_reads == 0

    def test_read_pages_counts_each_page(self):
        buffer = BufferManager()
        buffer.read_page((1, 0))
        buffer.read_pages(1, [0, 1, 2])
        buffer.read_range(2, 4)
        assert buffer.metrics.logical_reads == 8

    def test_object_ids_are_unique(self):
        buffer = BufferManager()
        ids = {buffer.allocate_object_id() for _ in range(10)}
        assert len(ids) == 10
