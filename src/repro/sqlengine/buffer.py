"""Buffer manager: the page-touch meter and its fault sites.

Every access path in the executor charges its page touches through a
:class:`BufferManager`. Each read is a logical read and each write a
physical write; the counters are the raw material for the
deterministic "execution time" metric used to reproduce the paper's
Figure 3 (which reports *relative* times, so a deterministic simulated
clock preserves the comparisons exactly). No page is cached: no cost
depends on a buffer pool.

Pages are identified by ``(object_id, page_no)`` where the object id is
assigned here on behalf of the storage layer (one per heap file, index
or view).

Fault injection hooks here: when a :class:`~repro.faults.injector.
FaultInjector` is attached, every page touch is checked *before any
counter moves* — a faulted access charges nothing to the data-plane
counters, so a rolled-back operation leaves them exactly where they
started. Transient page faults are retried in place under the
configured :class:`~repro.faults.retry.RetryPolicy`, charging the
backoff as ``latency_units``. With no injector attached (the default)
the guard is a single ``is None`` test and nothing else changes.

:class:`IoMetrics` distinguishes two planes:

* **data plane** — ``logical_reads`` / ``physical_writes``: the
  deterministic I/O clock. Rolling back a design transition restores
  these exactly.
* **fault plane** — ``latency_units`` / ``retries`` / ``rollbacks``:
  monotone bookkeeping of what fault handling cost. Rollback does
  *not* rewind these (the work of failing really happened).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Tuple

from ..errors import TransientStorageError
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy

PageId = Tuple[int, int]


@dataclass
class IoMetrics:
    """Counters accumulated by a :class:`BufferManager`.

    Attributes:
        logical_reads: pages read.
        physical_writes: pages written (index builds, DML).
        latency_units: simulated latency charged by slow-I/O faults and
            retry backoff (fault plane; zero when faults are off).
        retries: transient-failure re-attempts performed (fault plane).
        rollbacks: design transitions rolled back after a mid-build
            fault (fault plane).
    """

    logical_reads: int = 0
    physical_writes: int = 0
    latency_units: float = 0.0
    retries: int = 0
    rollbacks: int = 0

    def copy(self) -> "IoMetrics":
        return replace(self)

    def __sub__(self, other: "IoMetrics") -> "IoMetrics":
        # Deltas are floored at zero: every counter only grows between
        # a checkpoint and its restore, so a negative difference can
        # only mean the caller mixed snapshots across a rollback —
        # report no movement rather than negative I/O.
        return IoMetrics(
            max(0, self.logical_reads - other.logical_reads),
            max(0, self.physical_writes - other.physical_writes),
            max(0.0, self.latency_units - other.latency_units),
            max(0, self.retries - other.retries),
            max(0, self.rollbacks - other.rollbacks),
        )

    def io_equal(self, other: "IoMetrics") -> bool:
        """Equality of the data-plane counters only (the contract a
        rolled-back transition must restore)."""
        return (self.logical_reads == other.logical_reads and
                self.physical_writes == other.physical_writes)


@dataclass
class BufferState:
    """A checkpoint of a :class:`BufferManager` (see
    :meth:`BufferManager.save_state`)."""

    next_object_id: int
    metrics: IoMetrics


@dataclass
class BufferManager:
    """Page-touch meter.

    The engine keeps actual data in column arrays and sorted index
    arrays; the buffer manager only hands out object ids, fires the
    page fault sites and counts the touches.
    """

    metrics: IoMetrics = field(default_factory=IoMetrics)
    #: When set, every page touch consults the injector (see module
    #: docstring); None (default) means zero fault-handling overhead.
    fault_injector: Optional[object] = None
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
    _next_object_id: int = 1

    def allocate_object_id(self) -> int:
        """Hand out a fresh object id for a new heap file or index."""
        object_id = self._next_object_id
        self._next_object_id += 1
        return object_id

    def read_page(self, page_id: PageId) -> None:
        """Record a read of ``page_id``."""
        if self.fault_injector is not None:
            self._faulted_touch(self.fault_injector.on_page_read,
                                page_id)
        self.metrics.logical_reads += 1

    def read_pages(self, object_id: int, page_nos: Iterable[int]) -> None:
        """Read a batch of pages of one object, in order."""
        for page_no in page_nos:
            self.read_page((object_id, page_no))

    def read_range(self, object_id: int, n_pages: int) -> None:
        """Sequentially read pages ``0..n_pages-1`` of an object."""
        self.read_pages(object_id, range(n_pages))

    def write_page(self, page_id: PageId) -> None:
        """Record a page write."""
        if self.fault_injector is not None:
            self._faulted_touch(self.fault_injector.on_page_write,
                                page_id)
        self.metrics.physical_writes += 1

    def _faulted_touch(self, hook, page_id: PageId) -> None:
        """Run an injector hook, retrying transient faults in place.

        Fires *before* the counters move: a page touch that ultimately
        fails charges nothing to the data plane. Retry backoff lands
        on the fault plane (``retries`` / ``latency_units``).
        """
        attempt = 1
        while True:
            try:
                hook(page_id, self.metrics)
                return
            except TransientStorageError:
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.metrics.retries += 1
                self.metrics.latency_units += \
                    self.retry_policy.backoff_for(attempt)
                attempt += 1

    def snapshot(self) -> IoMetrics:
        """A copy of the counters (for delta measurements)."""
        return self.metrics.copy()

    def save_state(self) -> BufferState:
        """Checkpoint the object-id cursor and metrics (the transition
        machinery's rollback anchor)."""
        return BufferState(next_object_id=self._next_object_id,
                           metrics=self.metrics.copy())

    def restore_state(self, state: BufferState) -> None:
        """Restore a :meth:`save_state` checkpoint.

        The object-id cursor and the data-plane counters return
        exactly to the checkpoint (so a retried build re-runs against
        identical object ids, hence bit-identical charging). The
        fault-plane counters are kept at their current values: retries
        and latency already happened and stay on the books.
        """
        self._next_object_id = state.next_object_id
        self.metrics = replace(
            state.metrics, latency_units=self.metrics.latency_units,
            retries=self.metrics.retries,
            rollbacks=self.metrics.rollbacks)
