"""Buffer manager: an LRU page cache with I/O metering.

Every access path in the executor charges its page touches through a
:class:`BufferManager`. Logical reads that hit the cache cost nothing at
the I/O level; misses count as physical reads. The resulting counters
are the raw material for the deterministic "execution time" metric used
to reproduce the paper's Figure 3 (which reports *relative* times, so a
deterministic simulated clock preserves the comparisons exactly).

Pages are identified by ``(object_id, page_no)`` where the object id is
assigned by the storage layer (one per heap file or index).

Fault injection hooks here: when a :class:`~repro.faults.injector.
FaultInjector` is attached, every page touch is checked *before any
counter moves* — a faulted access charges nothing to the data-plane
counters, so a rolled-back operation leaves them exactly where they
started. Transient page faults are retried in place under the
configured :class:`~repro.faults.retry.RetryPolicy`, charging the
backoff as ``latency_units``. With no injector attached (the default)
the guard is a single ``is None`` test and nothing else changes.

:class:`IoMetrics` distinguishes two planes:

* **data plane** — ``logical_reads`` / ``physical_reads`` /
  ``physical_writes``: the deterministic I/O clock. Rolling back a
  design transition restores these exactly.
* **fault plane** — ``latency_units`` / ``retries`` / ``rollbacks``:
  monotone bookkeeping of what fault handling cost. Rollback does
  *not* rewind these (the work of failing really happened).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from ..errors import TransientStorageError
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy

PageId = Tuple[int, int]

#: Default buffer pool capacity in pages (8 KiB pages -> 64 MiB pool).
DEFAULT_CAPACITY_PAGES = 8192


@dataclass
class IoMetrics:
    """Counters accumulated by a :class:`BufferManager`.

    Attributes:
        logical_reads: page requests, whether or not they hit the cache.
        physical_reads: page requests that missed the cache.
        physical_writes: pages written out (index builds, DML).
        latency_units: simulated latency charged by slow-I/O faults and
            retry backoff (fault plane; zero when faults are off).
        retries: transient-failure re-attempts performed (fault plane).
        rollbacks: design transitions rolled back after a mid-build
            fault (fault plane).
    """

    logical_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    latency_units: float = 0.0
    retries: int = 0
    rollbacks: int = 0

    def copy(self) -> "IoMetrics":
        return IoMetrics(self.logical_reads, self.physical_reads,
                         self.physical_writes, self.latency_units,
                         self.retries, self.rollbacks)

    def __sub__(self, other: "IoMetrics") -> "IoMetrics":
        # Deltas are floored at zero: every counter is monotone, so a
        # negative difference can only mean the caller mixed snapshots
        # across a reset — report no movement rather than negative I/O.
        return IoMetrics(
            max(0, self.logical_reads - other.logical_reads),
            max(0, self.physical_reads - other.physical_reads),
            max(0, self.physical_writes - other.physical_writes),
            max(0.0, self.latency_units - other.latency_units),
            max(0, self.retries - other.retries),
            max(0, self.rollbacks - other.rollbacks),
        )

    def __add__(self, other: "IoMetrics") -> "IoMetrics":
        return IoMetrics(
            self.logical_reads + other.logical_reads,
            self.physical_reads + other.physical_reads,
            self.physical_writes + other.physical_writes,
            self.latency_units + other.latency_units,
            self.retries + other.retries,
            self.rollbacks + other.rollbacks,
        )

    def io_equal(self, other: "IoMetrics") -> bool:
        """Equality of the data-plane counters only (the contract a
        rolled-back transition must restore)."""
        return (self.logical_reads == other.logical_reads and
                self.physical_reads == other.physical_reads and
                self.physical_writes == other.physical_writes)

    @property
    def hit_ratio(self) -> float:
        if self.logical_reads == 0:
            return 1.0
        return 1.0 - self.physical_reads / self.logical_reads


@dataclass
class BufferState:
    """A checkpoint of a :class:`BufferManager` (see
    :meth:`BufferManager.save_state`)."""

    lru_pages: Tuple[PageId, ...]
    next_object_id: int
    metrics: IoMetrics


@dataclass
class BufferManager:
    """LRU page cache.

    The cache stores only page identities (the engine keeps actual data
    in column arrays and sorted index arrays); its job is purely to
    decide which page touches are physical I/O and to meter them.
    """

    capacity_pages: int = DEFAULT_CAPACITY_PAGES
    metrics: IoMetrics = field(default_factory=IoMetrics)
    #: When set, every page touch consults the injector (see module
    #: docstring); None (default) means zero fault-handling overhead.
    fault_injector: Optional[object] = None
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
    _lru: "OrderedDict[PageId, None]" = field(default_factory=OrderedDict)
    # Secondary index: cached pages per object, so dropping an object
    # (index drop) is O(pages of that object), not O(total cached).
    _by_object: Dict[int, Set[PageId]] = field(default_factory=dict)
    _next_object_id: int = 1
    # Counters retired by reset_metrics(); keeps snapshot() monotone
    # over the buffer's lifetime so mid-operation deltas can never go
    # negative even when a reset lands between two snapshots.
    _lifetime_base: IoMetrics = field(default_factory=IoMetrics)

    def allocate_object_id(self) -> int:
        """Hand out a fresh object id for a new heap file or index."""
        object_id = self._next_object_id
        self._next_object_id += 1
        return object_id

    def read_page(self, page_id: PageId) -> bool:
        """Record a read of ``page_id``. Returns True on a cache hit."""
        if self.fault_injector is not None:
            self._faulted_touch(self.fault_injector.on_page_read,
                                page_id)
        self.metrics.logical_reads += 1
        if page_id in self._lru:
            self._lru.move_to_end(page_id)
            return True
        self.metrics.physical_reads += 1
        self._admit(page_id)
        return False

    def read_pages(self, object_id: int, page_nos: Iterable[int]) -> int:
        """Read a batch of pages of one object; returns the miss count."""
        misses = 0
        for page_no in page_nos:
            if not self.read_page((object_id, page_no)):
                misses += 1
        return misses

    def read_range(self, object_id: int, n_pages: int) -> int:
        """Sequentially read pages ``0..n_pages-1`` of an object."""
        return self.read_pages(object_id, range(n_pages))

    def write_page(self, page_id: PageId) -> None:
        """Record a page write; the page is cached afterwards."""
        if self.fault_injector is not None:
            self._faulted_touch(self.fault_injector.on_page_write,
                                page_id)
        self.metrics.physical_writes += 1
        if page_id in self._lru:
            self._lru.move_to_end(page_id)
        else:
            self._admit(page_id)

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

    def invalidate_object(self, object_id: int) -> None:
        """Drop all cached pages of an object (e.g. on index drop).

        O(pages of that object) via the per-object page index; the
        I/O counters are untouched (invalidation is bookkeeping, not
        I/O)."""
        for pid in self._by_object.pop(object_id, ()):
            del self._lru[pid]

    def clear(self) -> None:
        """Empty the cache (counters are kept; use reset_metrics too)."""
        self._lru.clear()
        self._by_object.clear()

    def reset_metrics(self) -> IoMetrics:
        """Zero the counters, returning the values they had.

        The retired values fold into a lifetime base so
        :meth:`snapshot` stays monotone across resets — a delta
        computed from snapshots straddling a reset is the true
        movement, never negative.
        """
        old = self.metrics
        self._lifetime_base = self._lifetime_base + old
        self.metrics = IoMetrics()
        return old

    def snapshot(self) -> IoMetrics:
        """Monotone lifetime counters (for delta measurements); not
        affected by :meth:`reset_metrics`."""
        return self._lifetime_base + self.metrics

    def save_state(self) -> BufferState:
        """Checkpoint cache contents, object-id cursor, and metrics
        (the transition machinery's rollback anchor)."""
        return BufferState(lru_pages=tuple(self._lru),
                           next_object_id=self._next_object_id,
                           metrics=self.metrics.copy())

    def restore_state(self, state: BufferState) -> None:
        """Restore a :meth:`save_state` checkpoint.

        Cache contents, the object-id cursor, and the data-plane
        counters return exactly to the checkpoint (so a retried build
        re-runs against identical cache state and object ids, hence
        bit-identical charging). The fault-plane counters are kept at
        their current values: retries and latency already happened and
        stay on the books.
        """
        self._lru = OrderedDict((pid, None) for pid in state.lru_pages)
        self._by_object = {}
        for pid in state.lru_pages:
            self._by_object.setdefault(pid[0], set()).add(pid)
        self._next_object_id = state.next_object_id
        restored = state.metrics.copy()
        restored.latency_units = self.metrics.latency_units
        restored.retries = self.metrics.retries
        restored.rollbacks = self.metrics.rollbacks
        self.metrics = restored

    @property
    def cached_pages(self) -> int:
        return len(self._lru)

    def _admit(self, page_id: PageId) -> None:
        self._lru[page_id] = None
        self._by_object.setdefault(page_id[0], set()).add(page_id)
        while len(self._lru) > self.capacity_pages:
            evicted, _ = self._lru.popitem(last=False)
            pages = self._by_object.get(evicted[0])
            if pages is not None:
                pages.discard(evicted)
                if not pages:
                    del self._by_object[evicted[0]]
