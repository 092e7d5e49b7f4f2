"""Pending-event set implementations.

The simulator's hot loop is ``pop smallest-timestamp record / execute /
push successors``, so the queue dominates engine throughput.  Two
interchangeable implementations are provided:

* :class:`HeapEventQueue` — a binary heap (``heapq``).  O(log n), low
  constant factor, the default.
* :class:`BinnedEventQueue` — a calendar-style queue with fixed-width
  time bins and an overflow heap.  O(1) amortised for workloads whose
  event horizon is short relative to the bin width (clocked component
  graphs), but degrades when timestamps are spread widely.

A queued delivery is the plain tuple ``(time, priority, seq, handler,
event)`` (:data:`Record`).  ``seq`` is unique per queue, so tuple
comparison always resolves on the ``(time, priority, seq)`` key — in C,
never reaching the handler or the event.

``benchmarks/bench_engine_throughput.py`` carries the ablation between
the two (experiment ENG-1 in DESIGN.md).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .event import Event, Handler
from .units import SimTime

#: A queued delivery: ``(time, priority, seq, handler, event)``.
Record = Tuple[SimTime, int, int, Optional[Handler], Optional[Event]]


class EventQueueBase:
    """Interface shared by all pending-event set implementations."""

    def push(
        self,
        time: SimTime,
        priority: int,
        handler: Optional[Handler],
        event: Optional[Event],
    ) -> int:
        """Queue a delivery; returns the insertion ``seq`` it was given."""
        raise NotImplementedError

    def pop(self, until: SimTime) -> Optional[Record]:
        """Remove and return the earliest record if its time is ``<= until``.

        Returns None (and removes nothing) when the queue is empty or
        its earliest record lies beyond ``until``.
        """
        raise NotImplementedError

    def peek_time(self) -> Optional[SimTime]:
        """Timestamp of the earliest record, or None when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- checkpoint support ------------------------------------------------
    # The insertion-sequence counter is part of the determinism contract:
    # a restored queue must hand out exactly the seq values the original
    # would have, so `repro.ckpt` captures it explicitly (the max pending
    # seq underestimates it whenever the newest records have already been
    # popped).

    @property
    def seq(self) -> int:
        """The next insertion sequence number this queue will assign."""
        raise NotImplementedError

    def snapshot_records(self) -> List[Record]:
        """All pending records, non-destructively, in no particular order."""
        raise NotImplementedError

    def restore_records(self, records: List[Record], seq: int) -> None:
        """Replace the queue's contents and seq counter wholesale.

        Existing records are discarded (a rebuild pushes setup-time
        events that the snapshot's records supersede).  ``records`` must
        already carry their final seq values.
        """
        raise NotImplementedError


class HeapEventQueue(EventQueueBase):
    """Binary-heap pending-event set (the default engine queue)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Record] = []
        self._seq = 0

    def push(
        self,
        time: SimTime,
        priority: int,
        handler: Optional[Handler],
        event: Optional[Event],
    ) -> int:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handler, event))
        return seq

    def pop(self, until: SimTime) -> Optional[Record]:
        heap = self._heap
        if heap and heap[0][0] <= until:
            return heapq.heappop(heap)
        return None

    def peek_time(self) -> Optional[SimTime]:
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def seq(self) -> int:
        return self._seq

    def snapshot_records(self) -> List[Record]:
        return list(self._heap)

    def restore_records(self, records: List[Record], seq: int) -> None:
        self._heap = list(records)
        heapq.heapify(self._heap)
        self._seq = seq


class BinnedEventQueue(EventQueueBase):
    """Calendar-queue variant: fixed-width bins plus an overflow heap.

    Records within ``horizon = bin_width * n_bins`` of the current front
    go into per-bin lists (sorted lazily when the window front reaches
    the bin); records beyond the horizon land in an overflow heap that is
    drained as the calendar advances.

    Parameters
    ----------
    bin_width:
        Bin granularity in picoseconds.  A good choice is the GCD of
        the clock periods in the design (e.g. 1000 for a 1 GHz system).
    n_bins:
        Number of bins in the rotating calendar window.
    """

    __slots__ = ("_bin_width", "_n_bins", "_bins", "_base", "_overflow", "_seq", "_count")

    def __init__(self, bin_width: SimTime = 1000, n_bins: int = 256) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if n_bins <= 0:
            raise ValueError("n_bins must be positive")
        self._bin_width = bin_width
        self._n_bins = n_bins
        self._bins: Dict[int, List[Record]] = {}
        self._base = 0  # index of the first bin in the active window
        self._overflow: List[Record] = []
        self._seq = 0
        self._count = 0

    def _bin_index(self, time: SimTime) -> int:
        return time // self._bin_width

    def push(
        self,
        time: SimTime,
        priority: int,
        handler: Optional[Handler],
        event: Optional[Event],
    ) -> int:
        seq = self._seq
        self._seq = seq + 1
        self._insert((time, priority, seq, handler, event))
        return seq

    def _insert(self, record: Record) -> None:
        index = self._bin_index(record[0])
        if index >= self._base + self._n_bins:
            heapq.heappush(self._overflow, record)
        else:
            self._bins.setdefault(index, []).append(record)
        self._count += 1

    def _advance(self) -> None:
        """Move the window forward until the front bin is non-empty."""
        while True:
            if self._bins:
                lowest = min(self._bins)
                if lowest >= self._base:
                    self._base = lowest
            if self._overflow:
                over_index = self._bin_index(self._overflow[0][0])
                if not self._bins or over_index <= min(self._bins):
                    self._base = over_index
            # Drain overflow records that now fall inside the window.
            horizon = self._base + self._n_bins
            moved = False
            while self._overflow and self._bin_index(self._overflow[0][0]) < horizon:
                record = heapq.heappop(self._overflow)
                self._bins.setdefault(self._bin_index(record[0]), []).append(record)
                moved = True
            if not moved:
                return

    def _front(self) -> Tuple[int, List[Record]]:
        """The front bin's index and records, smallest record last."""
        self._advance()
        lowest = min(self._bins)
        bucket = self._bins[lowest]
        # Lazy sort: a bin is sorted only when the window front reaches it.
        if len(bucket) > 1:
            bucket.sort(reverse=True)
        return lowest, bucket

    def pop(self, until: SimTime) -> Optional[Record]:
        if self._count == 0:
            return None
        lowest, bucket = self._front()
        if bucket[-1][0] > until:
            return None
        record = bucket.pop()
        if not bucket:
            del self._bins[lowest]
        self._count -= 1
        return record

    def peek_time(self) -> Optional[SimTime]:
        if self._count == 0:
            return None
        return self._front()[1][-1][0]

    def __len__(self) -> int:
        return self._count

    @property
    def seq(self) -> int:
        return self._seq

    def snapshot_records(self) -> List[Record]:
        records = [r for bucket in self._bins.values() for r in bucket]
        records.extend(self._overflow)
        return records

    def restore_records(self, records: List[Record], seq: int) -> None:
        self._bins = {}
        self._overflow = []
        self._base = 0
        self._count = 0
        for record in records:
            self._insert(record)
        self._seq = seq


#: Registry used by Simulation(queue="...") and the ENG-1 ablation bench.
QUEUE_TYPES = {
    "heap": HeapEventQueue,
    "binned": BinnedEventQueue,
}


def make_queue(kind: str = "heap", **kwargs) -> EventQueueBase:
    """Instantiate a pending-event set by name (``"heap"`` or ``"binned"``)."""
    try:
        factory = QUEUE_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown event queue type {kind!r}; options: {sorted(QUEUE_TYPES)}")
    return factory(**kwargs)
