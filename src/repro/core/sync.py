"""Layer 2: the synchronization policy of the parallel engine.

:class:`ConservativeSync` is the *policy* half of
:class:`~repro.core.parallel.ParallelSimulation` — it decides when
ranks may run and how far, while an
:class:`~repro.core.backends.ExecutionBackend` decides where the rank
kernels execute.  It implements SST's barrier-epoch protocol:

* **lookahead** — the smallest latency of any cross-rank link.  An
  event executed at ``t >= gmin`` cannot affect another rank before
  ``t + lookahead``, so every rank may run through
  ``gmin + lookahead - 1`` without coordination.
* **exchange** — cross-rank sends accumulate as outbox entries
  ``(time, priority, link_id, dest_rank, send_seq, event)``; before
  each epoch they are sorted on the global deterministic key
  ``(time, priority, link_id, send_seq)`` and split per destination
  rank, so the receiving queue's tie-breaking is independent of rank
  execution order — and therefore of the execution backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from . import units
from .units import SimTime

_INF = float("inf")

#: One cross-rank send in flight:
#: ``(time, priority, link_id, dest_rank, send_seq, event)``.
OutboxEntry = Tuple[SimTime, int, int, int, int, Any]


class ConservativeSync:
    """SST's conservative barrier-epoch protocol as a policy object.

    Owns the pieces ``ParallelSimulation.run`` used to inline: the
    lookahead bound, the set of in-flight cross-rank sends, the global
    earliest-work computation and the deterministic exchange ordering.
    The engine's run loop asks this object for the next window and
    feeds back each epoch's :class:`~repro.core.backends.RankStep`
    results via :meth:`absorb`.
    """

    name = "conservative"

    def __init__(self) -> None:
        self._lookahead: Optional[SimTime] = None
        #: undelivered cross-rank sends, keyed by destination rank
        #: (setup-time sends land here before the first epoch; epoch
        #: outboxes via absorb()).  Kept per destination so the exchange
        #: sort and the pipe writes are one batch per receiving rank.
        self.pending: Dict[int, List[OutboxEntry]] = {}
        #: per-rank earliest queued event, refreshed each epoch.
        self.next_times: List[Optional[SimTime]] = []

    # ------------------------------------------------------------------
    # lookahead
    # ------------------------------------------------------------------
    def note_cross_link(self, latency: SimTime) -> None:
        """Observe a new rank-crossing link of the given latency."""
        if self._lookahead is None or latency < self._lookahead:
            self._lookahead = latency

    @property
    def lookahead(self) -> SimTime:
        """Conservative sync window: min latency among cross-rank links.

        With no cross-rank links the ranks are independent and the
        window is unbounded (represented as a large constant).
        """
        return self._lookahead if self._lookahead is not None else units.PS_PER_SEC

    def describe(self) -> Dict[str, Any]:
        """Self-description embedded in telemetry streams and manifests.

        Post-hoc tools (``python -m repro obs``) read this back from run
        artifacts to label sync lanes and normalize epoch windows, so
        the ``strategy`` and ``lookahead_ps`` keys are part of the
        telemetry schema.
        """
        return {"strategy": self.name, "lookahead_ps": self.lookahead}

    # ------------------------------------------------------------------
    # epoch-window computation
    # ------------------------------------------------------------------
    def add_pending(self, entries: List[OutboxEntry]) -> None:
        pending = self.pending
        for entry in entries:
            dest = entry[3]
            bucket = pending.get(dest)
            if bucket is None:
                pending[dest] = [entry]
            else:
                bucket.append(entry)

    def global_min(self) -> float:
        """Earliest pending work anywhere: queued events or undelivered sends."""
        lowest: float = _INF
        for t in self.next_times:
            if t is not None and t < lowest:
                lowest = t
        for bucket in self.pending.values():
            for entry in bucket:
                if entry[0] < lowest:
                    lowest = entry[0]
        return lowest

    def window_end(self, global_min: SimTime,
                   limit: Optional[SimTime]) -> SimTime:
        # Safe window: any send made while executing t >= global_min
        # arrives at >= global_min + lookahead, i.e. after the window.
        end = int(global_min) + self.lookahead - 1
        if limit is not None:
            end = min(end, limit)
        return end

    # ------------------------------------------------------------------
    # cross-rank exchange
    # ------------------------------------------------------------------
    def exchange(self, num_ranks: int) -> Tuple[List[List[OutboxEntry]], int]:
        """Deterministically order pending sends, split per destination.

        Entries are sorted on the global ``(time, priority, link_id,
        send_seq)`` key inside each destination list, so the receiving
        queue assigns local sequence numbers in a backend-independent
        order.  Sorting each destination bucket separately is equivalent
        to the historical sort-then-split of one flat list: splitting is
        stable, so the per-destination order of a globally sorted list
        is exactly the bucket sorted on the same key.
        """
        deliveries: List[List[OutboxEntry]] = [[] for _ in range(num_ranks)]
        if not self.pending:
            return deliveries, 0
        exchanged = 0
        for dest, bucket in self.pending.items():
            bucket.sort(key=lambda e: (e[0], e[1], e[2], e[4]))
            deliveries[dest] = bucket
            exchanged += len(bucket)
        self.pending = {}
        return deliveries, exchanged

    def absorb(self, steps) -> None:
        """Fold one epoch's per-rank results back into the policy state.

        ``step.outbox`` is per destination rank (see
        :class:`~repro.core.backends.RankStep`); buckets merge into the
        matching pending bucket.
        """
        self.next_times = [step.next_time for step in steps]
        pending = self.pending
        for step in steps:
            outbox = step.outbox
            if not outbox:
                continue
            for dest, entries in enumerate(outbox):
                if not entries:
                    continue
                bucket = pending.get(dest)
                if bucket is None:
                    pending[dest] = list(entries)
                else:
                    bucket.extend(entries)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def export_pending(self, cross_links: Dict[int, Any]) -> List[Tuple]:
        """Undelivered cross-rank sends in a partitioning-portable form.

        `repro.ckpt` snapshots at epoch boundaries (after outboxes were
        absorbed), so ``pending`` is exactly the set of sends the next
        epoch's exchange would deliver.  Link ids are partition-local,
        so each entry also names its target ``(component, port)`` —
        identity that survives restoring onto a different rank count.
        Returns tuples ``(time, priority, link_id, dest_component,
        dest_port, send_seq, event)``.
        """
        exported: List[Tuple] = []
        for dest_rank, bucket in sorted(self.pending.items()):
            for (time, priority, link_id, dest, send_seq, event) in bucket:
                xlink = cross_links[link_id]
                port = xlink.port_b if dest == xlink.rank_b else xlink.port_a
                exported.append((time, priority, link_id,
                                 port.component.name, port.name,
                                 send_seq, event))
        return exported

