"""Event base classes and delivery priorities.

Everything that happens in a PySST simulation is an :class:`Event`
delivered to a handler at a specific simulated time.  Like SST, ties at
the same timestamp are broken by an integer *priority* (lower runs
first) and then by insertion order, which makes every run of a given
configuration bit-for-bit deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Type

# Priority bands, mirroring SST's eventqueue priorities.  Lower value =
# delivered earlier among events with an equal timestamp.
PRIORITY_SYNC = 25  #: parallel-rank synchronisation actions
PRIORITY_STOP = 30  #: simulation stop actions
PRIORITY_CLOCK = 40  #: clock tick handlers
PRIORITY_EVENT = 50  #: ordinary link-delivered events
PRIORITY_FINAL = 90  #: end-of-simulation bookkeeping


class Event:
    """Base class for everything delivered over a :class:`~repro.core.link.Link`.

    Subclasses add payload fields; the engine itself only needs the
    object identity.  ``__slots__`` keeps per-event overhead low — a
    pure-Python PDES core lives or dies by allocation cost (see the
    repro scoping notes in DESIGN.md).
    """

    __slots__ = ()

    def clone(self) -> "Event":
        """Return a shallow copy of this event.

        Used when one logical event must be delivered to several
        receivers (e.g. a snooping bus).  Subclasses with mutable
        payloads should override.
        """
        cls = type(self)
        new = cls.__new__(cls)
        try:
            slots = _SLOTS_BY_CLASS[cls]
        except KeyError:
            slots = _collect_slots(cls)
        for name in slots:
            try:
                setattr(new, name, getattr(self, name))
            except AttributeError:
                pass  # slot never assigned on the source
        return new


#: Per-class flattened slot list, filled on first clone() — walking the
#: MRO with hasattr/getattr per slot on every clone was O(mro x slots).
_SLOTS_BY_CLASS: Dict[Type["Event"], Tuple[str, ...]] = {}


def _collect_slots(cls: Type["Event"]) -> Tuple[str, ...]:
    names: List[str] = []
    for klass in cls.__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):  # __slots__ = "name" is legal
            slots = (slots,)
        names.extend(slots)
    flattened = tuple(dict.fromkeys(names))  # dedupe, keep MRO order
    _SLOTS_BY_CLASS[cls] = flattened
    return flattened


class NullEvent(Event):
    """An event with no payload; useful as a pure wake-up token."""

    __slots__ = ()


class CallbackEvent(Event):
    """Wraps an arbitrary callback for one-shot scheduling.

    ``Simulation.schedule_callback`` uses this to let components request
    "call me back at time T" without declaring a self-link.
    """

    __slots__ = ("callback", "payload")

    def __init__(self, callback: Callable[[Any], None], payload: Any = None):
        self.callback = callback
        self.payload = payload

    def invoke(self) -> None:
        self.callback(self.payload)


#: Type of a component-side event handler.
Handler = Callable[[Event], None]


class IdSource:
    """A named, checkpointable global id counter.

    Model libraries hand out process-global ids (memory ``req_id``,
    network ``msg_id``, ...) so responses can be matched to outstanding
    requests.  A plain ``itertools.count`` cannot be captured or
    restored, which breaks engine checkpointing: a resumed run would
    re-issue ids that collide with ids already held by restored
    in-flight state.  ``IdSource`` is a drop-in replacement (``next()``
    works) whose value `repro.ckpt` snapshots and restores by name.
    """

    _registry: Dict[str, "IdSource"] = {}

    __slots__ = ("name", "_next")

    def __init__(self, name: str, start: int = 1):
        if name in IdSource._registry:
            raise ValueError(f"duplicate IdSource {name!r}")
        self.name = name
        self._next = start
        IdSource._registry[name] = self

    def __next__(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def __iter__(self) -> "IdSource":
        return self

    def peek(self) -> int:
        """The id the next ``next()`` call will return."""
        return self._next

    @classmethod
    def capture_all(cls) -> Dict[str, int]:
        """Snapshot every registered counter's next value."""
        return {name: src._next for name, src in cls._registry.items()}

    @classmethod
    def restore_all(cls, state: Dict[str, int], *, merge_max: bool = False) -> None:
        """Restore counters captured by :meth:`capture_all`.

        With ``merge_max`` (used when merging shards from ranks that ran
        in separate processes and therefore advanced the same counter
        independently), a counter is only moved forward — the maximum
        over all restored values wins, which preserves uniqueness.
        Unknown names are ignored so old snapshots load on newer trees.
        """
        for name, value in state.items():
            src = cls._registry.get(name)
            if src is None:
                continue
            src._next = max(src._next, value) if merge_max else value
