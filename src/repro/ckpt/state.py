"""Per-rank engine state capture and restore (the `repro.ckpt` core).

One rank's :class:`~repro.core.simulation.Simulation` is captured as two
pieces:

* a **meta** dict of plain values — time counters, the queue's insertion
  sequence, clock and arbiter scheduling state, registered statistic
  values, :class:`~repro.core.event.IdSource` counters, the engine RNG
  state.  Plain-picklable; statistic objects are pickled *by value*
  here, which snapshots their numbers.
* a **linked** blob — component state dicts plus the pending event
  records.  Both are full of references into the live object graph
  (bound-method handlers, ports, clocks, registered statistics), so the
  blob is pickled with a :class:`pickle.Pickler` whose ``persistent_id``
  maps every engine-owned object to a symbolic reference that a restore
  resolves against the *rebuilt* simulation:

  ====================  ==================================================
  reference             resolved to
  ====================  ==================================================
  ``("comp", name)``    the component of that name
  ``("subc", c, a)``    the subcomponent filling component ``c``'s slot ``a``
  ``("port", c, p)``    component ``c``'s port ``p``
  ``("stat", c, s)``    component ``c``'s registered statistic ``s``
  ``("clock", n, i)``   the ``i``-th registered clock named ``n``
  ``("arb", *key)``     the clock arbiter with that (period, priority,
                        residue) key
  ``("estat", name)``   the engine-level statistic of that name
  ``("lep", c, p)``     the link endpoint attached to port ``(c, p)``
  ``("linkobj", c, p)`` the link attached to port ``(c, p)``
  ``("simobj", rank)``  the rank's Simulation object
  ====================  ==================================================

  Bound methods (``port.deliver``, ``clock._tick``, a component callback
  held by a :class:`~repro.core.event.CallbackEvent`) pickle through the
  same machinery: pickle reduces them to ``getattr(owner, name)`` and
  the owner is intercepted by ``persistent_id``.

Identity that is *not* engine-owned — event payloads, component-private
containers, numpy generators — pickles by value, which is exactly the
deep copy a snapshot wants.

Restore resolution is **exact** when the target simulation has the same
rank layout as the capture (every reference resolves 1:1, queue records
and sequence counters are adopted verbatim, and the resumed run is
bit-identical to the uninterrupted one).  When the rank count changed,
:func:`make_resolver` runs in *union* mode over all target rank
simulations; references that cannot survive re-partitioning (a
superseded arbiter chain) resolve to the :data:`DROPPED` sentinel and
the restore layer discards the records that carry them.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.event import IdSource
from ..core.simulation import Simulation
from ..core.statistics import adopt_state

#: bump on incompatible shard layout changes (manifest schema is separate)
STATE_VERSION = 1


class CheckpointError(RuntimeError):
    """A snapshot could not be written, validated, or restored."""


class _Dropped:
    """Sentinel for references that cannot survive re-partitioning.

    Attribute access returns the sentinel itself so that pickle's
    bound-method reconstruction (``getattr(owner, name)``) succeeds;
    the restore layer then recognises and discards any record whose
    handler resolved here.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> "_Dropped":
        return self

    def __call__(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<ckpt dropped reference>"


DROPPED = _Dropped()


def is_dropped(obj: Any) -> bool:
    """True when ``obj`` is (or is bound to) the dropped-reference sentinel."""
    if isinstance(obj, _Dropped):
        return True
    return isinstance(getattr(obj, "__self__", None), _Dropped)


# ----------------------------------------------------------------------
# reference table (capture side)
# ----------------------------------------------------------------------

def build_ref_table(sims: Sequence[Simulation]) -> Dict[int, Tuple]:
    """``id(obj) -> symbolic ref`` for every engine-owned object.

    Component/port/clock/statistic references are unambiguous across
    ranks (component names are globally unique; clock names are
    component-scoped).  ``("arb", ...)``, ``("estat", ...)`` and
    ``("simobj", ...)`` entries are per-rank — when several sims are
    tabled together (the parallel pending-send blob) the last rank wins,
    which is acceptable because model events never carry those objects.
    """
    table: Dict[int, Tuple] = {}
    for sim in sims:
        table[id(sim)] = ("simobj", sim.rank)
        for name, comp in sim._components.items():
            table[id(comp)] = ("comp", name)
            for attr in getattr(type(comp), "_slot_specs", {}):
                sub = comp.__dict__.get(attr)
                if sub is not None:
                    # Slot subcomponents keep identity across a restore
                    # (Component.capture_state snapshots their state
                    # through a marker, never the object itself), so
                    # events holding one — or a bound method of one —
                    # resolve to the rebuilt instance.
                    table[id(sub)] = ("subc", name, attr)
            for pname, port in comp._ports.items():
                table[id(port)] = ("port", name, pname)
                endpoint = port.endpoint
                if endpoint is not None:
                    table[id(endpoint)] = ("lep", name, pname)
                    table[id(endpoint.link)] = ("linkobj", name, pname)
            for sname, stat in comp.stats.all().items():
                table[id(stat)] = ("stat", name, sname)
        counts: Dict[str, int] = {}
        for clock in sim._clocks:
            ordinal = counts.get(clock.name, 0)
            counts[clock.name] = ordinal + 1
            table[id(clock)] = ("clock", clock.name, ordinal)
        for key, arbiter in sim._arbiters.items():
            table[id(arbiter)] = ("arb",) + tuple(key)
        for sname, stat in sim.engine_stats.all().items():
            table[id(stat)] = ("estat", sname)
    return table


class _RefPickler(pickle.Pickler):
    def __init__(self, file: io.BytesIO, table: Dict[int, Tuple]):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._table = table

    def persistent_id(self, obj: Any) -> Optional[Tuple]:
        return self._table.get(id(obj))


def dump_refs(sims: Sequence[Simulation], obj: Any) -> bytes:
    """Pickle ``obj`` with engine objects replaced by symbolic refs."""
    buffer = io.BytesIO()
    try:
        _RefPickler(buffer, build_ref_table(sims)).dump(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise CheckpointError(
            f"component or event state is not snapshotable: {exc}.  "
            f"Override Component.capture_state() to return a picklable "
            f"stand-in (see docs/CHECKPOINT.md)."
        ) from exc
    return buffer.getvalue()


# ----------------------------------------------------------------------
# reference resolution (restore side)
# ----------------------------------------------------------------------

def make_resolver(sims: Sequence[Simulation],
                  rank_hint: Optional[int] = None) -> Callable[[Tuple], Any]:
    """A ``persistent_load`` resolver against the rebuilt simulations.

    ``rank_hint`` pins per-rank references (arbiters, engine stats, the
    Simulation object) to one target rank — pass it for exact-mode
    restores; union mode (re-partitioning) leaves it None and resolves
    those references to the dropped sentinel / the first sim instead.
    """
    comps: Dict[str, Any] = {}
    for sim in sims:
        comps.update(sim._components)
    by_rank = {sim.rank: sim for sim in sims}
    clock_groups: Dict[Tuple[str, int], Any] = {}
    for sim in sims:
        counts: Dict[str, int] = {}
        for clock in sim._clocks:
            ordinal = counts.get(clock.name, 0)
            counts[clock.name] = ordinal + 1
            clock_groups[(clock.name, ordinal)] = clock
    hinted = by_rank.get(rank_hint) if rank_hint is not None else None

    def resolve(ref: Tuple) -> Any:
        kind = ref[0]
        try:
            if kind == "comp":
                return comps[ref[1]]
            if kind == "subc":
                sub = comps[ref[1]].__dict__.get(ref[2])
                if sub is None:
                    raise KeyError(ref[2])
                return sub
            if kind == "port":
                return comps[ref[1]].port(ref[2])
            if kind == "stat":
                return comps[ref[1]].stats.all()[ref[2]]
            if kind == "clock":
                return clock_groups[(ref[1], ref[2])]
            if kind == "lep":
                return comps[ref[1]].port(ref[2]).endpoint
            if kind == "linkobj":
                return comps[ref[1]].port(ref[2]).endpoint.link
            if kind == "arb":
                key = tuple(ref[1:])
                if hinted is not None:
                    arbiter = hinted._arbiters.get(key)
                    if arbiter is None:
                        raise KeyError(key)
                    return arbiter
                return DROPPED  # chain records are re-armed, not restored
            if kind == "estat":
                sim = hinted if hinted is not None else sims[0]
                stat = sim.engine_stats.all().get(ref[1])
                return stat if stat is not None else DROPPED
            if kind == "simobj":
                if hinted is not None:
                    return hinted
                return by_rank.get(ref[1], sims[0])
        except (KeyError, AttributeError) as exc:
            raise CheckpointError(
                f"snapshot reference {ref!r} does not resolve against the "
                f"rebuilt simulation — the snapshot does not match this "
                f"configuration graph"
            ) from exc
        raise CheckpointError(f"unknown snapshot reference kind {ref!r}")

    return resolve


class _RefUnpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, resolver: Callable[[Tuple], Any]):
        super().__init__(file)
        self._resolver = resolver

    def persistent_load(self, ref: Tuple) -> Any:
        return self._resolver(ref)


def load_refs(blob: bytes, sims: Sequence[Simulation],
              rank_hint: Optional[int] = None) -> Any:
    """Unpickle a :func:`dump_refs` blob against rebuilt simulations."""
    return _RefUnpickler(io.BytesIO(blob), make_resolver(sims, rank_hint)).load()


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------

def capture_sim_state(sim: Simulation,
                      send_seq: Optional[int] = None) -> Dict[str, Any]:
    """One rank's complete engine state, ready for :func:`snapshot.write_shard`.

    Must be called where the live rank lives (the forked worker under
    the processes backend) and only at a quiescent point: an epoch
    boundary for parallel runs, between kernel segments for sequential
    ones.  ``send_seq`` is the rank's cross-rank send sequence counter
    (None for sequential simulations).
    """
    queue = sim._queue
    clock_index = {id(clock): i for i, clock in enumerate(sim._clocks)}
    meta: Dict[str, Any] = {
        "version": STATE_VERSION,
        "rank": sim.rank,
        "num_ranks": sim.num_ranks,
        "now": sim.now,
        "last_event_time": sim.last_event_time,
        "events_executed": sim._events_executed,
        "queue_seq": queue.seq,
        "send_seq": send_seq,
        "engine_rng": (sim._engine_rng.bit_generator.state
                       if sim._engine_rng is not None else None),
        "id_sources": IdSource.capture_all(),
        "clocks": [clock.capture_state() for clock in sim._clocks],
        "arbiters": [(list(key), arbiter.capture_state(clock_index))
                     for key, arbiter in sim._arbiters.items()],
        # Statistic objects pickle by value in the meta payload, which
        # snapshots their numbers; identity-preserving references inside
        # component state live in the linked blob instead.
        "stats": {name: dict(comp.stats.all())
                  for name, comp in sim._components.items()},
        "engine_stats": dict(sim.engine_stats.all()),
    }
    linked = {
        "components": {name: comp.capture_state()
                       for name, comp in sim._components.items()},
        "records": queue.snapshot_records(),
    }
    return {"meta": meta, "linked": dump_refs([sim], linked)}


# ----------------------------------------------------------------------
# exact-mode restore (same rank layout)
# ----------------------------------------------------------------------

def restore_sim_state(sim: Simulation, state: Dict[str, Any]) -> Dict[str, Any]:
    """Apply a captured shard to a freshly rebuilt, set-up ``sim``.

    Exact mode only: the target must have the same component set, clock
    registrations and arbiter keys as the capture (guaranteed when both
    were built from the same config graph with the same partition).
    Everything the rebuild's ``setup()`` pushed or initialised is
    superseded: the queue is replaced wholesale (records and sequence
    counter verbatim), clocks/arbiters adopt the captured scheduling
    state, statistics adopt captured values in place, and the exit
    protocol is recomputed from the restored component flags.  Returns
    the shard's meta dict so the orchestrator can fold rank-level values
    (send sequence, IdSource counters) upward.
    """
    meta = state["meta"]
    # Statistics first — Component.restore_state overrides may touch
    # live collectors (docstring contract).
    for comp_name, stats in meta["stats"].items():
        comp = sim._components.get(comp_name)
        if comp is None:
            raise CheckpointError(
                f"snapshot carries component {comp_name!r} which the "
                f"rebuilt simulation does not have"
            )
        group = comp.stats.all()
        for stat_name, remote in stats.items():
            local = group.get(stat_name)
            if local is None:
                comp.stats._register(stat_name, remote)
            else:
                adopt_state(local, remote)
    for name, remote in meta["engine_stats"].items():
        local = sim.engine_stats.all().get(name)
        if local is None:
            sim.engine_stats._register(name, remote)
        else:
            adopt_state(local, remote)
    linked = load_refs(state["linked"], [sim], rank_hint=sim.rank)
    for comp_name, comp_state in linked["components"].items():
        sim._components[comp_name].restore_state(comp_state)
    # Every component's state is in place (reconstruct= hooks included);
    # fire the on_restore lifecycle hook in registration order — slot
    # subcomponents first, so the parent hook sees restored policies.
    for comp in sim._components.values():
        for attr in getattr(type(comp), "_slot_specs", {}):
            sub = comp.__dict__.get(attr)
            if sub is not None:
                sub.on_restore()
        comp.on_restore()
    clock_states = meta["clocks"]
    if len(clock_states) != len(sim._clocks):
        raise CheckpointError(
            f"snapshot captured {len(clock_states)} clocks, rebuilt "
            f"simulation registered {len(sim._clocks)} — the snapshot "
            f"does not match this configuration"
        )
    for clock, cstate in zip(sim._clocks, clock_states):
        clock.restore_state(cstate)
    for key_list, astate in meta["arbiters"]:
        arbiter = sim._arbiters.get(tuple(key_list))
        if arbiter is None:
            raise CheckpointError(
                f"snapshot captured clock-arbiter {tuple(key_list)!r} which "
                f"the rebuilt simulation did not create (clock-arbiter "
                f"mode mismatch?)"
            )
        arbiter.restore_state(astate, sim._clocks)
    sim._queue.restore_records(linked["records"], meta["queue_seq"])
    sim.now = meta["now"]
    sim.last_event_time = meta["last_event_time"]
    sim._events_executed = meta["events_executed"]
    if meta["engine_rng"] is not None:
        sim.engine_rng.bit_generator.state = meta["engine_rng"]
    recompute_exit_state(sim)
    sim._stop_requested = False
    return meta


def recompute_exit_state(sim: Simulation) -> None:
    """Rebuild the exit-protocol aggregates from restored component flags."""
    sim._primary_components = {
        name for name, comp in sim._components.items() if comp._is_primary
    }
    sim._primaries_pending = sum(
        1 for comp in sim._components.values()
        if comp._is_primary and not comp._ok_to_end
    )


def merge_id_sources(metas: Sequence[Dict[str, Any]]) -> None:
    """Restore IdSource counters from one or more shard metas.

    Ranks that ran in separate processes advanced the same global
    counter independently, so the maximum across shards wins — that
    preserves uniqueness against every id held by restored in-flight
    state.  (Id *values* never influence event ordering or statistics,
    so this is also safe for exact-mode restores of process snapshots.)
    """
    merged: Dict[str, int] = {}
    for meta in metas:
        for name, value in meta.get("id_sources", {}).items():
            merged[name] = max(merged.get(name, 0), value)
    IdSource.restore_all(merged)
