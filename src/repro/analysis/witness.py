"""Lockdep-style latch witness: the runtime half of the latch checks.

The static analyses (:mod:`repro.analysis.rules.latch`,
:mod:`repro.analysis.lockorder`) prove discipline over the code that
is written; this module watches the code that actually *runs*.  When a
witness is enabled:

* every :class:`~repro.cracking.concurrency.ReadWriteLatch`
  acquisition/release is recorded on a per-thread held stack;
* acquisition *order* between latch groups is learned on the fly
  (lockdep style): the first time group B is taken while group A is
  held, the edge ``A -> B`` is recorded; a later acquisition of A
  while B is held -- or any longer inversion cycle -- is an
  :class:`OrderViolation`;
* same-group multi-acquisitions must take piece keys in ascending
  order (the sorted-key protocol of
  :meth:`~repro.cracking.concurrency.PieceLatchTable.write_pieces`);
* the :class:`~repro.cracking.index.CrackerIndex` mutation entry
  points a tuning worker reaches call :func:`mutation_check`, which
  asserts that the calling thread holds the covering piece write latch
  (or the whole-table latch) for every index that has been *armed* --
  armed meaning a :class:`~repro.holistic.workers.TuningWorkerPool` is
  running on it, which is exactly when an unlatched mutation is a data
  race between workers.

Design constraints mirror :mod:`repro.faults`: with no witness enabled
the hooks cost one module-global read and a ``None`` check, so
production code carries them for free; everything recorded is
deterministic given the thread interleaving; and nothing is silently
swallowed -- violations are kept on the witness (``strict=True``
raises at the violation site instead, for debugging).

Typical test usage::

    with witness.enabled() as w:
        ... run the concurrency stress ...
    assert w.violations == []
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.errors import ConcurrencyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cracking.concurrency import PieceLatchTable
    from repro.cracking.index import CrackerIndex


class WitnessError(ConcurrencyError):
    """A latch-discipline violation surfaced in strict mode."""


#: Group name of a latch that was never tagged by its owner (bare
#: ReadWriteLatch instances constructed outside PieceLatchTable).
UNTAGGED_GROUP = "latch.untagged"

#: Latch groups whose *same-group* nesting is legal provided keys are
#: taken in ascending order: piece latches follow the sorted-position
#: protocol, table latches of distinct indexes stack in sorted
#: column-name order (the serving frontend's multi-column windows).
ORDERED_GROUPS = frozenset({"latch.piece", "latch.table"})


def _keys_ascend(first: int | str, second: int | str) -> bool:
    """Whether acquiring ``second`` after ``first`` respects the
    ascending-key protocol.  Same-type keys compare natively; a mixed
    pair (one group keyed by position, another by name) compares by
    string so the check stays total."""
    if isinstance(first, int) and isinstance(second, int):
        return first <= second
    return str(first) <= str(second)


@dataclass(frozen=True, slots=True)
class Held:
    """One latch the current thread holds."""

    group: str
    key: int | str | None
    mode: str  # "r" | "w"
    obj_id: int


@dataclass(frozen=True, slots=True)
class OrderViolation:
    """One discipline violation the witness observed."""

    kind: str  # "order-inversion" | "key-order" | "unlatched-mutation"
    thread: str
    detail: str
    held: tuple[Held, ...] = ()


@dataclass(slots=True)
class _ThreadState:
    holds: list[Held] = field(default_factory=list)


class LatchWitness:
    """Records latch traffic and checks ordering as it happens."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: Learned order edges: (group_a, group_b) -> first witness
        #: note.  Group-level, not object-level: the deadlock argument
        #: is about lock *classes*, matching the static analyzer.
        self._edges: dict[tuple[str, str], str] = {}
        self.violations: list[OrderViolation] = []
        self.acquires = 0
        self.releases = 0
        self.mutation_checks = 0

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState()
            self._tls.state = state
        return state

    def held_by_current_thread(self) -> tuple[Held, ...]:
        """The latches the calling thread currently holds (stack order)."""
        return tuple(self._state().holds)

    # -- violations -------------------------------------------------------

    def _violate(
        self, kind: str, detail: str, holds: Sequence[Held]
    ) -> None:
        violation = OrderViolation(
            kind=kind,
            thread=threading.current_thread().name,
            detail=detail,
            held=tuple(holds),
        )
        with self._lock:
            self.violations.append(violation)
        if self.strict:
            raise WitnessError(f"{kind}: {detail}")

    def _reachable(self, start: str, target: str) -> bool:
        """Whether ``target`` is reachable from ``start`` over edges.

        Caller holds ``self._lock``.
        """
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            if node == target:
                return True
            for a, b in self._edges:
                if a == node and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return False

    # -- latch hooks ------------------------------------------------------

    def note_acquire(
        self, latch: object, mode: str, *, blocking_done: bool = True
    ) -> None:
        """Record a granted acquisition of ``latch`` by this thread."""
        group = getattr(latch, "witness_group", None) or UNTAGGED_GROUP
        key = getattr(latch, "witness_key", None)
        state = self._state()
        for held in state.holds:
            if held.group == group and held.obj_id != id(latch):
                if group not in ORDERED_GROUPS:
                    self._violate(
                        "order-inversion",
                        f"{group} acquired while already holding "
                        f"{group} (unordered group nests with itself)",
                        state.holds,
                    )
                elif (
                    held.key is not None
                    and key is not None
                    and not _keys_ascend(held.key, key)
                ):
                    self._violate(
                        "key-order",
                        f"{group} bucket {key} acquired while holding "
                        f"bucket {held.key} (keys must ascend)",
                        state.holds,
                    )
            elif held.group != group:
                with self._lock:
                    edge = (held.group, group)
                    if edge not in self._edges:
                        # Adding held.group -> group: an inversion
                        # exists iff group already reaches held.group.
                        if self._reachable(group, held.group):
                            detail = (
                                f"{group} acquired while holding "
                                f"{held.group}, but an earlier path "
                                f"ordered {group} before {held.group}"
                            )
                        else:
                            detail = None
                            self._edges[edge] = (
                                f"{threading.current_thread().name} "
                                f"held {held.group} -> took {group}"
                            )
                    else:
                        detail = None
                if detail is not None:
                    self._violate("order-inversion", detail, state.holds)
        state.holds.append(Held(group, key, mode, id(latch)))
        with self._lock:
            self.acquires += 1

    def note_release(self, latch: object, mode: str) -> None:
        """Record a release of ``latch`` by this thread."""
        state = self._state()
        for i in range(len(state.holds) - 1, -1, -1):
            held = state.holds[i]
            if held.obj_id == id(latch) and held.mode == mode:
                del state.holds[i]
                break
        with self._lock:
            self.releases += 1

    # -- mutation coverage ------------------------------------------------

    def check_mutation(
        self,
        table: "PieceLatchTable",
        piece_starts: Sequence[int] | None,
        what: str,
    ) -> None:
        """Assert the covering write latch is held for a mutation.

        ``piece_starts`` are the start positions of the pieces the
        mutation restructures; ``None`` means the whole index (the
        mutation needs the table-level exclusive latch).
        """
        with self._lock:
            self.mutation_checks += 1
        state = self._state()
        table_latch_id = id(table._table)
        for held in state.holds:
            if held.obj_id == table_latch_id and held.mode == "w":
                return  # whole-table exclusive covers everything
        if piece_starts is None:
            self._violate(
                "unlatched-mutation",
                f"{what} mutates the whole index without the "
                "table-level exclusive latch",
                state.holds,
            )
            return
        held_keys = {
            held.key
            for held in state.holds
            if held.group == "latch.piece"
            and held.mode == "w"
            and getattr(held, "key", None) is not None
        }
        for start in piece_starts:
            if start not in held_keys:
                self._violate(
                    "unlatched-mutation",
                    f"{what} mutates the piece at {start} without its "
                    "write latch",
                    state.holds,
                )
                return

    # -- reporting --------------------------------------------------------

    def order_edges(self) -> dict[tuple[str, str], str]:
        """The learned group-order edges with their first witness."""
        with self._lock:
            return dict(self._edges)

    def summary(self) -> dict[str, object]:
        """JSON-ready account of what the witness saw."""
        with self._lock:
            return {
                "acquires": self.acquires,
                "releases": self.releases,
                "mutation_checks": self.mutation_checks,
                "order_edges": sorted(
                    f"{a} -> {b}" for a, b in self._edges
                ),
                "violations": [
                    f"{v.kind}: {v.detail}" for v in self.violations
                ],
            }


# -- module-global switchboard (zero overhead when disabled) -------------

_active: LatchWitness | None = None
#: Armed indexes: id(index) -> (index, table).  Ids are kept alongside
#: strong references only while armed; pools disarm on stop, so the
#: registry cannot leak across tests that stop their pools.
_armed: dict[int, tuple["CrackerIndex", "PieceLatchTable"]] = {}
_armed_lock = threading.Lock()


def active() -> LatchWitness | None:
    """The enabled witness, or ``None`` (the common, free case)."""
    return _active


def enable(strict: bool = False) -> LatchWitness:
    """Install a fresh witness; returns it.

    Raises:
        ConcurrencyError: if one is already enabled.
    """
    global _active
    if _active is not None:
        raise ConcurrencyError("a latch witness is already enabled")
    _active = LatchWitness(strict=strict)
    return _active


def disable() -> LatchWitness | None:
    """Remove the active witness (if any); returns it."""
    global _active
    witness, _active = _active, None
    with _armed_lock:
        _armed.clear()
    return witness


@contextmanager
def enabled(strict: bool = False) -> Iterator[LatchWitness]:
    """``with witness.enabled() as w:`` -- scoped witness installation."""
    w = enable(strict=strict)
    try:
        yield w
    finally:
        disable()


def arm(index: "CrackerIndex", table: "PieceLatchTable") -> None:
    """Start enforcing latched mutation on ``index``.

    Called by the worker pool when it starts running on an index; a
    no-op unless a witness is enabled.
    """
    if _active is None:
        return
    with _armed_lock:
        _armed[id(index)] = (index, table)


def disarm(index: "CrackerIndex") -> None:
    """Stop enforcing latched mutation on ``index``."""
    with _armed_lock:
        _armed.pop(id(index), None)


def disarm_all() -> None:
    """Stop enforcing latched mutation everywhere (pool shutdown)."""
    with _armed_lock:
        _armed.clear()


def mutation_check(
    index: "CrackerIndex",
    piece_starts: Sequence[int] | Callable[[], Sequence[int]] | None,
    what: str,
) -> None:
    """Hook for index mutation entry points.

    One global read when no witness is enabled.  ``piece_starts`` may
    be a callable so call sites can defer computing piece positions
    until a witness actually looks.
    """
    w = _active
    if w is None:
        return
    with _armed_lock:
        entry = _armed.get(id(index))
    if entry is None or entry[0] is not index:
        return
    starts = piece_starts() if callable(piece_starts) else piece_starts
    w.check_mutation(entry[1], starts, what)
