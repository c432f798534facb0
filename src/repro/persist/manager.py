"""Snapshot lifecycle: incremental checkpoints and one-call restore.

:class:`SnapshotManager` owns one snapshot root for one live engine.
Every :meth:`~SnapshotManager.checkpoint` publishes a new generation,
but only *dirty* arrays are rewritten: the capture layer fingerprints
each array's backing object (piece-map versions, array identities)
and unchanged files are carried forward by manifest
reference.  A steady-state checkpoint of a converged index therefore
writes kilobytes, not the data set.

:class:`IncrementalCheckpointer` adapts a manager to the holistic
scheduler's auxiliary-action interface (``due``/``perform``): durable
progress competes with index refinement for idle cycles, exactly like
the paper's random cracks, and its cost is charged to the simulated
clock like any other action.

:func:`restore_snapshot` is the restart path::

    restored = restore_snapshot("snapdir")
    session = restored.session          # counters, clock, indexes back
    session.run_query(...)              # zero re-cracking
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro import faults
from repro.errors import ConfigError, InjectedFault, PersistError
from repro.persist.format import (
    CURRENT_FILE,
    current_generation,
    generation_name,
    list_generations,
    prune,
    quick_verify_manifest,
    read_current_manifest,
    read_manifest,
    verify_manifest,
    write_generation,
)
from repro.persist.snapshot import (
    RestoredState,
    capture_state,
    restore_state,
)
from repro.persist.verify import BackgroundVerifier
from repro.util.retry import retry_call


@dataclass(slots=True)
class CheckpointResult:
    """What one checkpoint wrote."""

    generation: int
    arrays_written: int
    arrays_carried: int
    bytes_written: int


class SnapshotManager:
    """Writes incremental, crash-consistent snapshots of one engine.

    Args:
        root: snapshot directory (created on first checkpoint).
        db: the live database.
        strategy: the indexing strategy whose learned state rides
            along (holistic kernel or standard adaptive cracking);
            ``None`` snapshots storage only.
        session: optional session whose timing counters ride along.
        verify: re-hash every array after publishing (paranoia mode
            for tests; defaults off -- checksums are still *recorded*
            either way and checked on demand at restore).
        keep_history: retain superseded generations; by default they
            are pruned once unreferenced, keeping disk usage
            proportional to one snapshot plus the last delta.
    """

    def __init__(
        self,
        root,
        db,
        strategy=None,
        session=None,
        verify: bool = False,
        keep_history: bool = False,
    ) -> None:
        self.root = Path(root)
        self.db = db
        self.strategy = strategy
        self.session = session
        self.verify = verify
        self.keep_history = keep_history
        self._last_tokens: dict[str, object] = {}
        self._last_entries: dict[str, dict] = {}
        self.last_result: CheckpointResult | None = None

    def checkpoint(self, extra: dict | None = None) -> CheckpointResult:
        """Publish a new generation; returns what was written.

        Args:
            extra: JSON-serializable payload stored in the manifest
                (e.g. a workload cursor + result digest so a restarted
                driver can resume its trace mid-stream).

        Raises:
            PersistError: on capture or write failure; the previous
                generation stays intact either way.
        """
        arrays, meta, tokens = capture_state(
            self.db, self.strategy, self.session, extra=extra
        )
        fresh: dict = {}
        carry: dict = {}
        for name, array in arrays.items():
            token = tokens.get(name)
            entry = self._last_entries.get(name)
            if (
                token is not None
                and entry is not None
                and self._last_tokens.get(name) == token
            ):
                carry[name] = entry
            else:
                fresh[name] = array
        generation = write_generation(self.root, fresh, meta, carry)
        manifest_generation, manifest = read_current_manifest(self.root)
        if manifest_generation != generation:  # pragma: no cover
            raise PersistError(
                f"published generation {generation} but CURRENT reads "
                f"{manifest_generation}"
            )
        if self.verify:
            verify_manifest(self.root, manifest)
        if not self.keep_history:
            prune(self.root)
        self._last_entries = dict(manifest["arrays"])
        self._last_tokens = dict(tokens)
        result = CheckpointResult(
            generation=generation,
            arrays_written=len(fresh),
            arrays_carried=len(carry),
            bytes_written=sum(
                int(a.nbytes) for a in fresh.values()
            ),
        )
        self.last_result = result
        return result


def restore_snapshot(
    root,
    verify: bool | str = False,
    fallback: bool = True,
    exclude: Iterable[int] = (),
) -> RestoredState:
    """Rebuild a database (+ strategy + session) from ``root``.

    The restart path is self-healing: every candidate generation is
    structurally validated (:func:`~repro.persist.format.
    quick_verify_manifest` -- catches torn and missing files in
    O(metadata)), transient restore failures are retried with capped
    backoff, and when the current generation is corrupt -- a torn
    array, a garbage ``CURRENT`` pointer, a broken manifest -- the
    restore *walks back* to the newest older generation that still
    validates.  A corrupt pointer is repaired in place once a
    generation restores, so subsequent checkpoints land normally.

    Args:
        root: snapshot root directory.
        verify: ``True``/``"eager"`` recomputes every array checksum
            before trusting the snapshot (a full data scan; corrupt
            generations join the walk-back); ``"lazy"`` starts a
            :class:`~repro.persist.verify.BackgroundVerifier` instead
            and keeps that scan off the restart path -- check
            ``restored.verifier`` and, on failure, re-restore with the
            bad generation in ``exclude``.
        fallback: walk back to older generations when the newest is
            corrupt; ``False`` restores ``CURRENT`` or dies.
        exclude: generation numbers to skip (e.g. one a lazy verifier
            has since proven bit-rotted).

    Raises:
        PersistError: when no generation was ever published, or every
            candidate generation fails validation.
    """
    root = Path(root)
    excluded = frozenset(int(g) for g in exclude)
    pointer_error: PersistError | None = None
    try:
        current = current_generation(root)
    except PersistError as error:
        pointer_error = error
        current = None
    candidates: list[int] = []
    if current is not None and current not in excluded:
        candidates.append(current)
    if fallback:
        for generation in reversed(list_generations(root)):
            if generation not in candidates and generation not in excluded:
                candidates.append(generation)
    if not candidates:
        if pointer_error is not None and not fallback:
            raise pointer_error
        raise PersistError(
            f"no restorable snapshot under {root} "
            f"(excluded: {sorted(excluded) or 'none'})"
        )

    eager = verify is True or verify == "eager"
    failed: list[int] = []
    errors: list[str] = []
    for generation in candidates:
        try:
            manifest = read_manifest(root, generation)
            quick_verify_manifest(root, manifest)
            if eager:
                verify_manifest(root, manifest)
            retried: list[Exception] = []
            restored = retry_call(
                lambda: restore_state(root, generation, manifest),
                retry_on=(InjectedFault, OSError),
                on_retry=lambda attempt, error: retried.append(error),
            )
        except (PersistError, InjectedFault, OSError) as error:
            failed.append(generation)
            errors.append(f"{generation_name(generation)}: {error}")
            continue
        for _ in retried:
            faults.recovered(
                "persist.restore",
                f"restore of {generation_name(generation)} retried",
            )
        restored.verification = "eager" if eager else (
            "lazy" if verify == "lazy" else "none"
        )
        restored.fallback_generations = failed
        if verify == "lazy":
            restored.verifier = BackgroundVerifier(root, manifest, generation)
        if pointer_error is not None:
            # Heal the broken pointer so the next checkpoint publishes
            # normally (and garbage-collects anything newer).
            pointer_tmp = root / f"{CURRENT_FILE}.tmp"
            pointer_tmp.write_text(generation_name(generation) + "\n")
            os.replace(pointer_tmp, root / CURRENT_FILE)
        if failed or excluded or pointer_error is not None:
            faults.recovered_matching(
                "persist.",
                f"restored {generation_name(generation)} "
                f"(skipped: {failed + sorted(excluded) or 'none'})",
            )
        return restored
    raise PersistError(
        f"every candidate generation under {root} failed to restore: "
        + "; ".join(errors)
    )


class IncrementalCheckpointer:
    """Checkpointing as a rankable auxiliary action (paper idle loop).

    Attached to the holistic scheduler
    (:meth:`repro.holistic.kernel.HolisticKernel.attach_checkpointer`),
    it is consulted before every serial idle action:

    * nothing new happened since the last generation -> never due;
    * work accumulated but candidates still rank -> due once every
      ``interval_actions`` units of observed progress (queries plus
      tuning actions), so durability takes a bounded slice of idle
      time;
    * every candidate is refined -> due immediately (idle cycles are
      otherwise wasted, paper §3's "nothing better to do" case).

    Each performed checkpoint charges the simulated clock for the
    bytes it physically wrote, so durability shows up in virtual time
    like any other kernel work.

    Args:
        manager: the snapshot manager to drive.
        interval_actions: progress units between due checkpoints.
        extra_provider: optional zero-arg callable whose result is
            stored as the generation's ``extra`` payload.
    """

    def __init__(
        self,
        manager: SnapshotManager,
        interval_actions: int = 256,
        extra_provider=None,
    ) -> None:
        if interval_actions < 1:
            raise ConfigError(
                f"interval_actions must be >= 1, got {interval_actions}"
            )
        self.manager = manager
        self.interval_actions = interval_actions
        self.extra_provider = extra_provider
        self.generations_written = 0
        self._progress_at_last = self._progress()

    def _progress(self) -> int:
        """Monotone count of engine work since the manager was born."""
        strategy = self.manager.strategy
        total = 0
        ranking = getattr(strategy, "ranking", None)
        if ranking is not None:
            counts = ranking.monitor.query_counts
            for state in ranking.states():
                total += counts.get(state.ref, 0) + state.tuning_actions
        tape = getattr(strategy, "tape", None)
        if tape is not None:
            total += tape.count()
        return total

    def due(self, ranking) -> bool:
        """Whether the next idle action should be a checkpoint."""
        progress = self._progress()
        delta = progress - self._progress_at_last
        if delta <= 0:
            return False
        if ranking.best() is None:
            return True
        return delta >= self.interval_actions

    def perform(self, clock) -> bool:
        """Write one incremental generation and charge its cost."""
        extra = self.extra_provider() if self.extra_provider else None
        result = self.manager.checkpoint(extra=extra)
        self._progress_at_last = self._progress()
        self.generations_written += 1
        # Durability work is priced like a materialization of the
        # bytes that actually hit disk (carried arrays are free).
        written_elements = result.bytes_written // 8
        if written_elements:
            clock.charge_materialize(written_elements)
        return True
