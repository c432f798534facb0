"""Capture and restore of the full adaptive state of an engine.

The *capture* half walks a :class:`~repro.storage.database.Database`
plus (optionally) its indexing strategy and session and flattens
everything the engine learned into

* a dict of named numpy arrays -- base columns, pending-update stores
  and each index's piece-map pivots and cuts (no cracker column:
  cracking reorders a column, it never changes its content) -- and
* a JSON-serializable ``meta`` dict -- catalog schema and statistics,
  clock totals and the cost model's scale, monitor/ranking/session and
  crack-tape counters, strategy config.

The *restore* half opens base columns read-only (``mmap_mode='r'``;
their catalog statistics come from the manifest, so nothing scans
them) and sorts each indexed one into its cracker column
(:meth:`~repro.cracking.index.CrackerIndex.from_state`).  No crack
ever re-runs: the piece maps come back exactly as refined as they
were at checkpoint.

Supported strategies: the holistic kernel and standard adaptive
cracking.  Anything else raises :class:`~repro.errors.PersistError` --
better loud than a snapshot that silently drops learned state.

Only generations in the current format restore: the format check in
:func:`~repro.persist.format.read_manifest` refuses an older one, and
a generation that names an unknown option or clock counter, or whose
pivots or cuts disagree with their column, is corrupt.  Each raises
:class:`~repro.errors.PersistError`, so a restore walks back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro import faults
from repro.cracking.index import CrackerIndex
from repro.cracking.piecemap import PieceMap
from repro.cracking.tape import CrackTape
from repro.errors import CrackerError, PersistError, SchemaError
from repro.persist.format import load_array
from repro.simtime.clock import SimClock
from repro.simtime.model import CostModel
from repro.storage.catalog import ColumnRef
from repro.storage.column import Column, ColumnStats
from repro.storage.database import Database
from repro.storage.dtypes import type_by_name
from repro.storage.table import Table

#: Tape scope name for the holistic kernel's shared tape.
SHARED_TAPE = "__shared__"


def _strategy_meta(strategy) -> dict:
    name = getattr(strategy, "name", None)
    if name not in ("holistic", "adaptive"):
        raise PersistError(
            f"strategy {name!r} is not snapshot-supported "
            "(supported: holistic, adaptive[standard])"
        )
    if strategy.variant != "standard":
        raise PersistError(
            f"adaptive variant {strategy.variant!r} is not "
            "snapshot-supported (stochastic refinement state is "
            "not serializable); use 'standard'"
        )
    if name == "holistic":
        config = dataclasses.asdict(strategy.config)
    else:
        config = {"variant": strategy.variant, "seed": strategy.seed}
    return {"name": name, "config": config}


def capture_state(
    db: Database,
    strategy=None,
    session=None,
    extra: dict | None = None,
) -> tuple[dict[str, np.ndarray], dict, dict[str, object]]:
    """Flatten the engine into (arrays, meta, dirtiness tokens).

    ``tokens`` maps each array name to a cheap hashable fingerprint of
    the live object backing it; :class:`~repro.persist.manager.
    SnapshotManager` compares tokens across checkpoints to carry
    unchanged arrays forward instead of rewriting them.  ``None``
    means "always rewrite" (used for the small pending stores, which
    have no version counter).

    Raises:
        PersistError: on an unsupported strategy.
    """
    arrays: dict[str, np.ndarray] = {}
    tokens: dict[str, object] = {}
    tables_meta = []
    for table in db.catalog:
        columns_meta = []
        for column in table:
            name = f"column/{table.name}/{column.name}"
            arrays[name] = column.values
            tokens[name] = ("col", id(column.values))
            stats = column.stats
            columns_meta.append(
                {
                    "name": column.name,
                    "ctype": column.ctype.name,
                    "row_count": stats.row_count,
                    "min_value": stats.min_value,
                    "max_value": stats.max_value,
                }
            )
            pending = table.updates_for(column.name)
            base = f"pending/{table.name}/{column.name}"
            arrays[f"{base}/ins"] = pending.insert_values
            arrays[f"{base}/delpos"] = pending.delete_positions
            arrays[f"{base}/delval"] = pending.deleted_values
            for suffix in ("ins", "delpos", "delval"):
                tokens[f"{base}/{suffix}"] = None
        tables_meta.append({"name": table.name, "columns": columns_meta})

    meta: dict = {
        "clock": db.clock.state_dict()
        if isinstance(db.clock, SimClock)
        else None,
        "model_scale": db.cost_model.scale,
        "tables": tables_meta,
        "strategy": None,
        "session": session.export_state() if session is not None else None,
        "indexes": [],
        "monitor": None,
        "ranking": None,
        "kernel": None,
        "tapes": {},
        "extra": extra,
    }

    if strategy is not None:
        meta["strategy"] = _strategy_meta(strategy)
        indexes = strategy.indexes
        for ref, index in indexes.items():
            base = f"index/{ref.table}/{ref.column}"
            piece_map = index.piece_map
            # No lock: tuning workers run only inside an idle window,
            # which returns before a capture can start.
            arrays[f"{base}/pivots"] = np.asarray(
                piece_map.pivots(), dtype=piece_map.dtype
            )
            arrays[f"{base}/cuts"] = np.asarray(
                piece_map.cuts(), dtype=np.int64
            )
            # A held map, not an id: ids recycle, rebuild() restarts at 0.
            token = ("idx", piece_map, piece_map.version)
            tokens[f"{base}/pivots"] = tokens[f"{base}/cuts"] = token
            meta["indexes"].append(
                {
                    "table": ref.table,
                    "column": ref.column,
                    "copy_charged": index._copy_charged,
                }
            )
        if meta["strategy"]["name"] == "holistic":
            meta["monitor"] = strategy.monitor.export_state()
            meta["ranking"] = strategy.ranking.export_state()
            meta["kernel"] = {"idle_windows": strategy.idle_windows}
            meta["tapes"][SHARED_TAPE] = strategy.tape.export_state()
        else:
            for ref, index in indexes.items():
                meta["tapes"][f"{ref.table}/{ref.column}"] = (
                    index.tape.export_state()
                )
    return arrays, meta, tokens


@dataclass(slots=True)
class RestoredState:
    """Everything :func:`restore_state` rebuilt from a snapshot."""

    db: Database
    strategy: object | None
    session: object | None
    generation: int
    manifest: dict
    #: How checksums were verified: ``"eager"`` (before trusting the
    #: snapshot), ``"lazy"`` (a :class:`~repro.persist.verify.
    #: BackgroundVerifier` is running -- see :attr:`verifier`) or
    #: ``"none"``.
    verification: str = "none"
    #: Generations that failed validation and were skipped before this
    #: one restored (the corruption walk-back trail).
    fallback_generations: list[int] = field(default_factory=list)
    #: The background checksum verifier when ``verification == "lazy"``.
    verifier: object | None = None

    @property
    def extra(self) -> dict | None:
        """The caller-supplied ``extra`` dict stored at checkpoint."""
        return self.manifest["meta"].get("extra")


def restore_state(root, generation: int, manifest: dict) -> RestoredState:
    """Rebuild the engine from a loaded manifest.

    The rebuilt clock prices with a cost model at the writer's scale
    (``model_scale``).  Base columns open read-only; each cracker
    column is its base column sorted.

    Args:
        root: snapshot root directory.
        generation: the manifest's generation (recorded on the result).
        manifest: output of :func:`repro.persist.format.
            read_current_manifest`.

    Raises:
        PersistError: on structural corruption (a missing meta key or
            array, mismatched lengths, a piece map that fails its
            checks, an unknown strategy, option or clock counter, a
            tape or monitor state other than the one this version
            writes).
    """
    # Transient IO failures surface here, before any state is built;
    # repro.persist.manager.restore_snapshot retries this whole call.
    faults.trip("persist.restore")
    try:
        db, strategy, session = _rebuild(root, manifest)
    except KeyError as error:
        raise PersistError(f"snapshot lacks {error.args[0]!r}") from None
    except ValueError as error:
        raise PersistError(f"snapshot state is corrupt: {error}") from None
    return RestoredState(
        db=db,
        strategy=strategy,
        session=session,
        generation=generation,
        manifest=manifest,
    )


def _rebuild(root, manifest: dict) -> tuple[Database, object, object]:
    """The database, strategy and session a manifest describes; a
    missing meta key or array raises ``KeyError``."""
    meta = manifest["meta"]
    entries = manifest["arrays"]

    clock = SimClock(CostModel(scale=float(meta["model_scale"])))
    if meta["clock"] is not None:
        try:
            clock.restore_state(meta["clock"])
        except (KeyError, TypeError, ValueError) as error:
            raise PersistError(
                f"snapshot clock state is corrupt: {error!r}"
            ) from None
    db = Database(clock=clock)

    for table_meta in meta["tables"]:
        table = Table(table_meta["name"])
        for column_meta in table_meta["columns"]:
            name = column_meta["name"]
            column = Column(
                name,
                load_array(
                    root, entries[f"column/{table.name}/{name}"],
                    mmap_mode="r",
                ),
                ctype=type_by_name(column_meta["ctype"]),
                stats=ColumnStats(
                    row_count=int(column_meta["row_count"]),
                    min_value=float(column_meta["min_value"]),
                    max_value=float(column_meta["max_value"]),
                ),
            )
            table.add_column(column)
            base = f"pending/{table.name}/{name}"
            try:
                table.updates_for(name).restore_state(
                    load_array(root, entries[f"{base}/ins"]),
                    load_array(root, entries[f"{base}/delpos"]),
                    load_array(root, entries[f"{base}/delval"]),
                )
            except SchemaError as error:
                # Selects compute on the store unchecked: one that
                # fails its own checks sends the restore back a generation.
                raise PersistError(
                    f"snapshot arrays {base!r} are corrupt: {error}"
                ) from None
        db.add_table(table)

    strategy = None
    strategy_meta = meta.get("strategy")
    if strategy_meta is not None:
        strategy = _restore_strategy(root, manifest, db, strategy_meta)

    session = None
    if meta.get("session") is not None:
        if strategy is None:
            raise PersistError(
                "snapshot has session state but no strategy"
            )
        from repro.engine.session import Session

        session = Session(database=db, strategy=strategy)
        session.restore_state(meta["session"])
    return db, strategy, session


def _restore_index(
    root,
    manifest: dict,
    db: Database,
    index_meta: dict,
    tape,
) -> tuple[ColumnRef, CrackerIndex]:
    entries = manifest["arrays"]
    ref = ColumnRef(index_meta["table"], index_meta["column"])
    column = db.catalog.column(ref)
    base = f"index/{ref.table}/{ref.column}"
    try:
        piece_map = PieceMap.from_state(
            column.row_count,
            load_array(root, entries[f"{base}/pivots"]),
            load_array(root, entries[f"{base}/cuts"]),
            column.values.dtype,
        )
        index = CrackerIndex.from_state(
            column,
            piece_map,
            clock=db.clock,
            tape=tape,
            copy_charged=bool(index_meta["copy_charged"]),
        )
    except CrackerError as error:
        # A cracking read trusts its piece map: one that fails its own
        # checks sends the restore back a generation.
        raise PersistError(
            f"snapshot index {base!r} is corrupt: {error}"
        ) from None
    return ref, index


def _options(config: dict, known: set[str]) -> dict:
    """A stored strategy config, checked against the options ``known``.

    Raises:
        PersistError: on an option this version does not have.
    """
    unknown = sorted(config.keys() - known)
    if unknown:
        raise PersistError(
            f"snapshot config sets {unknown[0]}={config[unknown[0]]!r}, "
            "which this version cannot restore"
        )
    return config


def _restore_strategy(root, manifest: dict, db: Database, strategy_meta: dict):
    meta = manifest["meta"]
    name = strategy_meta["name"]
    config = strategy_meta["config"]
    shared = None
    if name == "holistic":
        from repro.holistic.kernel import HolisticConfig, HolisticKernel

        known = {f.name for f in dataclasses.fields(HolisticConfig)}
        strategy = HolisticKernel(db, HolisticConfig(**_options(config, known)))
        shared = strategy.tape
        shared.restore_state(meta["tapes"][SHARED_TAPE])
    elif name == "adaptive":
        from repro.engine.strategies import AdaptiveStrategy

        strategy = AdaptiveStrategy(
            db,
            **_options(config, {"variant", "seed"}),
        )
    else:
        raise PersistError(f"snapshot names unknown strategy {name!r}")
    for index_meta in meta["indexes"]:
        tape = shared
        if tape is None:
            tape = CrackTape()
            scope = f"{index_meta['table']}/{index_meta['column']}"
            tape.restore_state(meta["tapes"][scope])
        strategy.adopt_index(
            *_restore_index(root, manifest, db, index_meta, tape)
        )
    if shared is not None:
        strategy.monitor.restore_state(meta["monitor"])
        strategy.ranking.restore_state(meta["ranking"])
        strategy.idle_windows = int(meta["kernel"]["idle_windows"])
    return strategy
