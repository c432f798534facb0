"""Capture and restore of the full adaptive state of an engine.

The *capture* half walks a :class:`~repro.storage.database.Database`
plus (optionally) its indexing strategy and session and flattens
everything the engine learned into

* a dict of named numpy arrays -- base columns, pending-update stores,
  cracker columns (in their narrowed dtypes), piece-map pivot/cut
  buffers, crack-tape record columns -- and
* a JSON-serializable ``meta`` dict -- catalog schema and statistics,
  clock totals, monitor/ranking/session counters, strategy config.

The *restore* half rebuilds the same objects around ``np.memmap`` views
of the snapshot files: base columns open read-only (``mmap_mode='r'``;
their catalog statistics come from the manifest, so nothing scans
them), cracker columns open copy-on-write (``mmap_mode='c'``;
later cracks fault pages in lazily and never touch the snapshot).
Restart cost is therefore O(metadata), and no crack ever re-runs: the
piece maps come back exactly as refined as they were at checkpoint.

Supported strategies: the holistic kernel and standard adaptive
cracking.  Anything else raises :class:`~repro.errors.PersistError` --
better loud than a snapshot that silently drops learned state.

Older generations restore too: their per-piece sorted flags and
``has_rowids`` marks are ignored, and a retired option that holds the
only value it ever allowed is dropped (:data:`_RETIRED_OPTIONS`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro import faults
from repro.cracking.index import CrackerIndex
from repro.cracking.piecemap import PieceMap
from repro.errors import PersistError, SchemaError
from repro.persist.format import load_array
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.column import Column, ColumnStats
from repro.storage.database import Database
from repro.storage.dtypes import largest, normalise_bound, type_by_name
from repro.storage.table import Table

#: Typed columns a crack tape flattens into (origins ride separately
#: as a unicode array).  Generations written before ``int_pivots``
#: lack it and restore their pivots as floats.
_TAPE_NUMERIC = (
    ("timestamps", np.float64),
    ("pivots", np.float64),
    ("int_pivots", np.int64),
    ("positions", np.int64),
    ("piece_sizes", np.int64),
    ("workers", np.int64),
)

#: Tape scope name for the holistic kernel's shared tape.
SHARED_TAPE = "__shared__"

#: Options older generations name that no longer exist, each with the
#: only value it allowed.  A restore drops them; any other value, like
#: any unknown option, fails the generation.
_RETIRED_OPTIONS = {
    "action": "random_crack",
    "latch_granularity": 1,
    "track_rowids": False,
    "bootstrap_from_catalog": True,
}


def _tape_to_arrays(
    state: dict, prefix: str, arrays: dict[str, np.ndarray]
) -> dict:
    """Pack one tape's exported record lists; returns its meta part."""
    for key, dtype in _TAPE_NUMERIC:
        arrays[f"{prefix}/{key}"] = np.asarray(state[key], dtype=dtype)
    arrays[f"{prefix}/origins"] = np.asarray(state["origins"], dtype=str)
    return {
        "counts": state["counts"],
        "seen": state["seen"],
        "stalls": state["stalls"],
    }


def _tape_from_arrays(
    root, manifest: dict, prefix: str, tape_meta: dict
) -> dict:
    """Reassemble a tape state dict from snapshot arrays + meta."""
    entries = manifest["arrays"]
    state = {
        key: load_array(root, entries[name]).tolist()
        for key, _ in _TAPE_NUMERIC
        if (name := f"{prefix}/{key}") in entries
    }
    state["origins"] = [
        str(o) for o in load_array(root, entries[f"{prefix}/origins"])
    ]
    state["counts"] = tape_meta["counts"]
    state["seen"] = tape_meta["seen"]
    state["stalls"] = tape_meta["stalls"]
    return state


def _strategy_meta(strategy) -> dict:
    name = getattr(strategy, "name", None)
    if name == "holistic":
        return {
            "name": "holistic",
            "config": dataclasses.asdict(strategy.config),
        }
    if name == "adaptive":
        if strategy.variant != "standard":
            raise PersistError(
                f"adaptive variant {strategy.variant!r} is not "
                "snapshot-supported (stochastic refinement state is "
                "not serializable); use 'standard'"
            )
        return {
            "name": "adaptive",
            "config": {
                "variant": strategy.variant,
                "seed": strategy.seed,
                "stop_piece_size": strategy.stop_piece_size,
            },
        }
    raise PersistError(
        f"strategy {name!r} is not snapshot-supported "
        "(supported: holistic, adaptive[standard])"
    )


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
        PersistError: on an unsupported strategy or a running tuning
            worker pool (snapshots need settled index state).
    """
    pool = getattr(strategy, "worker_pool", None)
    if pool is not None and pool.is_running:
        raise PersistError(
            "cannot capture a snapshot while tuning workers are "
            "running; drain and stop them first"
        )
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
            if not isinstance(index, CrackerIndex):
                raise PersistError(
                    f"index on {ref} is {type(index).__name__}, not "
                    "snapshot-supported"
                )
            base = f"index/{ref.table}/{ref.column}"
            piece_map = index.piece_map
            with index.lock:
                arrays[f"{base}/values"] = index.values
                arrays[f"{base}/pivots"] = np.asarray(
                    piece_map.pivots(), dtype=piece_map.dtype
                )
                arrays[f"{base}/cuts"] = np.asarray(
                    piece_map.cuts(), dtype=np.int64
                )
                token = ("idx", piece_map.version, id(index.values))
                for suffix in ("values", "pivots", "cuts"):
                    tokens[f"{base}/{suffix}"] = token
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
            meta["kernel"] = {
                "idle_windows": strategy.idle_windows,
                "boost_cracks_applied": strategy.boost_cracks_applied,
            }
            tape_state = strategy.tape.export_state()
            meta["tapes"][SHARED_TAPE] = _tape_to_arrays(
                tape_state, f"tape/{SHARED_TAPE}", arrays
            )
            token = ("tape", tape_state["seen"])
            for key in arrays:
                if key.startswith(f"tape/{SHARED_TAPE}/"):
                    tokens[key] = token
        else:
            for ref, index in indexes.items():
                scope = f"{ref.table}/{ref.column}"
                tape_state = index.tape.export_state()
                meta["tapes"][scope] = _tape_to_arrays(
                    tape_state, f"tape/{scope}", arrays
                )
                token = ("tape", tape_state["seen"])
                for key in arrays:
                    if key.startswith(f"tape/{scope}/"):
                        tokens[key] = token
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


def restore_state(
    root,
    generation: int,
    manifest: dict,
    mmap_mode: str = "c",
    cost_model=None,
) -> RestoredState:
    """Rebuild the engine from a loaded manifest.

    Args:
        root: snapshot root directory.
        generation: the manifest's generation (recorded on the result).
        manifest: output of :func:`repro.persist.format.
            read_current_manifest`.
        mmap_mode: how cracker columns/maps are opened; the default
            ``'c'`` (copy-on-write) lets future cracks mutate the
            in-memory view without writing back.  Base columns are
            always opened ``'r'``.
        cost_model: optional :class:`~repro.simtime.model.CostModel`
            for the rebuilt clock (must match the one used when the
            snapshot was written for virtual time to stay coherent).

    Raises:
        PersistError: on structural corruption (missing arrays,
            mismatched lengths, unknown strategy).
    """
    # Transient IO failures surface here, before any state is built;
    # repro.persist.manager.restore_snapshot retries this whole call.
    faults.trip("persist.restore")
    meta = manifest["meta"]
    entries = manifest["arrays"]

    clock_state = meta.get("clock")
    clock = SimClock(cost_model)
    if clock_state is not None:
        clock.restore_state(clock_state)
    db = Database(clock=clock, cost_model=cost_model)

    for table_meta in meta["tables"]:
        table = Table(table_meta["name"])
        for column_meta in table_meta["columns"]:
            name = column_meta["name"]
            key = f"column/{table.name}/{name}"
            try:
                values = load_array(root, entries[key], mmap_mode="r")
            except KeyError:
                raise PersistError(f"snapshot lacks array {key!r}") from None
            column = Column(
                name,
                values,
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
        strategy = _restore_strategy(
            root, manifest, db, strategy_meta, mmap_mode
        )

    session = None
    if meta.get("session") is not None:
        if strategy is None:
            raise PersistError(
                "snapshot has session state but no strategy"
            )
        from repro.engine.session import Session

        session = Session(database=db, strategy=strategy)
        session.restore_state(meta["session"])

    return RestoredState(
        db=db,
        strategy=strategy,
        session=session,
        generation=generation,
        manifest=manifest,
    )


def _pivots_in(
    dtype: np.dtype, pivots: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A piece map's exported arrays with its pivots in ``dtype``.

    Generations written before pivots kept the column's dtype stored
    them as float64; they are normalised on load like any bound.  A
    pivot that lands on its predecessor's key, or past the column's
    top, opened an empty piece: it is dropped, and the pieces it split
    merge.
    """
    if pivots.dtype == dtype:
        return pivots, cuts
    keys = [normalise_bound(dtype, pivot) for pivot in pivots.tolist()]
    keep = [
        i
        for i, key in enumerate(keys)
        if key <= largest(dtype) and (i == 0 or key != keys[i - 1])
    ]
    return np.array([keys[i] for i in keep], dtype=dtype), cuts[keep]


def _restore_index(
    root,
    manifest: dict,
    db: Database,
    index_meta: dict,
    mmap_mode: str,
    tape,
) -> tuple[ColumnRef, CrackerIndex]:
    entries = manifest["arrays"]
    ref = ColumnRef(index_meta["table"], index_meta["column"])
    column = db.catalog.column(ref)
    base = f"index/{ref.table}/{ref.column}"
    values = load_array(root, entries[f"{base}/values"], mmap_mode=mmap_mode)
    dtype = column.values.dtype
    pivots, cuts = _pivots_in(
        dtype,
        load_array(root, entries[f"{base}/pivots"]),
        load_array(root, entries[f"{base}/cuts"]),
    )
    piece_map = PieceMap.from_state(len(values), pivots, cuts, dtype)
    index = CrackerIndex.from_state(
        column,
        values,
        piece_map,
        clock=db.clock,
        tape=tape,
        copy_charged=bool(index_meta["copy_charged"]),
    )
    return ref, index


def _options(config: dict, known: set[str]) -> dict:
    """A stored strategy config without its retired options.

    Raises:
        PersistError: on an unknown option, or a retired one holding a
            value other than the only one it allowed.
    """
    options = {}
    for key, value in config.items():
        if key in known:
            options[key] = value
            continue
        allowed = _RETIRED_OPTIONS.get(key)
        # ``type`` too: True == 1, yet latch_granularity=True never was.
        if (
            key not in _RETIRED_OPTIONS
            or type(value) is not type(allowed)
            or value != allowed
        ):
            raise PersistError(
                f"snapshot config sets {key}={value!r}, which this "
                "version cannot restore"
            )
    return options


def _restore_strategy(
    root, manifest: dict, db: Database, strategy_meta: dict, mmap_mode: str
):
    meta = manifest["meta"]
    name = strategy_meta["name"]
    config = strategy_meta["config"]
    if name == "holistic":
        from repro.holistic.kernel import HolisticConfig, HolisticKernel

        known = {f.name for f in dataclasses.fields(HolisticConfig)}
        kernel = HolisticKernel(db, HolisticConfig(**_options(config, known)))
        kernel.tape.restore_state(
            _tape_from_arrays(
                root,
                manifest,
                f"tape/{SHARED_TAPE}",
                meta["tapes"][SHARED_TAPE],
            )
        )
        for index_meta in meta["indexes"]:
            ref, index = _restore_index(
                root, manifest, db, index_meta, mmap_mode, kernel.tape
            )
            kernel.indexes[ref] = index
            kernel.ranking.register(ref, index)
            if kernel.worker_pool is not None:
                kernel.worker_pool.register_index(ref, index)
        kernel.monitor.restore_state(meta["monitor"])
        kernel.ranking.restore_state(meta["ranking"])
        kernel.idle_windows = int(meta["kernel"]["idle_windows"])
        kernel.boost_cracks_applied = int(
            meta["kernel"]["boost_cracks_applied"]
        )
        return kernel
    if name == "adaptive":
        from repro.cracking.tape import CrackTape
        from repro.engine.strategies import AdaptiveStrategy

        strategy = AdaptiveStrategy(
            db,
            **_options(config, {"variant", "seed", "stop_piece_size"}),
        )
        for index_meta in meta["indexes"]:
            scope = f"{index_meta['table']}/{index_meta['column']}"
            tape = CrackTape()
            tape.restore_state(
                _tape_from_arrays(
                    root, manifest, f"tape/{scope}", meta["tapes"][scope]
                )
            )
            ref, index = _restore_index(
                root, manifest, db, index_meta, mmap_mode, tape
            )
            strategy.indexes[ref] = index
        return strategy
    raise PersistError(f"snapshot names unknown strategy {name!r}")
