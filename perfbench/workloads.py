"""The seven workloads: what each sets up and what one pass does.

Load shape: closed loop, one driver thread; each workload runs in its
own process (``perfbench.child``).  A workload is ``setup()`` then
passes; the harness runs one untimed warm-up pass (pass index -1)
and then timed passes 0, 1, ...

Two pass disciplines keep a pass's cost independent of how many passes
ran before it, so that a quartile over passes does not depend on the
machine's speed:

* *cold* workloads (``cold_explore``, ``burst_idle*``,
  ``durable_cycle``) build a fresh ``Database`` over the same base
  arrays every pass and replay the same op stream -- every pass is the
  same trajectory from an untouched column;
* *warm* workloads keep one converged kernel: ``warm_steady`` and
  ``serve_clients`` draw a fresh op stream per pass; ``mixed_rw``
  replays one trace, resetting the delta stores to the same backlog
  before each pass (``prepare_pass``, untimed) so the delta grows over
  the same range each time.

An *op* is one range query or one write batch.  A query's latency is
the wall time of the call that answered it (``run_query``, or the whole
``run_batch``/served window it rode in); ``busy_s`` is the sum of all
op, idle, checkpoint and restore spans of a pass, so checking answers
between ops does not count as time.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import repro.persist as persist
from repro import (
    Column,
    ColumnRef,
    Database,
    RangeQuery,
    ServingFrontend,
    SimClock,
    Table,
)
from repro.cracking.piece import CrackOrigin

from perfbench import inputs
from perfbench.calibration import time_scale
from perfbench.checks import Verifier

clock = time.perf_counter

TABLE = "R"


class PassStats:
    """What one pass measured (times in seconds).  Latency samples go
    into ``array('d')``: compact appends that do not churn the heap
    between timed ops."""

    def __init__(self) -> None:
        self.ops = 0
        self.busy_s = 0.0
        self.query_s = array("d")
        self.write_s = array("d")
        self.first_touch_s = array("d")
        self.idle_s = 0.0
        self.idle_actions = 0
        #: The idle windows end in a checkpoint: their time is the
        #: disk's (see :attr:`disk_s`).
        self.idle_on_disk = False
        self.checkpoint_s = array("d")
        self.restore_s = array("d")
        self.disk_ratio: float | None = None
        self.failed = 0
        #: Machine speed around the pass (``perfbench.calibration``).
        self.slowdown = 1.0
        #: The process's ``ru_maxrss`` when the pass ended.
        self.peak_rss_mb = 0.0
        #: Layer counts read from public state at the pass boundaries.
        self.counts: dict[str, float] = {}

    @property
    def scale(self) -> float:
        """What the pass's interpreter-bound times are divided by."""
        return time_scale(self.slowdown)

    @property
    def disk_s(self) -> float:
        """Time of the spans that wait on the disk and the page cache
        (``fsync``, file writes, ``unlink``): the calibration unit says
        nothing about those -- over 311 passes their time followed it
        with a correlation of 0.06 -- so they are reported as measured."""
        return (
            (self.idle_s if self.idle_on_disk else 0.0)
            + sum(self.checkpoint_s) + sum(self.restore_s)
        )

    @property
    def busy_at_reference_s(self) -> float:
        """``busy_s`` at the reference machine speed."""
        disk_s = self.disk_s
        return (self.busy_s - disk_s) / self.scale + disk_s

    def raised(self) -> None:
        """An op raised: it counts as attempted and failed."""
        self.ops += 1
        self.failed += 1
        traceback.print_exc(file=sys.stderr)


class Bench:
    """Base of the workloads: shared builders and state probes."""

    name = ""
    columns = 2
    #: (full, smoke) base-column rows.
    rows = (1_000_000, 20_000)
    #: Holistic options of the session under test.
    options: dict[str, object] = {}

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.refs = [
            ColumnRef(TABLE, f"A{c + 1}") for c in range(self.columns)
        ]

    def size(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full

    # -- builders --------------------------------------------------------

    def build_columns(self) -> None:
        arrays = inputs.base_arrays(
            self.seed, self.size(*self.rows), self.columns
        )
        self.base = [
            Column(ref.column, array) for ref, array in zip(self.refs, arrays)
        ]
        self.oracles = [inputs.Oracle(column.values) for column in self.base]

    def fresh_session(self):
        """A new Database over the same base columns, and its session."""
        db = Database(clock=SimClock())
        table = Table(TABLE)
        for column in self.base:
            table.add_column(column)
        db.add_table(table)
        return db, db.session("holistic", **self.options)

    def queries(
        self, columns: np.ndarray, lows: np.ndarray, selectivity: float
    ) -> list[RangeQuery]:
        width = inputs.width_of(selectivity)
        refs = self.refs
        return [
            RangeQuery(refs[c], low, low + width)
            for c, low in zip(columns.tolist(), lows.tolist())
        ]

    # -- state probes ----------------------------------------------------

    @staticmethod
    def probe(db, kernel, clocks=()) -> dict[str, float]:
        """Monotone counters of the kernel's public state."""
        indexes = list(kernel.indexes.values())
        tuning = kernel.tuning_summary()
        table = db.table(TABLE)
        pending = [table.updates_for(name) for name in table.column_names]
        return {
            "cracks": sum(index.crack_count for index in indexes),
            "pieces": sum(index.piece_count for index in indexes),
            "indexed_rows": sum(index.row_count for index in indexes),
            "tape": kernel.tape.count(),
            "tape_tuning": kernel.tape.count(CrackOrigin.TUNING),
            "stalls": kernel.tape.stall_count(),
            "attempted": tuning.actions_attempted,
            "effective": tuning.actions_effective,
            "refined": kernel.ranking.refined_count(),
            "monitor": kernel.monitor.total_queries,
            "partitioned": sum(
                c.total_charge.elements_cracked for c in (db.clock, *clocks)
            ),
            "pending": sum(
                p.pending_insert_count + p.pending_delete_count
                for p in pending
            ),
        }

    @staticmethod
    def layer_counts(
        before: dict[str, float] | None,
        after: dict[str, float],
        ops: int,
        queries: int,
    ) -> dict[str, float]:
        """The registry's count metrics from two probes of one pass;
        ``before`` is ``None`` where the pass built a fresh kernel."""
        delta = {
            key: after[key] - (before[key] if before else 0) for key in after
        }
        query_cuts = delta["cracks"] - delta["tape_tuning"]
        pieces = after["pieces"]
        return {
            "cracking.engine.rows_partitioned_per_op":
                delta["partitioned"] / ops,
            "cracking.index.cracks_per_op": delta["cracks"] / ops,
            "cracking.index.pivot_hit_ratio":
                1.0 - query_cuts / (2 * queries) if queries else 0.0,
            "cracking.piecemap.pieces": pieces,
            "cracking.piecemap.avg_piece_rows":
                after["indexed_rows"] / pieces if pieces else 0.0,
            "cracking.tape.records": delta["tape"],
            "cracking.concurrency.stalls": delta["stalls"],
            "holistic.scheduler.actions": delta["attempted"],
            "holistic.tuner.effective_ratio":
                delta["effective"] / delta["attempted"]
                if delta["attempted"] else 0.0,
            "holistic.ranking.refined_columns": after["refined"],
            "online.monitor.records": delta["monitor"],
            "storage.updates.pending_rows": after["pending"],
        }

    # -- the workload ----------------------------------------------------

    def setup(self) -> None:
        self.build_columns()

    def prepare_pass(self, index: int) -> None:
        """Bring the workload to the pass's starting state: untimed,
        and untraced in a traced run."""

    def run_pass(self, index: int) -> PassStats:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload left on disk."""


class ColdExplore(Bench):
    name = "cold_explore"
    columns = 2
    rows = (10_000_000, 20_000)
    selectivity = 0.01

    def setup(self) -> None:
        self.build_columns()
        per_column = self.size(512, 16)
        count = per_column * self.columns
        self.column_of = np.arange(count) % self.columns  # round-robin
        self.lows = inputs.uniform_lows(
            inputs.rng_for(self.seed, 2), count, self.selectivity
        )
        self.stream = self.queries(self.column_of, self.lows, self.selectivity)

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        db, session = self.fresh_session()
        verifier = Verifier(self.oracles, len(self.stream))
        run_query = session.run_query
        columns = self.column_of.tolist()
        touched: set[int] = set()
        for column, query in zip(columns, self.stream):
            result = timed_query(stats, run_query, query)
            if result is None:
                continue
            if column not in touched:
                touched.add(column)
                stats.first_touch_s.append(stats.query_s[-1])
            verifier.read(column, query.low, query.high, result)
        finish_queries(stats, session, verifier)
        stats.counts.update(
            self.layer_counts(
                None, self.probe(db, session.strategy),
                stats.ops, verifier.reads,
            )
        )
        return stats


def timed_query(stats: PassStats, run_query, query: RangeQuery):
    """One sequential query, timed; ``None`` if it raised."""
    try:
        t0 = clock()
        result = run_query(query)
        t1 = clock()
    except Exception:
        stats.raised()
        return None
    stats.query_s.append(t1 - t0)
    return result


def finish_queries(
    stats: PassStats, session, verifier: Verifier, virtual_before: float = 0.0
) -> None:
    """Fold a pass's sequential, verified reads into its stats."""
    stats.ops += len(stats.query_s)
    stats.busy_s += sum(stats.query_s)
    stats.failed += verifier.finish()
    stats.counts["engine.result_rows"] = verifier.result_rows()
    stats.counts["simtime.virtual_response_s"] = (
        session.report.total_response_s - virtual_before
    )


class _Converged(Bench):
    """Shared set-up of the warm workloads: 2 x 4*10^6 rows, indexes
    converged by 20k grid-mix queries plus idle windows until the
    ranking has nothing left to refine."""

    columns = 2
    rows = (4_000_000, 40_000)
    selectivity = 0.001
    grid_fraction = 0.95

    def grid_stream(self, count: int, *stream: int, grid_fraction=None):
        rng = inputs.rng_for(self.seed, *stream)
        columns = rng.integers(0, self.columns, size=count)
        lows = inputs.grid_lows(
            rng, count, self.selectivity,
            self.grid_fraction if grid_fraction is None else grid_fraction,
        )
        return columns, lows

    def setup(self) -> None:
        self.build_columns()
        self.db, self.session = self.fresh_session()
        columns, lows = self.grid_stream(self.size(20_000, 2_000), 2)
        for query in self.queries(columns, lows, self.selectivity):
            self.session.run_query(query)
        while self.session.idle(actions=1024).actions_done:
            pass
        self.kernel = self.session.strategy
        self.stage_trickle_delta()

    def stage_trickle_delta(self) -> None:
        """The e2e suite's steady pending set (50 inserts, 25 deletes
        per column): every read consults a small, fixed delta store."""
        table = self.db.table(TABLE)
        rows = self.size(*self.rows)
        for c, (ref, column) in enumerate(zip(self.refs, self.base)):
            rng = inputs.rng_for(self.seed, 3, c)
            store = table.updates_for(ref.column)
            values = rng.integers(
                inputs.DOMAIN_LOW, inputs.DOMAIN_HIGH + 1, size=50
            )
            positions = rng.choice(rows, size=25, replace=False)
            store.stage_inserts(values)
            store.stage_deletes(positions, column.values[positions])
            self.oracles[c].insert(values)
            self.oracles[c].delete(positions)


class WarmSteady(_Converged):
    name = "warm_steady"

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        columns, lows = self.grid_stream(self.size(2_000, 1_000), 4, index + 1)
        stream = self.queries(columns, lows, self.selectivity)
        before = self.probe(self.db, self.kernel)
        virtual_before = self.session.report.total_response_s
        verifier = Verifier(self.oracles, len(stream))
        run_query = self.session.run_query
        for column, query in zip(columns.tolist(), stream):
            result = timed_query(stats, run_query, query)
            if result is not None:
                verifier.read(column, query.low, query.high, result)
        finish_queries(stats, self.session, verifier, virtual_before)
        stats.counts.update(
            self.layer_counts(
                before, self.probe(self.db, self.kernel),
                stats.ops, verifier.reads,
            )
        )
        return stats


class BurstIdle(Bench):
    name = "burst_idle"
    columns = 8
    rows = (2_000_000, 20_000)
    selectivity = 0.01
    options = {"policy": "ranked", "num_workers": 0}

    def setup(self) -> None:
        self.build_columns()
        self.cycles = self.size(32, 6)
        self.idle_actions = self.size(128, 16)
        self.burst = 16
        count = self.cycles * self.burst
        rng = inputs.rng_for(self.seed, 2)
        popularity = 1.0 / np.arange(1, self.columns + 1)
        self.column_of = rng.choice(
            self.columns, size=count, p=popularity / popularity.sum()
        )
        self.lows = inputs.uniform_lows(rng, count, self.selectivity)
        self.stream = self.queries(self.column_of, self.lows, self.selectivity)

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        db, session = self.fresh_session()
        verifier = Verifier(self.oracles, len(self.stream))
        run_query = session.run_query
        columns = self.column_of.tolist()
        burst = self.burst
        for cycle in range(self.cycles):
            try:
                t0 = clock()
                record = session.idle(actions=self.idle_actions)
                t1 = clock()
            except Exception:
                stats.raised()
                continue
            stats.idle_s += t1 - t0
            stats.idle_actions += record.actions_done
            for slot in range(cycle * burst, (cycle + 1) * burst):
                query = self.stream[slot]
                result = timed_query(stats, run_query, query)
                if result is not None:
                    verifier.read(
                        columns[slot], query.low, query.high, result
                    )
        finish_queries(stats, session, verifier)
        stats.busy_s += stats.idle_s
        stats.counts.update(
            self.layer_counts(
                None, self.probe(db, session.strategy),
                stats.ops, verifier.reads,
            )
        )
        return stats


class BurstIdleWorkers(BurstIdle):
    name = "burst_idle_workers"
    options = {
        "policy": "ranked",
        "num_workers": min(2, os.cpu_count() or 1),
    }


class DurableCycle(Bench):
    name = "durable_cycle"
    columns = 2
    rows = (1_000_000, 20_000)
    selectivity = 0.01

    def setup(self) -> None:
        self.build_columns()
        self.cycles = 5
        self.cycle_ops = self.size(64, 16)
        # Enough to finish refining what a cycle's queries cut, so that
        # every idle window ends in exactly one incremental checkpoint
        # whatever the seed (with 32, the second window wrote one or
        # two depending on how much the first had left over).
        self.idle_actions = 64
        self.restores = self.size(3, 2)
        # One root a process: two runs may share ``out/`` (the smoke
        # test runs the traced and the untraced one side by side).
        self.root = Path(
            tempfile.mkdtemp(prefix=f"{self.name}.", dir=self.out_dir)
        )
        self.ops = mixed_ops(
            inputs.rng_for(self.seed, 2),
            blocks=self.cycles,
            block=self.cycle_ops,
            columns=self.columns,
            rows=self.size(*self.rows),
            write_ratio=0.1,
            selectivity=self.selectivity,
            grid_fraction=0.0,
        )
        self.user_bytes = sum(column.nbytes for column in self.base)

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        stats.idle_on_disk = True
        shutil.rmtree(self.root, ignore_errors=True)
        db, session = self.fresh_session()
        kernel = session.strategy
        manager = persist.SnapshotManager(
            self.root, db, strategy=kernel, session=session
        )
        kernel.attach_checkpointer(persist.IncrementalCheckpointer(manager))
        table = db.table(TABLE)
        stores = [table.updates_for(ref.column) for ref in self.refs]
        for oracle in self.oracles:
            oracle.reset()
        ops = self.ops
        verifier = Verifier(
            self.oracles, len(ops), reference=(db, self.refs),
            reference_every=self.size(200, 20) if index > 0 else 0,
        )
        staged = 0
        results = []
        for cycle in range(self.cycles):
            for slot in range(cycle * self.cycle_ops,
                              (cycle + 1) * self.cycle_ops):
                kind, column, payload = ops[slot]
                if kind == "query":
                    result = timed_query(stats, session.run_query, payload)
                    if result is not None:
                        verifier.read(
                            column, payload.low, payload.high, result
                        )
                    continue
                try:
                    staged += timed_write(
                        stats, verifier, stores[column], self.base[column],
                        kind, column, payload,
                    )
                except Exception:
                    stats.raised()
            try:
                t0 = clock()
                record = session.idle(actions=self.idle_actions)
                t1 = clock()
                stats.idle_s += t1 - t0
                stats.idle_actions += record.actions_done
                if (cycle + 1) % 5 == 0:
                    t0 = clock()
                    results.append(manager.checkpoint())
                    stats.checkpoint_s.append(clock() - t0)
            except Exception:
                stats.raised()
        expected = (
            {ref: index.piece_count for ref, index in kernel.indexes.items()},
            kernel.tape.count(),
        )
        for _ in range(self.restores):
            try:
                t0 = clock()
                restored = persist.restore_snapshot(self.root)
                stats.restore_s.append(clock() - t0)
            except Exception:
                stats.raised()
                continue
            # Zero re-cracks: the restored kernel resumes where the
            # live one stood.
            back = restored.strategy
            got = (
                {ref: index.piece_count for ref, index in back.indexes.items()},
                back.tape.count(),
            )
            if got != expected:
                stats.failed += 1
        finish_queries(stats, session, verifier)
        stats.ops += len(stats.write_s)
        stats.busy_s += (
            sum(stats.write_s) + stats.idle_s
            + sum(stats.checkpoint_s) + sum(stats.restore_s)
        )
        stats.disk_ratio = directory_bytes(self.root) / self.user_bytes
        stats.counts.update(
            self.layer_counts(
                None, self.probe(db, kernel),
                stats.ops, verifier.reads,
            )
        )
        written = sum(r.arrays_written for r in results)
        carried = sum(r.arrays_carried for r in results)
        stats.counts.update({
            "storage.updates.rows_staged": staged,
            "persist.generations": persist.current_generation(self.root),
            "persist.bytes_written_per_checkpoint":
                sum(r.bytes_written for r in results) / len(results),
            "persist.carried_array_ratio": carried / (written + carried),
        })
        return stats

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def directory_bytes(root: Path) -> int:
    return sum(
        (Path(folder) / name).stat().st_size
        for folder, _, names in os.walk(root)
        for name in names
    )


def mixed_ops(
    rng: np.random.Generator,
    blocks: int,
    block: int,
    columns: int,
    rows: int,
    write_ratio: float,
    selectivity: float,
    grid_fraction: float,
) -> list[tuple[str, int, object]]:
    """An interleaved trace of ``blocks * block`` ops: ``(kind,
    column, payload)`` per op.

    Every block holds the same number of writes, at positions the seed
    picks: with independent draws the reads of a pass, and on
    ``durable_cycle`` the checkpoints its progress counter triggered,
    differed between seeds by more than the machine's noise.

    Reads are range queries; writes are 16-row batches: inserts of
    uniform domain values and, every third write, a delete of base
    positions drawn without replacement per column, so no row dies
    twice.  A delete costs ~15x an insert against a large delta store;
    the fixed 2:1 mix keeps the write median inside the insert mode and
    the p99 inside the delete mode, where an even mix left the median
    on the edge between them (52 us one run, 650 us the next).
    """
    batch = 16
    count = blocks * block
    is_write = rng.permuted(
        np.tile(np.arange(block) < round(write_ratio * block), (blocks, 1)),
        axis=1,
    ).ravel()
    column_of = rng.integers(0, columns, size=count)
    lows = inputs.grid_lows(rng, count, selectivity, grid_fraction)
    is_insert = np.cumsum(is_write) % 3 != 0
    width = inputs.width_of(selectivity)
    victims = [
        rng.choice(rows, size=min(rows, count * batch), replace=False)
        for _ in range(columns)
    ]
    cursor = [0] * columns
    ops: list[tuple[str, int, object]] = []
    for i in range(count):
        column = int(column_of[i])
        if not is_write[i]:
            low = float(lows[i])
            ops.append((
                "query", column,
                RangeQuery(ColumnRef(TABLE, f"A{column + 1}"), low, low + width),
            ))
        elif is_insert[i] or cursor[column] + batch > len(victims[column]):
            ops.append((
                "insert", column,
                rng.integers(
                    inputs.DOMAIN_LOW, inputs.DOMAIN_HIGH + 1, size=batch
                ),
            ))
        else:
            start = cursor[column]
            cursor[column] = start + batch
            ops.append(("delete", column, victims[column][start:start + batch]))
    return ops


def timed_write(
    stats: PassStats | None, verifier: Verifier, store, base: Column,
    kind: str, column: int, payload: np.ndarray,
) -> int:
    """Stage one write batch; returns the rows staged.  Without
    ``stats`` the write is part of a pass's starting state, not an op."""
    if kind == "insert":
        t0 = clock()
        staged = store.stage_inserts(payload)
        t1 = clock()
        verifier.insert(column, payload)
    else:
        values = base.values[payload]
        t0 = clock()
        staged = store.stage_deletes(payload, values)
        t1 = clock()
        verifier.delete(column, payload)
    if stats is not None:
        stats.write_s.append(t1 - t0)
    return staged


class ServeClients(_Converged):
    name = "serve_clients"
    grid_fraction = 1.0
    clients = 4

    def setup(self) -> None:
        super().setup()
        self.frontend = ServingFrontend(self.db, self.kernel)  # depth 8
        self.names = [f"client-{i}" for i in range(self.clients)]
        self.lanes = [self.frontend.add_client(name) for name in self.names]
        self.per_client = self.size(1_000, 256)

    def prepare_pass(self, index: int) -> None:
        """Every client hands in its whole stream; the timed loop then
        forms and serves windows until the lanes are empty."""
        for i, name in enumerate(self.names):
            columns, lows = self.grid_stream(self.per_client, 4, index + 1, i)
            self.frontend.submit(
                name, self.queries(columns, lows, self.selectivity)
            )

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        frontend = self.frontend
        clocks = [lane.clock for lane in self.lanes]
        before = self.probe(self.db, self.kernel, clocks)
        virtual_before = sum(l.report.total_response_s for l in self.lanes)
        verifier = Verifier(self.oracles, self.per_client * self.clients)
        column_index = {ref: c for c, ref in enumerate(self.refs)}
        next_window = frontend.former.next_window
        serve_window = frontend.serve_window
        windows = 0
        while True:
            try:
                t0 = clock()
                entries = next_window()
                results = serve_window(entries)
                t1 = clock()
            except Exception:
                stats.raised()
                break
            if not entries:
                break
            windows += 1
            stats.query_s.extend([t1 - t0] * len(entries))
            stats.busy_s += t1 - t0
            for entry, result in zip(entries, results):
                query = entry.query
                verifier.read(
                    column_index[query.ref], query.low, query.high, result
                )
        stats.ops += len(stats.query_s)
        stats.failed += verifier.finish()
        stats.counts.update(
            self.layer_counts(
                before, self.probe(self.db, self.kernel, clocks),
                stats.ops, verifier.reads,
            )
        )
        stats.counts.update({
            "engine.result_rows": verifier.result_rows(),
            "simtime.virtual_response_s":
                sum(l.report.total_response_s for l in self.lanes)
                - virtual_before,
            "serving.window.windows": windows,
            "serving.window.avg_window_size": stats.ops / windows,
        })
        return stats


class MixedRW(_Converged):
    name = "mixed_rw"
    grid_fraction = 1.0
    window = 8

    def setup(self) -> None:
        """A pass is the last eighth of an 8k-op trace (1.6k in the
        smoke run): the writes of the first seven eighths are its
        starting state, so a pass is short and still runs against the
        delta store that 7k ops of this mix leave behind (~11k pending
        rows a column), which is what makes its reads and writes slow.
        The grid reads cut nothing new, so every pass replays the same
        trace from the same state."""
        super().setup()
        self.timed = self.size(1_000, 200)
        ops = mixed_ops(
            inputs.rng_for(self.seed, 4),
            blocks=8,
            block=self.timed,
            columns=self.columns,
            rows=self.size(*self.rows),
            write_ratio=0.2,
            selectivity=self.selectivity,
            grid_fraction=self.grid_fraction,
        )
        self.ops = ops[-self.timed:]
        #: Per column, the inserted values and deleted positions of the
        #: trace's untimed part.
        self.backlog = [
            tuple(
                np.concatenate([
                    payload for kind, c, payload in ops[:-self.timed]
                    if kind == wanted and c == column
                ])
                for wanted in ("insert", "delete")
            )
            for column in range(self.columns)
        ]
        table = self.db.table(TABLE)
        self.stores = [table.updates_for(ref.column) for ref in self.refs]

    def prepare_pass(self, index: int) -> None:
        # Every pass replays the same trace from the same state, so the
        # ReferenceEngine's full scans (50 ms a sample at this size) run
        # on one pass alone; the count-and-sum oracle still checks
        # every read of every pass.
        self.verifier = Verifier(
            self.oracles, self.timed, reference=(self.db, self.refs),
            reference_every=self.size(200, 40) if index == 1 else 0,
        )
        for column, (inserted, deleted) in enumerate(self.backlog):
            store = self.stores[column]
            store.clear()
            self.oracles[column].reset()
            for kind, payload in (("insert", inserted), ("delete", deleted)):
                timed_write(
                    None, self.verifier, store, self.base[column],
                    kind, column, payload,
                )

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        stores, verifier = self.stores, self.verifier
        before = self.probe(self.db, self.kernel)
        virtual_before = self.session.report.total_response_s
        run_batch = self.session.run_batch
        staged = 0
        window: list[tuple[int, RangeQuery]] = []

        def flush() -> None:
            if not window:
                return
            queries = [query for _, query in window]
            try:
                t0 = clock()
                results = run_batch(queries)
                t1 = clock()
            except Exception:
                stats.raised()
                window.clear()
                return
            stats.query_s.extend([t1 - t0] * len(window))
            stats.busy_s += t1 - t0
            for (column, query), result in zip(window, results):
                verifier.read(column, query.low, query.high, result)
            window.clear()

        for kind, column, payload in self.ops:
            if kind == "query":
                window.append((column, payload))
                if len(window) >= self.window:
                    flush()
                continue
            flush()  # a write closes the open read window
            try:
                staged += timed_write(
                    stats, verifier, stores[column], self.base[column],
                    kind, column, payload,
                )
            except Exception:
                stats.raised()
        flush()
        stats.ops += len(stats.query_s) + len(stats.write_s)
        stats.busy_s += sum(stats.write_s)
        stats.failed += verifier.finish()
        stats.counts.update(
            self.layer_counts(
                before, self.probe(self.db, self.kernel),
                stats.ops, verifier.reads,
            )
        )
        stats.counts.update({
            "engine.result_rows": verifier.result_rows(),
            "simtime.virtual_response_s":
                self.session.report.total_response_s - virtual_before,
            "storage.updates.rows_staged": staged,
        })
        return stats


BENCHES = {
    bench.name: bench
    for bench in (
        ColdExplore, WarmSteady, BurstIdle, BurstIdleWorkers,
        DurableCycle, ServeClients, MixedRW,
    )
}
