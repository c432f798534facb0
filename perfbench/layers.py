"""The traced run: span wrappers around each layer's public functions.

:func:`install` replaces every function of the fixed boundary list
below with a wrapper that records one *span* -- function, start, end
and the span that called it -- on a per-thread stack.  Spans stay in
memory (``array`` appends, no Python object per span) and are analysed
and written out once the workload is over.  Nothing under ``src/`` is
changed; :func:`Tracer.uninstall` puts the originals back.

How a name is patched depends on how it is bound:

* methods are patched on the class, which also covers ``__slots__``
  classes and instances that already exist;
* module functions are patched in their defining module *and* in every
  loaded ``repro`` module that bound the same object with
  ``from ... import`` (the crack kernels inside
  ``repro.cracking.index``, ``apply_pending`` inside
  ``repro.engine.session``, ...);
* generator and context-manager entry points cannot be wrapped by a
  plain call span (the work happens after the call returns); they are
  left alone and listed in :data:`UNWRAPPED`.

A layer's *self time* is its spans' duration minus the part their
child spans cover, so the layers partition the traced time.  Worker
threads record onto their own stacks; their self time is added to the
same layers, which is why on ``burst_idle_workers`` the layers can sum
to more than the driver's wall time (the driver waits inside
``holistic.workers`` while the workers run beside it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

from perfbench.registry import LAYERS

#: (layer, module, class or None, function names).
BOUNDARIES: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("engine", "repro.engine.session", "Session",
     ("run_query", "run_batch", "idle")),
    ("holistic.kernel", "repro.holistic.kernel", "HolisticKernel",
     ("select", "begin_batch", "exploit_idle", "index_for")),
    ("holistic.scheduler", "repro.holistic.scheduler", "IdleScheduler",
     ("run_actions", "run_budget", "run_actions_batched")),
    ("holistic.tuner", "repro.holistic.tuner", "AuxiliaryTuner",
     ("perform", "perform_latched", "perform_batch", "crack_in_hot_range")),
    ("holistic.ranking", "repro.holistic.ranking", "ColumnRanking",
     ("note_query", "note_queries", "best", "ranked", "note_tuning_action")),
    ("holistic.workers", "repro.holistic.workers", "TuningWorkerPool",
     ("run_window", "start", "submit", "drain", "stop")),
    ("online.monitor", "repro.online.monitor", "WorkloadMonitor",
     ("record", "note_many")),
    ("cracking.index", "repro.cracking.index", "CrackerIndex",
     ("select_range", "begin_select_batch", "crack_bounds_batch",
      "random_crack", "crack_largest_piece", "sort_piece_at",
      "ensure_cut", "ensure_cuts")),
    ("cracking.piecemap", "repro.cracking.piecemap", "PieceMap",
     ("locate", "locate_many", "add_crack", "add_crack_at",
      "insert_cracks_bulk")),
    ("cracking.engine", "repro.cracking.engine", None,
     ("crack_in_two", "crack_in_three", "crack_in_two_batch",
      "crack_spans_batch", "crack_multi", "sort_piece",
      "split_sorted_piece")),
    ("cracking.batch", "repro.cracking.batch", "CrackSelectBatch",
     ("replay", "replay_query", "bind", "refresh_arrays")),
    ("cracking.batch", "repro.cracking.batch", "DetachedCrackReplay",
     ("bind",)),
    ("cracking.tape", "repro.cracking.tape", "CrackTape",
     ("log", "record")),
    ("cracking.concurrency", "repro.cracking.concurrency",
     "LatchedCrackerAccess", ("select_range", "crack_value")),
    ("simtime", "repro.simtime.clock", "SimClock",
     ("charge", "settle_batch")),
    ("simtime", "repro.simtime.accounting", "WindowAccountant",
     ("charge_query", "charge_binary", "charge_binary_pair",
      "charge_warm_select", "charge_scan_query", "charge_crack",
      "charge_empty_crack", "charge_materialize", "charge_scan",
      "charge_pending_merge", "finish")),
    ("storage.updates", "repro.storage.updates", "PendingUpdates",
     ("stage_inserts", "stage_deletes", "inserts_in_range",
      "deletes_in_range", "take_inserts_in_range",
      "take_deletes_in_range")),
    ("storage.updates", "repro.engine.operators", None, ("apply_pending",)),
    ("storage.updates", "repro.engine.operators", "PendingWindow",
     ("__init__", "apply")),
    ("serving.window", "repro.serving.window", "CrossSessionWindowFormer",
     ("admit", "next_window")),
    ("serving.frontend", "repro.serving.frontend", "ServingFrontend",
     ("add_client", "submit", "serve_window")),
    ("persist", "repro.persist.manager", "SnapshotManager", ("checkpoint",)),
    ("persist", "repro.persist.manager", "IncrementalCheckpointer",
     ("due", "perform")),
    ("persist", "repro.persist.manager", None, ("restore_snapshot",)),
)

#: Entry points of the traced layers that a call span cannot cover.
UNWRAPPED = (
    "repro.cracking.concurrency.PieceLatchTable.write_pieces (contextmanager)",
    "repro.cracking.concurrency.PieceLatchTable.read_piece (contextmanager)",
    "repro.cracking.concurrency.PieceLatchTable.exclusive (contextmanager)",
    "repro.cracking.concurrency.LatchedCrackerAccess.exclusive "
    "(returns a contextmanager)",
    "repro.cracking.tape.CrackTape.attribution (contextmanager)",
)


class _ThreadSpans:
    """One thread's spans; ``top`` is the index of the open span."""

    __slots__ = ("funcs", "parents", "starts", "ends", "top", "driver")

    def __init__(self, driver: bool) -> None:
        self.funcs = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.top = -1
        self.driver = driver


class Tracer:
    """Installed wrappers plus the spans they recorded."""

    def __init__(self) -> None:
        #: Spans are recorded only while this is true (timed passes).
        self.on = False
        self.functions: list[tuple[str, str]] = []  # fid -> (layer, name)
        self._tls = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _new_thread(self) -> _ThreadSpans:
        spans = _ThreadSpans(
            threading.current_thread() is threading.main_thread()
        )
        with self._lock:
            self._threads.append(spans)
        self._tls.spans = spans
        return spans

    def _wrap(self, fn, fid: int):
        tracer = self
        tls = self._tls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            try:
                spans = tls.spans
            except AttributeError:
                spans = tracer._new_thread()
            starts = spans.starts
            index = len(starts)
            parent = spans.top
            spans.top = index
            spans.funcs.append(fid)
            spans.parents.append(parent)
            spans.ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.ends[index] = clock()
                spans.top = parent

        return traced

    # -- patching ------------------------------------------------------

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        for layer, module_name, class_name, names in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(
                module, class_name
            )
            for name in names:
                original = owner.__dict__[name]
                if not inspect.isfunction(original):
                    raise TypeError(
                        f"{module_name}.{class_name}.{name} is not a plain "
                        "function; list it in UNWRAPPED instead"
                    )
                if inspect.isgeneratorfunction(inspect.unwrap(original)):
                    raise TypeError(
                        f"{module_name}.{class_name}.{name} is a generator "
                        "entry point; list it in UNWRAPPED instead"
                    )
                qualified = ".".join(
                    part for part in (module_name, class_name, name) if part
                )
                self.functions.append((layer, qualified))
                traced = self._wrap(original, len(self.functions) - 1)
                self._patch(owner, name, traced)
                if class_name is None:
                    # Rebind every ``from module import name`` copy.
                    for other_name, other in list(sys.modules.items()):
                        if (
                            other is not module
                            and other_name.startswith("repro")
                            and getattr(other, "__dict__", {}).get(name)
                            is original
                        ):
                            self._patch(other, name, traced)
        return self

    def uninstall(self) -> None:
        self.on = False
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------

    def collect(self) -> dict[str, np.ndarray]:
        """All threads' spans as flat arrays (parents re-based)."""
        funcs, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for thread_id, spans in enumerate(self._threads):
            count = len(spans.starts)
            parent = np.frombuffer(spans.parents, dtype=np.int32).astype(
                np.int64
            )
            parents.append(np.where(parent >= 0, parent + offset, -1))
            funcs.append(np.frombuffer(spans.funcs, dtype=np.uint16))
            starts.append(np.frombuffer(spans.starts, dtype=np.float64))
            ends.append(np.frombuffer(spans.ends, dtype=np.float64))
            threads.append(
                np.full(count, 0 if spans.driver else thread_id + 1,
                        dtype=np.int16)
            )
            offset += count

        def joined(parts: list, dtype) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        return {
            "func": joined(funcs, np.uint16),
            "parent": joined(parents, np.int64),
            "start": joined(starts, np.float64),
            "end": joined(ends, np.float64),
            #: 0 is the driver thread.
            "thread": joined(threads, np.int16),
        }

    def summarize(self, spans: dict[str, np.ndarray]) -> dict[str, object]:
        """Per-layer self time and calls, plus the driver's root time."""
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        layer_of_func = np.array(
            [layer_index[layer] for layer, _ in self.functions],
            dtype=np.int64,
        )
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - child_time
        layers = layer_of_func[spans["func"]] if len(duration) else (
            np.empty(0, dtype=np.int64)
        )
        self_s = np.bincount(
            layers, weights=self_time, minlength=len(LAYERS)
        )
        calls = np.bincount(layers, minlength=len(LAYERS))
        driver_roots = ~has_parent & (spans["thread"] == 0)
        return {
            "self_s": dict(zip(LAYERS, self_s.tolist())),
            "calls": dict(zip(LAYERS, calls.tolist())),
            "driver_root_s": float(duration[driver_roots].sum()),
            "spans": int(len(duration)),
        }

    def write(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(LAYERS),
            function_layer=np.array([layer for layer, _ in self.functions]),
            function_name=np.array([name for _, name in self.functions]),
            unwrapped=np.array(UNWRAPPED),
            **spans,
        )
