"""Cross-session window forming: coalescing in-flight client queries.

The serving front-end's leverage over one-session batching (ISSUE 4)
is that concurrent clients' in-flight queries can share one physical
cracking pass.  A *window former* decides which submitted queries are
in flight together; the front-end then executes the formed window
through the shared-work path and replays each client's accounting on
its own lane.

:class:`CrossSessionWindowFormer` models closed-loop traffic: every
client with pending work contributes up to ``depth`` queries per window
(a connection pool issuing back-to-back requests).  It is deterministic
given the admission order and thread-safe on admit/next_window, so
producer threads can feed a serving loop.  Per-client query order is
always preserved -- only the interleaving *across* clients is the
former's choice, and per-client accounting is interleaving-independent
(the serving front-end's core invariant).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, NamedTuple

from repro.engine.query import RangeQuery
from repro.errors import ConfigError


class WindowEntry(NamedTuple):
    """One in-flight query: which client, which position in its
    stream.  A named tuple: the former builds one per served query."""

    client: str
    sequence: int
    query: RangeQuery


_new_entry = tuple.__new__


class CrossSessionWindowFormer:
    """Closed-loop former: round-robin, up to ``depth`` per client.

    Each window starts from the client after the last one served.
    """

    def __init__(self, depth: int = 8) -> None:
        if depth < 1:
            raise ConfigError(f"window depth must be >= 1, got {depth}")
        self.depth = depth
        self._queues: dict[str, deque[RangeQuery]] = {}
        self._taken: dict[str, int] = {}
        #: Client to start the next window from (fair rotation).
        self._resume_from: str | None = None
        self._lock = threading.Lock()

    def admit(self, client: str, queries: Iterable[RangeQuery]) -> None:
        """Append ``queries`` to ``client``'s stream."""
        with self._lock:
            queue = self._queues.get(client)
            if queue is None:
                queue = self._queues[client] = deque()
                self._taken[client] = 0
            queue.extend(queries)

    def next_window(self) -> list[WindowEntry]:
        """The next in-flight set; empty when every stream is drained."""
        with self._lock:
            clients = list(self._queues)
            if not clients:
                return []
            start = 0
            if self._resume_from in self._queues:
                start = clients.index(self._resume_from)
            entries: list[WindowEntry] = []
            last_served: str | None = None
            append = entries.append
            for offset in range(len(clients)):
                client = clients[(start + offset) % len(clients)]
                queue = self._queues[client]
                take = min(self.depth, len(queue))
                if take == 0:
                    continue
                last_served = client
                first = self._taken[client]
                self._taken[client] = first + take
                popleft = queue.popleft
                for sequence in range(first, first + take):
                    # tuple.__new__ builds the named tuple without its
                    # Python-level __new__.
                    append(
                        _new_entry(WindowEntry, (client, sequence, popleft()))
                    )
            if last_served is not None:
                index = clients.index(last_served)
                self._resume_from = clients[(index + 1) % len(clients)]
            return entries
