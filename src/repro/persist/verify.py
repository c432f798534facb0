"""Background snapshot verification -- checksums off the critical path.

Eager restore verification (:func:`~repro.persist.format.
verify_manifest`) re-hashes every array before the engine comes up,
a full scan of every base column on the restart path.
:class:`BackgroundVerifier` moves that scan onto a daemon
thread: the engine starts serving immediately off the structurally
validated snapshot (:func:`~repro.persist.format.
quick_verify_manifest` has already ruled out torn and missing files),
and silent bit rot is reported asynchronously.  Callers that need a
hard guarantee -- the chaos bench's bit-flip scenario -- :meth:`wait`
for the verdict and re-restore with the bad generation excluded.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.errors import ConcurrencyError, PersistError
from repro.persist.format import verify_manifest


class BackgroundVerifier:
    """Re-hashes one restored generation's arrays on a daemon thread.

    Args:
        root: snapshot root directory.
        manifest: the restored generation's manifest.
        generation: its number (for reporting only).
    """

    def __init__(self, root, manifest: dict, generation: int) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self.generation = generation
        self.failures: list[PersistError] = []
        self._thread = threading.Thread(
            target=self._run,
            name=f"snapshot-verify-gen-{generation}",
            daemon=True,
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            verify_manifest(self.root, self.manifest)
        except PersistError as error:
            self.failures.append(error)

    @property
    def done(self) -> bool:
        """Whether the scan has finished (pass or fail)."""
        return not self._thread.is_alive()

    @property
    def ok(self) -> bool:
        """Whether the scan finished and every checksum matched."""
        return self.done and not self.failures

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until the scan finishes; returns whether it passed.

        Raises:
            ConcurrencyError: if the scan is still running after
                ``timeout_s`` seconds.
        """
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise ConcurrencyError(
                f"snapshot verification of generation {self.generation} "
                f"still running after {timeout_s}s"
            )
        return not self.failures
