"""Known-bad: a lock held across a call into another repro module.

The counter's lock guards its own count, but the tape's ``log`` runs
under it too: whatever the tape ever locks or calls back is now
ordered after this lock, and nothing in this module says so.  The
lock-discipline rule flags the call.
"""

import threading

from repro.cracking.piece import CrackOrigin
from repro.cracking.tape import CrackTape


class Counter:
    def __init__(self, tape: CrackTape) -> None:
        self._lock = threading.Lock()
        self.tape = tape
        self.count = 0

    def bump(self) -> None:
        with self._lock:
            self.count += 1
            self.tape.log(CrackOrigin.TUNING)
