"""Known-bad: one non-reentrant lock class held twice.

A transfer takes its own account's lock, then the other account's.
Nothing orders the two instances, so a transfer a->b beside a transfer
b->a deadlocks; the lock-discipline rule sees one lock class nested in
itself and fails the check.
"""

import threading


class Account:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.balance = 0

    def transfer(self, other: "Account", amount: int) -> None:
        with self.lock:
            with other.lock:
                self.balance -= amount
                other.balance += amount
