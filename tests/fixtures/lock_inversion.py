"""A deliberately wrong module: acquires locks against the hierarchy.

``tests/test_concurrency.py`` feeds this file to the static checker
(which must flag the raw lock) and executes ``inverted_acquire`` under
the debug flag (which must raise ``LockOrderViolation`` at runtime).  It
is never imported by the package itself.
"""

import threading

from repro.concurrency import OrderedLock

#: RC001: a raw lock outside the registry.
ROGUE = threading.Lock()


class Inverted:
    def __init__(self):
        self.inner = OrderedLock("metrics")
        self.outer = OrderedLock("server.jobs")

    def inverted_acquire(self):
        """LockOrderViolation at runtime: metrics is rank 80, server.jobs
        is rank 10."""
        with self.inner:
            with self.outer:
                pass
