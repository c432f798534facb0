"""Concurrent multi-client serving on one shared holistic kernel.

The first genuinely multi-tenant scenario of the reproduction
(ISSUE 5): a :class:`ServingFrontend` serves N concurrent clients from
one shared kernel, coalescing in-flight queries from *different*
clients into shared cracking work while keeping every client's
response-time accounting bit-for-bit identical to running alone.
"""

from repro.serving.frontend import (
    ClientFault,
    ClientLane,
    ServingFrontend,
    ServingReport,
)
from repro.serving.window import CrossSessionWindowFormer, WindowEntry

__all__ = [
    "ClientFault",
    "ClientLane",
    "CrossSessionWindowFormer",
    "ServingFrontend",
    "ServingReport",
    "WindowEntry",
]
