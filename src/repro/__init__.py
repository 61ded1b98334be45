"""Distributed runtime verification of MTL for cross-chain protocols.

Reproduction of Ganguly et al., "Distributed Runtime Verification of
Metric Temporal Properties for Cross-Chain Protocols" (ICDCS 2022).

Public API quick tour::

    from repro import mtl, monitor
    from repro.distributed import DistributedComputation

    spec = mtl.parse("a U[0,6) b")
    comp = DistributedComputation.from_event_lists(
        2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]})
    result = monitor.monitor(spec, comp)
    print(result.verdicts)   # frozenset({True, False}) — Fig 3's example
"""

from repro import (
    bench,
    chain,
    distributed,
    encoding,
    io,
    monitor,
    mtl,
    progression,
    protocols,
    service,
    solver,
    specs,
    timed_automata,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "__version__",
    "bench",
    "chain",
    "distributed",
    "encoding",
    "io",
    "monitor",
    "mtl",
    "progression",
    "protocols",
    "service",
    "solver",
    "specs",
    "timed_automata",
]
