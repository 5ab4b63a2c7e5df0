"""Runtime protocol layer of the simulated MPI library.

This package implements the machinery whose scalability the paper's Section 2
criticises and whose behaviour the prediction-driven optimisations of
:mod:`repro.predictive` change:

* :mod:`repro.runtime.message` — the wire message record.
* :mod:`repro.runtime.matching` — posted-receive and unexpected-message
  queues with MPI matching semantics (source/tag wildcards, post order).
* :mod:`repro.runtime.buffers` — per-peer eager buffer pools and memory
  accounting (the "16 KB per peer" problem of Section 2.1).
* :mod:`repro.runtime.credits` — credit-based flow control bookkeeping
  (Section 2.2's proposed fix).
* :mod:`repro.runtime.protocol` — flow-control policies deciding when a
  message may use the eager path.
* :mod:`repro.runtime.stats` — counters aggregated across a run.
* :mod:`repro.runtime.transport` — the transport engine tying it together:
  eager and rendezvous protocols, matching, tracing hooks and timing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "message.Message",
        "matching.PostedReceive",
        "matching.PostedReceiveQueue",
        "matching.UnexpectedQueue",
        "buffers.EagerBufferPool",
        "buffers.BufferPoolStats",
        "credits.CreditManager",
        "credits.CreditAccount",
        "protocol.FlowControlPolicy",
        "protocol.StandardFlowControl",
        "stats.RuntimeStats",
        "transport.Transport",
    ],
)
