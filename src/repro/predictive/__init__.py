"""Prediction-driven runtime optimisations (Section 2 of the paper).

The paper proposes — but does not implement — three uses of message
prediction inside the MPI runtime:

* **memory reduction** (Section 2.1): allocate per-peer eager buffers only
  for the senders the receiver predicts, instead of for every peer;
* **control flow** (Section 2.2): grant eager-send credits ahead of time to
  predicted senders so unexpected-message memory stays bounded;
* **fast path for long messages** (Section 2.3): let a predicted long message
  skip the rendezvous handshake because the receiver has already prepared the
  buffer.

This package implements all three as flow-control policies pluggable into the
runtime transport, driven by an online per-receiver predictor
(:class:`repro.predictive.online.OnlineMessagePredictor`).  They are the
"deployment impact" experiments of :mod:`repro.analysis.extensions`; the
paper's own evaluation stops at prediction accuracy.

Modelling note: in a real implementation the receiver would piggy-back credit
or buffer grants on other messages.  The simulation consults the receiver's
predictor state directly at send time and does not charge extra control
traffic for grants; the latency and memory effects of hits and misses are
modelled (a miss falls back to the slow rendezvous path).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "online.OnlineMessagePredictor",
        "online.PredictedMessage",
        "buffer_manager.PredictiveBufferPolicy",
        "credit_policy.PredictiveCreditPolicy",
        "rendezvous_bypass.PredictiveRendezvousPolicy",
        "registry.create_policy",
        "registry.create_predictor",
        "registry.policy_names",
        "registry.predictor_factory",
        "registry.predictor_names",
        "registry.register_policy",
        "registry.register_predictor",
    ],
)
