"""Named flow-control policies and stream predictors for scenario specs.

The scenario layer resolves its ``policy`` and ``predictor`` spec nodes here,
so every policy the runtime knows — the standard eager/rendezvous baseline,
the always-rendezvous extreme, and the paper's three prediction-driven
policies — is addressable by name with keyword parameters::

    policy = "standard"
    policy = "credit:horizon=5,credit_cap_bytes=65536"
    predictor = "periodicity:window=24,max_period=256"

The predictor registry defaults ``periodicity`` to the paper's evaluation
configuration (window 24, maximum period 256); the class default of
:class:`~repro.core.predictor.PeriodicityPredictor` itself is unchanged.

Both registries are open: :func:`register_policy` /
:func:`register_predictor` make new components usable from specs, TOML files
and the CLI without touching the scenario layer.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

from repro.core.baselines import (
    CyclePredictor,
    LastValuePredictor,
    MarkovPredictor,
    MostFrequentPredictor,
    StridePredictor,
)
from repro.core.predictor import PeriodicityPredictor
from repro.util.registry import ComponentRegistry

if TYPE_CHECKING:
    from repro.runtime.protocol import FlowControlPolicy

__all__ = [
    "POLICIES",
    "PREDICTORS",
    "create_policy",
    "create_predictor",
    "policy_names",
    "predictor_factory",
    "predictor_names",
    "register_policy",
    "register_predictor",
]

POLICIES = ComponentRegistry("policy")
PREDICTORS = ComponentRegistry("predictor")


def _policy(path: str) -> Callable[..., FlowControlPolicy]:
    """``repro.<path>``, a policy class, imported only when a policy is built."""
    module, _, name = path.rpartition(".")
    return lambda **params: getattr(importlib.import_module(f"repro.{module}"), name)(**params)


POLICIES.register(
    "standard",
    _policy("runtime.protocol.StandardFlowControl"),
    description="Classic MPI flow control: eager for small messages, "
    "rendezvous for large ones (the paper's baseline).",
)
POLICIES.register(
    "always-rendezvous",
    _policy("runtime.protocol.AlwaysRendezvousFlowControl"),
    aliases=("rendezvous",),
    description="Every message pays the rendezvous handshake (fully "
    "flow-controlled extreme).",
)
POLICIES.register(
    "predictive-credits",
    _policy("predictive.credit_policy.PredictiveCreditPolicy"),
    aliases=("credit", "credits"),
    description="Section 2.2: eager sends consume credits granted from the "
    "receiver's predictions.",
)
POLICIES.register(
    "predictive-buffers",
    _policy("predictive.buffer_manager.PredictiveBufferPolicy"),
    aliases=("buffers",),
    description="Section 2.1: eager buffers allocated only for predicted "
    "senders instead of every peer.",
)
POLICIES.register(
    "predictive-rendezvous",
    _policy("predictive.rendezvous_bypass.PredictiveRendezvousPolicy"),
    aliases=("bypass",),
    description="Section 2.3: predicted long messages skip the rendezvous "
    "handshake.",
)

PREDICTORS.register(
    "periodicity",
    PeriodicityPredictor,
    defaults={"window_size": 24, "max_period": 256},
    param_aliases={"window": "window_size"},
    description="The paper's DPD periodicity detector + period replay "
    "(defaults: window 24, max period 256).",
)
PREDICTORS.register(
    "last-value",
    LastValuePredictor,
    description="Predicts the last observed value at every horizon.",
)
PREDICTORS.register(
    "most-frequent",
    MostFrequentPredictor,
    param_aliases={"window": "window_size"},
    description="Predicts the most frequent value of a sliding window.",
)
PREDICTORS.register(
    "cycle",
    CyclePredictor,
    description="Replays the cycle of first-seen distinct values.",
)
PREDICTORS.register(
    "markov",
    MarkovPredictor,
    description="Order-k Markov chain over the recent stream.",
)
PREDICTORS.register(
    "stride",
    StridePredictor,
    description="Constant-stride extrapolation (for size streams).",
)


def register_policy(name: str, factory, **kwargs) -> None:
    """Register a flow-control policy factory under ``name``."""
    POLICIES.register(name, factory, **kwargs)


def register_predictor(name: str, factory, **kwargs) -> None:
    """Register a stream-predictor factory under ``name``."""
    PREDICTORS.register(name, factory, **kwargs)


def policy_names() -> list[str]:
    """Canonical names of all registered policies."""
    return POLICIES.names()


def predictor_names() -> list[str]:
    """Canonical names of all registered predictors."""
    return PREDICTORS.names()


def create_policy(kind: str = "standard", **params) -> FlowControlPolicy:
    """Instantiate the flow-control policy registered under ``kind``."""
    return POLICIES.create(kind, **params)


def create_predictor(kind: str = "periodicity", **params):
    """Instantiate the stream predictor registered under ``kind``."""
    return PREDICTORS.create(kind, **params)


def predictor_factory(kind: str = "periodicity", **params) -> Callable[[], object]:
    """A zero-argument factory of fresh predictors; ``kind`` is resolved here, once."""
    return PREDICTORS.builder(kind, **params)
