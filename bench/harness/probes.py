"""Microprobes: the harness timing public functions of one layer in a loop.

Each probe runs inside a span named after the layer it calls, so its time is
attributed to that layer in the traced run's table.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from harness.gen import StreamSource

#: ``window_size + max_period`` of the paper-default predictor: a stream is at
#: full history — and ``observe_many`` at its steady cost — from here on.
FULL_HISTORY = 24 + 256


def per_item_us(items: Sequence[tuple], call: Callable[..., object]) -> float:
    """Mean microseconds per ``call(*item)`` over ``items``, back to back."""
    start = time.perf_counter()
    for item in items:
        call(*item)
    return (time.perf_counter() - start) / len(items) * 1e6


def core_probe(rec, seed: int) -> dict[str, float]:
    """``observe`` against ``observe_many`` of 8 and of 1 on a full-history predictor."""
    from repro import PeriodicityPredictor

    source = StreamSource(seed, 0, noise=0.02)
    predictor = PeriodicityPredictor(window_size=24, max_period=256)
    predictor.observe_many([source.take()[0] for _ in range(2 * FULL_HISTORY)])
    senders = [source.take()[0] for _ in range(3328)]
    with rec.span("core.observe"):
        observe_us = per_item_us([(s,) for s in senders[:1024]], predictor.observe)
    with rec.span("core.observe_many8"):
        runs = [(senders[i : i + 8],) for i in range(1024, 3072, 8)]
        many8_us = per_item_us(runs, predictor.observe_many) / 8
    with rec.span("core.observe_many1"):
        many1_us = per_item_us([([s],) for s in senders[3072:]], predictor.observe_many)
    return {
        "core.observe_us": observe_us,
        "core.observe_many8_us_per_obs": many8_us,
        "core.observe_many1_us": many1_us,
    }
