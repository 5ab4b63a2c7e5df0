"""Spans recorded by the harness around its own calls into each layer.

Nothing under ``src/`` is instrumented: a span here is the interval between
the harness calling a public function and that function returning.  Spans are
kept in memory and written out once, when the traced run ends.

A span is ``{"id", "name", "parent", "start", "end", "run_id"}`` plus free
attributes.  ``name`` is ``<layer>.<step>`` where the layer is a module under
``src/repro/`` (``sim.run``, ``serve.protocol.parse``) or ``harness`` for the
benchmark's own work.  Self time is a span's duration minus the part of that
interval its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

HARNESS_LAYER = "harness"


def layer_of(name: str) -> str:
    """``sim.run`` -> ``sim``; ``serve.protocol.parse`` -> ``serve.protocol``."""
    return name.rsplit(".", 1)[0]


class SpanRecorder:
    """In-memory span list with a stack giving each new span its parent."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "run_id": self.run_id,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_aggregate(self, name: str, parent: dict, seconds: float, count: int) -> None:
        """One span standing for ``count`` short calls made inside ``parent``.

        A hook called 10^5 times cannot have a span per call; the harness sums
        the calls' durations and records them as one child anchored at the
        parent's start, so the parent's self time excludes them.
        """
        seconds = min(seconds, parent["end"] - parent["start"])
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": parent["id"],
                "start": parent["start"],
                "end": parent["start"] + seconds,
                "run_id": self.run_id,
                "aggregate_of": count,
            }
        )

    def duration(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Layer -> summed self time of its spans, largest first."""
    own = self_times(spans)
    layers: dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        layers[layer] = layers.get(layer, 0.0) + own[span["id"]]
    return dict(sorted(layers.items(), key=lambda item: -item[1]))


def attribution(spans: list[dict]) -> tuple[float, float]:
    """``(traced wall, seconds not attributed to a repro layer)`` of one run."""
    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end"] - s["start"] for s in roots)
    return wall, layer_self_times(spans).get(HARNESS_LAYER, 0.0)


class NullRecorder:
    """Tracing off: ``span`` costs a generator resume and records nothing."""

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        yield None
