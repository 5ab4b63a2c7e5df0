"""The online prediction service (``repro serve``).

Everywhere else in this repo the paper's predictor runs *embedded in the
simulator loop*; this package productises it as a standalone service at
mass-concurrency scale: an ingestion front end (newline-delimited JSON over
TCP or stdin through one chunked ingest core; TCP flow control is the
backpressure) hashing each stream key onto in-process shards, each shard
owning a memory-bounded LRU table of per-stream predictor state driving the
:class:`repro.predictive.online.OnlineMessagePredictor` batch fast paths.
Any predictor registered in :mod:`repro.predictive.registry` can be served
via its spec string (``"periodicity:window=24,max_period=256"``).

Layers (bottom-up, see ``docs/serving.md``):

* :mod:`repro.serve.protocol` — the wire protocol: event-line parsing with
  line-numbered :class:`ServeProtocolError`, response encoding;
* :mod:`repro.serve.table` — the LRU stream table (eviction counter,
  resident-bytes accounting);
* :mod:`repro.serve.shard` — one shard: a table plus the predictor
  observe/predict drive;
* :mod:`repro.serve.snapshot` — the versioned, atomic on-disk shard
  snapshot codec (``docs/formats.md``);
* :mod:`repro.serve.service` — the transport-independent synchronous core
  (shard routing, query handling, snapshot/restore of the whole service);
* :mod:`repro.serve.server` — the ingest core (``LineIngest``) and its two
  transports, asyncio TCP and the stdin pipe;
* :mod:`repro.serve.client` — a small blocking client for examples, smoke
  tests and scripts.

The load-bearing invariant: feeding a per-receiver ``(sender, nbytes)``
stream through the serve ingestion path yields **bit-identical** predictions
to driving ``OnlineMessagePredictor`` directly (the service coalesces
same-stream runs into ``observe_batch``, which is bit-equivalent to the
sequential loop by the predictors' own contract).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "snapshot.SNAPSHOT_FORMAT",
        "snapshot.SNAPSHOT_VERSION",
        "client.ServeClient",
        "protocol.ServeEvent",
        "protocol.ServeProtocolError",
        "service.ServeService",
        "shard.Shard",
        "snapshot.SnapshotError",
        "table.StreamEntry",
        "table.StreamTable",
        "protocol.encode_event",
        "protocol.encode_response",
        "snapshot.load_snapshot",
        "protocol.parse_event_line",
        "snapshot.write_snapshot",
    ],
)
