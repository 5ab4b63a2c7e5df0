"""One serve shard: an LRU stream table driving the predictor fast paths.

A shard owns the streams whose keys hash onto it (see
:meth:`repro.serve.service.ServeService.shard_index_for`) and is the unit of
snapshot/restore: :meth:`Shard.snapshot` writes the whole table — predictor
state, LRU order, counters — through the versioned codec of
:mod:`repro.serve.snapshot`, and :meth:`Shard.restore` rebuilds an
equivalent shard whose subsequent predictions are bit-identical.

Each stream's state is one
:class:`repro.predictive.online.OnlineMessagePredictor` pinned to receiver
slot 0 (``nprocs=1``), so the serve path drives exactly the
``observe``/``observe_batch``/``forecast``/``expects_message`` fast paths the
simulator uses — the serve-vs-offline bit-identity invariant is equality of
code paths, not a re-implementation.  The front end feeds a run of one
message through :meth:`Shard.observe`, a longer run through
:meth:`Shard.observe_batch`, and answers a ``predict`` line from
:meth:`Shard.forecast`'s two lists.
"""

from __future__ import annotations

from typing import Sequence

from repro.predictive.online import OnlineMessagePredictor, PredictedMessage
from repro.scenario.node import PredictorSpec
from repro.serve.snapshot import SnapshotError, load_snapshot, write_snapshot
from repro.serve.table import StreamEntry, StreamTable

__all__ = ["Shard"]


class Shard:
    """A shard of the serve plane: stream table + predictor drive.

    Parameters
    ----------
    index, num_shards:
        This shard's position in the service's shard ring.
    predictor:
        Anything :meth:`PredictorSpec.coerce` accepts — a spec string
        (``"periodicity:window=24"``), a mapping, or a ``PredictorSpec``.
        The spec's ``horizon`` is the default query horizon.
    max_streams, max_bytes:
        Stream-table memory bounds (see :class:`repro.serve.table.StreamTable`).
    """

    def __init__(
        self,
        index: int = 0,
        num_shards: int = 1,
        predictor=None,
        *,
        max_streams: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if not 0 <= index < num_shards:
            raise ValueError(f"shard index {index} out of range for {num_shards} shards")
        self.index = int(index)
        self.num_shards = int(num_shards)
        self.spec = PredictorSpec.coerce(predictor)
        self.horizon = self.spec.horizon
        stream_factory = self.spec.factory()
        self._entry_factory = lambda: OnlineMessagePredictor(
            nprocs=1, horizon=self.horizon, predictor_factory=stream_factory
        )
        self.table = StreamTable(self._entry_factory, max_streams=max_streams, max_bytes=max_bytes)
        #: Total observations ever applied to this shard (evictions included).
        self.observations = 0

    # ------------------------------------------------------------------
    def observe(self, key: str, sender: int, nbytes: int) -> None:
        """Feed one message into stream ``key`` (cold miss creates state)."""
        entry = self.table.get(key, create=True)
        entry.predictor.observe(0, sender, nbytes)
        self.table.note_observations(entry, 1)
        self.observations += 1

    def observe_batch(self, key: str, senders: Sequence[int], sizes: Sequence[int]) -> None:
        """Feed a burst of messages into stream ``key`` (the ingest fast path).

        Routed through ``OnlineMessagePredictor.observe_batch`` — the
        predictors' vectorised bulk feed, bit-equivalent to the sequential
        loop — so batching on the server never changes predictions.
        """
        if not len(senders):
            return
        entry = self.table.get(key, create=True)
        entry.predictor.observe_batch(0, senders, sizes)
        self.table.note_observations(entry, len(senders))
        self.observations += len(senders)

    def predict(self, key: str, horizon: int | None = None) -> list[PredictedMessage] | None:
        """Predicted next messages for stream ``key``; None when not resident.

        Querying never creates stream state (a stampede of lookups for
        unknown keys must not churn the LRU table), but a hit refreshes the
        stream's recency — a stream still being asked about is not cold.
        """
        entry = self.table.get(key)
        if entry is None:
            return None
        return entry.predictor.predict(0, horizon)

    def forecast(
        self, key: str, horizon: int | None = None
    ) -> tuple[list[int | None], list[int | None]] | None:
        """:meth:`predict` as the ``(senders, sizes)`` lists it pairs; None when not resident."""
        entry = self.table.get(key)
        if entry is None:
            return None
        return entry.predictor.forecast(0, horizon)

    def expects(self, key: str, sender: int, nbytes: int | None = None) -> bool | None:
        """Whether stream ``key`` expects a message from ``sender``."""
        entry = self.table.get(key)
        if entry is None:
            return None
        return entry.predictor.expects_message(0, sender, nbytes)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able shard counters (table stats included)."""
        payload = {"shard": self.index, "observations": self.observations}
        payload.update(self.table.stats())
        return payload

    # ------------------------------------------------------------------
    def _header(self) -> dict:
        return {
            "shard_index": self.index,
            "num_shards": self.num_shards,
            "predictor": self.spec.to_dict(),
            "max_streams": self.table.max_streams,
            "max_bytes": self.table.max_bytes,
            "observations": self.observations,
            "evictions": self.table.evictions,
            "streams_created": self.table.streams_created,
        }

    def snapshot(self, path) -> dict:
        """Write this shard's full state atomically; returns the header.

        Streams are written coldest-first (the table's LRU order), so a
        restored shard evicts in the same order the original would have —
        eviction determinism survives the round trip.
        """
        return write_snapshot(
            path, self._header(), ((key, entry.predictor) for key, entry in self.table.items())
        )

    @classmethod
    def restore(cls, path, sha256: str | None = None) -> "Shard":
        """Rebuild a shard from a snapshot file (bit-identical predictions).

        Every stream must be configured as the header's predictor spec builds;
        ``sha256`` is the file's digest as a manifest records it, if one does.
        """
        header, streams = load_snapshot(path, sha256)
        try:
            shard = cls(
                index=header["shard_index"],
                num_shards=header["num_shards"],
                predictor=header["predictor"],
                max_streams=header["max_streams"],
                max_bytes=header["max_bytes"],
            )
            shard.observations = int(header.get("observations", 0))
            shard.table.evictions = int(header.get("evictions", 0))
            shard.table.streams_created = int(header.get("streams_created", 0))
            expected = shard._entry_factory().get_state().configuration
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotError(
                path, f"header does not describe a shard: {error!r}",
                shard=header.get("shard_index"),
            ) from None
        for key, config, predictor in streams:
            if config != expected:
                raise SnapshotError(
                    path, f"stream {key!r} is not configured as the header's predictor",
                    shard=shard.index,
                )
            entry = StreamEntry(predictor)
            entry.observations = predictor.observations
            shard.table.insert_restored(key, entry)
        return shard
