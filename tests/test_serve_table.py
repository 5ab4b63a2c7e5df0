"""Tests for the memory-bounded LRU stream table (repro.serve.table).

The contract: deterministic least-recently-used eviction under either cap,
an eviction counter that never resets, and resident-bytes accounting that
tracks the summed per-stream state size — so a serve process's memory
plateaus once a cap is reached, no matter how many distinct streams pass
through.
"""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.predictive.online import OnlineMessagePredictor
from repro.predictive.state import state_nbytes
from repro.serve.service import ServeService
from repro.serve.shard import Shard
from repro.serve.table import StreamEntry, StreamTable


def make_table(**kwargs):
    return StreamTable(lambda: OnlineMessagePredictor(nprocs=1, horizon=3), **kwargs)


def feed(table, key, count=1):
    entry = table.get(key, create=True)
    for _ in range(count):
        entry.predictor.observe(0, 1, 64)
    table.note_observations(entry, count)
    return entry


class TestLRUOrder:
    def test_get_touches_recency(self):
        table = make_table()
        for key in ("a", "b", "c"):
            feed(table, key)
        assert list(table.keys()) == ["a", "b", "c"]
        table.get("a")  # a plain lookup is a touch
        assert list(table.keys()) == ["b", "c", "a"]

    def test_get_without_create_never_builds_state(self):
        table = make_table()
        assert table.get("ghost") is None
        assert len(table) == 0
        assert table.streams_created == 0

    def test_pop_coldest_order(self):
        table = make_table()
        for key in ("a", "b", "c"):
            feed(table, key)
        table.get("a")
        assert table.pop_coldest()[0] == "b"
        assert table.pop_coldest()[0] == "c"
        assert table.pop_coldest()[0] == "a"
        assert table.pop_coldest() is None
        assert table.evictions == 3


class TestMaxStreams:
    def test_eviction_is_lru_and_counted(self):
        table = make_table(max_streams=2)
        feed(table, "a")
        feed(table, "b")
        feed(table, "c")  # evicts a
        assert list(table.keys()) == ["b", "c"]
        assert table.evictions == 1
        assert table.streams_created == 3
        table.get("b")  # touch b so d evicts c
        feed(table, "d")
        assert list(table.keys()) == ["b", "d"]
        assert table.evictions == 2

    def test_evicted_stream_recreated_fresh(self):
        table = make_table(max_streams=1)
        feed(table, "a", count=10)
        feed(table, "b")  # evicts a and its 10 observations
        entry = table.get("a", create=True)
        assert entry.observations == 0

    def test_eviction_determinism(self):
        # Same operation sequence -> same eviction victims, every time.
        def run():
            table = make_table(max_streams=3)
            victims = []
            before = set()
            for i in range(20):
                key = f"s{i % 7}"
                feed(table, key)
                now = set(table.keys())
                victims.extend(sorted(before - now))
                before = now
            return victims, list(table.keys()), table.evictions

        assert run() == run() == run()

    def test_service_residency_plateaus_at_shards_times_cap(self):
        # Distinct streams past the per-shard cap: every shard sits at its cap
        # and the service-wide counters show the eviction, not the traffic.
        service = ServeService(
            "periodicity:window=8,max_period=16,horizon=4", num_shards=4, max_streams=4
        )
        for sid in range(64):
            key = f"s{sid}"
            service.shard_for(key).observe_batch(key, [1, 2, 1, 3], [256, 4096, 256, 65536])
        stats = service.stats()
        assert stats["observations"] == 64 * 4
        assert stats["streams"] == 4 * 4
        assert stats["evictions"] == 64 - 16
        assert stats["resident_bytes_per_stream"] > 0


class TestResidentBytes:
    def test_accounting_matches_entry_sizes(self):
        table = make_table()
        for key in ("a", "b", "c"):
            feed(table, key)
        expected = sum(entry.nbytes for _, entry in table.items())
        assert table.resident_bytes == expected
        assert expected >= 3 * 1000  # predictor state is a few KB per stream

    def test_eviction_releases_bytes(self):
        table = make_table()
        feed(table, "a")
        feed(table, "b")
        before = table.resident_bytes
        _, evicted = table.pop_coldest()
        assert table.resident_bytes == before - evicted.nbytes

    def test_max_bytes_plateau(self):
        # Measure one stream's state size, cap the table at ~4 streams'
        # worth, then pour 50 distinct streams through: residency plateaus.
        probe = make_table()
        feed(probe, "probe")
        per_stream = probe.resident_bytes
        table = make_table(max_bytes=per_stream * 4)
        high_water = 0
        for i in range(50):
            feed(table, f"s{i}")
            high_water = max(high_water, table.resident_bytes)
        assert high_water <= per_stream * 4
        assert len(table) <= 4
        assert table.evictions >= 46

    def test_max_bytes_keeps_at_least_one_stream(self):
        table = make_table(max_bytes=1)  # absurdly small cap
        feed(table, "a")
        assert len(table) == 1  # the hot stream is never evicted from under us
        feed(table, "b")
        assert list(table.keys()) == ["b"]

    def test_every_observation_resizes_the_entry(self):
        table = make_table()
        entry = table.get("a", create=True)
        sizes, bookkeeping = set(), set()
        for value in range(60):  # never repeats: the masks grow past the first window
            entry.predictor.observe(0, value, 64 * value)
            table.note_observations(entry, 1)
            assert table.resident_bytes == entry.nbytes
            sizes.add(entry.nbytes)
            bookkeeping.add(entry.nbytes - state_nbytes(entry.predictor))
        assert len(sizes) == 60 and len(bookkeeping) == 1

    def test_accounting_survives_mixed_traffic(self):
        # Creates, resizes and evictions under both caps: the total is
        # always the sum of what the entries record.
        probe = make_table()
        feed(probe, "probe")
        table = make_table(max_streams=7, max_bytes=probe.resident_bytes * 6)
        for step in range(400):
            feed(table, f"s{(step * 7) % 23}", count=1 + step % 6)
            if step % 11 == 0:
                table.get(f"s{step % 23}")  # a touch, resident or not
            if step % 37 == 0:
                table.pop_coldest()
            assert table.resident_bytes == sum(e.nbytes for _, e in table.items())
        assert table.evictions > 50 and table.streams_created > 50


EVICTION_SCRIPT = """
import json, random
from repro.predictive.online import OnlineMessagePredictor
from repro.serve.table import StreamTable

for _ in range(int(__import__("sys").argv[1])):
    OnlineMessagePredictor(nprocs=1).observe(0, 1, 2)
table = StreamTable(lambda: OnlineMessagePredictor(nprocs=1), max_bytes=40_000)
rng = random.Random(11)
evicted, resident = [], set()
for step in range(600):
    key = f"s{rng.randrange(40)}"
    entry = table.get(key, create=True)
    for _ in range(rng.randrange(1, 30)):
        entry.predictor.observe(0, rng.randrange(6), 64 << rng.randrange(3))
    table.note_observations(entry, 1)
    now = set(table.keys())
    evicted.append(sorted(resident - now))
    resident = now
print(json.dumps({"evicted": evicted, "order": list(table.keys()), "bytes": table.resident_bytes}))
"""


def test_max_bytes_evicts_the_same_keys_in_any_process():
    """Sizes are a function of predictor state: the same operations evict the
    same keys in a fresh process and in one that has built 200 predictors."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    reports = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", EVICTION_SCRIPT, str(built)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            ).stdout
        )
        for built in (0, 200)
    ]
    assert reports[0] == reports[1]
    assert sum(map(len, reports[0]["evicted"])) > 50


class TestRestoredEntries:
    def test_insert_restored_is_accounted_and_hot(self):
        table = make_table()
        feed(table, "a")
        restored = StreamEntry(OnlineMessagePredictor(nprocs=1, horizon=3))
        table.insert_restored("z", restored)
        assert list(table.keys()) == ["a", "z"]
        assert table.resident_bytes == sum(e.nbytes for _, e in table.items())

    def test_insert_restored_replaces_existing(self):
        table = make_table()
        feed(table, "a", count=5)
        fresh = StreamEntry(OnlineMessagePredictor(nprocs=1, horizon=3))
        table.insert_restored("a", fresh)
        assert len(table) == 1
        assert table.get("a").observations == 0
        assert table.resident_bytes == fresh.nbytes


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_streams": 0}, {"max_bytes": 0}],
    )
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_table(**kwargs)

    def test_stats_shape(self):
        table = make_table(max_streams=8)
        feed(table, "a")
        stats = table.stats()
        assert stats["streams"] == 1
        assert stats["streams_created"] == 1
        assert stats["evictions"] == 0
        assert stats["max_streams"] == 8
        assert stats["resident_bytes"] == stats["resident_bytes_per_stream"]


def _shard_traffic(shard, rng, steps, directory):
    """Random traffic through ``shard`` (observes of one and of many, queries,
    snapshot round trips); yields ``(shard, resident keys in LRU order)``
    after every operation."""
    for step in range(steps):
        key = f"s{rng.randrange(24)}"
        roll = rng.random()
        if roll < 0.35:
            shard.observe(key, rng.randrange(5), 64 << rng.randrange(3))
        elif roll < 0.7:
            period = 1 + rng.randrange(6)
            run = [(step + i) % period for i in range(rng.randrange(2, 14))]
            shard.observe_batch(key, run, [8 * value for value in run])
        elif roll < 0.85:
            shard.predict(key, 1 + rng.randrange(8))
        elif roll < 0.97:
            shard.expects(key, rng.randrange(5))
        else:
            path = directory / f"step-{step}.snap"
            shard.snapshot(path)
            shard = Shard.restore(path)
        yield shard, list(shard.table.keys())


#: Recorded with the table that re-sized an entry on every observe run: the
#: sha256 of the JSON ``[stats, evicted keys, LRU order]`` after every step.
ACCOUNTING_GOLDEN = {
    (None, 60_000): "82be2748164a6f12e9aaeae07a5cf0c0d5b7f9be6e447e52a7f335765912e1e1",
    (9, 24_000): "aac8252625442253717858ce1b420d4be17d5ad41982c585ce05b07854a52804",
}


class TestAccountingOverRandomTraffic:
    @pytest.mark.parametrize("max_streams, max_bytes", sorted(ACCOUNTING_GOLDEN, key=str))
    def test_capped_table_evicts_and_counts_as_recorded(self, tmp_path, max_streams, max_bytes):
        shard = Shard(predictor="periodicity:window=4,max_period=16",
                      max_streams=max_streams, max_bytes=max_bytes)  # fmt: skip
        log, before = [], []
        for shard, after in _shard_traffic(shard, random.Random(46), 1500, tmp_path):
            evicted = [key for key in before if key not in after]
            log.append([shard.stats(), evicted, after])
            before = after
        assert sum(len(evicted) for _, evicted, _ in log) > 100
        digest = hashlib.sha256(json.dumps(log).encode()).hexdigest()
        assert digest == ACCOUNTING_GOLDEN[max_streams, max_bytes]

    def test_uncapped_table_reads_the_sum_of_fresh_sizes(self, tmp_path):
        shard = Shard(predictor="periodicity:window=4,max_period=16", max_streams=12)
        for shard, _ in _shard_traffic(shard, random.Random(7), 1500, tmp_path):
            fresh = sum(StreamEntry(entry.predictor).nbytes for _, entry in shard.table.items())
            assert shard.stats()["resident_bytes"] == fresh
        assert shard.table.evictions > 100
